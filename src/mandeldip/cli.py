"""Command-line front end: analytic calculators, delay scans, dip fits.

Subcommands:
  analytic  print the closed-form visibilities for a pair probability
  scan      run a delay scan from a JSON config; write CSV, fit, manifest
  fit       fit a curve CSV and print the fit report JSON

Config and validation failures exit nonzero with a machine-readable
error JSON on stderr. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, analysis, runner
from .detect import ALL_ROLES, CoincidenceScheme, DetectorModel
from .optics import FilterSpec
from .pdc import SourceParams
from .runner import DipCurve, ExperimentConfig

CSV_HEADER = ["delay_um", "rate_hz", "err_hz"]


class ConfigError(ValueError):
    pass


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _parse_source(entry: dict, where: str) -> SourceParams:
    if "zeta" in entry:
        return SourceParams(zeta=float(entry["zeta"]))
    if "P" in entry:
        return SourceParams.from_pair_probability(float(entry["P"]))
    raise ConfigError(f"{where} needs either 'zeta' or 'P'")


def parse_config(data: dict, seed_override: Optional[int] = None
                 ) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON config schema."""
    sources = _require(data, "sources", "config")
    if not isinstance(sources, list) or len(sources) != 2:
        raise ConfigError("'sources' must be a list of two entries")
    s1 = _parse_source(sources[0], "sources[0]")
    s2 = _parse_source(sources[1], "sources[1]")

    filters = _require(data, "filters", "config")
    signal = FilterSpec(float(_require(filters, "signal_nm", "filters")),
                        float(_require(filters, "signal_fwhm_nm", "filters")))
    herald = FilterSpec(float(_require(filters, "herald_nm", "filters")),
                        float(_require(filters, "herald_fwhm_nm", "filters")))
    # energy conservation fixes the pump centre: 1/pump = 1/signal + 1/herald
    pump = FilterSpec(1.0 / (1.0 / signal.center_nm + 1.0 / herald.center_nm),
                      float(_require(filters, "pump_fwhm_nm", "filters")))

    det_entries = _require(data, "detectors", "config")
    if not isinstance(det_entries, list) or len(det_entries) != 4:
        raise ConfigError("'detectors' must list 4 entries "
                          "(Ge-1310, InGaAs-1310, InGaAs-1550-1, InGaAs-1550-2)")
    detectors = {}
    for role, entry in zip(ALL_ROLES, det_entries):
        detectors[role] = DetectorModel(
            role,
            eta=float(_require(entry, "eta", f"detectors[{role}]")),
            dark_prob=float(entry.get("dark_prob", 0.0)))

    scheme = CoincidenceScheme(str(_require(data, "scheme", "config")))

    delays = _require(data, "delays", "config")
    lo = float(_require(delays, "min_um", "delays"))
    hi = float(_require(delays, "max_um", "delays"))
    step = float(_require(delays, "step_um", "delays"))
    if step <= 0 or hi < lo:
        raise ConfigError("delays require step_um > 0 and max_um >= min_um")
    grid, x = [], lo
    while x <= hi + 1e-9 * max(abs(hi), 1.0):
        grid.append(round(x, 9))
        x += step
    if not grid:
        raise ConfigError("empty delay grid")

    mc = data.get("mc", {})
    seed = int(mc.get("seed", 0))
    if seed_override is not None:
        seed = seed_override

    try:
        return ExperimentConfig(
            source1=s1, source2=s2,
            signal_filter=signal, herald_filter=herald, pump_filter=pump,
            detectors=detectors, scheme=scheme,
            delays_um=tuple(grid),
            pulses_per_point=int(mc.get("pulses_per_point", 100_000)),
            seed=seed,
            pulse_rate_hz=float(data.get("pulse_rate_hz",
                                         runner.DEFAULT_PULSE_RATE_HZ)),
            collection_efficiency=float(data.get("collection_efficiency", 1.0)),
            polarization_angle_rad=float(data.get("polarization_angle_rad", 0.0)),
            spectral_mismatch=float(data.get("spectral_mismatch", 0.0)),
            max_pairs=int(data.get("max_pairs", 3)),
            small_eta=bool(data.get("small_eta", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_curve_csv(curve: DipCurve, path: Path) -> None:
    lines = [",".join(CSV_HEADER)]
    for d, r, e in zip(curve.delays_um, curve.rates_hz, curve.errors_hz):
        lines.append(f"{d:.9g},{r:.12g},{e:.12g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_curve_csv(path: Path) -> DipCurve:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(
                f"CSV header must be {','.join(CSV_HEADER)!r}")
        rows = [(float(r[0]), float(r[1]), float(r[2])) for r in reader if r]
    if not rows:
        raise ConfigError("CSV contains no data rows")
    delays, rates, errs = zip(*rows)
    return DipCurve(delays_um=delays, rates_hz=rates, errors_hz=errs,
                    mode="data")


def cmd_analytic(args) -> int:
    p = args.pair_probability
    q = args.overlap_sq
    if not 0.0 <= q <= 1.0:
        raise ConfigError("overlap-sq must lie in [0, 1]")
    v3 = q * runner.analytic_visibility_threefold()
    v5 = q * runner.analytic_visibility_fivefold_max(p)
    print(json.dumps({"V_threefold": float(f"{v3:.6g}"),
                      "V_fivefold_max": float(f"{v5:.6g}")}, indent=2))
    return 0


def _fit_report(curve: DipCurve) -> dict:
    """Fit report of a curve; a fit that does not converge is reported,
    not raised, so every command still writes its outputs."""
    try:
        return analysis.fit_dip(curve).to_dict()
    except RuntimeError as exc:
        return {"converged": False, "error": str(exc)}


def cmd_scan(args) -> int:
    config_text = Path(args.config).read_text()
    cfg = parse_config(json.loads(config_text), seed_override=args.seed)
    if args.mode == "mc":
        curve = runner.dip_curve_mc(cfg)
    else:
        curve = runner.dip_curve_analytic(cfg)

    out_dir = Path(args.out)
    curve_path = out_dir / "curve.csv"
    fit_path = out_dir / "fit.json"
    manifest_path = out_dir / "manifest.json"
    write_curve_csv(curve, curve_path)

    report = {"raw": _fit_report(curve)}
    floor = runner.accidental_floor_hz(cfg)
    report["accidental_hz"] = floor
    if floor > 0.0:
        report["net"] = _fit_report(analysis.subtract_floor(curve, floor))
    else:
        report["net"] = report["raw"]
    _atomic_write(fit_path, json.dumps(report, indent=2) + "\n")

    manifest = {
        "config_digest": hashlib.sha256(config_text.encode()).hexdigest(),
        "experiment_digest": cfg.digest(),
        "tool_version": __version__,
        "seed": cfg.seed,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {"curve": str(curve_path), "fit": str(fit_path)},
    }
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    print(json.dumps({"out": str(out_dir),
                      "V_raw": report["raw"].get("V"),
                      "V_net": report["net"].get("V")}, indent=2))
    return 0


def cmd_fit(args) -> int:
    curve = read_curve_csv(Path(args.csv))
    print(json.dumps(_fit_report(curve), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mandel-dip",
        description="Two-source Mandel-dip simulator and dip fitter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic",
                          help="closed-form dip visibilities for a pair probability")
    p_an.add_argument("--pair-probability", "-P", type=float, required=True)
    p_an.add_argument("--overlap-sq", type=float, default=1.0,
                      help="center overlap |m|^2 (default 1)")
    p_an.set_defaults(func=cmd_analytic)

    p_scan = sub.add_parser("scan", help="run a delay scan from a JSON config")
    p_scan.add_argument("config", help="path to JSON config")
    p_scan.add_argument("--mode", choices=("analytic", "mc"), default="analytic")
    p_scan.add_argument("--out", required=True, help="output directory")
    p_scan.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    p_scan.set_defaults(func=cmd_scan)

    p_fit = sub.add_parser("fit", help="fit a curve CSV")
    p_fit.add_argument("csv", help="path to curve CSV")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc),
                          "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
