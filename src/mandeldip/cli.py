"""Command-line front end: analytic calculators, delay scans, dip fits.

Subcommands:
  analytic  print the closed-form visibilities for a pair probability
  scan      run a delay scan from a JSON config; write CSV, fit, manifest
  fit       fit a curve CSV and print the fit report JSON

Config and validation failures exit 2 with an error JSON on stderr. A
scan refuses before its engine runs, or removes an old manifest.json, makes
the output directory and writes curve.csv, fit.json and manifest.json in
turn, each atomically and with the mode the umask gives, which it never
sets: the set is not atomic, so a failed write can leave the files before
it, and only manifest.json marks a whole set. config_digest is the SHA-256
of the config's bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, analysis, runner
from .detect import ALL_ROLES, DetectorModel
from .runner import DipCurve, ExperimentConfig

CSV_HEADER = ["delay_um", "rate_hz", "err_hz"]


class ConfigError(ValueError):
    pass


_JSON_TYPES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}

# The keys of each config section and their JSON types: those it must
# set, then those it may leave out. An optional key left out takes the
# default of the `ExperimentConfig` or `DetectorModel` field of its name.
_SCHEMA = {
    "config": ({"sources": list, "filters": dict, "detectors": list,
                "scheme": str, "delays": dict},
               {"mc": dict, "pulse_rate_hz": float,
                "collection_efficiency": float,
                "polarization_angle_rad": float, "spectral_mismatch": float,
                "max_pairs": int, "small_eta": bool}),
    "sources": ({"P": float}, {}),
    "filters": (dict.fromkeys(("signal_nm", "signal_fwhm_nm", "herald_nm",
                               "herald_fwhm_nm", "pump_fwhm_nm"), float), {}),
    "detectors": ({"eta": float}, {"dark_prob": float}),
    "delays": (dict.fromkeys(("min_um", "max_um", "step_um"), float), {}),
    "mc": ({}, {"pulses_per_point": int, "seed": int}),
}

# Largest delay grid a config may expand to, checked before it is built
MAX_GRID_POINTS = 100_001


def _field(mapping: dict, key: str, where: str, kind: type) -> object:
    """`mapping[key]` as `kind`.

    Only the matching JSON type is accepted: a number is never a bool,
    string or null, and an integer has no fractional part. A wrong type,
    or a number that is not finite as a float (`1e400`, `Infinity`,
    `NaN`, an integer beyond the float range), is a ConfigError, not a
    TypeError, an OverflowError or a silent conversion.
    """
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    value = mapping[key]
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and kind is not bool):
        raise ConfigError(f"{key!r} in {where} must be {_JSON_TYPES[kind]}")
    try:
        value = kind(value)
    except OverflowError:
        value = math.inf
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key!r} in {where} must be a finite number")
    return value


def _section(mapping, where: str) -> dict:
    """The keys that section `where` must set, and those of its optional
    keys that it sets, each read by `_field`; any other key is a
    ConfigError. `where` is the section's name, indexed for a list entry."""
    keys, optional = _SCHEMA[where.partition("[")[0]]
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    for key in mapping:
        if key not in keys and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return {key: _field(mapping, key, where, kind)
            for key, kind in {**keys, **optional}.items()
            if key in keys or key in mapping}


def _build(prefix: str, make, **kwargs):
    """`make(**kwargs)`, whose ValueError (a record's range check)
    becomes a ConfigError of the same message after `prefix`."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def parse_config(data: dict, seed_override: Optional[int] = None
                 ) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON config schema; its range
    checks and their messages are `ExperimentConfig`'s own."""
    options = _section(data, "config")
    options["pair_probabilities"] = [
        _section(entry, f"sources[{i}]")["P"]
        for i, entry in enumerate(options.pop("sources"))]
    options.update(_section(options.pop("filters"), "filters"))

    det_entries = options.pop("detectors")
    if len(det_entries) != len(ALL_ROLES):
        raise ConfigError(f"'detectors' must list {len(ALL_ROLES)} entries "
                          f"({', '.join(ALL_ROLES)})")
    options["detectors"] = {
        role: _build(f"detectors[{role}]: ", DetectorModel,
                     **_section(entry, f"detectors[{role}]"))
        for role, entry in zip(ALL_ROLES, det_entries)}

    delays = _section(options.pop("delays"), "delays")
    lo, hi, step = delays["min_um"], delays["max_um"], delays["step_um"]
    if step <= 0 or hi < lo:
        raise ConfigError("delays require step_um > 0 and max_um >= min_um")
    # a point within 1e-9 relative of max_um still counts; an overflowing
    # span gives an infinite count, which fails the same check
    steps = (hi - lo + 1e-9 * max(abs(hi), 1.0)) / step
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"delays give more than {MAX_GRID_POINTS} points")
    # `+ 0.0` writes a zero delay as 0, never -0
    options["delays_um"] = tuple(round(lo + i * step, 9) + 0.0
                                 for i in range(math.floor(steps) + 1))

    options.update(_section(options.pop("mc", {}), "mc"))
    if seed_override is not None:
        options["seed"] = seed_override
    return _build("", ExperimentConfig, **options)


def _atomic_write(path: Path, text: str) -> None:
    """Write `text` to `path`, in an existing directory."""
    # "x" opens only a new name, with the umask's mode; a str, since a Path
    # interns its name, and random names grow that table by about 1.5 MB
    tmp = f"{path}.{os.urandom(8).hex()}"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_curve_csv(curve: DipCurve, path: Path) -> None:
    lines = [",".join(CSV_HEADER)]
    for d, r, e in zip(curve.delays_um, curve.rates_hz, curve.errors_hz):
        lines.append(f"{d:.9g},{r:.12g},{e:.12g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_curve_csv(path: Path) -> DipCurve:
    # one read; the lines split where iterating the file would split them
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh.readlines())
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ConfigError(f"CSV header must be {','.join(CSV_HEADER)!r}")
    try:
        rows = [(float(d), float(r), float(e))
                for d, r, e in filter(None, reader)]
    except ValueError as exc:
        # the reader stops at the offending row
        raise ConfigError(f"CSV line {reader.line_num}: expected three "
                          f"numbers ({exc})") from None
    if not rows:
        raise ConfigError("CSV contains no data rows")
    delays, rates, errs = zip(*rows)
    return DipCurve(delays_um=delays, rates_hz=rates, errors_hz=errs)


def cmd_analytic(args) -> int:
    p = args.pair_probability
    values = {"V_threefold": runner.analytic_visibility_threefold(),
              "V_fivefold_max": runner.analytic_visibility_fivefold_max(p),
              "V_fivefold_untruncated":
                  runner.analytic_visibility_fivefold_untruncated(p)}
    print(json.dumps({k: float(f"{v:.6g}") for k, v in values.items()},
                     indent=2))
    return 0


def _fit_report(curve: DipCurve) -> dict:
    """Fit report of a curve; a fit that does not converge is reported,
    not raised, so every command still writes its outputs."""
    try:
        return analysis.fit_dip(curve).to_dict()
    except RuntimeError as exc:
        return {"converged": False, "error": str(exc)}


def cmd_scan(args) -> int:
    config_bytes = Path(args.config).read_bytes()
    cfg = parse_config(json.loads(config_bytes), seed_override=args.seed)
    if len(cfg.delays_um) < analysis.MIN_FIT_POINTS:
        raise ConfigError(f"delays give {len(cfg.delays_um)} points; the fit "
                          f"needs at least {analysis.MIN_FIT_POINTS} points")
    if args.mode == "mc":
        curve = runner.dip_curve_mc(cfg)
    else:
        curve = runner.dip_curve_analytic(cfg)

    out_dir = Path(args.out)
    curve_path = out_dir / "curve.csv"
    fit_path = out_dir / "fit.json"
    manifest_path = out_dir / "manifest.json"
    # an old manifest would mark the mixed set a failed write leaves
    manifest_path.unlink(missing_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        "config_digest": hashlib.sha256(config_bytes).hexdigest(),
        "experiment_digest": cfg.digest(),
        "tool_version": __version__,
        "mode": args.mode,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call, not at
    import, and reused by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="mandel-dip",
        description="Two-source Mandel-dip simulator and dip fitter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic",
                          help="closed-form dip visibilities for a pair probability")
    p_an.add_argument("--pair-probability", "-P", type=float, required=True)

    p_scan = sub.add_parser("scan", help="run a delay scan from a JSON config")
    p_scan.add_argument("config", help="path to JSON config")
    p_scan.add_argument("--mode", choices=("analytic", "mc"), default="analytic")
    p_scan.add_argument("--out", required=True, help="output directory")
    p_scan.add_argument("--seed", type=int, default=None,
                        help="override the config seed")

    p_fit = sub.add_parser("fit", help="fit a curve CSV")
    p_fit.add_argument("csv", help="path to curve CSV")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a handler replaced on the module runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:  # ConfigError and JSON errors too
        print(json.dumps({"error": str(exc),
                          "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
