"""The three workloads: inputs made from the workload seed, the fixed
list of `mandel-dip` operations run on them, and the check of each.

The program only ever sees what a user would hand it: config files,
curve CSVs and `--seed` values. Every list has a fixed length and fixed
cost-setting shapes (grid size, `max_pairs`, pulses per point); the seed
draws the physics around them, so the cost of a list barely moves from
seed to seed while its inputs do.

Sparse-regime inputs, where the named zero-count fault can strike, do
not depend on the seed: their outcome is the same on every run, so the
share of failed operations is too. Seeded inputs resolve every dip at
>= 40 Fisher sigma in V with >= 35 expected counts at its bottom, where
a zero count has probability below 1e-15 and the fit converges.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

import checks

PULSE_RATE_HZ = 7.6e7
# 1310/1550 nm only: the program fixes the pump at 710 nm.
FILTERS = {"signal_nm": 1310, "herald_nm": 1550, "pump_fwhm_nm": 4.5}


@dataclass
class Op:
    """One `mandel-dip` invocation and the check of what it produced."""

    label: str
    argv: List[str]
    # (stdout, return code, exception) -> (problems, failures). Both
    # empty means correct. Failures are those with the signature of the
    # named zero-count fault: the fit raised in `analysis.fit_dip`
    # before fit.json was written, reported `"converged": false`, or
    # missed the truth. Problems are anything else.
    check: Callable[[str, Optional[int], Optional[BaseException]],
                    Tuple[List[str], List[str]]]
    out: Optional[Path] = None
    # Sparse-regime input: failures are expected from the zero-count
    # fault, and `zero_counts` confirms that the fault can be the cause.
    may_fail: bool = False
    zero_counts: Callable[[], bool] = lambda: False

    def prepare(self) -> None:
        if self.out is not None and self.out.exists():
            shutil.rmtree(self.out)


@dataclass
class Workload:
    name: str
    ops: List[Op]
    configs: List[Path] = field(default_factory=list)
    curves: List[Path] = field(default_factory=list)
    # checks that run once per run, after the timed rounds
    once: Callable[[object], List[str]] = lambda program: []


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _config(rng, *, scheme, n_points, max_pairs, small_eta, pulses=200_000,
            p_range=(0.01, 0.1), same_p=False, eta_range=(0.05, 0.6),
            dark_max=1e-3, span=(3.5, 5.0)):
    """A scan config with a symmetric integer grid reaching `span` dip
    FWHM out; from 3.5 FWHM on, the overlap at the edges is below 1e-10."""
    p1 = float(rng.uniform(*p_range))
    p2 = p1 if same_p else float(np.clip(p1 * rng.uniform(0.8, 1.25), *p_range))
    cfg = {
        "sources": [{"P": p1}, {"P": p2}],
        "filters": dict(FILTERS, signal_fwhm_nm=float(rng.uniform(6, 12)),
                        herald_fwhm_nm=float(rng.uniform(6, 12))),
        "detectors": [{"eta": float(rng.uniform(*eta_range)),
                       "dark_prob": 0.0 if small_eta else float(rng.uniform(0, dark_max))}
                      for _ in range(4)],
        "scheme": scheme,
        "mc": {"pulses_per_point": pulses, "seed": 0},
        "pulse_rate_hz": PULSE_RATE_HZ,
        "collection_efficiency": 1.0,
        "spectral_mismatch": float(rng.uniform(0.0, 0.1)),
        "polarization_angle_rad": float(rng.uniform(0.0, 0.3)),
        "max_pairs": max_pairs,
        "small_eta": small_eta,
    }
    fwhm = math.sqrt(2.0) * checks.dip_coherence_length_um(cfg)
    half = (n_points - 1) // 2
    step = math.ceil(float(rng.uniform(*span)) * fwhm / half)
    cfg["delays"] = {"min_um": -step * half, "max_um": step * half,
                     "step_um": step}
    return cfg


def _read_outputs(out: Path):
    curve = checks.parse_curve_csv((out / "curve.csv").read_text())
    return curve, json.loads((out / "fit.json").read_text())


def _has_zero_count(csv_path: Path) -> bool:
    return bool(np.any(checks.parse_curve_csv(csv_path.read_text())[1] == 0.0))


def _fit_raised(exc) -> bool:
    """The fault's own exception: a RuntimeError raised by fit_dip."""
    if not isinstance(exc, RuntimeError):
        return False
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb is not None and tb.tb_frame.f_code.co_name == "fit_dip"


def _scan_status(out: Path, rc, exc) -> List[str]:
    if exc is not None:
        return [f"raised {type(exc).__name__}: {exc}"]
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [f for f in ("curve.csv", "fit.json", "manifest.json")
               if not (out / f).is_file()]
    return [f"missing {', '.join(missing)}"] if missing else []


# ------------------------------------------------------ scan-analytic

SHIPPED = ("ideal_threefold", "ideal_fivefold", "lab_fivefold")

# (scheme, small_eta, grid points, max_pairs): fixed shapes, seeded physics
ANALYTIC_SLOTS = (
    ("threefold", True, 31, 3),
    ("fivefold", True, 61, 3),
    ("fivefold", True, 31, 5),
    ("threefold", False, 101, 4),
    ("fivefold", False, 61, 5),
    ("threefold", False, 201, 3),
)


def scan_analytic(root: Path, work: Path, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cfgs = {name: json.loads((root / "configs" / f"{name}.json").read_text())
            for name in SHIPPED}
    for scheme, small, n, kmax in ANALYTIC_SLOTS:
        cfgs[f"{scheme}-{'small' if small else 'finite'}-{n}pt-k{kmax}"] = _config(
            rng, scheme=scheme, n_points=n, max_pairs=kmax, small_eta=small,
            same_p=small)
    ops, paths = [], []
    for i, (label, cfg) in enumerate(cfgs.items()):
        path = _write(work / "inputs" / f"{i}-{label}.json", json.dumps(cfg, indent=1))
        paths.append(path)
        out = work / "out" / str(i)

        def check(stdout, rc, exc, cfg=cfg, out=out):
            problems = _scan_status(out, rc, exc)
            if not problems:
                problems = checks.check_analytic_scan(cfg, *_read_outputs(out))
            return problems, []

        ops.append(Op(label, ["scan", str(path), "--mode", "analytic",
                              "--out", str(out)], check, out))
    return Workload("scan-analytic", ops, configs=paths)


# ----------------------------------------------------------- scan-mc

# The shipped paper regime, ~2.3 expected counts per point, at fixed MC
# seeds: 5 hits the named fault (the fit raises after curve.csv is
# written), 20 is the config's own seed (V clamped to 1, within 5 sigma).
PAPER_REGIME_SEEDS = (5, 20)

# (scheme, grid points, pulses per point, P range, efficiency range,
# grid reach in FWHM). Every draw resolves V at >= 40 Fisher sigma with
# >= 35 counts at the dip bottom; the threefold dip, V <= 1/3, needs
# 2e6 pulses for that.
MC_SLOTS = (
    ("fivefold", 31, 500_000, (0.06, 0.1), (0.6, 0.9), (3.5, 5.0)),
    ("fivefold", 61, 250_000, (0.08, 0.1), (0.7, 0.9), (3.5, 5.0)),
    ("threefold", 31, 2_000_000, (0.08, 0.1), (0.5, 0.7), (3.0, 4.0)),
)


class _AnalyticReference:
    """Analytic-mode curve and fit of a config, computed once per run
    outside the timed region."""

    def __init__(self, path: Path):
        self.path = path
        self.value = None

    def get(self, program):
        if self.value is None:
            cfg = program.cli.parse_config(json.loads(self.path.read_text()))
            curve = program.runner.dip_curve_analytic(cfg)
            fit = program.analysis.fit_dip(curve).to_dict()
            self.value = (curve.rates_hz, fit)
        return self.value


def scan_mc(root: Path, work: Path, seed: int, program) -> Workload:
    rng = np.random.default_rng([seed, 2])
    lab_path = root / "configs" / "lab_fivefold.json"
    lab = json.loads(lab_path.read_text())
    runs = [(f"lab_fivefold-seed{s}", lab, s, True) for s in PAPER_REGIME_SEEDS]
    for scheme, n, pulses, p_range, eta_range, span in MC_SLOTS:
        cfg = _config(rng, scheme=scheme, n_points=n, max_pairs=3,
                      small_eta=False, pulses=pulses, p_range=p_range,
                      eta_range=eta_range, span=span)
        runs.append((f"{scheme}-{n}pt-{pulses}", cfg,
                     int(rng.integers(0, 2 ** 31)), False))
    ops, paths = [], []
    for i, (label, cfg, mc_seed, sparse) in enumerate(runs):
        path = _write(work / "inputs" / f"{i}-{label}.json", json.dumps(cfg, indent=1))
        paths.append(path)
        out = work / "out" / str(i)
        ref = _AnalyticReference(path)

        def check(stdout, rc, exc, cfg=cfg, out=out, ref=ref):
            status = _scan_status(out, rc, exc)
            if not (out / "curve.csv").is_file():
                return status, []
            # The curve is checked whenever it was written, also when
            # the fit raised afterwards.
            n = cfg["mc"]["pulses_per_point"]
            curve = checks.parse_curve_csv((out / "curve.csv").read_text())
            rates, fit = ref.get(program)
            problems = checks.check_mc_curve(cfg, n, curve, rates)
            if not status:
                report = json.loads((out / "fit.json").read_text())
                fit_problems, failures = checks.check_mc_fit(
                    cfg, n, curve[0], report, fit)
                return problems + fit_problems, failures
            if _fit_raised(exc) and not any(
                    (out / f).exists() for f in ("fit.json", "manifest.json")):
                return problems, status
            return problems + status, []

        def zero_counts(out=out):
            csv = out / "curve.csv"
            return csv.is_file() and _has_zero_count(csv)

        ops.append(Op(label, ["scan", str(path), "--mode", "mc", "--seed",
                              str(mc_seed), "--out", str(out)],
                      check, out, may_fail=sparse, zero_counts=zero_counts))

    first = next(op for op in ops if not op.may_fail)

    def same_seed_same_curve(program) -> List[str]:
        """Re-run the first seeded scan; curve.csv must be byte-identical."""
        again = work / "out" / "again"
        if again.exists():
            shutil.rmtree(again)
        argv = first.argv[:-1] + [str(again)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                program.cli.main(argv)
        except Exception as err:  # reported as a failed check
            return [f"re-run raised {type(err).__name__}: {err}"]
        if (again / "curve.csv").read_bytes() != (first.out / "curve.csv").read_bytes():
            return ["same seed gave a different curve.csv"]
        return []

    return Workload("scan-mc", ops, configs=paths, once=same_seed_same_curve)


# -------------------------------------------------------- fit-curves

FIT_SHAPES = (31, 61, 101, 201)
N_SEEDED_CURVES = 24
# The lab_fivefold MC regime (1e6 pulses, 31 points, ~2.75 counts out of
# the dip) drawn at fixed seeds: zero-count points occur.
SPARSE_TRUTH = {"S": 2.75e-6 * PULSE_RATE_HZ, "V": 0.866, "fwhm_um": 184.0}
SPARSE_DELAYS = -500.0 + 33.0 * np.arange(31)
SPARSE_PULSES = 1_000_000
SPARSE_DRAW_SEEDS = tuple(range(16))


def _draw_curve(rng, truth, delays, n_pulses, noiseless=False):
    p = checks.gaussian_dip(delays, truth["S"], truth["V"],
                            truth["fwhm_um"] / checks.FWHM_PER_SIGMA) / PULSE_RATE_HZ
    if not noiseless:
        p = rng.binomial(n_pulses, p) / n_pulses
    err = np.sqrt(p * (1.0 - p) / n_pulses) * PULSE_RATE_HZ
    return checks.format_curve_csv(delays, p * PULSE_RATE_HZ, err)


def _seeded_truth(rng, n_points):
    """A dip resolved well enough that the 5-sigma checks hold on every
    draw: V at >= 60 Fisher sigma and >= 1000 counts at the bottom.
    Below that the program's fit fails on about 1 draw in 1000."""
    v = float(rng.uniform(0.2, 0.9))
    fwhm = float(rng.uniform(80.0, 250.0))
    n_pulses = int(10 ** rng.uniform(6, 7))
    delays = np.linspace(-1.0, 1.0, n_points) * rng.uniform(3.0, 5.0) * fwhm
    one_count = PULSE_RATE_HZ / n_pulses
    unit = checks.fisher_sigmas(delays, one_count, v, fwhm / checks.FWHM_PER_SIGMA,
                                n_pulses, PULSE_RATE_HZ)["V"]
    need = max((60.0 * unit / v) ** 2, 1000.0 / (1.0 - v))
    counts_out = need * 10 ** rng.uniform(0.0, 0.5)
    return {"S": counts_out * one_count, "V": v, "fwhm_um": fwhm}, delays, n_pulses


def fit_curves(root: Path, work: Path, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    curves = []   # (label, truth, delays, pulses, csv text, noiseless, sparse)
    for n in FIT_SHAPES:
        truth, delays, pulses = _seeded_truth(rng, n)
        curves.append((f"noiseless-{n}pt", truth, delays, pulses,
                       _draw_curve(rng, truth, delays, pulses, True), True, False))
    for s in SPARSE_DRAW_SEEDS:
        text = _draw_curve(np.random.default_rng([s, 4]), SPARSE_TRUTH,
                           SPARSE_DELAYS, SPARSE_PULSES)
        curves.append((f"sparse-draw{s}", SPARSE_TRUTH, SPARSE_DELAYS,
                       SPARSE_PULSES, text, False, True))
    for i in range(N_SEEDED_CURVES):
        n = FIT_SHAPES[i % len(FIT_SHAPES)]
        truth, delays, pulses = _seeded_truth(rng, n)
        curves.append((f"binomial-{n}pt-{i}", truth, delays, pulses,
                       _draw_curve(rng, truth, delays, pulses), False, False))
    ops, paths = [], []
    for i, (label, truth, delays, pulses, text, noiseless, sparse) in enumerate(curves):
        path = _write(work / "inputs" / f"{i}-{label}.csv", text)
        paths.append(path)

        def check(stdout, rc, exc, truth=truth, delays=delays, pulses=pulses,
                  noiseless=noiseless):
            if exc is not None:
                return [f"raised {type(exc).__name__}: {exc}"], []
            if rc != 0:
                return [f"exit code {rc}"], []
            return checks.check_fit(truth, json.loads(stdout), delays, pulses,
                                    PULSE_RATE_HZ, noiseless)

        ops.append(Op(label, ["fit", str(path)], check, may_fail=sparse,
                      zero_counts=lambda path=path: _has_zero_count(path)))
    return Workload("fit-curves", ops, curves=paths)


def build(name: str, root: Path, work: Path, seed: int, program) -> Workload:
    if name == "scan-analytic":
        return scan_analytic(root, work, seed)
    if name == "scan-mc":
        return scan_mc(root, work, seed, program)
    if name == "fit-curves":
        return fit_curves(root, work, seed)
    raise KeyError(name)


NAMES = ("scan-analytic", "scan-mc", "fit-curves")
