"""Compare what two source checkouts of mandeldip print on the same inputs.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [options]

Each checkout runs `mandeldip.cli.main` from its own `src/`, in its own
process, over one set of inputs made once from CHANGE_ROOT:

- `scan --mode analytic` of the three shipped configs;
- `scan --mode mc` of `configs/lab_fivefold.json` at `--seed` 0 to
  `--lab-seeds` - 1 (40 by default);
- every `scan-analytic` and `scan-mc` operation of the benchmark at
  workload seeds 1-3, and `fit` on the `fit-curves` CSVs of the same
  seeds, all built by `benchmarks/workloads.py` as the benchmark builds
  them.

It reports whether each `curve.csv` is byte-identical, whether exit
codes, errors, warnings and each fit's `converged` and `clamped` flags
and error message are equal, the largest relative difference in each
numeric field of `fit.json` (and of `fit`'s report), and how many fits
changed `iterations`. The residual is compared where it exceeds
`--residual-rtol` times S on either side; elsewhere it is float noise,
and both sides must be below `--residual-noise` times S. The exit code
is 1 when anything differs beyond these bounds, 0 otherwise.

Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

PARAMS = ("S", "V", "sigma_tau_um", "fwhm_um", "accidental_hz")
FLAGS = ("converged", "clamped", "error")
WORKLOAD_SEEDS = (1, 2, 3)
SHIPPED = ("ideal_threefold", "ideal_fivefold", "lab_fivefold")
OUT = "{out}"  # stands for a scan's output directory in a job's argv


def build_jobs(root: Path, work: Path, lab_seeds: int) -> list:
    """(name, argv) of every run, with its inputs written under `work`."""
    sys.path.insert(0, str(root / "benchmarks"))
    import workloads

    configs = root / "configs"
    jobs = [(f"analytic-{name}", ["scan", str(configs / f"{name}.json"),
                                  "--mode", "analytic", "--out", OUT])
            for name in SHIPPED]
    jobs += [(f"lab_fivefold-mc-seed{seed}",
              ["scan", str(configs / "lab_fivefold.json"), "--mode", "mc",
               "--seed", str(seed), "--out", OUT]) for seed in range(lab_seeds)]
    for seed in WORKLOAD_SEEDS:
        # scan_mc's `program` serves only its checks, which do not run here
        built = (workloads.scan_analytic(root, work / f"scan-analytic-{seed}", seed),
                 workloads.scan_mc(root, work / f"scan-mc-{seed}", seed, None),
                 workloads.fit_curves(root, work / f"fit-curves-{seed}", seed))
        for workload in built:
            for op in workload.ops:
                # the benchmark's own output directory gives way to OUT
                argv = [OUT if op.out is not None and a == str(op.out) else a
                        for a in op.argv]
                jobs.append((f"{workload.name}-{seed}-{op.label}", argv))
    return jobs


def run_jobs(root: Path, jobs_path: Path, out: Path) -> None:
    """Run every job through `root`'s own `mandeldip.cli.main`."""
    sys.path.insert(0, str(root / "src"))
    import mandeldip
    from mandeldip import cli

    if Path(mandeldip.__file__).parent != root / "src" / "mandeldip":
        raise ImportError(f"mandeldip imported from {mandeldip.__file__}")
    results = {}
    for i, (name, argv) in enumerate(json.loads(jobs_path.read_text())):
        argv = [str(out / str(i)) if a == OUT else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, exc = None, None
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as err:
                exc = f"{type(err).__name__}: {err}"
        results[name] = {
            "command": argv[0], "dir": str(out / str(i)), "rc": rc,
            "exception": exc,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
    (out / "results.json").write_text(json.dumps(results))


def fit_reports(result: dict) -> dict:
    """The fit reports of a job by label: `raw` and `net` of a scan's
    fit.json, or the report `fit` prints."""
    if result["rc"] != 0:
        return {}
    if result["command"] == "scan":
        path = Path(result["dir"]) / "fit.json"
        if not path.is_file():
            return {}
        report = json.loads(path.read_text())
        return {"raw": dict(report["raw"], accidental_hz=report["accidental_hz"]),
                "net": report["net"]}
    return {"fit": json.loads(result["stdout"])}


class Comparison:
    def __init__(self, bounds):
        self.bounds = bounds
        self.problems = []
        self.largest = {key: 0.0 for key in PARAMS + ("residual",)}
        self.noise = 0.0   # largest residual / S among noise-level residuals
        self.curves = self.curves_same = self.fits = 0
        self.iterations = []   # |change| of every fit whose count changed

    def job(self, name: str, old: dict, new: dict) -> None:
        for key in ("rc", "exception", "stderr", "warnings"):
            if old[key] != new[key]:
                self.problems.append(
                    f"{name}: {key} {old[key]!r} -> {new[key]!r}")
        csvs = [Path(result["dir"]) / "curve.csv" for result in (old, new)]
        if any(csv.is_file() for csv in csvs):
            self.curves += 1
            if all(csv.is_file() for csv in csvs) and \
                    csvs[0].read_bytes() == csvs[1].read_bytes():
                self.curves_same += 1
            else:
                self.problems.append(f"{name}: curve.csv differs")
        old_fits, new_fits = fit_reports(old), fit_reports(new)
        for label in sorted(set(old_fits) | set(new_fits)):
            self.fit(f"{name} {label}", old_fits.get(label, {}),
                     new_fits.get(label, {}))

    def fit(self, where: str, old: dict, new: dict) -> None:
        self.fits += 1
        for key in FLAGS:
            if old.get(key) != new.get(key):
                self.problems.append(f"{where}: {key} {old.get(key)!r} -> "
                                     f"{new.get(key)!r}")
        if not (old.get("converged") and new.get("converged")):
            return
        for key in PARAMS:
            if key in old:
                self.relative(where, key, old[key], new[key],
                              self.bounds.param_rtol)
        s = min(old["S"], new["S"])
        residuals = old["residual"], new["residual"]
        if max(residuals) > self.bounds.residual_rtol * s:
            self.relative(where, "residual", *residuals,
                          self.bounds.residual_rtol)
        else:
            self.noise = max(self.noise, max(residuals) / s)
            if max(residuals) >= self.bounds.residual_noise * s:
                self.problems.append(
                    f"{where}: residual {residuals[0]!r} -> {residuals[1]!r} "
                    f"is neither above {self.bounds.residual_rtol:g} S nor "
                    f"below {self.bounds.residual_noise:g} S")
        if old["iterations"] != new["iterations"]:
            self.iterations.append(abs(new["iterations"] - old["iterations"]))

    def relative(self, where, key, old, new, bound) -> None:
        diff = abs(new - old) / max(abs(old), abs(new)) if new != old else 0.0
        self.largest[key] = max(self.largest[key], diff)
        if not diff <= bound:
            self.problems.append(f"{where}: {key} {old!r} -> {new!r} "
                                 f"(relative {diff:.2e} > {bound:g})")

    def report(self, jobs: int) -> str:
        lines = [f"jobs: {jobs}, of which {self.curves} wrote curve.csv; "
                 f"{self.fits} fit reports",
                 f"curve.csv byte-identical: {self.curves_same} of "
                 f"{self.curves}",
                 "largest relative difference:"]
        for key, diff in self.largest.items():
            bound = (self.bounds.residual_rtol if key == "residual"
                     else self.bounds.param_rtol)
            lines.append(f"  {key:<14}{diff:.3e}  (bound {bound:g})")
        lines.append(f"noise-level residuals: largest {self.noise:.3e} S "
                     f"(bound {self.bounds.residual_noise:g} S)")
        if self.iterations:
            lines.append(f"iterations changed on {len(self.iterations)} fits, "
                         f"by at most {max(self.iterations)}")
        else:
            lines.append("iterations unchanged on every fit")
        lines.append(f"differences beyond the bounds: {len(self.problems)}")
        lines += [f"  {p}" for p in self.problems[:20]]
        return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--lab-seeds", type=int, default=40,
                        help="lab_fivefold MC seeds 0..N-1 (default 40)")
    parser.add_argument("--param-rtol", type=float, default=1e-10,
                        help="bound on the relative change of S, V, "
                             "sigma_tau_um, fwhm_um and accidental_hz")
    parser.add_argument("--residual-rtol", type=float, default=1e-9,
                        help="bound on the relative change of a residual "
                             "above this many S on either side")
    parser.add_argument("--residual-noise", type=float, default=1e-10,
                        help="bound, in S, on both sides of every other "
                             "residual, which is float noise")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs, kept "
                             "(default: a temporary one, removed)")
    args = parser.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    try:
        jobs = build_jobs(args.change.resolve(), work / "inputs",
                          args.lab_seeds)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        results = []
        for side, root in (("parent", args.parent), ("change", args.change)):
            out = work / side
            out.mkdir(parents=True, exist_ok=True)
            subprocess.run([sys.executable, __file__, "--run",
                            str(root.resolve()), str(jobs_path), str(out)],
                           env=env, check=True)
            results.append(json.loads((out / "results.json").read_text()))
        comparison = Comparison(args)
        for name, _ in jobs:
            comparison.job(name, results[0][name], results[1][name])
        print(comparison.report(len(jobs)))
        return 1 if comparison.problems else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_jobs(Path(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4]))
    else:
        sys.exit(main())
