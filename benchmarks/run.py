"""Benchmark of `mandel-dip scan` and `mandel-dip fit`.

    python3 benchmarks/run.py --workload scan-analytic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The program is imported from
`src/` of that checkout and driven only through `mandeldip.cli.main`,
in this one process and thread. Inputs are made from `--seed`; the
workload's fixed list of operations is run in whole rounds until
`--seconds` have passed, and every operation's output is checked.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
timed rounds, then one more pass with every public function of the
program's modules wrapped, and prints the per-layer metrics. The last
line of stdout is the result JSON; work files, results and spans go to
`.bench_build/benchmarks/<workload>/`.
"""

from __future__ import annotations

import os

# One thread everywhere: pin BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15


class Program:
    """The mandeldip modules, freshly imported by `load`."""

    def load(self) -> None:
        for name in [m for m in sys.modules
                     if m == "mandeldip" or m.startswith("mandeldip.")]:
            del sys.modules[name]
        pkg = importlib.import_module("mandeldip")
        if Path(pkg.__file__).resolve().parent != SRC / "mandeldip":
            raise ImportError(f"mandeldip imported from {pkg.__file__}, "
                              f"not from {SRC}")
        self.modules = [importlib.import_module(f"mandeldip.{m}")
                        for m in layers.MODULES]
        for mod in self.modules:
            setattr(self, mod.__name__.rsplit(".", 1)[-1], mod)


def set_up(program: Program, workload) -> float:
    """Import mandeldip afresh and parse the workload's inputs with the
    program's own parsers; returns the seconds taken."""
    t0 = time.perf_counter()
    program.load()
    for path in workload.configs:
        program.cli.parse_config(json.loads(path.read_text()))
    for path in workload.curves:
        program.cli.read_curve_csv(path)
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.times = []
        self.setups = []
        self.attempted = self.failed = 0
        self.problems = []

    def judge(self, op, problems, failures) -> None:
        """Count the operation; anything but the named zero-count fault,
        on a sparse input that holds a zero count, is a check failure."""
        self.attempted += 1
        if not (problems or failures):
            return
        self.failed += 1
        if not (op.may_fail and op.zero_counts()):
            problems = problems + failures
        if problems:
            self.problems.append(f"{op.label}: {'; '.join(problems)}")


def run_op(program: Program, op):
    """Run one operation; returns (seconds, problems, failures)."""
    op.prepare()
    buf = io.StringIO()
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = program.cli.main(op.argv)
    except Exception as err:  # an operation that fails is counted, not fatal
        exc = err
    dt = time.perf_counter() - t0
    try:
        problems, failures = op.check(buf.getvalue(), rc, exc)
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems, failures = [f"output unreadable: {type(err).__name__}: {err}"], []
    return dt, problems, failures


def timed_rounds(program, workload, seconds: float, tally: Tally) -> None:
    """Whole rounds of the list until `seconds` have passed. The set-up
    is repeated between operations, spread over the run: this machine's
    speed changes by up to 1.6x over seconds, and set-ups made back to
    back all land in the same phase."""
    start = time.perf_counter()
    spacing = seconds / SETUP_REPEATS
    tally.setups.append(set_up(program, workload))
    while True:
        for op in workload.ops:
            dt, problems, failures = run_op(program, op)
            tally.times.append(dt)
            tally.judge(op, problems, failures)
            if (len(tally.setups) < SETUP_REPEATS and time.perf_counter()
                    - start >= spacing * len(tally.setups)):
                tally.setups.append(set_up(program, workload))
        if time.perf_counter() - start >= seconds:
            break
    while len(tally.setups) < SETUP_REPEATS:
        tally.setups.append(set_up(program, workload))


def traced_pass(program, workload, out_dir: Path):
    """One pass over the list with every public function wrapped. Each
    operation also runs untraced just before its traced run, so the
    host's speed phases cancel in the tracing overhead; returns the
    layer statistics and the median traced / untraced time ratio."""
    tracer = spans.Tracer(layers.PROBES)
    ratios = []
    for i, op in enumerate(workload.ops):
        untraced, *_ = run_op(program, op)
        tracer.install(program.modules)
        try:
            with tracer.span(f"op.{i}"):
                traced, *_ = run_op(program, op)
        finally:
            tracer.uninstall()
        ratios.append(traced / untraced)
    tracer.write(out_dir / "spans.npz")
    stats = layers.LayerStats(tracer.summary(), tracer.counters,
                              len(workload.ops))
    return stats, statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mandeldip" / "__init__.py").is_file():
        print(f"no mandeldip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_build" / "benchmarks" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    # The program's clamp warnings would print, reading source lines,
    # inside timed operations after every fresh import; the traced run
    # counts them instead.
    warnings.simplefilter("ignore")
    program = Program()
    workload = workloads.build(args.workload, ROOT, work, args.seed, program)

    tally = Tally()
    timed_rounds(program, workload, args.seconds, tally)
    tally.problems += workload.once(program)
    rounds = tally.attempted // len(workload.ops)
    # Median seconds of each operation of the list over the rounds. The
    # list mixes costs from 2 ms to 3 s: the median of the pooled times
    # sits on the border between two cost groups and jumps with the
    # noise, so op_s is the geometric mean of these medians.
    per_op = {op.label: statistics.median(tally.times[i::len(workload.ops)])
              for i, op in enumerate(workload.ops)}

    if args.trace:
        metrics = layers.layer_metrics(*traced_pass(program, workload, work))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(tally.setups), "unit": "s"},
            "op_s": {"value": statistics.geometric_mean(per_op.values()),
                     "unit": "s"},
            "ops_per_s": {"value": len(workload.ops) / sum(per_op.values()),
                          "unit": "ops/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops_per_round": len(workload.ops), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0))}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "op_median_s": per_op,
                    "op_times_s": tally.times, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
