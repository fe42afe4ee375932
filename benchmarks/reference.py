"""Re-measure the starting points of the benchmark README's reference
table: the shipped configs through `mandel-dip scan` in both modes, the
analytic cost against `max_pairs`, the MC share of pair-count sampling,
and one fit. Medians of `REPEATS` runs, one process, one thread.

    python3 benchmarks/reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import warnings

import run  # pins BLAS threads before numpy is imported
import spans

REPEATS = 5


def timed(program, argv, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            try:
                program.cli.main(argv)
            except RuntimeError:  # the fit's non-convergence, after curve.csv
                pass
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    program = run.Program()
    program.load()
    work = run.ROOT / ".bench_build" / "benchmarks" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    configs = run.ROOT / "configs"
    rows = {}
    for name in ("ideal_threefold", "ideal_fivefold", "lab_fivefold"):
        for mode in ("analytic", "mc"):
            if mode == "mc" and name != "lab_fivefold":
                continue
            rows[f"scan {name} --mode {mode}"] = timed(
                program, ["scan", str(configs / f"{name}.json"), "--mode", mode,
                          "--out", str(work / "out")])
    lab = json.loads((configs / "lab_fivefold.json").read_text())
    for kmax in (3, 4, 5, 6):
        path = work / f"lab_k{kmax}.json"
        path.write_text(json.dumps(dict(lab, max_pairs=kmax)))
        rows[f"scan lab_fivefold --mode analytic, max_pairs {kmax}"] = timed(
            program, ["scan", str(path), "--out", str(work / "out")])
    rows["fit curve.csv of lab_fivefold analytic"] = timed(
        program, ["fit", str(work / "out" / "curve.csv")])

    tracer = spans.Tracer()
    tracer.install(program.modules)
    try:
        timed(program, ["scan", str(configs / "lab_fivefold.json"), "--mode", "mc",
                        "--out", str(work / "out")], 1)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    share = (summary["pdc.sample_pair_count_arrays"]["incl_s"]
             / summary["cli.main"]["incl_s"])
    for label, seconds in rows.items():
        print(f"{seconds * 1e3:10.1f} ms  {label}")
    print(f"{share:10.1%}     of the traced lab_fivefold MC scan in "
          "pdc.sample_pair_count_arrays")


if __name__ == "__main__":
    main()
