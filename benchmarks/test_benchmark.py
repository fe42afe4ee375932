"""Fast tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import contextlib
import io
import json
import math
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

R = 7.6e7


def scan(tmp_path, cfg, mode, seed=None):
    from mandeldip import cli
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["scan", str(path), "--mode", mode, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(argv) == 0
    curve = checks.parse_curve_csv((out / "curve.csv").read_text())
    return curve, json.loads((out / "fit.json").read_text())


def scaled(curve, index, factor):
    delays, rates, errors = (a.copy() for a in curve)
    rates[index] *= factor
    return delays, rates, errors


@pytest.fixture(scope="module")
def analytic(tmp_path_factory):
    cfg = json.loads((ROOT / "configs" / "lab_fivefold.json").read_text())
    return cfg, scan(tmp_path_factory.mktemp("a"), cfg, "analytic")


@pytest.fixture(scope="module")
def small_eta(tmp_path_factory):
    cfg = workloads._config(np.random.default_rng(7), scheme="fivefold",
                            n_points=31, max_pairs=3, small_eta=True,
                            same_p=True)
    return cfg, scan(tmp_path_factory.mktemp("s"), cfg, "analytic")


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    cfg = workloads._config(np.random.default_rng(8), scheme="fivefold",
                            n_points=31, max_pairs=3, small_eta=False,
                            pulses=200_000, p_range=(0.09, 0.1),
                            eta_range=(0.8, 0.9))
    tmp = tmp_path_factory.mktemp("m")
    curve, report = scan(tmp, cfg, "mc", seed=3)
    (tmp / "out").rename(tmp / "mc")
    ref_curve, ref_report = scan(tmp, cfg, "analytic")
    return cfg, curve, report, ref_curve[1], ref_report["raw"]


def test_analytic_checks_pass_and_reject_scaled_points(analytic):
    cfg, (curve, report) = analytic
    assert checks.check_analytic_scan(cfg, curve, report) == []
    for index in (0, 3, len(curve[0]) - 5):
        assert checks.check_analytic_scan(cfg, scaled(curve, index, 1.05), report)
    wrong_floor = dict(report, accidental_hz=report["accidental_hz"] * 1.05)
    assert checks.check_analytic_scan(cfg, curve, wrong_floor)


def test_small_eta_closed_forms_reject_shifted_fit(small_eta):
    cfg, (curve, report) = small_eta
    assert checks.check_analytic_scan(cfg, curve, report) == []
    for key in ("V", "fwhm_um"):
        raw = dict(report["raw"], **{key: report["raw"][key] * (1 + 1e-6)})
        assert checks.check_analytic_scan(cfg, curve, dict(report, raw=raw))


def test_mc_checks_pass_and_reject_corruptions(mc):
    cfg, curve, report, ref_rates, ref_fit = mc
    n = cfg["mc"]["pulses_per_point"]
    assert checks.check_mc_curve(cfg, n, curve, ref_rates) == []
    assert checks.check_mc_fit(cfg, n, curve[0], report, ref_fit) == ([], [])
    assert checks.check_mc_curve(cfg, n, scaled(curve, 4, 1.05), ref_rates)
    # every point scaled by an integer-preserving factor: counts too high
    doubled = (curve[0], curve[1] * 1.5, curve[2])
    assert checks.check_mc_curve(cfg, n, doubled, ref_rates)
    sigma = checks.fisher_sigmas(curve[0], ref_fit["S"], ref_fit["V"],
                                 ref_fit["fwhm_um"] / checks.FWHM_PER_SIGMA,
                                 n, R)["V"]
    shifted = dict(report["raw"], V=ref_fit["V"] - 6 * sigma)
    assert checks.check_mc_fit(cfg, n, curve[0], dict(report, raw=shifted),
                               ref_fit)[1]


def test_fit_check_rejects_six_sigma_and_non_convergence():
    rng = np.random.default_rng(5)
    truth, delays, pulses = workloads._seeded_truth(rng, 61)
    sig = checks.fisher_sigmas(delays, truth["S"], truth["V"],
                               truth["fwhm_um"] / checks.FWHM_PER_SIGMA, pulses, R)
    fit = dict(truth, converged=True)
    assert checks.check_fit(truth, fit, delays, pulses, R, False) == ([], [])
    for key in ("S", "V", "fwhm_um"):
        bad = dict(fit, **{key: truth[key] + 6 * sig[key]})
        assert checks.check_fit(truth, bad, delays, pulses, R, False)[1]
    assert checks.check_fit(truth, dict(fit, V=truth["V"] * (1 + 1e-5)),
                            delays, pulses, R, True)[0]
    assert checks.check_fit(truth, {"converged": False}, delays, pulses, R,
                            False) == ([], ["fit: fit not converged"])
    assert checks.check_fit(truth, {}, delays, pulses, R, False)[0]


def _run(program, op):
    """Run an operation as the timed rounds do; returns (rc, exception)."""
    op.prepare()
    try:
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return program.cli.main(op.argv), None
    except Exception as err:
        return None, err


@pytest.fixture(scope="module")
def program():
    import run
    prog = run.Program()
    prog.load()
    return prog


def test_sparse_scan_excuses_only_the_fault(program, tmp_path):
    import run
    op = workloads.scan_mc(ROOT, tmp_path, 0, program).ops[0]
    assert op.may_fail and op.label == "lab_fivefold-seed5"
    rc, exc = _run(program, op)
    problems, failures = op.check("", rc, exc)
    assert problems == [] and failures and op.zero_counts()
    tally = run.Tally()
    tally.judge(op, problems, failures)
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])
    # the same failure raised from anywhere but fit_dip is not the fault
    assert op.check("", None, RuntimeError("elsewhere"))[0]
    assert op.check("", None, ValueError("bad input"))[0]
    assert op.check("", 2, None)[0]
    # a corrupted curve is rejected although the fit raised afterwards
    csv = op.out / "curve.csv"
    delays, rates, errors = checks.parse_curve_csv(csv.read_text())
    rates[np.argmax(rates)] *= 1.05
    csv.write_text(checks.format_curve_csv(delays, rates, errors))
    tally.judge(op, *op.check("", rc, exc))
    assert tally.failed == 2 and len(tally.problems) == 1


def test_sparse_fit_excuses_only_the_fault(tmp_path):
    import run
    ops = [op for op in workloads.fit_curves(ROOT, tmp_path, 0).ops if op.may_fail]
    op = ops[0]
    assert op.zero_counts()
    tally = run.Tally()
    tally.judge(op, *op.check('{"converged": false, "error": "x"}', 0, None))
    assert (tally.failed, tally.problems) == (1, [])
    for stdout, rc, exc in (("", 2, None), ("", None, TypeError("t")),
                            ("{}", 0, None)):
        assert op.check(stdout, rc, exc)[0]


def test_distinguishable_sum_by_hand():
    # perfect detectors, n1 + n2 <= 2: only two photons can hit both c
    # and d, which they do half the time; weights 1, l, l, l^2, l^2, l^2
    lam = 0.04
    cfg = {"sources": [{"P": lam}, {"P": lam}], "scheme": "threefold",
           "detectors": [{"eta": 1.0}] * 4, "max_pairs": 2,
           "pulse_rate_hz": 1.0}
    expected = 0.5 * 3 * lam ** 2 / (1 + 2 * lam + 3 * lam ** 2)
    assert math.isclose(checks.distinguishable_rate_hz(cfg), expected,
                        rel_tol=1e-14)


def test_self_time_on_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    incl, own = spans.self_times(start, end, parent)
    assert incl.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]


def _fake_module():
    mod = types.ModuleType("fake.mod")
    exec("def outer(x):\n    return inner(x) + 1\n"
         "def inner(x):\n    return x * 2\n"
         "def _private(x):\n    return x\n", mod.__dict__)
    for fn in ("outer", "inner", "_private"):
        getattr(mod, fn).__module__ = "fake.mod"
    return mod


def test_tracer_catches_calls_through_module_globals_and_restores():
    mod = _fake_module()
    original = mod.outer
    tracer = spans.Tracer()
    tracer.install([mod])
    try:
        with tracer.span("op.0"):
            assert mod.outer(3) == 7
    finally:
        tracer.uninstall()
    assert mod.outer is original
    summary = tracer.summary()
    assert summary["mod.outer"]["calls"] == 1
    assert summary["mod.inner"]["calls"] == 1
    assert "mod._private" not in summary
    name, start, end, parent = tracer.arrays()
    assert parent.tolist() == [-1, 0, 1]


def test_missing_function_reads_zero():
    tracer = spans.Tracer(layers.PROBES)
    stats = layers.LayerStats(tracer.summary(), tracer.counters, n_ops=4)
    metrics = layers.layer_metrics(stats, overhead=1.0)
    for name, _, _, _ in layers.METRICS:
        assert metrics[name]["value"] == 0.0
    assert stats.calls("fock.apply_beamsplitter") == 0


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {n: u for n, u, _, _ in layers.METRICS}
    layer_units[layers.OVERHEAD[0]] = layers.OVERHEAD[1]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "op_s", "ops_per_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a = workloads.fit_curves(ROOT, tmp_path / "a", 11)
    b = workloads.fit_curves(ROOT, tmp_path / "b", 11)
    c = workloads.fit_curves(ROOT, tmp_path / "c", 12)
    text = [[p.read_text() for p in w.curves] for w in (a, b, c)]
    assert text[0] == text[1] and text[0] != text[2]
    sparse = [op for op in a.ops if op.may_fail]
    assert len(sparse) == len(workloads.SPARSE_DRAW_SEEDS)
    # the sparse draws do not depend on the workload seed
    assert [p.read_text() for p, op in zip(a.curves, a.ops) if op.may_fail] == \
        [p.read_text() for p, op in zip(c.curves, c.ops) if op.may_fail]
    assert len(a.ops) == len(c.ops)
