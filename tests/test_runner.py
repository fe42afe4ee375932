import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mandeldip import analysis, cli, detect, fock, runner
from mandeldip.detect import DetectorModel
from mandeldip.runner import ExperimentConfig

from fock_reference import (fock_pattern_distribution, pointwise_probs,
                            reference_pair_weights)
from lab_setup import lab_setup

P04 = 0.04
FAR = 1e5  # um, far outside any dip
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(scheme="threefold", *, P=0.04, delays=None, small_eta=True,
                max_pairs=3, **kw):
    if delays is None:
        delays = tuple(np.linspace(-300, 300, 31))
    return ExperimentConfig(pair_probabilities=(P, P), scheme=scheme,
                            delays_um=tuple(delays), small_eta=small_eta,
                            max_pairs=max_pairs, **{**lab_setup(), **kw})


def engine_visibility(cfg_center, cfg_far=None):
    curve = runner.dip_curve_analytic(cfg_center)
    od, in_dip = curve.rates_hz[-1], curve.rates_hz[0]
    return (od - in_dip) / od


def test_threefold_visibility_is_one_third():
    assert runner.analytic_visibility_threefold() == pytest.approx(1 / 3)


def test_threefold_pipeline_cross_check():
    # closed-form pipeline at delay 0 vs far out, 2-pair truncation
    cfg = make_config(delays=(0.0, FAR), max_pairs=2)
    assert engine_visibility(cfg) == pytest.approx(1 / 3, abs=1e-6)


def test_threefold_visibility_scales_with_center_overlap():
    for q in (0.0, 0.25, 0.7, 1.0):
        cfg = make_config(delays=(0.0, FAR), spectral_mismatch=1.0 - q)
        curve = runner.dip_curve_analytic(cfg)
        od, in_dip = curve.rates_hz[-1], curve.rates_hz[0]
        v = (od - in_dip) / od
        assert v == pytest.approx(q / 3, abs=1e-9)


def test_fivefold_max_formula():
    assert runner.analytic_visibility_fivefold_max(0.04) == pytest.approx(
        0.8919, abs=1e-4)
    assert runner.analytic_visibility_fivefold_max(0.0) == 1.0
    assert runner.analytic_visibility_fivefold_max(0.1) == pytest.approx(
        1.8 / 2.2, rel=1e-12)
    # the closed form of its own truncation holds at every P < 1
    assert runner.analytic_visibility_fivefold_max(0.3) == pytest.approx(
        3.4 / 4.6, rel=1e-12)
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError):
            runner.analytic_visibility_fivefold_max(p)


def test_fivefold_max_strictly_decreasing():
    ps = np.linspace(0.0, 0.99, 100)
    vs = [runner.analytic_visibility_fivefold_max(p) for p in ps]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_fivefold_enumeration_matches_formula():
    # brute-force 3-pair enumeration through the Fock pipeline, eta -> 0;
    # the closed form is exact for that truncation at every P < 1
    for p in (0.01, 0.04, 0.1, 0.3, 0.5, 0.9):
        cfg = make_config("fivefold", P=p, delays=(0.0, FAR))
        v = engine_visibility(cfg)
        expected = runner.analytic_visibility_fivefold_max(p)
        assert v == pytest.approx(expected, rel=1e-12)


def test_fivefold_untruncated_formula():
    assert runner.analytic_visibility_fivefold_untruncated(0.0) == 1.0
    assert runner.analytic_visibility_fivefold_untruncated(0.04) == (
        pytest.approx(0.8688946, rel=1e-7))
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError):
            runner.analytic_visibility_fivefold_untruncated(p)


@pytest.mark.parametrize("p", [0.01, 0.04, 0.1])
def test_small_eta_table_matches_untruncated_closed_forms(p):
    # at 14 pairs the truncated eta -> 0 table reaches the untruncated
    # closed forms; both dips are linear in the overlap x, so the
    # relative gap is the same at every x of the grid (the last delay
    # is far out, x = 0)
    delays = tuple(np.linspace(0.0, 200.0, 11)) + (FAR,)
    for scheme, v_full in (
            ("threefold", runner.analytic_visibility_threefold()),
            ("fivefold", runner.analytic_visibility_fivefold_untruncated(p))):
        cfg = make_config(scheme, P=p, delays=delays, max_pairs=14)
        x = cfg.overlaps_sq()
        probs = runner._coincidence_probs(cfg)
        assert x[-1] == 0.0 and x[0] == 1.0
        np.testing.assert_allclose(1.0 - probs[:-1] / probs[-1],
                                   v_full * x[:-1], rtol=1e-7, atol=0.0)


def test_threefold_curve_fit():
    cfg = make_config()
    curve = runner.dip_curve_analytic(cfg)
    fit = analysis.fit_dip(curve)
    assert fit.visibility == pytest.approx(1 / 3, rel=0.02)
    assert fit.fwhm_um == pytest.approx(107.0, rel=0.02)


def test_fivefold_curve_bounded_by_vmax_and_wider():
    cfg3 = make_config()
    cfg5 = make_config("fivefold", delays=tuple(np.linspace(-500, 500, 31)))
    fit3 = analysis.fit_dip(runner.dip_curve_analytic(cfg3))
    fit5 = analysis.fit_dip(runner.dip_curve_analytic(cfg5))
    assert fit5.visibility <= runner.analytic_visibility_fivefold_max(0.04) + 1e-9
    assert fit5.visibility > fit3.visibility
    assert fit5.fwhm_um > fit3.fwhm_um


def test_out_of_dip_ratio_three_halves():
    cfg = make_config(delays=(0.0, FAR))
    curve = runner.dip_curve_analytic(cfg)
    assert curve.rates_hz[-1] / curve.rates_hz[0] == pytest.approx(1.5, abs=1e-6)


def test_curve_symmetry():
    cfg = make_config(delays=np.array([-120, -60, -10, 10, 60, 120], dtype=float),
                      small_eta=False)
    curve = runner.dip_curve_analytic(cfg)
    r = curve.rates_hz
    assert r[0] == r[5] and r[1] == r[4] and r[2] == r[3]


def test_visibility_unchanged_under_common_zeta_scaling():
    # threefold V is a ratio of same-order terms: exactly 1/3 at any P
    for p in (0.01, 0.04):
        cfg = make_config(P=p, delays=(0.0, FAR))
        assert engine_visibility(cfg) == pytest.approx(1 / 3, abs=1e-9)
    # fivefold at 2-pair truncation post-selects the single interfering term
    for p in (0.01, 0.04):
        cfg = make_config("fivefold", P=p, delays=(0.0, FAR), max_pairs=2)
        assert engine_visibility(cfg) == pytest.approx(1.0, abs=1e-9)


def test_threefold_rate_scales_as_p_squared():
    # pure two-pair content scales as P^2; keep P small and truncate at
    # two pairs so higher-order emission does not pollute the ratio
    cfgs = [make_config(P=p, delays=(FAR,), max_pairs=2)
            for p in (0.002, 0.004)]
    rates = [runner.dip_curve_analytic(c).rates_hz[0] for c in cfgs]
    assert rates[1] / rates[0] == pytest.approx(4.0, rel=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(delays=())
    with pytest.raises(ValueError):
        make_config(delays=(10.0, 5.0))
    with pytest.raises(ValueError):
        make_config(collection_efficiency=0.0)


@pytest.mark.parametrize("keys", [
    detect.ALL_ROLES[1:],               # a role missing
    detect.ALL_ROLES + ("bogus",),      # an extra role
])
def test_config_requires_exactly_the_detector_roles(keys):
    detectors = {key: DetectorModel(eta=0.3) for key in keys}
    with pytest.raises(ValueError, match="^config: detectors must be keyed by "
                       "exactly the roles " + ", ".join(detect.ALL_ROLES)):
        make_config(detectors=detectors)


@pytest.mark.parametrize("field", ["pulse_rate_hz", "polarization_angle_rad"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_rate_and_angle(field, bad):
    with pytest.raises(ValueError, match=f"^config: {field} must be "):
        make_config(**{field: bad})


def good_curve_columns():
    return {"delays_um": (-1.0, 0.0, 1.0), "rates_hz": (2.0, 1.0, 2.0),
            "errors_hz": (0.5, 0.5, 0.5)}


@pytest.mark.parametrize("column, message", [
    ("delays_um", "delays must be finite"),
    ("rates_hz", "rates and errors must be finite and non-negative"),
    ("errors_hz", "rates and errors must be finite and non-negative"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dip_curve_rejects_non_finite_values(column, message, bad):
    columns = good_curve_columns()
    columns[column] = (columns[column][0], bad, columns[column][2])
    with pytest.raises(ValueError, match=f"^{message}$"):
        runner.DipCurve(**columns)


@pytest.mark.parametrize("column", ["rates_hz", "errors_hz"])
def test_dip_curve_rejects_negative_values(column):
    columns = good_curve_columns()
    columns[column] = (columns[column][0], -1e-300, columns[column][2])
    with pytest.raises(ValueError, match="^rates and errors must be finite "
                                         "and non-negative$"):
        runner.DipCurve(**columns)


@pytest.mark.parametrize("column", ["delays_um", "rates_hz", "errors_hz"])
def test_dip_curve_rejects_unequal_lengths(column):
    columns = good_curve_columns()
    columns[column] = columns[column][:2]
    with pytest.raises(ValueError,
                       match="^curve arrays must have equal lengths$"):
        runner.DipCurve(**columns)


def test_analytic_curve_metadata():
    cfg = make_config(delays=np.linspace(-100, 100, 7))
    curve = runner.dip_curve_analytic(cfg)
    assert all(e == 0.0 for e in curve.errors_hz)
    assert all(r >= 0.0 for r in curve.rates_hz)


def test_digest_stability():
    cfg1 = make_config(delays=(0.0, 10.0))
    cfg2 = make_config(delays=(0.0, 10.0))
    assert cfg1.digest() == cfg2.digest()
    cfg3 = make_config(delays=(0.0, 20.0))
    assert cfg1.digest() != cfg3.digest()
    as_array = ExperimentConfig(pair_probabilities=(P04, P04),
                                small_eta=True, scheme="threefold",
                                delays_um=np.array([0.0, 10.0]), **lab_setup())
    assert as_array.digest() == cfg1.digest()
    # every field enters the digest
    detectors = dict(cfg1.detectors)
    detectors[detect.GE_1310] = DetectorModel(eta=0.2)
    changes = dict(
        pair_probabilities=(0.085, 0.085), signal_nm=1300.0,
        signal_fwhm_nm=12.0, herald_nm=1540.0, herald_fwhm_nm=12.0,
        pump_fwhm_nm=5.0, detectors=detectors,
        scheme="fivefold", delays_um=(0.0, 20.0),
        pulses_per_point=7, seed=1, pulse_rate_hz=8e7,
        collection_efficiency=0.5, polarization_angle_rad=0.1,
        spectral_mismatch=0.1, max_pairs=4, small_eta=False)
    assert changes.keys() == {f.name for f in dataclasses.fields(cfg1)}
    for name, value in changes.items():
        changed = dataclasses.replace(cfg1, **{name: value})
        assert changed.digest() != cfg1.digest(), name


def test_mc_zero_sources_dark_free_is_silent():
    lab = lab_setup()
    dets = {role: DetectorModel(eta=d.eta, dark_prob=0.0)
            for role, d in lab["detectors"].items()}
    cfg = ExperimentConfig(pair_probabilities=(0.0, 0.0), scheme="threefold",
                           delays_um=(-50.0, 0.0, 50.0),
                           pulses_per_point=20_000, seed=3,
                           **{**lab, "detectors": dets})
    curve = runner.dip_curve_mc(cfg)
    assert all(r == 0.0 for r in curve.rates_hz)


def test_mc_deterministic_and_order_independent():
    # a scan's draw depends on its own seed only, not on which scans ran
    # before it: no generator is shared between scans
    cfg = make_config(small_eta=False, delays=np.linspace(-150, 150, 7),
                      pulses_per_point=50_000, seed=11)
    curve = runner.dip_curve_mc(cfg)
    other = runner.dip_curve_mc(dataclasses.replace(cfg, seed=12))
    again = runner.dip_curve_mc(cfg)
    assert curve.rates_hz == again.rates_hz != other.rates_hz


@pytest.mark.parametrize("seed, error", [(None, TypeError), (1.5, TypeError),
                                         (-1, ValueError)])
def test_mc_seed_is_a_non_negative_integer(monkeypatch, seed, error):
    # default_rng(None) would seed from OS entropy, and an MC scan would
    # not be reproducible; each seed is refused before the engine runs
    def engine(cfg):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(runner, "_coincidence_probs", engine)
    cfg = dataclasses.replace(make_config(small_eta=False), seed=seed)
    with pytest.raises(error):
        runner.dip_curve_mc(cfg)


@pytest.mark.parametrize("name", ["ideal_threefold.json", "ideal_fivefold.json",
                                  "lab_fivefold.json"])
def test_mc_draws_match_numpy_seed_sequence_streams(name):
    # one numpy default_rng(seed) stream draws every point's count at once
    data = json.loads((CONFIG_DIR / name).read_text())
    cfg = dataclasses.replace(cli.parse_config(data), small_eta=False)
    n = cfg.pulses_per_point
    for seed in (cfg.seed, 2 ** 64 + 3):
        cfg = dataclasses.replace(cfg, seed=seed)
        curve = runner.dip_curve_mc(cfg)
        probs = np.minimum(runner._coincidence_probs(cfg), 1.0)
        counts = np.random.default_rng(seed).binomial(n, probs).tolist()
        for i, k in enumerate(counts):
            assert curve.rates_hz[i] == k / n * cfg.pulse_rate_hz, (seed, i)


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 8])
def test_mc_counts_have_the_binomial_mean_and_variance(n):
    # over seeds 0-199, at every point of lab_fivefold, the sample mean and
    # variance of the counts lie within 5 standard errors of N p and
    # N p (1 - p); the variance's standard error comes from the binomial's
    # fourth central moment
    data = json.loads((CONFIG_DIR / "lab_fivefold.json").read_text())
    data["mc"] = {"pulses_per_point": n}
    cfg = cli.parse_config(data)
    seeds = range(200)
    counts = np.array([np.asarray(runner.dip_curve_mc(
        dataclasses.replace(cfg, seed=seed)).rates_hz) for seed in seeds])
    counts = np.rint(counts / cfg.pulse_rate_hz * n)
    p = runner._coincidence_probs(cfg)
    m = len(seeds)
    var = n * p * (1.0 - p)
    mu4 = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))
    z_mean = (counts.mean(axis=0) - n * p) / np.sqrt(var / m)
    z_var = ((counts.var(axis=0, ddof=1) - var)
             / np.sqrt((mu4 - (m - 3) / (m - 1) * var ** 2) / m))
    assert np.max(np.abs(z_mean)) < 5.0
    assert np.max(np.abs(z_var)) < 5.0


def test_mc_agrees_with_analytic():
    cfg = make_config(small_eta=False, delays=np.linspace(-200, 200, 5),
                      pulses_per_point=500_000, seed=42)
    mc = runner.dip_curve_mc(cfg)
    an = runner.dip_curve_analytic(cfg)
    n = cfg.pulses_per_point
    for r_mc, r_an in zip(mc.rates_hz, an.rates_hz):
        mu = r_an / cfg.pulse_rate_hz * n
        k = r_mc / cfg.pulse_rate_hz * n
        assert abs(k - mu) <= 4 * math.sqrt(max(mu, 1.0))


def test_mc_paper_scale_pulse_count():
    # hours at 76 MHz: a per-pulse sampler cannot hold 1e12 pulses, while
    # one binomial draw per point costs the same at any pulse count
    lab = CONFIG_DIR / "lab_fivefold.json"
    cfg = dataclasses.replace(cli.parse_config(json.loads(lab.read_text())),
                              pulses_per_point=10 ** 12)
    t0 = time.perf_counter()
    mc = runner.dip_curve_mc(cfg)
    assert time.perf_counter() - t0 < 10.0
    an = runner.dip_curve_analytic(cfg)
    n = cfg.pulses_per_point
    for r_mc, r_an in zip(mc.rates_hz, an.rates_hz):
        k = r_mc / cfg.pulse_rate_hz * n
        mu = r_an / cfg.pulse_rate_hz * n
        assert abs(k - round(k)) < 1e-3
        assert abs(k - mu) <= 4 * math.sqrt(mu)


def test_mc_error_scaling(monkeypatch):
    # each error is the binomial error of its own count, exactly
    base = dict(small_eta=False, delays=np.linspace(-150, 150, 5), seed=9)
    cfg = make_config(pulses_per_point=100_000, **base)
    curve = runner.dip_curve_mc(cfg)
    n = cfg.pulses_per_point
    for rate, err in zip(curve.rates_hz, curve.errors_hz):
        p_hat = round(rate / cfg.pulse_rate_hz * n) / n
        assert err == math.sqrt(p_hat * (1.0 - p_hat) / n) * cfg.pulse_rate_hz

    # at the analytic p (each count its expectation N p), the error is
    # the binomial sigma, and it halves when N grows 4x
    class Expected:
        def binomial(self, n, p):
            return n * p

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Expected())
    e1 = runner.dip_curve_mc(cfg).errors_hz
    e2 = runner.dip_curve_mc(make_config(pulses_per_point=400_000,
                                         **base)).errors_hz
    p = runner._coincidence_probs(cfg)
    assert e1 == pytest.approx(
        np.sqrt(p * (1.0 - p) / n) * cfg.pulse_rate_hz, rel=1e-12)
    assert all(a == 2.0 * b > 0.0 for a, b in zip(e1, e2))


def test_mc_rejects_small_eta_mode():
    cfg = make_config(small_eta=True, delays=(0.0, 10.0))
    with pytest.raises(ValueError):
        runner.dip_curve_mc(cfg)


def test_accidental_floor_only_with_darks():
    cfg = make_config(small_eta=False)
    assert runner.accidental_floor_hz(cfg) > 0.0
    dets = {role: DetectorModel(eta=d.eta, dark_prob=0.0)
            for role, d in lab_setup()["detectors"].items()}
    clean = make_config(small_eta=False, detectors=dets)
    assert runner.accidental_floor_hz(clean) == 0.0


@pytest.mark.parametrize("name", ["ideal_threefold", "ideal_fivefold",
                                  "lab_fivefold"])
def test_polynomial_engine_matches_pointwise_sum(name):
    base = cli.parse_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    p1, p2 = base.pair_probabilities
    variants = [dict(max_pairs=k, small_eta=eta)
                for k in (1, 2, 3, 4, 5, 6) for eta in (True, False)]
    variants += [dict(pair_probabilities=(0.0, p2)),
                 dict(pair_probabilities=(p1, 0.0))]
    variants += [dict(collection_efficiency=0.5, small_eta=eta)
                 for eta in (True, False)]
    for variant in variants:
        # every fifth point keeps the reference quick and still spans
        # the dip from its centre to the baseline
        cfg = dataclasses.replace(base, delays_um=base.delays_um[::5], **variant)
        got = runner.dip_curve_analytic(cfg).rates_hz
        for g, p in zip(got, pointwise_probs(cfg)):
            r = cfg.pulse_rate_hz * p
            assert abs(g - r) <= 1e-12 * r, (variant, g, r)


def test_analytic_fock_passes_do_not_grow_with_grid(monkeypatch):
    calls = []
    real = fock.beamsplitter_amplitudes

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fock, "beamsplitter_amplitudes", counting)
    counts = []
    for n in (31, 201):
        calls.clear()
        runner.dip_curve_analytic(make_config(delays=np.linspace(-300, 300, n)))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name", ["ideal_threefold", "ideal_fivefold",
                                  "lab_fivefold"])
def test_singles_match_fock_sum_at_zero_overlap(name):
    # the floor multiplies independent singles; here the singles are sums
    # over the full Fock pattern distribution at overlap 0
    base = cli.parse_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    # finite eta and a dark count on every detector, so no floor is 0
    dets = {role: DetectorModel(eta=d.eta, dark_prob=d.dark_prob or 1e-4)
            for role, d in base.detectors.items()}
    base = dataclasses.replace(base, small_eta=False, detectors=dets)
    p1, p2 = base.pair_probabilities
    variants = [dict(max_pairs=k) for k in (3, 4, 5, 6)]
    variants += [dict(pair_probabilities=(0.0, p2)),
                 dict(pair_probabilities=(p1, 0.0))]
    for variant in variants:
        cfg = dataclasses.replace(base, **variant)
        dets = cfg.effective_detectors()
        nodark = {role: DetectorModel(eta=d.eta, dark_prob=0.0)
                  for role, d in dets.items()}
        singles = {role: 0.0 for role in detect.SCHEMES[cfg.scheme]}
        for pattern, pq in fock_pattern_distribution(cfg, 0.0):
            for role, n in zip(detect.ALL_ROLES, pattern):
                if role in singles:
                    singles[role] += pq * detect.click_probability(n, nodark[role])
        full = math.prod(1.0 - (1.0 - s) * (1.0 - dets[role].dark_prob)
                         for role, s in singles.items())
        want = (full - math.prod(singles.values())) * cfg.pulse_rate_hz
        got = runner.accidental_floor_hz(cfg)
        assert want > 0.0
        assert abs(got - want) <= 1e-12 * want, (variant, got, want)


def test_perfect_post_selected_dip_stays_non_negative():
    # fivefold at two pairs post-selects the one interfering term, so the
    # centre rate is exactly zero; rounding must not push it below
    dets = {role: DetectorModel(eta=d.eta, dark_prob=0.0)
            for role, d in lab_setup()["detectors"].items()}
    for p in (0.01, 0.04, 0.1, 0.2):
        for small_eta in (True, False):
            cfg = make_config("fivefold", P=p, delays=(0.0, FAR), max_pairs=2,
                              small_eta=small_eta, detectors=dets)
            center, far = runner.dip_curve_analytic(cfg).rates_hz
            assert 0.0 <= center <= 1e-12 * far
            if not small_eta:
                assert runner.dip_curve_mc(cfg).rates_hz[0] == 0.0


def sweep_configs(n=200, seed=16):
    """Seeded random configs: both schemes, small-eta on and off in turn,
    independent pair probabilities, detectors, losses, overlap knobs and
    truncations, each on a grid symmetric through 0 that reaches the
    far baseline."""
    rng = np.random.default_rng(seed)
    lab = lab_setup()
    for i in range(n):
        dets = {role: DetectorModel(eta=float(rng.uniform(0.01, 1.0)),
                                    dark_prob=float(rng.uniform(0.0, 1e-3)))
                for role in detect.ALL_ROLES}
        half = np.sort(rng.uniform(0.0, 300.0, 3))
        yield ExperimentConfig(
            pair_probabilities=(rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)),
            **{**lab, "detectors": dets},
            scheme=("threefold", "fivefold")[i % 2],
            delays_um=np.concatenate(([-FAR], -half[::-1], [0.0], half, [FAR])),
            collection_efficiency=float(rng.uniform(0.05, 1.0)),
            polarization_angle_rad=float(rng.uniform(0.0, math.pi / 2)),
            spectral_mismatch=float(rng.uniform(0.0, 1.0)),
            max_pairs=int(rng.integers(1, 7)), small_eta=i % 4 >= 2)


SWEEP = list(sweep_configs())


def test_sweep_engine_matches_fock_reference():
    for i, cfg in enumerate(SWEEP):
        if cfg.max_pairs <= 3:
            got = runner._coincidence_probs(cfg)
            for g, r in zip(got, pointwise_probs(cfg)):
                assert abs(g - r) <= 1e-12 * r, (i, g, r)


def test_sweep_probabilities_lie_in_the_unit_interval():
    for i, cfg in enumerate(SWEEP):
        if not cfg.small_eta:
            p = runner._coincidence_probs(cfg)
            assert 0.0 <= p.min() and p.max() <= 1.0, (i, p)


def test_sweep_is_symmetric_in_delay():
    for i, cfg in enumerate(SWEEP):
        p = runner._coincidence_probs(cfg)
        assert np.array_equal(p, p[::-1]), (i, p)


def test_sweep_dark_counts_never_lower_p():
    for i, cfg in enumerate(SWEEP):
        if cfg.small_eta:
            continue
        p = runner._coincidence_probs(cfg)
        for role in detect.SCHEMES[cfg.scheme]:
            dets = dict(cfg.detectors)
            dets[role] = dataclasses.replace(
                dets[role], dark_prob=dets[role].dark_prob + 1e-4)
            darker = runner._coincidence_probs(
                dataclasses.replace(cfg, detectors=dets))
            assert np.all(darker >= p - 1e-12 * p), (i, role, darker - p)


def moment_sum(cfg):
    """Small-eta p over the grid: sum p(n1, n2) eta_c eta_d [eta_h1 n1
    eta_h2 n2] <n_c n_d>, the bracket for fivefold only, where a 50/50
    splitter fed n1 and n2 photons of overlap x gives <n_c n_d> =
    (n1 (n1 - 1) + n2 (n2 - 1) + 2 n1 n2 (1 - x)) / 4."""
    dets = cfg.effective_detectors()
    eta_c, eta_d, eta_h1, eta_h2 = (dets[r].eta for r in detect.ALL_ROLES)
    x = cfg.overlaps_sq()
    total = np.zeros_like(x)
    for n1, n2, p in reference_pair_weights(cfg):
        w = p * eta_c * eta_d
        if cfg.scheme == "fivefold":
            w *= eta_h1 * n1 * eta_h2 * n2
        total += w * (n1 * (n1 - 1) + n2 * (n2 - 1) + 2 * n1 * n2 * (1 - x)) / 4
    return total


def test_sweep_small_eta_matches_moment_sum():
    for i, cfg in enumerate(SWEEP):
        if cfg.small_eta:
            got, want = runner._coincidence_probs(cfg), moment_sum(cfg)
            assert np.all(np.abs(got - want) <= 1e-13 * want), (i, got, want)
