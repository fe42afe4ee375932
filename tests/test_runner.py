import dataclasses
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from mandeldip import analysis, cli, detect, fock, optics, pdc, runner
from mandeldip.detect import CoincidenceScheme, DetectorModel
from mandeldip.pdc import SourceParams
from mandeldip.runner import ExperimentConfig

P04 = SourceParams.from_pair_probability(0.04)
FAR = 1e5  # um, far outside any dip
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_config(scheme="threefold", *, P=0.04, delays=None, small_eta=True,
                max_pairs=3, **kw):
    s = SourceParams.from_pair_probability(P)
    if delays is None:
        delays = tuple(np.linspace(-300, 300, 31))
    return ExperimentConfig(source1=s, source2=s,
                            scheme=CoincidenceScheme(scheme),
                            delays_um=tuple(delays), small_eta=small_eta,
                            max_pairs=max_pairs, **kw)


def engine_visibility(cfg_center, cfg_far=None):
    curve = runner.dip_curve_analytic(cfg_center)
    return analysis.visibility(curve.rates_hz[-1], curve.rates_hz[0])


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
        v = analysis.visibility(curve.rates_hz[-1], curve.rates_hz[0])
        assert v == pytest.approx(q / 3, abs=1e-9)


def test_fivefold_max_formula():
    assert runner.analytic_visibility_fivefold_max(0.04) == pytest.approx(
        0.8919, abs=1e-4)
    assert runner.analytic_visibility_fivefold_max(0.0) == 1.0
    assert runner.analytic_visibility_fivefold_max(0.1) == pytest.approx(
        1.8 / 2.2, rel=1e-12)
    with pytest.raises(ValueError):
        runner.analytic_visibility_fivefold_max(0.3)


def test_fivefold_max_strictly_decreasing():
    ps = np.linspace(0.0, 0.2, 21)
    vs = [runner.analytic_visibility_fivefold_max(p) for p in ps]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_fivefold_enumeration_matches_formula():
    # brute-force 3-pair enumeration through the Fock pipeline, eta -> 0
    for p in (0.01, 0.04, 0.1):
        cfg = make_config("fivefold", P=p, delays=(0.0, FAR))
        v = engine_visibility(cfg)
        expected = runner.analytic_visibility_fivefold_max(p)
        assert v == pytest.approx(expected, rel=0.01)


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


def test_analytic_curve_metadata():
    cfg = make_config(delays=np.linspace(-100, 100, 7))
    curve = runner.dip_curve_analytic(cfg)
    assert curve.mode == "analytic"
    assert all(e == 0.0 for e in curve.errors_hz)
    assert all(r >= 0.0 for r in curve.rates_hz)
    assert curve.config_digest == cfg.digest()


def test_digest_stability():
    cfg1 = make_config(delays=(0.0, 10.0))
    cfg2 = make_config(delays=(0.0, 10.0))
    assert cfg1.digest() == cfg2.digest()
    cfg3 = make_config(delays=(0.0, 20.0))
    assert cfg1.digest() != cfg3.digest()


def test_mc_zero_sources_dark_free_is_silent():
    zero = SourceParams(zeta=0.0)
    dets = {role: DetectorModel(role, eta=d.eta, dark_prob=0.0)
            for role, d in runner.default_detectors().items()}
    cfg = ExperimentConfig(source1=zero, source2=zero,
                           scheme=CoincidenceScheme("threefold"),
                           delays_um=(-50.0, 0.0, 50.0),
                           detectors=dets, pulses_per_point=20_000, seed=3)
    curve = runner.dip_curve_mc(cfg)
    assert all(r == 0.0 for r in curve.rates_hz)


def test_mc_deterministic_and_order_independent():
    cfg = make_config(small_eta=False, delays=np.linspace(-150, 150, 7),
                      pulses_per_point=50_000, seed=11)
    curve = runner.dip_curve_mc(cfg)
    again = runner.dip_curve_mc(cfg)
    assert curve.rates_hz == again.rates_hz

    probs = runner._coincidence_probs(cfg)
    order = list(range(len(cfg.delays_um)))
    random.Random(0).shuffle(order)
    shuffled = {i: runner._mc_point(cfg, i, probs[i]) for i in order}
    for i in range(len(cfg.delays_um)):
        assert shuffled[i][0] == curve.rates_hz[i]


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


def test_mc_error_scaling():
    base = dict(small_eta=False, delays=np.linspace(-150, 150, 5), seed=9)
    e1 = np.mean(runner.dip_curve_mc(
        make_config(pulses_per_point=100_000, **base)).errors_hz)
    e2 = np.mean(runner.dip_curve_mc(
        make_config(pulses_per_point=400_000, **base)).errors_hz)
    assert e1 / e2 == pytest.approx(2.0, rel=0.15)


def test_mc_rejects_small_eta_mode():
    cfg = make_config(small_eta=True, delays=(0.0, 10.0))
    with pytest.raises(ValueError):
        runner.dip_curve_mc(cfg)


def test_accidental_floor_only_with_darks():
    cfg = make_config(small_eta=False)
    assert runner.accidental_floor_hz(cfg) > 0.0
    dets = {role: DetectorModel(role, eta=d.eta, dark_prob=0.0)
            for role, d in runner.default_detectors().items()}
    clean = make_config(small_eta=False, detectors=dets)
    assert runner.accidental_floor_hz(clean) == 0.0


def fock_pattern_distribution(cfg, overlap):
    """Reference: (pattern, probability) over every truncated pair
    configuration, from the full Fock state through the beam splitter."""
    registry = fock.standard_registry(n_max=2 * cfg.max_pairs)
    # one group per detector role, in `detect.ALL_ROLES` order
    grouping = fock.spatial_grouping(registry, ("c", "d", "herald1", "herald2"))
    for n1, n2, p in runner._pair_configs(cfg):
        if p == 0.0:
            continue
        state = pdc.pair_configuration_state(registry, n1, n2, overlap)
        out = fock.apply_beamsplitter(state)
        for pattern, q in fock.mode_probabilities(out, grouping).items():
            yield pattern, p * q


def pointwise_rates(cfg):
    """Reference engine: the full pattern distribution at each point's
    own overlap, weighted by the detectors and summed."""
    detectors = cfg.effective_detectors()
    rates = []
    for d in cfg.delays_um:
        m = math.sqrt(optics.overlap_sq(
            d, cfg.coherence_length_um(), cfg.polarization_angle_rad,
            cfg.spectral_mismatch))
        p = sum(pq * runner._coincidence_weight(pattern, cfg, detectors)
                for pattern, pq in fock_pattern_distribution(cfg, m))
        rates.append(cfg.pulse_rate_hz * p)
    return rates


@pytest.mark.parametrize("name", ["ideal_threefold", "ideal_fivefold",
                                  "lab_fivefold"])
def test_polynomial_engine_matches_pointwise_sum(name):
    base = cli.parse_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    zero = SourceParams(zeta=0.0)
    variants = [dict(max_pairs=k, small_eta=eta)
                for k in (3, 4, 5, 6) for eta in (True, False)]
    variants += [dict(source1=zero), dict(source2=zero)]
    for variant in variants:
        # every fifth point keeps the reference quick and still spans
        # the dip from its centre to the baseline
        cfg = dataclasses.replace(base, delays_um=base.delays_um[::5], **variant)
        got = runner.dip_curve_analytic(cfg).rates_hz
        for g, r in zip(got, pointwise_rates(cfg)):
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
    base = cli.parse_config(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    zero = SourceParams(zeta=0.0)
    variants = [dict(max_pairs=k) for k in (3, 4, 5, 6)]
    variants += [dict(source1=zero), dict(source2=zero)]
    for variant in variants:
        cfg = dataclasses.replace(base, **variant)
        nodark = {role: DetectorModel(d.name, eta=d.eta, dark_prob=0.0)
                  for role, d in cfg.effective_detectors().items()}
        expected = {role: 0.0 for role in cfg.scheme.roles}
        for pattern, pq in fock_pattern_distribution(cfg, 0.0):
            for role, n in zip(detect.ALL_ROLES, pattern):
                if role in expected:
                    expected[role] += pq * detect.click_probability(n, nodark[role])
        got = runner.signal_singles_probabilities(cfg)
        assert got.keys() == expected.keys()
        for role, want in expected.items():
            assert abs(got[role] - want) <= 1e-12 * want, (variant, role)


def test_perfect_post_selected_dip_stays_non_negative():
    # fivefold at two pairs post-selects the one interfering term, so the
    # centre rate is exactly zero; rounding must not push it below
    dets = {role: DetectorModel(role, eta=d.eta, dark_prob=0.0)
            for role, d in runner.default_detectors().items()}
    for p in (0.01, 0.04, 0.1, 0.2):
        for small_eta in (True, False):
            cfg = make_config("fivefold", P=p, delays=(0.0, FAR), max_pairs=2,
                              small_eta=small_eta, detectors=dets)
            center, far = runner.dip_curve_analytic(cfg).rates_hz
            assert 0.0 <= center <= 1e-12 * far
            if not small_eta:
                assert runner.dip_curve_mc(cfg).rates_hz[0] == 0.0
