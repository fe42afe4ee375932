"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured value (run with -s to see them)."""

import math

import numpy as np
import pytest

from mandeldip import analysis, detect, optics, pdc, runner
from mandeldip.detect import DetectorModel
from mandeldip.runner import ExperimentConfig

import fock_reference as fock
from fock_reference import Mode, PureState, sample_pair_count_arrays
from lab_setup import lab_setup

P04 = 0.04
FAR = 1e5


def config(scheme="threefold", *, P=0.04, delays, **kw):
    return ExperimentConfig(pair_probabilities=(P, P), scheme=scheme,
                            delays_um=tuple(delays), **lab_setup(), **kw)


def report(num, label, value):
    print(f"ACCEPTANCE {num} PASS: {label} = {value}")


def test_01_hom_null():
    reg = fock.standard_registry()
    st = PureState.basis(reg, {Mode("a", "matched", "H"): 1,
                               Mode("b", "matched", "H"): 1})
    out = fock.apply_beamsplitter(st)
    probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
    coincidence = probs.get((1, 1), 0.0)
    assert coincidence < 1e-12
    report(1, "HOM coincidence probability", coincidence)


def test_02_threefold_visibility_one_third():
    cfg = config(delays=np.linspace(-300, 300, 31), small_eta=True, max_pairs=2)
    curve = runner.dip_curve_analytic(cfg)
    fit = analysis.fit_dip(curve)  # no darks in small-eta mode: net == raw
    assert fit.visibility == pytest.approx(1 / 3, rel=0.01)
    report(2, "fitted net three-fold visibility", fit.visibility)


def test_03_fivefold_vmax_enumeration():
    for p in (0.01, 0.04, 0.1):
        cfg = config("fivefold", P=p, delays=(0.0, FAR),
                     small_eta=True, max_pairs=3)
        curve = runner.dip_curve_analytic(cfg)
        od, in_dip = curve.rates_hz[-1], curve.rates_hz[0]
        v = (od - in_dip) / od
        expected = runner.analytic_visibility_fivefold_max(p)
        assert v == pytest.approx(expected, rel=0.01)
        if p == 0.04:
            assert v == pytest.approx(0.8919, abs=1e-3)
    report(3, "enumerated V_max at P=0.01/0.04/0.1", "matches (1+8P)/(1+12P)")


def test_04_dip_geometry():
    l_c = optics.coherence_length(1310, 10)
    assert l_c == pytest.approx(75.0, rel=0.02)
    cfg = config(delays=np.linspace(-300, 300, 31), small_eta=True)
    fit = analysis.fit_dip(runner.dip_curve_analytic(cfg))
    assert fit.fwhm_um == pytest.approx(107.0, rel=0.02)
    assert fit.fwhm_um == pytest.approx(math.sqrt(2) * l_c, rel=1e-6)
    report(4, "l_c / fitted FWHM (um)", f"{l_c:.2f} / {fit.fwhm_um:.2f}")


def test_05_heralded_bandwidth_and_wider_fivefold_dip():
    eff_fwhm_nm = optics.heralded_bandwidth(1310, 1e9, 1550, 10)
    assert eff_fwhm_nm == pytest.approx(7.1, abs=0.2)
    fit3 = analysis.fit_dip(runner.dip_curve_analytic(
        config(delays=np.linspace(-300, 300, 31), small_eta=True)))
    fit5 = analysis.fit_dip(runner.dip_curve_analytic(
        config("fivefold", delays=np.linspace(-500, 500, 31), small_eta=True)))
    assert fit5.fwhm_um > fit3.fwhm_um
    report(5, "mapped herald bandwidth (nm) / FWHM 5f > 3f (um)",
           f"{eff_fwhm_nm:.2f} / {fit5.fwhm_um:.1f} > {fit3.fwhm_um:.1f}")


def test_06_stimulated_emission_identity():
    s = P04
    p0 = pdc.pair_number_distribution(s, 0)
    p1 = pdc.pair_number_distribution(s, 1)
    p2 = pdc.pair_number_distribution(s, 2)
    assert p2 * p0 == pytest.approx(p1 ** 2, rel=1e-12)

    rng = np.random.default_rng(606)
    n = 1_000_000
    n1, n2 = sample_pair_count_arrays(s, s, n, rng)
    f20 = np.mean((n1 == 2) & (n2 == 0))
    f11 = np.mean((n1 == 1) & (n2 == 1))
    p = p2 * p0
    sigma = math.sqrt(2 * p / n)
    assert abs(f20 - f11) < 4 * sigma
    report(6, "p(2)p(0) - p(1)^2 / MC gap", f"{p2 * p0 - p1 ** 2:.2e} / "
           f"{abs(f20 - f11) / sigma:.2f} sigma")


def test_07_two_photon_click_probability():
    for eta in (0.05, 0.1, 0.3, 0.7):
        det = DetectorModel(eta=eta, dark_prob=0.0)
        assert detect.click_probability(2, det) == pytest.approx(
            2 * eta - eta ** 2, abs=1e-15)
    report(7, "click_probability(2, eta, 0)", "2*eta - eta^2 exactly")


def test_08_mc_matches_analytic_and_is_deterministic():
    cfg = config(delays=np.linspace(-200, 200, 9),
                 pulses_per_point=1_000_000, seed=42)
    mc = runner.dip_curve_mc(cfg)
    an = runner.dip_curve_analytic(cfg)
    n = cfg.pulses_per_point
    worst = 0.0
    for r_mc, r_an in zip(mc.rates_hz, an.rates_hz):
        mu = r_an / cfg.pulse_rate_hz * n
        k = r_mc / cfg.pulse_rate_hz * n
        pull = abs(k - mu) / math.sqrt(max(mu, 1.0))
        worst = max(worst, pull)
        assert pull <= 4.0

    # the same seed gives the same curve: one default_rng(seed) stream
    # draws every point's count at once
    assert runner.dip_curve_mc(cfg).rates_hz == mc.rates_hz
    probs = np.minimum(runner._coincidence_probs(cfg), 1.0)
    counts = np.random.default_rng(42).binomial(n, probs).tolist()
    assert mc.rates_hz == tuple(k / n * cfg.pulse_rate_hz for k in counts)
    report(8, "worst MC pull (sigma)", f"{worst:.2f}")


def test_09_fitter_soundness():
    rng = np.random.default_rng(909)
    sigma0 = 142.0 / (2 * math.sqrt(2 * math.log(2)))
    delays = np.linspace(-300, 300, 41)
    rates = analysis.dip_model(delays, 160.0, 0.28, sigma0)
    curve = runner.DipCurve(delays_um=tuple(delays), rates_hz=tuple(rates),
                            errors_hz=(0.0,) * len(delays))
    fit = analysis.fit_dip(curve)
    assert fit.s == pytest.approx(160.0, rel=1e-6)
    assert fit.visibility == pytest.approx(0.28, rel=1e-6)
    assert fit.sigma_tau_um == pytest.approx(sigma0, rel=1e-6)

    tau = np.linspace(-200, 200, 11)
    for _ in range(100):
        s = float(rng.uniform(10, 1000))
        v = float(rng.uniform(0.05, 0.95))
        sig = float(rng.uniform(20, 150))
        jac = analysis.dip_jacobian(tau, s, v, sig)
        # linear in s and v, so large steps have no truncation error;
        # column-level scale keeps deep-tail roundoff from dominating
        for j, (val, h) in enumerate(((s, s * 1e-3), (v, 1e-3), (sig, sig * 1e-5))):
            params = [s, v, sig]
            params[j] = val + h
            up = analysis.dip_model(tau, *params)
            params[j] = val - h
            dn = analysis.dip_model(tau, *params)
            fd = (up - dn) / (2 * h)
            scale = np.maximum(np.abs(jac[:, j]), 1e-3 * np.max(np.abs(jac[:, j])))
            assert np.max(np.abs(jac[:, j] - fd) / scale) < 1e-6
    report(9, "noiseless recovery / Jacobian check", "1e-6 relative")


def test_10_bounds_on_unpublished_quantities():
    # 5-fold visibility with a nonzero mismatch knob lands in the band
    # between the measured net value and the theoretical ceiling
    cfg5 = config("fivefold", delays=np.linspace(-500, 500, 31),
                  spectral_mismatch=0.04)
    fit5 = analysis.fit_dip(runner.dip_curve_analytic(cfg5))
    assert 0.84 <= fit5.visibility <= 0.892

    # raw visibility always below net after floor subtraction
    cfg3 = config(delays=np.linspace(-300, 300, 31))
    curve = runner.dip_curve_analytic(cfg3)
    floor = runner.accidental_floor_hz(cfg3)
    assert floor > 0.0
    fit_raw = analysis.fit_dip(curve)
    fit_net = analysis.fit_dip(analysis.subtract_floor(curve, floor))
    assert fit_raw.visibility < fit_net.visibility
    report(10, "tunable 5-fold V / raw vs net 3-fold V",
           f"{fit5.visibility:.4f} in [0.84, 0.892] / "
           f"{fit_raw.visibility:.4f} < {fit_net.visibility:.4f}")
