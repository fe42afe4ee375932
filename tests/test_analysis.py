import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mandeldip import analysis, cli, runner
from mandeldip.analysis import DipFit, dip_jacobian, dip_model, fit_dip
from mandeldip.detect import CoincidenceScheme
from mandeldip.pdc import SourceParams
from mandeldip.runner import DipCurve

FWHM_PER_SIGMA = 2 * math.sqrt(2 * math.log(2))
LAB_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lab_fivefold.json"


def synthetic_curve(s, v, sigma, delays=None, noise_rng=None, err=0.0):
    if delays is None:
        delays = np.linspace(-300, 300, 41)
    rates = dip_model(delays, s, v, sigma)
    if noise_rng is not None:
        rates = rates + noise_rng.normal(0.0, err, size=len(delays))
    errs = np.full(len(delays), err)
    return DipCurve(delays_um=tuple(delays), rates_hz=tuple(np.maximum(rates, 0.0)),
                    errors_hz=tuple(errs), mode="data")


def test_recovers_lab_scale_parameters():
    sigma = 142.0 / FWHM_PER_SIGMA
    curve = synthetic_curve(160.0, 0.28, sigma)
    fit = fit_dip(curve)
    assert fit.s == pytest.approx(160.0, rel=1e-6)
    assert fit.visibility == pytest.approx(0.28, rel=1e-6)
    assert fit.fwhm_um == pytest.approx(142.0, rel=1e-6)
    assert fit.converged


def test_noiseless_recovery_over_parameter_grid():
    rng = np.random.default_rng(77)
    for _ in range(20):
        s = float(rng.uniform(1.0, 1e4))
        v = float(rng.uniform(0.05, 0.95))
        sigma = float(rng.uniform(20.0, 120.0))
        delays = np.linspace(-4 * sigma, 4 * sigma, 25)
        fit = fit_dip(synthetic_curve(s, v, sigma, delays))
        assert fit.s == pytest.approx(s, rel=1e-6)
        assert fit.visibility == pytest.approx(v, rel=1e-6)
        assert fit.sigma_tau_um == pytest.approx(sigma, rel=1e-6)


def test_flat_curve_pins_visibility_at_zero():
    curve = DipCurve(delays_um=tuple(np.linspace(-100, 100, 9)),
                     rates_hz=(42.0,) * 9, errors_hz=(0.0,) * 9, mode="data")
    with pytest.warns(UserWarning):
        fit = fit_dip(curve)
    assert fit.visibility == 0.0
    assert fit.s == pytest.approx(42.0)


def test_clamped_visibility_is_reported():
    # V = 1.1 drives the dip below zero at its centre; the grid skips
    # |tau| < sigma / 2 so every rate stays non-negative
    sigma = 60.0
    half = np.linspace(0.5 * sigma, 5 * sigma, 20)
    curve = synthetic_curve(100.0, 1.1, sigma,
                            delays=np.concatenate([-half[::-1], half]))
    with pytest.warns(UserWarning, match="clamped"):
        fit = fit_dip(curve)
    assert fit.visibility == 1.0
    assert fit.clamped
    assert fit.to_dict()["clamped"] is True
    assert fit.to_dict()["V"] == 1.0

    normal = fit_dip(synthetic_curve(160.0, 0.28, 142.0 / FWHM_PER_SIGMA))
    assert normal.to_dict()["clamped"] is False


def test_clamped_fit_reports_residual_of_reported_parameters():
    # the input of test_clamped_visibility_is_reported
    sigma = 60.0
    half = np.linspace(0.5 * sigma, 5 * sigma, 20)
    curve = synthetic_curve(100.0, 1.1, sigma,
                            delays=np.concatenate([-half[::-1], half]))
    with pytest.warns(UserWarning, match="clamped"):
        report = fit_dip(curve).to_dict()
    # no error bars, so the fit weighs every point alike
    miss = np.linalg.norm(dip_model(curve.delays_um, report["S"], report["V"],
                                    report["sigma_tau_um"]) - curve.rates_hz)
    assert miss > 1.0
    assert report["residual"] == pytest.approx(miss, rel=1e-12)


def test_too_few_points_rejected():
    curve = DipCurve(delays_um=(-10.0, 0.0, 10.0), rates_hz=(1.0, 0.5, 1.0),
                     errors_hz=(0.0,) * 3, mode="data")
    with pytest.raises(ValueError):
        fit_dip(curve)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(123)
    tau = np.linspace(-200, 200, 11)
    for _ in range(100):
        s = float(rng.uniform(10, 1000))
        v = float(rng.uniform(0.05, 0.95))
        sigma = float(rng.uniform(20, 150))
        jac = dip_jacobian(tau, s, v, sigma)
        # The model is linear in s and v, so large central-difference
        # steps carry no truncation error and keep roundoff negligible.
        for j, (val, h) in enumerate(((s, s * 1e-3), (v, 1e-3), (sigma, sigma * 1e-5))):
            params = [s, v, sigma]
            params[j] = val + h
            up = dip_model(tau, *params)
            params[j] = val - h
            dn = dip_model(tau, *params)
            fd = (up - dn) / (2 * h)
            # scale against the column's dominant magnitude so deep-tail
            # points (where both jac and fd underflow toward zero) do not
            # inflate the relative error
            scale = np.maximum(np.abs(jac[:, j]), 1e-3 * np.max(np.abs(jac[:, j])))
            assert np.max(np.abs(jac[:, j] - fd) / scale) < 1e-6


def test_fwhm_identity():
    fit = DipFit(s=1.0, visibility=0.5, sigma_tau_um=50.0,
                 covariance=((0.0,) * 3,) * 3, residual_norm=0.0,
                 iterations=1, converged=True)
    assert fit.fwhm_um == FWHM_PER_SIGMA * 50.0


def test_weighted_fit_uses_error_bars():
    rng = np.random.default_rng(4)
    sigma = 142.0 / FWHM_PER_SIGMA
    curve = synthetic_curve(160.0, 0.28, sigma, noise_rng=rng, err=2.0)
    fit = fit_dip(curve)
    sigma_v = math.sqrt(fit.covariance[1][1])
    assert abs(fit.visibility - 0.28) < 4 * sigma_v


def test_visibility_ratio():
    p = 0.04
    assert analysis.visibility(3 * p ** 2 / 2, p ** 2) == pytest.approx(1 / 3)
    assert analysis.visibility(5.0, 5.0) == 0.0
    assert analysis.visibility(5.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        analysis.visibility(0.0, 0.0)
    with pytest.raises(ValueError):
        analysis.visibility(1.0, 2.0)


def test_pointwise_floor_subtraction_recovers_truth():
    sigma = 142.0 / FWHM_PER_SIGMA
    true = synthetic_curve(160.0, 0.28, sigma)
    floor = 20.0
    raw = DipCurve(delays_um=true.delays_um,
                   rates_hz=tuple(r + floor for r in true.rates_hz),
                   errors_hz=true.errors_hz, mode="data")
    recovered = fit_dip(analysis.subtract_floor(raw, floor))
    assert recovered.s == pytest.approx(160.0, rel=1e-9)
    assert recovered.visibility == pytest.approx(0.28, rel=1e-9)


def test_floor_subtraction_preserves_sigma():
    sigma = 77.0
    true = synthetic_curve(500.0, 0.4, sigma)
    for floor in (5.0, 50.0, 200.0):
        raw = DipCurve(delays_um=true.delays_um,
                       rates_hz=tuple(r + floor for r in true.rates_hz),
                       errors_hz=true.errors_hz, mode="data")
        fit_raw = fit_dip(raw)
        fit_net = fit_dip(analysis.subtract_floor(raw, floor))
        assert fit_net.sigma_tau_um == pytest.approx(fit_raw.sigma_tau_um,
                                                     abs=1e-8 * sigma)
        assert fit_net.visibility > fit_raw.visibility


def test_subtract_floor_clamps_at_zero():
    raw = DipCurve(delays_um=(0.0, 1.0), rates_hz=(10.0, 2.0),
                   errors_hz=(1.0, 1.0), mode="data")
    assert analysis.subtract_floor(raw, 3.0).rates_hz == (7.0, 0.0)
    with pytest.raises(ValueError):
        analysis.subtract_floor(raw, -1.0)


def test_fit_on_seeded_mc_curve():
    s = SourceParams.from_pair_probability(0.04)
    cfg = runner.ExperimentConfig(source1=s, source2=s,
                                  scheme=CoincidenceScheme("threefold"),
                                  delays_um=tuple(np.linspace(-250, 250, 11)),
                                  pulses_per_point=1_000_000, seed=17)
    fit_mc = analysis.fit_dip(runner.dip_curve_mc(cfg))
    fit_an = analysis.fit_dip(runner.dip_curve_analytic(cfg))
    sigma_v = math.sqrt(max(fit_mc.covariance[1][1], 1e-12))
    assert abs(fit_mc.visibility - fit_an.visibility) < 3 * sigma_v


def lab_mc_curves(seed):
    """Raw and net MC curves of the shipped paper-regime config (31
    points, a few counts each) at an MC seed."""
    cfg = cli.parse_config(json.loads(LAB_CONFIG.read_text()),
                           seed_override=seed)
    raw = runner.dip_curve_mc(cfg)
    return raw, analysis.subtract_floor(raw, runner.accidental_floor_hz(cfg))


def fit_weights(curve):
    err = np.asarray(curve.errors_hz)
    return 1.0 / err if np.all(err > 0) else np.ones(len(err))


def test_fit_finds_least_squares_minimum_over_width_range():
    # the profile is multimodal here: a narrow deep dip beats a wide
    # shallow one that a local search can stop at
    raw, _ = lab_mc_curves(14)
    tau, y = np.asarray(raw.delays_um), np.asarray(raw.rates_hz)
    w = fit_weights(raw)
    step = np.min(np.diff(tau))
    best = np.inf
    for sigma in np.geomspace(step / 2, tau[-1] - tau[0], 3000):
        basis = np.column_stack([np.ones_like(tau),
                                 -np.exp(-tau ** 2 / (2 * sigma ** 2))])
        coef = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)[0]
        best = min(best, float(np.linalg.norm((basis @ coef - y) * w)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # V may be clamped
        fit = fit_dip(raw)
    assert fit.residual_norm <= (1 + 1e-9) * best


def test_sparse_fit_refines_width_in_few_steps():
    for curve in lab_mc_curves(5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fit = fit_dip(curve)
        assert fit.converged
        assert fit.iterations <= 40


@pytest.mark.parametrize("seed", [6, 33])
def test_runaway_width_raises(seed):
    raw, _ = lab_mc_curves(seed)
    with pytest.raises(RuntimeError, match="edge"):
        fit_dip(raw)


def test_non_positive_baseline_raises():
    # a box-shaped peak: the best Gaussian dip has S < 0; a noiseless
    # Gaussian peak on no baseline: S is 0 up to rounding (7e-15 of the
    # 100 Hz peak), so V = (S V) / S is meaningless
    tau = np.linspace(-300, 300, 41)
    peaks = (np.where(np.abs(tau) < 60, 100.0, 0.0),
             100.0 * np.exp(-tau ** 2 / (2 * 50.0 ** 2)))
    for rates in peaks:
        curve = DipCurve(delays_um=tuple(tau), rates_hz=tuple(rates),
                         errors_hz=(0.0,) * 41, mode="data")
        with pytest.raises(RuntimeError, match="S = "):
            fit_dip(curve)


def test_fit_where_every_g_underflows_at_narrow_widths():
    # no delay near 0: below ~8 um every exp(-tau^2 / (2 sigma^2))
    # underflows to 0 and the 2x2 system is singular there
    tau = 300.0 + 10.0 * np.arange(41)
    curve = synthetic_curve(50.0, 0.8, 200.0, delays=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_dip(curve)
    assert fit.s == pytest.approx(50.0, rel=1e-6)
    assert fit.visibility == pytest.approx(0.8, rel=1e-6)
    assert fit.sigma_tau_um == pytest.approx(200.0, rel=1e-6)


def test_fit_is_stationary_on_resolved_binomial_curves():
    # first-order optimality: each component of the weighted gradient
    # (w J)^T (w r) is <= 1e-6 of |w J_k| |w r|, the cosine between the
    # residual and that Jacobian column
    # 2000-10000 counts per point outside the dip, >= 200 at its bottom
    rng = np.random.default_rng(2024)
    n_pulses, pulse_rate = 10 ** 6, 7.6e7
    for n_points in (31, 61, 101, 201) * 3:
        sigma = rng.uniform(80.0, 250.0) / FWHM_PER_SIGMA
        reach = rng.uniform(3.0, 5.0) * FWHM_PER_SIGMA * sigma
        tau = np.linspace(-reach, reach, n_points)
        p = dip_model(tau, rng.uniform(2e-3, 1e-2), rng.uniform(0.2, 0.9), sigma)
        p_hat = rng.binomial(n_pulses, p) / n_pulses
        err = np.sqrt(p_hat * (1 - p_hat) / n_pulses)
        curve = DipCurve(delays_um=tuple(tau), rates_hz=tuple(p_hat * pulse_rate),
                         errors_hz=tuple(err * pulse_rate), mode="data")
        fit = fit_dip(curve)
        assert not fit.clamped
        params = (fit.s, fit.visibility, fit.sigma_tau_um)
        w = fit_weights(curve)
        wr = (dip_model(tau, *params) - np.asarray(curve.rates_hz)) * w
        wj = dip_jacobian(tau, *params) * w[:, None]
        bound = 1e-6 * np.linalg.norm(wj, axis=0) * np.linalg.norm(wr)
        assert np.all(np.abs(wj.T @ wr) <= bound)
