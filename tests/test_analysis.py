import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mandeldip import analysis, cli, runner
from mandeldip.analysis import DipFit, dip_jacobian, dip_model, fit_dip
from mandeldip.runner import DipCurve

from lab_setup import LAB_CONFIG, lab_setup

FWHM_PER_SIGMA = 2 * math.sqrt(2 * math.log(2))


def synthetic_curve(s, v, sigma, delays=None, noise_rng=None, err=0.0):
    if delays is None:
        delays = np.linspace(-300, 300, 41)
    rates = dip_model(delays, s, v, sigma)
    if noise_rng is not None:
        rates = rates + noise_rng.normal(0.0, err, size=len(delays))
    errs = np.full(len(delays), err)
    return DipCurve(delays_um=tuple(delays), rates_hz=tuple(np.maximum(rates, 0.0)),
                    errors_hz=tuple(errs))


def test_recovers_lab_scale_parameters():
    sigma = 142.0 / FWHM_PER_SIGMA
    curve = synthetic_curve(160.0, 0.28, sigma)
    fit = fit_dip(curve)
    assert fit.s == pytest.approx(160.0, rel=1e-6)
    assert fit.visibility == pytest.approx(0.28, rel=1e-6)
    assert fit.fwhm_um == pytest.approx(142.0, rel=1e-6)
    assert fit.to_dict()["converged"] is True


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
                     rates_hz=(42.0,) * 9, errors_hz=(0.0,) * 9)
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


def test_fit_returns_builtin_types():
    # an ordinary, a clamped and a flat curve; numpy scalars would leak
    # into fit.json, and a numpy bool is not JSON serializable
    sigma = 60.0
    half = np.linspace(0.5 * sigma, 5 * sigma, 20)
    curves = (synthetic_curve(160.0, 0.28, 142.0 / FWHM_PER_SIGMA),
              synthetic_curve(100.0, 1.1, sigma,
                              delays=np.concatenate([-half[::-1], half])),
              DipCurve(delays_um=tuple(np.linspace(-100, 100, 9)),
                       rates_hz=(42.0,) * 9, errors_hz=(1.0,) * 9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fits = [fit_dip(curve) for curve in curves]
    assert [fit.clamped for fit in fits] == [False, True, False]
    for fit in fits:
        for value in (fit.s, fit.visibility, fit.sigma_tau_um,
                      fit.residual_norm):
            assert type(value) is float
        assert type(fit.iterations) is int
        assert type(fit.clamped) is bool
    assert fits[2].iterations == 0 and fits[2].visibility == 0.0


def test_too_few_points_rejected():
    curve = DipCurve(delays_um=(-10.0, 0.0, 10.0), rates_hz=(1.0, 0.5, 1.0),
                     errors_hz=(0.0,) * 3)
    with pytest.raises(ValueError):
        fit_dip(curve)


@pytest.mark.parametrize("field, value, message", [
    ("s", 0.0, "S must be positive"),
    ("visibility", 1.5, "visibility must lie in"),
    ("sigma_tau_um", -1.0, "sigma_tau must be positive"),
    # non-finite values would print as NaN or Infinity, not JSON
    ("s", math.nan, "S must be positive and finite"),
    ("s", math.inf, "S must be positive and finite"),
    ("sigma_tau_um", math.nan, "sigma_tau must be positive, its FWHM finite"),
    ("sigma_tau_um", math.inf, "sigma_tau must be positive, its FWHM finite"),
    ("sigma_tau_um", 1e308, "sigma_tau must be positive, its FWHM finite"),
    ("residual_norm", math.nan, "residual must be finite and non-negative"),
    ("residual_norm", math.inf, "residual must be finite and non-negative"),
    ("residual_norm", -1.0, "residual must be finite and non-negative"),
])
def test_dip_fit_refuses_out_of_range_parameters(field, value, message):
    fields = dict(s=100.0, visibility=0.5, sigma_tau_um=30.0,
                  residual_norm=0.0, iterations=0)
    with pytest.raises(ValueError, match=message):
        DipFit(**{**fields, field: value})


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
                 residual_norm=0.0, iterations=1)
    assert fit.fwhm_um == FWHM_PER_SIGMA * 50.0


def fisher_sigma_v(tau, s, v, sigma, var):
    """Expected standard error of V from the Fisher information
    J^T diag(1/var) J at (s, v, sigma): it does not depend on a fit."""
    jac = dip_jacobian(tau, s, v, sigma)
    return math.sqrt(np.linalg.inv((jac.T / var) @ jac)[1, 1])


def test_weighted_fit_uses_error_bars():
    rng = np.random.default_rng(4)
    sigma = 142.0 / FWHM_PER_SIGMA
    curve = synthetic_curve(160.0, 0.28, sigma, noise_rng=rng, err=2.0)
    fit = fit_dip(curve)
    sigma_v = fisher_sigma_v(curve.delays_um, 160.0, 0.28, sigma, 2.0 ** 2)
    assert abs(fit.visibility - 0.28) < 4 * sigma_v


def test_pointwise_floor_subtraction_recovers_truth():
    sigma = 142.0 / FWHM_PER_SIGMA
    true = synthetic_curve(160.0, 0.28, sigma)
    floor = 20.0
    raw = DipCurve(delays_um=true.delays_um,
                   rates_hz=tuple(r + floor for r in true.rates_hz),
                   errors_hz=true.errors_hz)
    recovered = fit_dip(analysis.subtract_floor(raw, floor))
    assert recovered.s == pytest.approx(160.0, rel=1e-9)
    assert recovered.visibility == pytest.approx(0.28, rel=1e-9)


def test_floor_subtraction_preserves_sigma():
    sigma = 77.0
    true = synthetic_curve(500.0, 0.4, sigma)
    for floor in (5.0, 50.0, 200.0):
        raw = DipCurve(delays_um=true.delays_um,
                       rates_hz=tuple(r + floor for r in true.rates_hz),
                       errors_hz=true.errors_hz)
        fit_raw = fit_dip(raw)
        fit_net = fit_dip(analysis.subtract_floor(raw, floor))
        assert fit_net.sigma_tau_um == pytest.approx(fit_raw.sigma_tau_um,
                                                     abs=1e-8 * sigma)
        assert fit_net.visibility > fit_raw.visibility


def test_subtract_floor_clamps_at_zero():
    raw = DipCurve(delays_um=(0.0, 1.0), rates_hz=(10.0, 2.0),
                   errors_hz=(1.0, 1.0))
    assert analysis.subtract_floor(raw, 3.0).rates_hz == (7.0, 0.0)
    for floor in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            analysis.subtract_floor(raw, floor)


def test_fit_on_seeded_mc_curve():
    cfg = runner.ExperimentConfig(pair_probabilities=(0.04, 0.04),
                                  scheme="threefold",
                                  delays_um=tuple(np.linspace(-250, 250, 11)),
                                  pulses_per_point=1_000_000, seed=17,
                                  **lab_setup())
    fit_mc = analysis.fit_dip(runner.dip_curve_mc(cfg))
    fit_an = analysis.fit_dip(runner.dip_curve_analytic(cfg))
    # binomial variance of the rate at the analytic fit's parameters
    params = (fit_an.s, fit_an.visibility, fit_an.sigma_tau_um)
    p = dip_model(cfg.delays_um, *params) / cfg.pulse_rate_hz
    var = cfg.pulse_rate_hz ** 2 * p * (1.0 - p) / cfg.pulses_per_point
    sigma_v = fisher_sigma_v(cfg.delays_um, *params, var)
    assert abs(fit_mc.visibility - fit_an.visibility) < 3 * sigma_v


def lab_mc_curves(seed):
    """Raw and net MC curves of the shipped paper-regime config (31
    points, a few counts each) at an MC seed. Seeds 5, 6, 14 and 33 are
    picked for what their draws show, so each point keeps its own numpy
    `SeedSequence(entropy=seed, spawn_key=(i,))` stream, whatever stream
    `runner.dip_curve_mc` draws from."""
    cfg = cli.parse_config(json.loads(LAB_CONFIG.read_text()),
                           seed_override=seed)
    n, pulse_rate = cfg.pulses_per_point, cfg.pulse_rate_hz
    p_hats = [int(np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        .binomial(n, min(p, 1.0))) / n
        for i, p in enumerate(runner._coincidence_probs(cfg).tolist())]
    raw = DipCurve(delays_um=cfg.delays_um,
                   rates_hz=tuple(p * pulse_rate for p in p_hats),
                   errors_hz=tuple(math.sqrt(p * (1.0 - p) / n) * pulse_rate
                                   for p in p_hats))
    return raw, analysis.subtract_floor(raw, runner.accidental_floor_hz(cfg))


def fit_weights(curve):
    err = np.asarray(curve.errors_hz)
    return 1.0 / err if np.all(err > 0) else np.ones(len(err))


def binomial_curve(rng, n_points):
    """A resolved Gaussian dip drawn as binomial counts, written as the MC
    writes it: 2000-10000 counts per point outside the dip, >= 200 at
    its bottom."""
    n_pulses, pulse_rate = 10 ** 6, 7.6e7
    sigma = rng.uniform(80.0, 250.0) / FWHM_PER_SIGMA
    reach = rng.uniform(3.0, 5.0) * FWHM_PER_SIGMA * sigma
    tau = np.linspace(-reach, reach, n_points)
    p = dip_model(tau, rng.uniform(2e-3, 1e-2), rng.uniform(0.2, 0.9), sigma)
    p_hat = rng.binomial(n_pulses, p) / n_pulses
    err = np.sqrt(p_hat * (1 - p_hat) / n_pulses)
    return DipCurve(delays_um=tuple(tau), rates_hz=tuple(p_hat * pulse_rate),
                    errors_hz=tuple(err * pulse_rate))


def test_fit_finds_least_squares_minimum_over_width_range():
    # lab_fivefold MC seed 14: the profile is multimodal, and a narrow
    # deep dip beats a wide shallow one that a local search can stop at.
    # Also resolved binomial curves of every benchmark size, a noiseless
    # curve, and the analytic lab_fivefold curve (no error bars, so
    # uniform weights).
    rng = np.random.default_rng(5)
    cfg = cli.parse_config(json.loads(LAB_CONFIG.read_text()))
    curves = [lab_mc_curves(14)[0], runner.dip_curve_analytic(cfg),
              synthetic_curve(160.0, 0.28, 142.0 / FWHM_PER_SIGMA)]
    curves += [binomial_curve(rng, n) for n in (31, 61, 101, 201)]
    for curve in curves:
        tau, y = np.asarray(curve.delays_um), np.asarray(curve.rates_hz)
        w = fit_weights(curve)
        step = np.min(np.diff(tau))
        best = np.inf
        for sigma in np.geomspace(step / 2, tau[-1] - tau[0], 3000):
            basis = np.column_stack([np.ones_like(tau),
                                     -np.exp(-tau ** 2 / (2 * sigma ** 2))])
            coef = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)[0]
            best = min(best, float(np.linalg.norm((basis @ coef - y) * w)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # V may be clamped
            fit = fit_dip(curve)
        assert fit.residual_norm <= (1 + 1e-9) * best


def test_sparse_fit_refines_width_in_few_steps():
    for curve in lab_mc_curves(5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            fit = fit_dip(curve)
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
                         errors_hz=(0.0,) * 41)
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
    rng = np.random.default_rng(2024)
    for n_points in (31, 61, 101, 201) * 3:
        curve = binomial_curve(rng, n_points)
        tau = np.asarray(curve.delays_um)
        fit = fit_dip(curve)
        assert not fit.clamped
        params = (fit.s, fit.visibility, fit.sigma_tau_um)
        w = fit_weights(curve)
        wr = (dip_model(tau, *params) - np.asarray(curve.rates_hz)) * w
        wj = dip_jacobian(tau, *params) * w[:, None]
        bound = 1e-6 * np.linalg.norm(wj, axis=0) * np.linalg.norm(wr)
        assert np.all(np.abs(wj.T @ wr) <= bound)


def centred_profile(tau, y, w2, sigma):
    """(a, b, det, dc/dsigma) at one width by centred sums, as the fit
    computed them before its one evaluator took moment form."""
    wn = w2 / w2.sum()
    y_mean = wn @ y
    yc = y - y_mean
    g = np.exp(-tau ** 2 / (2.0 * sigma ** 2))
    g_mean = wn @ g
    gc = g - g_mean
    det = (gc ** 2) @ w2
    b = -(gc @ (w2 * yc)) / det if det > 0.0 else 0.0
    r = b * gc + yc
    dcost = 2.0 * b * ((r * g) @ (w2 * tau ** 2)) / sigma ** 3
    return y_mean + b * g_mean, b, det, dcost


def test_one_width_evaluator_takes_floats_and_arrays():
    # a noisy dip with error bars, the same dip noiseless, and a grid
    # with no delay near 0 (300-700 um), where every g underflows at
    # the narrowest widths and det == 0 gives b == 0
    rng = np.random.default_rng(9)
    tau = np.linspace(-300.0, 300.0, 31)
    noisy = dip_model(tau, 160.0, 0.6, 50.0) + rng.normal(0.0, 2.0, tau.size)
    far = 300.0 + 10.0 * np.arange(41)
    cases = ((tau, noisy, rng.uniform(1.0, 3.0, tau.size)),
             (tau, dip_model(tau, 160.0, 0.6, 50.0), np.ones(tau.size)),
             (far, dip_model(far, 50.0, 0.8, 200.0), np.ones(far.size)))
    for tau, y, err in cases:
        w2 = err ** -2.0
        evaluate = analysis._width_profile(tau ** 2, y, w2)
        steps = np.diff(tau)
        lo, hi = 0.5 * steps.min(), steps.sum()
        widths = lo * (hi / lo) ** np.linspace(0.0, 1.0, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = evaluate(widths)
            ones = [evaluate(float(x)) for x in widths]
        # a float width gives its row of the array call
        one = np.array([row[:5] for row in ones]).T
        np.testing.assert_allclose(one[:4], np.array(grid[:4]),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(one[4], grid[4], rtol=0.0,
                                   atol=1e-12 * np.abs(grid[4]).max())
        # g is the model's Gaussian at each width
        want = np.exp(-tau ** 2 / (2.0 * widths[:, None] ** 2))
        np.testing.assert_allclose(grid[5], want, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose([row[5] for row in ones], want,
                                   rtol=1e-13, atol=0.0)
        # the centred sums agree
        ref = np.array([centred_profile(tau, y, w2, x) for x in widths]).T
        both = (ref[2] > 0.0) & (grid[2] > 0.0)
        assert both.sum() >= 20
        for k in range(3):
            np.testing.assert_allclose(grid[k][both], ref[k][both],
                                       rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grid[4], ref[3], rtol=0.0,
                                   atol=1e-10 * np.abs(ref[3]).max())
    # the 300-700 um grid: at its narrowest widths every g, or every
    # g^2, underflows, so the system is singular and b exactly 0
    singular = grid[2] == 0.0
    assert singular[0] and not singular[-1]
    assert np.array_equal(one[2] == 0.0, singular)
    assert np.all(grid[1][singular] == 0.0) and np.all(one[1][singular] == 0.0)


def test_refinement_scales_the_upper_end_kept_twice(monkeypatch):
    # a noiseless coarse-grid dip whose refinement lands below the root
    # of dc/dsigma twice in a row, so Anderson-Bjorck scales f1
    tau = np.arange(-300.0, 301.0, 40.0)
    y = dip_model(tau, 100.0, 0.5, 30.0)
    curve = DipCurve(delays_um=tuple(tau), rates_hz=tuple(y),
                     errors_hz=(0.0,) * tau.size)
    slopes = []
    width_profile = analysis._width_profile

    def recording(*args):
        evaluate = width_profile(*args)

        def evaluate_recorded(sigma):
            out = evaluate(sigma)
            if np.ndim(sigma) == 0:   # a refinement step, not the grid
                slopes.append(out[4])
            return out
        return evaluate_recorded

    monkeypatch.setattr(analysis, "_width_profile", recording)
    fit = fit_dip(curve)
    assert len(slopes) == fit.iterations
    # the branch runs when the second of two negative slopes is not the last
    assert any(f0 < 0.0 and f1 < 0.0
               for f0, f1 in zip(slopes[:-2], slopes[1:-1])), slopes

    def cost(sigma):   # uniform weights: the errors are all 0
        basis = np.column_stack([np.ones_like(tau),
                                 -np.exp(-tau ** 2 / (2 * sigma ** 2))])
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        return float(np.sum((basis @ coef - y) ** 2))

    widths = np.geomspace(20.0, 600.0, 2001)
    k = int(np.argmin([cost(x) for x in widths]))
    lo, hi = widths[k - 1], widths[k + 1]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-14 * hi:   # golden section
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if cost(a) < cost(b):
            hi = b
        else:
            lo = a
    assert fit.sigma_tau_um == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def unit_curves():
    """Curves the unit tests rescale: a noiseless and a clamped dip
    (uniform weights), resolved binomial dips of every benchmark size
    (error bars) and a sparse lab_fivefold MC curve (zero-count points,
    so uniform weights)."""
    rng = np.random.default_rng(31)
    sigma = 60.0
    half = np.linspace(0.5 * sigma, 5 * sigma, 20)
    curves = [synthetic_curve(160.0, 0.28, 142.0 / FWHM_PER_SIGMA),
              synthetic_curve(100.0, 1.1, sigma,
                              delays=np.concatenate([-half[::-1], half]))]
    curves += [binomial_curve(rng, n) for n in (31, 61, 101, 201)]
    return curves + [lab_mc_curves(14)[0]]


def quiet_fit(curve):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # V may be clamped
        warnings.simplefilter("error", RuntimeWarning)
        return fit_dip(curve)


@pytest.mark.parametrize("k", [40, -40, 500, -500, 1000, -1000])
def test_fit_does_not_depend_on_the_delay_unit(k):
    for curve in unit_curves():
        fit = quiet_fit(curve)
        scaled = quiet_fit(replace(curve, delays_um=tuple(
            math.ldexp(d, k) for d in curve.delays_um)))
        assert (scaled.s, scaled.visibility, scaled.iterations,
                scaled.residual_norm, scaled.clamped) == (
            fit.s, fit.visibility, fit.iterations, fit.residual_norm,
            fit.clamped)
        assert scaled.sigma_tau_um == math.ldexp(fit.sigma_tau_um, k)
    # a fit that fails names its width range in the delays' own unit
    raw, _ = lab_mc_curves(6)
    steps = np.diff(raw.delays_um)
    scaled = replace(raw, delays_um=tuple(math.ldexp(d, k)
                                          for d in raw.delays_um))
    edges = (f"[{math.ldexp(0.5 * steps.min(), k):.6g}, "
             f"{math.ldexp(steps.sum(), k):.6g}] um")
    with pytest.raises(RuntimeError, match=re.escape(edges)):
        quiet_fit(scaled)


@pytest.mark.parametrize("m", [40, -40, 500, -500])
def test_fit_does_not_depend_on_the_error_unit(m):
    # those with an error bar on every point, so that the fit weighs them
    for curve in [c for c in unit_curves() if min(c.errors_hz) > 0.0]:
        fit = quiet_fit(curve)
        scaled = quiet_fit(replace(curve, errors_hz=tuple(
            math.ldexp(e, m) for e in curve.errors_hz)))
        assert (scaled.s, scaled.visibility, scaled.sigma_tau_um,
                scaled.iterations) == (fit.s, fit.visibility,
                                       fit.sigma_tau_um, fit.iterations)
        assert scaled.residual_norm == math.ldexp(fit.residual_norm, -m)


@pytest.mark.parametrize("m", [40, -40, 500, -500])
def test_fit_does_not_depend_on_the_rate_unit(m):
    for curve in unit_curves():
        fit = quiet_fit(curve)
        scaled = quiet_fit(replace(curve, rates_hz=tuple(
            math.ldexp(r, m) for r in curve.rates_hz)))
        assert (scaled.visibility, scaled.sigma_tau_um, scaled.iterations,
                scaled.clamped) == (fit.visibility, fit.sigma_tau_um,
                                    fit.iterations, fit.clamped)
        assert scaled.s == math.ldexp(fit.s, m)
        assert scaled.residual_norm == math.ldexp(fit.residual_norm, m)


@pytest.mark.parametrize("scale, err", [
    (1e150, 0.0), (1e-150, 0.0), (1e300, 0.0), (1e-300, 0.0),
    (1.0, 1e-160), (1.0, 1e-200), (1.0, 1e200), (2.0 ** 1015, 0.0)])
def test_fit_in_extreme_units_recovers_the_dip(scale, err):
    # sigma^3, tau^2 or 1/err^2 of these leave the float range, and at
    # 2^1015 the grid span does: the fit used to report a wrong dip as
    # converged, NaNs or a false edge
    tau = np.linspace(-300.0, 300.0, 31)
    curve = DipCurve(delays_um=tuple(tau * scale),
                     rates_hz=tuple(dip_model(tau, 100.0, 0.5, 60.0)),
                     errors_hz=(err,) * tau.size)
    fit = quiet_fit(curve)
    assert fit.visibility == pytest.approx(0.5, rel=1e-12)
    assert fit.sigma_tau_um / scale == pytest.approx(60.0, rel=1e-12)
    assert fit.s == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e300])
def test_fit_with_rates_in_extreme_units_recovers_the_dip(scale):
    # the dip's depth falls under the flat-curve test's old 1e-30 floor,
    # or products of the rates leave the float range: the fit used to
    # report S = 1e-30 and V = 0 as converged, or no bracketed minimum
    tau = np.linspace(-300.0, 300.0, 31)
    curve = DipCurve(delays_um=tuple(tau),
                     rates_hz=tuple(dip_model(tau, 100.0, 0.5, 60.0) * scale),
                     errors_hz=(0.0,) * tau.size)
    fit = quiet_fit(curve)
    assert fit.visibility == pytest.approx(0.5, rel=1e-12)
    assert fit.sigma_tau_um == pytest.approx(60.0, rel=1e-12)
    assert fit.s / scale == pytest.approx(100.0, rel=1e-12)


def test_curve_without_counts_does_not_converge():
    # a flat curve at 0 Hz has no baseline to pin V against
    curve = DipCurve(delays_um=tuple(np.linspace(-300.0, 300.0, 31)),
                     rates_hz=(0.0,) * 31, errors_hz=(0.0,) * 31)
    with pytest.raises(RuntimeError, match="every rate is 0"):
        fit_dip(curve)


def test_residual_beyond_the_float_range_is_refused():
    # a 1 Hz misfit on error bars of 2^-1070 Hz weighs beyond the float
    # range: no number the report could print, so the fit refuses it
    tau = np.linspace(-300.0, 300.0, 31)
    rates = dip_model(tau, 100.0, 0.5, 60.0)
    rates[3] += 1.0
    curve = DipCurve(delays_um=tuple(tau), rates_hz=tuple(rates),
                     errors_hz=(math.ldexp(1.0, -1070),) * tau.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^residual must be finite"):
            fit_dip(curve)
