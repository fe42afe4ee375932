"""Gaussian dip fitting and derived dip quantities.

The dip model is R(tau) = S * (1 - V * exp(-tau^2 / (2 sigma^2))) with
S the rate outside the dip, V the visibility and sigma the 1/sqrt(e)
half width; FWHM = 2 sqrt(2 ln 2) sigma. Fitting is weighted least
squares by variable projection: for a fixed sigma the model is linear in
(S, S V), which two normal equations give in closed form, so only sigma
is searched, over a bounded range [half the smallest delay step, grid
span]: on a fixed grid of widths, then refined one width at a time. The
search costs the same on every curve and cannot run off to an unbounded
width, and its result does not depend on the units of the delays, the
rates or the error bars.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .detect import Record
from .runner import DipCurve

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
MIN_FIT_POINTS = 5  # fewest points a fit takes; `cli` checks scan grids


class DipFit(Record):
    """Fitted dip parameters and fit diagnostics of a converged fit;
    `fit_dip` raises on a fit that does not converge."""

    s: float
    visibility: float
    sigma_tau_um: float
    residual_norm: float
    iterations: int
    clamped: bool = False  # fitted V fell outside [0, 1] and was clamped

    def __post_init__(self):
        # finite, so that `to_dict` prints valid JSON
        if not 0.0 < self.s < math.inf:
            raise ValueError("S must be positive and finite")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 < self.fwhm_um < math.inf:
            raise ValueError("sigma_tau must be positive, its FWHM finite")
        if not 0.0 <= self.residual_norm < math.inf:
            raise ValueError("residual must be finite and non-negative")

    @property
    def fwhm_um(self) -> float:
        return _FWHM_PER_SIGMA * self.sigma_tau_um

    def to_dict(self) -> dict:
        return {
            "S": self.s,
            "V": self.visibility,
            "sigma_tau_um": self.sigma_tau_um,
            "fwhm_um": self.fwhm_um,
            "residual": self.residual_norm,
            "iterations": self.iterations,
            "converged": True,
            "clamped": self.clamped,
        }


def dip_model(tau, s, v, sigma):
    """R(tau) = S (1 - V exp(-tau^2 / (2 sigma^2)))."""
    tau = np.asarray(tau, dtype=float)
    return s * (1.0 - v * np.exp(-tau ** 2 / (2.0 * sigma ** 2)))


def dip_jacobian(tau, s, v, sigma):
    """Analytic Jacobian of dip_model w.r.t. (S, V, sigma)."""
    tau2 = np.asarray(tau, dtype=float) ** 2
    g = np.exp(-tau2 / (2.0 * sigma ** 2))
    return np.array([1.0 - v * g, -s * g, -s * v * g * tau2 / sigma ** 3]).T


# Trial widths of the profile scan, log-spaced over [half the smallest
# delay step, grid span]; a fixed count, so the scan costs the same on
# every curve.
_N_WIDTHS = 32
_UNIT_STEPS = np.linspace(0.0, 1.0, _N_WIDTHS)
_WIDTH_RTOL = 1e-12
_MAX_REFINEMENTS = 100


def _width_profile(tau2, y, w2):
    """Least-squares profile of the dip over its width.

    For a fixed width sigma the model a - b g(tau), with
    g = exp(-tau^2 / (2 sigma^2)), is linear in (a, b) = (S, S V). The
    first returned function maps a 1-D array of widths to, per width,
    that weighted least-squares (a, b), the determinant of the 2x2
    normal equations over the weight sum, sum w^2 (g - mean g)^2 (0 when
    every g is equal, e.g. all underflowed to 0, and the system is
    singular; b is then 0), the cost c(sigma), dc/dsigma and g, one row
    per width. The second maps one width to (a, b, det, dc/dsigma) as
    floats and g, with 1-D arrays. Each evaluates one exp per delay and
    width. By the envelope theorem dc/dsigma is the partial derivative
    at fixed (a, b), so it costs one pass over the curve. Products use
    `ndarray.dot`, which gives what `@` gives without the matmul
    dispatch that dominates on curves of a few dozen points.
    """
    wn = w2 / w2.sum()
    y_mean = float(wn.dot(y))
    yc = y - y_mean
    w2_yc, w2_tau2 = w2 * yc, w2 * tau2

    def profile(sigma):
        g = np.exp(tau2 / (-2.0 * sigma[:, None] ** 2))
        g_mean = g.dot(wn)
        gc = g - g_mean[:, None]
        det = (gc ** 2).dot(w2)
        b = np.divide(-gc.dot(w2_yc), det, out=np.zeros_like(det),
                      where=det > 0.0)
        r = b[:, None] * gc + yc    # y - (a - b g)
        dcost = 2.0 * b * (r * g).dot(w2_tau2) / sigma ** 3
        return y_mean + b * g_mean, b, det, (r ** 2).dot(w2), dcost, g

    def at(sigma):
        g = np.exp(tau2 / (-2.0 * sigma ** 2))
        g_mean = float(g.dot(wn))
        gc = g - g_mean
        det = float((gc ** 2).dot(w2))
        b = -float(gc.dot(w2_yc)) / det if det > 0.0 else 0.0
        r = b * gc + yc
        dcost = 2.0 * b * float((r * g).dot(w2_tau2)) / sigma ** 3
        return y_mean + b * g_mean, b, det, dcost, g

    return profile, at


def _ldexp(x: float, exp: int) -> float:
    """x * 2^exp; +-inf, which `DipFit` refuses, beyond the float range."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.copysign(math.inf, x)


def _residual(r, w2, unit: int) -> float:
    """Root of the weighted squared misfit r times 2^unit, which takes it
    back from the fit's units of rates and errors to their own."""
    return _ldexp(math.sqrt(float((r ** 2).dot(w2))), unit)


def fit_dip(curve: DipCurve) -> DipFit:
    """Weighted least-squares fit of the Gaussian dip model by variable
    projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

    Weights are 1/error^2 when every point carries an error bar, uniform
    otherwise. For a fixed width sigma, S and S V solve 2x2 normal
    equations, so the fit is a 1-D search of the profiled cost c(sigma)
    over [half the smallest delay step, grid span]: c is evaluated on a
    fixed log-spaced grid of widths, and the grid minimum is refined by
    a bracketed root find (regula falsi with Anderson-Bjorck steps) on
    dc/dsigma that evaluates one width per step. `iterations` counts
    those refinements. The residual is taken at the reported parameters,
    with the Gaussian of the accepted width, which the search computed.
    The delays are fitted in a power-of-two unit of the grid span, the
    rates in one of the largest rate and the error bars in one of the
    smallest error, so the fit does not depend on the units of any:
    delays scaled by 2^k give sigma scaled by exactly 2^k and the same
    S, V and `iterations`, rates scaled by 2^m give S and the residual
    scaled by exactly 2^m and the same V and sigma, and errors scaled by
    2^m give the same S, V and sigma and the residual scaled by 2^-m.
    Raises RuntimeError when the minimum sits at either end of the
    width range, the 2x2 system is singular, or S comes out at most
    1e-12 of the curve's largest rate (a vanishing or negative
    baseline); also, as safeguards, when dc/dsigma does not change sign
    across the grid minimum or the refinement does not settle. A fitted
    V outside [0, 1] is clamped into it with a warning and reported as
    `clamped`. A flat curve pins V at 0 with a warning instead of
    fitting a degenerate width, and raises RuntimeError when every rate
    is 0.
    """
    tau = np.asarray(curve.delays_um, dtype=float)
    y = np.asarray(curve.rates_hz, dtype=float)
    err = np.asarray(curve.errors_hz, dtype=float)
    if len(tau) < MIN_FIT_POINTS:
        raise ValueError(f"fit requires at least {MIN_FIT_POINTS} points")
    # weights in a power-of-two unit of the smallest error bar (0 without
    # them), so that none squares out of the float range; exact, as is
    # the residual's way back
    err_min = float(err.min())
    err_unit = math.frexp(err_min)[1]
    w = 1.0 / np.ldexp(err, -err_unit) if err_min > 0.0 else np.ones_like(y)
    w2 = w * w

    # the steps and the span in a power-of-two unit of the largest
    # delay, so that neither leaves the float range; exact
    ends = np.sort(tau)
    tau_unit = math.frexp(max(-float(ends[0]), float(ends[-1])))[1]
    ends = np.ldexp(ends, -tau_unit)
    steps = np.diff(ends)
    steps = steps[steps > 0.0]  # not np.unique, which imports numpy.ma
    if steps.size == 0:
        raise ValueError("fit requires at least two distinct delays")

    # rates in a power-of-two unit of the largest rate, so that no
    # product of them leaves the float range; exact, as is S's way back
    y_max = float(y.max())
    rate_unit = math.frexp(y_max)[1]
    y = np.ldexp(y, -rate_unit)
    peak = math.ldexp(y_max, -rate_unit)
    if peak - float(y.min()) <= 1e-12 * peak:
        s0 = float(y.mean())
        if not s0 > 0.0:
            raise RuntimeError("dip fit did not converge: every rate is 0")
        warnings.warn("flat curve: visibility pinned at 0", stacklevel=2)
        sigma0 = float(ends[-1] - ends[0]) / _FWHM_PER_SIGMA
        return DipFit(s=_ldexp(s0, rate_unit), visibility=0.0,
                      sigma_tau_um=_ldexp(sigma0, tau_unit),
                      residual_norm=_residual(y - s0, w2,
                                              rate_unit - err_unit),
                      iterations=0)

    # delays in a power-of-two unit of the grid span, so that neither
    # tau^2 nor sigma^3 leaves the float range; widths go back by ldexp
    lo_step, span = 0.5 * float(steps.min()), float(steps.sum())
    span_unit = math.frexp(span)[1]
    unit = tau_unit + span_unit
    profile, at = _width_profile(np.ldexp(tau, -unit) ** 2, y, w2)
    lo_width = math.ldexp(lo_step, -span_unit)
    hi_width = math.ldexp(span, -span_unit)
    widths = lo_width * (hi_width / lo_width) ** _UNIT_STEPS
    a_grid, b_grid, det_grid, cost, dcost, g_grid = profile(widths)
    i = int(cost.argmin())
    lo, hi = (i, i + 1) if dcost[i] < 0.0 else (i - 1, i)
    if lo < 0 or hi >= _N_WIDTHS:
        raise RuntimeError(
            f"dip fit did not converge: the width hit the edge of "
            f"[{_ldexp(lo_step, tau_unit):.6g}, {_ldexp(span, tau_unit):.6g}]"
            f" um (half the grid step, grid span)")
    x0, f0, x1, f1 = widths[lo], dcost[lo], widths[hi], dcost[hi]
    if not f0 <= 0.0 <= f1:
        raise RuntimeError("dip fit did not converge: no bracketed minimum "
                           "of the width profile near "
                           f"{_ldexp(widths[i], unit):.6g} um")

    # regula falsi on dc/dsigma with Anderson-Bjorck steps, keeping the
    # bracket f0 < 0 < f1 around the grid minimum
    j = lo if f0 == 0.0 else hi if f1 == 0.0 else i
    x, a, b, det = (float(v[j]) for v in (widths, a_grid, b_grid, det_grid))
    g = g_grid[j]
    iterations, side = 0, 0
    while f0 < 0.0 < f1:
        if iterations == _MAX_REFINEMENTS:
            raise RuntimeError(f"dip fit did not converge in "
                               f"{_MAX_REFINEMENTS} width refinements")
        iterations += 1
        x_new = x1 - f1 * (x1 - x0) / (f1 - f0)
        a, b, det, f, g = at(x_new)
        done = f == 0.0 or abs(x_new - x) <= _WIDTH_RTOL * x_new
        x = x_new
        if done:
            break
        # the endpoint kept twice in a row gets its value scaled down
        if f < 0.0:
            if side < 0:
                m = 1.0 - f / f0
                f1 *= m if m > 0.0 else 0.5
            x0, f0, side = x, f, -1
        else:
            if side > 0:
                m = 1.0 - f / f1
                f0 *= m if m > 0.0 else 0.5
            x1, f1, side = x, f, 1

    # written so that a NaN fails them too
    if not det > 0.0:
        raise RuntimeError("dip fit did not converge: singular 2x2 system "
                           f"at width {_ldexp(x, unit):.6g} um")
    if not a > 1e-12 * peak:
        raise RuntimeError(
            f"dip fit did not converge: S = {_ldexp(a, rate_unit):.6g} is "
            f"at most 1e-12 of the peak rate {y_max:.6g}")

    v = b / a
    clamped = v < 0.0 or v > 1.0
    if clamped:
        warnings.warn(f"fitted visibility {v:.4f} clamped into [0, 1]",
                      stacklevel=2)
        v = min(max(v, 0.0), 1.0)
    r = a * (1.0 - v * g) - y  # the residual of the reported parameters
    return DipFit(s=_ldexp(a, rate_unit), visibility=v,
                  sigma_tau_um=_ldexp(x, unit),
                  residual_norm=_residual(r, w2, rate_unit - err_unit),
                  iterations=iterations, clamped=clamped)


def subtract_floor(curve: DipCurve, floor_hz: float) -> DipCurve:
    """Point-wise removal of a delay-independent background rate."""
    if floor_hz < 0.0:
        raise ValueError("floor must be non-negative")
    rates = tuple(max(0.0, r - floor_hz) for r in curve.rates_hz)
    return replace(curve, rates_hz=rates)
