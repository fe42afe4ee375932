"""Gaussian dip fitting and derived dip quantities.

The dip model is R(tau) = S * (1 - V * exp(-tau^2 / (2 sigma^2))) with
S the rate outside the dip, V the visibility and sigma the 1/sqrt(e)
half width; FWHM = 2 sqrt(2 ln 2) sigma. Fitting is weighted least
squares by variable projection: for a fixed sigma the model is linear in
(S, S V), which two normal equations give in closed form, so only sigma
is searched, over a bounded range [half the smallest delay step, grid
span]. The search costs the same on every curve and cannot run off to
an unbounded width. The covariance comes from the analytic Jacobian at
the reported parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .runner import DipCurve

_FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class DipFit:
    """Fitted dip parameters and fit diagnostics."""

    s: float
    visibility: float
    sigma_tau_um: float
    covariance: Tuple[Tuple[float, ...], ...]
    residual_norm: float
    iterations: int
    converged: bool
    clamped: bool = False  # fitted V fell outside [0, 1] and was clamped

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("S must be positive")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.sigma_tau_um <= 0:
            raise ValueError("sigma_tau must be positive")

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
            "converged": self.converged,
            "clamped": self.clamped,
        }


def dip_model(tau, s, v, sigma):
    """R(tau) = S (1 - V exp(-tau^2 / (2 sigma^2)))."""
    tau = np.asarray(tau, dtype=float)
    return s * (1.0 - v * np.exp(-tau ** 2 / (2.0 * sigma ** 2)))


def dip_jacobian(tau, s, v, sigma):
    """Analytic Jacobian of dip_model w.r.t. (S, V, sigma)."""
    tau = np.asarray(tau, dtype=float)
    g = np.exp(-tau ** 2 / (2.0 * sigma ** 2))
    return np.column_stack([
        1.0 - v * g,
        -s * g,
        -s * v * g * tau ** 2 / sigma ** 3,
    ])


# Trial widths of the profile scan, log-spaced over [half the smallest
# delay step, grid span]; a fixed count, so the scan costs the same on
# every curve.
_N_WIDTHS = 32
_UNIT_STEPS = np.linspace(0.0, 1.0, _N_WIDTHS)
_WIDTH_RTOL = 1e-12
_MAX_REFINEMENTS = 100


def _width_profile(tau, y, w2):
    """Least-squares profile of the dip over its width.

    For a fixed width sigma the model a - b g(tau), with
    g = exp(-tau^2 / (2 sigma^2)), is linear in (a, b) = (S, S V). The
    returned function maps a 1-D array of widths to, per width, that
    weighted least-squares (a, b), the determinant of the 2x2 normal
    equations over the weight sum, sum w^2 (g - mean g)^2 (0 when every
    g is equal, e.g. all underflowed to 0, and the system is singular;
    b is then 0), the cost c(sigma) and dc/dsigma. By the envelope
    theorem dc/dsigma is the partial derivative at fixed (a, b), so it
    costs one pass over the curve.
    """
    tau2 = tau ** 2
    wn = w2 / np.sum(w2)
    y_mean = float(wn @ y)
    yc = y - y_mean
    w2_yc, w2_tau2 = w2 * yc, w2 * tau2

    def profile(sigma):
        g = np.exp(tau2 / (-2.0 * sigma[:, None] ** 2))
        g_mean = g @ wn
        gc = g - g_mean[:, None]
        det = gc ** 2 @ w2
        b = np.divide(-(gc @ w2_yc), det, out=np.zeros_like(det),
                      where=det > 0.0)
        r = b[:, None] * gc + yc    # y - (a - b g)
        dcost = 2.0 * b * ((r * g) @ w2_tau2) / sigma ** 3
        return y_mean + b * g_mean, b, det, r ** 2 @ w2, dcost

    return profile


def fit_dip(curve: DipCurve) -> DipFit:
    """Weighted least-squares fit of the Gaussian dip model by variable
    projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

    Weights are 1/error^2 when every point carries an error bar, uniform
    otherwise. For a fixed width sigma, S and S V solve 2x2 normal
    equations, so the fit is a 1-D search of the profiled cost c(sigma)
    over [half the smallest delay step, grid span]: c is evaluated on a
    fixed log-spaced grid of widths, and the grid minimum is refined by
    a bracketed root find (regula falsi with Anderson-Bjorck steps) on
    dc/dsigma. `iterations` counts those refinements. Raises
    RuntimeError when the minimum sits at either end of the width range,
    the 2x2 system is singular, or S comes out at most 1e-12 of the
    curve's largest rate (a vanishing or negative baseline); also, as
    safeguards, when dc/dsigma does not change sign across the grid
    minimum or the refinement does not settle. A fitted V outside
    [0, 1] is clamped into it with a warning and reported as `clamped`.
    A flat curve pins V at 0 with a warning instead of fitting a
    degenerate width.
    """
    tau = np.asarray(curve.delays_um, dtype=float)
    y = np.asarray(curve.rates_hz, dtype=float)
    err = np.asarray(curve.errors_hz, dtype=float)
    if len(tau) < 5:
        raise ValueError("fit requires at least 5 points")
    if np.all(err > 0):
        w = 1.0 / err
    else:
        w = np.ones_like(y)

    span = float(np.max(y) - np.min(y))
    scale = max(abs(float(np.max(y))), 1e-30)
    if span <= 1e-12 * scale:
        warnings.warn("flat curve: visibility pinned at 0", stacklevel=2)
        s0 = float(np.mean(y))
        sigma0 = (float(np.max(tau)) - float(np.min(tau))) / _FWHM_PER_SIGMA
        return DipFit(s=max(s0, 1e-30), visibility=0.0,
                      sigma_tau_um=max(sigma0, 1e-30),
                      covariance=((0.0,) * 3,) * 3,
                      residual_norm=float(np.linalg.norm((y - s0) * w)),
                      iterations=0, converged=True)

    steps = np.diff(np.sort(tau))
    steps = steps[steps > 0.0]
    if steps.size == 0:
        raise ValueError("fit requires at least two distinct delays")
    profile = _width_profile(tau, y, w ** 2)
    lo_width, hi_width = 0.5 * float(np.min(steps)), float(np.sum(steps))
    widths = lo_width * (hi_width / lo_width) ** _UNIT_STEPS
    a_grid, b_grid, det_grid, cost, dcost = profile(widths)
    i = int(np.argmin(cost))
    lo, hi = (i, i + 1) if dcost[i] < 0.0 else (i - 1, i)
    if lo < 0 or hi >= _N_WIDTHS:
        raise RuntimeError(
            f"dip fit did not converge: the width hit the edge of "
            f"[{lo_width:.6g}, {hi_width:.6g}] um (half the grid step, "
            f"grid span)")
    x0, f0, x1, f1 = widths[lo], dcost[lo], widths[hi], dcost[hi]
    if not f0 <= 0.0 <= f1:
        raise RuntimeError("dip fit did not converge: no bracketed minimum "
                           f"of the width profile near {widths[i]:.6g} um")

    # regula falsi on dc/dsigma with Anderson-Bjorck steps, keeping the
    # bracket f0 < 0 < f1 around the grid minimum
    j = lo if f0 == 0.0 else hi if f1 == 0.0 else i
    x, a, b, det = (float(v[j]) for v in (widths, a_grid, b_grid, det_grid))
    iterations, side = 0, 0
    while f0 < 0.0 < f1:
        if iterations == _MAX_REFINEMENTS:
            raise RuntimeError(f"dip fit did not converge in "
                               f"{_MAX_REFINEMENTS} width refinements")
        iterations += 1
        x_new = x1 - f1 * (x1 - x0) / (f1 - f0)
        a, b, det, _, f = (float(v[0]) for v in profile(np.array([x_new])))
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

    if det <= 0.0:
        raise RuntimeError("dip fit did not converge: singular 2x2 system "
                           f"at width {x:.6g} um")
    if a <= 1e-12 * scale:
        raise RuntimeError(f"dip fit did not converge: S = {a:.6g} is at "
                           f"most 1e-12 of the peak rate {scale:.6g}")

    s, v, sigma = a, b / a, float(x)
    clamped = v < 0.0 or v > 1.0
    if clamped:
        warnings.warn(f"fitted visibility {v:.4f} clamped into [0, 1]",
                      stacklevel=2)
        v = min(max(v, 0.0), 1.0)
    # residual and covariance scale belong to the reported parameters
    current = float(np.sum(((dip_model(tau, s, v, sigma) - y) * w) ** 2))

    jac = dip_jacobian(tau, s, v, sigma) * w[:, None]
    h = jac.T @ jac
    dof = max(len(tau) - 3, 1)
    try:
        cov = np.linalg.inv(h) * current / dof
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    return DipFit(s=s, visibility=v, sigma_tau_um=sigma,
                  covariance=tuple(tuple(float(x) for x in row) for row in cov),
                  residual_norm=math.sqrt(current),
                  iterations=iterations, converged=True, clamped=clamped)


def visibility(od_rate: float, id_rate: float) -> float:
    """Dip visibility (od - id) / od from out-of-dip and in-dip rates."""
    if od_rate <= 0.0:
        raise ValueError("out-of-dip rate must be positive")
    if id_rate < 0.0 or id_rate > od_rate:
        raise ValueError("in-dip rate must lie in [0, od_rate]")
    return (od_rate - id_rate) / od_rate


def subtract_floor(curve: DipCurve, floor_hz: float) -> DipCurve:
    """Point-wise removal of a delay-independent background rate."""
    if floor_hz < 0.0:
        raise ValueError("floor must be non-negative")
    rates = tuple(max(0.0, r - floor_hz) for r in curve.rates_hz)
    return DipCurve(delays_um=curve.delays_um, rates_hz=rates,
                    errors_hz=curve.errors_hz, scheme=curve.scheme,
                    mode=curve.mode, config_digest=curve.config_digest)
