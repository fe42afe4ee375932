"""Gaussian dip fitting and derived dip quantities.

The dip model is R(tau) = S * (1 - V * exp(-tau^2 / (2 sigma^2))) with
S the rate outside the dip, V the visibility and sigma the 1/sqrt(e)
half width; FWHM = 2 sqrt(2 ln 2) sigma. Fitting is weighted damped
Gauss-Newton with the analytic Jacobian: three parameters, well
conditioned, deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

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


def _initial_guess(tau: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Deterministic heuristic: baseline from the outer quartile, depth
    from the minimum point, width from the half-depth crossing."""
    order = np.argsort(np.abs(tau))[::-1]
    n_outer = max(2, len(tau) // 4)
    s0 = float(np.mean(y[order[:n_outer]]))
    if s0 <= 0:
        s0 = max(float(np.max(y)), 1e-12)
    y_min = float(np.min(y))
    v0 = min(max(1.0 - y_min / s0, 0.01), 0.999)
    level = s0 * (1.0 - 0.5 * v0)
    below = np.abs(tau[y <= level])
    if below.size > 0 and float(np.max(below)) > 0:
        sigma0 = float(np.max(below)) / math.sqrt(2.0 * math.log(2.0))
    else:
        sigma0 = (float(np.max(tau)) - float(np.min(tau))) / 4.0
    if sigma0 <= 0:
        sigma0 = 1.0
    return s0, v0, sigma0


def fit_dip(curve: DipCurve,
            initial_guess: Optional[Tuple[float, float, float]] = None,
            max_iterations: int = 200, tol: float = 1e-10) -> DipFit:
    """Weighted least-squares fit of the Gaussian dip model.

    Weights are 1/error^2 when every point carries an error bar, uniform
    otherwise. Converges when the relative parameter change drops below
    `tol`; raises on non-convergence. A fitted V outside [0, 1] is
    clamped into it with a warning and reported as `clamped`. A flat
    curve pins V at 0 with a warning instead of fitting a degenerate
    width.
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

    p = np.array(initial_guess if initial_guess is not None
                 else _initial_guess(tau, y), dtype=float)

    def cost(params):
        return float(np.sum(((dip_model(tau, *params) - y) * w) ** 2))

    mu = 1e-3
    converged = False
    iterations = 0
    current = cost(p)
    for iterations in range(1, max_iterations + 1):
        r = (dip_model(tau, *p) - y) * w
        jac = dip_jacobian(tau, *p) * w[:, None]
        h = jac.T @ jac
        g = jac.T @ r
        # floor the damping diagonal so a degenerate column (e.g. sigma
        # already collapsed below the grid) cannot make the system singular
        diag = np.diag(h)
        diag = np.where(diag > 0.0, diag, max(float(np.max(diag)), 1.0) * 1e-12)
        step = None
        for _ in range(50):
            try:
                step = np.linalg.solve(h + mu * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            # At the optimum no damped step improves the cost; a step that
            # is already negligible relative to the parameters means we
            # are done rather than stuck.
            if float(np.max(np.abs(step) / (np.abs(p) + 1e-300))) < tol:
                converged = True
                break
            # cap the sigma shrink per step: below the delay spacing the
            # model is flat between points and the Hessian degenerates
            if step[2] < -0.75 * p[2]:
                step = step * (0.75 * p[2] / -step[2])
            trial = p + step
            trial[2] = abs(trial[2])
            if trial[2] == 0.0 or trial[0] <= 0.0:
                mu *= 10.0
                continue
            c_trial = cost(trial)
            if c_trial <= current:
                break
            mu *= 10.0
        else:
            break
        if converged:
            break
        rel_change = float(np.max(np.abs(step) / (np.abs(p) + 1e-300)))
        p = trial
        current = c_trial
        mu = max(mu / 3.0, 1e-12)
        if rel_change < tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"dip fit did not converge in {max_iterations} iterations")

    s, v, sigma = float(p[0]), float(p[1]), abs(float(p[2]))
    clamped = v < 0.0 or v > 1.0
    if clamped:
        warnings.warn(f"fitted visibility {v:.4f} clamped into [0, 1]",
                      stacklevel=2)
        v = min(max(v, 0.0), 1.0)
        # residual and covariance scale belong to the reported parameters
        current = cost((s, v, sigma))

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
