"""Correctness checks for the benchmark's operations.

Nothing here imports mandeldip. The reference values are computed apart
from the program, from closed forms and from a distinguishable-photon
sum, or are properties the method must have. Every check returns a list
of problems; an empty list means the output passed. The fit checks
return two lists: problems, and fit failures of the kind the program's
zero-count fault causes (non-convergence, a pull beyond the limit).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Detector order of the config schema and the output each one watches.
GROUPS = ("c", "d", "herald1", "herald2")
SCHEME_GROUPS = {"threefold": ("c", "d"), "fivefold": GROUPS}

PULL_LIMIT = 5.0          # Fisher standard deviations
EXACT_REL = 1e-9          # closed forms and exact sums; the CSV holds 12 digits
NOISELESS_REL = 1e-6      # fits of noiseless curves


# ---------------------------------------------------------------- inputs

def parse_curve_csv(text: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read `delay_um,rate_hz,err_hz` rows without the program's reader."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "delay_um,rate_hz,err_hz":
        raise ValueError("curve CSV header is missing")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("curve CSV rows must have three columns")
    return rows[:, 0], rows[:, 1], rows[:, 2]


def format_curve_csv(delays, rates, errors) -> str:
    """The program's CSV form, as `mandel-dip scan` writes it."""
    lines = ["delay_um,rate_hz,err_hz"]
    for d, r, e in zip(delays, rates, errors):
        lines.append(f"{d:.9g},{r:.12g},{e:.12g}")
    return "\n".join(lines) + "\n"


def pair_ratio(source: dict) -> float:
    """Geometric ratio lambda = tanh^2(zeta) = P of one source entry."""
    if "zeta" in source:
        return math.tanh(float(source["zeta"])) ** 2
    return float(source["P"])


def delay_grid(cfg: dict) -> np.ndarray:
    d = cfg["delays"]
    n = int(math.floor((d["max_um"] - d["min_um"]) / d["step_um"] + 1e-9)) + 1
    return d["min_um"] + d["step_um"] * np.arange(n)


# ------------------------------------------------------- closed forms

def coherence_length_um(center_nm: float, fwhm_nm: float) -> float:
    """Gaussian-filter coherence length (2 ln2 / pi) lambda^2 / dlambda."""
    return (2.0 * math.log(2.0) / math.pi) * (center_nm * 1e-3) ** 2 / (fwhm_nm * 1e-3)


def dip_coherence_length_um(cfg: dict) -> float:
    """Signal-filter l_c; fivefold narrows it by the mapped herald filter."""
    f = cfg["filters"]
    fwhm = float(f["signal_fwhm_nm"])
    if cfg["scheme"] == "fivefold":
        mapped = f["herald_fwhm_nm"] * (f["signal_nm"] / f["herald_nm"]) ** 2
        fwhm = 1.0 / math.sqrt(fwhm ** -2 + mapped ** -2)
    return coherence_length_um(float(f["signal_nm"]), fwhm)


def centre_overlap_sq(cfg: dict) -> float:
    """|m|^2 at zero delay: cos^2(angle) (1 - mismatch)."""
    return (math.cos(cfg.get("polarization_angle_rad", 0.0)) ** 2
            * (1.0 - cfg.get("spectral_mismatch", 0.0)))


def overlap_sq(cfg: dict, delay_um) -> np.ndarray:
    """|m(delay)|^2 = q exp(-2 ln2 (delay / l_c)^2): FWHM sqrt(2) l_c."""
    l_c = dip_coherence_length_um(cfg)
    return centre_overlap_sq(cfg) * np.exp(
        -2.0 * math.log(2.0) * (np.asarray(delay_um) / l_c) ** 2)


def small_eta_visibility(cfg: dict) -> float | None:
    """q/3 (threefold) or q (1 + 8P)/(1 + 12P) (fivefold, max_pairs 3);
    None where no closed form holds."""
    if not cfg.get("small_eta", False):
        return None
    q = centre_overlap_sq(cfg)
    if cfg["scheme"] == "threefold":
        return q / 3.0
    p1, p2 = (pair_ratio(s) for s in cfg["sources"])
    if cfg.get("max_pairs", 3) != 3 or p1 != p2:
        return None
    return q * (1.0 + 8.0 * p1) / (1.0 + 12.0 * p1)


# ------------------------------------------- distinguishable photons

def _effective_detectors(cfg: dict) -> Dict[str, Tuple[float, float]]:
    coll = float(cfg.get("collection_efficiency", 1.0))
    return {g: (float(d["eta"]) * coll, float(d.get("dark_prob", 0.0)))
            for g, d in zip(GROUPS, cfg["detectors"])}


def _pair_weights(cfg: dict):
    """Truncated geometric (n1, n2) weights, renormalized."""
    lam1, lam2 = (pair_ratio(s) for s in cfg["sources"])
    kmax = int(cfg.get("max_pairs", 3))
    raw = [(n1, n2, lam1 ** n1 * lam2 ** n2)
           for n1 in range(kmax + 1) for n2 in range(kmax + 1 - n1)]
    z = sum(w for _, _, w in raw)
    return [(n1, n2, w / z) for n1, n2, w in raw]


def _split(n: int):
    """Independent 50/50 splitting of n distinguishable photons into c."""
    return [(k, math.comb(n, k) * 0.5 ** n) for k in range(n + 1)]


def distinguishable_rate_hz(cfg: dict) -> float:
    """Coincidence rate far outside the dip, where the two sources'
    photons are orthogonal and split independently."""
    dets = _effective_detectors(cfg)
    groups = SCHEME_GROUPS[cfg["scheme"]]
    small = bool(cfg.get("small_eta", False))

    def weight(group, n):
        eta, dark = dets[group]
        if small:
            return n * eta
        return 1.0 - (1.0 - eta) ** n * (1.0 - dark)

    total = 0.0
    for n1, n2, w in _pair_weights(cfg):
        for k, pk in _split(n1 + n2):
            photons = {"c": k, "d": n1 + n2 - k, "herald1": n1, "herald2": n2}
            prod = 1.0
            for g in groups:
                prod *= weight(g, photons[g])
            total += w * pk * prod
    return total * float(cfg.get("pulse_rate_hz", 7.6e7))


def accidental_floor_hz(cfg: dict) -> float:
    """Dark-count coincidences: all-click with darks minus signal-only,
    from independent singles of distinguishable photons."""
    if cfg.get("small_eta", False):
        return 0.0
    dets = _effective_detectors(cfg)
    groups = SCHEME_GROUPS[cfg["scheme"]]
    singles = dict.fromkeys(groups, 0.0)
    for n1, n2, w in _pair_weights(cfg):
        for k, pk in _split(n1 + n2):
            photons = {"c": k, "d": n1 + n2 - k, "herald1": n1, "herald2": n2}
            for g in groups:
                singles[g] += w * pk * (1.0 - (1.0 - dets[g][0]) ** photons[g])
    full = signal = 1.0
    for g in groups:
        dark = dets[g][1]
        full *= singles[g] if dark == 0.0 else 1.0 - (1.0 - singles[g]) * (1.0 - dark)
        signal *= singles[g]
    return max(0.0, full - signal) * float(cfg.get("pulse_rate_hz", 7.6e7))


# --------------------------------------------------- dip statistics

def gaussian_dip(tau, s, v, sigma):
    return s * (1.0 - v * np.exp(-np.asarray(tau) ** 2 / (2.0 * sigma ** 2)))


def fisher_sigmas(tau, s, v, sigma, n_pulses: int, pulse_rate_hz: float
                  ) -> Dict[str, float]:
    """Standard deviations of (S, V, FWHM) from the binomial Fisher
    information of a curve with rate = k/N R, k ~ Binomial(N, rate/R)."""
    tau = np.asarray(tau, dtype=float)
    g = np.exp(-tau ** 2 / (2.0 * sigma ** 2))
    jac = np.column_stack([1.0 - v * g, -s * g,
                           -s * v * g * tau ** 2 / sigma ** 3])
    p = gaussian_dip(tau, s, v, sigma) / pulse_rate_hz
    var = pulse_rate_hz ** 2 * p * (1.0 - p) / n_pulses
    cov = np.linalg.inv((jac.T / var) @ jac)
    return {"S": math.sqrt(cov[0, 0]), "V": math.sqrt(cov[1, 1]),
            "fwhm_um": FWHM_PER_SIGMA * math.sqrt(cov[2, 2])}


def count_deviance(k: float, mu: float) -> float:
    """Poisson likelihood-ratio statistic for a total count; its signed
    root is close to a unit normal even at a few counts per point,
    where Pearson's chi-square is not."""
    if k == 0:
        return 2.0 * mu
    return 2.0 * (k * math.log(k / mu) - (k - mu))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _fit_problems(fit: dict, label: str) -> Tuple[List[str], List[str]]:
    """(problems, failures): a fit that reports it did not converge is a
    failure; a missing flag or out-of-range parameters are problems."""
    if fit.get("converged") is False:
        return [], [f"{label}: fit not converged"]
    if fit.get("converged") is not True:
        return [f"{label}: no convergence flag"], []
    if not 0.0 <= fit["V"] <= 1.0 or fit["S"] <= 0.0 or fit["fwhm_um"] <= 0.0:
        return [f"{label}: fit parameters out of range"], []
    return [], []


# ------------------------------------------------------ the checks

def check_analytic_scan(cfg: dict, curve, fit_report: dict) -> List[str]:
    """`scan --mode analytic` output against independent references."""
    delays, rates, errors = curve
    problems = []
    grid = delay_grid(cfg)
    if len(delays) != len(grid) or np.max(np.abs(delays - grid)) > 1e-9:
        return ["delay grid differs from the config"]
    if np.any(errors != 0.0):
        problems.append("analytic curve carries nonzero errors")
    # A function of |delay| alone, non-decreasing away from zero: this
    # is symmetry plus the minimum at zero, also on grids without 0.
    order = np.argsort(np.abs(delays), kind="stable")
    a, r = np.abs(delays[order]), rates[order]
    tol = EXACT_REL * np.max(rates)
    same = a[1:] == a[:-1]
    if np.any(np.abs(np.diff(r)[same]) > tol):
        problems.append("curve not symmetric under delay -> -delay")
    if np.any(np.diff(r) < -tol) or not r[0] < r[-1]:
        problems.append("dip minimum not at zero delay")
    far = distinguishable_rate_hz(cfg)
    for edge in (0, -1):
        # what is left of the overlap at the edge bounds the difference
        limit = EXACT_REL + 4.0 * float(overlap_sq(cfg, delays[edge]))
        if _rel(rates[edge], far) > limit:
            problems.append(f"out-of-dip rate {rates[edge]:.12g} != "
                            f"distinguishable sum {far:.12g}")
    if _rel(fit_report["accidental_hz"], accidental_floor_hz(cfg)) > EXACT_REL:
        problems.append("accidental floor differs from independent singles")
    raw = fit_report["raw"]
    fit_problems, failures = _fit_problems(raw, "raw")
    problems += fit_problems + failures
    if problems:
        return problems
    v_expect = small_eta_visibility(cfg)
    if v_expect is not None and _rel(raw["V"], v_expect) > EXACT_REL:
        problems.append(f"V {raw['V']:.12g} != closed form {v_expect:.12g}")
    if cfg.get("small_eta", False):
        fwhm = math.sqrt(2.0) * dip_coherence_length_um(cfg)
        if _rel(raw["fwhm_um"], fwhm) > EXACT_REL:
            problems.append(f"FWHM {raw['fwhm_um']:.12g} != sqrt2 l_c {fwhm:.12g}")
    return problems


def check_mc_curve(cfg: dict, n_pulses: int, curve,
                   analytic_rates: Sequence[float]) -> List[str]:
    """`scan --mode mc` curve against the analytic expectation.

    `analytic_rates` is the analytic-mode curve of the same config (the
    analytic engine is itself checked on the scan-analytic workload).
    """
    delays, rates, errors = curve
    rate_hz = float(cfg.get("pulse_rate_hz", 7.6e7))
    problems = []
    grid = delay_grid(cfg)
    if len(delays) != len(grid) or np.max(np.abs(delays - grid)) > 1e-9:
        return ["delay grid differs from the config"]
    k = rates / rate_hz * n_pulses
    if np.max(np.abs(k - np.round(k)) - 1e-10 * k) > 1e-9:
        problems.append("rate_hz / R * N is not an integer count")
    p = np.round(k) / n_pulses
    err = np.sqrt(p * (1.0 - p) / n_pulses) * rate_hz
    if np.max(np.abs(errors - err) - 1e-10 * err) > 1e-12 * rate_hz:
        problems.append("errors do not follow sqrt(p(1-p)/N) R")
    mu = float(np.sum(np.asarray(analytic_rates) / rate_hz * n_pulses))
    dev = count_deviance(float(np.sum(np.round(k))), mu)
    if dev > PULL_LIMIT ** 2:
        problems.append(f"total counts {np.sum(np.round(k)):.0f} vs expected "
                        f"{mu:.1f}: deviance {dev:.1f}")
    return problems


def check_mc_fit(cfg: dict, n_pulses: int, delays, fit_report: dict,
                 analytic_fit: dict) -> Tuple[List[str], List[str]]:
    """(problems, failures) of the MC scan's raw fit: V within the pull
    limit of the analytic-mode V, in Fisher sigma of the MC curve."""
    raw = fit_report["raw"]
    problems, failures = _fit_problems(raw, "raw")
    if problems or failures:
        return problems, failures
    sig = fisher_sigmas(delays, analytic_fit["S"], analytic_fit["V"],
                        analytic_fit["fwhm_um"] / FWHM_PER_SIGMA, n_pulses,
                        float(cfg.get("pulse_rate_hz", 7.6e7)))["V"]
    pull = (raw["V"] - analytic_fit["V"]) / sig
    if abs(pull) > PULL_LIMIT:
        failures.append(f"MC V {raw['V']:.4f} is {pull:+.1f} sigma from "
                        f"analytic V {analytic_fit['V']:.4f}")
    return problems, failures


def check_fit(truth: dict, fit: dict, delays, n_pulses: int,
              pulse_rate_hz: float, noiseless: bool
              ) -> Tuple[List[str], List[str]]:
    """(problems, failures) of a `fit` output against the dip the curve
    was drawn from. A noiseless curve that misses is a problem."""
    problems, failures = _fit_problems(fit, "fit")
    if problems or failures:
        return problems, failures
    sigma = truth["fwhm_um"] / FWHM_PER_SIGMA
    sig = fisher_sigmas(delays, truth["S"], truth["V"], sigma,
                        n_pulses, pulse_rate_hz)
    for key in ("S", "V", "fwhm_um"):
        if noiseless:
            if _rel(fit[key], truth[key]) > NOISELESS_REL:
                problems.append(f"noiseless {key} {fit[key]:.9g} != {truth[key]:.9g}")
        else:
            pull = (fit[key] - truth[key]) / sig[key]
            if abs(pull) > PULL_LIMIT:
                failures.append(f"{key} {fit[key]:.6g} is {pull:+.1f} sigma "
                                f"from truth {truth[key]:.6g}")
    return problems, failures
