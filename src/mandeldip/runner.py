"""Experiment engine: delay scans composed from source, optics, Fock and
detector layers, plus the closed-form visibility benchmarks.

One engine computes the per-pulse coincidence probability p(delay):
enumerate pair configurations (n1, n2) up to the truncation, split each
through the beam splitter, and weigh the photon counts that reach the
detectors by their clicks.

The delay enters only through the overlap x = |m(delay)|^2. Each
source-2 photon is m*b(matched) + sqrt(1-x)*b(orthogonal), so the
n2-photon input splits by k, the number of source-2 photons in the
matched wave packet, into |n1, k> on the matched sublabel and
|0, n2 - k> on the orthogonal one, with weight C(n2, k) x^k (1-x)^(n2-k).
The beam splitter never mixes sublabels and conserves the photon number
of each, so terms of different k stay orthogonal, and within one k the
two sublabels split independently by the closed-form two-mode amplitudes
of `fock.beamsplitter_amplitudes`. The heralds stay at (n1, n2), and no
Fock state is built.

A threshold detector's click depends only on how many photons reach it,
so a coincidence weighs a product of one factor per detector role
(`_click_weights`). A scan adds, for every (n1, n2, k), the herald
weights times the c and d weights summed over the two splits into one
coefficient c(n2, k), and evaluates sum c(n2, k) C(n2, k) x^k (1-x)^(n2-k)
over the delay grid. Every term is non-negative, so no rounding can push
a perfect post-selected dip below zero, and the coefficients' cost does
not depend on the grid size.

The accidental floor needs none of this: its singles are taken at
overlap 0, where no photons interfere and each click probability is a
closed form (`accidental_floor_hz`, the floor's one home).

Two execution modes turn p(delay) into `DipCurve`s:

* analytic -- the expected rate, pulse rate times p(delay).
* mc -- a seeded Binomial(N, p(delay)) draw of the coincidence count in
  N pulses. This is exact, not an approximation: pulses are i.i.d., so
  sampling pair counts, output patterns and clicks pulse by pulse gives
  the same count distribution. One `numpy.random.default_rng(seed)`
  stream draws every point of a scan at once; the seed must be a
  non-negative integer. A per-pulse path is only needed again for an
  effect that couples pulses, such as detector dead time, afterpulsing
  or pump drift across a scan.

Truncation convention: pair configurations are conditioned on
n1 + n2 <= max_pairs (probabilities renormalized), in both modes.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

import numpy as np

from . import detect, fock, optics, pdc
from .detect import ALL_ROLES, SCHEMES, DetectorModel, Record

# The filter values of an experiment, each positive and finite, and what
# an out-of-range one is called in its error
_FILTER_VALUES = (("signal_nm", "filter center"),
                  ("signal_fwhm_nm", "filter bandwidth"),
                  ("herald_nm", "filter center"),
                  ("herald_fwhm_nm", "filter bandwidth"),
                  ("pump_fwhm_nm", "pump_fwhm_nm"))

# Largest truncation accepted. At P = 0.2 the pair mass beyond 20 pairs
# is 4e-14, while the engine's cost grows about as max_pairs^4 (0.045 s
# per lab_fivefold scan at 20, days at 10**3).
MAX_PAIRS_LIMIT = 20


class ExperimentConfig(Record):
    """Complete description of one delay-scan experiment. A field with a
    default is a config key that may be left out (`cli.parse_config`).

    The range checks of every value but a detector's (`DetectorModel`)
    live here, and each ValueError names the config section of the
    faulty value as `mandel-dip scan` prints it (`sources[1]: ...`,
    `filters: ...`, `config: ...`)."""

    pair_probabilities: Tuple[float, float]  # each source's P, in order
    signal_nm: float
    signal_fwhm_nm: float
    herald_nm: float
    herald_fwhm_nm: float
    pump_fwhm_nm: float
    detectors: Mapping[str, DetectorModel]
    scheme: str  # a key of `detect.SCHEMES`
    delays_um: Tuple[float, ...]
    pulses_per_point: int = 100_000
    seed: int = 0
    pulse_rate_hz: float = 7.6e7  # mode-locked Ti-Sapphire repetition rate
    collection_efficiency: float = 1.0
    polarization_angle_rad: float = 0.0
    spectral_mismatch: float = 0.0
    max_pairs: int = 3
    small_eta: bool = False

    def __post_init__(self):
        # stored as declared, also when the grid comes as an array
        object.__setattr__(self, "pair_probabilities",
                           tuple(self.pair_probabilities))
        object.__setattr__(self, "delays_um", tuple(map(float, self.delays_um)))
        if len(self.pair_probabilities) != 2:
            raise ValueError("'sources' must be a list of two entries")
        for i, p in enumerate(self.pair_probabilities):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"sources[{i}]: pair probability must lie "
                                 "in [0, 1)")
        for name, what in _FILTER_VALUES:
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"filters: {what} must be positive and "
                                 "finite")
        if self.scheme not in SCHEMES:
            raise ValueError("config: scheme kind must be "
                             + " or ".join(map(repr, SCHEMES)))
        if len(self.delays_um) == 0:
            raise ValueError("config: delay grid must be non-empty")
        if any(b <= a for a, b in zip(self.delays_um, self.delays_um[1:])):
            raise ValueError("config: delay grid must be strictly increasing")
        if set(self.detectors) != set(ALL_ROLES):
            raise ValueError("config: detectors must be keyed by exactly the "
                             "roles " + ", ".join(ALL_ROLES))
        # the MC's binomial draw takes the pulse count as an int64
        if not 1 <= self.pulses_per_point <= 2 ** 63 - 1:
            raise ValueError("config: pulses_per_point must lie in "
                             "[1, 2**63 - 1]")
        if not 0.0 < self.collection_efficiency <= 1.0:
            raise ValueError("config: collection_efficiency must lie in "
                             "(0, 1]")
        if not 1 <= self.max_pairs <= MAX_PAIRS_LIMIT:
            raise ValueError(f"config: max_pairs must lie in "
                             f"[1, {MAX_PAIRS_LIMIT}]")
        if not 0.0 < self.pulse_rate_hz < math.inf:
            raise ValueError("config: pulse_rate_hz must be positive and "
                             "finite")
        if not math.isfinite(self.polarization_angle_rad):
            raise ValueError("config: polarization_angle_rad must be finite")
        if not 0.0 <= self.spectral_mismatch <= 1.0:
            raise ValueError("config: spectral_mismatch must lie in [0, 1]")
        try:  # a filter width too small or too large for a float dip
            optics.dip_variance(self.coherence_length_um())
        except ArithmeticError as exc:
            raise ValueError("config: filter widths give a dip width out of "
                             "the float range") from exc
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from exc

    def effective_detectors(self) -> Dict[str, DetectorModel]:
        """Detector models with collection losses folded into eta."""
        return {role: DetectorModel(det.eta * self.collection_efficiency,
                                    det.dark_prob)
                for role, det in self.detectors.items()}

    def coherence_length_um(self) -> float:
        """Dip-setting coherence length for the configured scheme.

        Five-fold post-selection heralds through the 1550 nm filters,
        narrowing the effective signal bandwidth and widening the dip.
        """
        fwhm_nm = self.signal_fwhm_nm
        if self.scheme == "fivefold":
            fwhm_nm = optics.heralded_bandwidth(
                self.signal_nm, fwhm_nm, self.herald_nm, self.herald_fwhm_nm)
        return optics.coherence_length(self.signal_nm, fwhm_nm)

    def overlaps_sq(self) -> np.ndarray:
        """Overlap |m|^2 at every delay point of the grid."""
        return optics.overlap_sq(self.delays_um, self.coherence_length_um(),
                                 self.polarization_angle_rad,
                                 self.spectral_mismatch)

    def digest(self) -> str:
        """Stable content hash of every field of the configuration."""
        text = json.dumps(vars(self), sort_keys=True, default=vars,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class DipCurve(Record):
    """Sampled (delay, rate, error) points."""

    delays_um: Tuple[float, ...]
    rates_hz: Tuple[float, ...]
    errors_hz: Tuple[float, ...]

    def __post_init__(self):
        if not (len(self.delays_um) == len(self.rates_hz) == len(self.errors_hz)):
            raise ValueError("curve arrays must have equal lengths")
        if not all(map(math.isfinite, self.delays_um)):
            raise ValueError("delays must be finite")
        if not (all(map(math.isfinite, self.rates_hz))
                and all(map(math.isfinite, self.errors_hz))
                and min(self.rates_hz, default=0.0) >= 0.0
                and min(self.errors_hz, default=0.0) >= 0.0):
            raise ValueError("rates and errors must be finite and "
                             "non-negative")


def analytic_visibility_threefold() -> float:
    """Ideal two-pair dip visibility without post-selection."""
    return 1.0 / 3.0


def analytic_visibility_fivefold_max(p: float) -> float:
    """Post-selected visibility ceiling (1+8P)/(1+12P) from triple-pair
    spurious coincidences: the three-pair truncation of
    `analytic_visibility_fivefold_untruncated`, exact for that truncation
    at every 0 <= P < 1."""
    if not 0.0 <= p < 1.0:
        raise ValueError("pair probability outside [0, 1)")
    return (1.0 + 8.0 * p) / (1.0 + 12.0 * p)


def analytic_visibility_fivefold_untruncated(p: float) -> float:
    """Post-selected fivefold visibility of the eta -> 0 model with every
    pair number kept, (1 + 4m + 4m^2) / (1 + 8m + 10m^2) with
    m = P / (1 - P) the mean pair number; valid for 0 <= P < 1. At
    overlap x the curve is linear in x and the visibility is x times
    this.

    Each click weighs n eta, and a 50/50 splitter fed n1 and n2 photons
    of overlap x gives <n_c n_d> = (N (N - 1) - 2 x n1 n2) / 4 with
    N = n1 + n2; the heralds weigh n1 n2, and the geometric moments
    E n = m, E n^2 = m (1 + 2m) and E n^3 = m (1 + 6m + 6m^2) give the
    ratio. `analytic_visibility_fivefold_max` is this model truncated at
    three pairs, over the same range of P.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("pair probability outside [0, 1)")
    m = p / (1.0 - p)
    return (1.0 + 4.0 * m + 4.0 * m * m) / (1.0 + 8.0 * m + 10.0 * m * m)


def _pair_configs(cfg: ExperimentConfig) -> List[Tuple[int, int, float]]:
    """Truncated (n1, n2) configurations with renormalized probabilities."""
    p1, p2 = cfg.pair_probabilities
    raw = []
    for n1 in range(cfg.max_pairs + 1):
        for n2 in range(cfg.max_pairs + 1 - n1):
            p = (pdc.pair_number_distribution(p1, n1)
                 * pdc.pair_number_distribution(p2, n2))
            raw.append((n1, n2, p))
    z = sum(p for _, _, p in raw)
    return [(n1, n2, p / z) for n1, n2, p in raw]


def _click_weights(cfg: ExperimentConfig) -> List[List[float]]:
    """Click weight of 0..max_pairs photons per detector role, in
    `detect.ALL_ROLES` order; a coincidence multiplies one per role.

    Finite-eta mode takes threshold click probabilities. In small-eta
    mode each click is weighted n * eta (the eta -> 0 limit used for the
    idealized visibility benchmarks); dark counts are ignored there. A
    role outside the scheme weighs 1.
    """
    detectors = cfg.effective_detectors()
    photons = range(cfg.max_pairs + 1)
    weights = []
    for role in ALL_ROLES:
        if role not in SCHEMES[cfg.scheme]:
            weights.append([1.0] * len(photons))
        elif cfg.small_eta:
            weights.append([n * detectors[role].eta for n in photons])
        else:
            weights.append([detect.click_probability(n, detectors[role])
                            for n in photons])
    return weights


def _coincidence_probs(cfg: ExperimentConfig) -> np.ndarray:
    """Per-pulse coincidence probability p(delay) at every grid point."""
    w_c, w_d, w_h1, w_h2 = _click_weights(cfg)
    # output-c photon-number distribution of every two-mode split
    # |na, nb> a scan can need, indexed by kc
    splits = {(na, nb): [abs(a) ** 2 for a in
                         fock.beamsplitter_amplitudes(na, nb)]
              for na in range(cfg.max_pairs + 1)
              for nb in range(cfg.max_pairs + 1 - na)}
    coeffs: Dict[Tuple[int, int], float] = defaultdict(float)
    for n1, n2, p in _pair_configs(cfg):
        heralded = p * w_h1[n1] * w_h2[n2]
        if heralded == 0.0:
            continue
        for k in range(n2 + 1):
            coeffs[n2, k] += heralded * sum(
                q_m * q_o * w_c[j + o] * w_d[n1 + n2 - j - o]
                for j, q_m in enumerate(splits[n1, k])
                for o, q_o in enumerate(splits[0, n2 - k]))
    x = cfg.overlaps_sq()
    total = np.zeros_like(x)
    for (n2, k), c in coeffs.items():
        total += c * math.comb(n2, k) * x ** k * (1.0 - x) ** (n2 - k)
    return total


def dip_curve_analytic(cfg: ExperimentConfig) -> DipCurve:
    """Closed-form expected coincidence rate at every delay point."""
    rates = cfg.pulse_rate_hz * _coincidence_probs(cfg)
    return DipCurve(delays_um=cfg.delays_um,
                    rates_hz=tuple(rates.tolist()),
                    errors_hz=(0.0,) * len(cfg.delays_um))


def dip_curve_mc(cfg: ExperimentConfig) -> DipCurve:
    """Monte Carlo delay scan: one Binomial(N, p(delay)) draw of the
    coincidence count per point, every point from one `default_rng(seed)`
    stream, so the same seed gives the same curve."""
    if cfg.small_eta:
        raise ValueError("Monte Carlo mode requires finite efficiencies")
    # an integer only: default_rng(None) would seed from OS entropy; a
    # negative seed is refused here too, both before the engine runs
    rng = np.random.default_rng(operator.index(cfg.seed))
    n_pulses = cfg.pulses_per_point
    # only rounding of the truncated sum takes p above 1
    counts = rng.binomial(n_pulses, np.minimum(_coincidence_probs(cfg), 1.0))
    # Python ints, so k / N is rounded once
    p_hats = [k / n_pulses for k in counts.tolist()]
    return DipCurve(
        delays_um=cfg.delays_um,
        rates_hz=tuple(p * cfg.pulse_rate_hz for p in p_hats),
        errors_hz=tuple(math.sqrt(p * (1.0 - p) / n_pulses)
                        * cfg.pulse_rate_hz for p in p_hats))


def accidental_floor_hz(cfg: ExperimentConfig) -> float:
    """Delay-independent accidental rate: scheme coincidences with at
    least one dark click, the detectors taken as independent. The
    signal-only singles s are taken at overlap 0, where each photon is
    thinned on its own: a dark-free detector of efficiency eta that can
    receive n photons, each with probability f, clicks with probability
    1 - (1 - f eta)^n. (n, f) is (n1 + n2, 1/2) for c and d, and (n1, 1)
    and (n2, 1) for the heralds. The floor is prod(1 - (1 - s)(1 - dark))
    minus prod(s) over the scheme's roles."""
    if cfg.small_eta:
        return 0.0
    detectors = cfg.effective_detectors()
    singles = dict.fromkeys(SCHEMES[cfg.scheme], 0.0)
    for n1, n2, p in _pair_configs(cfg):
        arrivals = ((n1 + n2, 0.5), (n1 + n2, 0.5), (n1, 1.0), (n2, 1.0))
        for role, (n, f) in zip(ALL_ROLES, arrivals):
            if role in singles:
                eta = detectors[role].eta
                singles[role] += p * (1.0 - (1.0 - f * eta) ** n)
    full = signal_only = 1.0
    for role, s in singles.items():
        d = detectors[role].dark_prob
        # d == 0 short-circuit keeps the dark-free floor exactly zero
        full *= s if d == 0.0 else 1.0 - (1.0 - s) * (1.0 - d)
        signal_only *= s
    return max(0.0, full - signal_only) * cfg.pulse_rate_hz
