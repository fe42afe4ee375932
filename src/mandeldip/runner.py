"""Experiment engine: delay scans composed from source, optics, Fock and
detector layers, plus the closed-form visibility benchmarks.

One engine computes the per-pulse coincidence probability p(delay):
enumerate pair configurations (n1, n2) up to the truncation, split each
through the beam splitter, and sum detector click products over the
output photon-count patterns.

The delay enters only through the overlap x = |m(delay)|^2. Each
source-2 photon is m*b(matched) + sqrt(1-x)*b(orthogonal), so the
n2-photon input splits by k, the number of source-2 photons in the
matched wave packet, into |n1, k> on the matched sublabel and
|0, n2 - k> on the orthogonal one, with weight C(n2, k) x^k (1-x)^(n2-k).
The beam splitter never mixes sublabels and conserves the photon number
of each, so terms of different k stay orthogonal, and within one k the
two sublabels split independently by the closed-form two-mode amplitudes
of `fock.beamsplitter_amplitudes`. The heralds stay at (n1, n2). Every
output pattern's probability is therefore the binomial mixture over k of
products of two two-mode splits, and no Fock state is built.

A scan weighs each distinct pattern once by the detectors, sums the
weighted rows into one coefficient c(n2, k), and evaluates
sum c(n2, k) C(n2, k) x^k (1-x)^(n2-k) over the delay grid. Every term is
non-negative, so no rounding can push a perfect post-selected dip below
zero, and the table's cost does not depend on the grid size. The output
pattern is (c, d, herald1, herald2), one photon count per detector role
of `detect.ALL_ROLES`.

The accidental floor needs no table: its singles are taken at overlap 0,
where no photons interfere and each click probability is a closed form
(`signal_singles_probabilities`).

Two execution modes turn p(delay) into `DipCurve`s:

* analytic -- the expected rate, pulse rate times p(delay).
* mc -- a seeded Binomial(N, p(delay)) draw of the coincidence count in
  N pulses. This is exact, not an approximation: pulses are i.i.d., so
  sampling pair counts, output patterns and clicks pulse by pulse gives
  the same count distribution. Every delay point uses its own seeded
  stream, so results are bit-identical regardless of evaluation order.
  A per-pulse path is only needed again for an effect that couples
  pulses, such as detector dead time, afterpulsing or pump drift across
  a scan.

Truncation convention: pair configurations are conditioned on
n1 + n2 <= max_pairs (probabilities renormalized), in both modes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from . import detect, fock, optics, pdc
from .detect import (ALL_ROLES, CoincidenceScheme, DetectorModel, GE_1310,
                     INGAAS_1310, INGAAS_1550_1, INGAAS_1550_2)
from .optics import FilterSpec
from .pdc import SourceParams

DEFAULT_PULSE_RATE_HZ = 7.6e7  # mode-locked Ti-Sapphire repetition rate


def default_detectors() -> Dict[str, DetectorModel]:
    """Detector park: Ge APD at 10%, InGaAs APDs at 30%."""
    return {
        GE_1310: DetectorModel(GE_1310, eta=0.10, dark_prob=5.3e-4),
        INGAAS_1310: DetectorModel(INGAAS_1310, eta=0.30, dark_prob=1e-4),
        INGAAS_1550_1: DetectorModel(INGAAS_1550_1, eta=0.30, dark_prob=1e-4),
        INGAAS_1550_2: DetectorModel(INGAAS_1550_2, eta=0.30, dark_prob=1e-4),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one delay-scan experiment."""

    source1: SourceParams
    source2: SourceParams
    signal_filter: FilterSpec = FilterSpec(1310.0, 10.0)
    herald_filter: FilterSpec = FilterSpec(1550.0, 10.0)
    pump_filter: FilterSpec = FilterSpec(710.0, 4.5)
    detectors: Mapping[str, DetectorModel] = field(default_factory=default_detectors)
    scheme: CoincidenceScheme = CoincidenceScheme("threefold")
    delays_um: Tuple[float, ...] = ()
    pulses_per_point: int = 100_000
    seed: int = 0
    pulse_rate_hz: float = DEFAULT_PULSE_RATE_HZ
    collection_efficiency: float = 1.0
    polarization_angle_rad: float = 0.0
    spectral_mismatch: float = 0.0
    max_pairs: int = 3
    small_eta: bool = False

    def __post_init__(self):
        if len(self.delays_um) == 0:
            raise ValueError("delay grid must be non-empty")
        if any(b <= a for a, b in zip(self.delays_um, self.delays_um[1:])):
            raise ValueError("delay grid must be strictly increasing")
        if self.pulses_per_point < 1:
            raise ValueError("pulses_per_point must be >= 1")
        if not 0.0 < self.collection_efficiency <= 1.0:
            raise ValueError("collection_efficiency must lie in (0, 1]")
        if self.max_pairs < 1:
            raise ValueError("max_pairs must be >= 1")
        if self.pulse_rate_hz <= 0:
            raise ValueError("pulse_rate_hz must be positive")

    def effective_detectors(self) -> Dict[str, DetectorModel]:
        """Detector models with collection losses folded into eta."""
        return {
            role: DetectorModel(det.name,
                                eta=det.eta * self.collection_efficiency,
                                dark_prob=det.dark_prob)
            for role, det in self.detectors.items()
        }

    def coherence_length_um(self) -> float:
        """Dip-setting coherence length for the configured scheme.

        Five-fold post-selection heralds through the 1550 nm filters,
        narrowing the effective signal bandwidth and widening the dip.
        """
        if self.scheme.kind == "fivefold":
            eff = optics.heralded_bandwidth(self.signal_filter,
                                            self.herald_filter,
                                            self.pump_filter)
            return optics.coherence_length(eff)
        return optics.coherence_length(self.signal_filter)

    def overlaps_sq(self) -> np.ndarray:
        """Overlap |m|^2 at every delay point of the grid."""
        return optics.overlap_sq(self.delays_um, self.coherence_length_um(),
                                 self.polarization_angle_rad,
                                 self.spectral_mismatch)

    def digest(self) -> str:
        """Stable content hash of the configuration."""
        payload = {
            "sources": [self.source1.zeta, self.source2.zeta],
            "signal_filter": [self.signal_filter.center_nm, self.signal_filter.fwhm_nm],
            "herald_filter": [self.herald_filter.center_nm, self.herald_filter.fwhm_nm],
            "pump_filter": [self.pump_filter.center_nm, self.pump_filter.fwhm_nm],
            "detectors": {r: [d.eta, d.dark_prob]
                          for r, d in sorted(self.detectors.items())},
            "scheme": self.scheme.kind,
            "delays_um": list(self.delays_um),
            "pulses_per_point": self.pulses_per_point,
            "seed": self.seed,
            "pulse_rate_hz": self.pulse_rate_hz,
            "collection_efficiency": self.collection_efficiency,
            "polarization_angle_rad": self.polarization_angle_rad,
            "spectral_mismatch": self.spectral_mismatch,
            "max_pairs": self.max_pairs,
            "small_eta": self.small_eta,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class DipCurve:
    """Sampled (delay, rate, error) points with provenance metadata."""

    delays_um: Tuple[float, ...]
    rates_hz: Tuple[float, ...]
    errors_hz: Tuple[float, ...]
    scheme: str = "threefold"
    mode: str = "analytic"
    config_digest: str = ""

    def __post_init__(self):
        if not (len(self.delays_um) == len(self.rates_hz) == len(self.errors_hz)):
            raise ValueError("curve arrays must have equal lengths")
        if any(r < 0 for r in self.rates_hz) or any(e < 0 for e in self.errors_hz):
            raise ValueError("rates and errors must be non-negative")

    def __len__(self) -> int:
        return len(self.delays_um)


def analytic_visibility_threefold() -> float:
    """Ideal two-pair dip visibility without post-selection."""
    return 1.0 / 3.0


def analytic_visibility_fivefold_max(p: float) -> float:
    """Post-selected visibility ceiling (1+8P)/(1+12P) from triple-pair
    spurious coincidences; validated for P <= 0.2."""
    if not 0.0 <= p <= 0.2:
        raise ValueError("pair probability outside validated range [0, 0.2]")
    return (1.0 + 8.0 * p) / (1.0 + 12.0 * p)


def _pair_configs(cfg: ExperimentConfig) -> List[Tuple[int, int, float]]:
    """Truncated (n1, n2) configurations with renormalized probabilities."""
    raw = []
    for n1 in range(cfg.max_pairs + 1):
        for n2 in range(cfg.max_pairs + 1 - n1):
            p = (pdc.pair_number_distribution(cfg.source1, n1)
                 * pdc.pair_number_distribution(cfg.source2, n2))
            raw.append((n1, n2, p))
    z = sum(p for _, _, p in raw)
    return [(n1, n2, p / z) for n1, n2, p in raw]


# One pattern-table row: (n2, k, pattern, prob).
Row = Tuple[int, int, Tuple[int, ...], float]


def _pattern_table(cfg: ExperimentConfig) -> List[Row]:
    """(n2, k, pattern, prob) over every truncated pair configuration
    (n1, n2), matched source-2 photon number k and output pattern
    (c, d, herald1, herald2). `prob` leaves out the k-mixture weight
    C(n2, k) x^k (1-x)^(n2-k) (see the module docstring)."""
    # |kc-amplitude|^2 of every two-mode split |na, nb> a scan can need;
    # splits that interfere away are dropped
    splits = {(na, nb): [(kc, abs(a) ** 2) for (kc, _), a
                         in fock.beamsplitter_amplitudes(na, nb).items()
                         if abs(a) > fock.PRUNE_THRESHOLD]
              for na in range(cfg.max_pairs + 1)
              for nb in range(cfg.max_pairs + 1 - na)}
    rows = []
    for n1, n2, p in _pair_configs(cfg):
        if p == 0.0:
            continue
        for k in range(n2 + 1):
            for j, q_matched in splits[n1, k]:
                for o, q_ortho in splits[0, n2 - k]:
                    rows.append((n2, k, (j + o, n1 + n2 - j - o, n1, n2),
                                 p * q_matched * q_ortho))
    return rows


def _coincidence_weight(pattern: Tuple[int, ...], cfg: ExperimentConfig,
                        detectors: Mapping[str, DetectorModel]) -> float:
    """Per-pattern detection weight for the configured scheme.

    Exact mode multiplies threshold click probabilities. In small-eta
    mode each click is weighted n * eta (the eta -> 0 limit used for the
    idealized visibility benchmarks); dark counts are ignored there.
    """
    weight = 1.0
    for role, n in zip(ALL_ROLES, pattern):
        if role not in cfg.scheme.roles:
            continue
        det = detectors[role]
        if cfg.small_eta:
            weight *= n * det.eta
        else:
            weight *= detect.click_probability(n, det)
        if weight == 0.0:
            return 0.0
    return weight


def _coincidence_probs(cfg: ExperimentConfig) -> np.ndarray:
    """Per-pulse coincidence probability p(delay) at every grid point."""
    detectors = cfg.effective_detectors()
    rows = _pattern_table(cfg)
    weights = {pattern: _coincidence_weight(pattern, cfg, detectors)
               for pattern in dict.fromkeys(row[2] for row in rows)}
    coeffs: Dict[Tuple[int, int], float] = defaultdict(float)
    for n2, k, pattern, prob in rows:
        coeffs[n2, k] += prob * weights[pattern]
    x = cfg.overlaps_sq()
    total = np.zeros_like(x)
    for (n2, k), c in coeffs.items():
        total += c * math.comb(n2, k) * x ** k * (1.0 - x) ** (n2 - k)
    return total


def dip_curve_analytic(cfg: ExperimentConfig) -> DipCurve:
    """Closed-form expected coincidence rate at every delay point."""
    rates = cfg.pulse_rate_hz * _coincidence_probs(cfg)
    return DipCurve(delays_um=tuple(cfg.delays_um),
                    rates_hz=tuple(rates.tolist()),
                    errors_hz=(0.0,) * len(cfg.delays_um),
                    scheme=cfg.scheme.kind, mode="analytic",
                    config_digest=cfg.digest())


def _mc_point(cfg: ExperimentConfig, point_index: int,
              p: float) -> Tuple[float, float]:
    """Simulate one delay point of per-pulse probability p; returns
    (rate_hz, error_hz).

    The coincidence count is one draw of Binomial(N, p). Pulses are
    i.i.d., so this is the exact distribution of the per-pulse chain
    (pair counts, output pattern, detector clicks) summed over N pulses,
    at a cost that does not depend on N. Dead time, afterpulsing or pump
    drift across a scan would couple pulses and need a per-pulse path
    again.
    """
    if cfg.small_eta:
        raise ValueError("Monte Carlo mode requires finite efficiencies")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(point_index,))))
    n_pulses = cfg.pulses_per_point
    p_hat = int(rng.binomial(n_pulses, p)) / n_pulses
    rate = p_hat * cfg.pulse_rate_hz
    err = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_pulses) * cfg.pulse_rate_hz
    return rate, err


def dip_curve_mc(cfg: ExperimentConfig) -> DipCurve:
    """Monte Carlo delay scan; deterministic per (seed, point index)."""
    points = [_mc_point(cfg, i, p)
              for i, p in enumerate(_coincidence_probs(cfg).tolist())]
    return DipCurve(delays_um=tuple(cfg.delays_um),
                    rates_hz=tuple(r for r, _ in points),
                    errors_hz=tuple(e for _, e in points),
                    scheme=cfg.scheme.kind, mode="mc",
                    config_digest=cfg.digest())


def signal_singles_probabilities(cfg: ExperimentConfig) -> Dict[str, float]:
    """Per-gate signal-only click probability of each scheme detector,
    evaluated far outside the dip (overlap 0). There each photon is
    thinned on its own: a dark-free detector of efficiency eta that can
    receive n photons, each with probability f, clicks with probability
    1 - (1 - f eta)^n. (n, f) is (n1 + n2, 1/2) for c and d, and (n1, 1)
    and (n2, 1) for the heralds."""
    detectors = cfg.effective_detectors()
    singles = {role: 0.0 for role in cfg.scheme.roles}
    for n1, n2, p in _pair_configs(cfg):
        arrivals = ((n1 + n2, 0.5), (n1 + n2, 0.5), (n1, 1.0), (n2, 1.0))
        for role, (n, f) in zip(ALL_ROLES, arrivals):
            if role in singles:
                eta = detectors[role].eta
                singles[role] += p * (1.0 - (1.0 - f * eta) ** n)
    return singles


def accidental_floor_hz(cfg: ExperimentConfig) -> float:
    """Delay-independent accidental-coincidence rate estimate."""
    if cfg.small_eta:
        return 0.0
    singles = signal_singles_probabilities(cfg)
    per_gate = detect.accidental_rate(cfg.scheme, cfg.effective_detectors(),
                                      singles)
    return per_gate * cfg.pulse_rate_hz
