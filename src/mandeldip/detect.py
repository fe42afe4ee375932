"""Threshold-detector models and coincidence logic.

Detectors are click/no-click: with n photons arriving, the click
probability is 1 - (1-eta)^n * (1-dark), which reduces to 2*eta - eta^2
for two photons and no dark counts. Gating is modeled logically: a
coincidence scheme names the detectors that must all click on the same
laser-clock gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

GE_1310 = "Ge-1310"
INGAAS_1310 = "InGaAs-1310"
INGAAS_1550_1 = "InGaAs-1550-1"
INGAAS_1550_2 = "InGaAs-1550-2"

ALL_ROLES = (GE_1310, INGAAS_1310, INGAAS_1550_1, INGAAS_1550_2)


@dataclass(frozen=True)
class DetectorModel:
    """Quantum efficiency and per-gate dark-count probability."""

    name: str
    eta: float
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark probability must lie in [0, 1)")


@dataclass(frozen=True)
class CoincidenceScheme:
    """3-fold (two 1310 detectors + clock) or 5-fold (all four + clock).

    The laser clock is implicit: every gate is clock-aligned.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("threefold", "fivefold"):
            raise ValueError("scheme kind must be 'threefold' or 'fivefold'")

    @property
    def roles(self) -> Tuple[str, ...]:
        if self.kind == "threefold":
            return (GE_1310, INGAAS_1310)
        return ALL_ROLES


def click_probability(n: int, det: DetectorModel) -> float:
    """Probability that a threshold detector clicks on a gate with n photons."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 1.0 - (1.0 - det.eta) ** n * (1.0 - det.dark_prob)


def accidental_rate(scheme: CoincidenceScheme,
                    detectors: Mapping[str, DetectorModel],
                    singles: Mapping[str, float]) -> float:
    """Per-gate probability of a coincidence involving a dark count.

    `singles` are the per-gate signal-only click probabilities of each
    detector. The estimate treats detectors as independent: it is the
    probability that all scheme detectors click minus the probability
    that all click on signal alone, i.e. coincidences where at least one
    click is a dark count.
    """
    full = 1.0
    signal_only = 1.0
    for role in scheme.roles:
        s = singles[role]
        if s < 0.0 or s > 1.0:
            raise ValueError(f"singles probability for {role!r} out of [0, 1]")
        d = detectors[role].dark_prob
        # d == 0 short-circuit keeps the dark-free case exactly zero
        full *= s if d == 0.0 else 1.0 - (1.0 - s) * (1.0 - d)
        signal_only *= s
    return max(0.0, full - signal_only)
