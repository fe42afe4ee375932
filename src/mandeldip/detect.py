"""Threshold-detector models and coincidence logic.

Detectors are click/no-click: with n photons arriving, the click
probability is 1 - (1-eta)^n * (1-dark), which reduces to 2*eta - eta^2
for two photons and no dark counts. Gating is modeled logically: a
coincidence scheme names the detectors that must all click on the same
laser-clock gate (`SCHEMES`); the clock is implicit, as every gate is
clock-aligned. A detector is known by its role, the key of its entry
in an experiment's `detectors` mapping. `ALL_ROLES` is in the engine's
port order, which its click weights and accidental floor rely on:
output c, output d, herald 1 (source 1's twin), herald 2.
"""

from __future__ import annotations

from dataclasses import dataclass

GE_1310 = "Ge-1310"
INGAAS_1310 = "InGaAs-1310"
INGAAS_1550_1 = "InGaAs-1550-1"
INGAAS_1550_2 = "InGaAs-1550-2"

ALL_ROLES = (GE_1310, INGAAS_1310, INGAAS_1550_1, INGAAS_1550_2)

# Coincidence scheme name -> the roles that must all click: threefold is
# the two 1310 detectors, fivefold all four (each with the clock).
SCHEMES = {"threefold": (GE_1310, INGAAS_1310), "fivefold": ALL_ROLES}


@dataclass(frozen=True)
class DetectorModel:
    """Quantum efficiency and per-gate dark-count probability."""

    eta: float
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark probability must lie in [0, 1)")


def click_probability(n: int, det: DetectorModel) -> float:
    """Probability that a threshold detector clicks on a gate with n photons."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 1.0 - (1.0 - det.eta) ** n * (1.0 - det.dark_prob)

