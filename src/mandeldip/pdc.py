"""Pulsed parametric-down-conversion source statistics.

A single pulsed PDC source emits n photon pairs per pulse with the
thermal (geometric) law p(n) = (1 - P) P^n, where the pair probability
P is the geometric ratio that the squeezing sets. The two sources are
independent, and the heralds record (n1, n2) in every pulse, so pair
configurations never interfere: a pulse is the mixture of the
fixed-(n1, n2) states with weights p(n1) p(n2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceParams:
    """Pair probability P of the geometric law, stored as given."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("pair probability must lie in [0, 1)")


def pair_number_distribution(params: SourceParams, n: int) -> float:
    """Probability of creating exactly n pairs in one pulse."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    lam = params.lam
    return (1.0 - lam) * lam ** n
