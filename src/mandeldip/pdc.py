"""Pulsed parametric-down-conversion source statistics.

A single pulsed PDC source emits n photon pairs per pulse with the
thermal (geometric) law p(n) = (1 - P) P^n, where the pair probability
P is the geometric ratio that the squeezing sets. The two sources are
independent, and the heralds record (n1, n2) in every pulse, so pair
configurations never interfere: a pulse is the mixture of the
fixed-(n1, n2) states with weights p(n1) p(n2).
"""

from __future__ import annotations


def pair_number_distribution(P: float, n: int) -> float:
    """Probability of creating exactly n pairs in one pulse of a source
    of pair probability P; `runner.ExperimentConfig` checks that P lies
    in [0, 1)."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    return (1.0 - P) * P ** n
