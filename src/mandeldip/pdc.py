"""Pulsed parametric-down-conversion source statistics.

A single pulsed PDC source emits n photon pairs per pulse with the
thermal (geometric) law p(n) = (1 - lambda) * lambda^n where
lambda = tanh^2(zeta) and zeta is the squeezing parameter. The two
sources are independent, and the heralds record (n1, n2) in every
pulse, so pair configurations never interfere: a pulse is the mixture
of the fixed-(n1, n2) states with weights p(n1) p(n2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SourceParams:
    """Squeezing parameter and derived per-pulse pair statistics."""

    zeta: float

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError("zeta must be non-negative")

    @classmethod
    def from_pair_probability(cls, p: float) -> "SourceParams":
        if not 0.0 <= p < 1.0:
            raise ValueError("pair probability must lie in [0, 1)")
        return cls(zeta=math.atanh(math.sqrt(p)))

    @property
    def lam(self) -> float:
        """Per-pair probability ratio tanh^2(zeta) of the geometric law."""
        return math.tanh(self.zeta) ** 2


def pair_number_distribution(params: SourceParams, n: int) -> float:
    """Probability of creating exactly n pairs in one pulse."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    lam = params.lam
    return (1.0 - lam) * lam ** n


def sample_pair_count_arrays(s1: SourceParams, s2: SourceParams, size: int,
                             rng: np.random.Generator):
    """Per-pulse pair counts of `size` pulses; geometric in each source."""
    def draw(lam):
        if lam == 0.0:
            return np.zeros(size, dtype=np.int64)
        # numpy's geometric counts trials up to the first success.
        return rng.geometric(1.0 - lam, size=size).astype(np.int64) - 1

    return draw(s1.lam), draw(s2.lam)
