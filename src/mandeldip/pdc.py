"""Pulsed parametric-down-conversion source statistics.

A single pulsed PDC source emits n photon pairs per pulse with the
thermal (geometric) law p(n) = (1 - lambda) * lambda^n where
lambda = tanh^2(zeta) and zeta is the squeezing parameter. The two
sources are independent, and the heralds record (n1, n2) in every
pulse, so pair configurations never interfere: a pulse is the mixture
of the fixed-(n1, n2) states with weights p(n1) p(n2).

Each source's 1310 nm photon enters a beam-splitter input (source 1 ->
a, source 2 -> b) while its 1550 nm twin goes to the source's dedicated
herald channel. The temporal sublabel of the source-2 photons is set by
the distinguishability overlap amplitude supplied by the optics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, optics
from .fock import Mode, ModeRegistry, PureState


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

    @property
    def pair_probability(self) -> float:
        """Probability P of one pair per pulse; defined as lambda."""
        return self.lam


def pair_number_distribution(params: SourceParams, n: int) -> float:
    """Probability of creating exactly n pairs in one pulse."""
    if n < 0:
        raise ValueError("pair number must be non-negative")
    lam = params.lam
    return (1.0 - lam) * lam ** n


def pair_configuration_state(registry: ModeRegistry, n1: int, n2: int,
                             overlap: complex = 1.0) -> PureState:
    """Normalized Fock state for a fixed (n1, n2) pair configuration.

    Source-1 photons sit in a(matched); each source-2 photon occupies the
    single wave packet m*b(matched) + sqrt(1-|m|^2)*b(orthogonal) where
    m is the overlap amplitude. Heralds track the pair numbers exactly.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("pair numbers must be non-negative")
    m, ortho = optics.decompose_modes(overlap)
    state = PureState.vacuum(registry)
    if n1 > 0:
        state = fock.apply_creation(state, Mode("a", "matched", "H"), n1)
        state = fock.apply_creation(state, Mode("herald1", "matched", "H"), n1)
    if n2 > 0:
        state = fock.apply_superposed_creation(
            state,
            [(Mode("b", "matched", "H"), m),
             (Mode("b", "orthogonal", "H"), ortho)],
            n2)
        state = fock.apply_creation(state, Mode("herald2", "matched", "H"), n2)
    return state.normalized()


def sample_pair_count_arrays(s1: SourceParams, s2: SourceParams, size: int,
                             rng: np.random.Generator):
    """Per-pulse pair counts of `size` pulses; geometric in each source."""
    def draw(lam):
        if lam == 0.0:
            return np.zeros(size, dtype=np.int64)
        # numpy's geometric counts trials up to the first success.
        return rng.geometric(1.0 - lam, size=size).astype(np.int64) - 1

    return draw(s1.lam), draw(s2.lam)
