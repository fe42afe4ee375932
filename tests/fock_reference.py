"""Exact references the engine is tested against; not part of the package.

The full multimode bosonic Fock-state algebra: sparse complex
superpositions of occupation-number basis vectors over a fixed mode
registry. Each mode carries a spatial label (beam-splitter inputs a/b,
outputs c/d, or herald channels), a temporal sublabel (matched /
orthogonal wave packet) and a polarization sublabel. The 50-50 beam
splitter acts block-diagonally on every temporal and polarization
sublabel pair, with the convention of `mandeldip.fock`, whose
`beamsplitter_amplitudes` it applies to each sublabel. All operations
are pure functions; states are never mutated in place.

`pair_configuration_state` builds one (n1, n2) pulse. Source 1's 1310 nm
photons enter input a, source 2's input b, their 1550 nm twins the
herald channels, and each source-2 photon is m * b(matched) +
sqrt(1 - |m|^2) * b(orthogonal) for overlap amplitude m (`decompose_modes`).
`pointwise_probs` runs the whole pipeline per delay point, and
`sample_pair_count_arrays` draws the pair counts of every pulse.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from mandeldip import detect, pdc
from mandeldip.fock import beamsplitter_amplitudes

SPATIAL_LABELS = ("a", "b", "c", "d", "herald1", "herald2")
TEMPORAL_LABELS = ("matched", "orthogonal")
POLARIZATION_LABELS = ("H", "V")

DEFAULT_N_MAX = 6
PRUNE_THRESHOLD = 1e-15


class TruncationError(RuntimeError):
    """Raised when an operation would exceed the photon-number truncation."""


class Mode(NamedTuple):
    """A single bosonic mode label."""

    spatial: str
    temporal: str = "matched"
    pol: str = "H"


class ModeRegistry:
    """Ordered, immutable collection of mode labels.

    The registry order is fixed for the lifetime of a computation and
    defines the occupation-tuple layout.
    """

    def __init__(self, modes: Iterable[Mode | Tuple[str, ...]],
                 n_max: int = DEFAULT_N_MAX):
        modes = tuple(Mode(*m) for m in modes)
        if len(set(modes)) != len(modes):
            raise ValueError("mode labels must be unique")
        for m in modes:
            if m.spatial not in SPATIAL_LABELS:
                raise ValueError(f"unknown spatial label {m.spatial!r}")
            if m.temporal not in TEMPORAL_LABELS:
                raise ValueError(f"unknown temporal label {m.temporal!r}")
            if m.pol not in POLARIZATION_LABELS:
                raise ValueError(f"unknown polarization label {m.pol!r}")
        if n_max < 1:
            raise ValueError("n_max must be positive")
        self._modes = modes
        self._index = {m: i for i, m in enumerate(modes)}
        self.n_max = int(n_max)

    def index(self, mode: Mode | Tuple[str, ...]) -> int:
        return self._index[Mode(*mode)]

    def __contains__(self, mode) -> bool:
        try:
            return Mode(*mode) in self._index
        except TypeError:
            return False

    def __len__(self) -> int:
        return len(self._modes)

    def __iter__(self):
        return iter(self._modes)


def standard_registry(n_max: int = DEFAULT_N_MAX) -> ModeRegistry:
    """Registry covering the two-source experiment.

    Beam-splitter inputs/outputs get both temporal sublabels; the herald
    channels only ever hold the matched wave packet.
    """
    modes = []
    for spatial in ("a", "b", "c", "d"):
        for temporal in TEMPORAL_LABELS:
            modes.append(Mode(spatial, temporal, "H"))
    modes.append(Mode("herald1", "matched", "H"))
    modes.append(Mode("herald2", "matched", "H"))
    return ModeRegistry(modes, n_max=n_max)


class PureState:
    """Sparse superposition of occupation-number basis vectors."""

    def __init__(self, registry: ModeRegistry,
                 terms: Dict[Tuple[int, ...], complex]):
        self.registry = registry
        cleaned: Dict[Tuple[int, ...], complex] = {}
        for occ, amp in terms.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != len(registry):
                raise ValueError("occupation length does not match registry")
            if any(n < 0 for n in occ):
                raise ValueError("occupations must be non-negative")
            if sum(occ) > registry.n_max:
                raise TruncationError(
                    f"total photon number {sum(occ)} exceeds N_max={registry.n_max}")
            if abs(amp) > PRUNE_THRESHOLD:
                cleaned[occ] = complex(amp)
        self.terms = cleaned

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "PureState":
        return cls(registry, {(0,) * len(registry): 1.0 + 0.0j})

    @classmethod
    def basis(cls, registry: ModeRegistry,
              occupations: Dict[Mode | Tuple[str, ...], int]) -> "PureState":
        occ = [0] * len(registry)
        for mode, n in occupations.items():
            occ[registry.index(mode)] = int(n)
        return cls(registry, {tuple(occ): 1.0 + 0.0j})

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(int(n) for n in occ), 0.0 + 0.0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState(self.registry,
                         {occ: amp / n for occ, amp in self.terms.items()})


def apply_creation(state: PureState, mode: Mode | Tuple[str, ...],
                   power: int = 1) -> PureState:
    """Apply (a_dag)^power on `mode`. Result is not normalized.

    Each basis term gains the ladder factor
    sqrt((n+1)(n+2)...(n+power)). Exceeding the registry truncation is a
    hard error, never a silent clamp.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    idx = state.registry.index(mode)
    n_max = state.registry.n_max
    new_terms: Dict[Tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        if sum(occ) + power > n_max:
            raise TruncationError(
                f"creation would put {sum(occ) + power} photons in a "
                f"registry truncated at N_max={n_max}")
        n = occ[idx]
        factor = 1.0
        for k in range(1, power + 1):
            factor *= n + k
        occ2 = occ[:idx] + (n + power,) + occ[idx + 1:]
        new_terms[occ2] = new_terms.get(occ2, 0.0) + amp * math.sqrt(factor)
    return PureState(state.registry, new_terms)


def apply_superposed_creation(state: PureState,
                              components: Sequence[Tuple[Mode | Tuple[str, ...], complex]],
                              power: int = 1) -> PureState:
    """Apply (sum_k coeff_k a_dag_k)^power for commuting modes.

    Used to place a photon (or several stimulated-emission copies of the
    same wave packet) in a superposition of temporal sublabels.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    result = state
    for _ in range(power):
        acc: Dict[Tuple[int, ...], complex] = defaultdict(complex)
        for mode, coeff in components:
            if coeff == 0:
                continue
            part = apply_creation(result, mode, 1)
            for occ, amp in part.terms.items():
                acc[occ] += coeff * amp
        result = PureState(state.registry, dict(acc))
    return result


def apply_beamsplitter(state: PureState) -> PureState:
    """50-50 beam splitter mapping inputs a, b onto outputs c, d,
    identically for every temporal and polarization sublabel.

    Preconditions: the state has no photons in c or d.
    Unitary: the output norm equals the input norm.
    """
    reg = state.registry
    new_terms: Dict[Tuple[int, ...], complex] = defaultdict(complex)
    for occ, amp in state.terms.items():
        sublabels = []
        base = list(occ)
        for i, (mode, n) in enumerate(zip(reg, occ)):
            if mode.spatial in ("c", "d") and n > 0:
                raise ValueError(
                    f"photons already present in output mode {mode}")
            if mode.spatial in ("a", "b") and n > 0:
                sub = (mode.temporal, mode.pol)
                if sub not in sublabels:
                    sublabels.append(sub)
                base[i] = 0
        # Expand the input creation-operator polynomial sublabel by
        # sublabel; sublabels never mix.
        partials: Dict[Tuple[int, ...], complex] = {tuple(base): amp}
        for temporal, pol in sublabels:
            na = nb = 0
            if Mode("a", temporal, pol) in reg:
                na = occ[reg.index(Mode("a", temporal, pol))]
            if Mode("b", temporal, pol) in reg:
                nb = occ[reg.index(Mode("b", temporal, pol))]
            c_mode = Mode("c", temporal, pol)
            d_mode = Mode("d", temporal, pol)
            if c_mode not in reg or d_mode not in reg:
                raise ValueError(
                    f"registry lacks output modes for sublabel "
                    f"({temporal}, {pol})")
            ci, di = reg.index(c_mode), reg.index(d_mode)
            kets = beamsplitter_amplitudes(na, nb)
            next_partials: Dict[Tuple[int, ...], complex] = defaultdict(complex)
            for pocc, pamp in partials.items():
                for kc, ket in enumerate(kets):
                    occ2 = list(pocc)
                    occ2[ci] += kc
                    occ2[di] += na + nb - kc
                    next_partials[tuple(occ2)] += pamp * ket
            partials = dict(next_partials)
        for occ2, amp2 in partials.items():
            new_terms[occ2] += amp2
    return PureState(reg, dict(new_terms))


def spatial_grouping(registry: ModeRegistry,
                     spatials: Sequence[str]) -> List[List[Mode]]:
    """Partition helper: one group per spatial label, sublabels merged."""
    return [[m for m in registry if m.spatial == s] for s in spatials]


def mode_probabilities(state: PureState,
                       grouping: Sequence[Sequence[Mode | Tuple[str, ...]]]
                       ) -> Dict[Tuple[int, ...], float]:
    """Photon-count distribution over groups of modes.

    Modes outside the grouping (and all sublabels inside a group) are
    marginalized, modelling detectors that cannot resolve them. The
    state must be normalized.
    """
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    reg = state.registry
    group_indices = [[reg.index(m) for m in group] for group in grouping]
    seen: set = set()
    for idxs in group_indices:
        for i in idxs:
            if i in seen:
                raise ValueError("grouping must be disjoint")
            seen.add(i)
    probs: Dict[Tuple[int, ...], float] = defaultdict(float)
    for occ, amp in state.terms.items():
        pattern = tuple(sum(occ[i] for i in idxs) for idxs in group_indices)
        probs[pattern] += abs(amp) ** 2
    return dict(probs)


def decompose_modes(m: complex) -> tuple[complex, float]:
    """Split the delayed photon into matched/orthogonal amplitudes."""
    if abs(m) > 1.0 + 1e-12:
        raise ValueError("overlap amplitude must satisfy |m| <= 1")
    return complex(m), math.sqrt(max(0.0, 1.0 - abs(m) ** 2))


def pair_configuration_state(registry: ModeRegistry, n1: int, n2: int,
                             overlap: complex = 1.0) -> PureState:
    """Normalized Fock state for a fixed (n1, n2) pair configuration.

    Source-1 photons sit in a(matched); each source-2 photon occupies the
    single wave packet m*b(matched) + sqrt(1-|m|^2)*b(orthogonal) where
    m is the overlap amplitude. Heralds track the pair numbers exactly.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("pair numbers must be non-negative")
    m, ortho = decompose_modes(overlap)
    state = PureState.vacuum(registry)
    if n1 > 0:
        state = apply_creation(state, Mode("a", "matched", "H"), n1)
        state = apply_creation(state, Mode("herald1", "matched", "H"), n1)
    if n2 > 0:
        state = apply_superposed_creation(
            state,
            [(Mode("b", "matched", "H"), m),
             (Mode("b", "orthogonal", "H"), ortho)],
            n2)
        state = apply_creation(state, Mode("herald2", "matched", "H"), n2)
    return state.normalized()


def sample_pair_count_arrays(p1: float, p2: float, size: int,
                             rng: np.random.Generator):
    """Per-pulse pair counts of `size` pulses; geometric in each source,
    of pair probabilities p1 and p2."""
    def draw(lam):
        if lam == 0.0:
            return np.zeros(size, dtype=np.int64)
        # numpy's geometric counts trials up to the first success.
        return rng.geometric(1.0 - lam, size=size).astype(np.int64) - 1

    return draw(p1), draw(p2)


def reference_pair_weights(cfg):
    """(n1, n2, p) for n1 + n2 <= max_pairs: each source's geometric pair
    law, renormalized over the truncation."""
    p1, p2 = cfg.pair_probabilities
    raw = [(n1, n2, pdc.pair_number_distribution(p1, n1)
            * pdc.pair_number_distribution(p2, n2))
           for n1 in range(cfg.max_pairs + 1)
           for n2 in range(cfg.max_pairs + 1 - n1)]
    z = math.fsum(p for _, _, p in raw)
    return [(n1, n2, p / z) for n1, n2, p in raw]


def fock_pattern_distribution(cfg, overlap):
    """Reference: (pattern, probability) over every truncated pair
    configuration, from the full Fock state through the beam splitter."""
    registry = standard_registry(n_max=2 * cfg.max_pairs)
    # one group per detector role, in `detect.ALL_ROLES` order
    grouping = spatial_grouping(registry, ("c", "d", "herald1", "herald2"))
    for n1, n2, p in reference_pair_weights(cfg):
        if p == 0.0:
            continue
        state = pair_configuration_state(registry, n1, n2, overlap)
        out = apply_beamsplitter(state)
        for pattern, q in mode_probabilities(out, grouping).items():
            yield pattern, p * q


def pointwise_probs(cfg):
    """Reference engine: the full pattern distribution at each point's
    own overlap, each pattern weighted by the scheme's detectors (a
    threshold click, or n * eta in small-eta mode) and summed."""
    dets = cfg.effective_detectors()
    weights = [[1.0 if role not in detect.SCHEMES[cfg.scheme]
                else n * dets[role].eta if cfg.small_eta
                else detect.click_probability(n, dets[role])
                for n in range(cfg.max_pairs + 1)]
               for role in detect.ALL_ROLES]
    return [sum(pq * math.prod(w[n] for w, n in zip(weights, pattern))
                for pattern, pq in fock_pattern_distribution(cfg, math.sqrt(x)))
            for x in cfg.overlaps_sq()]
