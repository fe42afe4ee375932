"""Exact multimode bosonic Fock-state algebra.

States are sparse complex superpositions of occupation-number basis
vectors over a fixed mode registry. Each mode carries a spatial label
(beam-splitter inputs a/b, outputs c/d, or herald channels), a temporal
sublabel (matched / orthogonal wave packet) and a polarization sublabel.
The 50-50 beam splitter acts block-diagonally on every temporal and
polarization sublabel pair, with the convention

    a_dag -> (c_dag + i d_dag) / sqrt(2)
    b_dag -> (i c_dag + d_dag) / sqrt(2)

All operations are pure functions; states are never mutated in place.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

SPATIAL_LABELS = ("a", "b", "c", "d", "herald1", "herald2")
TEMPORAL_LABELS = ("matched", "orthogonal")
POLARIZATION_LABELS = ("H", "V")

DEFAULT_N_MAX = 6
PRUNE_THRESHOLD = 1e-15

_SQRT_HALF = 1.0 / math.sqrt(2.0)


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

    @property
    def modes(self) -> Tuple[Mode, ...]:
        return self._modes

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
                 terms: Dict[Tuple[int, ...], complex],
                 prune_threshold: float = PRUNE_THRESHOLD):
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
            if abs(amp) > prune_threshold:
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

    def __repr__(self) -> str:
        return f"PureState({len(self.terms)} terms, norm={self.norm():.6f})"


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


def beamsplitter_amplitudes(na: int, nb: int) -> Dict[Tuple[int, int], complex]:
    """Output amplitudes of the two-mode basis state |na, nb> on the 50-50
    beam splitter: {(kc, kd): <kc, kd| U |na, nb>} with kc + kd = na + nb.

    Expands (a_dag)^na (b_dag)^nb / sqrt(na! nb!) in the output creation
    operators; the ket factor sqrt(kc! kd!) turns each monomial into a
    normalized basis vector. Outputs that interfere away (such as
    |1,1> -> |1,1>) are kept, with amplitude zero up to rounding.
    """
    if na < 0 or nb < 0:
        raise ValueError("photon numbers must be non-negative")
    combos: Dict[Tuple[int, int], complex] = defaultdict(complex)
    pref = _SQRT_HALF ** (na + nb) / math.sqrt(
        math.factorial(na) * math.factorial(nb))
    for j in range(na + 1):
        ca = math.comb(na, j) * (1j) ** (na - j)
        for k in range(nb + 1):
            cb = math.comb(nb, k) * (1j) ** k
            combos[(j + k, na + nb - j - k)] += pref * ca * cb
    return {(kc, kd): coeff * math.sqrt(math.factorial(kc) * math.factorial(kd))
            for (kc, kd), coeff in combos.items()}


def apply_beamsplitter(state: PureState,
                       in_modes: Tuple[str, str] = ("a", "b"),
                       out_modes: Tuple[str, str] = ("c", "d")) -> PureState:
    """50-50 beam splitter mapping the two input spatial labels onto the
    two output spatial labels, identically for every temporal and
    polarization sublabel.

    Preconditions: the state has no photons in the output spatial modes.
    Unitary: the output norm equals the input norm.
    """
    reg = state.registry
    a_lbl, b_lbl = in_modes
    c_lbl, d_lbl = out_modes
    new_terms: Dict[Tuple[int, ...], complex] = defaultdict(complex)
    for occ, amp in state.terms.items():
        sublabels = []
        base = list(occ)
        for i, (mode, n) in enumerate(zip(reg.modes, occ)):
            if mode.spatial in out_modes and n > 0:
                raise ValueError(
                    f"photons already present in output mode {mode}")
            if mode.spatial in in_modes and n > 0:
                sub = (mode.temporal, mode.pol)
                if sub not in sublabels:
                    sublabels.append(sub)
                base[i] = 0
        # Expand the input creation-operator polynomial sublabel by
        # sublabel; sublabels never mix.
        partials: Dict[Tuple[int, ...], complex] = {tuple(base): amp}
        for temporal, pol in sublabels:
            na = nb = 0
            if Mode(a_lbl, temporal, pol) in reg:
                na = occ[reg.index(Mode(a_lbl, temporal, pol))]
            if Mode(b_lbl, temporal, pol) in reg:
                nb = occ[reg.index(Mode(b_lbl, temporal, pol))]
            c_mode = Mode(c_lbl, temporal, pol)
            d_mode = Mode(d_lbl, temporal, pol)
            if c_mode not in reg or d_mode not in reg:
                raise ValueError(
                    f"registry lacks output modes for sublabel "
                    f"({temporal}, {pol})")
            ci, di = reg.index(c_mode), reg.index(d_mode)
            kets = beamsplitter_amplitudes(na, nb)
            next_partials: Dict[Tuple[int, ...], complex] = defaultdict(complex)
            for pocc, pamp in partials.items():
                for (kc, kd), ket in kets.items():
                    occ2 = list(pocc)
                    occ2[ci] += kc
                    occ2[di] += kd
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
