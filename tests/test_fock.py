import math

import numpy as np
import pytest
import sympy
from sympy import I, Rational, factorial, sqrt

import fock_reference as fock
from fock_reference import Mode, ModeRegistry, PureState

A = Mode("a", "matched", "H")
B = Mode("b", "matched", "H")
B_ORTH = Mode("b", "orthogonal", "H")


def single_sublabel_registry(n_max=6):
    return ModeRegistry([Mode(s, "matched", "H") for s in "abcd"], n_max=n_max)


def bs_oracle(terms):
    """Independent symbolic oracle: expand the output-mode polynomial
    (a -> (c + i d)/sqrt2, b -> (i c + d)/sqrt2) with sympy and read off
    exact ket coefficients."""
    c, d = sympy.symbols("c d", commutative=True)
    a_sub = (c + I * d) / sqrt(2)
    b_sub = (I * c + d) / sqrt(2)
    expr = sympy.Integer(0)
    total = 0
    for (na, nb), amp in terms.items():
        expr += amp / sqrt(factorial(na) * factorial(nb)) * a_sub ** na * b_sub ** nb
        total = max(total, na + nb)
    expr = sympy.expand(expr)
    out = {}
    for kc in range(total + 1):
        for kd in range(total + 1 - kc):
            coeff = expr.coeff(c, kc).coeff(d, kd).subs({c: 0, d: 0})
            coeff = sympy.expand(coeff * sqrt(factorial(kc) * factorial(kd)))
            if coeff != 0:
                out[(kc, kd)] = complex(coeff)
    return out


def engine_cd_amplitudes(state):
    reg = state.registry
    ci, di = reg.index(Mode("c", "matched", "H")), reg.index(Mode("d", "matched", "H"))
    return {(occ[ci], occ[di]): amp for occ, amp in state.terms.items()}


def test_registry_rejects_duplicates_and_bad_labels():
    with pytest.raises(ValueError):
        ModeRegistry([A, A])
    with pytest.raises(ValueError):
        ModeRegistry([Mode("x", "matched", "H")])


def test_creation_on_vacuum():
    reg = single_sublabel_registry()
    st = fock.apply_creation(PureState.vacuum(reg), A, 1)
    assert st.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)


def test_creation_ladder_factor():
    reg = single_sublabel_registry()
    one = fock.apply_creation(PureState.vacuum(reg), A, 1)
    two = fock.apply_creation(one, A, 1)
    assert two.amplitude((2, 0, 0, 0)) == pytest.approx(math.sqrt(2.0))


def test_creation_composition_matches_power():
    # oracle: (a_dag)^2 |n> = sqrt((n+1)(n+2)) |n+2>, expanded symbolically
    reg = single_sublabel_registry()
    st = fock.apply_creation(PureState.vacuum(reg), A, 1)
    twice = fock.apply_creation(fock.apply_creation(st, A, 1), A, 1).normalized()
    power = fock.apply_creation(st, A, 2).normalized()
    assert twice.terms.keys() == power.terms.keys()
    for occ in twice.terms:
        assert twice.terms[occ] == pytest.approx(power.terms[occ], abs=1e-14)
    exact = complex(sqrt(factorial(3) / factorial(1)))
    unnorm = fock.apply_creation(st, A, 2)
    assert unnorm.amplitude((3, 0, 0, 0)) == pytest.approx(exact, abs=1e-14)


def test_truncation_is_a_hard_error():
    reg = single_sublabel_registry(n_max=2)
    st = fock.apply_creation(PureState.vacuum(reg), A, 2)
    with pytest.raises(fock.TruncationError):
        fock.apply_creation(st, A, 1)


def test_hom_null():
    reg = fock.standard_registry()
    st = PureState.basis(reg, {A: 1, B: 1})
    out = fock.apply_beamsplitter(st)
    probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
    assert probs.get((1, 1), 0.0) < 1e-12
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    # amplitudes are i/sqrt(2) on |2,0> and |0,2>
    amps = engine_cd_amplitudes(out)
    assert amps[(2, 0)] == pytest.approx(1j / math.sqrt(2), abs=1e-14)
    assert amps[(0, 2)] == pytest.approx(1j / math.sqrt(2), abs=1e-14)


def test_vacuum_is_invariant():
    reg = fock.standard_registry()
    vac = PureState.vacuum(reg)
    out = fock.apply_beamsplitter(vac)
    assert out.amplitude((0,) * len(reg)) == pytest.approx(1.0)
    assert len(out.terms) == 1


def test_two_one_input_against_symbolic_oracle():
    reg = single_sublabel_registry()
    st = fock.apply_creation(PureState.vacuum(reg), A, 2)
    st = fock.apply_creation(st, B, 1).normalized()
    out = fock.apply_beamsplitter(st)
    expected = bs_oracle({(2, 1): sympy.Integer(1)})
    amps = engine_cd_amplitudes(out)
    assert set(amps) == set(expected)
    for key, val in expected.items():
        assert amps[key] == pytest.approx(val, abs=1e-14)
    # (1/4)(i sqrt6, -sqrt2, i sqrt2, -sqrt6) layout
    assert expected[(3, 0)] == pytest.approx(1j * math.sqrt(6) / 4)
    assert expected[(2, 1)] == pytest.approx(-math.sqrt(2) / 4)
    assert expected[(1, 2)] == pytest.approx(1j * math.sqrt(2) / 4)
    assert expected[(0, 3)] == pytest.approx(-math.sqrt(6) / 4)


def test_two_one_probabilities():
    reg = single_sublabel_registry()
    st = fock.apply_creation(PureState.vacuum(reg), A, 2)
    st = fock.apply_creation(st, B, 1).normalized()
    out = fock.apply_beamsplitter(st)
    probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
    assert probs[(3, 0)] == pytest.approx(3 / 8, abs=1e-12)
    assert probs[(2, 1)] == pytest.approx(1 / 8, abs=1e-12)
    assert probs[(1, 2)] == pytest.approx(1 / 8, abs=1e-12)
    assert probs[(0, 3)] == pytest.approx(3 / 8, abs=1e-12)
    both = probs[(2, 1)] + probs[(1, 2)]
    assert both == pytest.approx(0.25, abs=1e-12)


def test_random_small_states_match_oracle():
    rng = np.random.default_rng(1234)
    reg = single_sublabel_registry()
    basis = [(na, nb) for na in range(4) for nb in range(4 - na)]
    for _ in range(25):
        # rational amplitudes keep the oracle exact
        terms = {}
        for occ in basis:
            num = int(rng.integers(-3, 4))
            if num:
                terms[occ] = Rational(num, int(rng.integers(1, 5)))
        if not terms:
            continue
        st_terms = {(na, nb, 0, 0): complex(v) for (na, nb), v in terms.items()}
        st = PureState(reg, st_terms)
        out = fock.apply_beamsplitter(st)
        expected = bs_oracle(terms)
        amps = engine_cd_amplitudes(out)
        assert set(amps) == set(expected)
        for key, val in expected.items():
            assert amps[key] == pytest.approx(val, abs=1e-13)


def test_unitarity_on_random_states():
    rng = np.random.default_rng(99)
    reg = fock.standard_registry()
    inputs = [m for m in reg if m.spatial in ("a", "b")]
    occs = []
    for na in range(3):
        for nb in range(3):
            for no in range(2):
                if na + nb + no <= reg.n_max:
                    occ = [0] * len(reg)
                    occ[reg.index(A)] = na
                    occ[reg.index(B)] = nb
                    occ[reg.index(B_ORTH)] = no
                    occs.append(tuple(occ))
    for _ in range(1000):
        amp = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
        st = PureState(reg, dict(zip(occs, amp))).normalized()
        out = fock.apply_beamsplitter(st)
        assert abs(out.norm() - st.norm()) < 1e-12
    assert len(inputs) == 4


def test_distinguishable_photons_split_half_the_time():
    reg = fock.standard_registry()
    st = PureState.basis(reg, {A: 1, B_ORTH: 1})
    out = fock.apply_beamsplitter(st)
    probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
    assert probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_beamsplitter_rejects_occupied_outputs():
    reg = fock.standard_registry()
    st = PureState.basis(reg, {Mode("c", "matched", "H"): 1, A: 1})
    with pytest.raises(ValueError):
        fock.apply_beamsplitter(st)


def test_sublabels_pass_through_independently():
    reg = fock.standard_registry()
    st = PureState.basis(reg, {Mode("c", "matched", "H"): 1,
                               Mode("d", "orthogonal", "H"): 1})
    probs = fock.mode_probabilities(st, fock.spatial_grouping(reg, ("c", "d")))
    assert probs == {(1, 1): 1.0}


def test_mode_probabilities_requires_normalized_state():
    reg = fock.standard_registry()
    st = PureState(reg, {(0,) * len(reg): 2.0})
    with pytest.raises(ValueError):
        fock.mode_probabilities(st, fock.spatial_grouping(reg, ("c", "d")))


def test_superposed_creation_binomial():
    reg = fock.standard_registry()
    m, q = 0.6, 0.8
    st = fock.apply_superposed_creation(
        PureState.vacuum(reg), [(B, m), (B_ORTH, q)], 2).normalized()
    bi, oi = reg.index(B), reg.index(B_ORTH)
    occ20 = [0] * len(reg)
    occ20[bi] = 2
    occ11 = [0] * len(reg)
    occ11[bi] = occ11[oi] = 1
    assert abs(st.amplitude(occ20)) ** 2 == pytest.approx(m ** 4, abs=1e-12)
    assert abs(st.amplitude(occ11)) ** 2 == pytest.approx(2 * m ** 2 * q ** 2, abs=1e-12)


def debug_text(state):
    """`amp_re amp_im | n1 n2 ... nk` lines, basis terms in lexicographic
    registry order, so a golden pins every term to the last bit."""
    return [f"{amp.real:.17g} {amp.imag:.17g} | " + " ".join(map(str, occ))
            for occ, amp in sorted(state.terms.items())]


def test_debug_serialization_golden():
    reg = single_sublabel_registry()
    st = PureState.basis(reg, {A: 1, B: 1})
    out = fock.apply_beamsplitter(st)
    assert debug_text(out) == [
        "0 0.70710678118654746 | 0 0 0 2",
        "0 0.70710678118654746 | 0 0 2 0",
    ]


def test_beamsplitter_amplitudes_kernel():
    reg = fock.standard_registry(n_max=8)
    for na in range(9):
        for nb in range(9 - na):
            amps = fock.beamsplitter_amplitudes(na, nb)
            # one entry per kc = 0..na + nb, with kd = na + nb - kc
            assert len(amps) == na + nb + 1
            assert sum(abs(a) ** 2 for a in amps) == pytest.approx(
                1.0, abs=1e-12)
            # term by term against the full state algebra on |na, nb>
            out = fock.apply_beamsplitter(
                PureState.basis(reg, {A: na, B: nb}))
            kept = {(kc, na + nb - kc): a for kc, a in enumerate(amps)
                    if abs(a) > fock.PRUNE_THRESHOLD}
            assert engine_cd_amplitudes(out) == kept
    # HOM: |1,1> never leaves one photon in each output
    assert abs(fock.beamsplitter_amplitudes(1, 1)[1]) == 0.0
    # |n,n> only ever puts an even number of photons in c
    for n in range(1, 5):
        for kc, a in enumerate(fock.beamsplitter_amplitudes(n, n)):
            if kc % 2:
                assert abs(a) <= fock.PRUNE_THRESHOLD, (n, kc)


def test_beamsplitter_amplitudes_rejects_negative_numbers():
    with pytest.raises(ValueError):
        fock.beamsplitter_amplitudes(-1, 1)
