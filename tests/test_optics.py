import math

import numpy as np
import pytest

from mandeldip import fock, optics
from mandeldip.fock import Mode, PureState
from mandeldip.optics import FilterSpec


def test_coherence_length_1310_10nm():
    f = FilterSpec(1310, 10)
    assert optics.coherence_length(f) == pytest.approx(75.0, rel=0.02)


def test_coherence_length_wavelength_squared_scaling():
    l1 = optics.coherence_length(FilterSpec(1310, 10))
    l2 = optics.coherence_length(FilterSpec(2620, 10))
    assert l2 == pytest.approx(4 * l1, rel=1e-12)


def test_coherence_length_1550():
    val = optics.coherence_length(FilterSpec(1550, 10))
    assert val == pytest.approx(2 * math.log(2) / math.pi * 1.550 ** 2 / 1e-2,
                                rel=1e-9)
    assert val == pytest.approx(106.0, rel=0.01)


def test_heralded_bandwidth_mapping():
    wide = FilterSpec(1310, 1e9)
    eff = optics.heralded_bandwidth(wide, FilterSpec(1550, 10), FilterSpec(710, 4.5))
    assert eff.center_nm == 1310
    assert eff.fwhm_nm == pytest.approx(10 * (1310 / 1550) ** 2, rel=1e-9)
    assert eff.fwhm_nm == pytest.approx(7.14, abs=0.01)


def test_heralded_bandwidth_infinitely_wide_herald():
    signal = FilterSpec(1310, 10)
    eff = optics.heralded_bandwidth(signal, FilterSpec(1550, math.inf),
                                    FilterSpec(710, 4.5))
    assert eff == signal


def test_heralded_bandwidth_quadrature_combination():
    eff = optics.heralded_bandwidth(FilterSpec(1310, 10), FilterSpec(1550, 10),
                                    FilterSpec(710, 4.5))
    mapped = 10 * (1310 / 1550) ** 2
    oracle = 1 / math.sqrt(10 ** -2 + mapped ** -2)
    assert eff.fwhm_nm == pytest.approx(oracle, rel=1e-12)
    assert eff.fwhm_nm == pytest.approx(5.8, abs=0.05)


def test_heralded_bandwidth_never_widens():
    for her_fwhm in (2.0, 5.0, 10.0, 50.0):
        eff = optics.heralded_bandwidth(FilterSpec(1310, 10),
                                        FilterSpec(1550, her_fwhm),
                                        FilterSpec(710, 4.5))
        mapped = her_fwhm * (1310 / 1550) ** 2
        assert eff.fwhm_nm <= min(10.0, mapped) + 1e-12


def test_heralded_bandwidth_energy_conservation_guard():
    with pytest.raises(ValueError):
        optics.heralded_bandwidth(FilterSpec(1310, 10), FilterSpec(1400, 10),
                                  FilterSpec(710, 4.5))


def test_overlap_perfect_alignment():
    assert optics.overlap_sq(0.0, 75.0) == pytest.approx(1.0)


def test_overlap_orthogonal_polarization():
    x = optics.overlap_sq([0.0, 30.0, 200.0], 75.0,
                          polarization_angle_rad=math.pi / 2)
    assert x == pytest.approx([0.0] * 3, abs=1e-30)


def test_dip_fwhm_identity():
    # |m|^2 falls to 1/2 exactly at +-sqrt(2) l_c / 2
    for l_c in (20.0, 75.0, 130.0):
        half = math.sqrt(2) * l_c / 2
        assert optics.overlap_sq([-half, half], l_c) == pytest.approx(
            [0.5, 0.5], abs=1e-9)


def test_coincidence_profile_is_gaussian_with_dip_fwhm():
    l_c = 75.0
    sigma_d = l_c / (2 * math.sqrt(math.log(2)))
    delays = np.linspace(-250, 250, 41)
    coinc = (1 - optics.overlap_sq(delays, l_c)) / 2
    expected = (1 - np.exp(-delays ** 2 / (2 * sigma_d ** 2))) / 2
    assert coinc == pytest.approx(expected, abs=1e-9)


def test_overlap_monotonicity():
    vals = optics.overlap_sq([0, 20, 40, 80, 160], 75.0)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [optics.overlap_sq(10, 75.0, polarization_angle_rad=t)
            for t in np.linspace(0, math.pi / 2, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [optics.overlap_sq(10, 75.0, spectral_mismatch=s)
            for s in (0.0, 0.2, 0.5, 0.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_decompose_modes():
    assert optics.decompose_modes(1.0) == (1.0, 0.0)
    assert optics.decompose_modes(0.0) == (0.0, 1.0)
    m, o = optics.decompose_modes(0.6)
    assert abs(m) ** 2 + o ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        optics.decompose_modes(1.5)


def test_partial_overlap_coincidence_probability():
    # |1,1> coincidence after the splitter equals (1 - |m|^2) / 2
    reg = fock.standard_registry()
    for m in (0.0, 0.3, 0.8, 1.0):
        matched, orth = optics.decompose_modes(m)
        st = fock.apply_creation(PureState.vacuum(reg), Mode("a", "matched", "H"), 1)
        st = fock.apply_superposed_creation(
            st, [(Mode("b", "matched", "H"), matched),
                 (Mode("b", "orthogonal", "H"), orth)], 1).normalized()
        out = fock.apply_beamsplitter(st)
        probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
        assert probs.get((1, 1), 0.0) == pytest.approx((1 - m ** 2) / 2, abs=1e-12)


def test_filter_validation():
    with pytest.raises(ValueError):
        FilterSpec(-1, 10)
    with pytest.raises(ValueError):
        FilterSpec(1310, 0)
    with pytest.raises(ValueError):
        optics.overlap_sq(0.0, 75.0, spectral_mismatch=1.5)
    with pytest.raises(ValueError):
        optics.overlap_sq(0.0, 0.0)
