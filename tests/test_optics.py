import math

import numpy as np
import pytest

from mandeldip import optics, runner

import fock_reference as fock
from fock_reference import Mode, PureState
from lab_setup import lab_config


def test_coherence_length_1310_10nm():
    assert optics.coherence_length(1310, 10) == pytest.approx(75.0, rel=0.02)


def test_coherence_length_wavelength_squared_scaling():
    l1 = optics.coherence_length(1310, 10)
    l2 = optics.coherence_length(2620, 10)
    assert l2 == pytest.approx(4 * l1, rel=1e-12)


def test_coherence_length_1550():
    val = optics.coherence_length(1550, 10)
    assert val == pytest.approx(2 * math.log(2) / math.pi * 1.550 ** 2 / 1e-2,
                                rel=1e-9)
    assert val == pytest.approx(106.0, rel=0.01)


def test_heralded_bandwidth_mapping():
    eff_fwhm_nm = optics.heralded_bandwidth(1310, 1e9, 1550, 10)
    assert eff_fwhm_nm == pytest.approx(10 * (1310 / 1550) ** 2, rel=1e-9)
    assert eff_fwhm_nm == pytest.approx(7.14, abs=0.01)


def test_heralded_bandwidth_quadrature_combination():
    eff_fwhm_nm = optics.heralded_bandwidth(1310, 10, 1550, 10)
    mapped = 10 * (1310 / 1550) ** 2
    oracle = 1 / math.sqrt(10 ** -2 + mapped ** -2)
    assert eff_fwhm_nm == pytest.approx(oracle, rel=1e-12)
    assert eff_fwhm_nm == pytest.approx(5.8, abs=0.05)


def test_heralded_bandwidth_never_widens():
    for her_fwhm in (2.0, 5.0, 10.0, 50.0):
        eff_fwhm_nm = optics.heralded_bandwidth(1310, 10, 1550, her_fwhm)
        mapped = her_fwhm * (1310 / 1550) ** 2
        assert eff_fwhm_nm <= min(10.0, mapped) + 1e-12


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
    assert fock.decompose_modes(1.0) == (1.0, 0.0)
    assert fock.decompose_modes(0.0) == (0.0, 1.0)
    m, o = fock.decompose_modes(0.6)
    assert abs(m) ** 2 + o ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fock.decompose_modes(1.5)


def test_partial_overlap_coincidence_probability():
    # |1,1> coincidence after the splitter equals (1 - |m|^2) / 2
    reg = fock.standard_registry()
    for m in (0.0, 0.3, 0.8, 1.0):
        matched, orth = fock.decompose_modes(m)
        st = fock.apply_creation(PureState.vacuum(reg), Mode("a", "matched", "H"), 1)
        st = fock.apply_superposed_creation(
            st, [(Mode("b", "matched", "H"), matched),
                 (Mode("b", "orthogonal", "H"), orth)], 1).normalized()
        out = fock.apply_beamsplitter(st)
        probs = fock.mode_probabilities(out, fock.spatial_grouping(reg, ("c", "d")))
        assert probs.get((1, 1), 0.0) == pytest.approx((1 - m ** 2) / 2, abs=1e-12)


def test_filter_validation():
    lab = vars(lab_config())
    for center, fwhm in ((-1, 10), (1310, 0), (math.inf, 10), (1310, math.inf),
                         (math.nan, 10), (1310, math.nan)):
        for name in ("signal", "herald"):
            with pytest.raises(ValueError, match="positive and finite"):
                runner.ExperimentConfig(**{**lab, f"{name}_nm": center,
                                           f"{name}_fwhm_nm": fwhm})
    with pytest.raises(ValueError):
        optics.overlap_sq(0.0, 75.0, spectral_mismatch=1.5)
    with pytest.raises(ValueError):
        optics.overlap_sq(0.0, 0.0)
