import math

import numpy as np
import pytest

from mandeldip import pdc
from mandeldip.pdc import SourceParams


def test_zero_squeezing_is_vacuum_only():
    s = SourceParams(zeta=0.0)
    assert pdc.pair_number_distribution(s, 0) == 1.0
    assert pdc.pair_number_distribution(s, 1) == 0.0


def test_four_percent_pair_probability():
    s = SourceParams(zeta=0.2027)
    assert s.pair_probability == pytest.approx(0.04, rel=0.01)
    expected = (1 - s.lam) * s.lam  # direct geometric evaluation
    assert pdc.pair_number_distribution(s, 1) == pytest.approx(expected)
    assert expected == pytest.approx(0.0384, abs=4e-4)


def test_geometric_ratio():
    s = SourceParams(zeta=0.3)
    p1 = pdc.pair_number_distribution(s, 1)
    p2 = pdc.pair_number_distribution(s, 2)
    assert p2 / p1 == pytest.approx(s.lam, rel=1e-12)


def test_normalization_tail_bound():
    # zeta large enough that lam**50 is resolvable in float; at small
    # lam the partial sum rounds to exactly 1.0 and the bound is trivial
    s = SourceParams(zeta=1.8)
    total = sum(pdc.pair_number_distribution(s, n) for n in range(51))
    assert 1.0 - s.lam ** 50 < total <= 1.0


def test_stimulated_emission_identity():
    # p(2) p(0) == p(1)^2 holds exactly for the geometric law
    for zeta in (0.05, 0.2027, 0.7):
        s = SourceParams(zeta=zeta)
        p0 = pdc.pair_number_distribution(s, 0)
        p1 = pdc.pair_number_distribution(s, 1)
        p2 = pdc.pair_number_distribution(s, 2)
        assert p2 * p0 == pytest.approx(p1 ** 2, rel=1e-12)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SourceParams(zeta=-0.1)
    with pytest.raises(ValueError):
        SourceParams.from_pair_probability(1.0)
    with pytest.raises(ValueError):
        pdc.pair_number_distribution(SourceParams(0.1), -1)


def test_sampling_zero_sources():
    s = SourceParams(zeta=0.0)
    for seed in range(5):
        n1, n2 = pdc.sample_pair_count_arrays(s, s, 100,
                                              np.random.default_rng(seed))
        assert not n1.any() and not n2.any()


def test_sampling_deterministic_per_seed():
    s = SourceParams(zeta=0.3)
    a = pdc.sample_pair_count_arrays(s, s, 1000, np.random.default_rng(777))
    b = pdc.sample_pair_count_arrays(s, s, 1000, np.random.default_rng(777))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sampling_matches_distribution():
    s = SourceParams(zeta=0.2027)  # lambda ~ 0.04
    rng = np.random.default_rng(2024)
    n = 1_000_000
    n1, n2 = pdc.sample_pair_count_arrays(s, s, n, rng)
    p1 = pdc.pair_number_distribution(s, 1)
    for arr in (n1, n2):
        freq = np.mean(arr == 1)
        sigma = math.sqrt(p1 * (1 - p1) / n)
        assert abs(freq - p1) < 3 * sigma

    # stimulated emission: p(2,0) == p(1,1) empirically within 4 sigma
    f20 = np.mean((n1 == 2) & (n2 == 0))
    f11 = np.mean((n1 == 1) & (n2 == 1))
    p = pdc.pair_number_distribution(s, 2) * pdc.pair_number_distribution(s, 0)
    sigma = math.sqrt(2 * p / n)
    assert abs(f20 - f11) < 4 * sigma


def test_empirical_joint_frequencies_within_4_sigma():
    s1 = SourceParams(zeta=0.25)
    s2 = SourceParams(zeta=0.15)
    rng = np.random.default_rng(5)
    n = 1_000_000
    n1, n2 = pdc.sample_pair_count_arrays(s1, s2, n, rng)
    for k1 in range(3):
        for k2 in range(3):
            p = (pdc.pair_number_distribution(s1, k1)
                 * pdc.pair_number_distribution(s2, k2))
            freq = np.mean((n1 == k1) & (n2 == k2))
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * sigma
