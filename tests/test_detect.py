import pytest

from mandeldip import detect, runner
from mandeldip.detect import (CoincidenceScheme, DetectorModel, GE_1310,
                              INGAAS_1310, INGAAS_1550_1, INGAAS_1550_2)
from mandeldip.pdc import SourceParams


def det(eta, dark=0.0, name="det"):
    return DetectorModel(name, eta=eta, dark_prob=dark)


def test_two_photon_click_probability():
    for eta in (0.05, 0.1, 0.3, 0.9):
        assert detect.click_probability(2, det(eta)) == pytest.approx(
            2 * eta - eta ** 2, rel=1e-12)


def test_no_photons_no_darks_no_click():
    assert detect.click_probability(0, det(0.3)) == 0.0


def test_single_photon_with_darks():
    d = det(0.1, dark=0.003)
    assert detect.click_probability(1, d) == pytest.approx(1 - 0.9 * 0.997)
    assert detect.click_probability(1, d) == pytest.approx(0.1027, abs=1e-4)


def test_click_probability_monotone():
    vals = [detect.click_probability(n, det(0.2, 0.01)) for n in range(6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    etas = [detect.click_probability(2, det(e)) for e in (0.1, 0.2, 0.5, 0.9)]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert detect.click_probability(1, det(0.25)) == pytest.approx(0.25)


def test_small_eta_consistency():
    for eta in (0.01, 0.05, 0.1, 0.3):
        assert abs(detect.click_probability(2, det(eta)) - 2 * eta) <= eta ** 2 + 1e-15


def make_detectors(dark=0.0):
    return {
        GE_1310: det(0.1, dark, GE_1310),
        INGAAS_1310: det(0.3, dark, INGAAS_1310),
        INGAAS_1550_1: det(0.3, dark, INGAAS_1550_1),
        INGAAS_1550_2: det(0.3, dark, INGAAS_1550_2),
    }


def coincidence_weight(pattern, kind):
    """Click product of `runner._coincidence_weight` for the output
    pattern (c, d, herald1, herald2) under scheme `kind`."""
    vacuum = SourceParams(zeta=0.0)
    cfg = runner.ExperimentConfig(source1=vacuum, source2=vacuum,
                                  scheme=CoincidenceScheme(kind),
                                  delays_um=(0.0,))
    return runner._coincidence_weight(pattern, cfg, make_detectors())


def test_threefold_coincidence_product():
    # the heralds' counts do not enter a threefold coincidence
    assert coincidence_weight((1, 1, 0, 0), "threefold") == pytest.approx(
        0.03, rel=1e-12)


def test_fivefold_coincidence_product():
    p = coincidence_weight((1, 1, 1, 1), "fivefold")
    assert p == pytest.approx(0.1 * 0.3 ** 3, rel=1e-12)
    assert p == pytest.approx(2.7e-3, rel=1e-9)


def test_silent_detector_kills_coincidence():
    assert coincidence_weight((2, 0, 0, 0), "threefold") == 0.0


def test_accidentals_vanish_without_darks():
    scheme = CoincidenceScheme("threefold")
    singles = {GE_1310: 0.01, INGAAS_1310: 0.02}
    assert detect.accidental_rate(scheme, make_detectors(0.0), singles) == 0.0


def test_accidentals_positive_with_darks():
    scheme = CoincidenceScheme("threefold")
    singles = {GE_1310: 0.01, INGAAS_1310: 0.02}
    acc = detect.accidental_rate(scheme, make_detectors(1e-3), singles)
    assert acc > 0.0
    with pytest.raises(ValueError):
        detect.accidental_rate(scheme, make_detectors(1e-3),
                               {GE_1310: -0.1, INGAAS_1310: 0.02})


def test_net_visibility_exceeds_raw():
    # subtracting a delay-independent floor increases the dip contrast
    od_raw, floor, v_net = 180.0, 20.0, 0.28
    od_net = od_raw - floor
    id_net = od_net * (1 - v_net)
    id_raw = id_net + floor
    v_raw = (od_raw - id_raw) / od_raw
    assert v_raw < v_net


def test_lab_scale_raw_visibility_band():
    # raw V = V_net * (od - acc) / od with the measured-scale rates
    od_raw, acc, v_net = 180.0, 20.0, 0.28
    v_raw = v_net * (od_raw - acc) / od_raw
    assert 0.21 <= v_raw <= 0.25


def test_model_validation():
    with pytest.raises(ValueError):
        DetectorModel("x", eta=1.5)
    with pytest.raises(ValueError):
        DetectorModel("x", eta=0.5, dark_prob=1.0)
    with pytest.raises(ValueError):
        CoincidenceScheme("fourfold")
    assert CoincidenceScheme("fivefold").roles == detect.ALL_ROLES
