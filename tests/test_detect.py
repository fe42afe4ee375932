import math

import pytest

from mandeldip import analysis, detect, runner
from mandeldip.detect import (DetectorModel, GE_1310, INGAAS_1310,
                              INGAAS_1550_1, INGAAS_1550_2)
from mandeldip.runner import DipCurve

from lab_setup import lab_config, lab_setup


def det(eta, dark=0.0):
    return DetectorModel(eta=eta, dark_prob=dark)


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


def test_click_probability_refuses_a_negative_photon_number():
    with pytest.raises(ValueError, match="photon number"):
        detect.click_probability(-1, det(0.3))


def test_small_eta_consistency():
    for eta in (0.01, 0.05, 0.1, 0.3):
        assert abs(detect.click_probability(2, det(eta)) - 2 * eta) <= eta ** 2 + 1e-15


def make_detectors(dark=0.0):
    return {
        GE_1310: det(0.1, dark),
        INGAAS_1310: det(0.3, dark),
        INGAAS_1550_1: det(0.3, dark),
        INGAAS_1550_2: det(0.3, dark),
    }


def coincidence_weight(pattern, kind):
    """Click product of `runner._click_weights` for the output pattern
    (c, d, herald1, herald2) under scheme `kind`."""
    setup = {**lab_setup(), "detectors": make_detectors()}
    cfg = runner.ExperimentConfig(pair_probabilities=(0.0, 0.0), scheme=kind,
                                  delays_um=(0.0,), **setup)
    return math.prod(weights[n] for weights, n
                     in zip(runner._click_weights(cfg), pattern))


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


def lab_scale_raw_curve():
    """Out-of-dip, in-dip and out-of-dip raw rates at the measured scale:
    a net dip of V 0.28 on 160 Hz, plus a 20 Hz floor."""
    od_raw, floor, v_net = 180.0, 20.0, 0.28
    id_raw = (od_raw - floor) * (1 - v_net) + floor
    curve = DipCurve(delays_um=(-500.0, 0.0, 500.0),
                     rates_hz=(od_raw, id_raw, od_raw), errors_hz=(0.0,) * 3)
    return curve, floor


def visibility(od_rate, id_rate):
    """Dip visibility (od - id) / od from out-of-dip and in-dip rates."""
    return (od_rate - id_rate) / od_rate


def test_net_visibility_exceeds_raw():
    # subtracting a delay-independent floor increases the dip contrast
    raw, floor = lab_scale_raw_curve()
    net = analysis.subtract_floor(raw, floor)
    v_raw = visibility(*raw.rates_hz[:2])
    v_net = visibility(*net.rates_hz[:2])
    assert v_net == pytest.approx(0.28, rel=1e-12)
    assert v_raw < v_net


def test_lab_scale_raw_visibility_band():
    # raw V = V_net * (od - acc) / od with the measured-scale rates
    raw, _ = lab_scale_raw_curve()
    v_raw = visibility(*raw.rates_hz[:2])
    assert v_raw == pytest.approx(0.28 * (180.0 - 20.0) / 180.0, rel=1e-12)
    assert 0.21 <= v_raw <= 0.25


def test_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(eta=1.5)
    with pytest.raises(ValueError):
        DetectorModel(eta=0.5, dark_prob=1.0)
    with pytest.raises(ValueError):
        runner.ExperimentConfig(**{**vars(lab_config()), "scheme": "fourfold"})
    assert detect.SCHEMES["fivefold"] == detect.ALL_ROLES
