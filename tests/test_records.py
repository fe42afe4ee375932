"""The contract of the four frozen records (`DetectorModel`,
`ExperimentConfig`, `DipCurve`, `DipFit`): built by position or keyword,
frozen, compared, hashed and printed by value in field order, and
readable through `dataclasses.fields` and `dataclasses.replace`."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mandeldip import cli
from mandeldip.analysis import DipFit
from mandeldip.detect import DetectorModel, Record
from mandeldip.runner import DipCurve, ExperimentConfig

from lab_setup import lab_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def records():
    """One instance of each record."""
    return [DetectorModel(0.25, 1e-6),
            lab_config(),
            DipCurve((-1.0, 0.0), (2.0, 1.5), (0.0, 0.25)),
            DipFit(100.0, 0.5, 30.0, 0.0, 7)]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen(record):
    name = dataclasses.fields(record)[0].name
    value = getattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, "not_a_field", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert getattr(record, name) is value


@pytest.mark.parametrize("make, change", [
    (lambda: DetectorModel(0.25, 1e-6), {"dark_prob": 0.0}),
    (lambda: DipCurve((-1.0, 0.0), (2.0, 1.5), (0.0, 0.25)),
     {"rates_hz": (2.0, 1.0)}),
    (lambda: DipFit(100.0, 0.5, 30.0, 0.0, 7), {"clamped": True}),
], ids=["DetectorModel", "DipCurve", "DipFit"])
def test_records_are_equal_and_hash_by_value(make, change):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert dataclasses.replace(a, **change) != a


def test_a_config_is_equal_by_value_and_unhashable():
    # its detectors are a dict, so a config has no hash
    assert lab_config() == lab_config()
    assert lab_config() != dataclasses.replace(lab_config(), seed=7)
    with pytest.raises(TypeError):
        hash(lab_config())


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_a_record_never_equals_another_class(record):
    values = tuple(getattr(record, f.name)
                   for f in dataclasses.fields(record))
    assert record != values
    assert record != SimpleNamespace(**vars(record))
    assert record.__eq__(values) is NotImplemented
    assert all(record != other for other in records()
               if type(other) is not type(record))
    twin = type("Twin", (type(record),), {})(**vars(record))  # same fields
    assert record != twin and twin != record


FIELDS = {
    DetectorModel: [("eta", dataclasses.MISSING), ("dark_prob", 0.0)],
    ExperimentConfig: [
        ("pair_probabilities", dataclasses.MISSING),
        ("signal_nm", dataclasses.MISSING),
        ("signal_fwhm_nm", dataclasses.MISSING),
        ("herald_nm", dataclasses.MISSING),
        ("herald_fwhm_nm", dataclasses.MISSING),
        ("pump_fwhm_nm", dataclasses.MISSING),
        ("detectors", dataclasses.MISSING),
        ("scheme", dataclasses.MISSING),
        ("delays_um", dataclasses.MISSING),
        ("pulses_per_point", 100_000), ("seed", 0),
        ("pulse_rate_hz", 7.6e7), ("collection_efficiency", 1.0),
        ("polarization_angle_rad", 0.0), ("spectral_mismatch", 0.0),
        ("max_pairs", 3), ("small_eta", False)],
    DipCurve: [("delays_um", dataclasses.MISSING),
               ("rates_hz", dataclasses.MISSING),
               ("errors_hz", dataclasses.MISSING)],
    DipFit: [("s", dataclasses.MISSING), ("visibility", dataclasses.MISSING),
             ("sigma_tau_um", dataclasses.MISSING),
             ("residual_norm", dataclasses.MISSING),
             ("iterations", dataclasses.MISSING), ("clamped", False)],
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_and_match_args(cls):
    fields = dataclasses.fields(cls)
    assert [(f.name, f.default) for f in fields] == FIELDS[cls]
    assert all(f.default_factory is dataclasses.MISSING for f in fields)
    assert cls.__match_args__ == tuple(name for name, _ in FIELDS[cls])


def test_a_subclass_of_record_is_a_record():
    # declared with annotated fields only, as every record is
    class Pair(Record):
        a: float
        b: float = 2.0

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must be non-negative")

    pair = Pair(1.0)
    assert [(f.name, f.default) for f in dataclasses.fields(pair)] == [
        ("a", dataclasses.MISSING), ("b", 2.0)]
    assert (pair.a, pair.b) == (1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.a = 3.0
    assert dataclasses.replace(pair, b=5.0) == Pair(1.0, 5.0)
    with pytest.raises(ValueError, match="non-negative"):
        dataclasses.replace(pair, a=-1.0)
    match pair:
        case Pair(a, b):
            assert (a, b) == (1.0, 2.0)
        case _:
            pytest.fail("a record matches by position")


def test_a_record_with_fields_only_is_built():
    # no range check: Record's own __post_init__ does nothing
    class Point(Record):
        x: int
        y: int = 0

    assert (Point(1).x, Point(1).y) == (1, 0)
    assert Point(1, 2) == Point(x=1, y=2) != Point(1)
    assert dataclasses.replace(Point(1), y=3) == Point(1, 3)


def test_positional_and_keyword_arguments_agree():
    values = vars(lab_config())
    by_position = ExperimentConfig(*values.values())
    assert by_position == ExperimentConfig(**values)
    assert list(vars(by_position)) == list(values)
    mixed = DipFit(100.0, 0.5, iterations=7, residual_norm=0.0,
                   sigma_tau_um=30.0)
    assert mixed == DipFit(100.0, 0.5, 30.0, 0.0, 7)
    assert list(vars(mixed)) == [name for name, _ in FIELDS[DipFit]]


def test_replace_reruns_the_range_checks():
    with pytest.raises(ValueError, match=r"^config: max_pairs must lie in "
                                         r"\[1, 20\]$"):
        dataclasses.replace(lab_config(), max_pairs=0)
    with pytest.raises(ValueError,
                       match=r"^efficiency must lie in \[0, 1\]$"):
        dataclasses.replace(DetectorModel(0.25), eta=2)
    with pytest.raises(ValueError, match="visibility"):
        dataclasses.replace(DipFit(100.0, 0.5, 30.0, 0.0, 7), visibility=1.5)
    with pytest.raises(ValueError, match="equal lengths"):
        dataclasses.replace(DipCurve((0.0,), (1.0,), (0.0,)),
                            rates_hz=(1.0, 2.0))


@pytest.mark.parametrize("call", [
    lambda: DetectorModel(),                                 # missing
    lambda: DetectorModel(dark_prob=0.0),                    # missing
    lambda: DipCurve((0.0,), (1.0,)),                        # missing
    lambda: DetectorModel(0.5, gain=2.0),                    # unknown
    lambda: DetectorModel(eta=0.5, Eta=0.5),                 # unknown
    lambda: DetectorModel(0.5, eta=0.5),                     # duplicate
    lambda: DipFit(1.0, 0.5, 30.0, 0.0, 3, False, visibility=0.5),
    lambda: DetectorModel(0.5, 0.0, 0.0),                    # too many
    lambda: DipFit(1.0, 0.5, 30.0, 0.0, 3, False, True),     # too many
], ids=["missing", "missing-keyword", "missing-last", "unknown",
        "unknown-case", "duplicate", "duplicate-last", "too-many",
        "too-many-with-default"])
def test_a_bad_argument_list_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_repr_prints_fields_in_order():
    detector, _, curve, fit = records()
    assert repr(detector) == "DetectorModel(eta=0.25, dark_prob=1e-06)"
    assert repr(curve) == ("DipCurve(delays_um=(-1.0, 0.0), rates_hz="
                           "(2.0, 1.5), errors_hz=(0.0, 0.25))")
    assert repr(fit) == ("DipFit(s=100.0, visibility=0.5, sigma_tau_um=30.0,"
                         " residual_norm=0.0, iterations=7, clamped=False)")
    cfg = cli.parse_config(json.loads(
        (CONFIGS / "ideal_threefold.json").read_text()))
    grid = ", ".join(f"{d:.1f}" for d in range(-300, 301, 20))
    dets = ", ".join(f"{role!r}: DetectorModel(eta={eta}, dark_prob=0.0)"
                     for role, eta in (("Ge-1310", 0.1), ("InGaAs-1310", 0.3),
                                       ("InGaAs-1550-1", 0.3),
                                       ("InGaAs-1550-2", 0.3)))
    assert repr(cfg) == (
        "ExperimentConfig(pair_probabilities=(0.04, 0.04), signal_nm=1310.0, "
        "signal_fwhm_nm=10.0, herald_nm=1550.0, herald_fwhm_nm=10.0, "
        f"pump_fwhm_nm=4.5, detectors={{{dets}}}, scheme='threefold', "
        f"delays_um=({grid}), pulses_per_point=200000, seed=1, "
        "pulse_rate_hz=76000000.0, collection_efficiency=1.0, "
        "polarization_angle_rad=0.0, spectral_mismatch=0.0, max_pairs=3, "
        "small_eta=True)")


@pytest.mark.parametrize("name, digest", [
    ("ideal_threefold",
     "9dd084017416f72554c4a1b816a683e4d354ec6af70852bf327f3124670a32a5"),
    ("ideal_fivefold",
     "a58725a4fe6cf5bf90938d39fddca5ed3f7b4ebeff0288c564bfa2bedcc31309"),
    ("lab_fivefold",
     "ef12bf2bbd2deeeb6eda8f9230140df2e6da1ebcc5166175a4bdb6c5060c2219"),
])
def test_experiment_digest_of_the_shipped_configs_is_pinned(name, digest):
    cfg = cli.parse_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    assert cfg.digest() == digest


# Counts the sources compiled from strings (`exec`, `eval`) while the
# package is imported. numpy and the standard modules the package uses
# come first, so only the package's own count. Python 3.13's dataclass
# decorator compiles one wrapper per class even when it makes no method,
# `def __create_fn__():\n\n return ()`; that one is not counted.
IMPORT_GUARD = """
import sys
import argparse, collections, csv, dataclasses, functools, hashlib, json
import math, operator, os, pathlib, time, typing, warnings
import numpy

sources = []


def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        source = args[0]
        if isinstance(source, bytes):
            source = source.decode()
        if source.split() != ["def", "__create_fn__():", "return", "()"]:
            sources.append(source)


sys.addaudithook(hook)
import mandeldip
from mandeldip import analysis, cli, detect, fock, optics, pdc, runner
print(len(sources))
"""


def test_importing_the_package_generates_no_code():
    # each `@dataclass(frozen=True)` writes and compiles six methods
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert int(proc.stdout) == 0
