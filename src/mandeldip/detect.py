"""Threshold-detector models and coincidence logic.

Detectors are click/no-click: with n photons arriving, the click
probability is 1 - (1-eta)^n * (1-dark), which reduces to 2*eta - eta^2
for two photons and no dark counts. Gating is modeled logically: a
coincidence scheme names the detectors that must all click on the same
laser-clock gate (`SCHEMES`); the clock is implicit, as every gate is
clock-aligned. A detector is known by its role, the key of its entry
in an experiment's `detectors` mapping. `ALL_ROLES` is in the engine's
port order, which its click weights and accidental floor rely on:
output c, output d, herald 1 (source 1's twin), herald 2.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass

GE_1310 = "Ge-1310"
INGAAS_1310 = "InGaAs-1310"
INGAAS_1550_1 = "InGaAs-1550-1"
INGAAS_1550_2 = "InGaAs-1550-2"

ALL_ROLES = (GE_1310, INGAAS_1310, INGAAS_1550_1, INGAAS_1550_2)

# Coincidence scheme name -> the roles that must all click: threefold is
# the two 1310 detectors, fivefold all four (each with the clock).
SCHEMES = {"threefold": (GE_1310, INGAAS_1310), "fivefold": ALL_ROLES}


class Record:
    """Base of the frozen records `DetectorModel`, `ExperimentConfig`,
    `DipCurve` and `DipFit`. A record is declared by subclassing `Record`
    with annotated fields; `__init_subclass__` applies
    `@dataclass(init=False, repr=False, eq=False)`, which lists the fields
    (for `dataclasses.fields`, `replace` and `__match_args__`) and
    compiles no method, where a frozen dataclass compiles six per record
    at import.

    A record is built by position or keyword, with the fields' defaults,
    and checked by its `__post_init__`; it is frozen, and equal, hashed
    and printed by its field values in order."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(init=False, repr=False, eq=False)(cls)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        set_field = object.__setattr__  # unlike __dict__, keeps reads fast
        for i, name in enumerate(names):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            else:
                value = self.__dataclass_fields__[name].default
                if value is MISSING:
                    raise TypeError(f"{type(self).__name__}() missing "
                                    f"argument {name!r}")
            set_field(self, name, value)
        if kwargs:  # given by position too, or not a field
            raise TypeError(f"{type(self).__name__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """A record's range checks; a record without any needs none."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class DetectorModel(Record):
    """Quantum efficiency and per-gate dark-count probability."""

    eta: float
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark probability must lie in [0, 1)")


def click_probability(n: int, det: DetectorModel) -> float:
    """Probability that a threshold detector clicks on a gate with n photons."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 1.0 - (1.0 - det.eta) ** n * (1.0 - det.dark_prob)

