"""The lab's filters, pump width and detectors, for tests that build an
`ExperimentConfig` in code. They are read from `configs/lab_fivefold.json`
through `cli.parse_config`, so the config file stays the one description
of the setup."""

import json
from pathlib import Path

from mandeldip import cli

LAB_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lab_fivefold.json"


def lab_setup() -> dict:
    """`signal_filter`, `herald_filter`, `pump_fwhm_nm` and `detectors` of
    the lab config, as `ExperimentConfig` keyword arguments."""
    cfg = cli.parse_config(json.loads(LAB_CONFIG.read_text()))
    return {name: getattr(cfg, name) for name in
            ("signal_filter", "herald_filter", "pump_fwhm_nm", "detectors")}
