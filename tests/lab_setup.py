"""The lab's filters, pump width and detectors, for tests that build an
`ExperimentConfig` in code. They are read from `configs/lab_fivefold.json`
through `cli.parse_config`, so the config file stays the one description
of the setup."""

import json
from pathlib import Path

from mandeldip import cli

LAB_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lab_fivefold.json"


def lab_config():
    """The lab config as parsed, an `ExperimentConfig`."""
    return cli.parse_config(json.loads(LAB_CONFIG.read_text()))


def lab_setup() -> dict:
    """The four filter values, `pump_fwhm_nm` and `detectors` of the lab
    config, as `ExperimentConfig` keyword arguments."""
    cfg = lab_config()
    return {name: getattr(cfg, name) for name in
            ("signal_nm", "signal_fwhm_nm", "herald_nm", "herald_fwhm_nm",
             "pump_fwhm_nm", "detectors")}
