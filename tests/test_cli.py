import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mandeldip import analysis, cli, runner
from mandeldip.analysis import dip_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    cfg = {
        "sources": [{"P": 0.04}, {"P": 0.04}],
        "filters": {"signal_nm": 1310, "signal_fwhm_nm": 10,
                    "herald_nm": 1550, "herald_fwhm_nm": 10,
                    "pump_fwhm_nm": 4.5},
        "detectors": [{"eta": 0.10, "dark_prob": 0.0},
                      {"eta": 0.30, "dark_prob": 0.0},
                      {"eta": 0.30, "dark_prob": 0.0},
                      {"eta": 0.30, "dark_prob": 0.0}],
        "scheme": "threefold",
        "delays": {"min_um": -300, "max_um": 300, "step_um": 30},
        "mc": {"pulses_per_point": 50000, "seed": 5},
        "pulse_rate_hz": 7.6e7,
        "collection_efficiency": 1.0,
        "small_eta": True,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_analytic_command(capsys):
    assert cli.main(["analytic", "-P", "0.04"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V_threefold"] == pytest.approx(0.333333, abs=1e-6)
    assert out["V_fivefold_max"] == pytest.approx(0.891892, abs=1e-6)


def test_analytic_command_limits(capsys):
    assert cli.main(["analytic", "-P", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"V_threefold": 0.333333, "V_fivefold_max": 1.0}
    assert cli.main(["analytic", "-P", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V_fivefold_max"] == pytest.approx(0.818182, abs=1e-6)


def test_analytic_command_rejects_out_of_range(capsys):
    assert cli.main(["analytic", "-P", "0.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_scan_ideal_threefold(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), "--mode", "analytic",
                     "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit.json").read_text())
    assert report["net"]["V"] == pytest.approx(1 / 3, abs=0.007)
    assert report["net"]["converged"]

    lines = (out_dir / "curve.csv").read_text().splitlines()
    assert lines[0] == "delay_um,rate_hz,err_hz"
    assert len(lines) == 22  # header + 21 grid points

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert set(manifest["outputs"]) == {"curve", "fit"}


def test_scan_fivefold_band(tmp_path):
    cfg = base_config(scheme="fivefold",
                      delays={"min_um": -500, "max_um": 500, "step_um": 50})
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out5"
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit.json").read_text())
    assert 0.85 <= report["net"]["V"] <= 0.892


def test_scan_mc_mode_and_seed_override(tmp_path):
    # exact-eta threefold probabilities are ~1e-4 per pulse; enough
    # pulses that each point carries O(100) counts and the dip is real
    cfg = base_config(small_eta=False,
                      delays={"min_um": -150, "max_um": 150, "step_um": 50},
                      mc={"pulses_per_point": 2_000_000, "seed": 5})
    cfg_path = write_config(tmp_path, cfg)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["scan", str(cfg_path), "--mode", "mc",
                     "--out", str(out_a), "--seed", "123"]) == 0
    assert cli.main(["scan", str(cfg_path), "--mode", "mc",
                     "--out", str(out_b), "--seed", "123"]) == 0
    assert (out_a / "curve.csv").read_text() == (out_b / "curve.csv").read_text()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 123


def test_scan_writes_reports_when_fit_raises(tmp_path, monkeypatch):
    def no_convergence(curve):
        raise RuntimeError("dip fit did not converge")

    monkeypatch.setattr(analysis, "fit_dip", no_convergence)
    cfg = base_config(small_eta=False,
                      detectors=[{"eta": 0.1, "dark_prob": 1e-4}] * 4)
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit.json").read_text())
    assert report["raw"]["converged"] is False
    assert report["net"]["converged"] is False
    assert "error" in report["raw"]
    assert (out_dir / "manifest.json").is_file()


@pytest.mark.parametrize("mode", ["analytic", "mc"])
def test_scan_builds_one_pattern_table(tmp_path, monkeypatch, mode):
    # the curve builds the table once; the accidental floor reads none
    passes = []
    real = runner._pattern_table

    def counting(cfg):
        passes.append(cfg)
        return real(cfg)

    monkeypatch.setattr(runner, "_pattern_table", counting)
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(CONFIG_DIR / "lab_fivefold.json"),
                     "--mode", mode, "--out", str(out_dir)]) == 0
    assert len(passes) == 1
    report = json.loads((out_dir / "fit.json").read_text())
    assert report["accidental_hz"] > 0.0


def test_scan_fivefold_pump_follows_signal_and_herald(tmp_path):
    cfg = base_config(scheme="fivefold",
                      delays={"min_um": -300, "max_um": 300, "step_um": 30})
    cfg["filters"]["signal_nm"] = 810
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "fit.json").read_text())["net"]["converged"]


def test_module_entry_point_prints_no_runtime_warning():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "mandeldip.cli", "analytic", "-P", "0.04"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["V_threefold"] == pytest.approx(1 / 3,
                                                                 abs=1e-6)


def test_scan_empty_delay_grid_fails(tmp_path, capsys):
    cfg = base_config(delays={"min_um": 100, "max_um": 0, "step_um": 10})
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_scan_missing_key_fails(tmp_path, capsys):
    cfg = base_config()
    del cfg["filters"]
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "filters" in err["error"]


def test_fit_roundtrip(tmp_path, capsys):
    sigma = 142.0 / (2 * math.sqrt(2 * math.log(2)))
    delays = np.linspace(-300, 300, 41)
    rates = dip_model(delays, 160.0, 0.28, sigma)
    lines = ["delay_um,rate_hz,err_hz"]
    lines += [f"{d},{r},0" for d, r in zip(delays, rates)]
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["S"] == pytest.approx(160.0, rel=1e-6)
    assert out["V"] == pytest.approx(0.28, rel=1e-6)
    assert out["fwhm_um"] == pytest.approx(142.0, rel=1e-6)


def test_fit_reports_clamped_visibility(tmp_path, capsys):
    sigma = 60.0
    half = np.linspace(0.5 * sigma, 5 * sigma, 20)
    delays = np.concatenate([-half[::-1], half])
    rates = dip_model(delays, 100.0, 1.1, sigma)
    lines = ["delay_um,rate_hz,err_hz"]
    lines += [f"{d!r},{r!r},0" for d, r in zip(delays.tolist(), rates.tolist())]
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="clamped"):
        assert cli.main(["fit", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"] == 1.0
    assert out["clamped"] is True


def test_fit_three_points_is_an_error(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("delay_um,rate_hz,err_hz\n-10,1,0\n0,0.5,0\n10,1,0\n")
    assert cli.main(["fit", str(csv_path)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_fit_constant_rates_gives_zero_visibility(tmp_path, capsys):
    csv_path = tmp_path / "flat.csv"
    rows = "\n".join(f"{d},100,0" for d in range(-60, 61, 20))
    csv_path.write_text("delay_um,rate_hz,err_hz\n" + rows + "\n")
    with pytest.warns(UserWarning):
        assert cli.main(["fit", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"] == 0.0


def test_fit_rejects_bad_header(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("a,b,c\n1,2,3\n")
    assert cli.main(["fit", str(csv_path)]) == 2


def test_shipped_configs_parse():
    for name in ("ideal_threefold.json", "ideal_fivefold.json",
                 "lab_fivefold.json"):
        data = json.loads((CONFIG_DIR / name).read_text())
        cfg = cli.parse_config(data)
        assert len(cfg.delays_um) >= 5
