import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mandeldip import analysis, cli, fock, runner
from mandeldip.analysis import dip_model
from mandeldip.detect import DetectorModel

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
    assert out["V_fivefold_untruncated"] == pytest.approx(0.868895, abs=1e-6)


def test_analytic_command_limits(capsys):
    assert cli.main(["analytic", "-P", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"V_threefold": 0.333333, "V_fivefold_max": 1.0,
                   "V_fivefold_untruncated": 1.0}
    assert cli.main(["analytic", "-P", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V_fivefold_max"] == pytest.approx(0.818182, abs=1e-6)
    # (1+8P)/(1+12P) is exact for its 3-pair truncation at every P < 1
    assert cli.main(["analytic", "-P", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"V_threefold": 0.333333, "V_fivefold_max": 0.714286,
                   "V_fivefold_untruncated": 0.473684}


def test_analytic_command_rejects_out_of_range(capsys):
    for p in ("1", "-0.1", "nan"):
        assert cli.main(["analytic", "-P", p]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "pair probability" in err["error"]


def test_scan_ideal_threefold(tmp_path, capsys):
    cfg = base_config()
    cfg_path = write_config(tmp_path, cfg)
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
    assert manifest["mode"] == "analytic"
    assert manifest["seed"] == 5
    assert set(manifest["outputs"]) == {"curve", "fit"}
    assert manifest["experiment_digest"] == cli.parse_config(cfg).digest()


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
    assert manifest["mode"] == "mc"
    assert manifest["seed"] == 123


def test_mc_scan_of_a_probability_rounded_above_one(tmp_path):
    # every dark probability at its largest valid value: the truncated
    # click sum rounds above 1, which the binomial draw must not see
    data = json.loads((CONFIG_DIR / "ideal_threefold.json").read_text())
    data.update(small_eta=False, max_pairs=5, sources=[{"P": 0.1}] * 2,
                detectors=[{"eta": 1.0, "dark_prob": 0.9999999999999999}] * 4)
    assert runner._coincidence_probs(cli.parse_config(data)).max() > 1.0
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="flat curve"):
        assert cli.main(["scan", str(write_config(tmp_path, data)),
                         "--mode", "mc", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "curve.csv", "fit.json", "manifest.json"]
    curve = cli.read_curve_csv(out / "curve.csv")
    assert set(curve.rates_hz) == {data["pulse_rate_hz"]}


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


def test_scan_without_counts_reports_no_convergence(tmp_path):
    # 1000 pulses per point of the paper regime count nothing at seed 3;
    # a curve of zeros has no baseline, so neither fit converges
    data = json.loads((CONFIG_DIR / "lab_fivefold.json").read_text())
    data["mc"] = {"pulses_per_point": 1000}
    out = tmp_path / "out"
    assert cli.main(["scan", str(write_config(tmp_path, data)), "--mode",
                     "mc", "--seed", "3", "--out", str(out)]) == 0
    assert set(cli.read_curve_csv(out / "curve.csv").rates_hz) == {0.0}
    report = json.loads((out / "fit.json").read_text())
    assert report["raw"] == report["net"] == {
        "converged": False, "error": "dip fit did not converge: every rate is 0"}


def test_failed_rescan_leaves_no_old_manifest(tmp_path, capsys):
    cfg_path = CONFIG_DIR / "ideal_threefold.json"
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 0
    # fit.json, now a non-empty directory, makes its write fail
    (out_dir / "fit.json").unlink()
    (out_dir / "fit.json" / "block").mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "IsADirectoryError"
    assert (out_dir / "curve.csv").is_file()
    assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_scan_outputs_follow_the_umask(tmp_path, umask, mode):
    cfg_path = write_config(tmp_path, base_config())
    old = os.umask(umask)
    try:
        assert cli.main(["scan", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 0
        assert os.umask(umask) == umask  # the scan left the umask as it was
    finally:
        os.umask(old)
    for name in ("curve.csv", "fit.json", "manifest.json"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == mode, name


def test_scan_never_sets_the_umask(tmp_path, monkeypatch):
    calls = []
    umask = os.umask

    def spy(mask):
        calls.append(mask)
        return umask(mask)

    monkeypatch.setattr(os, "umask", spy)
    assert cli.main(["scan", str(CONFIG_DIR / "ideal_threefold.json"),
                     "--out", str(tmp_path / "out")]) == 0
    assert calls == []


@pytest.mark.parametrize("encode", [
    pytest.param(lambda text: text.replace(b"\n", b"\r\n"), id="CRLF"),
    pytest.param(lambda text: b"\xef\xbb\xbf" + text, id="BOM"),
])
def test_config_digest_is_the_hash_of_the_file_bytes(tmp_path, capsys,
                                                     encode):
    original = CONFIG_DIR / "ideal_threefold.json"
    copy = tmp_path / "config.json"
    copy.write_bytes(encode(original.read_bytes()))
    for cfg_path, out in ((original, "lf"), (copy, "copy")):
        assert cli.main(["scan", str(cfg_path),
                         "--out", str(tmp_path / out)]) == 0
    manifest = json.loads((tmp_path / "copy" / "manifest.json").read_text())
    assert manifest["config_digest"] == hashlib.sha256(
        copy.read_bytes()).hexdigest()
    for name in ("curve.csv", "fit.json"):
        assert ((tmp_path / "copy" / name).read_bytes()
                == (tmp_path / "lf" / name).read_bytes()), name


def test_fit_reads_a_curve_csv_with_a_bom(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["scan", str(CONFIG_DIR / "ideal_threefold.json"),
                     "--out", str(out)]) == 0
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (out / "curve.csv").read_bytes())
    capsys.readouterr()
    reports = []
    for csv_path in (out / "curve.csv", bom):
        assert cli.main(["fit", str(csv_path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_failed_replace_leaves_no_temporary_sibling(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        cli._atomic_write(tmp_path / "fit.json", "{}\n")
    assert list(tmp_path.iterdir()) == []


def test_write_never_removes_a_name_it_did_not_create(tmp_path, monkeypatch):
    # a temporary name that is already taken is refused, and kept
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f"fit.json.{bytes(8).hex()}"
    taken.write_text("not ours")
    with pytest.raises(FileExistsError):
        cli._atomic_write(tmp_path / "fit.json", "{}\n")
    assert sorted(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "not ours"


@pytest.mark.parametrize("mode", ["analytic", "mc"])
def test_scan_runs_the_engine_once(tmp_path, monkeypatch, mode):
    # the curve runs the engine once; the accidental floor splits nothing
    calls = []
    real = fock.beamsplitter_amplitudes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fock, "beamsplitter_amplitudes", counting)
    config = CONFIG_DIR / "lab_fivefold.json"
    runner._coincidence_probs(cli.parse_config(json.loads(config.read_text())))
    per_engine = len(calls)
    calls.clear()
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(config), "--mode", mode,
                     "--out", str(out_dir)]) == 0
    assert len(calls) == per_engine > 0
    report = json.loads((out_dir / "fit.json").read_text())
    assert report["accidental_hz"] > 0.0


def test_scan_fivefold_at_signal_810_converges(tmp_path):
    cfg = base_config(scheme="fivefold",
                      delays={"min_um": -300, "max_um": 300, "step_um": 30})
    cfg["filters"]["signal_nm"] = 810
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "fit.json").read_text())["net"]["converged"]


def test_module_entry_point_prints_no_runtime_warning(tmp_path):
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
    # delays beyond about 1.3e154 um square past the float range, where
    # the overlap is exactly 0
    data = json.loads((CONFIG_DIR / "ideal_threefold.json").read_text())
    data["delays"] = {"min_um": -1e300, "max_um": 1e300, "step_um": 1e299}
    proc = subprocess.run(
        [sys.executable, "-m", "mandeldip.cli", "scan",
         str(write_config(tmp_path, data)), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


def loads_numpy_random(statement):
    """Whether `statement`, run in a fresh interpreter, loads numpy.random."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout.strip().lower())


def test_importing_the_cli_loads_no_numpy_random():
    # numpy.random adds about 4 ms to every process start; only a scan
    # that draws loads it
    if loads_numpy_random("import numpy"):
        pytest.skip("importing numpy alone loads numpy.random")
    assert loads_numpy_random("import mandeldip.cli") is False


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


FOUR_DETECTORS = [{"eta": 0.3}] * 4


@pytest.mark.parametrize("override, named", [
    pytest.param({"sources": [{"P": None}, {"P": 0.04}]}, "'P'", id="P-null"),
    pytest.param({"sources": [{"P": "0.04"}, {"P": 0.04}]}, "'P'",
                 id="P-string"),
    pytest.param({"sources": [0.04, {"P": 0.04}]}, "sources[0]",
                 id="source-number"),
    pytest.param({"detectors": [0.1] + FOUR_DETECTORS[1:]},
                 "detectors[Ge-1310]", id="detector-number"),
    pytest.param({"detectors": [{"eta": True}] + FOUR_DETECTORS[1:]}, "'eta'",
                 id="eta-bool"),
    pytest.param({"delays": None}, "'delays'", id="delays-null"),
    pytest.param({"mc": []}, "'mc'", id="mc-list"),
    pytest.param({"mc": {"pulses_per_point": 1e30}}, "pulses_per_point",
                 id="pulses-beyond-int64"),
    pytest.param({"mc": {"seed": 1.5}}, "'seed'", id="seed-fraction"),
    pytest.param({"small_eta": "false"}, "'small_eta'", id="small_eta-string"),
    pytest.param({"max_pairs": 2.7}, "'max_pairs'", id="max_pairs-fraction"),
    pytest.param({"pulse_rate_hz": 10 ** 400}, "'pulse_rate_hz'",
                 id="pulse_rate-beyond-float"),
    pytest.param({"detectors": [{"eta": 10 ** 400}] + FOUR_DETECTORS[1:]},
                 "'eta'", id="eta-beyond-float"),
    pytest.param({"pulse_rate_hz": math.inf}, "'pulse_rate_hz'",
                 id="pulse_rate-1e400"),
    pytest.param({"pulse_rate_hz": math.nan}, "'pulse_rate_hz'",
                 id="pulse_rate-NaN"),
    pytest.param({"spectral_mismatch": math.nan}, "'spectral_mismatch'",
                 id="spectral_mismatch-NaN"),
    # an infinite grid end once kept the grid loop appending without end
    pytest.param({"delays": {"min_um": -300, "max_um": math.inf,
                             "step_um": 30}}, "'max_um'", id="max_um-1e400"),
    pytest.param({"max_pair": 8}, "unknown key 'max_pair' in config",
                 id="max_pair-unknown"),
    pytest.param({"mc": {"pulses_per_point": 50000, "sed": 5}},
                 "unknown key 'sed' in mc", id="mc-sed-unknown"),
    pytest.param({"sources": [{"zeta": 0.2, "P": 0.04}, {"P": 0.04}]},
                 "unknown key 'zeta' in sources[0]", id="zeta-and-P"),
    pytest.param({"sources": [{}, {"P": 0.04}]},
                 "missing key 'P' in sources[0]", id="source-empty"),
    # step_um below the float spacing: 1e17 + 1 == 1e17
    pytest.param({"delays": {"min_um": 1e17, "max_um": 1e17 + 100,
                             "step_um": 1}}, "delays", id="grid-stuck"),
    pytest.param({"delays": {"min_um": 0, "max_um": 1e6, "step_um": 1e-3}},
                 "delays", id="grid-1e9-points"),
    # a value out of its range names the section that holds it
    pytest.param({"detectors": FOUR_DETECTORS[:2] + [{"eta": 1.5}]
                  + FOUR_DETECTORS[3:]},
                 "detectors[InGaAs-1550-1]: efficiency", id="eta-1.5"),
    pytest.param({"sources": [{"P": 0.04}, {"P": 1.5}]},
                 "sources[1]: pair probability", id="P-1.5"),
    pytest.param({"scheme": "fourfold"}, "config: scheme kind",
                 id="scheme-fourfold"),
    pytest.param({"filters": {**base_config()["filters"], "signal_fwhm_nm": -1}},
                 "filters: filter bandwidth", id="signal_fwhm-negative"),
    pytest.param({"filters": {**base_config()["filters"], "pump_fwhm_nm": 0}},
                 "filters: pump_fwhm_nm must be positive", id="pump_fwhm-zero"),
    pytest.param({"spectral_mismatch": 3}, "config: spectral_mismatch",
                 id="spectral_mismatch-3"),
    pytest.param({"sources": [{"P": 0.04}]},
                 "'sources' must be a list of two entries", id="one-source"),
    pytest.param({"sources": [{"P": 0.04}] * 3},
                 "'sources' must be a list of two entries", id="three-sources"),
    pytest.param({"detectors": FOUR_DETECTORS[:3]},
                 "'detectors' must list 4 entries", id="three-detectors"),
    pytest.param({"detectors": FOUR_DETECTORS + FOUR_DETECTORS[:1]},
                 "'detectors' must list 4 entries", id="five-detectors"),
])
def test_scan_rejects_config_values_of_the_wrong_type(tmp_path, capsys,
                                                       monkeypatch, override,
                                                       named):
    def engine(cfg):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(runner, "_coincidence_probs", engine)
    cfg_path = write_config(tmp_path,
                            base_config(**{"small_eta": False, **override}))
    # json writes inf as Infinity; the file holds the overflowing literal
    cfg_path.write_text(cfg_path.read_text().replace("Infinity", "1e400"))
    assert cli.main(["scan", str(cfg_path), "--mode", "mc",
                     "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert named in err["error"]


@pytest.mark.parametrize("max_pairs", [10 ** 400, runner.MAX_PAIRS_LIMIT + 1],
                         ids=["10**400", "limit+1"])
def test_scan_rejects_max_pairs_beyond_the_limit(tmp_path, capsys,
                                                 monkeypatch, max_pairs):
    def engine(cfg):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(runner, "_coincidence_probs", engine)
    cfg_path = write_config(tmp_path, base_config(max_pairs=max_pairs))
    assert cli.main(["scan", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "max_pairs" in err["error"]
    limit = cli.parse_config(base_config(max_pairs=runner.MAX_PAIRS_LIMIT))
    assert limit.max_pairs == runner.MAX_PAIRS_LIMIT


def filters(**widths):
    return {**base_config()["filters"], **widths}


def sources_with(index, p):
    sources = [{"P": 0.04}, {"P": 0.04}]
    sources[index] = {"P": p}
    return sources


BAD_P = (-0.01, 1.0, 1.5, math.nan, math.inf, -math.inf)
BAD_FILTER = (0, 0.0, -1.0, math.nan, math.inf, -math.inf)


# A value out of the range of a source, a filter or the scheme: the
# config override that the scan refuses, the section its error names, and
# the fields that give `ExperimentConfig` the same fault when it is built
# directly, non-finite values too, which a config cannot hold
@pytest.mark.parametrize("override, section, direct", [
    *(pytest.param({"sources": sources_with(i, 1.5)}, f"sources[{i}]",
                   [{"pair_probabilities": (p, 0.04) if i == 0 else (0.04, p)}
                    for p in BAD_P],
                   id=f"sources[{i}]") for i in (0, 1)),
    *(pytest.param({"filters": filters(**{key: 0})}, "filters",
                   [{key: value} for value in BAD_FILTER], id=key)
      for key in ("signal_nm", "signal_fwhm_nm", "herald_nm",
                  "herald_fwhm_nm", "pump_fwhm_nm")),
    pytest.param({"scheme": "fourfold"}, "config",
                 [{"scheme": name} for name in ("fourfold", "Fivefold", "")],
                 id="scheme"),
])
def test_experiment_config_refuses_with_the_scan_message(tmp_path, capsys,
                                                         override, section,
                                                         direct):
    out_dir = tmp_path / "x"
    cfg_path = write_config(tmp_path, base_config(**override))
    assert cli.main(["scan", str(cfg_path), "--out", str(out_dir)]) == 2
    printed = json.loads(capsys.readouterr().err)["error"]
    assert printed.startswith(f"{section}: ")
    assert not out_dir.exists()
    fields = vars(cli.parse_config(base_config()))
    for change in direct:
        with pytest.raises(ValueError) as refused:
            runner.ExperimentConfig(**{**fields, **change})
        assert str(refused.value) == printed, change


@pytest.mark.parametrize("override, args, named", [
    pytest.param({"small_eta": True}, ["--mode", "mc"], "finite efficiencies",
                 id="mc-small-eta"),
    # a source gives P only: zeta 25 would make P = tanh^2(25) round to
    # 1.0, where the geometric law has no mass to normalise
    pytest.param({"sources": [{"zeta": 25}, {"P": 0.04}]}, [],
                 "unknown key 'zeta' in sources[0]", id="zeta-25"),
    pytest.param({"sources": [{"zeta": 25}, {"P": 0.04}]}, ["--mode", "mc"],
                 "unknown key 'zeta' in sources[0]", id="mc-zeta-25"),
    # filter widths whose dip width has no positive finite float square:
    # an overflowing bandwidth or coherence length, an infinite coherence
    # length (a flat threefold curve) or a zero variance (a NaN at delay 0)
    pytest.param({"filters": filters(signal_fwhm_nm=1e-200)}, [],
                 "dip width", id="signal-fwhm-1e-200"),
    pytest.param({"filters": filters(signal_fwhm_nm=1e-200),
                  "scheme": "fivefold"}, [], "dip width",
                 id="fivefold-signal-fwhm-1e-200"),
    pytest.param({"filters": filters(herald_fwhm_nm=1e-200),
                  "scheme": "fivefold"}, [], "dip width",
                 id="fivefold-herald-fwhm-1e-200"),
    pytest.param({"filters": filters(signal_fwhm_nm=1e-320)}, [],
                 "dip width", id="signal-fwhm-1e-320"),
    pytest.param({"filters": filters(signal_fwhm_nm=1e-320),
                  "scheme": "fivefold"}, [], "dip width",
                 id="fivefold-signal-fwhm-1e-320"),
    pytest.param({"filters": filters(signal_fwhm_nm=1e300)}, [],
                 "dip width", id="signal-fwhm-1e300"),
    pytest.param({"filters": filters(signal_fwhm_nm=1e300,
                                     herald_fwhm_nm=1e300),
                  "scheme": "fivefold"}, [], "dip width",
                 id="fivefold-both-fwhm-1e300"),
    pytest.param({}, ["--mode", "mc", "--seed", "-1"], "non-negative",
                 id="mc-negative-seed"),
    pytest.param({"delays": {"min_um": -20, "max_um": 20, "step_um": 20}}, [],
                 f"at least {analysis.MIN_FIT_POINTS} points",
                 id="three-point-grid"),
])
def test_scan_refuses_before_the_engine_runs(tmp_path, capsys, monkeypatch,
                                             override, args, named):
    def engine(cfg):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(runner, "_coincidence_probs", engine)
    cfg_path = write_config(tmp_path,
                            base_config(**{"small_eta": False, **override}))
    out_dir = tmp_path / "out"
    assert cli.main(["scan", str(cfg_path), *args,
                     "--out", str(out_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert named in err["error"]
    assert not out_dir.exists()


@pytest.mark.parametrize("scheme", ["threefold", "fivefold"])
def test_representable_filter_widths_still_scan(tmp_path, scheme):
    # a dip far wider than the grid is flat, not refused
    cfg = base_config(scheme=scheme, filters=filters(signal_fwhm_nm=1e-150))
    out_dir = tmp_path / "out"
    with pytest.warns(UserWarning, match="flat curve"):
        assert cli.main(["scan", str(write_config(tmp_path, cfg)),
                         "--out", str(out_dir)]) == 0
    curve = cli.read_curve_csv(out_dir / "curve.csv")
    assert len(set(curve.rates_hz)) == 1


def test_scan_rejects_a_negative_mc_seed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(small_eta=False))
    assert cli.main(["scan", str(cfg_path), "--mode", "mc", "--seed", "-1",
                     "--out", str(tmp_path / "mc")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert not (tmp_path / "mc").exists()
    # an analytic scan draws nothing, so its seed is only recorded
    assert cli.main(["scan", str(cfg_path), "--seed", "-1",
                     "--out", str(tmp_path / "analytic")]) == 0
    manifest = json.loads((tmp_path / "analytic" / "manifest.json").read_text())
    assert manifest["seed"] == -1


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


def test_fit_of_a_curve_without_counts_does_not_converge(tmp_path, capsys):
    csv_path = tmp_path / "zeros.csv"
    rows = "\n".join(f"{d},0,0" for d in range(-60, 61, 20))
    csv_path.write_text("delay_um,rate_hz,err_hz\n" + rows + "\n")
    assert cli.main(["fit", str(csv_path)]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_fit_rejects_bad_header(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("a,b,c\n1,2,3\n")
    assert cli.main(["fit", str(csv_path)]) == 2


def test_config_without_optional_keys_takes_the_dataclass_defaults():
    cfg = base_config()
    for key in ("mc", "pulse_rate_hz", "collection_efficiency", "small_eta"):
        del cfg[key]
    for detector in cfg["detectors"]:
        del detector["dark_prob"]
    parsed = cli.parse_config(cfg)
    fields = dataclasses.fields(runner.ExperimentConfig)
    defaults = {f.name: f.default for f in fields
                if f.default is not dataclasses.MISSING}
    # the fields with a default are exactly the keys a config may leave out
    _, optional = cli._SCHEMA["config"]
    assert defaults.keys() == (optional.keys() - {"mc"}
                               | cli._SCHEMA["mc"][1].keys())
    # and every other field comes from a key that a config must set
    must_set = {"pair_probabilities": (None, "sources"),
                "signal_nm": ("filters", "signal_nm"),
                "signal_fwhm_nm": ("filters", "signal_fwhm_nm"),
                "herald_nm": ("filters", "herald_nm"),
                "herald_fwhm_nm": ("filters", "herald_fwhm_nm"),
                "pump_fwhm_nm": ("filters", "pump_fwhm_nm"),
                "detectors": (None, "detectors"), "scheme": (None, "scheme"),
                "delays_um": (None, "delays")}
    assert {f.name for f in fields} - defaults.keys() == must_set.keys()
    for section, key in must_set.values():
        missing = base_config()
        del (missing[section] if section else missing)[key]
        with pytest.raises(cli.ConfigError, match=f"missing key '{key}'"):
            cli.parse_config(missing)
    for name in ("pulses_per_point", "seed", "pulse_rate_hz",
                 "collection_efficiency", "polarization_angle_rad",
                 "spectral_mismatch", "max_pairs", "small_eta"):
        # repr tells 1 from 1.0, as the experiment digest does
        assert repr(getattr(parsed, name)) == repr(defaults[name]), name
    dark = {f.name: f.default for f in dataclasses.fields(DetectorModel)}
    for detector in parsed.detectors.values():
        assert repr(detector.dark_prob) == repr(dark["dark_prob"])


LAB_FIVEFOLD = json.loads((CONFIG_DIR / "lab_fivefold.json").read_text())


@pytest.mark.parametrize("delays, expected", [
    pytest.param(LAB_FIVEFOLD["delays"],
                 tuple(map(float, range(-500, 491, 33))), id="lab_fivefold"),
    pytest.param({"min_um": -0.5, "max_um": 0.5, "step_um": 0.1},
                 tuple(k / 10 for k in range(-5, 6)), id="-0.5..0.5-by-0.1"),
    pytest.param({"min_um": 0, "max_um": 1, "step_um": 0.3},
                 (0.0, 0.3, 0.6, 0.9), id="0..1-by-0.3"),
])
def test_delay_grid_points(delays, expected):
    grid = cli.parse_config(base_config(delays=delays)).delays_um
    assert grid == expected
    # a zero delay is +0.0, so curve.csv writes it as 0, never -0
    assert all(math.copysign(1.0, d) == 1.0 for d in grid if d == 0.0)


def test_shipped_configs_parse():
    for name in ("ideal_threefold.json", "ideal_fivefold.json",
                 "lab_fivefold.json"):
        data = json.loads((CONFIG_DIR / name).read_text())
        cfg = cli.parse_config(data)
        assert len(cfg.delays_um) >= 5


@pytest.mark.parametrize("bad_row, message", [
    ("1,2", "line 12"),              # too few fields
    ("0,nan,1", "finite"),           # a rate that passes r < 0
    ("0,100,inf", "finite"),         # an error that would weigh 0
    ("inf,100,1", "finite"),
])
def test_fit_rejects_malformed_rows(tmp_path, capsys, bad_row, message):
    delays = np.linspace(-300, 300, 21)
    rates = dip_model(delays, 160.0, 0.28, 60.0)
    lines = ["delay_um,rate_hz,err_hz"] + [f"{d},{r},1" for d, r in
                                           zip(delays, rates)]
    lines[11] = bad_row
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", str(csv_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert message in err["error"]


@pytest.mark.parametrize("text, message", [
    pytest.param("delay_um,rate_hz,err_hz\n", "no data rows", id="header-only"),
    pytest.param("delay_um,rate_hz,err_hz\n\n\n", "no data rows",
                 id="header-and-blank-lines"),
    pytest.param("delay_um,rate_hz,err_hz\n"
                 + "".join(f"0,{r},1\n" for r in (90, 95, 100, 105, 110)),
                 "at least two distinct delays", id="one-delay"),
    pytest.param("delay_um,rate_hz,err_hz\n" + "0,100,1\n" * 5,
                 "at least two distinct delays", id="one-delay-flat"),
])
def test_fit_rejects_a_csv_without_a_fittable_curve(tmp_path, capsys, text,
                                                    message):
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text(text)
    assert cli.main(["fit", str(csv_path)]) == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert cli.main(["analytic", "-P", "0.04"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["analytic", "-P", "0.04"]) == 0
    assert built == []


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    cfg = base_config(small_eta=False)
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", str(cfg_path), "--mode", "mc", "--seed", "7",
                     "--out", str(tmp_path / "mc")]) == 0
    out = tmp_path / "default"
    assert cli.main(["scan", str(cfg_path), "--out", str(out)]) == 0
    analytic = tmp_path / "analytic.csv"
    cli.write_curve_csv(runner.dip_curve_analytic(cli.parse_config(cfg)),
                        analytic)
    assert (out / "curve.csv").read_text() == analytic.read_text()
    assert json.loads((out / "manifest.json").read_text())["seed"] == 5


def test_handler_replaced_after_parser_exists_runs(monkeypatch, capsys):
    assert cli.main(["analytic", "-P", "0.04"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_fit", lambda args: seen.append(args.csv) or 0)
    assert cli.main(["fit", "curve.csv"]) == 0
    assert seen == ["curve.csv"]
