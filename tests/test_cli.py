"""CLI behavior: exit codes, report payloads, CSV shape, and byte-level
determinism of every emitted artifact."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import peakfn
from peakfn import cli


REF_CFG = {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(REF_CFG) + "\n")
    return p


def write_cfg(tmp_path, name="alt.json", **extra):
    p = tmp_path / name
    p.write_text(json.dumps({**REF_CFG, **extra}) + "\n")
    return p


def test_params_reference(cfg_path, capsys):
    rc = cli.main(["params", "--config", str(cfg_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    got = payload["constants"]
    assert (got["D"], got["M"], got["p"], got["q"], got["L"]) == \
        (0.1, 4.0, 0.25, 0.9375, 5.0)
    assert payload["passed"] is True
    assert payload["derivation"]["eps_condition"]["passed"] is True


def test_params_invalid_alpha(tmp_path, capsys):
    p = write_cfg(tmp_path, alpha=1.5)
    rc = cli.main(["params", "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().out == ""


def test_params_override_d_fails_shell(tmp_path, capsys):
    p = write_cfg(tmp_path, D=0.2)
    rc = cli.main(["params", "--config", str(p)])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["derivation"]["D_policy"] == "override"
    assert payload["derivation"]["first_shell_margin"] < 0.0


def test_certify_reference_and_rerun_bytes(cfg_path, tmp_path):
    out1 = tmp_path / "cert1.json"
    out2 = tmp_path / "cert2.json"
    assert cli.main(["certify", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
    assert cli.main(["certify", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True
    names = [r["name"] for r in payload["records"]]
    assert names == ["first-shell", "eps-condition",
                     "radius-recursion-closed-form", "partial-sum-brackets",
                     "radius-bound", "claim-1", "claim-2", "lemma-decay"]


def test_certify_small_L_fails_radius_bound(tmp_path, capsys):
    # L = 0.9 is below the proved requirement of 1 at p = 1/4; the radius
    # bound then breaks near m = 3400, past any finite sweep to m = 1000
    p = write_cfg(tmp_path, L=0.9)
    rc = cli.main(["certify", "--config", str(p)])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    failing = [r["name"] for r in payload["records"] if not r["passed"]]
    assert failing == ["radius-bound"]


def test_certify_near_unit_m_fails_claim1(tmp_path, capsys):
    p = write_cfg(tmp_path, M=1.01)
    rc = cli.main(["certify", "--config", str(p), "--m-max", "40"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    failing = [r["name"] for r in payload["records"] if not r["passed"]]
    assert "claim-1" in failing


def test_certify_malformed_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["certify", "--config", str(p)]) == 1


def test_missing_config_file(tmp_path):
    assert cli.main(["params", "--config", str(tmp_path / "nope.json")]) == 1


def test_unknown_config_key(tmp_path):
    p = write_cfg(tmp_path, zeta=1.0)
    assert cli.main(["params", "--config", str(p)]) == 1


def test_usage_errors_exit_1(cfg_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", str(cfg_path)])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["params"])
    assert exc.value.code == 1


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    cfg = base / "config.json"
    cfg.write_text(json.dumps(REF_CFG) + "\n")
    ser = base / "series.json"
    rc = cli.main(["build", "--config", str(cfg), "--terms", "60",
                   "--series", str(ser), "--out", str(base / "b.json")])
    assert rc == 0
    return cfg, ser, base


class TestPipeline:
    def test_build_summary(self, built):
        cfg, ser, base = built
        assert ser.exists()
        payload = json.loads((base / "b.json").read_text())
        assert payload["passed"] is True
        assert payload["n_terms"] == 60
        lo, hi = payload["normalizer"]
        assert 3.9 < lo <= hi < 4.1

    def test_eval_csv(self, built, tmp_path):
        cfg, ser, _ = built
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        args = ["eval", "--config", str(cfg), "--series", str(ser),
                "--grid", "log:1e-12:1.0:40"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "y,F_re_lo,F_re_hi,F_im_lo,F_im_hi,absF_hi,case,m_of_y"
        assert len(lines) == 41
        for row in lines[1:]:
            cols = row.split(",")
            assert len(cols) == 8
            assert float(cols[5]) < 1.0
            int(cols[7])

    def test_eval_single_forced_point(self, built, capsys):
        cfg, ser, _ = built
        rc = cli.main(["eval", "--config", str(cfg), "--series", str(ser),
                       "--grid", "linear:0.5:0.5:1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        y, re_lo, re_hi, im_lo, im_hi, abs_hi, case, m = lines[1].split(",")
        assert float(y) == 0.5
        assert case == "outside-all-W"
        assert abs(float(abs_hi) - 0.5) < 1e-3
        assert float(re_lo) <= 0.5 + 1e-3 and float(re_hi) >= 0.5 - 1e-3

    def test_verify_reference(self, built, tmp_path):
        cfg, ser, _ = built
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        args = ["verify", "--config", str(cfg), "--series", str(ser),
                "--grid", "log:1e-20:1.0:200"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["passed"] is True
        assert payload["min_margin"] > 0.0
        assert payload["max_abs_hi"] < 1.0
        assert payload["peak_enclosure"]["contains_one"] is True

    def test_eval_bad_grid(self, built):
        cfg, ser, _ = built
        rc = cli.main(["eval", "--config", str(cfg), "--series", str(ser),
                       "--grid", "log:0:1"])
        assert rc == 1

    def test_grid_below_floor(self, built):
        cfg, ser, _ = built
        rc = cli.main(["eval", "--config", str(cfg), "--series", str(ser),
                       "--grid", "log:1e-40:1.0:10"])
        assert rc == 1


def test_eval_without_series(cfg_path):
    assert cli.main(["eval", "--config", str(cfg_path)]) == 1


def test_eval_missing_series_file(cfg_path, tmp_path):
    rc = cli.main(["eval", "--config", str(cfg_path),
                   "--series", str(tmp_path / "ghost.json")])
    assert rc == 1


def test_build_without_series_path(cfg_path):
    assert cli.main(["build", "--config", str(cfg_path)]) == 1


def _declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]["peakfn"]


def _check_console(command, cfg_path, tmp_path, env=None):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        command + ["params", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True
    # a validation error reaches the shell as status 1 via sys.exit(main())
    bad = write_cfg(tmp_path, alpha=1.5)
    proc = subprocess.run(command + ["params", "--config", str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("peakfn: ")


def test_console_script(cfg_path, tmp_path):
    # run the declared entry point through the wrapper setuptools writes for
    # a console script, against the peakfn imported here, without an install
    module, attr = _declared_entry_point().split(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'peakfn'\n"
               f"sys.exit({attr}())\n")
    src = str(Path(peakfn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    _check_console([sys.executable, "-c", wrapper], cfg_path, tmp_path, env)


@pytest.mark.skipif(shutil.which("peakfn") is None,
                    reason="peakfn console script not installed on PATH")
def test_installed_console_script(cfg_path, tmp_path):
    _check_console(["peakfn"], cfg_path, tmp_path)


def test_module_invocation(cfg_path):
    proc = subprocess.run(
        [sys.executable, "-m", "peakfn.cli", "certify",
         "--config", str(cfg_path), "--m-max", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
