"""CLI behavior: exit codes, report payloads, CSV shape, and byte-level
determinism of every emitted artifact."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peakfn
from peakfn import cli, series as series_mod


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
    rc = cli.main(["certify", "--config", str(p)])
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


COMMANDS = ["params", "certify", "build", "eval", "verify"]


# quad_rel_tol: the quadrature width is fixed inside the kernel; out: the
# report path is the --out flag, and the key was never read; N, grid and
# series: the head length, the grid and the series path are the flags
# --terms, --grid and --series, each set in one place; m_max: claim 2 is
# proved for every m, and the shrink inequality's head range is a constant
@pytest.mark.parametrize("key,value,command", [
    *(pytest.param("quad_rel_tol", 1e-10, c, id=c) for c in COMMANDS),
    *(pytest.param("out", "cfgout.json", c, id=f"out-{c}")
      for c in COMMANDS),
    *(pytest.param(key, value, c, id=f"{key}-{c}") for c in COMMANDS
      for key, value in (("N", 100), ("grid", "log:1e-30:1:500"),
                         ("series", "s.json"), ("m_max", 120))),
])
def test_removed_quad_rel_tol_key(tmp_path, capsys, monkeypatch, key, value,
                                  command):
    monkeypatch.chdir(tmp_path)
    p = write_cfg(tmp_path, **{key: value})
    assert cli.main([command, "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown keys: [{key!r}]" in captured.err
    assert not (tmp_path / "cfgout.json").exists()


@pytest.mark.parametrize("argv,config", [
    (["params", "--m-max", "2"], {"M": 4}),
    (["params", "--m-max", "2"], {}),
    (["params", "--m-max", "0"], {}),
    (["params", "--m-max=-5"], {"M": 4}),
    (["certify", "--m-max", "2"], {}),
    (["params"], {"m_max": 2}),
    (["certify"], {"m_max": 0}),
    (["params", "--m-max=40"], {}),
    (["certify", "--m-max", "400"], {}),
    (["certify", "--m-max", "5", "--config", "CFG", "--m-max", "12"], {}),
], ids=["params-M", "params", "params-0", "params-negative-M", "certify",
        "config-params", "config-certify", "params-40", "certify-400",
        "certify-repeated"])
def test_m_max_refused_at_any_value(tmp_path, capsys, argv, config):
    # m_max is no setting: the flag is an unrecognized argument and the
    # config key an unknown one, whatever the value, both exit code 1
    p = write_cfg(tmp_path, **config)
    if "--config" not in argv:
        argv = argv + ["--config", "CFG"]
    try:
        rc = cli.main([str(p) if a == "CFG" else a for a in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if "m_max" in config:
        assert "unknown keys: ['m_max']" in captured.err
    else:
        assert "unrecognized argument: --m-max" in captured.err


def test_usage_errors_exit_1(cfg_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", str(cfg_path)])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["params"])
    assert exc.value.code == 1


NONE = dict.fromkeys(["out", "terms", "series", "grid"])


@pytest.mark.parametrize("argv,command,expect", [
    (["params", "--config", "c.json"], "params", {"config": "c.json"}),
    (["params", "--out=r.json", "--config=c.json"], "params",
     {"config": "c.json", "out": "r.json"}),
    (["certify", "--out", "r.json", "--config", "c.json", "--out", "q.json"],
     "certify", {"config": "c.json", "out": "q.json"}),
    (["build", "--terms", "5", "--series=s.json", "--config", "c.json",
      "--terms", "80"], "build",
     {"config": "c.json", "terms": 80, "series": "s.json"}),
    (["eval", "--grid=log:1e-6:1:5", "--config", "a.json", "--series",
      "s.json", "--config=c.json"], "eval",
     {"config": "c.json", "series": "s.json", "grid": "log:1e-6:1:5"}),
    (["verify", "--config", "c.json", "--series", "s.json", "--grid",
      "linear:0.5:1:3", "--out="], "verify",
     {"config": "c.json", "series": "s.json", "grid": "linear:0.5:1:3",
      "out": ""}),
    (["build", "--config", "c.json", "--series=-odd.json"], "build",
     {"config": "c.json", "series": "-odd.json"}),
])
def test_accepted_command_lines(argv, command, expect):
    # any order, either value form, the last of a repeated option wins
    got_command, got = cli.parse_args(argv)
    assert got_command == command
    options = {o[2:].replace("-", "_") for o in cli.COMMANDS[command][2]}
    assert got == {k: v for k, v in {**NONE, **expect}.items()
                   if k in options}


@pytest.mark.parametrize("argv,named", [
    ([], "required: command"),
    (["frobnicate", "--config", "{cfg}"], "invalid command 'frobnicate'"),
    (["--config", "{cfg}", "params"], "invalid command '--config'"),
    (["params"], "required: --config"),
    (["params", "--config", "{cfg}", "--terms", "5"],
     "unrecognized argument: --terms"),
    (["eval", "--config", "{cfg}", "--bogus", "1"],
     "unrecognized argument: --bogus"),
    (["params", "--config", "{cfg}", "stray"], "unrecognized argument: stray"),
    (["params", "--config"], "argument --config: expected one argument"),
    (["build", "--config", "{cfg}", "--series", "--terms", "5"],
     "argument --series: expected one argument"),
    (["build", "--config", "{cfg}", "--terms", "x"],
     "argument --terms: invalid int value: 'x'"),
    (["certify", "--config", "{cfg}", "--m-max=4.5"],
     "unrecognized argument: --m-max=4.5"),
    (["params", "--conf", "{cfg}"], "unrecognized argument: --conf"),
], ids=["no-command", "unknown-command", "option-first", "no-config",
        "other-command-option", "unknown-option", "stray-token",
        "missing-value", "option-as-value", "terms-x", "m-max-float",
        "abbreviation"])
def test_refused_command_lines(cfg_path, tmp_path, capsys, argv, named):
    out = tmp_path / "out.json"
    argv = [a.replace("{cfg}", str(cfg_path)) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)] if argv else argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: peakfn ")
    assert error.startswith("peakfn: error: ") and named in error
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [
    [c, flag] for c in COMMANDS for flag in ("-h", "--help")] + [
    ["build", "--config", "c.json", "--terms", "x", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: peakfn ")
    if argv[0] in cli.COMMANDS:
        names = list(cli.COMMANDS[argv[0]][2])
    else:
        names = list(cli.COMMANDS)
    for name in names:
        assert re.search(rf"^  {name}\b", captured.out, re.M), name


def test_import_leaves_argparse_out():
    # building argparse parsers was most of what params cost; neither the
    # import nor a parse may pull argparse or its gettext in again
    src = str(Path(peakfn.__file__).resolve().parents[1])
    code = ("import sys, peakfn.cli\n"
            "peakfn.cli.parse_args(['verify', '--config', 'c.json'])\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_stages_run_without_numpy(cfg_path, tmp_path):
    # numpy's import was about half of a cold start; the package does not
    # depend on it, so neither the import nor params, build and verify
    # (quadrature, weights, grids and evaluation) may load it
    src = str(Path(peakfn.__file__).resolve().parents[1])
    series_path = tmp_path / "series.json"
    code = (
        "import sys, peakfn.cli\n"
        "main = peakfn.cli.main\n"
        f"cfg, ser, out = {str(cfg_path)!r}, {str(series_path)!r}, "
        f"{str(tmp_path / 'out')!r}\n"
        "codes = [main(['params', '--config', cfg, '--out', out]),\n"
        "         main(['build', '--config', cfg, '--terms', '100',\n"
        "               '--series', ser, '--out', out]),\n"
        "         main(['verify', '--config', cfg, '--series', ser,\n"
        "               '--grid', 'log:1e-30:1.0:100', '--out', out])]\n"
        "print(codes, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False\n"


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

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("tamper", ["triple-all", "one-ulp"])
    def test_tampered_series_read_as_built(self, built, tmp_path, command,
                                           tamper):
        # a head of the right length loads whatever its values: eval and
        # verify write the bytes they write on the file build wrote
        cfg, ser, _ = built
        payload = json.loads(ser.read_text())
        if tamper == "triple-all":
            payload["sigma_head"] = [[3.0 * lo, 3.0 * hi]
                                     for lo, hi in payload["sigma_head"]]
        else:
            lo, hi = payload["sigma_head"][0]
            payload["sigma_head"][0] = [math.nextafter(lo, 0.0), hi]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        outs = []
        for path in (ser, bad):
            out = tmp_path / f"{path.stem}.out"
            rc = cli.main([command, "--config", str(cfg), "--series",
                           str(path), "--grid", "log:1e-6:1.0:5",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_head_shorter_than_n_terms_refused(self, built, tmp_path, capsys,
                                               command):
        cfg, ser, _ = built
        payload = json.loads(ser.read_text())
        payload["n_terms"] = 20000
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(payload))
        rc = cli.main([command, "--config", str(cfg), "--series", str(bad),
                       "--grid", "log:1e-6:1.0:5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("log_inv_eps, log_inv_r, sigma_head must hold n_terms = "
                "20000 entries") in captured.err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("extra,named", [
        pytest.param({"alpha": 0.9}, "built from other constants than the "
                     "config's: alpha, D, k differ", id="alpha-0.9"),
        pytest.param({"family": "disk-exp"}, "is for family 'synthetic', "
                     "the config names 'disk-exp'", id="disk-exp"),
    ])
    def test_mismatching_config_refused(self, built, tmp_path, capsys,
                                        command, extra, named):
        _, ser, _ = built
        cfg = write_cfg(tmp_path, **extra)
        rc = cli.main([command, "--config", str(cfg), "--series", str(ser),
                       "--grid", "log:1e-6:1.0:5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

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


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
def test_series_values_are_not_read(tmp_path, command, family):
    # the file supplies N alone: with every sigma end tripled and the
    # normalizer, the tail and the log lists one ulp off, eval and verify
    # write the bytes and exit code they write on the file build wrote
    cfg = write_cfg(tmp_path, family=family)
    ser = tmp_path / "series.json"
    assert cli.main(["build", "--config", str(cfg), "--terms", "60",
                     "--series", str(ser), "--out", str(tmp_path / "b")]) == 0
    payload = json.loads(ser.read_text())
    payload["sigma_head"] = [[3.0 * lo, 3.0 * hi]
                             for lo, hi in payload["sigma_head"]]
    for key in ("normalizer", "tail_after_head", "sigma_prefix_head"):
        lo, hi = payload[key]
        payload[key] = [math.nextafter(lo, -math.inf),
                        math.nextafter(hi, math.inf)]
    for key in ("log_inv_r", "log_inv_eps"):
        payload[key] = [math.nextafter(v, math.inf) for v in payload[key]]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(payload))
    outs = []
    for path in (ser, moved):
        out = tmp_path / f"{path.stem}.out"
        rc = cli.main([command, "--config", str(cfg), "--series", str(path),
                       "--grid", "log:1e-30:1.0:60", "--out", str(out)])
        outs.append((rc, out.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_eval_without_series(cfg_path):
    assert cli.main(["eval", "--config", str(cfg_path)]) == 1


def test_eval_missing_series_file(cfg_path, tmp_path):
    rc = cli.main(["eval", "--config", str(cfg_path),
                   "--series", str(tmp_path / "ghost.json")])
    assert rc == 1


def test_build_without_series_path(cfg_path):
    assert cli.main(["build", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("argv,named", [
    (["build"], "build needs --series PATH"),
    (["eval"], "need --series PATH"),
    (["verify", "--grid", "log:1e-6:1"], "need --series PATH"),
    (["eval", "--series", "{ser}", "--grid", "log:0:1"],
     "must have the form KIND:LO:HI:COUNT"),
    (["verify", "--series", "{ser}", "--grid", "cubic:1e-6:1:5"],
     "grid kind 'cubic'"),
    (["verify", "--series", "{ser}", "--grid", "log:1:1e-6:5"],
     "needs 0 < LO <= HI"),
], ids=["build-no-series", "eval-no-series", "verify-no-series",
        "eval-short-grid", "verify-grid-kind", "verify-grid-order"])
def test_refused_before_any_derivation(cfg_path, tmp_path, capsys,
                                       monkeypatch, argv, named):
    # the series path and the grid spec are read before the constants are
    # derived or the series file is rebuilt, which cost O(N)
    ser = tmp_path / "s.json"
    ser.write_text("{}")

    def unreached(*args, **kwargs):
        raise AssertionError("derivation or rebuild ran before the "
                             "command line was checked")

    monkeypatch.setattr(cli, "derive_constants", unreached)
    monkeypatch.setattr(series_mod, "build", unreached)
    argv = [a.replace("{ser}", str(ser)) for a in argv]
    assert cli.main(argv + ["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
def test_build_refuses_cap_below_family_floor(tmp_path, capsys, family):
    # params and certify pass, but C log^t(1/D) = 0.496 lies below the
    # floor of either family (3/2 and 1), so condition (3) fails at r_1 = D
    p = write_cfg(tmp_path, alpha=0.95, C=0.11, family=family)
    assert cli.main(["params", "--config", str(p)]) == 0
    assert cli.main(["certify", "--config", str(p)]) == 0
    capsys.readouterr()
    rc = cli.main(["build", "--config", str(p), "--terms", "20",
                   "--series", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"family certificate failed: family-{family}" in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
@pytest.mark.parametrize("extra,named", [
    pytest.param({"M": 1.01}, r"certificate battery failed: .*claim-1",
                 id="M-1.01"),
    pytest.param({"L": 0.9}, r"certificate battery failed: radius-bound",
                 id="L-0.9"),
    pytest.param({"alpha": 0.95, "C": 0.11}, r"family certificate failed",
                 id="cap-below-floor"),
])
def test_load_reruns_the_gate(tmp_path, capsys, monkeypatch, command, family,
                              extra, named):
    # a file written with the gate switched off is refused on load, exit 2,
    # naming the certificate that fails, as build would have refused it
    cfg = write_cfg(tmp_path, family=family, **extra)
    # synthetic barriers themselves refuse a cap below 3/2, so that file is
    # the disk-exp one relabelled; the load gate refuses it first
    low_cap = "C" in extra
    writer = "disk-exp" if low_cap else family
    ser = tmp_path / "s.json"
    with monkeypatch.context() as mp:
        mp.setattr(peakfn.certificates, "run_all",
                   lambda engine: peakfn.CertificateReport({}))
        mp.setattr(peakfn.families.BarrierFamily, "certificate",
                   lambda self: {"name": "off", "passed": True})
        assert cli.main(["build", "--config",
                         str(write_cfg(tmp_path, "w.json", family=writer,
                                       **extra)),
                         "--terms", "20", "--series", str(ser)]) == 0
    ser.write_text(ser.read_text().replace(f'"{writer}"', f'"{family}"'))
    capsys.readouterr()
    rc = cli.main([command, "--config", str(cfg), "--series", str(ser),
                   "--grid", "log:1e-6:1.0:5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(named, captured.err), captured.err
    if low_cap:
        assert f"family-{family}" in captured.err


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
         "--config", str(cfg_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


@pytest.mark.parametrize("command", ["params", "certify", "build"])
def test_huge_C_is_infeasible_not_a_hang(tmp_path, command):
    # past C = 9e307 the M search's first candidate 2C overflows to inf,
    # and the cap 2^20 C is inf as well
    p = write_cfg(tmp_path, C=1e308)
    argv = [sys.executable, "-m", "peakfn.cli", command, "--config", str(p)]
    if command == "build":
        argv += ["--series", str(tmp_path / "s.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "no admissible M" in proc.stderr


@pytest.mark.parametrize("command", ["certify", "build"])
def test_one_minus_q_rounding_to_zero_fails_a_record(tmp_path, command):
    # at M = 1e20, q = (t + Mt)/(1 + Mt) rounds to 1: the decay lemma's
    # premise 1 - q > 0 fails, and so does claim 2's e < 1, before any
    # division by 1 - q or 1 - e
    p = write_cfg(tmp_path, M=1e20)
    argv = [sys.executable, "-m", "peakfn.cli", command, "--config", str(p)]
    if command == "build":
        argv += ["--series", str(tmp_path / "s.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if command == "certify":
        payload = json.loads(proc.stdout)
        failing = [r["name"] for r in payload["records"] if not r["passed"]]
        assert "lemma-decay" in failing and "claim-2" in failing
    else:
        assert "lemma-decay" in proc.stderr


@pytest.mark.parametrize("extra,rc", [
    # the first shell clears its guard band relative to its sides (2.5e-76
    # absolute at D = 1e-300)
    pytest.param({"D": 1e-300}, 0, id="D-1e-300"),
    # L far below the radius bound's requirement
    pytest.param({"L": 1e-300}, 2, id="L-1e-300"),
    # q = (t + Mt)/(1 + Mt) rounds to 1 at every M the chooser tries, so
    # the shrink inequality's exponent (m+1)^(1-q) checks nothing
    pytest.param({"C": 1e300}, 2, id="C-1e300"),
])
def test_params_and_certify_agree(tmp_path, capsys, extra, rc):
    p = write_cfg(tmp_path, **extra)
    assert cli.main(["params", "--config", str(p)]) == rc
    assert cli.main(["certify", "--config", str(p)]) == rc


_OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True)


@given(alpha=_OPEN_UNIT, s=st.floats(min_value=0.0, max_value=1.0,
                                     exclude_min=True),
       t=_OPEN_UNIT, big_a=_OPEN_UNIT,
       c=st.floats(min_value=0.0, max_value=1e308, exclude_min=True))
@example(alpha=0.3, s=0.5, t=0.85, big_a=0.7, c=2.0)
@example(alpha=0.3, s=0.5, t=0.9, big_a=0.7, c=2.0)
@example(alpha=0.5, s=1.0, t=0.75, big_a=0.5, c=1e300)
@example(alpha=0.5, s=1.0, t=0.75, big_a=0.5, c=1e308)
@settings(max_examples=100, deadline=None)
def test_random_hypotheses_exit_0_or_2(alpha, s, t, big_a, c):
    # every admissible hypothesis derives, certifies, builds and verifies,
    # or is refused with exit code 2; none raises
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"alpha": alpha, "s": s, "t": t, "A": big_a, "C": c}, fh)
        ser = os.path.join(tmp, "series.json")
        for argv in (["params"], ["certify"],
                     ["build", "--terms", "10", "--series", ser],
                     ["verify", "--series", ser,
                      "--grid", "log:1e-30:1:20"]):
            if argv[0] == "verify" and not os.path.exists(ser):
                break
            rc = cli.main([*argv, "--config", cfg,
                           "--out", os.path.join(tmp, "out")])
            assert rc in (0, 2), argv[0]
