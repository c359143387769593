"""Acceptance gate.

One test per shipping criterion, independent of the unit suite: each
builds what it needs from the public API, pins its tolerance, and
enforces its wall-clock budget. `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.
"""

import json
import time
from contextlib import contextmanager

import pytest

import peakfn
from peakfn import (HypothesisConstants, Schedule, WeightEngine, build, cli,
                    derive_constants, derive_pq, make_grid, synthetic_family)
from peakfn._kernels import choose_l_sweep
from peakfn.certificates import run_all
from peakfn.hypothesis import GUARD, P_GRID, first_shell_margin

REF = HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0)


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def ref_consts():
    consts, report = derive_constants(REF)
    assert report["eps_condition"]["passed"]
    return consts


def test_criterion_1_exponent_identities():
    p, q = derive_pq(0.75, 4.0)
    assert (p, q) == (0.25, 0.9375)
    assert abs((1.0 + p) * 0.75 - q) <= 1e-12
    assert abs((1.0 - q) - p / 4.0) <= 1e-12


def test_criterion_2_schedule_oracle_equivalence(ref_consts):
    with budget(1.0):
        sched = Schedule(ref_consts)
        assert sched.log_inv_radius(1) == pytest.approx(
            2.302585092994046, rel=1e-12)
        assert sched.log_inv_radius(2) == pytest.approx(
            5.991465, rel=1e-6)
        closed = sched.log_inv_radii_closed(200)
        for m in range(1, 201):
            rec = sched.log_inv_radius(m)
            assert rec == pytest.approx(closed[m - 1], rel=1e-9), f"m={m}"


def test_criterion_3_partial_sum_and_power_bounds(ref_consts):
    with budget(10.0):
        sched = Schedule(ref_consts)
        for p in P_GRID:
            rep = sched.check_sum_brackets(10_000, p)
            assert rep["passed"], f"brackets fail at p={p}"
            margin, arg = choose_l_sweep(1000, p, 5.0)
            assert margin > GUARD, f"power bound fails at p={p}, m={arg}"


def test_criterion_4_integral_equation_residual(ref_consts):
    with budget(5.0):
        eng = WeightEngine(ref_consts)
        for x in (0.0, 1.0, 5.0, 25.0):
            res = eng.integral_equation_residual(x, x_offset=50.0)
            assert res["relative_residual"] <= 1e-6, f"x={x}"


def test_criterion_5_certificate_battery(ref_consts):
    with budget(30.0):
        assert first_shell_margin(0.5, 1.0, 2.0, 0.1) == pytest.approx(
            0.0406, abs=5e-4)
        assert first_shell_margin(0.5, 1.0, 2.0, 0.2) < 0.0
        report = run_all(WeightEngine(ref_consts))
        by_name = {r["name"]: r for r in report.records}
        eps = by_name["eps-condition"]
        assert eps["passed"] and eps["range"] == "all m >= 3"
        assert eps["min_rel_margin"] > GUARD
        for name in ("partial-sum-brackets", "radius-bound", "claim-1"):
            assert by_name[name]["passed"]
            assert by_name[name]["range"].startswith("all m >= ")
        assert by_name["claim-1"]["min_rel_margin"] > GUARD
        c2 = by_name["claim-2"]
        assert c2["passed"] and c2["range"] == "all m >= 2"
        assert c2["min_rel_margin"] > GUARD


def test_criterion_6_normalizer_enclosure(ref_consts):
    with budget(10.0):
        # the normalizer build uses: the head's prefix sum plus its tail
        eng = WeightEngine(ref_consts)
        coarse = eng.sigma_prefix(1000) + eng.tail(1000)
        fine = eng.sigma_prefix(10_000) + eng.tail(10_000)
        relwidth = (coarse.hi - coarse.lo) / coarse.lo
        assert relwidth <= 1e-3
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_criterion_7_family_audits(ref_consts):
    with budget(30.0):
        fam = synthetic_family(ref_consts)
        radii = tuple(10.0 ** (-k) for k in range(1, 7))
        eps_grid = tuple(round(0.01 * i, 2) for i in range(1, 100))
        rep = peakfn.audit_family(fam, radii=radii, grid_size=1000,
                                  eps_grid=eps_grid)
        assert rep.passed, rep.failures
        disk = peakfn.disk_exponential_family(ref_consts)
        rep2 = peakfn.audit_family(disk, radii=(0.05, 0.1, 0.2),
                                   grid_size=10_000)
        assert rep2.passed, rep2.failures


def test_criterion_8_peaking_on_log_grid(ref_consts):
    with budget(60.0):
        fam = synthetic_family(ref_consts)
        ser = build(fam, n_terms=100)
        at_peak = ser.evaluate(0.0)
        assert at_peak.F.re.contains(1.0) and at_peak.F.im.contains(0.0)
        grid = make_grid(fam, "log", 1e-30, 1.0, 500)
        assert len(grid) == 500
        for y in grid:
            res = ser.evaluate(y)
            assert res.abs_F.hi < 1.0, f"y={y}"
            if y.real >= 0.1:
                width = res.abs_F.hi - res.abs_F.lo
                assert abs(res.abs_F.hi - 0.5) <= width, f"y={y}"
                assert abs(res.abs_F.lo - 0.5) <= width, f"y={y}"


def test_criterion_9_determinism_and_exit_codes(tmp_path):
    with budget(60.0):
        cfg = tmp_path / "ref.json"
        cfg.write_text(json.dumps(
            {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}) + "\n")
        ser = tmp_path / "series.json"
        assert cli.main(["build", "--config", str(cfg), "--terms", "80",
                         "--series", str(ser),
                         "--out", str(tmp_path / "b.json")]) == 0

        pairs = {}
        for tag in ("1", "2"):
            c = tmp_path / f"cert{tag}.json"
            e = tmp_path / f"eval{tag}.csv"
            v = tmp_path / f"ver{tag}.json"
            assert cli.main(["certify", "--config", str(cfg),
                             "--out", str(c)]) == 0
            assert cli.main(["eval", "--config", str(cfg),
                             "--series", str(ser),
                             "--grid", "log:1e-20:1.0:100",
                             "--out", str(e)]) == 0
            assert cli.main(["verify", "--config", str(cfg),
                             "--series", str(ser),
                             "--grid", "log:1e-20:1.0:100",
                             "--out", str(v)]) == 0
            pairs[tag] = (c.read_bytes(), e.read_bytes(), v.read_bytes())
        assert pairs["1"] == pairs["2"]

        # exit 1: invalid hypothesis constant
        bad1 = tmp_path / "bad-alpha.json"
        bad1.write_text(json.dumps(
            {"alpha": 1.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}) + "\n")
        assert cli.main(["params", "--config", str(bad1)]) == 1

        # exit 2: valid constants failing a certificate
        bad2 = tmp_path / "bad-d.json"
        bad2.write_text(json.dumps(
            {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0,
             "D": 0.2}) + "\n")
        assert cli.main(["params", "--config", str(bad2)]) == 2

        bad3 = tmp_path / "bad-m.json"
        bad3.write_text(json.dumps(
            {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0,
             "M": 1.01}) + "\n")
        assert cli.main(["certify", "--config", str(bad3)]) == 2
