"""Certificate battery: REF passes everything with frozen margins; designed
bad constants fail exactly the check they were designed to break."""

import json
import math

import pytest

from peakfn import Constants, Schedule, derive_constants, run_all
from peakfn._kernels import radius_bound_sweep
from peakfn.certificates import (check_claim1, check_claim2, check_eps_condition,
                                 check_first_shell, check_lemma,
                                 check_schedule_identities)
from peakfn.enclosure import Enclosure
from peakfn.hypothesis import HypothesisConstants, eps_exponent_sides


REF = HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0)


@pytest.fixture(scope="module")
def ref_run(ref_constants):
    return run_all(ref_constants, m_max=120)


def test_run_all_passes(ref_run):
    assert ref_run.passed
    assert ref_run.failing() == []
    names = [r["name"] for r in ref_run.records]
    assert names == ["first-shell", "eps-condition",
                     "radius-recursion-closed-form", "partial-sum-brackets",
                     "radius-bound", "claim-1", "claim-2", "lemma-decay"]


def test_report_is_json_serializable(ref_run):
    text = json.dumps(ref_run.to_dict(), sort_keys=True)
    assert '"passed": true' in text


def test_first_shell_record(ref_constants):
    rec = check_first_shell(ref_constants)
    assert rec["passed"]
    assert rec["min_margin"] == pytest.approx(0.0405853312976, rel=1e-9)


def test_first_shell_fails_at_02(ref_constants):
    bad = Constants.from_dict({**ref_constants.to_dict(), "D": 0.2})
    rec = check_first_shell(bad)
    assert not rec["passed"]
    assert rec["min_margin"] == pytest.approx(-0.0328149237559, rel=1e-9)


def test_eps_condition_dual_route(ref_constants):
    # second route: the identity (1+Mt)/(M(1-t)) = 1/p collapses the left
    # coefficient to (1-alpha)/(2p); the chooser's sides must match it
    c = ref_constants
    c1 = (1.0 - c.alpha) / (2.0 * c.p)
    c2 = math.log(1.0 / c.A) * c.s / c.p
    worst = math.inf
    for m in range(3, 121):
        lhs = c1 * (math.pow(m + 1.0, 1.0 - c.q) - math.pow(2.0, 1.0 - c.q))
        rhs = c2 * (math.pow(m - 1.0, c.p) - 1.0)
        got = eps_exponent_sides(c.alpha, c.s, c.t, c.A, c.M, c.p, c.q, m)
        assert got == pytest.approx((lhs, rhs), rel=1e-13, abs=0.0)
        worst = min(worst, (rhs - lhs) / max(abs(lhs), abs(rhs)))
    rec = check_eps_condition(ref_constants, (3, 120))
    assert rec["passed"]
    assert rec["details"]["tail_certificate"]["passed"]
    assert rec["min_rel_margin"] == pytest.approx(worst, rel=1e-12)
    with pytest.raises(ValueError):
        check_eps_condition(ref_constants, (2, 120))


def test_eps_tail_fails_without_exponent_gap(ref_constants):
    # q = 1 - p closes the gap the tail proof needs (and puts m* at 1/0)
    bad = Constants.from_dict({**ref_constants.to_dict(),
                               "q": 1.0 - ref_constants.p})
    rec = check_eps_condition(bad, (3, 120))
    tail = rec["details"]["tail_certificate"]
    assert not tail["exponent_ok"] and tail["m_star"] is None
    assert not tail["passed"] and not rec["passed"]


@pytest.mark.parametrize("p", [-0.25, 1.0, 1.5])
def test_brackets_fail_outside_unit_interval(ref_constants, p):
    bad = Constants.from_dict({**ref_constants.to_dict(), "p": p})
    recs = {r["name"]: r for r in check_schedule_identities(Schedule(bad))}
    assert not recs["partial-sum-brackets"]["passed"]
    assert not recs["radius-bound"]["passed"]


def test_radius_bound_proof_against_sweep(ref_constants):
    # L = 0.9: the sweep to m = 1000 passes, yet the bound breaks further
    # out; only the proof sees it (test_psi_majorizes_radii covers L = 5)
    c = ref_constants
    args = (c.p, c.log_inv_D, c.log_inv_A)
    low = Constants.from_dict({**c.to_dict(), "L": 0.9})
    rec = [r for r in check_schedule_identities(Schedule(low))
           if r["name"] == "radius-bound"][0]
    assert not rec["passed"]
    assert rec["details"]["required"] == 1.0 and rec["details"]["L"] == 0.9
    assert radius_bound_sweep(1000, *args, 0.9)[0] > 0.0
    assert radius_bound_sweep(5000, *args, 0.9)[0] < 0.0


def test_claim1_frozen_margin(engine):
    rec = check_claim1(engine, (1, 120))
    assert rec["passed"]
    # the margin shrinks monotonically toward ~0.5, so the worst index is
    # the range end, and the whole sweep keeps half a unit of clearance
    assert rec["argmin_m"] == 120
    assert rec["min_rel_margin"] == pytest.approx(0.5003867930834139,
                                                  rel=1e-6)
    assert rec["min_rel_margin"] > 0.5


def test_claim1_m1_sides(engine):
    # the m = 1 comparison pinned against the 50-digit oracle
    consts = engine.consts
    psit = Enclosure.from_libm(
        math.pow(engine.schedule.psi(1.0), consts.t), ulps=8)
    lhs = (consts.C * psit.hi - 1.0) * engine.sigma(1).hi
    rhs = 0.25 * engine.tail(1).lo
    assert lhs == pytest.approx(0.4601641151, rel=1e-9)
    assert rhs == pytest.approx(0.9847970969, rel=1e-9)


def test_claim2_frozen_margin(engine):
    rec = check_claim2(engine, (2, 120))
    assert rec["passed"]
    assert rec["argmin_m"] == 3
    assert rec["min_rel_margin"] == pytest.approx(0.9981672559914475,
                                                  rel=1e-6)
    with pytest.raises(ValueError):
        check_claim2(engine, (1, 120))


def test_lemma_battery(engine):
    rec = check_lemma(engine)
    assert rec["passed"]
    assert rec["max_relative_residual"] <= 1e-6
    assert rec["details"]["decay_bound"]["passed"]
    assert rec["details"]["divergence"]["passed"]


def test_claim1_fails_for_small_M(ref_constants):
    # M = 1.01 makes the per-term cap beat the tail: claim 1 must fail
    consts, _ = derive_constants(REF, M=1.01)
    report = run_all(consts, m_max=40)
    assert not report.passed
    assert "claim-1" in report.failing()


def test_run_all_rejects_tiny_m_max(ref_constants):
    with pytest.raises(ValueError):
        run_all(ref_constants, m_max=2)
