"""Certificate battery: REF passes everything with frozen margins; designed
bad constants fail exactly the check they were designed to break."""

import dataclasses
import json
import math

import pytest

from peakfn import Schedule, WeightEngine, derive_constants, run_all
from peakfn._kernels import radius_bound_sweep
from peakfn.certificates import (check_claim1, check_claim2, check_eps_condition,
                                 check_first_shell, check_lemma,
                                 check_schedule_identities)
from peakfn.enclosure import Enclosure
from peakfn.hypothesis import (HypothesisConstants, eps_exponent_sides,
                               rel_margin, strictly_less)


REF = HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0)


@pytest.fixture(scope="module")
def ref_run(ref_constants):
    return run_all(WeightEngine(ref_constants))


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
    bad = dataclasses.replace(ref_constants, D=0.2)
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
    rec = check_eps_condition(ref_constants)
    assert rec["passed"]
    assert rec["details"]["tail_certificate"]["passed"]
    assert rec["min_rel_margin"] == pytest.approx(worst, rel=1e-12)


def test_eps_tail_fails_without_exponent_gap(ref_constants):
    # q = 1 - p closes the gap the tail proof needs (and puts m* at 1/0)
    bad = dataclasses.replace(ref_constants, q=1.0 - ref_constants.p)
    rec = check_eps_condition(bad)
    tail = rec["details"]["tail_certificate"]
    assert not tail["exponent_ok"] and tail["m_star"] is None
    assert not tail["passed"] and not rec["passed"]


@pytest.mark.parametrize("p", [-0.25, 1.0, 1.5])
def test_brackets_fail_outside_unit_interval(ref_constants, p):
    bad = dataclasses.replace(ref_constants, p=p)
    recs = {r["name"]: r for r in check_schedule_identities(Schedule(bad))}
    assert not recs["partial-sum-brackets"]["passed"]
    assert not recs["radius-bound"]["passed"]


def test_radius_bound_proof_against_sweep(ref_constants):
    # L = 0.9: the sweep to m = 1000 passes, yet the bound breaks further
    # out; only the proof sees it (test_psi_majorizes_radii covers L = 5)
    c = ref_constants
    args = (c.p, c.log_inv_D, c.log_inv_A)
    low = dataclasses.replace(c, L=0.9)
    rec = [r for r in check_schedule_identities(Schedule(low))
           if r["name"] == "radius-bound"][0]
    assert not rec["passed"]
    assert rec["details"]["required"] == 1.0 and rec["details"]["L"] == 0.9
    assert radius_bound_sweep(1000, *args, 0.9)[0] > 0.0
    assert radius_bound_sweep(5000, *args, 0.9)[0] < 0.0


def _claim1_sweep(engine, hi=120):
    """The per-index check the claim-1 proof replaced: (C psi(m)^t - 1)
    sigma_m < Mk tail(m) on [1, hi], the left side at its enclosure's upper
    end and the right side at its lower end.  Returns the verdict, the
    smallest relative margin and its index."""
    consts = engine.consts
    ok, min_rel, argmin = True, math.inf, 0
    for m in range(1, hi + 1):
        psit = Enclosure.from_libm(
            math.pow(engine.schedule.psi(float(m)), consts.t), ulps=8)
        lhs = (consts.C * psit.hi - 1.0) * engine.sigma(m).hi
        rhs = consts.mk * engine.tail(m).lo
        r = rel_margin(lhs, rhs)
        if r < min_rel:
            min_rel, argmin = r, m
        ok = ok and strictly_less(lhs, rhs)
    return ok, min_rel, argmin


def test_claim1_frozen_margin(ref_constants, engine):
    rec = check_claim1(ref_constants)
    assert rec["passed"] and rec["range"] == "all m >= 1"
    # the proof's margin is (M - C)/M = 1/2 on the reference
    assert rec["min_rel_margin"] == 0.5
    # the sweep's margin shrinks monotonically toward it, so the worst
    # index is the range end
    ok, min_rel, argmin = _claim1_sweep(engine)
    assert ok and argmin == 120
    assert min_rel == pytest.approx(0.5003867930834139, rel=1e-6)
    assert min_rel > rec["min_rel_margin"]


@pytest.mark.parametrize("M", [1.01, 1.5, 2.0, 2.05, 2.5, 4.0, 8.0])
def test_claim1_proof_against_sweep(M):
    # the proof implies the sweep on [1, 120]: a failing sweep fails it too
    consts, _ = derive_constants(REF, M=M)
    proof = check_claim1(consts)["passed"]
    sweep, min_rel, _ = _claim1_sweep(WeightEngine(consts))
    assert sweep or not proof
    if M == consts.C:
        # the one verdict that changes: the sweep clears M = C = 2 by 6.5e-4,
        # while the proof's premise C < M is a tie, and a tie fails
        assert sweep and not proof
        assert min_rel == pytest.approx(6.5e-4, rel=0.01)
    else:
        assert proof == sweep


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
    rec = check_claim2(engine)
    assert rec["passed"] and rec["range"] == "all m >= 2"
    # e = (1+p)t = 15/16 two ulps down, so the tightest premise is e < 1
    d = rec["details"]
    assert d["e"] == math.nextafter(math.nextafter(0.9375, 0.0), 0.0)
    assert rec["min_rel_margin"] == 1.0 - d["e"]
    # m* = (1-p)/(e-(1-p)) = 4 on the reference
    assert d["m_star"] == pytest.approx(4.0, rel=1e-14)
    # brackets (p = 1/4), e < 1, e > 1-p, the slope test at m*, d(2) > C0
    assert d["premise_rel_margins"] == pytest.approx(
        [0.75, 0.0625, 0.2, 0.9907187581859622, 0.24639550262193025],
        rel=1e-9)
    assert d["d2_sides"] == pytest.approx([5.764314687838145,
                                           4.344013473057291], rel=1e-9)


def test_claim2_fails_where_ca_to_the_minus_t_overflows():
    # A one ulp below 1 and L = 1e-300 make psi's power coefficient
    # subnormal, and ca^(-t) at t = 0.99 lies past the float range: the
    # record fails instead of raising OverflowError
    h = HypothesisConstants(alpha=0.5, s=1.0, t=0.99, A=1.0 - 2.0 ** -53,
                            C=2.0)
    consts, _ = derive_constants(h, M=4.0, L=1e-300)
    assert Schedule(consts).psi_power_coefficient < 1e-300
    rec = check_claim2(WeightEngine(consts))
    assert not rec["passed"] and rec["details"]["d2_sides"] is None


def test_lemma_battery(engine):
    rec = check_lemma(engine)
    assert rec["passed"]
    # the residual is a float consistency check, pinned in test_weights.py
    assert set(rec["details"]) == {"decay_bound", "divergence"}
    assert rec["details"]["decay_bound"]["passed"]
    assert rec["details"]["divergence"]["passed"]


def test_claim1_fails_for_small_M(ref_constants):
    # M = 1.01 makes the per-term cap beat the tail: claim 1 must fail
    consts, _ = derive_constants(REF, M=1.01)
    report = run_all(WeightEngine(consts))
    assert not report.passed
    assert "claim-1" in report.failing()

