"""Constant derivation: the policy choices and the identities they must
satisfy.  Expected numbers were frozen from a 40-digit independent
computation."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakfn import (Constants, HypothesisConstants, InfeasibleParametersError,
                    InvalidHypothesisError, adjust_C, adjust_t, choose_D,
                    choose_L, choose_M, derive_constants, derive_pq)
from peakfn._kernels import choose_l_sweep
from peakfn.hypothesis import (L_CANDIDATE, P_GRID, bracket_certificate,
                               eps_condition_report, eps_exponent_sides,
                               first_shell_margin, l_certificate)


REF = HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0)


def test_adjust_t_floor():
    assert adjust_t(0.75) == 0.75
    assert adjust_t(0.9) == 0.9
    assert adjust_t(0.3) == 0.75
    with pytest.raises(InvalidHypothesisError):
        adjust_t(0.0)
    with pytest.raises(InvalidHypothesisError):
        adjust_t(1.0)


def test_adjust_C():
    assert adjust_C(0.5, 1.0, 2.0) == 2.0
    # 2(1-alpha)/s = 1.8 exceeds the given C = 1.0
    assert adjust_C(0.1, 1.0, 1.0) == pytest.approx(1.8, rel=1e-15)


def test_choose_D_ref():
    d = choose_D(0.5, 1.0, 2.0)
    assert d == 0.1


def test_first_shell_margins_frozen():
    assert first_shell_margin(0.5, 1.0, 2.0, 0.1) == pytest.approx(
        0.0405853312976, rel=1e-10)
    assert first_shell_margin(0.5, 1.0, 2.0, 0.2) == pytest.approx(
        -0.0328149237559, rel=1e-10)
    assert first_shell_margin(0.5, 1.0, 2.0, 0.01) == pytest.approx(
        0.0690569415042, rel=1e-10)


def test_derive_pq_ref():
    p, q = derive_pq(0.75, 4.0)
    assert p == 0.25
    assert q == 0.9375


@given(t=st.floats(min_value=0.51, max_value=0.99),
       m=st.floats(min_value=1.5, max_value=64.0))
@settings(max_examples=300, deadline=None)
def test_derive_pq_identities(t, m):
    p, q = derive_pq(t, m)
    assert 0.0 < p < 1.0
    assert 0.0 < q < 1.0
    assert abs((1.0 + p) * t - q) <= 1e-12
    assert abs((1.0 - q) - p / m) <= 1e-12


def test_choose_M_ref():
    big_m, report = choose_M(REF)
    assert big_m == 4.0
    assert report["passed"]


def test_choose_M_infeasible_reported():
    # A this close to 1 leaves no shrink room: every doubling of M fails
    h = HypothesisConstants(alpha=0.5, s=1.0, t=0.75, A=1.0 - 1e-12, C=2.0)
    with pytest.raises(InfeasibleParametersError) as exc_info:
        choose_M(h, m_check=30)
    assert exc_info.value.best_margin < 0.0


def test_choose_L_ref():
    assert choose_L() == 5.0


def test_L_certificate_derived_and_override():
    _, report = derive_constants(REF)
    cert = report["L_certificate"]
    # p = 1/4 < 1/2, so the proof needs only L >= 1
    assert cert["required"] == 1.0
    assert cert["L"] == 5.0 and cert["rel_margin"] == pytest.approx(0.8)
    assert cert["passed"] is True
    _, report = derive_constants(REF, L=0.5)
    assert report["L_policy"] == "override"
    assert report["L_certificate"]["L"] == 0.5
    assert report["L_certificate"]["passed"] is False


@pytest.mark.parametrize("p", P_GRID + (0.5, 0.999))
def test_L_bound_agrees_with_sweep(p):
    # the closed-form bound is at most 3, and a direct sweep over m accepts it
    need = l_certificate(p, L_CANDIDATE)["required"]
    assert 1.0 <= need <= 3.0 < L_CANDIDATE
    margin, arg = choose_l_sweep(2000, p, need * (1.0 + 1e-9))
    assert margin > 0.0, f"sweep fails at p={p}, m={arg}"


@pytest.mark.parametrize("p,ok", [(0.25, True), (1e-9, True), (0.999, True),
                                  (0.0, False), (1.0, False), (-0.5, False),
                                  (1.0 - 1e-13, False)])
def test_bracket_certificate_is_p_in_unit_interval(p, ok):
    # a tie with either end of (0,1) fails, as every guarded check does
    assert bracket_certificate(p)["passed"] is ok


@given(alpha=st.floats(min_value=0.01, max_value=0.99),
       s=st.floats(min_value=0.05, max_value=1.0),
       t=st.floats(min_value=0.51, max_value=0.99),
       big_a=st.floats(min_value=0.01, max_value=0.99),
       big_m=st.floats(min_value=1.01, max_value=1000.0),
       m_check=st.integers(min_value=3, max_value=200))
@example(alpha=0.5, s=1.0, t=0.75, big_a=0.5, big_m=4.0, m_check=120)
@settings(max_examples=200, deadline=None)
def test_eps_tail_proof_holds_far_out(alpha, s, t, big_a, big_m, m_check):
    # whenever the head and the closed-form tail pass, the inequality holds
    # at m_check * 2^k far beyond any range the head loop visits
    p, q = derive_pq(t, big_m)
    rep = eps_condition_report(alpha, s, t, big_a, big_m, p, q, m_check)
    if not rep["passed"]:
        return
    for k in range(31):
        lhs, rhs = eps_exponent_sides(alpha, s, t, big_a, big_m, p, q,
                                      m_check * 2 ** k)
        assert rhs - lhs > 0.0, f"k={k}"


def test_derive_constants_ref_bundle():
    consts, report = derive_constants(REF)
    assert consts.D == 0.1
    assert consts.M == 4.0
    assert consts.p == 0.25
    assert consts.q == 0.9375
    assert consts.L == 5.0
    assert consts.k == 0.0625
    assert consts.mk == pytest.approx(0.25, abs=0.0)
    assert report["eps_condition"]["passed"]
    assert report["first_shell_margin"] == pytest.approx(0.0405853312976,
                                                         rel=1e-10)
    res = report["identity_residuals"]
    assert max(abs(v) for v in res.values()) <= 1e-12


def test_eps_condition_frozen_sides():
    _, report = derive_constants(REF)
    per_m = {int(row[0]): (row[1], row[2])
             for row in report["eps_condition"]["per_m"]}
    lhs3, rhs3 = per_m[3]
    assert lhs3 == pytest.approx(0.04623395024, rel=1e-9)
    assert rhs3 == pytest.approx(0.5245935132, rel=1e-9)
    lhs10, rhs10 = per_m[10]
    assert lhs10 == pytest.approx(0.1174076363, rel=1e-9)
    assert rhs10 == pytest.approx(2.029675813, rel=1e-9)


def test_ref_values_not_secretly_weakened():
    # the REF hypothesis is already admissible: nothing should be adjusted
    consts, report = derive_constants(REF)
    assert consts.alpha == 0.5 and consts.s == 1.0 and consts.t == 0.75
    assert consts.A == 0.5 and consts.C == 2.0
    assert report["normalized"]["t"] == 0.75
    assert report["normalized"]["C"] == 2.0


def test_hypothesis_validation():
    with pytest.raises(InvalidHypothesisError):
        derive_constants(HypothesisConstants(alpha=1.5, s=1.0, t=0.75,
                                             A=0.5, C=2.0))
    with pytest.raises(InvalidHypothesisError):
        derive_constants(HypothesisConstants(alpha=0.5, s=0.0, t=0.75,
                                             A=0.5, C=2.0))
    with pytest.raises(InvalidHypothesisError):
        derive_constants(HypothesisConstants(alpha=0.5, s=1.0, t=0.75,
                                             A=1.0, C=2.0))


def test_constants_round_trip():
    consts, _ = derive_constants(REF)
    again = Constants.from_dict(consts.to_dict())
    assert again == consts


def test_overrides_are_recorded():
    consts, report = derive_constants(REF, D=0.05, M=8.0)
    assert consts.D == 0.05
    assert consts.M == 8.0
    assert report["D_policy"] == "override"
    assert report["M_policy"] == "override"
    # derived exponents follow the overridden M
    p, q = derive_pq(0.75, 8.0)
    assert consts.p == p and consts.q == q


@given(alpha=st.floats(min_value=0.05, max_value=0.9),
       s=st.floats(min_value=0.25, max_value=2.0),
       t=st.floats(min_value=0.1, max_value=0.95),
       big_a=st.floats(min_value=0.1, max_value=0.9),
       c=st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_derivation_invariants_hold_when_feasible(alpha, s, t, big_a, c):
    h = HypothesisConstants(alpha=alpha, s=s, t=t, A=big_a, C=c)
    try:
        consts, report = derive_constants(h, m_check=40)
    except (InfeasibleParametersError, InvalidHypothesisError):
        return
    assert consts.t >= 0.75
    assert consts.C >= 2.0 * (1.0 - alpha) / s - 1e-12
    assert 0.0 < consts.D <= 0.1
    assert consts.M > 1.0
    assert 0.0 < consts.p < 1.0 and 0.0 < consts.q < 1.0
    assert consts.k == pytest.approx((1.0 - alpha) / (2.0 * consts.M),
                                     rel=1e-15)
    assert first_shell_margin(alpha, s, consts.C, consts.D) > 0.0
    assert report["eps_condition"]["passed"]
