"""Radius/tolerance schedule: recursion vs closed form, frozen spot values,
partial-sum sandwiches, and the psi majorant."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakfn import Schedule
from peakfn._kernels import radius_bound_sweep
from peakfn.certificates import check_schedule_identities
from peakfn.errors import DomainError, InvalidParameterError
from peakfn.hypothesis import P_GRID, bracket_certificate


@pytest.fixture(scope="module")
def sched(ref_constants):
    return Schedule(ref_constants)


def test_epsilon_frozen(sched):
    assert sched.epsilon(1) == pytest.approx(0.05, rel=1e-14)
    assert sched.epsilon(2) == pytest.approx(0.0331113202689, rel=1e-11)
    # eps decreases strictly
    prev = sched.epsilon(1)
    for k in range(2, 40):
        cur = sched.epsilon(k)
        assert cur < prev
        prev = cur


def test_log_inv_radius_frozen(sched):
    assert sched.log_inv_radius(1) == pytest.approx(2.302585092994046, rel=1e-15)
    assert sched.log_inv_radius(2) == pytest.approx(5.991464547107982, rel=1e-12)
    assert sched.log_inv_radius(3) == pytest.approx(10.0924917806549, rel=1e-12)
    assert sched.log_inv_radius(15) == pytest.approx(74.154733, rel=1e-7)
    assert sched.log_inv_radius(100) == pytest.approx(761.98428, rel=1e-7)


def test_recursion_matches_closed_form(sched):
    for m in range(1, 201):
        a = sched.log_inv_radius(m)
        b = sched.log_inv_radius_closed(m)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def test_radii_strictly_shrink(sched):
    prev = sched.log_inv_radius(1)
    for m in range(2, 300):
        cur = sched.log_inv_radius(m)
        assert cur > prev
        prev = cur


def test_psi_frozen_and_flat(sched):
    assert sched.psi(1.0) == pytest.approx(13.39293998195317, rel=1e-14)
    assert sched.psi(2.0) == pytest.approx(30.9826280696989, rel=1e-12)
    assert sched.psi(0.5) == sched.psi(1e-12)
    assert sched.psi_power_coefficient == pytest.approx(11.09035488895912,
                                                        rel=1e-14)
    with pytest.raises(DomainError):
        sched.psi(-0.5)


def test_psi_majorizes_radii(sched):
    # the all-m proof, and the recursion itself against psi up to m = 1000
    rec = check_schedule_identities(sched)[2]
    assert rec["name"] == "radius-bound" and rec["passed"]
    c = sched.consts
    margin, _ = radius_bound_sweep(1000, c.p, c.log_inv_D, c.log_inv_A, c.L)
    assert margin > 0.0
    for m in (1, 2, 10, 100, 1000):
        assert sched.log_inv_radius(m) < sched.psi(float(m))


def test_sum_brackets_ref(sched):
    rep = sched.check_sum_brackets(10_000)
    assert rep["passed"]
    assert rep["p"] == 0.25
    assert rep["min_rel_margin"] > 0.0
    assert set(rep["min_rel_margins"]) == {
        "sum_p_minus_1_lower", "sum_p_minus_1_upper",
        "sum_p_lower", "sum_p_upper"}


@pytest.mark.parametrize("p", P_GRID)
def test_sum_brackets_p_grid(sched, p):
    # the all-m proof passes wherever the direct sweep does
    rep = sched.check_sum_brackets(2000, p=p)
    assert rep["passed"], f"bracket failed at p={p}"
    assert bracket_certificate(p)["passed"]


def test_split_index(sched):
    # r_1 = 0.1: a point at distance 0.2 is outside every ball
    assert sched.split_index(-math.log(0.2)) == 1
    # distance 0.05 sits inside ball 1, outside ball 2
    assert sched.split_index(-math.log(0.05)) == 2
    # spec-scale deep point
    assert sched.split_index(-math.log(1e-30)) == 15
    with pytest.raises(InvalidParameterError):
        sched.split_index(1e9, cap=100)


def test_split_index_ties_go_inward(sched):
    # exactly at log(1/r_2) the comparison is ambiguous: must resolve to 3
    lir2 = sched.log_inv_radius(2)
    assert sched.split_index(lir2) == 3


def test_pow_sum_validation(sched):
    with pytest.raises(InvalidParameterError):
        sched.pow_sum(0)
    with pytest.raises(InvalidParameterError):
        sched.log_inv_radius(0)


@given(m=st.integers(min_value=1, max_value=500))
@settings(max_examples=50, deadline=None)
def test_closed_form_property(ref_constants, m):
    sched = Schedule(ref_constants)
    a = sched.log_inv_radius(m)
    b = sched.log_inv_radius_closed(m)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
