"""Radius/tolerance schedule: recursion vs closed form, frozen spot values,
partial-sum sandwiches, and the psi majorant."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakfn import Schedule, schedule
from peakfn._kernels import pow_sums, radius_bound_sweep
from peakfn.certificates import check_schedule_identities
from peakfn.errors import DomainError, InvalidParameterError
from peakfn.hypothesis import GUARD, P_GRID, bracket_certificate


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
    for a, b in zip(sched.log_inv_radii(200), sched.log_inv_radii_closed(200)):
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


def test_split_index(sched, monkeypatch):
    # r_1 = 0.1: a point at distance 0.2 is outside every ball
    assert sched.split_index(-math.log(0.2)) == 1
    # distance 0.05 sits inside ball 1, outside ball 2
    assert sched.split_index(-math.log(0.05)) == 2
    # spec-scale deep point
    assert sched.split_index(-math.log(1e-30)) == 15
    monkeypatch.setattr(schedule, "SPLIT_CAP", 100)
    with pytest.raises(InvalidParameterError, match="exceeded cap 100"):
        sched.split_index(1e9)


def test_split_index_ties_go_inward(sched):
    # exactly at log(1/r_2) the comparison is ambiguous: must resolve to 3
    lir2 = sched.log_inv_radius(2)
    assert sched.split_index(lir2) == 3


def _linear_split_index(sched, log_inv_dist, cap=schedule.SPLIT_CAP):
    """Schedule.split_index as a scan from m = 1, the reference for its
    binary search."""
    m = 1
    while True:
        lir = sched.log_inv_radius(m)
        if lir >= log_inv_dist + GUARD * max(1.0, abs(lir)):
            return m
        m += 1
        if m > cap:
            raise InvalidParameterError(
                f"split index exceeded cap {cap} (point too close to peak)")


def test_split_index_equals_the_linear_scan(ref_constants, monkeypatch):
    ref = Schedule(ref_constants)
    lirs = ref.log_inv_radii(400)
    rng = random.Random(11)
    dists = [rng.uniform(-5.0, lirs[-1] + 10.0) for _ in range(10_000)]
    dists += [10.0 ** rng.uniform(-3.0, math.log10(lirs[-1]))
              for _ in range(2_000)]
    # at each radius and one ulp either side, where the guard decides
    for lir in lirs[:200]:
        dists += [math.nextafter(lir, -math.inf), lir,
                  math.nextafter(lir, math.inf)]
    # a fresh schedule grows its radii inside the search
    searched = Schedule(ref_constants)
    assert [searched.split_index(d) for d in dists] == \
        [_linear_split_index(ref, d) for d in dists]
    for cap in (1, 2, 7, 64, 65):
        monkeypatch.setattr(schedule, "SPLIT_CAP", cap)
        for d in (lirs[cap - 2] if cap > 1 else -1.0, lirs[cap - 1],
                  lirs[cap]):
            try:
                want = _linear_split_index(ref, d, cap)
            except InvalidParameterError as exc:
                with pytest.raises(InvalidParameterError,
                                   match=re.escape(str(exc))):
                    Schedule(ref_constants).split_index(d)
            else:
                assert Schedule(ref_constants).split_index(d) == want


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
    b = sched.log_inv_radii_closed(m)[m - 1]
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@pytest.mark.parametrize("n", [1, 17, 1000])
def test_head_lists_equal_the_per_index_queries(ref_constants, n):
    # build reads the schedule as two slices; a fresh schedule for each
    # side, so the slices grow the caches themselves
    head = Schedule(ref_constants)
    one = Schedule(ref_constants)
    assert head.log_inv_radii(n) == [one.log_inv_radius(j)
                                     for j in range(1, n + 1)]
    assert head.log_inv_epsilons(n) == [one.log_inv_eps(j)
                                        for j in range(1, n + 1)]


def test_grown_prefix_sums_equal_the_sums_from_one(ref_constants):
    # the caches are extended at each doubling, and a sequential sum
    # extended from S_k holds the floats of one summed from j = 1
    sched = Schedule(ref_constants)
    for k in (1, 16, 17, 40, 1000, 1001, 5000):
        sched.pow_sum(k)
        sched.log_inv_radii_closed(k)
    p = ref_constants.p
    assert sched._psums == pow_sums(len(sched._psums), p - 1.0)
    assert sched._tsums == pow_sums(len(sched._tsums), p)
    assert len(sched._psums) >= 5000
    head = pow_sums(300, p)
    assert head + pow_sums(700, p, 300, head[-1]) == pow_sums(1000, p)
