"""Barrier families: pointwise condition checks, certificates, audits,
and grids."""

import cmath
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_barriers import scalar_barrier

from peakfn import (HypothesisConstants, Schedule, audit_family,
                    derive_constants, disk_exponential_family, family_by_name,
                    make_grid, synthetic_family)
from peakfn.errors import DomainError, FamilyAuditError, InvalidParameterError
from peakfn.families import UNIT_DISK, UNIT_INTERVAL
from peakfn.hypothesis import GUARD

# acceptance criterion 7's audit radii and grid sizes
SYN_AUDIT = dict(radii=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), grid_size=1000)
DISK_AUDIT = dict(radii=(0.05, 0.1, 0.2), grid_size=10_000)


@pytest.fixture(scope="module")
def syn(ref_constants):
    return synthetic_family(ref_constants)


@pytest.fixture(scope="module")
def disk(ref_constants):
    return disk_exponential_family(ref_constants)


def test_family_lookup(ref_constants):
    assert family_by_name("synthetic", ref_constants).name == "synthetic"
    assert family_by_name("disk-exp", ref_constants).name == "disk-exp"
    with pytest.raises(InvalidParameterError):
        family_by_name("nope", ref_constants)


def test_synthetic_barrier_pointwise(syn, ref_constants):
    bar = syn.barrier(math.log(10.0))  # r = 0.1
    assert bar(0.0) == 1.0
    # off the ball: exactly alpha
    assert bar(0.2) == 0.5
    assert bar(1.0) == 0.5
    # at distance A*r the ramp has climbed to 1.5
    assert bar(0.05).real == pytest.approx(1.5, rel=1e-12)
    # tent apex near the spec's quoted working value
    apex = bar(0.075).real
    assert apex == pytest.approx(3.738451598, rel=1e-6)
    assert apex <= ref_constants.C * math.log(10.0) ** ref_constants.t
    # inside but before the ramp: between 1 and 1.5
    assert 1.0 <= bar(0.01).real <= 1.5


def test_synthetic_condition4_shape(syn):
    # within A*r*eps of the peak the value stays below 1 + eps^s
    bar = syn.barrier(math.log(10.0))
    for eps in (0.01, 0.1, 0.5, 0.99):
        ball = syn.consts.A * 0.1 * eps
        for frac in (0.1, 0.9):
            v = abs(bar(frac * ball))
            assert v < 1.0 + eps ** syn.consts.s


def test_synthetic_family_rejects_large_radius(syn):
    with pytest.raises(FamilyAuditError):
        syn.barrier(math.log(2.0))  # r = 0.5 > 0.1 ceiling


def test_synthetic_audit_passes(syn):
    rep = audit_family(syn, **SYN_AUDIT)
    assert rep.passed
    assert rep.failures == []
    assert rep.condition_margins["condition_2"] >= 0.0
    assert rep.condition_margins["condition_4"] > 0.0
    d = rep.to_dict()
    assert d["family"] == "synthetic" and d["passed"]


def test_disk_audit_passes(disk):
    rep = audit_family(disk, **DISK_AUDIT)
    assert rep.passed
    assert rep.condition_margins["condition_2"] > 0.0
    # |f| <= 1 everywhere puts condition-3 margin near cap - 1
    assert rep.condition_margins["condition_3"] > 0.5


def test_disk_barrier_pointwise(disk):
    # barriers take the offset delta = z - 1 from the peak
    bar = disk.barrier(math.log(1.0 / 0.1))  # r = 0.1
    assert bar(0j) == 1.0
    lam = 2.0 * math.log(2.0) / 0.01
    delta = -0.1 + 0.0j  # z = 0.9
    expected = cmath.exp(lam * delta)
    assert abs(bar(delta) - expected) <= 1e-12 * abs(expected) + 1e-300
    # modulus never exceeds 1 on the disk; a rounded circle point that
    # lies outside it is refused
    for phi in (0.0, 0.7, 2.1, 3.9, 5.5):
        for rad in (0.3, 0.9, 1.0):
            delta = rad * cmath.exp(1j * phi) - 1.0
            if disk.domain.contains(delta):
                assert abs(bar(delta)) <= 1.0 + 1e-12
            else:
                with pytest.raises(DomainError):
                    bar(delta)


@pytest.mark.parametrize("name, delta", [
    ("disk-exp", 1.0), ("disk-exp", 1e-13), ("disk-exp", -2.5),
    ("disk-exp", complex("nan")), ("synthetic", -1e-300),
    ("synthetic", 1.5), ("synthetic", 0.5j)])
def test_one_point_barrier_refuses_offsets_outside_the_domain(
        ref_constants, name, delta):
    # at z = 2 the disk hook, which assumes Re delta <= 0, gave
    # exp(-lambda_r) where the formula gives exp(lambda_r); the one-point
    # barrier admits its offset first, and the unchecked hook is left to
    # callers that have admitted theirs
    fam = family_by_name(name, ref_constants)
    with pytest.raises(DomainError):
        fam.barrier(math.log(10.0))(delta)


def test_disk_barrier_tolerance_shell_is_safe(disk):
    # the domain once admitted a 1e-13 shell past the circle, where the
    # barrier had to clamp Re(z - 1) to 0; the exact test refuses it: at
    # z = 1 - 1e-17j (Re z = 1.0, so |z| > 1), 1 + 1e-15 and 1 + 1e-13
    for delta in (-1e-17j, 1e-15, 1e-13):
        assert not disk.domain.contains(delta)
        with pytest.raises(DomainError):
            disk.domain.require(delta)
    # admitted offsets along the tangent at the peak, where |Re delta| is
    # far below |Im delta|, keep the modulus at most 1, at a grid radius
    # and a schedule one
    for lir in (math.log(1.0 / 0.05), 150.0):
        for delta in (complex(-1e-34, -1e-17), complex(-2e-15, 4e-8)):
            assert disk.domain.contains(delta)
            assert abs(disk.barrier(lir)(delta)) <= 1.0


# -- the array hook against the scalar closures ------------------------------


def _bits(values) -> list:
    """The two float64 words of each complex value."""
    return np.asarray(values, dtype=complex).view(np.int64).tolist()


def _assert_hook_is_scalar(fam, points, lirs):
    """values over every (point, radius) pair, in a shuffled order, equals
    the scalar closure at that radius bit for bit, and so does barrier."""
    pts = [complex(z) for z in points]
    which, radii = np.meshgrid(np.arange(len(pts)), np.asarray(lirs),
                               indexing="ij")
    order = np.random.default_rng(5).permutation(which.size)
    which = which.ravel()[order].tolist()
    radii = radii.ravel()[order].tolist()
    got = fam.values(pts, which, radii)
    refs = {lir: scalar_barrier(fam, lir) for lir in lirs}
    want = [refs[lir](pts[i]) for i, lir in zip(which, radii)]
    assert _bits(got) == _bits(want)
    admitted = [z for z in pts if fam.domain.contains(z)]
    for lir in lirs[::17]:
        bar = fam.barrier(lir)
        assert _bits([bar(z) for z in admitted]) == \
            _bits([refs[lir](z) for z in admitted])


@pytest.fixture(scope="module")
def head_radii(ref_constants):
    """log(1/r_j) for the N = 100 schedule radii."""
    return Schedule(ref_constants).log_inv_radii(100)


def test_synthetic_hook_at_every_radius_and_seam(syn, head_radii):
    a = syn.consts.A
    points = [0.0, -0.0, -1e-300, -0.5, 5e-324, 1e-30, 0.3, 1.0,
              1.0 + 1e-13]
    for lir in head_radii:
        for seam in (a, (1.0 + a) / 2.0, 1.0):
            # y/r at the seam, from log space: r_j underflows past j ~ 85
            y = math.exp(math.log(seam) - lir)
            if y > 0.0:
                points += [math.nextafter(y, 0.0), y,
                           math.nextafter(y, 1.0)]
    _assert_hook_is_scalar(syn, points, head_radii)


def test_disk_hook_at_every_radius_and_branch(disk, head_radii):
    points = make_grid(disk, "log", 1e-30, 1.0, 500)
    # the peak (either sign of zero), Re delta far below Im delta at the
    # edge of the disk, and z = 0.5 + 0.5j, 0, -1 and 1j
    points += [0j, complex(-0.0, -0.0), complex(-1e-40, 1e-20),
               complex(-5e-10, -3e-5), -0.5 + 0.5j, -1.0 + 0.0j,
               -2.0 + 0.0j, -1.0 + 1.0j]
    log_2_log_inv_alpha = math.log(2.0 * math.log(1.0 / disk.consts.alpha))
    branches = set()
    for lir in head_radii[::7]:
        log_lam = log_2_log_inv_alpha + 2.0 * lir
        # lw = log(lambda |Re delta|) past 7, where f underflows, and
        # between log(745) and 7, where wre < -745 does
        for target in (7.5, 6.8, 6.6):
            a = -math.exp(target - log_lam)
            if not -1.0 <= a < 0.0:  # outside the disk, or below 2^-1074
                continue
            points += [complex(a, 0.0), complex(a, math.sqrt(-a)),
                       complex(a, a)]
            lw = log_lam + math.log(-a)
            branches.add("lw > 7" if lw > 7.0 else
                         "wre < -745" if math.exp(lw) > 745.0 else "")
    assert {"lw > 7", "wre < -745"} <= branches
    assert all(map(disk.domain.contains, points))
    _assert_hook_is_scalar(disk, points, head_radii)


@pytest.mark.parametrize("name", ["synthetic", "disk-exp"])
def test_off_ball_bound_does_not_grow_as_r_shrinks(ref_constants, name):
    fam = family_by_name(name, ref_constants)
    rng = random.Random(7)
    off_ball = 0
    for _ in range(300):
        d = 10.0 ** rng.uniform(-30.0, 0.0)
        if fam.domain.dimension == 1:
            y = complex(d, 0.0)
        else:
            y = -(d * cmath.exp(complex(0.0, rng.uniform(0.0, 2.0 * math.pi))))
            if not fam.domain.contains(y):
                continue
        lirs = sorted(rng.uniform(fam.min_log_inv_r, 800.0) for _ in range(6))
        bounds = [fam.off_ball_bound(y, lir) for lir in lirs]
        assert all(b > 0.0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)
        # it bounds every barrier whose ball y lies off
        for lir, b in zip(lirs, bounds):
            if math.exp(-lir) < d:
                off_ball += 1
                assert abs(fam.barrier(lir)(y)) <= b
    assert off_ball > 500


def test_domains():
    # points are offsets from the peak: x = 0 on the interval, 1 on the disk
    assert UNIT_INTERVAL.contains(0.5)
    assert not UNIT_INTERVAL.contains(1.5)
    assert not UNIT_INTERVAL.contains(0.5 + 0.1j)
    # no shell on either side of [0, 1]
    assert UNIT_INTERVAL.contains(0.0) and UNIT_INTERVAL.contains(1.0)
    for y in (1.0 + 1e-15, 1.0 + 1e-13, -1e-14, -5e-324):
        assert not UNIT_INTERVAL.contains(y)
        with pytest.raises(DomainError):
            UNIT_INTERVAL.require(y)
    assert UNIT_DISK.contains(-0.5 + 0.5j)  # z = 0.5 + 0.5j
    assert not UNIT_DISK.contains(0.2)      # z = 1.2
    assert UNIT_DISK.contains(-2.0) and UNIT_DISK.contains(-1.0 + 1.0j)
    assert UNIT_DISK.distance_to_peak(-1.0) == 1.0
    assert UNIT_DISK.point(-1e-30j) == 1.0 - 1e-30j
    assert not UNIT_DISK.contains(complex("nan")) and \
        not UNIT_DISK.contains(complex(-math.inf, 0.0))


def _exactly_in_disk(delta: complex) -> bool:
    a, b = Fraction(delta.real), Fraction(delta.imag)
    return 2 * a + a * a + b * b <= 0


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@given(angle=st.floats(-math.pi, math.pi),
       steps=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       scale=st.floats(-60.0, 0.5))
@settings(max_examples=400, deadline=None)
def test_disk_membership_is_exact(angle, steps, scale):
    # the float test decides outside its error band and Fraction inside
    # it; these offsets sit in or near the band: points of the unit circle
    # rounded to doubles and moved a few ulps, and points where 2 Re delta
    # and |delta|^2 nearly cancel at the peak's tangent
    z = cmath.exp(complex(0.0, angle))
    edge = complex(_nudge(z.real - 1.0, steps[0]), _nudge(z.imag, steps[1]))
    d = 10.0 ** scale
    tangent = complex(_nudge(-d * d / 2.0, steps[0]), d)
    for delta in (edge, tangent, complex(-d, d), complex(d, -d)):
        assert UNIT_DISK.contains(delta) is _exactly_in_disk(delta), delta


def test_make_grid_interval(syn):
    pts = make_grid(syn, "log", 1e-30, 1.0, 500)
    assert len(pts) == 500
    assert all(p.imag == 0.0 and 0.0 < p.real <= 1.0 for p in pts)
    assert pts[0].real == pytest.approx(1e-30, rel=1e-9)
    lin = make_grid(syn, "linear", 0.5, 0.5, 1)
    assert lin == [0.5 + 0.0j]


def test_make_grid_disk(disk):
    pts = make_grid(disk, "log", 1e-6, 2.0, 200)
    assert len(pts) >= 25
    for delta in pts:
        assert _exactly_in_disk(delta)
        assert delta != 0
    # 1 - 1.5234e-17j was emitted twice when points were stored as z
    pts = make_grid(disk, "log", 1e-20, 1.0, 56)
    assert len(set(pts)) == len(pts)


def _old_interval_grid(kind, lo, hi, count):
    # linear: numpy's linspace; log: libm's 10^e on numpy's linspace of the
    # exponents, with both ends pinned, as numpy's geomspace pins them
    if kind == "linear":
        dists = np.linspace(lo, hi, count).tolist()
    else:
        exps = np.linspace(math.log10(lo), math.log10(hi), count).tolist()
        dists = ([lo] + [math.pow(10.0, e) for e in exps[1:-1]]
                 + [hi])[:count]
    return [complex(d, 0.0) for d in dists]


@given(name=st.sampled_from(["synthetic", "disk-exp"]),
       kind=st.sampled_from(["log", "linear"]),
       lo_exp=st.floats(-30.0, 0.0),
       hi_frac=st.sampled_from([0.0, 1e-16, 1e-9]) | st.floats(0.0, 1.0),
       count=st.integers(1, 400))
@settings(max_examples=150, deadline=None)
def test_make_grid_emits_distinct_admitted_offsets(ref_constants, name, kind,
                                                   lo_exp, hi_frac, count):
    fam = family_by_name(name, ref_constants)
    lo = max(10.0 ** lo_exp, 1e-30)
    hi = min(lo + (fam.domain.diameter - lo) * hi_frac, fam.domain.diameter)
    pts = make_grid(fam, kind, lo, hi, count)
    assert pts and len(set(pts)) == len(pts)
    if fam.domain.dimension == 1:
        assert all(0.0 <= p.real <= 1.0 and p.imag == 0.0 for p in pts)
        # the interval grid keeps its points and their order
        assert pts == list(dict.fromkeys(_old_interval_grid(kind, lo, hi,
                                                            count)))
    else:
        assert all(map(_exactly_in_disk, pts)) and 0j not in pts


def test_make_grid_validation(syn):
    with pytest.raises(InvalidParameterError):
        make_grid(syn, "cubic", 0.1, 1.0, 10)
    with pytest.raises(InvalidParameterError):
        make_grid(syn, "log", 1e-40, 1.0, 10)
    with pytest.raises(InvalidParameterError):
        make_grid(syn, "log", 0.1, 5.0, 10)
    with pytest.raises(InvalidParameterError):
        make_grid(syn, "log", 0.1, 1.0, 0)


def test_audit_catches_planted_violation(ref_constants):
    # a family claiming a smaller alpha than it satisfies must be caught
    fam = synthetic_family(ref_constants)
    lying = dataclasses.replace(
        fam, consts=dataclasses.replace(ref_constants, alpha=0.25))
    rep = audit_family(lying, **SYN_AUDIT)
    assert not rep.passed
    assert any(f["condition"] == "condition_2" for f in rep.failures)


FLOORS = {"synthetic": 1.5, "disk-exp": 1.0}


def _with_cap(consts, cap):
    """consts with C set so that C log^t(1/D) is cap, exactly where a float
    C reaches it, else within an ulp or two."""
    pw = math.pow(consts.log_inv_D, consts.t)
    c = cap / pw
    for _ in range(16):
        if c * pw == cap:
            break
        c = math.nextafter(c, -math.inf if c * pw > cap else math.inf)
    return dataclasses.replace(consts, C=c)


@pytest.mark.parametrize("name", sorted(FLOORS))
@pytest.mark.parametrize("scale,passed", [
    (1.0 - GUARD, False),
    (1.0, False),
    (1.0 + 2.0 * GUARD, True),
], ids=["guard-below", "tie", "just-above"])
def test_certificate_premise_at_first_radius(ref_constants, name, scale,
                                             passed):
    # condition (3) rests on C log^t(1/D) clearing the family's floor
    floor = FLOORS[name]
    consts = _with_cap(ref_constants, floor * scale)
    cert = family_by_name(name, consts).certificate()
    assert cert["name"] == f"family-{name}"
    assert cert["passed"] is passed
    assert cert["details"]["cap_floor"] == floor
    if scale == 1.0:
        assert cert["details"]["cap_at_D"] == floor
    else:
        assert cert["details"]["cap_at_D"] == pytest.approx(floor * scale,
                                                            rel=1e-15)


def test_certificate_needs_first_radius_in_range(ref_constants):
    # r_1 = D = 0.15 lies past the synthetic family's r <= 0.1
    consts = dataclasses.replace(ref_constants, D=0.15)
    assert not synthetic_family(consts).certificate()["passed"]
    assert disk_exponential_family(consts).certificate()["passed"]


# perfbench's certify-cold hypothesis box, and a config whose cap at D is
# below both families' floors
HYPOTHESIS_BOX = {"alpha": (0.3, 0.7), "s": (0.5, 1.0), "t": (0.5, 0.85),
                  "A": (0.3, 0.7), "C": (1.5, 3.0)}
SMALL_C = dict(alpha=0.95, s=1.0, t=0.75, A=0.5, C=0.11)


def _agreement_hypotheses():
    rng = random.Random(1)
    box = [{k: rng.uniform(*HYPOTHESIS_BOX[k]) for k in sorted(HYPOTHESIS_BOX)}
           for _ in range(16)]
    return box + [SMALL_C]


@pytest.mark.parametrize("name,grid_size", [("synthetic", 1000),
                                            ("disk-exp", 2000)])
def test_certificate_agrees_with_audit(name, grid_size):
    # the audit at the first two schedule radii is the reference; a family
    # that refuses to make a barrier there fails it
    verdicts = []
    for h in _agreement_hypotheses():
        consts, _ = derive_constants(HypothesisConstants(**h))
        fam = family_by_name(name, consts)
        sched = Schedule(consts)
        radii = tuple(math.exp(-sched.log_inv_radius(j)) for j in (1, 2))
        try:
            audited = audit_family(fam, radii=radii, grid_size=grid_size).passed
        except FamilyAuditError:
            audited = False
        assert fam.certificate()["passed"] is audited, h
        verdicts.append(audited)
    assert verdicts.count(False) == 1 and verdicts[-1] is False
