"""Containment is the one property enclosure arithmetic must never lose:
whatever the reals do, the intervals must cover it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakfn.enclosure import (ComplexEnclosure, Enclosure, abs_box,
                              add_real_box, div_box, ulps_out, ulps_out_all,
                              widen_box)

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-12, max_value=1e12,
                     allow_nan=False, allow_infinity=False)


def test_exact_and_ordering():
    e = Enclosure.exact(1.5)
    assert e.lo == e.hi == 1.5
    with pytest.raises(ValueError):
        Enclosure(2.0, 1.0)
    with pytest.raises(ValueError):
        Enclosure(0.0, math.inf)


def test_from_midrad_covers():
    e = Enclosure.from_midrad(3.0, 0.25)
    assert e.lo < 2.75 < 3.25 < e.hi or (e.lo <= 2.75 and e.hi >= 3.25)
    assert e.contains(3.0)


def test_width_mid_relwidth():
    e = Enclosure(1.0, 2.0)
    assert e.width == pytest.approx(1.0)
    assert e.mid == pytest.approx(1.5)
    # relative width is measured against the larger endpoint magnitude
    assert e.rel_width == pytest.approx(0.5, rel=1e-12)


@given(a=finite, b=finite, c=finite, d=finite)
@settings(max_examples=200, deadline=None)
def test_add_sub_containment(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    s = x + y
    assert s.lo <= x.lo + y.lo and x.hi + y.hi <= s.hi
    t = x - y
    assert t.lo <= x.lo - y.hi and x.hi - y.lo <= t.hi


@given(a=finite, b=finite, c=finite, d=finite,
       u=st.floats(min_value=0.0, max_value=1.0),
       v=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_mul_containment(a, b, c, d, u, v):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    px = x.lo + u * (x.hi - x.lo)
    py = y.lo + v * (y.hi - y.lo)
    px = min(max(px, x.lo), x.hi)
    py = min(max(py, y.lo), y.hi)
    prod = x * y
    assert prod.lo <= px * py <= prod.hi


@given(a=positive, b=positive, c=positive, d=positive)
@settings(max_examples=200, deadline=None)
def test_div_containment(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    q = x / y
    assert q.lo <= x.lo / y.hi
    assert x.hi / y.lo <= q.hi


def test_div_by_zero_containing_rejected():
    with pytest.raises(ZeroDivisionError):
        Enclosure(1.0, 2.0) / Enclosure(-1.0, 1.0)


@given(a=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
       b=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_exp_containment(a, b):
    x = Enclosure(min(a, b), max(a, b))
    e = x.exp()
    assert e.lo <= math.exp(x.lo) and math.exp(x.hi) <= e.hi
    assert e.lo >= 0.0


def test_scalar_ops():
    x = Enclosure(1.0, 2.0)
    assert (x * 3.0).contains(4.5)
    assert (x + 1.0).contains(2.5)
    assert (x * -1.0).contains(-1.5)
    assert (-x).lo == -2.0


def test_hull_and_widen():
    x = Enclosure(1.0, 2.0)
    y = Enclosure(3.0, 4.0)
    h = x.hull(y)
    assert h.lo <= 1.0 and h.hi >= 4.0
    w = x.widen(0.5)
    assert w.lo <= 0.5 and w.hi >= 2.5
    with pytest.raises(ValueError):
        x.widen(-0.1)


def test_from_libm_covers_true_value():
    # libm result is within a few ulps of the true value
    v = math.pow(13.39293998195317, -0.75)
    e = Enclosure.from_libm(v, ulps=4)
    assert e.contains(v)
    assert e.width < 1e-15


def test_complex_box_abs_bounds():
    z = ComplexEnclosure(re=Enclosure(3.0, 3.0), im=Enclosure(4.0, 4.0))
    ab = z.abs_bounds()
    assert ab.contains(5.0)
    # box straddling zero in one axis: min modulus from the other axis
    z2 = ComplexEnclosure(re=Enclosure(-1.0, 1.0), im=Enclosure(2.0, 2.0))
    ab2 = z2.abs_bounds()
    assert ab2.lo <= 2.0 <= math.hypot(1.0, 2.0) <= ab2.hi


def test_complex_add_scaled():
    z = ComplexEnclosure.from_point(1.0 + 1.0j)
    w = z.add_scaled(Enclosure(2.0, 2.0), 0.5 + 0.25j)
    assert w.re.contains(2.0)
    assert w.im.contains(1.5)


def test_complex_div_real():
    z = ComplexEnclosure.from_point(1.0 + 2.0j)
    q = z.div_real(Enclosure(2.0, 2.0))
    assert q.re.contains(0.5)
    assert q.im.contains(1.0)


def test_box_operations_equal_the_enclosure_operations():
    # the box forms give the floats of the ComplexEnclosure operations
    # they name, zeros, subnormals and signs included
    rng = np.random.default_rng(3)
    n = 4000

    def ends():
        mags = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 60, n))
        a = mags * rng.choice([-1.0, 1.0], n)
        b = a + np.abs(a) * rng.choice([0.0, 1e-16, 0.5, 3.0], n)
        a[:8] = [0.0, -0.0, 0.0, -5e-324, 5e-324, -1.0, 0.0, -2.0]
        b[:8] = [0.0, 0.0, 5e-324, 0.0, 1.0, -1.0, 2.0, -0.0]
        return a.tolist(), b.tolist()

    (re_lo, re_hi), (im_lo, im_hi) = ends(), ends()
    im_lo, im_hi = im_lo[::-1], im_hi[::-1]
    delta = (np.abs(rng.standard_normal(n))
             * rng.choice([0.0, 1e-300, 1.0], n)).tolist()
    boxes = list(zip(re_lo, re_hi, im_lo, im_hi))
    encs = [ComplexEnclosure(Enclosure(a, b), Enclosure(c, d))
            for a, b, c, d in boxes]
    den = Enclosure(0.75, math.nextafter(0.75, 2.0))
    real = Enclosure(-0.25, 3.0)

    def bits(values):
        return [tuple(v.hex() for v in t) for t in values]

    def as_box(z):
        return (z.re.lo, z.re.hi, z.im.lo, z.im.hi)

    assert bits(widen_box(b, d) for b, d in zip(boxes, delta)) == bits(
        as_box(z.widen(d)) for z, d in zip(encs, delta))
    assert bits(add_real_box(b, real) for b in boxes) == bits(
        as_box(z + ComplexEnclosure.from_real(real)) for z in encs)
    assert bits(div_box(b, den) for b in boxes) == bits(
        as_box(z.div_real(den)) for z in encs)
    assert bits(abs_box(b) for b in boxes) == bits(
        (e.lo, e.hi) for e in (z.abs_bounds() for z in encs))
    with pytest.raises(ZeroDivisionError):
        div_box(boxes[0], Enclosure(-1.0, 1.0))


@pytest.mark.parametrize("kind", ["normal", "mixed"])
def test_ulps_out_all_equals_ulps_out(kind):
    # positive normal lists step their bit patterns; any other list steps
    # each float through nextafter, across zero and into the subnormals
    rng = np.random.default_rng(11)
    xs = np.ldexp(rng.uniform(0.5, 1.0, 3000),
                  rng.integers(-1021, 1024, 3000)).tolist()
    xs += [2.0 ** -1022, math.nextafter(2.0 ** 1023, 0.0), 2.0 ** 1023]
    if kind == "mixed":
        xs += [0.0, -0.0, 5e-324, -5e-324, 4e-323, -1.5, math.inf,
               1.7976931348623157e308, 2.0 ** -1023]
    for n in (1, 2, 8):
        lo, hi = ulps_out_all(xs, n)
        want = [ulps_out(x, n) for x in xs]
        assert [(a.hex(), b.hex()) for a, b in zip(lo, hi)] == \
            [(a.hex(), b.hex()) for a, b in want]
    assert ulps_out_all([], 8) == ([], [])
