"""Containment is the one property enclosure arithmetic must never lose:
whatever the reals do, the intervals must cover it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakfn.enclosure import (ComplexEnclosure, Enclosure, abs_ends,
                              div_ends, down, up, widen_ends)

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


def test_array_ends_equal_the_enclosure_operations():
    # the array forms give, element by element, the floats of the
    # Enclosure operations they name, zeros, subnormals and signs included
    rng = np.random.default_rng(3)
    n = 4000
    mags = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 60, n))
    a = mags * rng.choice([-1.0, 1.0], n)
    b = a + np.abs(a) * rng.choice([0.0, 1e-16, 0.5, 3.0], n)
    a[:8] = [0.0, -0.0, 0.0, -5e-324, 5e-324, -1.0, 0.0, -2.0]
    b[:8] = [0.0, 0.0, 5e-324, 0.0, 1.0, -1.0, 2.0, -0.0]
    delta = np.abs(rng.standard_normal(n)) * rng.choice([0.0, 1e-300, 1.0], n)
    den = Enclosure(0.75, math.nextafter(0.75, 2.0))
    encs = [Enclosure(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())]

    def ends(pairs):
        return [list(map(float, e)) for e in pairs]

    lo, hi = widen_ends(a, b, delta)
    assert ends(zip(lo, hi)) == [[e.lo, e.hi] for e in (
        enc.widen(d) for enc, d in zip(encs, delta.tolist()))]
    lo, hi = div_ends(a, b, den)
    assert ends(zip(lo, hi)) == [[e.lo, e.hi] for e in
                                 (enc / den for enc in encs)]
    mag_lo, mag_hi = abs_ends(a, b)
    assert ends(zip(mag_lo, mag_hi)) == [[e.abs_lo, e.abs_hi] for e in encs]
    points = [Enclosure.exact(v).widen(0.0) for v in a.tolist()]
    assert ends(zip(down(a), up(a))) == [[e.lo, e.hi] for e in points]
    with pytest.raises(ZeroDivisionError):
        div_ends(a, b, Enclosure(-1.0, 1.0))
