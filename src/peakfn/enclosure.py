"""Two-sided enclosures of reals and complex values with outward rounding.

This is deliberately not a full interval-arithmetic library.  Every derived
quantity in the package is either monotone in its inputs or carries an
explicit error bound (quadrature), so a lightweight [lo, hi] pair whose
endpoints are pushed outward by a couple of ulps after each operation is
enough: the padding dominates per-operation rounding error, and the
certificate layer applies its own relative guard band on top.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

_INF = math.inf

# bit patterns of 2^-1022, the smallest positive normal double, and of 2^1023
_NORMAL_BITS = 1 << 52
_HUGE_BITS = 0x7FE << 52

# every operation pads each endpoint outward by 2 ulps, which covers the
# <= 1 ulp error of +,-,*,/ and of libm exp/pow with room to spare


def down(x: float) -> float:
    """x two ulps down, as every operation pads a lower end."""
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


def up(x: float) -> float:
    """x two ulps up, as every operation pads an upper end."""
    return math.nextafter(math.nextafter(x, _INF), _INF)


def ulps_out(x: float, n: int) -> tuple:
    """x moved n ulps down and n ulps up."""
    lo = hi = x
    for _ in range(n):
        lo = math.nextafter(lo, -_INF)
        hi = math.nextafter(hi, _INF)
    return lo, hi


def ulps_out_all(xs: list, n: int) -> tuple:
    """ulps_out of each float in xs, 0 <= n < 2^52, as two lists (lo, hi).

    Positive doubles are ordered like their bit patterns read as integers,
    one apart per ulp.  So when every x lies in [2^-1022, 2^1023], where
    no move of n ulps leaves the positive finite range, a move is n added
    to or taken from the pattern, over the whole list at once.
    """
    bits = array("q", array("d", xs).tobytes())
    if not (bits and _NORMAL_BITS <= min(bits) and max(bits) <= _HUGE_BITS):
        ends = [ulps_out(x, n) for x in xs]
        return [lo for lo, _ in ends], [hi for _, hi in ends]
    return (array("d", array("q", [b - n for b in bits]).tobytes()).tolist(),
            array("d", array("q", [b + n for b in bits]).tobytes()).tolist())


@dataclass(frozen=True, slots=True)
class Enclosure:
    """Closed interval [lo, hi] guaranteed to contain the exact value."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("enclosure endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo!r} > hi={self.hi!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, v: float) -> "Enclosure":
        v = float(v)
        return cls(v, v)

    @classmethod
    def from_midrad(cls, mid: float, rad: float) -> "Enclosure":
        if rad < 0.0:
            raise ValueError("negative radius")
        return cls(down(mid - rad), up(mid + rad))

    @classmethod
    def from_libm(cls, v: float, ulps: int = 4) -> "Enclosure":
        # for a point value computed through a short libm chain
        return cls(*ulps_out(float(v), ulps))

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rel_width(self) -> float:
        scale = max(abs(self.lo), abs(self.hi))
        if scale == 0.0:
            return 0.0
        return self.width / scale

    @property
    def abs_lo(self) -> float:
        # min of |v| over the interval
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    @property
    def abs_hi(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(down(self.lo + other.lo), up(self.hi + other.hi))
        o = float(other)
        return Enclosure(down(self.lo + o), up(self.hi + o))

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(down(self.lo - other.hi), up(self.hi - other.lo))
        o = float(other)
        return Enclosure(down(self.lo - o), up(self.hi - o))

    def __rsub__(self, other) -> "Enclosure":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return Enclosure(down(min(cands)), up(max(cands)))
        o = float(other)
        a, b = self.lo * o, self.hi * o
        if a > b:
            a, b = b, a
        return Enclosure(down(a), up(b))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            if other.lo <= 0.0 <= other.hi:
                raise ZeroDivisionError("division by enclosure containing zero")
            cands = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
            return Enclosure(down(min(cands)), up(max(cands)))
        o = float(other)
        if o == 0.0:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self.lo / o, self.hi / o
        if a > b:
            a, b = b, a
        return Enclosure(down(a), up(b))

    def exp(self) -> "Enclosure":
        return Enclosure(down(math.exp(self.lo)), up(math.exp(self.hi)))

    def widen(self, delta: float) -> "Enclosure":
        if delta < 0.0:
            raise ValueError("negative widening")
        return Enclosure(down(self.lo - delta), up(self.hi + delta))

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))


ZERO = Enclosure(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class ComplexEnclosure:
    """Axis-aligned box containing a complex value."""

    re: Enclosure
    im: Enclosure

    @classmethod
    def from_point(cls, z: complex) -> "ComplexEnclosure":
        z = complex(z)
        return cls(Enclosure.exact(z.real), Enclosure.exact(z.imag))

    @classmethod
    def from_real(cls, enc: Enclosure) -> "ComplexEnclosure":
        return cls(enc, ZERO)

    def __add__(self, other: "ComplexEnclosure") -> "ComplexEnclosure":
        return ComplexEnclosure(self.re + other.re, self.im + other.im)

    def add_scaled(self, enc: Enclosure, z: complex) -> "ComplexEnclosure":
        """Box for self + enc * z: one step of the per-term head sum, kept
        as the reference the tests check PeakSeries.evaluate against."""
        z = complex(z)
        return ComplexEnclosure(self.re + enc * z.real, self.im + enc * z.imag)

    def widen(self, delta: float) -> "ComplexEnclosure":
        return ComplexEnclosure(self.re.widen(delta), self.im.widen(delta))

    def div_real(self, den: Enclosure) -> "ComplexEnclosure":
        return ComplexEnclosure(self.re / den, self.im / den)

    def abs_bounds(self) -> Enclosure:
        """Enclosure of |z| over the box."""
        lo = math.hypot(self.re.abs_lo, self.im.abs_lo)
        hi = math.hypot(self.re.abs_hi, self.im.abs_hi)
        return Enclosure(down(max(0.0, lo)), up(hi))


# -- the same operations on a bare box ---------------------------------------
# A box is the tuple (re_lo, re_hi, im_lo, im_hi) of a ComplexEnclosure's
# ends.  Each function gives the floats of the ComplexEnclosure operation it
# names without making an Enclosure: evaluation works on boxes and wraps only
# its results.


def widen_box(box: tuple, delta: float) -> tuple:
    """ComplexEnclosure.widen, for delta >= 0."""
    re_lo, re_hi, im_lo, im_hi = box
    nx = math.nextafter
    return (nx(nx(re_lo - delta, -_INF), -_INF),
            nx(nx(re_hi + delta, _INF), _INF),
            nx(nx(im_lo - delta, -_INF), -_INF),
            nx(nx(im_hi + delta, _INF), _INF))


def add_real_box(box: tuple, enc: Enclosure) -> tuple:
    """box + ComplexEnclosure.from_real(enc)."""
    re_lo, re_hi, im_lo, im_hi = box
    return (down(re_lo + enc.lo), up(re_hi + enc.hi),
            down(im_lo + 0.0), up(im_hi + 0.0))


def div_box(box: tuple, den: Enclosure) -> tuple:
    """ComplexEnclosure.div_real, for den > 0: of the four quotients that
    Enclosure division compares, rounding being monotone, a lower end over
    one end of den is the smallest and an upper end over one the largest."""
    if not den.lo > 0.0:
        raise ZeroDivisionError("division by an enclosure not above zero")
    d_lo, d_hi = den.lo, den.hi
    re_lo, re_hi, im_lo, im_hi = box
    nx = math.nextafter
    return (nx(nx(re_lo / (d_hi if re_lo >= 0.0 else d_lo), -_INF), -_INF),
            nx(nx(re_hi / (d_lo if re_hi >= 0.0 else d_hi), _INF), _INF),
            nx(nx(im_lo / (d_hi if im_lo >= 0.0 else d_lo), -_INF), -_INF),
            nx(nx(im_hi / (d_lo if im_hi >= 0.0 else d_hi), _INF), _INF))


def abs_box(box: tuple) -> tuple:
    """The ends of ComplexEnclosure.abs_bounds."""
    re_lo, re_hi, im_lo, im_hi = box
    a, b, c, d = abs(re_lo), abs(re_hi), abs(im_lo), abs(im_hi)
    re_min = 0.0 if re_lo <= 0.0 <= re_hi else min(a, b)
    im_min = 0.0 if im_lo <= 0.0 <= im_hi else min(c, d)
    return (down(max(0.0, math.hypot(re_min, im_min))),
            up(math.hypot(max(a, b), max(c, d))))
