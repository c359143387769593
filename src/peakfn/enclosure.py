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
from dataclasses import dataclass

import numpy as np

_INF = math.inf

# every operation pads each endpoint outward by 2 ulps, which covers the
# <= 1 ulp error of +,-,*,/ and of libm exp/pow with room to spare


def _down(x: float) -> float:
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, _INF), _INF)


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
        return cls(_down(mid - rad), _up(mid + rad))

    @classmethod
    def from_libm(cls, v: float, ulps: int = 4) -> "Enclosure":
        # for a point value computed through a short libm chain
        lo = hi = float(v)
        for _ in range(ulps):
            lo = math.nextafter(lo, -_INF)
            hi = math.nextafter(hi, _INF)
        return cls(lo, hi)

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
            return Enclosure(_down(self.lo + other.lo), _up(self.hi + other.hi))
        o = float(other)
        return Enclosure(_down(self.lo + o), _up(self.hi + o))

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            return Enclosure(_down(self.lo - other.hi), _up(self.hi - other.lo))
        o = float(other)
        return Enclosure(_down(self.lo - o), _up(self.hi - o))

    def __rsub__(self, other) -> "Enclosure":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            cands = (self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi)
            return Enclosure(_down(min(cands)), _up(max(cands)))
        o = float(other)
        a, b = self.lo * o, self.hi * o
        if a > b:
            a, b = b, a
        return Enclosure(_down(a), _up(b))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        if isinstance(other, Enclosure):
            if other.lo <= 0.0 <= other.hi:
                raise ZeroDivisionError("division by enclosure containing zero")
            cands = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
            return Enclosure(_down(min(cands)), _up(max(cands)))
        o = float(other)
        if o == 0.0:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self.lo / o, self.hi / o
        if a > b:
            a, b = b, a
        return Enclosure(_down(a), _up(b))

    def exp(self) -> "Enclosure":
        return Enclosure(_down(math.exp(self.lo)), _up(math.exp(self.hi)))

    def widen(self, delta: float) -> "Enclosure":
        if delta < 0.0:
            raise ValueError("negative widening")
        return Enclosure(_down(self.lo - delta), _up(self.hi + delta))

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
        return Enclosure(_down(max(0.0, lo)), _up(hi))


# -- the same operations over arrays of ends ---------------------------------
# Each gives, element by element, the floats of the Enclosure operation it
# names: the arithmetic is numpy's correctly rounded + - * /, and the
# outward steps are np.nextafter.


def down(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, -_INF), -_INF)


def up(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.nextafter(x, _INF), _INF)


def widen_ends(lo: np.ndarray, hi: np.ndarray, delta) -> tuple:
    """Enclosure.widen."""
    return down(lo - delta), up(hi + delta)


def div_ends(lo: np.ndarray, hi: np.ndarray, den: Enclosure) -> tuple:
    """Enclosure / Enclosure, by the same enclosure den."""
    if den.lo <= 0.0 <= den.hi:
        raise ZeroDivisionError("division by enclosure containing zero")
    cands = (lo / den.lo, lo / den.hi, hi / den.lo, hi / den.hi)
    return down(np.minimum.reduce(cands)), up(np.maximum.reduce(cands))


def abs_ends(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Enclosure.abs_lo and Enclosure.abs_hi."""
    mag_lo, mag_hi = np.abs(lo), np.abs(hi)
    return (np.where((lo <= 0.0) & (0.0 <= hi), 0.0,
                     np.minimum(mag_lo, mag_hi)),
            np.maximum(mag_lo, mag_hi))
