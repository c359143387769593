"""Barrier families: the function oracle the peak series is built from.

A family maps a radius r (supplied as log(1/r), since schedule radii
underflow doubles) to a function f_r on the closed domain satisfying the
four barrier conditions for the constants it was made from:

  (1) f_r = 1 at the peak point;
  (2) |f_r| <= alpha off the radius-r ball around the peak;
  (3) |f_r| <= C * log^t(1/r) inside the ball;
  (4) |f_r| < 1 + eps^s on the ball of radius A*r*eps, for every eps in (0,1).

Points are offsets delta = y - x from the peak x (see DomainModel).  A
family evaluates f_r at one offset and a list of radii in one call of its
hook, BarrierFamily.values; barrier(log(1/r)) is that hook at one radius,
at offsets the domain admits.

Two instances ship: a continuous piecewise family on [0,1] whose sup-norms
genuinely grow like log^t(1/r), and a bounded holomorphic exponential
family on the closed unit disk (the classical regime, for regression).
BarrierFamily.certificate proves the conditions for every schedule radius;
audit_family checks them pointwise on a grid, as the tests' reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, FamilyAuditError, InvalidParameterError
from .hypothesis import GUARD, Constants, rel_margin, strictly_less

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class DomainModel:
    """Closed bounded domain with a marked peak point x.

    Points are carried as offsets delta = y - x from the peak: a double
    cannot hold a disk point within 2^-53 of x = 1 other than x itself,
    but it holds its offset.  Membership is decided exactly on delta.
    """

    name: str
    dimension: int
    peak: complex
    diameter: float
    _member: Callable[[complex], bool]

    def contains(self, delta) -> bool:
        return self._member(complex(delta))

    def distance_to_peak(self, delta) -> float:
        return abs(complex(delta))

    def require(self, delta) -> complex:
        offset = complex(delta)
        if not self._member(offset):
            raise DomainError(f"offset {delta!r} from the peak lies outside "
                              f"domain {self.name!r}")
        return offset

    def point(self, delta) -> complex:
        """The point x + delta rounded to binary64, as reports print it."""
        return self.peak + complex(delta)


def _interval_member(delta: complex) -> bool:
    # x = 0, so delta = y; below 0 every barrier is 1, so F would be 1 too
    return delta.imag == 0.0 and 0.0 <= delta.real <= 1.0


# relative and absolute error bound of the float test in _disk_member
_DISK_REL = 2.0 ** -50
_DISK_ABS = 2.0 ** -1070


def _disk_member(delta: complex) -> bool:
    """|1 + delta| <= 1, i.e. E = 2 Re delta + |delta|^2 <= 0, exactly.

    In floats E is e = fl(2a + fl(fl(a^2) + fl(b^2))), a + ib = delta.  Each
    product is off by at most u times itself plus 2^-1075 (underflow), the
    sum of squares by u more, and 2a + t by u|2a + t|, so |e - E| <= 4u S +
    2^-1073 with S = 2|a| + a^2 + b^2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3).  Twice that band, computed in
    floats, decides every e outside it; inside it Fraction arithmetic does.
    """
    a, b = delta.real, delta.imag
    # the closed disk lies in this box; NaN and infinities fail here
    if not (-2.0 <= a <= 0.0 and -1.0 <= b <= 1.0):
        return False
    t = a * a + b * b
    e = 2.0 * a + t
    band = (t - 2.0 * a) * _DISK_REL + _DISK_ABS
    if e < -band:
        return True
    if e > band:
        return False
    fa, fb = Fraction(a), Fraction(b)
    return 2 * fa + fa * fa + fb * fb <= 0


UNIT_INTERVAL = DomainModel("interval-0-1", 1, 0.0 + 0.0j, 1.0, _interval_member)
UNIT_DISK = DomainModel("unit-disk", 2, 1.0 + 0.0j, 2.0, _disk_member)


@dataclass(frozen=True, slots=True)
class Barrier:
    """One instantiated barrier function at a fixed radius."""

    log_inv_r: float
    func: Callable[[complex], complex]  # of the offset from the peak

    def __call__(self, delta) -> complex:
        return self.func(complex(delta))


@dataclass(frozen=True, slots=True)
class BarrierFamily:
    """Radius-indexed barrier functions made for one set of constants."""

    name: str
    domain: DomainModel
    consts: Constants
    exact_off_value: float | None  # constant value off the ball, if any
    min_log_inv_r: float  # radii restricted to r <= exp(-min_log_inv_r)
    cap_floor: float  # condition (3) holds at r iff C log^t(1/r) >= cap_floor
    _make: Callable[[float], Barrier]
    _off_bound: Callable[[complex, float], float]
    _values: Callable[[complex, list], list]

    def _in_range(self, log_inv_r: float) -> bool:
        return log_inv_r >= self.min_log_inv_r - 1e-12

    def barrier(self, log_inv_r: float) -> Barrier:
        if not self._in_range(log_inv_r):
            r_max = math.exp(-self.min_log_inv_r)
            raise FamilyAuditError(
                f"family {self.name!r} is defined for r <= {r_max:.6g}; "
                f"got log(1/r) = {log_inv_r!r}")
        return self._make(float(log_inv_r))

    def values(self, delta: complex, log_inv_r: list) -> list:
        """f_r(x + delta) at each log(1/r) of the list, in its order.

        Nothing is checked: callers admit the offset through the domain
        first, as evaluate_many does, and take radii in the family's range,
        as a certified series does; barrier(log(1/r)) checks both.  The
        offset's logarithms are taken once per call, and each exp, log, pow
        and cmath.exp is a libm call, so a value does not depend on the
        other radii of the call.
        """
        return self._values(delta, log_inv_r)

    def off_ball_bound(self, delta: complex, log_inv_r: float) -> float:
        """Upper bound on |f_r(x + delta)|, rounded up, for every radius
        r <= min(exp(-log_inv_r), |delta|) at an offset delta the domain
        admits; it does not increase as log_inv_r grows."""
        return self._off_bound(complex(delta), float(log_inv_r))

    def certificate(self) -> dict:
        """Closed-form certificate of the four barrier conditions at every
        schedule radius r_j <= r_1 = D.

        Conditions (1), (2) and (4) hold at every radius by the family's
        formula (see its constructor).  Condition (3) holds at r once the
        cap C log^t(1/r) reaches cap_floor; the cap grows as r shrinks, so
        one premise at r_1 = D covers the whole schedule.  It must clear
        the guard band, so a tie fails, and D must lie in the family's
        radius range.
        """
        c = self.consts
        cap = c.C * math.pow(c.log_inv_D, c.t)
        in_range = self._in_range(c.log_inv_D)
        return {
            "name": f"family-{self.name}",
            "range": f"all r <= D = {c.D!r}",
            "min_rel_margin": rel_margin(self.cap_floor, cap),
            "guard": GUARD,
            "passed": bool(in_range and strictly_less(self.cap_floor, cap)),
            "details": {
                "cap_at_D": cap,
                "cap_floor": self.cap_floor,
                "r_max": math.exp(-self.min_log_inv_r),
            },
        }


# -- continuous piecewise family on [0, 1] ---------------------------------


def _one_point(values, domain: DomainModel, lir: float) -> Barrier:
    """The barrier at one radius, as the family's hook computes it, at
    offsets the domain admits."""

    def f(delta: complex) -> complex:
        return values(domain.require(delta), [lir])[0]

    return Barrier(log_inv_r=lir, func=f)


def synthetic_family(consts: Constants) -> BarrierFamily:
    """Piecewise-linear-plus-power family on [0,1] peaking at 0.

    f_r rises from 1 at 0 to 3/2 at A*r as 1 + (1/2)(y/(A*r))^s, climbs
    linearly to the cap C*log^t(1/r) at (A*r + r)/2, descends linearly to
    alpha at r, and stays exactly alpha on [r, 1].  Its sup-norm therefore
    realizes the condition-(3) ceiling, which is the regime the series
    construction is designed for.  The conditions, at every radius:

      (1) f_r(0) = 1 by the y <= 0 branch;
      (2) f_r = alpha exactly for y > r, and the descending segment ends
          at alpha at y = r;
      (3) every segment is monotone, so sup |f_r| on the ball is
          max(3/2, cap): the cap must be at least 3/2 (cap_floor);
      (4) the first segment reaches 1 + eps^s only at y = 2^(1/s) * A*r*eps,
          strictly beyond the radius-(A*r*eps) ball.
    """
    alpha = consts.alpha
    s = consts.s
    t = consts.t
    big_a = consts.A
    big_c = consts.C
    log_a = math.log(big_a)
    w_mid = math.log((1.0 + big_a) / 2.0)
    two_over_gap = 2.0 / (1.0 - big_a)

    def values(delta, lirs):
        # x = 0: the offset is y, and an admitted y <= 0 is the peak
        if not delta.real > 0.0:
            return [1.0 + 0.0j] * len(lirs)
        ly = math.log(delta.real)
        ex, pw = math.exp, math.pow
        out = []
        for li in lirs:
            # w = log(y/r); segment tests stay in log space so underflowed
            # radii still evaluate correctly
            w = ly + li
            if w > 0.0:
                v = alpha
            elif w <= log_a:
                v = 1.0 + 0.5 * ex(s * (w - log_a))
            else:
                ratio = ex(w)  # y/r, in (A, 1]
                cap = big_c * pw(li, t)
                if w <= w_mid:
                    v = 1.5 + (cap - 1.5) * ((ratio - big_a) * two_over_gap)
                else:
                    v = cap + (alpha - cap) * (
                        (ratio - (1.0 + big_a) / 2.0) * two_over_gap)
            out.append(complex(v, 0.0))
        return out

    def make(lir: float) -> Barrier:
        cap = big_c * math.pow(lir, t)
        if not (cap >= 1.5):
            raise FamilyAuditError(
                f"radius too large: C*log^t(1/r) = {cap!r} < 3/2 at "
                f"log(1/r) = {lir!r}")
        return _one_point(values, UNIT_INTERVAL, lir)

    return BarrierFamily(
        name="synthetic",
        domain=UNIT_INTERVAL,
        consts=consts,
        exact_off_value=alpha,
        min_log_inv_r=math.log(10.0),
        cap_floor=1.5,
        _make=make,
        # f_r(y) = alpha exactly for y > r
        _off_bound=lambda y, lir: alpha,
        _values=values,
    )


# -- bounded holomorphic family on the closed unit disk --------------------


def disk_exponential_family(consts: Constants) -> BarrierFamily:
    """Scaled exponentials exp(lambda_r (z-1)) on the closed unit disk.

    lambda_r = 2*log(1/alpha)/r^2.  On the closed disk 2 Re(z-1) <=
    -|z-1|^2, so |f_r(z)| = exp(lambda_r Re(z-1)) <= alpha^((|z-1|/r)^2)
    <= 1.  The conditions, at every radius:

      (1) f_r(1) = 1;
      (2) |f_r| <= alpha wherever |z-1| >= r, by the bound above;
      (3) |f_r| <= 1, with equality at the peak: the cap must be at least
          1 (cap_floor);
      (4) |f_r| <= 1 < 1 + eps^s.

    This is the classical uniformly bounded regime.
    """
    alpha = consts.alpha
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must be in (0,1), got {alpha!r}")
    log_2_log_inv_alpha = math.log(2.0 * math.log(1.0 / alpha))

    def log_abs(v):
        return math.log(abs(v)) if v != 0.0 else None

    def values(delta, lirs):
        # the offset delta = z - 1 has Re delta <= 0 on the closed disk
        lx, ly, dy = log_abs(delta.real), log_abs(delta.imag), delta.imag
        ex, cx, cs = math.exp, cmath.exp, math.copysign
        out = []
        for li in lirs:
            # exponent lambda*delta computed componentwise in log space;
            # lambda itself can overflow for schedule radii
            log_lam = log_2_log_inv_alpha + 2.0 * li
            wre = 0.0
            if lx is not None:
                lw = log_lam + lx
                # past lw = 7 the modulus exp(-e^lw) underflows: f is 0
                if lw > 7.0:
                    out.append(0j)
                    continue
                wre = -ex(lw)
            if wre < -745.0:
                out.append(0j)
                continue
            wim = 0.0 if ly is None else cs(ex(min(log_lam + ly, 709.0)), dy)
            out.append(cx(complex(wre, wim)))
        return out

    def off_bound(delta: complex, lir: float) -> float:
        # the modulus exp(lambda_r Re delta) as f computes it, which is 1
        # only at the peak; rounded up past the error of cmath.exp and abs
        dx = delta.real
        if dx >= 0.0:
            mod = 1.0
        else:
            # exp(-exp(7)) underflows to 0, which the step up covers
            lw = log_2_log_inv_alpha + 2.0 * lir + math.log(-dx)
            mod = math.exp(-math.exp(min(lw, 7.0)))
        return math.nextafter(mod * (1.0 + 2.0 ** -50), math.inf)

    return BarrierFamily(
        name="disk-exp",
        domain=UNIT_DISK,
        consts=consts,
        exact_off_value=None,
        min_log_inv_r=math.log(1.0 / 0.2),
        cap_floor=1.0,
        _make=lambda lir: _one_point(values, UNIT_DISK, lir),
        _off_bound=off_bound,
        _values=values,
    )


FAMILY_NAMES = ("synthetic", "disk-exp")


def family_by_name(name: str, consts) -> BarrierFamily:
    if name == "synthetic":
        return synthetic_family(consts)
    if name == "disk-exp":
        return disk_exponential_family(consts)
    raise InvalidParameterError(
        f"unknown family {name!r}; expected one of {FAMILY_NAMES}")


# -- audit -------------------------------------------------------------------


def _interval_audit_points(r: float, n: int) -> list[float]:
    # uniform coverage plus log refinement toward the peak plus the exact
    # segment seams of the synthetic family
    pts = set(_linspace(0.0, 1.0, n))
    lo = max(r * 1e-8, 1e-280)
    pts.update(_geomspace(lo, 1.0, n))
    for seam in (0.25 * r, 0.5 * r, 0.75 * r, r, 1.5 * r, 2.0 * r):
        if 0.0 < seam <= 1.0:
            pts.add(seam)
            pts.add(math.nextafter(seam, 0.0))
            pts.add(math.nextafter(seam, 1.0))
    return sorted(pts)


def _disk_audit_points(n: int) -> list[complex]:
    nr = max(2, int(round(math.sqrt(n))))
    ntheta = max(4, n // nr)
    pts = [0.0 + 0.0j]
    for i in range(1, nr + 1):
        rho = i / nr
        for jj in range(ntheta):
            theta = _TWO_PI * jj / ntheta
            pts.append(complex(rho * math.cos(theta), rho * math.sin(theta)))
    return pts


def _ball_probe_points(domain: DomainModel, radius: float) -> list[complex]:
    """Offsets inside B(peak, radius) for the condition-(4) probe."""
    if radius <= 0.0:
        return []
    out: list[complex] = []
    dists = _geomspace(max(radius * 1e-6, 1e-280), radius * (1.0 - 1e-9), 8)
    if domain.dimension == 1:
        for d in dists:
            y = complex(d, 0.0)
            if domain.contains(y):
                out.append(y)
    else:
        # the closed disk lies on one side of its tangent at the peak
        for d in dists:
            for phi in (-0.25 * math.pi, 0.0, 0.25 * math.pi):
                delta = -(d * cmath.exp(complex(0.0, phi)))
                if domain.contains(delta):
                    out.append(delta)
    return out


@dataclass
class AuditReport:
    family: str
    radii: list
    grid_size: int
    condition_margins: dict
    failures: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "radii": list(self.radii),
            "grid_size": self.grid_size,
            "condition_margins": self.condition_margins,
            "failures": self.failures,
            "passed": self.passed,
        }


def audit_family(fam: BarrierFamily, radii, grid_size: int,
                 eps_grid=None) -> AuditReport:
    """Pointwise check of the four barrier conditions on a grid, against
    the constants the family was made for; the tests' reference for
    BarrierFamily.certificate.

    Conditions (2) and (3) are checked with the guard-band tolerance on
    every grid point; condition (1) is exact; condition (4) is probed on an
    epsilon grid with points planted inside each shrunken ball.  Any
    violation lands in the failures list with its condition, radius, and
    offset from the peak.
    """
    consts = fam.consts
    if eps_grid is None:
        eps_grid = [0.01 * i for i in range(1, 100)]
    worst = {
        "condition_1": math.inf,
        "condition_2": math.inf,
        "condition_3": math.inf,
        "condition_4": math.inf,
    }
    failures: list[dict] = []

    def fail(cond: str, r: float, point, margin: float) -> None:
        failures.append({
            "condition": cond,
            "radius": r,
            "point": repr(point),
            "margin": margin,
        })

    def moduli(points, lir):
        # |f_r| at each offset, from one call of the hook per offset
        return [abs(fam.values(z, [lir])[0]) for z in points]

    for r in radii:
        r = float(r)
        if not (0.0 < r < 1.0):
            raise InvalidParameterError(f"audit radius outside (0,1): {r!r}")
        lir = -math.log(r)
        bar = fam.barrier(lir)
        # condition (1): exact equality at the peak
        m1 = -abs(bar(0j) - 1.0)
        worst["condition_1"] = min(worst["condition_1"], m1)
        if m1 < 0.0:
            fail("condition_1", r, 0j, m1)
        if fam.domain.dimension == 1:
            grid = [complex(v, 0.0) for v in _interval_audit_points(r, grid_size)]
        else:
            grid = [z - fam.domain.peak for z in _disk_audit_points(grid_size)]
        cap = consts.C * math.pow(lir, consts.t)
        tol2 = GUARD * max(1.0, consts.alpha)
        tol3 = GUARD * max(1.0, cap)
        for z, mod in zip(grid, moduli(grid, lir)):
            d = fam.domain.distance_to_peak(z)
            if d >= r:
                margin = consts.alpha - mod
                worst["condition_2"] = min(worst["condition_2"], margin)
                if margin < -tol2:
                    fail("condition_2", r, z, margin)
            else:
                margin = cap - mod
                worst["condition_3"] = min(worst["condition_3"], margin)
                if margin < -tol3:
                    fail("condition_3", r, z, margin)
        probes = [(eps, z) for eps in eps_grid
                  for z in _ball_probe_points(fam.domain, consts.A * r * eps)]
        for (eps, z), mod in zip(probes,
                                 moduli([z for _, z in probes], lir)):
            threshold = 1.0 + math.pow(eps, consts.s)
            margin = threshold - mod
            worst["condition_4"] = min(worst["condition_4"], margin)
            if not margin > GUARD * threshold:
                fail("condition_4", r, z, margin)
    report = AuditReport(
        family=fam.name,
        radii=[float(r) for r in radii],
        grid_size=int(grid_size),
        condition_margins={kk: (vv if math.isfinite(vv) else None)
                           for kk, vv in worst.items()},
        failures=failures,
        passed=not failures,
    )
    return report


# -- evaluation grids --------------------------------------------------------


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """count evenly spaced floats from lo to hi, both ends included, with
    numpy.linspace's arithmetic: lo + i*step, or lo + (i/(count-1))*(hi-lo)
    where the step underflows to 0."""
    div = count - 1
    if div < 1:
        return [lo] * count
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        pts = [lo + i / div * delta for i in range(div)]
    else:
        pts = [lo + i * step for i in range(div)]
    return pts + [hi]


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    """count log-spaced floats from lo to hi > 0, both ends included:
    10^e_i from libm, e_i = _linspace(log10 lo, log10 hi, count)."""
    inner = [math.pow(10.0, e) for e in
             _linspace(math.log10(lo), math.log10(hi), count)[1:-1]]
    return ([lo] + inner + [hi])[:count]


def make_grid(fam: BarrierFamily, kind: str, lo: float, hi: float,
              count: int) -> list[complex]:
    """Deterministic evaluation grid approaching the peak, as offsets
    delta = y - x from it.

    Grid points are parameterized by distance d to the peak, spaced log or
    linear on [lo, hi], both ends included.  A linear grid is lo + i*step,
    step = (hi - lo)/(count - 1), as numpy.linspace computes it; a log grid
    is libm's pow(10, e_i) for e_i on the linear grid from log10(lo) to
    log10(hi), so it depends on libm alone.  On the interval the offset at
    distance d is d itself; on the disk each distance shell carries the
    offsets -d*exp(i*phi) at eight angles phi that the domain's exact test
    admits.
    No offset is emitted twice.  The floor protects the certified regime:
    distances below 1e-30 are out of scope.
    """
    if kind not in ("log", "linear"):
        raise InvalidParameterError(f"grid kind must be log|linear, got {kind!r}")
    if count < 1:
        raise InvalidParameterError(f"grid count must be >= 1, got {count!r}")
    if not (0.0 < lo <= hi):
        raise InvalidParameterError("grid needs 0 < lo <= hi")
    if lo < 1e-30:
        raise InvalidParameterError(
            f"grid floor is 1e-30; got lo = {lo!r}")
    if hi > fam.domain.diameter:
        raise InvalidParameterError(
            f"grid hi {hi!r} exceeds the domain diameter {fam.domain.diameter!r}")
    spaced = _geomspace if kind == "log" else _linspace
    if fam.domain.dimension == 1:
        pts = [complex(d, 0.0) for d in spaced(lo, hi, count)]
    else:
        turns = [cmath.exp(complex(0.0, _TWO_PI * jj / 8.0)) for jj in range(8)]
        pts = []
        for d in spaced(lo, hi, max(1, count // 8)):
            for turn in turns:
                delta = -(d * turn)
                if fam.domain.contains(delta):
                    pts.append(delta)
    # equal distances (lo = hi, or a spacing below one ulp) repeat offsets
    return list(dict.fromkeys(pts))
