"""Weight engine: g, sigma_j, and certified normalizer/tail enclosures.

Everything rests on one exact identity: integrating g * psi^(-t) from x to
infinity gives g(x)/k in closed form.  That converts every infinite tail
into a finite bracket, which is what makes the series certifiable at desk
scale (the weights decay only like exp(-c*x^(1-q)) with q close to 1, so
explicit summation alone would never converge usefully).
"""

from __future__ import annotations

import math

from . import _kernels
from .enclosure import ZERO, Enclosure, ulps_out_all
from .errors import DomainError, InvalidParameterError
from .hypothesis import GUARD, Constants, strictly_less
from .schedule import Schedule

# integer points cached with unit-panel quadrature; beyond this a single
# long bracket panel is used per query
UNIT_CACHE_CAP = 20_000

# upward rounding of the decay witness A2 (see decay_bound_check)
A2_ULPS = 16


class WeightEngine:
    """Cached enclosures of I, g, sigma and their prefix sums and tails.

    The caches hold the lower and upper ends as float lists, for j = 0..n
    (I and g) or 1..n (sigma), n the largest index asked for so far.
    reserve grows them in one pass over bare float ends, with the very
    floats the Enclosure arithmetic gives index by index; the public
    methods wrap the ends they return in an Enclosure.

    Not thread-safe: queries grow the caches in place.
    """

    def __init__(self, consts: Constants, schedule: Schedule | None = None):
        self.consts = consts
        self.schedule = schedule if schedule is not None else Schedule(consts)
        self._lid = consts.log_inv_D
        self._ca = self.schedule.psi_power_coefficient
        psi1 = self.schedule.psi(1.0)
        # psi(1)^(-t) through two libm calls: pad generously
        self._psi1_negt = Enclosure.from_libm(math.pow(psi1, -consts.t), ulps=8)
        self._i_lo, self._i_hi = [0.0], [0.0]
        self._g_lo, self._g_hi = [1.0], [1.0]
        self._sig_lo: list[float] = []
        self._sig_hi: list[float] = []
        self._pre_lo, self._pre_hi = [0.0], [0.0]

    # -- quadrature ------------------------------------------------------

    def _quad_panel(self, a: float, b: float) -> Enclosure:
        """Enclosure of the psi^(-t) integral over [a, b], a >= 1."""
        return Enclosure(*_kernels.quad_psi_negt(
            a, b, self._lid, self._ca, self.consts.p, self.consts.t))

    def _integer_i(self, j0: int, n: int) -> tuple[list, list]:
        """Ends of I(j) for j = j0..n, j0 = len(cache) >= 1: I(1) is
        psi(1)^(-t), then unit panels are added up to UNIT_CACHE_CAP, and
        past it I(j) is I(cap) plus the one panel [cap, j]."""
        i_lo, i_hi = self._i_lo, self._i_hi
        lo, hi = i_lo[-1], i_hi[-1]
        out_lo, out_hi = [], []
        nx, inf, ninf = math.nextafter, math.inf, -math.inf
        if j0 == 1:
            first = self._psi1_negt * 1.0
            lo, hi = first.lo, first.hi
            out_lo.append(lo)
            out_hi.append(hi)
            j0 = 2
        cap = UNIT_CACHE_CAP
        if j0 <= min(n, cap):
            q_lo, q_hi = _kernels.quad_unit_panels(
                j0, min(n, cap) - j0 + 1, self._lid, self._ca,
                self.consts.p, self.consts.t)
            # the running sums stay sequential, each step rounded outward
            for a, b in zip(q_lo, q_hi):
                lo = nx(nx(lo + a, ninf), ninf)
                hi = nx(nx(hi + b, inf), inf)
                out_lo.append(lo)
                out_hi.append(hi)
        if n > cap:
            base = Enclosure((i_lo + out_lo)[cap], (i_hi + out_hi)[cap])
            for j in range(max(j0, cap + 1), n + 1):
                enc = base + self._quad_panel(float(cap), float(j))
                out_lo.append(enc.lo)
                out_hi.append(enc.hi)
        return out_lo, out_hi

    def reserve(self, n: int) -> None:
        """Fill the caches of I, g, sigma and the prefix sums up to j = n.

        One pass: sigma_j = g(j) / (M psi(j)^t) with g = exp(-k I) runs
        over bare float ends in the order Enclosure's operators take, each
        end rounded two ulps outward per operation and psi(j)^t eight, and
        every exp and pow a libm call.  Where Enclosure picks the smallest
        and largest of its products and quotients, the order is known, as
        rounding is monotone: I.lo <= I.hi times -k < 0, the psi^t ends
        times M > 0, and g's ends over the ends of M psi^t > 0, of which
        only g's upper end is sure to be positive.
        """
        done = len(self._sig_lo)
        if n <= done:
            return
        i_lo, i_hi = self._integer_i(done + 1, n)
        ex, pw = math.exp, math.pow
        neg_k, m_const = -self.consts.k, self.consts.M
        lid, ca, t = self._lid, self._ca, self.consts.t
        e = 1.0 + self.consts.p
        # psi(j)^t, j >= 1, where psi is not clamped
        p_lo, p_hi = ulps_out_all(
            [pw(j * lid + ca * pw(float(j), e), t)
             for j in range(done + 1, n + 1)], 8)
        # each enclosure.down and up written out as its nextafter pair
        nx, inf, ninf = math.nextafter, math.inf, -math.inf
        g_lo, g_hi, s_lo, s_hi = [], [], [], []
        for lo, hi, plo, phi in zip(i_lo, i_hi, p_lo, p_hi):
            glo = nx(nx(ex(nx(nx(hi * neg_k, ninf), ninf)), ninf), ninf)
            ghi = nx(nx(ex(nx(nx(lo * neg_k, inf), inf)), inf), inf)
            dlo = nx(nx(plo * m_const, ninf), ninf)
            dhi = nx(nx(phi * m_const, inf), inf)
            g_lo.append(glo)
            g_hi.append(ghi)
            s_lo.append(nx(nx(glo / (dhi if glo >= 0.0 else dlo), ninf),
                           ninf))
            s_hi.append(nx(nx(ghi / dlo, inf), inf))
        self._i_lo += i_lo
        self._i_hi += i_hi
        self._g_lo += g_lo
        self._g_hi += g_hi
        self._sig_lo += s_lo
        self._sig_hi += s_hi
        plo, phi = self._pre_lo[-1], self._pre_hi[-1]
        for a, b in zip(s_lo, s_hi):
            plo = nx(nx(plo + a, ninf), ninf)
            phi = nx(nx(phi + b, inf), inf)
            self._pre_lo.append(plo)
            self._pre_hi.append(phi)

    # -- core quantities ---------------------------------------------------

    def integral_I(self, x: float) -> Enclosure:
        """Enclosure of the accumulated decay integral from 0 to x."""
        if x < 0.0:
            raise DomainError(f"integral_I needs x >= 0, got {x!r}")
        if x == 0.0:
            return ZERO
        if x <= 1.0:
            # psi is flat below 1, so the integral is exactly linear here
            return self._psi1_negt * x
        base = min(int(math.floor(x)), UNIT_CACHE_CAP)
        self.reserve(base)
        enc = Enclosure(self._i_lo[base], self._i_hi[base])
        if x > float(base):
            enc = enc + self._quad_panel(float(base), x)
        return enc

    def g(self, x: float) -> Enclosure:
        """Decay factor exp(-k * I(x)); equals 1 at x = 0."""
        if x == 0.0:
            return Enclosure(1.0, 1.0)
        j = int(x)
        if j == x and 1 <= j and (j <= UNIT_CACHE_CAP
                                  or j <= len(self._sig_lo)):
            self.reserve(j)
            return Enclosure(self._g_lo[j], self._g_hi[j])
        return (self.integral_I(x) * (-self.consts.k)).exp()

    def sigma(self, j: int) -> Enclosure:
        """Weight sigma_j = g(j) / (M * psi(j)^t)."""
        if j < 1:
            raise InvalidParameterError(f"sigma needs j >= 1, got {j!r}")
        self.reserve(j)
        return Enclosure(self._sig_lo[j - 1], self._sig_hi[j - 1])

    def sigma_bounds(self, n: int) -> tuple[list, list]:
        """Lower and upper ends of sigma_1..sigma_n, as two float lists."""
        self.reserve(n)
        return self._sig_lo[:n], self._sig_hi[:n]

    def sigma_prefix(self, n: int) -> Enclosure:
        """Enclosure of sum_{j<=n} sigma_j (zero for n = 0)."""
        if n < 0:
            raise InvalidParameterError(f"prefix needs n >= 0, got {n!r}")
        self.reserve(n)
        return Enclosure(self._pre_lo[n], self._pre_hi[n])

    def tail(self, m: int) -> Enclosure:
        """Enclosure of sum_{j>m} sigma_j.

        The summand is decreasing, so the integral comparison sandwiches the
        remainder between g(m+1)/(M k) and sigma_{m+1} + g(m+1)/(M k) (the
        integral is exactly g/(M k) by the closed-form identity).  The
        bracket is added to ZERO, which pads each end two ulps outward;
        the normalizer and every series file carry that pad.
        """
        if m < 0:
            raise InvalidParameterError(f"tail needs m >= 0, got {m!r}")
        integral = self.g(float(m + 1)) / self.consts.mk
        upper = self.sigma(m + 1) + integral
        return ZERO + Enclosure(integral.lo, upper.hi)

    # -- lemma-facing checks ----------------------------------------------

    def integral_equation_residual(self, x: float, x_offset: float = 50.0) -> dict:
        """Consistency of g with its defining integral equation.

        Checks k * int_x^X g * psi^(-t) + g(X) = g(x) with X = x + x_offset,
        the tail beyond X replaced by its exact closed form.  Returns the
        relative residual.  g * psi^(-t) is completely monotone like
        psi^(-t), so the bracket rule applies; its midpoint is used, on
        midpoint values of g (a consistency check, not an enclosure).
        """
        if x < 0.0:
            raise DomainError(f"x must be >= 0, got {x!r}")
        big_x = x + x_offset
        k = self.consts.k

        def integrand(s: float) -> float:
            return math.exp(-k * self.integral_I(s).mid) * \
                math.pow(self.schedule.psi(s), -self.consts.t)

        lo, hi = _kernels.bracket_quad(integrand, x, big_x)
        gx = self.g(x).mid
        gbig = self.g(big_x).mid
        residual = abs(k * 0.5 * (lo + hi) + gbig - gx) / gx
        return {
            "x": x,
            "X": big_x,
            "quad_width": hi - lo,
            "relative_residual": residual,
        }

    def divergence_certificate(self, s1: float = 1.0e3, s2: float = 1.0e6) -> dict:
        """Certified unboundedness of u(x) = k * I(x).

        psi(tau) <= psi(1) * tau^(1+p) for tau >= 1, so u(s2) - u(s1) is at
        least k * psi(1)^(-t) * (s2^(1-q) - s1^(1-q))/(1-q); the same closed
        form grows without bound since 1-q > 0.  Measures the increase as k
        times the lower end of one bracket over [s1, s2], and passes when
        the minorant lies strictly below it.
        """
        if not (1.0 <= s1 < s2):
            raise InvalidParameterError("need 1 <= s1 < s2")
        k = self.consts.k
        one_minus_q = 1.0 - self.consts.q
        measured = k * self._quad_panel(s1, s2).lo
        # where 1 - q rounds to 0 the premise fails before any division
        minorant = (k * self._psi1_negt.lo * (math.pow(s2, one_minus_q)
                    - math.pow(s1, one_minus_q)) / one_minus_q
                    if one_minus_q > GUARD else None)
        passed = minorant is not None and strictly_less(minorant, measured)
        return {
            "s1": s1,
            "s2": s2,
            "measured_increase": measured,
            "certified_minorant": minorant,
            "divergence_exponent": one_minus_q,
            "passed": bool(passed),
        }

    def decay_bound_check(self, x_on: float = 10.0) -> dict:
        """Witness constants for the stretched-exponential decay of g.

        For s >= 1, psi(s)/s^(1+p) = log(1/D) * s^(-p) + ca with ca the
        power coefficient, so the ratio decreases strictly from its value
        r_on at x_on down to ca.  Hence A3^(1/t) * s^(1+p) <= psi(s) <=
        A2^(1/t) * s^(1+p) for s >= x_on with A2 = r_on^t, A3 = ca^t, and
        since (1+p)t = q, psi(s)^(-t) >= s^(-q)/A2 there.  Integrating,
        I(x) >= (x^(1-q) - x_on^(1-q))/(A2 (1-q)) for x >= x_on, which is

            g(x) <= A1 * exp(-k * x^(1-q)/(A2 (1-q))),
            A1 = exp(k * x_on^(1-q)/(A2 (1-q))),

        for every x >= x_on; below x_on the right side exceeds 1 >= g.
        The record checks the premises: x_on >= 1, log(1/D) > 0, p > 0,
        t > 0 and 1-q above the guard band.  r_on^t takes three pows (within 1 ulp
        each) and four correctly rounded operations on positive values, so
        its float is within 8 ulps of the exact value; A2 is rounded up by
        A2_ULPS = 16 to stay an upper bound.
        """
        t = self.consts.t
        p = self.consts.p
        k = self.consts.k
        one_minus_q = 1.0 - self.consts.q
        r_on = self.schedule.psi(x_on) / math.pow(x_on, 1.0 + p)
        a2 = Enclosure.from_libm(math.pow(r_on, t), ulps=A2_ULPS).hi
        a3 = math.pow(self._ca, t)
        passed = (x_on >= 1.0 and self._lid > 0.0 and p > 0.0 and t > 0.0
                  and one_minus_q > GUARD)
        # where 1 - q rounds to 0 the premise fails before any division
        a1 = (math.exp(k / (a2 * one_minus_q) * math.pow(x_on, one_minus_q))
              if one_minus_q > GUARD else None)
        return {
            "x_on": x_on,
            "A1": a1,
            "A2": a2,
            "A3": a3,
            "ratio_at_onset": r_on,
            "ratio_limit": self._ca,
            "passed": bool(passed),
        }
