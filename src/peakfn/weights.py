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
from .enclosure import ZERO, Enclosure
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
        self._i_enc: list[Enclosure] = [ZERO]
        self._sigma: list[Enclosure] = []
        self._sigma_prefix: list[Enclosure] = [ZERO]

    # -- quadrature ------------------------------------------------------

    def _quad_panel(self, a: float, b: float) -> Enclosure:
        """Enclosure of the psi^(-t) integral over [a, b], a >= 1."""
        return Enclosure(*_kernels.quad_psi_negt(
            a, b, self._lid, self._ca, self.consts.p, self.consts.t))

    def _ensure_integer_i(self, n: int) -> None:
        cache = self._i_enc
        while len(cache) <= n:
            j = len(cache)  # next integer point
            if j == 1:
                cache.append(self._psi1_negt * 1.0)
            else:
                cache.append(cache[-1] + self._quad_panel(float(j - 1), float(j)))

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
        self._ensure_integer_i(base)
        enc = self._i_enc[base]
        if x > float(base):
            enc = enc + self._quad_panel(float(base), x)
        return enc

    def g(self, x: float) -> Enclosure:
        """Decay factor exp(-k * I(x)); equals 1 at x = 0."""
        if x == 0.0:
            return Enclosure(1.0, 1.0)
        return (self.integral_I(x) * (-self.consts.k)).exp()

    def _ensure_sigma(self, n: int) -> None:
        if n <= len(self._sigma):
            return
        self._ensure_integer_i(min(n, UNIT_CACHE_CAP))
        m_const = self.consts.M
        t = self.consts.t
        while len(self._sigma) < n:
            j = len(self._sigma) + 1
            g_enc = self.g(float(j))
            psit = Enclosure.from_libm(
                math.pow(self.schedule.psi(float(j)), t), ulps=8)
            sig = g_enc / (psit * m_const)
            self._sigma.append(sig)
            self._sigma_prefix.append(self._sigma_prefix[-1] + sig)

    def sigma(self, j: int) -> Enclosure:
        """Weight sigma_j = g(j) / (M * psi(j)^t)."""
        if j < 1:
            raise InvalidParameterError(f"sigma needs j >= 1, got {j!r}")
        self._ensure_sigma(j)
        return self._sigma[j - 1]

    def sigma_prefix(self, n: int) -> Enclosure:
        """Enclosure of sum_{j<=n} sigma_j (zero for n = 0)."""
        if n < 0:
            raise InvalidParameterError(f"prefix needs n >= 0, got {n!r}")
        self._ensure_sigma(n)
        return self._sigma_prefix[n]

    def sigma_range(self, a: int, b: int) -> Enclosure:
        """Enclosure of sum_{j=a..b} sigma_j; zero when the range is empty."""
        if b < a:
            return ZERO
        return self.sigma_prefix(b) - self.sigma_prefix(a - 1)

    def tail(self, m: int, sharpen: int = 0) -> Enclosure:
        """Enclosure of sum_{j>m} sigma_j.

        The summand is decreasing, so the integral comparison sandwiches the
        remainder between g(m+1)/(M k) and sigma_{m+1} + g(m+1)/(M k) (the
        integral is exactly g/(M k) by the closed-form identity).  With
        sharpen = n, the first n terms are summed explicitly before
        bracketing, which tightens the width to roughly sigma_{m+n+1}.
        """
        if m < 0:
            raise InvalidParameterError(f"tail needs m >= 0, got {m!r}")
        if sharpen < 0:
            raise InvalidParameterError(f"sharpen must be >= 0, got {sharpen!r}")
        m2 = m + sharpen
        head = self.sigma_range(m + 1, m2)
        gref = self.g(float(m2 + 1))
        integral = gref / self.consts.mk
        upper = self.sigma(m2 + 1) + integral
        bracket = Enclosure(integral.lo, upper.hi)
        return head + bracket

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
        minorant = k * self._psi1_negt.lo * \
            (math.pow(s2, one_minus_q) - math.pow(s1, one_minus_q)) / one_minus_q
        passed = strictly_less(minorant, measured) and one_minus_q > GUARD
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
        rate = k / (a2 * one_minus_q)
        a1 = math.exp(rate * math.pow(x_on, one_minus_q))
        passed = (x_on >= 1.0 and self._lid > 0.0 and p > 0.0 and t > 0.0
                  and one_minus_q > GUARD)
        return {
            "x_on": x_on,
            "A1": a1,
            "A2": a2,
            "A3": a3,
            "ratio_at_onset": r_on,
            "ratio_limit": self._ca,
            "passed": bool(passed),
        }
