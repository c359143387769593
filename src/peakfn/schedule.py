"""Shrinking-neighborhood schedule: epsilon sequence, radii, and majorant.

Radii collapse double precision fast (under the reference constants r_m
underflows near m = 85), so the schedule works exclusively in log(1/r).
The epsilon sequence and the radius recursion share the cached partial
sums S_k = sum_{j<=k} j^(p-1); the closed form also caches T_k = sum j^p.
"""

from __future__ import annotations

import bisect
import math

from . import _kernels
from .errors import DomainError, InvalidParameterError
from .hypothesis import GUARD, Constants

# split_index searches at most this many radii
SPLIT_CAP = 200_000


class Schedule:
    """Cached, append-only view of the sequences driven by one Constants set.

    Not thread-safe: queries grow the caches in place.
    """

    def __init__(self, consts: Constants):
        self.consts = consts
        self._lid = consts.log_inv_D
        self._lia = consts.log_inv_A
        self._p = consts.p
        # psi's power coefficient log(1/A)*L/(p(p+1))
        self._ca = consts.log_inv_A * consts.L / (consts.p * (consts.p + 1.0))
        self._psums: list[float] = []
        self._tsums: list[float] = []
        self._lir: list[float] = [consts.log_inv_D]

    # -- cache growth --------------------------------------------------

    @staticmethod
    def _grown(sums: list[float], k: int, e: float) -> list[float]:
        """Prefix sums of j^e holding at least k terms, extended in place."""
        done = len(sums)
        if k > done:
            sums += _kernels.pow_sums(max(k, 2 * done, 16) - done, e, done,
                                      sums[-1] if sums else 0.0)
        return sums

    def _ensure_psums(self, k: int) -> None:
        self._psums = self._grown(self._psums, k, self._p - 1.0)

    def _ensure_radii(self, m: int) -> None:
        if m <= len(self._lir):
            return
        self._ensure_psums(m - 1)
        lir = self._lir
        while len(lir) < m:
            j = len(lir)  # extending to index j+1 (1-based)
            log_inv_eps = self._lid + self._psums[j - 1] * self._lia
            lir.append(self._lia + lir[-1] + log_inv_eps)

    # -- sequence queries ----------------------------------------------

    def pow_sum(self, k: int) -> float:
        """S_k = sum_{j<=k} j^(p-1)."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k!r}")
        self._ensure_psums(k)
        return self._psums[k - 1]

    def log_inv_eps(self, k: int) -> float:
        """log(1/eps_k) = log(1/D) + S_k * log(1/A)."""
        return self._lid + self.pow_sum(k) * self._lia

    def epsilon(self, k: int) -> float:
        """eps_k = D * A^(S_k), evaluated through log-space."""
        return math.exp(-self.log_inv_eps(k))

    def log_inv_radius(self, m: int) -> float:
        """log(1/r_m) by the shrink recursion, base r_1 = D."""
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m!r}")
        self._ensure_radii(m)
        return self._lir[m - 1]

    def log_inv_radii(self, n: int) -> list[float]:
        """[log(1/r_1), ..., log(1/r_n)], the floats of log_inv_radius."""
        self._ensure_radii(n)
        return self._lir[:n]

    def log_inv_epsilons(self, n: int) -> list[float]:
        """[log(1/eps_1), ..., log(1/eps_n)], the floats of log_inv_eps."""
        self._ensure_psums(n)
        lid, lia = self._lid, self._lia
        return [lid + s * lia for s in self._psums[:n]]

    def log_inv_radii_closed(self, n: int) -> list[float]:
        """Closed forms m*log(1/D) + log(1/A)*[(m-1) + sum_{j<m}(m-j)j^(p-1)]
        of log(1/r_m) for m = 1..n, in one pass.

        The weighted sum telescopes to m*S_{m-1} - T_{m-1} with
        T_k = sum_{j<=k} j^p.
        """
        self._ensure_psums(n - 1)
        self._tsums = self._grown(self._tsums, n - 1, self._p)
        lid, lia = self._lid, self._lia
        out = [lid]   # m = 1
        for m, s, tsum in zip(range(2, n + 1), self._psums, self._tsums):
            mf = float(m)
            out.append(mf * lid + lia * ((m - 1.0) + (mf * s - tsum)))
        return out[:n]

    def psi(self, tau: float) -> float:
        """Majorant tau*log(1/D) + log(1/A)*L*tau^(1+p)/(p(p+1)), flat below 1."""
        if tau < 0.0:
            raise DomainError(f"psi needs tau >= 0, got {tau!r}")
        return _kernels.psi_val(tau, self._lid, self._ca, self._p)

    @property
    def psi_power_coefficient(self) -> float:
        """Coefficient of tau^(1+p) in psi."""
        return self._ca

    def split_index(self, log_inv_dist: float) -> int:
        """Smallest m with r_m <= dist, i.e. log(1/r_m) >= log(1/dist).

        Conservative: near-ties are pushed to the next index, which only
        moves a term from the tail bound into the exactly-evaluated head.

        A binary search over the cached log-radii, grown by doubling up to
        SPLIT_CAP.  The test is monotone in m: log(1/r_m) grows with m by
        log(1/A) + log(1/eps_m) > 0 per step, while the right side, the
        rounded sum log(1/dist) + GUARD*max(1, |log(1/r_m)|), grows by at
        most GUARD times that step plus two roundings, far less than the
        step.  So once the test holds at some m it holds at every later m.
        """
        lir, cap = self._lir, SPLIT_CAP

        def inward(v: float) -> bool:
            return v >= log_inv_dist + GUARD * max(1.0, abs(v))

        n = max(1, min(len(lir), cap))
        while not inward(lir[n - 1]):
            if n >= cap:
                raise InvalidParameterError(
                    f"split index exceeded cap {cap} (point too close to "
                    "peak)")
            n = min(2 * n, cap)
            self._ensure_radii(n)
        return bisect.bisect_left(lir, True, 0, n, key=inward) + 1

    # -- bracket sweep ----------------------------------------------------

    def check_sum_brackets(self, m_max: int, p: float | None = None) -> dict:
        """Sandwich brackets for both power partial sums over [2, m_max].

        A finite sweep; certify uses the all-m proof in
        hypothesis.bracket_certificate, and the tests keep this as its
        reference.
        """
        if m_max < 2:
            raise InvalidParameterError(f"m_max must be >= 2, got {m_max!r}")
        pp = self._p if p is None else float(p)
        if not (0.0 < pp < 1.0):
            raise InvalidParameterError(f"p must be in (0,1), got {pp!r}")
        r1lo, a1lo, r1hi, a1hi, r2lo, a2lo, r2hi, a2hi = \
            _kernels.bracket_sweep(m_max, pp)
        worst = min(r1lo, r1hi, r2lo, r2hi)
        return {
            "m_max": m_max,
            "p": pp,
            "min_rel_margins": {
                "sum_p_minus_1_lower": [r1lo, a1lo],
                "sum_p_minus_1_upper": [r1hi, a1hi],
                "sum_p_lower": [r2lo, a2lo],
                "sum_p_upper": [r2hi, a2hi],
            },
            "min_rel_margin": worst,
            "passed": bool(worst > GUARD),
        }
