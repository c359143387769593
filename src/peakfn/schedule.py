"""Shrinking-neighborhood schedule: epsilon sequence, radii, and majorant.

Radii collapse double precision fast (under the reference constants r_m
underflows near m = 85), so the schedule works exclusively in log(1/r).
The epsilon sequence and the radius recursion share the cached partial
sums S_k = sum_{j<=k} j^(p-1).
"""

from __future__ import annotations

import math

from . import _kernels
from .errors import DomainError, InvalidParameterError
from .hypothesis import GUARD, Constants


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
        self._lir: list[float] = [consts.log_inv_D]

    # -- cache growth --------------------------------------------------

    def _ensure_psums(self, k: int) -> None:
        if k <= len(self._psums):
            return
        n = max(k, 2 * len(self._psums), 16)
        # recomputing the full prefix gives the same floats as extending
        self._psums = _kernels.pow_sums(n, self._p - 1.0)

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

    def log_inv_radius_closed(self, m: int) -> float:
        """Closed form m*log(1/D) + log(1/A)*[(m-1) + sum_{j<m}(m-j)j^(p-1)].

        The weighted sum telescopes to m*S_{m-1} - T_{m-1} with
        T_k = sum_{j<=k} j^p.
        """
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m!r}")
        if m == 1:
            return float(m) * self._lid
        s = self.pow_sum(m - 1)
        tsum = _kernels.pow_sums(m - 1, self._p)[m - 2]
        weighted = float(m) * s - tsum
        return float(m) * self._lid + self._lia * ((m - 1.0) + weighted)

    def psi(self, tau: float) -> float:
        """Majorant tau*log(1/D) + log(1/A)*L*tau^(1+p)/(p(p+1)), flat below 1."""
        if tau < 0.0:
            raise DomainError(f"psi needs tau >= 0, got {tau!r}")
        return _kernels.psi_val(tau, self._lid, self._ca, self._p)

    @property
    def psi_power_coefficient(self) -> float:
        """Coefficient of tau^(1+p) in psi."""
        return self._ca

    def split_index(self, log_inv_dist: float, cap: int = 200_000) -> int:
        """Smallest m with r_m <= dist, i.e. log(1/r_m) >= log(1/dist).

        Conservative: near-ties are pushed to the next index, which only
        moves a term from the tail bound into the exactly-evaluated head.
        """
        m = 1
        while True:
            lir = self.log_inv_radius(m)
            if lir >= log_inv_dist + GUARD * max(1.0, abs(lir)):
                return m
            m += 1
            if m > cap:
                raise InvalidParameterError(
                    f"split index exceeded cap {cap} (point too close to peak)")

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
