"""Hypothesis constants: validation, normalization, and derivation.

The construction needs five user constants (alpha, s, t, A, C) and six
derived ones (D, M, p, q, L, k).  Every derivation here follows an explicit
inequality; the chooser functions certify their own output and report
margins, so downstream modules can treat the constants as pre-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InfeasibleParametersError,
    InvalidHypothesisError,
    InvalidParameterError,
)

# relative guard band: inequalities must clear this margin, ties fail
GUARD = 1e-12

# normalization floor for t; any fixed value in (1/2, 1) works
T_FLOOR = 0.75

# minimum slack of M above 1
DELTA_M = 0.5

# cap for the geometric M search, as a multiple of C
M_CAP_FACTOR = 2.0 ** 20

# radius-bound constant; choose_L proves L >= 3 suffices for every p in (0,1)
L_CANDIDATE = 5.0

# the point of the shrink inequality's admission premise d(M_MAX) > 0; the
# proof does not need it, but it decides which hypotheses choose_M admits,
# and so the accepted M and every report
M_MAX = 120

# p values on which the tests compare the L bound with a direct sweep
# (p is in (0,1) for all admissible t, M)
P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


def strictly_less(small: float, big: float, guard: float = GUARD) -> bool:
    """True iff small < big with relative clearance guard (ties fail)."""
    return big - small > guard * max(abs(small), abs(big))


def rel_margin(small: float, big: float) -> float:
    """Signed relative margin of small < big."""
    scale = max(abs(small), abs(big))
    if scale == 0.0:
        return 0.0
    return (big - small) / scale


@dataclass(frozen=True, slots=True)
class HypothesisConstants:
    """User-supplied constants of the barrier hypothesis."""

    alpha: float
    s: float
    t: float
    A: float
    C: float

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InvalidHypothesisError(f"alpha must be in (0,1), got {self.alpha!r}")
        if not (0.0 < self.s <= 1.0):
            raise InvalidHypothesisError(f"s must be in (0,1], got {self.s!r}")
        if not (0.0 < self.t < 1.0):
            raise InvalidHypothesisError(f"t must be in (0,1), got {self.t!r}")
        if not (0.0 < self.A < 1.0):
            raise InvalidHypothesisError(f"A must be in (0,1), got {self.A!r}")
        if not (self.C > 0.0 and math.isfinite(self.C)):
            raise InvalidHypothesisError(f"C must be positive, got {self.C!r}")

    def normalized(self) -> "HypothesisConstants":
        """Apply the t and C adjustments; idempotent."""
        self.validate()
        t = adjust_t(self.t)
        c = adjust_C(self.alpha, self.s, self.C)
        return HypothesisConstants(self.alpha, self.s, t, self.A, c)


@dataclass(frozen=True, slots=True)
class Constants:
    """Normalized hypothesis constants plus all derived constants."""

    alpha: float
    s: float
    t: float
    A: float
    C: float
    D: float
    M: float
    p: float
    q: float
    L: float
    k: float

    @property
    def log_inv_D(self) -> float:
        return math.log(1.0 / self.D)

    @property
    def log_inv_A(self) -> float:
        return math.log(1.0 / self.A)

    @property
    def mk(self) -> float:
        # M*k collapses to (1-alpha)/2 exactly
        return (1.0 - self.alpha) / 2.0

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "s": self.s, "t": self.t, "A": self.A,
            "C": self.C, "D": self.D, "M": self.M, "p": self.p,
            "q": self.q, "L": self.L, "k": self.k,
        }


def adjust_t(t: float) -> float:
    """Raise t to the working floor; raising t only weakens the growth cap."""
    if not (0.0 < t < 1.0):
        raise InvalidHypothesisError(f"t must be in (0,1), got {t!r}")
    return max(t, T_FLOOR)


def adjust_C(alpha: float, s: float, C: float) -> float:
    """Minimal raise of C so that s - (1-alpha)/C is strictly positive."""
    return max(C, 2.0 * (1.0 - alpha) / s)


def first_shell_margin(alpha: float, s: float, C: float, D: float) -> float:
    """Margin of the first-shell inequality (1-alpha)/2 * D^((1-alpha)/C) >= D^s."""
    lhs = (1.0 - alpha) / 2.0 * math.pow(D, (1.0 - alpha) / C)
    return lhs - math.pow(D, s)


def choose_D(alpha: float, s: float, C: float) -> float:
    """Pick the first radius D strictly inside the first-shell inequality.

    The inequality holds for all D below the equality point D_eq (the
    exponent gap s - (1-alpha)/C is positive after adjust_C).  Policy:
    return 0.1 when it clears the guard band, else half the equality point.
    """
    gap = s - (1.0 - alpha) / C
    if not (gap > 0.0):
        raise InvalidHypothesisError(
            f"need s - (1-alpha)/C > 0 (run adjust_C first), got gap {gap!r}")

    def shell_ok(d: float) -> bool:
        lhs = (1.0 - alpha) / 2.0 * math.pow(d, (1.0 - alpha) / C)
        rhs = math.pow(d, s)
        return strictly_less(rhs, lhs)

    # bisect the equality point of (1-alpha)/2 * D^((1-alpha)/C) = D^s;
    # margin is positive at 0+ and negative near 1
    lo, hi = 1e-15, 1.0 - 1e-15
    if first_shell_margin(alpha, s, C, hi) >= 0.0:
        # inequality holds on the whole range; any D works
        d_eq = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # hi only ever holds a point whose margin is not >= 0, so
                # from here on every step repeats this one and leaves lo,
                # all that d_eq reads, as it is
                break
            if first_shell_margin(alpha, s, C, mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        d_eq = lo
    if d_eq > 0.1 and shell_ok(0.1):
        return 0.1
    d = 0.5 * d_eq
    while d > 0.0 and not shell_ok(d):
        d *= 0.5
    if d <= 0.0:
        raise InfeasibleParametersError("no D satisfies the first-shell inequality")
    return d


def derive_pq(t: float, M: float) -> tuple[float, float]:
    """Exponent pair p = M(1-t)/(1+Mt), q = (t+Mt)/(1+Mt)."""
    if not (0.5 < t < 1.0):
        raise InvalidParameterError(f"t must be in (1/2,1) after adjust_t, got {t!r}")
    if not (M > 1.0):
        raise InvalidParameterError(
            f"M must exceed 1 (else 1-q < p fails), got {M!r}")
    denom = 1.0 + M * t
    p = M * (1.0 - t) / denom
    q = (t + M * t) / denom
    return p, q


def derive_k(alpha: float, M: float) -> float:
    """Decay rate k = (1-alpha)/(2M), so that Mk = (1-alpha)/2."""
    return (1.0 - alpha) / (2.0 * M)


def _eps_coefficients(alpha: float, s: float, t: float, A: float,
                      M: float, p: float, q: float) -> tuple:
    """The parts of the shrink inequality's two exponents that do not
    depend on m: c1, c2 = log(1/A) * s/p, 1-q and 2^(1-q)."""
    one_minus_q = 1.0 - q
    c1 = (1.0 + M * t) * (1.0 - alpha) / (2.0 * M * (1.0 - t))
    c2 = math.log(1.0 / A) * (s / p)
    return c1, c2, one_minus_q, math.pow(2.0, one_minus_q)


def eps_exponent_sides(alpha: float, s: float, t: float, A: float,
                       M: float, p: float, q: float, m: int) -> tuple[float, float]:
    """LHS and RHS exponents of the neighborhood-shrink inequality at m.

    LHS: [(1+Mt)(1-alpha)/(2M(1-t))] * [(m+1)^(1-q) - 2^(1-q)]
    RHS: log(1/A) * (s/p) * [(m-1)^p - 1]
    """
    c1, c2, one_minus_q, base = _eps_coefficients(alpha, s, t, A, M, p, q)
    return (c1 * (math.pow(m + 1.0, one_minus_q) - base),
            c2 * (math.pow(m - 1.0, p) - 1.0))


def slope_test(lo: float, coeff: float, a: float, p: float, m0: float,
               shift: float) -> tuple:
    """Slope premise of a closed-form tail proof: coeff * R(m0) > lo with
    the guard band, R(m) = (m+1)^a / (m-shift)^(1-p).

    Given a > 1-p, R falls and then rises, with its minimum at
    m* = (1-p+a*shift)/(a-(1-p)); the caller passes m0 = max(start, m*), so
    the test bounds coeff*R from below on [start, inf).  Returns the
    relative margin and the verdict.
    """
    hi = coeff * (math.pow(m0 + 1.0, a) / math.pow(m0 - shift, 1.0 - p))
    return rel_margin(lo, hi), strictly_less(lo, hi)


def eps_condition_report(alpha: float, s: float, t: float, A: float,
                         M: float, p: float, q: float) -> dict:
    """Proof of the shrink inequality lhs(m) < rhs(m) for every m >= 3.

    With c1, c2 the two exponent coefficients, f(m) = rhs - lhs equals
    c2((m-1)^p - 1) - c1((m+1)^(1-q) - 2^(1-q)), and f'(m) > 0 iff
    c2*p*R(m) > c1*(1-q) with R(m) = (m+1)^q / (m-1)^(1-p).  Given the gap
    p > 1-q, R falls and then rises, with its minimum at
    m* = (q+1-p)/(q-(1-p)); so the slope test at max(3, m*) proves f
    increasing on [3, inf), and f(3) > 0, on the floats of
    eps_exponent_sides, covers every m.  1 - q must clear the guard band
    too: where q rounds to 1 the exponent (m+1)^(1-q) is 1 at every m, and
    the float inequality checks nothing.

    One more premise is an admission rule, not part of the proof:
    d(M_MAX) > 0 with d(m) = c2*(m-1)^p - c1*(m+1)^(1-q).  It decides which
    hypotheses the chooser admits, and so the accepted M.  The premise
    margins are, in this order, 1-q > GUARD, 1-q < p, the slope test,
    f(3) > 0 and d(M_MAX) > 0.
    """
    c1, c2, one_minus_q, _ = _eps_coefficients(alpha, s, t, A, M, p, q)
    margins = [rel_margin(GUARD, one_minus_q), rel_margin(one_minus_q, p)]
    ok = one_minus_q > GUARD and strictly_less(one_minus_q, p)
    m_star = None
    if ok:
        m_star = (q + 1.0 - p) / (p - one_minus_q)
        slope_margin, ok = slope_test(c1 * one_minus_q, c2 * p, q, p,
                                      max(3.0, m_star), 1.0)
        margins.append(slope_margin)
    f3_sides = eps_exponent_sides(alpha, s, t, A, M, p, q, 3)
    d_sides = (c1 * math.pow(M_MAX + 1.0, one_minus_q),
               c2 * math.pow(M_MAX - 1.0, p))
    margins += [rel_margin(*f3_sides), rel_margin(*d_sides)]
    return {
        "m_star": m_star,
        "f3_sides": list(f3_sides),
        "d_m_max_sides": list(d_sides),
        "premise_rel_margins": margins,
        "min_rel_margin": min(margins),
        "passed": bool(ok and strictly_less(*f3_sides)
                       and d_sides[0] < d_sides[1]),
    }


def choose_M(h: HypothesisConstants) -> tuple[float, dict]:
    """Smallest M on a geometric grid satisfying the shrink inequality.

    Candidates are max(C, 1+DELTA_M) * 2^i starting one doubling above the
    base (the base itself sits too close to the regime boundary to leave
    useful margin), up to the cap and while they are finite.  Each
    candidate must pass the proof of eps_condition_report and its
    admission premise.
    """
    base = max(h.C, 1.0 + DELTA_M)
    cap = M_CAP_FACTOR * max(h.C, 1.0)
    candidate = 2.0 * base
    best_margin = -math.inf
    # past about 9e307 the doubling overflows to inf, which no cap stops
    while candidate <= cap and math.isfinite(candidate):
        p, q = derive_pq(h.t, candidate)
        report = eps_condition_report(h.alpha, h.s, h.t, h.A,
                                      candidate, p, q)
        if report["passed"]:
            return candidate, report
        if report["min_rel_margin"] > best_margin:
            best_margin = report["min_rel_margin"]
        candidate *= 2.0
    raise InfeasibleParametersError(
        f"no admissible M up to cap {cap!r}", best_margin=best_margin)


def choose_L() -> float:
    """Radius-bound constant, valid for every p in (0,1) and every m >= 1.

    The inequality 2(m-1) + (m^(1+p) - (p+1)m + p)/(p(p+1)) <= L m^(1+p)/(p(p+1))
    becomes, after multiplying by p(p+1) and subtracting m^(1+p),
    (p+1)(2p-1)m - p(2p+1) <= (L-1) m^(1+p).  The left side is at most
    max(0, (p+1)(2p-1)) m^(1+p) for m >= 1, so any
    L >= 1 + max(0, (p+1)(2p-1)) works; that bound is at most 3 on (0,1)
    and tight at p = 1/2 as m -> infinity.
    """
    return L_CANDIDATE


def l_certificate(p: float, L: float) -> dict:
    """Closed-form certificate that L clears the bound proved in choose_L;
    like every check here it needs the guard band, so a tie fails."""
    required = 1.0 + max(0.0, (p + 1.0) * (2.0 * p - 1.0))
    return {
        "required": required,
        "L": L,
        "rel_margin": rel_margin(required, L),
        "passed": strictly_less(required, L),
    }


def bracket_certificate(p: float) -> dict:
    """Closed-form certificate of the partial-sum sandwich brackets.

    For p in (0,1), j^(p-1) strictly decreases and j^p strictly increases,
    so comparing each sum with the integral of its summand gives, for every
    m >= 2, with S1 = sum_{j<m} j^(p-1) and S2 = sum_{j<m} j^p,

        (m^p - 1)/p  <  S1  <  (m^p - 1)/p + (1 - m^(p-1))
        (m^(p+1) - 1)/(p+1) + (1 - m^p)  <  S2  <  (m^(p+1) - 1)/(p+1)

    The certificate is p in (0,1) with the guard band on both ends; the
    margin is the smaller relative clearance of 0 < p and p < 1.
    """
    return {
        "p": p,
        "rel_margin": min(rel_margin(0.0, p), rel_margin(p, 1.0)),
        "passed": strictly_less(0.0, p) and strictly_less(p, 1.0),
    }


def derive_constants(h: HypothesisConstants,
                     D: float | None = None,
                     M: float | None = None,
                     L: float | None = None) -> tuple[Constants, dict]:
    """Full derivation pipeline; overrides are recorded, not re-judged.

    Overridden D/M/L values are carried into the Constants as-is; the
    certificates module is the authority that accepts or rejects them.
    """
    hn = h.normalized()
    report: dict = {
        "input": {"alpha": h.alpha, "s": h.s, "t": h.t, "A": h.A, "C": h.C},
        "normalized": {"t": hn.t, "C": hn.C},
    }
    if D is None:
        D = choose_D(hn.alpha, hn.s, hn.C)
        report["D_policy"] = "derived"
    else:
        D = float(D)
        report["D_policy"] = "override"
        if not (0.0 < D < 1.0):
            raise InvalidParameterError(f"D must be in (0,1), got {D!r}")
    report["first_shell_margin"] = first_shell_margin(hn.alpha, hn.s, hn.C, D)

    if M is None:
        M, eps_report = choose_M(hn)
        report["M_policy"] = "derived"
    else:
        M = float(M)
        report["M_policy"] = "override"
        if not (M > 1.0):
            raise InvalidParameterError(f"M must exceed 1, got {M!r}")
        p_tmp, q_tmp = derive_pq(hn.t, M)
        eps_report = eps_condition_report(hn.alpha, hn.s, hn.t, hn.A,
                                          M, p_tmp, q_tmp)
    report["eps_condition"] = eps_report

    p, q = derive_pq(hn.t, M)
    if L is None:
        L = choose_L()
        report["L_policy"] = "derived"
    else:
        L = float(L)
        report["L_policy"] = "override"
        if not (L > 0.0):
            raise InvalidParameterError(f"L must be positive, got {L!r}")
    report["L_certificate"] = l_certificate(p, L)
    k = derive_k(hn.alpha, M)
    consts = Constants(alpha=hn.alpha, s=hn.s, t=hn.t, A=hn.A, C=hn.C,
                       D=D, M=M, p=p, q=q, L=L, k=k)
    report["derived"] = consts.to_dict()
    report["identity_residuals"] = {
        "(1+p)t-q": (1.0 + p) * hn.t - q,
        "(1-q)-p/M": (1.0 - q) - p / M,
    }
    return consts, report
