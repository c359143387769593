"""Numerical certificates for every inequality the construction rests on.

Each check produces a record with its worst margin and a pass flag; a pass
means the inequality cleared the relative guard band on conservative
enclosure sides, so it is a genuine numerical certificate rather than a
point estimate.  Where a one-line proof settles an inequality for every
index m, the record checks the proof's closed-form premise instead of
sweeping m.  Failures are data, not exceptions: the report carries
them to the caller (the CLI turns a failed report into exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import hypothesis as hyp
# unused here; kept because perfbench's tracer wraps the name in this module
from ._kernels import radius_bound_sweep  # noqa: F401
from .enclosure import down, up
from .hypothesis import GUARD, Constants
from .schedule import Schedule
from .weights import WeightEngine


@dataclass
class CertificateReport:
    constants: dict
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.records)

    def record(self, rec: dict) -> None:
        self.records.append(rec)

    def failing(self) -> list:
        return [r["name"] for r in self.records if not r["passed"]]

    def to_dict(self) -> dict:
        return {
            "constants": self.constants,
            "records": self.records,
            "passed": self.passed,
        }


def check_first_shell(consts: Constants) -> dict:
    """First-shell inequality (1-alpha)/2 * D^((1-alpha)/C) >= D^s.

    Evaluated through logs, deliberately a different code path from the
    chooser in the constants module.
    """
    a, s, c, d = consts.alpha, consts.s, consts.C, consts.D
    log_d = math.log(d)
    lhs = math.exp(math.log((1.0 - a) / 2.0) + ((1.0 - a) / c) * log_d)
    rhs = math.exp(s * log_d)
    margin = lhs - rhs
    return {
        "name": "first-shell",
        "range": f"D={d!r}",
        "min_margin": margin,
        "min_rel_margin": hyp.rel_margin(rhs, lhs),
        "guard": GUARD,
        "passed": hyp.strictly_less(rhs, lhs),
        "details": {"lhs": lhs, "rhs": rhs},
    }


def check_eps_condition(consts: Constants) -> dict:
    """Neighborhood-shrink exponent inequality for every m >= 3: the
    chooser's closed-form proof (hypothesis.eps_condition_report) with its
    admission premise."""
    rep = hyp.eps_condition_report(consts.alpha, consts.s, consts.t, consts.A,
                                   consts.M, consts.p, consts.q)
    return {
        "name": "eps-condition",
        "range": "all m >= 3",
        "min_rel_margin": rep["min_rel_margin"],
        "guard": GUARD,
        "passed": rep["passed"],
        "details": {k: rep[k] for k in ("m_star", "f3_sides", "d_m_max_sides",
                                        "premise_rel_margins")},
    }


def check_claim1(consts: Constants) -> dict:
    """Per-index cap on the head term, (C psi(m)^t - 1) sigma_m < Mk tail(m),
    proved for every m >= 1.

    With u = psi(m)^(-t) > 0 and sigma_m = g(m) u / M,

        (C psi^t - 1) sigma_m = (C - u) g(m)/M <= (1 - u/M) g(m)
                              < (1 - k u) g(m) <= exp(-k u) g(m)
                              <= g(m+1) <= Mk tail(m).

    The first step needs C <= M and the second Mk < 1.  The last two are
    the facts WeightEngine.tail rests on: psi is non-decreasing, so the
    decay integral over [m, m+1] is at most u, and sum_{j>m} sigma_j is at
    least g(m+1)/(Mk).  The record checks C < M and Mk < 1 with the guard
    band, so a tie fails.
    """
    c, m, mk = consts.C, consts.M, consts.mk
    return {
        "name": "claim-1",
        "range": "all m >= 1",
        "min_rel_margin": min(hyp.rel_margin(c, m), hyp.rel_margin(mk, 1.0)),
        "guard": GUARD,
        "passed": hyp.strictly_less(c, m) and hyp.strictly_less(mk, 1.0),
        "details": {"C": c, "M": m, "mk": mk,
                    "proof": "(C - u) g(m)/M < exp(-k u) g(m) <= g(m+1), "
                             "u = psi(m)^(-t)"},
    }


def check_claim2(engine: WeightEngine) -> dict:
    """Tail-dominates-head inequality mk * tail(m) > eps_{m-1}^s *
    sum_{j<m} sigma_j, proved for every m >= 2.

    With T = tail(0).hi >= sum_j sigma_j, the partial-sum bracket
    log(1/eps_{m-1}) > log(1/D) + log(1/A) (m^p - 1)/p, mk * tail(m) >=
    g(m+1), and psi(tau)^(-t) <= ca^(-t) tau^(-e) for tau >= 1, e = (1+p)t,
    which gives I(m+1) <= I_1 + ca^(-t) ((m+1)^(1-e) - 1)/(1-e) with
    I_1 = psi(1)^(-t), the log of the right side over the left is below
    C0 - d(m):

        C0   = log T - s log(1/D) + c2 + k I_1 - c1,
        d(m) = c2 m^p - c1 (m+1)^(1-e),
        c2   = s log(1/A)/p,   c1 = k ca^(-t)/(1-e).

    d'(m) > 0 iff s log(1/A) R(m) > k ca^(-t), R(m) = (m+1)^e / m^(1-p),
    and given 1-p < e < 1, R falls and then rises, with its minimum at
    m* = (1-p)/(e-(1-p)).  So the premises, each with the guard band and
    with their margins in this order, are the bracket certificate, e < 1,
    e > 1-p, the slope test at max(2, m*) and d(2) > C0.  e is the float
    product two ulps down, as any e at or below the exact one keeps the
    bound on I; T, I_1 and ca^(-t) are upper ends, and d(2) > C0 is
    compared as two sums of nonnegative terms, so the guard band covers
    their rounding.  The record reads sigma_1, g(1) and psi(1)^(-t) only.
    """
    consts = engine.consts
    s, t, p, k = consts.s, consts.t, consts.p, consts.k
    s_lia = s * consts.log_inv_A
    e = down((1.0 + p) * t)
    try:
        ca_negt = up(math.pow(engine.schedule.psi_power_coefficient, -t))
    except (OverflowError, ValueError):   # past the float range, or ca = 0
        ca_negt = math.inf
    brackets = hyp.bracket_certificate(p)
    margins = [brackets["rel_margin"], hyp.rel_margin(e, 1.0),
               hyp.rel_margin(1.0 - p, e)]
    ok = (brackets["passed"] and hyp.strictly_less(e, 1.0)
          and hyp.strictly_less(1.0 - p, e) and math.isfinite(ca_negt))
    m_star = sides = None
    if ok:
        m_star = (1.0 - p) / (e - (1.0 - p))
        slope_margin, slope_ok = hyp.slope_test(k * ca_negt, s_lia, e, p,
                                                max(2.0, m_star), 0.0)
        c1, c2 = k * ca_negt / (1.0 - e), s_lia / p
        log_t = math.log(engine.tail(0).hi)
        # d(2) > C0 with every term on the side where it is nonnegative
        sides = [c2 * math.pow(2.0, p) + c1 + s * consts.log_inv_D
                 + max(-log_t, 0.0),
                 c1 * math.pow(3.0, 1.0 - e) + c2
                 + k * engine.integral_I(1.0).hi + max(log_t, 0.0)]
        margins += [slope_margin, hyp.rel_margin(sides[1], sides[0])]
        ok = slope_ok and hyp.strictly_less(sides[1], sides[0])
    return {
        "name": "claim-2",
        "range": "all m >= 2",
        "min_rel_margin": min(margins),
        "guard": GUARD,
        "passed": bool(ok),
        "details": {"e": e, "m_star": m_star, "d2_sides": sides,
                    "premise_rel_margins": margins},
    }


def check_lemma(engine: WeightEngine) -> dict:
    """Decay-lemma battery: decay witnesses and the certified divergence of
    the exponent integral."""
    decay = engine.decay_bound_check()
    divergence = engine.divergence_certificate()
    return {
        "name": "lemma-decay",
        "range": "decay bound for all x >= 0; divergence over [s1, s2]",
        "guard": GUARD,
        "passed": bool(decay["passed"] and divergence["passed"]),
        "details": {
            "decay_bound": decay,
            "divergence": divergence,
        },
    }


def check_schedule_identities(sched: Schedule, m_equiv: int = 200) -> list:
    """Schedule-level certificates: recursion/closed-form agreement, and the
    closed-form proofs of the partial-sum brackets and the radius bound."""
    worst_rel = 0.0
    arg = 1
    for m, a, b in zip(range(1, m_equiv + 1), sched.log_inv_radii(m_equiv),
                       sched.log_inv_radii_closed(m_equiv)):
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        if rel > worst_rel:
            worst_rel = rel
            arg = m
    rec_equiv = {
        "name": "radius-recursion-closed-form",
        "range": f"m in [1, {m_equiv}]",
        "max_rel_difference": worst_rel,
        "tolerance": 1e-9,
        "passed": bool(worst_rel <= 1e-9),
        "details": {"argmax_m": arg},
    }
    p = sched.consts.p
    brackets = hyp.bracket_certificate(p)
    rec_bracket = {
        "name": "partial-sum-brackets",
        "range": "all m >= 2",
        "min_rel_margin": brackets["rel_margin"],
        "guard": GUARD,
        "passed": brackets["passed"],
        "details": {"p": p, "proof": "integral comparison, p in (0,1)"},
    }
    # The closed form of log(1/r_m), with the upper bracket on S_{m-1} and
    # the lower one on T_{m-1}, gives log(1/r_m) - m*log(1/D) <
    # log(1/A) * [2(m-1) + (m^(1+p) - (p+1)m + p)/(p(p+1))] for m >= 2,
    # which the L certificate bounds by psi(m) - m*log(1/D).  At m = 1,
    # log(1/r_1) = log(1/D) < psi(1) because L > 0 and p > 0.
    lcert = hyp.l_certificate(p, sched.consts.L)
    rec_radius = {
        "name": "radius-bound",
        "range": f"all m >= 1, L = {sched.consts.L!r}",
        "min_rel_margin": lcert["rel_margin"],
        "guard": GUARD,
        "passed": bool(lcert["passed"] and brackets["passed"]),
        "details": {k: lcert[k] for k in ("required", "L", "rel_margin")},
    }
    return [rec_equiv, rec_bracket, rec_radius]


def run_all(engine: WeightEngine) -> CertificateReport:
    """Full certificate battery for the constants of one engine."""
    consts = engine.consts
    report = CertificateReport(constants=consts.to_dict())
    report.record(check_first_shell(consts))
    report.record(check_eps_condition(consts))
    for rec in check_schedule_identities(engine.schedule):
        report.record(rec)
    report.record(check_claim1(consts))
    report.record(check_claim2(engine))
    report.record(check_lemma(engine))
    return report
