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
from .hypothesis import GUARD, M_MAX, Constants
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


def check_eps_condition(consts: Constants, m_max: int = M_MAX) -> dict:
    """Neighborhood-shrink exponent inequality for every m >= 3.

    The record is the chooser's own report: the head check on [3, m_max]
    and the tail proof that extends it to all m >= m_max.
    """
    rep = hyp.eps_condition_report(consts.alpha, consts.s, consts.t, consts.A,
                                   consts.M, consts.p, consts.q, m_max)
    return {
        "name": "eps-condition",
        "range": (f"m in [3, {m_max}] plus tail certificate for all "
                  f"m >= {m_max}"),
        "min_rel_margin": rep["min_rel_margin"],
        "argmin_m": rep["argmin_m"],
        "guard": GUARD,
        "passed": rep["passed"],
        "details": {
            "head_passed": rep["head_passed"],
            "tail_certificate": rep["tail_certificate"],
        },
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


def check_claim2(engine: WeightEngine, m_max: int = M_MAX) -> dict:
    """Tail-dominates-head inequality for m in [2, m_max]:
    mk * tail(m) > eps_{m-1}^s * sum_{j<m} sigma_j, conservative sides.

    One pass over float lists: log(1/eps_{m-1}) from the schedule, the
    prefix sums' upper ends and the tails' lower ends from the engine, the
    very floats of log_inv_eps(m-1), sigma_prefix(m-1).hi and tail(m).lo.
    """
    consts = engine.consts
    neg_s, mk = -consts.s, consts.mk
    top = max(m_max, 1)   # an empty range reads empty lists
    lies = engine.schedule.log_inv_epsilons(top - 1)
    heads = engine.sigma_prefix_bounds(top - 1)[1][1:]
    tails = engine.tail_lower_ends(2, top)
    min_rel = math.inf
    argmin = 0
    ok = True
    for m, lie, head, tail in zip(range(2, m_max + 1), lies, heads, tails):
        rhs = math.exp(neg_s * lie) * head
        lhs = mk * tail
        r = hyp.rel_margin(rhs, lhs)
        if r < min_rel:
            min_rel = r
            argmin = m
        if not hyp.strictly_less(rhs, lhs):
            ok = False
    return {
        "name": "claim-2",
        "range": f"m in [2, {m_max}]",
        "min_rel_margin": min_rel,
        "argmin_m": argmin,
        "guard": GUARD,
        "passed": bool(ok),
        "details": {"sides": "tail at enclosure.lo, head at enclosure.hi"},
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


def run_all(engine: WeightEngine, m_max: int = M_MAX) -> CertificateReport:
    """Full certificate battery for the constants of one engine; the sweeps
    fill its caches, so a series assembled from it holds the certified
    weights.  An m_max below 3 is refused (InvalidParameterError) by the
    shrink-inequality check."""
    consts = engine.consts
    # claim 2 reads sigma and g up to m_max + 1: one batch
    engine.reserve(m_max + 1)
    report = CertificateReport(constants=consts.to_dict())
    report.record(check_first_shell(consts))
    report.record(check_eps_condition(consts, m_max))
    for rec in check_schedule_identities(engine.schedule):
        report.record(rec)
    report.record(check_claim1(consts))
    report.record(check_claim2(engine, m_max))
    report.record(check_lemma(engine))
    return report
