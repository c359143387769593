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
from .enclosure import Enclosure
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


def check_eps_condition(consts: Constants, m_range=(3, 120)) -> dict:
    """Neighborhood-shrink exponent inequality for every m >= 3.

    The record is the chooser's own report: the head check on [3, hi] and
    the tail proof that extends it to all m >= hi.
    """
    lo, hi = int(m_range[0]), int(m_range[1])
    if lo != 3:
        raise ValueError("eps condition is checked from m = 3 on")
    rep = hyp.eps_condition_report(consts.alpha, consts.s, consts.t, consts.A,
                                   consts.M, consts.p, consts.q, hi)
    return {
        "name": "eps-condition",
        "range": f"m in [3, {hi}] plus tail certificate for all m >= {hi}",
        "min_rel_margin": rep["min_rel_margin"],
        "argmin_m": rep["argmin_m"],
        "guard": GUARD,
        "passed": rep["passed"],
        "details": {
            "head_passed": rep["head_passed"],
            "tail_certificate": rep["tail_certificate"],
        },
    }


def check_claim1(engine: WeightEngine, m_range=(1, 120)) -> dict:
    """Per-index cap on the head term: (C psi(m)^t - 1) sigma_m < mk * tail(m).

    Left side taken at upper enclosure ends, right side at the lower end.
    """
    lo, hi = int(m_range[0]), int(m_range[1])
    consts = engine.consts
    min_rel = math.inf
    argmin = 0
    ok = True
    for m in range(lo, hi + 1):
        psit = Enclosure.from_libm(
            math.pow(engine.schedule.psi(float(m)), consts.t), ulps=8)
        lhs = (consts.C * psit.hi - 1.0) * engine.sigma(m).hi
        rhs = consts.mk * engine.tail(m).lo
        r = hyp.rel_margin(lhs, rhs)
        if r < min_rel:
            min_rel = r
            argmin = m
        if not hyp.strictly_less(lhs, rhs):
            ok = False
    return {
        "name": "claim-1",
        "range": f"m in [{lo}, {hi}]",
        "min_rel_margin": min_rel,
        "argmin_m": argmin,
        "guard": GUARD,
        "passed": bool(ok),
        "details": {"sides": "lhs at enclosure.hi, rhs at enclosure.lo"},
    }


def check_claim2(engine: WeightEngine, m_range=(2, 120)) -> dict:
    """Tail-dominates-head inequality:
    mk * tail(m) > eps_{m-1}^s * sum_{j<m} sigma_j, conservative sides."""
    lo, hi = int(m_range[0]), int(m_range[1])
    if lo < 2:
        raise ValueError("claim 2 applies from m = 2 on")
    consts = engine.consts
    sched = engine.schedule
    min_rel = math.inf
    argmin = 0
    ok = True
    for m in range(lo, hi + 1):
        eps_pow = math.exp(-consts.s * sched.log_inv_eps(m - 1))
        rhs = eps_pow * engine.sigma_prefix(m - 1).hi
        lhs = consts.mk * engine.tail(m).lo
        r = hyp.rel_margin(rhs, lhs)
        if r < min_rel:
            min_rel = r
            argmin = m
        if not hyp.strictly_less(rhs, lhs):
            ok = False
    return {
        "name": "claim-2",
        "range": f"m in [{lo}, {hi}]",
        "min_rel_margin": min_rel,
        "argmin_m": argmin,
        "guard": GUARD,
        "passed": bool(ok),
        "details": {"sides": "tail at enclosure.lo, head at enclosure.hi"},
    }


def check_lemma(engine: WeightEngine, x_samples=(0.0, 1.0, 5.0, 25.0),
                x_offset: float = 50.0, residual_tol: float = 1e-6) -> dict:
    """Decay-lemma battery: integral-equation residuals, decay witnesses,
    and the certified divergence of the exponent integral."""
    residuals = []
    worst = 0.0
    ok = True
    for x in x_samples:
        rec = engine.integral_equation_residual(float(x), x_offset)
        residuals.append(rec)
        worst = max(worst, rec["relative_residual"])
        if rec["relative_residual"] > residual_tol:
            ok = False
    decay = engine.decay_bound_check()
    divergence = engine.divergence_certificate()
    passed = bool(ok and decay["passed"] and divergence["passed"])
    return {
        "name": "lemma-decay",
        "range": f"x in {list(x_samples)!r}, X = x + {x_offset!r}",
        "max_relative_residual": worst,
        "residual_tol": residual_tol,
        "guard": GUARD,
        "passed": passed,
        "details": {
            "residuals": residuals,
            "decay_bound": decay,
            "divergence": divergence,
        },
    }


def check_schedule_identities(sched: Schedule, m_equiv: int = 200) -> list:
    """Schedule-level certificates: recursion/closed-form agreement, and the
    closed-form proofs of the partial-sum brackets and the radius bound."""
    worst_rel = 0.0
    arg = 1
    for m in range(1, m_equiv + 1):
        a = sched.log_inv_radius(m)
        b = sched.log_inv_radius_closed(m)
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


def run_all(consts: Constants, m_max: int = 120,
            quad_rel_tol: float = 1e-10) -> CertificateReport:
    """Full certificate battery for one constants set."""
    if m_max < 3:
        raise ValueError("m_max must be at least 3")
    report = CertificateReport(constants=consts.to_dict())
    engine = WeightEngine(consts, quad_rel_tol=quad_rel_tol)
    report.record(check_first_shell(consts))
    report.record(check_eps_condition(consts, (3, m_max)))
    for rec in check_schedule_identities(engine.schedule):
        report.record(rec)
    report.record(check_claim1(engine, (1, m_max)))
    report.record(check_claim2(engine, (2, m_max)))
    report.record(check_lemma(engine))
    return report
