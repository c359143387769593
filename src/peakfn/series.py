"""Peak-series assembly, certified evaluation, and grid verification.

The series F(y) = sigma^{-1} sum_j sigma_j f_j(y) is materialized as a head
of N explicit barriers plus a certified bound on everything after the head.
Evaluation returns rectangle enclosures of F(y); membership classification
follows the case split on the sets W_m = {y : max_{j<=m} |f_j(y)| >= 1 +
eps_m^s}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import certificates, families
from .enclosure import ComplexEnclosure, Enclosure
from .errors import BuildRefusedError, ConfigError, DomainError
from .hypothesis import GUARD, Constants
from .families import BarrierFamily
from .weights import WeightEngine

SERIES_FORMAT = "peakfn-series/1"

# relative slack granted to direct libm evaluation of a barrier callable
BARRIER_EVAL_REL = 1e-12


@dataclass
class EvalResult:
    point: complex
    m_of_y: int          # min m with r_m <= |y - x|; 0 at the peak itself
    F: ComplexEnclosure
    abs_F: Enclosure


@dataclass(frozen=True)
class CaseLabel:
    kind: str            # outside-all-W | in-W1 | in-Wm-not-before | head-exhausted
    m: int | None = None

    def __str__(self) -> str:
        if self.kind == "in-Wm-not-before":
            return f"in-Wm-not-before({self.m})"
        return self.kind


@dataclass
class PeakSeries:
    family: BarrierFamily
    consts: Constants
    n_terms: int
    quad_rel_tol: float
    sigma_head: list            # Enclosure, index j-1 for j = 1..N
    sigma_prefix_head: Enclosure
    tail_after_head: Enclosure
    normalizer: Enclosure
    log_inv_r: list             # float, j = 1..N
    log_inv_eps: list           # float, j = 1..N
    barriers: list = field(default_factory=list)
    _engine: WeightEngine | None = field(default=None, repr=False)

    @property
    def peak(self) -> complex:
        return self.family.domain.peak

    def engine(self) -> WeightEngine:
        # only needed when a point splits beyond the head
        if self._engine is None:
            self._engine = WeightEngine(self.consts,
                                        quad_rel_tol=self.quad_rel_tol)
        return self._engine

    def _ensure_barriers(self) -> None:
        if not self.barriers:
            self.barriers = [self.family.barrier(lir)
                             for lir in self.log_inv_r]

    def split_index(self, y: complex) -> int:
        """Smallest m with r_m <= |y - x|, as Schedule.split_index; 0 flags
        the peak itself."""
        d = self.family.domain.distance_to_peak(y)
        if d == 0.0:
            return 0
        return self.engine().schedule.split_index(-math.log(d))

    def evaluate(self, y: complex) -> EvalResult:
        y = self.family.domain.require(y)
        self._ensure_barriers()
        if complex(y) == complex(self.peak):
            f_enc = self.normalizer / self.normalizer
            cenc = ComplexEnclosure(re=f_enc, im=Enclosure.exact(0.0))
            return EvalResult(point=complex(y), m_of_y=0, F=cenc,
                              abs_F=cenc.abs_bounds())
        m = self.split_index(y)
        num = ComplexEnclosure.from_point(0.0 + 0.0j)
        eval_pad = 0.0
        for j in range(1, self.n_terms + 1):
            fval = complex(self.barriers[j - 1].func(y))
            num = num.add_scaled(self.sigma_head[j - 1], fval)
            eval_pad += self.sigma_head[j - 1].hi * abs(fval) * BARRIER_EVAL_REL
        if eval_pad > 0.0:
            num = num.widen(eval_pad)
        start = self.n_terms + 1
        if m > start:
            # indices past the head but before the split: on-ball ceiling
            # C log^t(1/r_j) <= C psi(j)^t, and sigma_j C psi^t = (C/M) g(j)
            eng = self.engine()
            disc = 0.0
            for j in range(start, m):
                disc += (self.consts.C / self.consts.M) * eng.g(j).hi
            num = num.widen(disc)
        far_start = max(m, start)
        if far_start == start:
            far_tail = self.tail_after_head
        else:
            far_tail = self.engine().tail(far_start - 1)
        off = self.family.exact_off_value
        if off is not None:
            num = num + ComplexEnclosure.from_real(far_tail * off)
        else:
            num = num.widen(self.consts.alpha * far_tail.hi)
        f_enc = num.div_real(self.normalizer)
        return EvalResult(point=complex(y), m_of_y=m, F=f_enc,
                          abs_F=f_enc.abs_bounds())

    def classify(self, y: complex) -> CaseLabel:
        y = self.family.domain.require(y)
        if complex(y) == complex(self.peak):
            raise DomainError("classification applies off the peak point")
        self._ensure_barriers()
        vals = []
        running = 0.0
        member_m = None
        for j in range(1, self.n_terms + 1):
            mod = abs(self.barriers[j - 1].func(y))
            vals.append(mod)
            running = max(running, mod)
            eps_pow = math.exp(-self.consts.s * self.log_inv_eps[j - 1])
            if member_m is None and running >= 1.0 + eps_pow:
                member_m = j
        if member_m == 1:
            return CaseLabel(kind="in-W1", m=1)
        if member_m is not None:
            return CaseLabel(kind="in-Wm-not-before", m=member_m)
        eps_n = math.exp(-self.consts.s * self.log_inv_eps[-1])
        below_all = running < 1.0 + eps_n
        alpha_tol = self.consts.alpha + GUARD * max(1.0, self.consts.alpha)
        off_witness = any(v <= alpha_tol for v in vals)
        if below_all and off_witness:
            return CaseLabel(kind="outside-all-W")
        return CaseLabel(kind="head-exhausted")

    def verify_peak(self, grid) -> dict:
        """Certify |F(y)| < 1 at every grid point and F(x) around 1.

        grid: iterable of points, or a (kind, lo, hi, count) spec tuple.
        """
        if isinstance(grid, tuple) and len(grid) == 4:
            points = families.make_grid(self.family, *grid)
        else:
            points = list(grid)
        if not points:
            raise DomainError("verification grid is empty")
        peak = complex(self.peak)
        per_point = []
        failures = []
        min_margin = math.inf
        argmin = None
        max_abs_hi = 0.0
        for y in points:
            if complex(y) == peak:
                raise DomainError("verification grid must exclude the peak")
            res = self.evaluate(y)
            label = self.classify(y)
            margin = 1.0 - res.abs_F.hi
            per_point.append({
                "y": _point_repr(res.point),
                "abs_hi": res.abs_F.hi,
                "margin": margin,
                "case": str(label),
                "m_of_y": res.m_of_y,
            })
            if margin < min_margin:
                min_margin = margin
                argmin = _point_repr(res.point)
            max_abs_hi = max(max_abs_hi, res.abs_F.hi)
            if margin <= 0.0:
                failures.append(_point_repr(res.point))
        at_peak = self.evaluate(peak)
        contains_one = at_peak.F.re.contains(1.0) and at_peak.F.im.contains(0.0)
        return {
            "family": self.family.name,
            "n_terms": self.n_terms,
            "points": len(points),
            "min_margin": min_margin,
            "argmin_y": argmin,
            "max_abs_hi": max_abs_hi,
            "peak_enclosure": {
                "re": [at_peak.F.re.lo, at_peak.F.re.hi],
                "im": [at_peak.F.im.lo, at_peak.F.im.hi],
                "contains_one": contains_one,
            },
            "w1_alpha_claim": "not-certified",
            "failures": failures,
            "per_point": per_point,
            "passed": bool(not failures and contains_one),
        }


def build(fam: BarrierFamily, consts: Constants, n_terms: int = 100,
          quad_rel_tol: float = 1e-10, m_max: int = 120,
          certificate_report=None, audit_report=None,
          skip_checks: bool = False) -> PeakSeries:
    """Assemble a series after the certificate battery and family audit.

    Precomputed reports may be passed in to avoid repeating the work; the
    build refuses whenever either gate fails.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    if not skip_checks:
        if certificate_report is None:
            certificate_report = certificates.run_all(consts, m_max=m_max,
                                                      quad_rel_tol=quad_rel_tol)
        if not certificate_report.passed:
            raise BuildRefusedError(
                "certificate battery failed: "
                + ", ".join(certificate_report.failing()))
        if audit_report is None:
            audit_report = families.audit_family(fam)
        if not audit_report.passed:
            raise BuildRefusedError(
                f"family audit failed for {fam.name!r}: "
                f"{len(audit_report.failures)} condition violations")
    engine = WeightEngine(consts, quad_rel_tol=quad_rel_tol)
    sched = engine.schedule
    sigma_head = [engine.sigma(j) for j in range(1, n_terms + 1)]
    prefix = engine.sigma_prefix(n_terms)
    tail = engine.tail(n_terms)
    normalizer = prefix + tail
    lirs = [sched.log_inv_radius(j) for j in range(1, n_terms + 1)]
    lies = [sched.log_inv_eps(j) for j in range(1, n_terms + 1)]
    series = PeakSeries(
        family=fam, consts=consts, n_terms=n_terms,
        quad_rel_tol=quad_rel_tol, sigma_head=sigma_head,
        sigma_prefix_head=prefix, tail_after_head=tail,
        normalizer=normalizer, log_inv_r=lirs, log_inv_eps=lies,
        _engine=engine)
    series._ensure_barriers()
    return series


def _point_repr(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _enc_pair(e: Enclosure) -> list:
    return [e.lo, e.hi]


def save_series(series: PeakSeries, path) -> None:
    payload = {
        "format": SERIES_FORMAT,
        "family": series.family.name,
        "constants": series.consts.to_dict(),
        "n_terms": series.n_terms,
        "quad_rel_tol": series.quad_rel_tol,
        "sigma_head": [_enc_pair(e) for e in series.sigma_head],
        "sigma_prefix_head": _enc_pair(series.sigma_prefix_head),
        "tail_after_head": _enc_pair(series.tail_after_head),
        "normalizer": _enc_pair(series.normalizer),
        "log_inv_r": series.log_inv_r,
        "log_inv_eps": series.log_inv_eps,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_series(path) -> PeakSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read series file {path!r}: {exc}") from exc
    if payload.get("format") != SERIES_FORMAT:
        raise ConfigError(
            f"unsupported series format {payload.get('format')!r}; "
            f"expected {SERIES_FORMAT!r}")
    try:
        consts = Constants.from_dict(payload["constants"])
        fam = families.family_by_name(payload["family"], consts)
        series = PeakSeries(
            family=fam, consts=consts,
            n_terms=int(payload["n_terms"]),
            quad_rel_tol=float(payload["quad_rel_tol"]),
            sigma_head=[Enclosure(lo, hi) for lo, hi in payload["sigma_head"]],
            sigma_prefix_head=Enclosure(*payload["sigma_prefix_head"]),
            tail_after_head=Enclosure(*payload["tail_after_head"]),
            normalizer=Enclosure(*payload["normalizer"]),
            log_inv_r=[float(v) for v in payload["log_inv_r"]],
            log_inv_eps=[float(v) for v in payload["log_inv_eps"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed series file {path!r}: {exc}") from exc
    if len(series.sigma_head) != series.n_terms:
        raise ConfigError(
            f"series file {path!r} head length does not match n_terms")
    series._ensure_barriers()
    return series
