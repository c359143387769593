"""Peak-series assembly, certified evaluation, and grid verification.

The series F(y) = sigma^{-1} sum_j sigma_j f_j(y) is materialized as a head
of N explicit barriers plus a certified bound on everything after the head.
Evaluation returns rectangle enclosures of F(y); membership classification
follows the case split on the sets W_m = {y : max_{j<=m} |f_j(y)| >= 1 +
eps_m^s}.  Points are given as offsets delta = y - x from the peak x (see
families.DomainModel); reports print x + delta rounded to binary64.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from . import certificates
from .enclosure import (ComplexEnclosure, Enclosure, abs_box, add_real_box,
                        div_box, widen_box)
from .errors import BuildRefusedError, ConfigError, DomainError
from .hypothesis import GUARD, Constants
from .families import BarrierFamily
from .weights import WeightEngine

SERIES_FORMAT = "peakfn-series/1"

# relative slack granted to direct libm evaluation of a barrier callable
BARRIER_EVAL_REL = 1e-12

# unit roundoff of binary64, and the spacing of its subnormals
_U = 2.0 ** -53
_TINY = 2.0 ** -1074

# (point, j) pairs evaluated in one call of the family hook by
# evaluate_many: bounds the memory a batch holds, whatever the size of the
# grid
BATCH_PAIRS = 2048


@dataclass
class EvalResult:
    point: complex       # the offset delta = y - x from the peak
    m_of_y: int          # min m with r_m <= |y - x|; 0 at the peak itself
    F: ComplexEnclosure
    abs_F: Enclosure
    case: CaseLabel | None   # None at the peak itself


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
    sigma_lo: list              # ends of sigma_j, index j-1 for j = 1..N
    sigma_hi: list
    sigma_prefix_head: Enclosure
    tail_after_head: Enclosure
    normalizer: Enclosure
    log_inv_r: list             # float, j = 1..N
    log_inv_eps: list           # float, j = 1..N
    engine: WeightEngine = field(repr=False)
    # _mass_after(k) by k, filled on first use
    _masses: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    # derived from the fields above on first use, so a series that is only
    # written computes neither, and dataclasses.replace recomputes both
    @functools.cached_property
    def thresholds(self) -> list:
        """1 + eps_j^s, j = 1..N."""
        return [1.0 + math.exp(-self.consts.s * lie)
                for lie in self.log_inv_eps]

    @functools.cached_property
    def _sigma_mag(self) -> list:
        """max |end| of each sigma_j."""
        return list(map(max, map(abs, self.sigma_lo), map(abs, self.sigma_hi)))

    def split_index(self, delta: complex) -> int:
        """Smallest m with r_m <= |delta|, delta = y - x, as
        Schedule.split_index; 0 flags the peak itself."""
        d = self.family.domain.distance_to_peak(delta)
        if d == 0.0:
            return 0
        return self.engine.schedule.split_index(-math.log(d))

    def evaluate(self, delta: complex) -> EvalResult:
        """Enclosure of F(y) and the case label of y = x + delta: a batch
        of one point of evaluate_many."""
        return next(self.evaluate_many([delta]))

    def evaluate_many(self, points) -> Iterator[EvalResult]:
        """Enclosure of F(y) and the case label of y at each point, given
        as its offset delta = y - x from the peak, from one evaluation of
        each head barrier up to the split index m = m(y).

        Past m every barrier lies off its ball.  So when m < N and the
        family's off_ball_bound phi at r_{m+1} is at most alpha, only
        f_1..f_m are called: the weight after them, sum_{j>m} sigma_j plus
        the tail after the head, is charged the exact off value, or phi
        plus the barrier pad the called terms carry.  At the peak, when
        m >= N, and where phi > alpha, all N head barriers are called.

        The head sum sum_j [sigma_j] f_j(y) is two interval dot products,
        one _dot over the real parts and one over the imaginary parts of
        the f_j(y), widened by the barrier pad
        BARRIER_EVAL_REL * sum_j sigma_j.hi |f_j(y)|; the pad, like the
        ceiling of the indices between the head and the split, is an fsum
        rounded up, so it bounds the exact sum of its float terms.

        The points go in batches of at most BATCH_PAIRS (point, j) pairs
        (a point that needs more is a batch of its own).  A batch takes
        every f_j(y) from one call of the family's hook; the rest works on
        bare float ends per point, with the floats of Enclosure arithmetic.
        """
        return self._evaluate_admitted(
            [self.family.domain.require(y) for y in points])

    def _evaluate_admitted(self, points: list) -> Iterator[EvalResult]:
        """evaluate_many at offsets the domain has admitted."""
        n = self.n_terms
        batch: list[tuple] = []
        pairs = 0
        for delta in points:
            m = self.split_index(delta)
            # the barriers called: f_1..f_k
            k, phi = n, None
            if 0 < m < n:
                phi = self.family.off_ball_bound(delta, self.log_inv_r[m])
                if phi <= self.consts.alpha:
                    k = m
            if batch and pairs + k > BATCH_PAIRS:
                yield from self._evaluate_batch(batch)
                batch, pairs = [], 0
            batch.append((delta, m, k, phi))
            pairs += k
        if batch:
            yield from self._evaluate_batch(batch)

    def _evaluate_batch(self, batch: list) -> list[EvalResult]:
        """evaluate_many over (delta, m(y), k(y), phi) tuples: f_1..f_k at
        every point from one call of the family hook, then each point's
        box around the numerator as the ends (re_lo, re_hi, im_lo, im_hi)
        of its real and imaginary parts."""
        n, consts = self.n_terms, self.consts
        which, lirs = [], []
        for i, (_, _, k, _) in enumerate(batch):
            which += [i] * k
            lirs += self.log_inv_r[:k]
        vals = self.family.values([delta for delta, _, _, _ in batch],
                                  which, lirs)
        mul = operator.mul
        thresholds = self.thresholds
        alpha_tol = consts.alpha + GUARD * max(1.0, consts.alpha)
        off = self.family.exact_off_value
        ratio = consts.C / consts.M
        out = []
        start = 0
        for delta, m, k, phi in batch:
            f = vals[start:start + k]
            start += k
            sig_lo, sig_hi = self.sigma_lo[:k], self.sigma_hi[:k]
            sig_mag = self._sigma_mag[:k]
            # abs of a Python complex is libm's hypot of its parts
            point_mods = list(map(abs, f))
            box = (_dot(sig_lo, sig_hi, sig_mag, [v.real for v in f])
                   + _dot(sig_lo, sig_hi, sig_mag, [v.imag for v in f]))
            # y is in W_m iff max_{j<=m} |f_j(y)| >= 1 + eps_m^s: the
            # first j where the running maximum clears its threshold.
            # Past k every |f_j| <= phi <= alpha < 1 + eps_j^s, so the
            # running maximum stays top; the thresholds do not increase,
            # so the first j past k that top clears is found by bisection.
            # N + 1 stands for none
            top = 0.0
            for j, mod in enumerate(point_mods):
                if mod > top:
                    top = mod
                if top >= thresholds[j]:
                    member = j + 1
                    break
            else:
                member = 1 + bisect.bisect_left(thresholds, -top, k,
                                                key=operator.neg)
            if m == 0:
                case = None
            elif member <= n:
                case = CaseLabel(
                    "in-W1" if member == 1 else "in-Wm-not-before", member)
            elif k < n or min(point_mods) <= alpha_tol:
                case = CaseLabel("outside-all-W")
            else:
                case = CaseLabel("head-exhausted")
            # the box is widened by the barrier pad, then by the ceiling
            # past the head; the far tail is added as (tail, 0) at the
            # peak, where every f_j is 1 by condition (1), and where the
            # family has an exact off value, and else widens it too
            box = widen_box(box, _sum_up(map(
                mul, map(mul, sig_hi, point_mods), repeat(BARRIER_EVAL_REL))))
            if m > n + 1:
                # indices past the head but before the split: on-ball
                # ceiling C log^t(1/r_j) <= C psi(j)^t, and
                # sigma_j C psi^t = (C/M) g(j)
                self.engine.reserve(m)
                box = widen_box(box, _sum_up([ratio * self.engine.g(jj).hi
                                              for jj in range(n + 1, m)]))
            if k < n:
                far_tail = self._mass_after(k)
            elif m <= n + 1:
                far_tail = self.tail_after_head
            else:
                far_tail = self.engine.tail(m - 1)
            if m == 0:
                box = add_real_box(box, far_tail)
            elif off is not None:
                box = add_real_box(box, far_tail * off)
            elif k < n:
                bound = phi * far_tail.hi
                box = widen_box(box, _sum_up([bound,
                                              bound * BARRIER_EVAL_REL]))
            else:
                box = widen_box(box, consts.alpha * far_tail.hi)
            re_lo, re_hi, im_lo, im_hi = box = div_box(box, self.normalizer)
            out.append(EvalResult(
                point=delta, m_of_y=m,
                F=ComplexEnclosure(Enclosure(re_lo, re_hi),
                                   Enclosure(im_lo, im_hi)),
                abs_F=Enclosure(*abs_box(box)), case=case))
        return out

    def _mass_after(self, k: int) -> Enclosure:
        """Enclosure of sum_{j>k} sigma_j over the head and its tail, each
        end one fsum rounded outward; cached per k."""
        mass = self._masses.get(k)
        if mass is None:
            lo = math.fsum(self.sigma_lo[k:] + [self.tail_after_head.lo])
            hi = _sum_up(self.sigma_hi[k:] + [self.tail_after_head.hi])
            mass = self._masses[k] = Enclosure(
                math.nextafter(lo, -math.inf), hi)
        return mass

    def classify(self, delta: complex) -> CaseLabel:
        """Case label of an off-peak point, given by its offset from the
        peak; see evaluate."""
        if self.family.domain.require(delta) == 0:
            raise DomainError("classification applies off the peak point")
        return self.evaluate(delta).case

    def verify_peak(self, grid) -> dict:
        """Certify |F(y)| < 1 at every grid point and F(x) around 1.

        grid: iterable of offsets from the peak, such as make_grid returns.
        The report names each point by x + delta rounded to binary64, so
        near the peak several points can print alike.
        """
        points = list(grid)
        if not points:
            raise DomainError("verification grid is empty")
        domain = self.family.domain
        admitted = []
        for delta in points:
            if complex(delta) == 0:
                raise DomainError("verification grid must exclude the peak")
            admitted.append(domain.require(delta))
        per_point = []
        failures = []
        min_margin = math.inf
        argmin = None
        max_abs_hi = 0.0
        for res in self._evaluate_admitted(admitted):
            margin = 1.0 - res.abs_F.hi
            y = _point_repr(domain.point(res.point))
            per_point.append({
                "y": y,
                "abs_hi": res.abs_F.hi,
                "margin": margin,
                "case": str(res.case),
                "m_of_y": res.m_of_y,
            })
            if margin < min_margin:
                min_margin = margin
                argmin = y
            max_abs_hi = max(max_abs_hi, res.abs_F.hi)
            if margin <= 0.0:
                failures.append(y)
        at_peak = self.evaluate(0j)
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


def build(fam: BarrierFamily, n_terms: int = 100) -> PeakSeries:
    """The series of fam and its constants with an N-term head, assembled
    only after the certificate battery and the family's certificate pass.

    One WeightEngine serves both: the battery reads sigma_1 and g(1) from
    its caches, and the head weights are read from the same caches.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    consts = fam.consts
    engine = WeightEngine(consts)
    report = certificates.run_all(engine)
    if not report.passed:
        raise BuildRefusedError(
            "certificate battery failed: " + ", ".join(report.failing()))
    cert = fam.certificate()
    if not cert["passed"]:
        raise BuildRefusedError(f"family certificate failed: {cert['name']}")
    sched = engine.schedule
    # the tail after the head reads sigma and g at N + 1
    engine.reserve(n_terms + 1)
    sig_lo, sig_hi = engine.sigma_bounds(n_terms)
    prefix = engine.sigma_prefix(n_terms)
    tail = engine.tail(n_terms)
    lirs = sched.log_inv_radii(n_terms)
    lies = sched.log_inv_epsilons(n_terms)
    return PeakSeries(
        family=fam, consts=consts, n_terms=n_terms, sigma_lo=sig_lo,
        sigma_hi=sig_hi, sigma_prefix_head=prefix, tail_after_head=tail,
        normalizer=prefix + tail, log_inv_r=lirs, log_inv_eps=lies,
        engine=engine)


def _sum_up(terms) -> float:
    """Upper bound on the exact sum of the float terms: fsum rounds that
    sum to nearest, so one step up covers it, whatever the terms' order."""
    return math.nextafter(math.fsum(terms), math.inf)


def _dot(lo: list, hi: list, mag: list, vals: list) -> tuple:
    """Ends of the enclosure of sum_j [lo_j, hi_j] * vals_j, given
    mag_j = max(|lo_j|, |hi_j|).

    Each product takes the endpoint that makes it smallest (for the lower
    sum) or largest (for the upper) at the sign of vals_j.  A product
    rounded to nearest is off by at most u|p| + 2^-1075, u = 2^-53, the
    second term for a subnormal product, and |p| may be the rounded
    product; fsum is correctly rounded, off by at most u sum_j |p_j|.  So
    each sum is within 2u sum_j |p_j| + 2^-1075 per nonzero value of the
    exact one, and the radius 3u sum_j |p_j| + 2^-1074 per nonzero value,
    with sum_j |p_j| summed up and the radius rounded up, covers it
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).
    Rounding is monotone and odd, so the larger |p_j| is mag_j |vals_j|
    rounded.
    """
    nx, inf = math.nextafter, math.inf
    if any(vals):
        p_lo, p_hi = zip(*[(x * v, y * v) if v >= 0.0 else (y * v, x * v)
                           for x, y, v in zip(lo, hi, vals)])
        lo_sum, hi_sum = math.fsum(p_lo), math.fsum(p_hi)
        mag_sum = _sum_up(map(operator.mul, mag, map(abs, vals)))
    else:
        # every product is a zero, and fsum of zeros is +0.0
        lo_sum = hi_sum = 0.0
        mag_sum = nx(0.0, inf)
    rad = nx(3.0 * _U * mag_sum + _TINY * (len(vals) - vals.count(0.0)), inf)
    return nx(nx(lo_sum - rad, -inf), -inf), nx(nx(hi_sum + rad, inf), inf)


def _point_repr(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _enc_pair(e: Enclosure) -> list:
    return [e.lo, e.hi]


# the head-long lists of a series file: the C encoder writes them, and
# load_series checks their lengths
_HEAD_KEYS = ("log_inv_eps", "log_inv_r", "sigma_head")


def _fields(series: PeakSeries) -> dict:
    """The keys and values of the series file but sigma_head, whose pairs
    _payload and save_series take from the two sigma lists."""
    return {
        "format": SERIES_FORMAT,
        "family": series.family.name,
        "constants": series.consts.to_dict(),
        "n_terms": series.n_terms,
        "sigma_prefix_head": _enc_pair(series.sigma_prefix_head),
        "tail_after_head": _enc_pair(series.tail_after_head),
        "normalizer": _enc_pair(series.normalizer),
        "log_inv_r": series.log_inv_r,
        "log_inv_eps": series.log_inv_eps,
    }


def _payload(series: PeakSeries) -> dict:
    """The series file's JSON object."""
    return {**_fields(series), "sigma_head": list(map(
        list, zip(series.sigma_lo, series.sigma_hi)))}


def _head_text(series: PeakSeries, key: str) -> str:
    """The text indent=2 gives a head list at depth 1 of the file, from
    one json.dumps without indent.  No float's text holds "[", "]" or
    ", ", so str.replace meets only the encoder's separators."""
    if key != "sigma_head":
        text = json.dumps(getattr(series, key))
        return "[\n    " + text[1:-1].replace(", ", ",\n    ") + "\n  ]"
    # "[[a, b], [c, d]]": the separators inside the pairs, then those
    # between them, then the outer brackets
    text = json.dumps(list(zip(series.sigma_lo, series.sigma_hi)))
    text = text.replace(", ", ",\n      ").replace(
        "],\n      [", "\n    ],\n    [\n      ")
    return "[\n    [\n      " + text[2:-2] + "\n    ]\n  ]"


def save_series(series: PeakSeries, path) -> None:
    """Write the bytes of json.dump(_payload(series), fh, sort_keys=True,
    indent=2) and a newline.

    The keys go one at a time; the head lists are rendered at C speed by
    _head_text, and the other values by json.dumps with indent=2, each
    line after the first indented one level more for depth 1.
    """
    fields = _fields(series)
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{\n  "
        for key in sorted([*fields, "sigma_head"]):
            if key in _HEAD_KEYS:
                text = _head_text(series, key)
            else:
                text = json.dumps(fields[key], sort_keys=True,
                                  indent=2).replace("\n", "\n  ")
            fh.write(f"{sep}{json.dumps(key)}: {text}")
            sep = ",\n  "
        fh.write("\n}\n")


def load_series(path, fam: BarrierFamily) -> PeakSeries:
    """Build fam's series at the head length N that a series file names.

    N is the only value read from the file.  The file must be a series
    file for fam: its format, family and constants are checked, n_terms
    must be a positive integer, and sigma_head, log_inv_r and log_inv_eps
    must each hold n_terms entries, so a file cannot make the load build a
    longer head than it stores.  The series then comes from build, which
    reruns the certificate battery and the family certificate and refuses
    constants that fail either (BuildRefusedError).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read series file {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"series file {path!r} must be a JSON object")
    if payload.get("format") != SERIES_FORMAT:
        raise ConfigError(
            f"unsupported series format {payload.get('format')!r}; "
            f"expected {SERIES_FORMAT!r}")
    if payload.get("family") != fam.name:
        raise ConfigError(
            f"series file {path!r} is for family {payload.get('family')!r}, "
            f"the config names {fam.name!r}")
    mine, theirs = fam.consts.to_dict(), payload.get("constants")
    if theirs != mine:
        theirs = theirs if isinstance(theirs, dict) else {}
        differ = [k for k in mine if theirs.get(k) != mine[k]]
        differ += [k for k in theirs if k not in mine]
        raise ConfigError(
            f"series file {path!r} was built from other constants than the "
            f"config's: {', '.join(differ)} differ")
    n = payload.get("n_terms")
    if type(n) is not int or n < 1:
        raise ConfigError(f"malformed series file {path!r}: n_terms must be "
                          f"a positive integer, got {n!r}")
    short = [key for key in _HEAD_KEYS
             if not isinstance(payload.get(key), list)
             or len(payload[key]) != n]
    if short:
        raise ConfigError(f"malformed series file {path!r}: "
                          f"{', '.join(short)} must hold n_terms = {n} "
                          "entries")
    return build(fam, n)
