"""Per-layer tracing of one peakfn CLI invocation, from outside the package.

``Tracer.install`` replaces the public functions of each peakfn module with
wrappers, in the current process only; the benchmark calls it in a forked
child just before ``peakfn.cli.main``, so untraced invocations never see a
wrapper.  Two kinds of wrapper exist:

* spans time a call.  Each span knows how much of its interval its child
  spans covered, so self time = span duration - child spans.
* counters only count.  Enclosure arithmetic and barrier calls are far too
  fine-grained to time: a timer around each would swamp the work it timed.

The child sends ``spans`` and ``counts`` to the benchmark process, which
aggregates them over a run.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

from peakfn import (certificates, cli, enclosure, families, hypothesis,
                    schedule, series, weights)
import peakfn._kernels as kernels

# (owner, attribute, span name, elements of one call or None); an owner
# appears once per attribute that a caller resolves at call time, so a name
# imported by value (cli.derive_constants, certificates.radius_bound_sweep)
# is wrapped where it is looked up as well as where it is defined.
SPANS = [
    (hypothesis, "derive_constants", "hypothesis.derive_constants", None),
    (cli, "derive_constants", "hypothesis.derive_constants", None),
    (hypothesis, "choose_L", "hypothesis.choose_L", None),
    (hypothesis, "choose_M", "hypothesis.choose_M", None),
    (kernels, "pow_sums", "kernels.pow_sums", lambda a: a[0]),
    (kernels, "bracket_sweep", "kernels.bracket_sweep", lambda a: a[0]),
    (kernels, "choose_l_sweep", "kernels.choose_l_sweep", lambda a: a[0]),
    (kernels, "radius_bound_sweep", "kernels.radius_bound_sweep",
     lambda a: a[0]),
    (certificates, "radius_bound_sweep", "kernels.radius_bound_sweep",
     lambda a: a[0]),
    # a quadrature call is one panel; its elements are the length integrated
    (kernels, "quad_psi_negt", "kernels.quad_psi_negt", lambda a: a[1] - a[0]),
    (schedule.Schedule, "check_sum_brackets", "schedule.check_sum_brackets",
     None),
    (weights.WeightEngine, "divergence_certificate",
     "weights.divergence_certificate", None),
    (weights.WeightEngine, "integral_equation_residual",
     "weights.integral_equation_residual", None),
    (weights.WeightEngine, "decay_bound_check", "weights.decay_bound_check",
     None),
    (certificates, "run_all", "certificates.run_all", None),
    (certificates, "check_first_shell", "certificates.check_first_shell", None),
    (certificates, "check_eps_condition", "certificates.check_eps_condition",
     None),
    (certificates, "check_schedule_identities",
     "certificates.check_schedule_identities", None),
    (certificates, "check_claim1", "certificates.check_claim1", None),
    (certificates, "check_claim2", "certificates.check_claim2", None),
    (certificates, "check_lemma", "certificates.check_lemma", None),
    (families, "audit_family", "families.audit_family", None),
    (families, "make_grid", "families.make_grid", None),
    (series, "build", "series.build", None),
    (series, "save_series", "series.save_series", None),
    (series, "load_series", "series.load_series", None),
    (series.PeakSeries, "evaluate", "series.evaluate", None),
    (series.PeakSeries, "classify", "series.classify", None),
    (series.PeakSeries, "verify_peak", "series.verify_peak", None),
]

# (owner, attribute, counter name)
COUNTERS = [
    (weights.WeightEngine, "__init__", "weights.engines"),
    (weights.WeightEngine, "sigma", "weights.sigma.calls"),
    (weights.WeightEngine, "tail", "weights.tail.calls"),
    (schedule.Schedule, "log_inv_radius", "schedule.log_inv_radius.calls"),
    (enclosure.Enclosure, "__add__", "enclosure.add"),
    (enclosure.Enclosure, "__radd__", "enclosure.add"),
    (enclosure.Enclosure, "__mul__", "enclosure.mul"),
    (enclosure.Enclosure, "__rmul__", "enclosure.mul"),
    (enclosure.Enclosure, "__truediv__", "enclosure.div"),
    (enclosure.Enclosure, "widen", "enclosure.widen"),
    (enclosure.ComplexEnclosure, "add_scaled", "enclosure.add_scaled"),
]

BARRIER_EVALS = "families.barrier_evals"


class Tracer:
    """Span totals and counts of one process; install once, dump once."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s, elements]
        self.counts: Counter = Counter()
        self._stack: list[list] = []       # per open span: [child_s]

    def span(self, name, fn, elements):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if elements is not None:
                    stats[3] += elements(args)
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_family(self, family_by_name):
        counter = self.counter

        def make_counted(make):
            def counted_make(log_inv_r):
                bar = make(log_inv_r)
                return dataclasses.replace(
                    bar, func=counter(BARRIER_EVALS, bar.func))
            return counted_make

        def wrapper(name, consts):
            fam = family_by_name(name, consts)
            return dataclasses.replace(fam, _make=make_counted(fam._make))

        return wrapper

    def install(self) -> None:
        for owner, attr, name, elements in SPANS:
            setattr(owner, attr, self.span(name, getattr(owner, attr), elements))
        for owner, attr, name in COUNTERS:
            setattr(owner, attr, self.counter(name, getattr(owner, attr)))
        families.family_by_name = self._counting_family(families.family_by_name)
