#!/usr/bin/env python3
"""End-to-end benchmark of the peakfn command-line stages.

Run from the repository root:

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 35 --trace 0

One client drives the stages of ``peakfn.cli`` as a closed loop: one
invocation at a time, the next one sent when the previous one has exited,
no threads.  Each invocation is a child forked from this process, which has
imported peakfn and called nothing in it, so every invocation starts with
the program's caches cold, as a real CLI run does.  Every output is checked
and hashed.  The last line of stdout is the JSON result; the lines before it
are the same figures for a reader, with the environment they were taken in.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every invocation runs twice, untraced and then traced (see
tracer.py); the result holds the per-layer metrics and the tracing overhead,
and the two outputs of each pair must match byte for byte.

``--record PATH`` appends the full result, with its environment and output
digests, as one JSON line for compare.py.  README.md describes the
workloads, the set-up and probe invocations, the metrics, and which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

REFERENCE = {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}
# the seed the baseline was measured with, and one kept back for checking a
# claim on inputs it was not tuned on
BASELINE_SEED = 1
HELDOUT_SEED = 4099

# certify-cold: hypotheses drawn from these boxes as Latin-hypercube blocks,
# so that each run spreads its draws over the whole box whatever the seed.
# Above t = 0.85 the corner alpha ~ 0.3, s ~ 0.5, A ~ 0.7 is infeasible:
# params refuses it with "no admissible M" (exit 2), as documented, so t
# stops there and every draw certifies.
HYPOTHESIS_BOX = {"alpha": (0.3, 0.7), "s": (0.5, 1.0), "t": (0.5, 0.85),
                  "A": (0.3, 0.7), "C": (1.5, 3.0)}
LHS_BLOCK = 16
HEAD_SHORT = 100
HEAD_LONG = 1000
VERIFY_POINTS = 20
EVAL_COUNT = 500          # about 340 points survive the disk filter
SETUP_REPS = 3            # fewest set-up runs in an untraced run; setup_s is their median
SETUP = "setup"           # in a probe cycle: one more set-up run
TAIL_BEYOND = 10

HYPOTHESIS_STAGES = ("params", "certify", "build")
GRID_STAGES = ("verify", "eval")
CSV_HEADER = "y,F_re_lo,F_re_hi,F_im_lo,F_im_hi,absF_hi,case,m_of_y"
SERIES_FORMAT = "peakfn-series/1"


@dataclass
class Call:
    """One CLI invocation and what its output is checked against."""

    stage: str
    argv: list
    out: str
    terms: int = 0              # build: head length asked for
    series: str = ""            # build writes it, verify/eval read it
    count: int = 0              # verify on the interval: points expected


@dataclass
class Record:
    stage: str
    phase: str                  # setup | loop | probe
    rep: int
    latency_s: float
    rss_kb: int
    cli_s: float
    error: str | None
    digest: str
    points: int = 0
    beyond_head: int = 0
    terms: int = 0
    untraced_s: float = 0.0     # trace run: the untraced twin's latency
    untraced_cli_s: float = 0.0  # and its in-child CLI time
    trace: dict = field(default_factory=dict)


# -- inputs --------------------------------------------------------------


def _write_config(path, consts, family):
    cfg = dict(consts, family=family)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
        fh.write("\n")


def _hypothesis_calls(prefix, terms):
    cfg = prefix + ".config.json"
    series = prefix + ".series.json"
    return [
        Call("params", ["params", "--config", cfg], prefix + ".params.json"),
        Call("certify", ["certify", "--config", cfg], prefix + ".certify.json"),
        Call("build", ["build", "--config", cfg, "--terms", str(terms),
                       "--series", series], prefix + ".build.json",
             terms=terms, series=series),
    ]


def _grid_call(stage, prefix, series, grid, out, count=0):
    return Call(stage, [stage, "--config", prefix + ".config.json",
                        "--series", series, "--grid", grid], out,
                series=series, count=count)


def _hypotheses(rng):
    keys = sorted(HYPOTHESIS_BOX)
    while True:
        cols = {}
        for key in keys:
            lo, hi = HYPOTHESIS_BOX[key]
            strata = list(range(LHS_BLOCK))
            rng.shuffle(strata)
            cols[key] = [lo + (hi - lo) * (k + rng.random()) / LHS_BLOCK
                         for k in strata]
        for i in range(LHS_BLOCK):
            yield {key: cols[key][i] for key in keys}


class Workload:
    """Reference set-up, a seeded operation stream, and probes.

    The set-up takes the reference constants through params, certify and
    the set-up build.  The operations are what the workload measures.  The
    probes repeat the set-up and time, on the reference inputs, the grid
    stages the operations do not run, so that every stage has a timing on
    every workload.  They are spread over the run at a fixed share of its
    time, so that a slow spell of the machine does not fall on them all.
    """

    def __init__(self, name, family, terms, units, probe_stages, probe_grid,
                 probe_share):
        self.name = name
        self.family = family
        self.terms = terms
        self._units = units
        self.probe_stages = probe_stages
        self.probe_grid = probe_grid
        self.probe_share = probe_share
        self.prefix = os.path.join(WORK, "ref")
        self.series = self.prefix + ".series.json"

    def units(self, rng):
        """Endless seeded stream of operations, each a list of invocations."""
        return self._units(self, rng)

    def count(self, grid):
        # on the interval a grid has exactly COUNT points; the disk filters
        return int(grid.rsplit(":", 1)[1]) if self.family == "synthetic" else 0

    def setup(self):
        """Invocations of one set-up run; writes the reference config."""
        _write_config(self.prefix + ".config.json", REFERENCE, self.family)
        return _hypothesis_calls(self.prefix, self.terms)

    def probes(self):
        """The probe cycle: SETUP for a set-up run, else a grid invocation."""
        calls = {SETUP: SETUP}
        for stage, ext in (("verify", "json"), ("eval", "csv")):
            calls[stage] = _grid_call(
                stage, self.prefix, self.series, self.probe_grid,
                f"{self.prefix}.{stage}.{ext}", self.count(self.probe_grid))
        return [calls[stage] for stage in self.probe_stages]


def _certify_cold_units(w, rng):
    for i, consts in enumerate(_hypotheses(rng)):
        prefix = os.path.join(WORK, f"hyp{i}")
        _write_config(prefix + ".config.json", consts, w.family)
        yield _hypothesis_calls(prefix, w.terms)


def _verify_units(w, rng):
    while True:
        lo = max(10.0 ** rng.uniform(-30.0, -3.0), 1e-30)
        hi = rng.uniform(0.1, 1.0)
        grid = f"log:{lo!r}:{hi!r}:{VERIFY_POINTS}"
        yield [_grid_call("verify", w.prefix, w.series, grid,
                          w.prefix + ".op.verify.json", w.count(grid))]


def _eval_units(w, rng):
    while True:
        hi = 10.0 ** rng.uniform(-1.0, 0.0)
        grid = f"log:1e-30:{hi!r}:{EVAL_COUNT}"
        yield [_grid_call("eval", w.prefix, w.series, grid,
                          w.prefix + ".op.eval.csv")]


# the cheap grid probes come round more often than the costly set-up
WORKLOADS = {w.name: w for w in (
    Workload("certify-cold", "synthetic", HEAD_SHORT, _certify_cold_units,
             (SETUP,) + ("verify", "eval") * 3, "log:1e-30:1.0:100", 0.35),
    Workload("verify-synthetic", "synthetic", HEAD_LONG, _verify_units,
             (SETUP, "eval", "eval"), "log:1e-30:1.0:20", 0.4),
    Workload("eval-disk", "disk-exp", HEAD_SHORT, _eval_units,
             (SETUP, "verify", "verify", "verify"), "log:1e-30:1.0:100", 0.4),
)}


# -- output checks ---------------------------------------------------------


class CheckError(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckError(what)


class Checker:
    """Checks each output and remembers the constants of each series built."""

    def __init__(self):
        self.series_consts = {}   # series path -> (constants, N, family)

    def check(self, call, rec):
        with open(call.out, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data)
        if call.stage == "eval":
            self._check_csv(call, data.decode("utf-8"), rec)
        else:
            doc = json.loads(data)
            _require(doc.get("command") == call.stage, "wrong command field")
            _require(doc.get("passed") is True, "report says not passed")
            if call.stage == "build":
                with open(call.series, "rb") as fh:
                    sdata = fh.read()
                digest.update(sdata)
                self._check_series(call, doc, json.loads(sdata))
            elif call.stage == "verify":
                self._check_verify(call, doc, rec)
        return digest.hexdigest()

    def _check_series(self, call, doc, ser):
        _require(doc["n_terms"] == call.terms, "build summary has wrong N")
        _require(ser.get("format") == SERIES_FORMAT, "wrong series format")
        _require(ser["n_terms"] == call.terms == len(ser["sigma_head"]),
                 "series head length differs from --terms")
        lo, hi = ser["normalizer"]
        _require(0.0 < lo <= hi, "normalizer enclosure not positive/ordered")
        self.series_consts[call.series] = (ser["constants"], ser["n_terms"],
                                           ser["family"])

    def _check_verify(self, call, doc, rec):
        consts, n, family = self.series_consts[call.series]
        _require(doc["peak_enclosure"]["contains_one"] is True,
                 "peak enclosure misses 1")
        pts = doc["per_point"]
        _require(doc["points"] == len(pts) > 0, "point count mismatch")
        if call.count:
            _require(len(pts) == call.count, "grid size differs from spec")
        alpha, big_d = consts["alpha"], consts["D"]
        for p in pts:
            _require(p["margin"] == 1.0 - p["abs_hi"], "margin != 1 - abs_hi")
            _require(p["margin"] > 0.0 and p["m_of_y"] >= 1, "point not certified")
            # on the synthetic family F(y) = alpha exactly for y >= D
            if family == "synthetic" and p["y"] >= big_d:
                _require(p["abs_hi"] >= alpha, "enclosure excludes F = alpha")
        rec.points = len(pts)
        rec.beyond_head = sum(1 for p in pts if p["m_of_y"] > n)

    def _check_csv(self, call, text, rec):
        consts, n, family = self.series_consts[call.series]
        lines = text.splitlines()
        _require(lines and lines[0] == CSV_HEADER, "bad CSV header")
        alpha, big_d = consts["alpha"], consts["D"]
        beyond = 0
        for line in lines[1:]:
            cols = line.split(",")
            _require(len(cols) == 8, "bad CSV row")
            y = complex(cols[0])
            re_lo, re_hi, im_lo, im_hi, abs_hi = map(float, cols[1:6])
            m = int(cols[7])
            _require(re_lo <= re_hi and im_lo <= im_hi and 0.0 <= abs_hi,
                     "unordered enclosure bounds")
            _require(m >= 1, "m_of_y < 1 off the peak")
            if family == "synthetic" and y.real >= big_d:
                _require(abs_hi >= alpha, "enclosure excludes F = alpha")
            beyond += m > n
        _require(len(lines) > 1, "empty table")
        rec.points = len(lines) - 1
        rec.beyond_head = beyond


# -- invocations -----------------------------------------------------------


def _child(argv, log_path, wfd, traced):
    """Body of a forked invocation; never returns."""
    code = 70
    try:
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        tr = None
        if traced:
            import tracer
            tr = tracer.Tracer()
            tr.install()
        from peakfn import cli
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        cli_s = time.perf_counter() - t0
        payload = {"cli_s": cli_s}
        if tr is not None:
            payload.update(spans=tr.spans, counts=dict(tr.counts))
        with os.fdopen(wfd, "wb") as fh:
            fh.write(json.dumps(payload).encode())
    except BaseException:
        traceback.print_exc()
        code = 70
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def invoke(argv, traced=False):
    """Fork one CLI invocation; return (exit code, latency s, max RSS kB, child data)."""
    log_path = os.path.join(WORK, "child.log")
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(argv, log_path, wfd, traced)
    os.close(wfd)
    # read to the end before reaping, so a full pipe cannot block the child
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - t0
    child = json.loads(data) if data else {}
    return os.waitstatus_to_exitcode(status), latency, usage.ru_maxrss, child


class Runner:
    def __init__(self, trace):
        self.trace = trace
        self.checker = Checker()
        self.records: list[Record] = []
        self.digests = {}       # argv -> digest of its first output

    def _once(self, call, phase, rep, traced):
        argv = call.argv + ["--out", call.out]
        code, latency, rss, child = invoke(argv, traced)
        rec = Record(call.stage, phase, rep, latency, rss,
                     child.get("cli_s", 0.0), None, "", terms=call.terms)
        if traced:
            rec.trace = child
        try:
            _require(code == 0, f"exit code {code}: {_log_tail()}")
            rec.digest = self.checker.check(call, rec)
        except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        return rec

    def call(self, call, phase, rep=0):
        rec = self._once(call, phase, rep, traced=False)
        if self.trace:
            twin = self._once(call, phase, rep, traced=True)
            twin.untraced_s = rec.latency_s
            twin.untraced_cli_s = rec.cli_s
            if twin.error is None and rec.error is None \
                    and twin.digest != rec.digest:
                twin.error = "traced output differs from untraced output"
            twin.error = twin.error or rec.error
            rec = twin
        # set-up repetitions and probes rerun identical invocations, whose
        # output must not change by a byte
        first = self.digests.setdefault(tuple(call.argv), rec.digest)
        if rec.error is None and rec.digest != first:
            rec.error = "output differs from an identical earlier invocation"
        if rec.error is not None:
            sys.stderr.write(f"perfbench: {call.stage} {' '.join(call.argv)}:"
                             f" {rec.error}\n")
        self.records.append(rec)
        return rec


def _log_tail():
    try:
        with open(os.path.join(WORK, "child.log"), encoding="utf-8",
                  errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def time_import():
    """Seconds for a fresh interpreter to start and import peakfn."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import peakfn, peakfn.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


# -- metrics ---------------------------------------------------------------


def _source(records, stages):
    """Records of these stages from the loop, else from set-up and probes."""
    loop = [r for r in records if r.phase == "loop" and r.stage in stages]
    return loop or [r for r in records if r.stage in stages]


def _median(values):
    # a run whose set-up failed has no loop; its result is marked incorrect
    return statistics.median(values) if values else 0.0


def _median_ms(records, stage):
    return 1000.0 * _median([r.latency_s for r in _source(records, (stage,))])


def op_tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples, samples beyond); a run with too few
    samples reports its maximum.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return (lat[-1] if lat else 0.0), 100.0, n, 0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n, TAIL_BEYOND


def end_to_end(records, setup_s):
    grid = _source(records, GRID_STAGES)
    loop = [r.latency_s for r in records if r.phase == "loop"]
    tail, pct, n, beyond = op_tail(loop)
    metrics = {
        "setup_s": (setup_s, "s"),
        "params_ms": (_median_ms(records, "params"), "ms"),
        "certify_ms": (_median_ms(records, "certify"), "ms"),
        "build_ms": (_median_ms(records, "build"), "ms"),
        "verify_ms": (_median_ms(records, "verify"), "ms"),
        "eval_ms": (_median_ms(records, "eval"), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        # from the medians, so that one stalled invocation does not swing it
        "hypotheses_per_s": (_ratio(1000.0, sum(_median_ms(records, st)
                                                for st in HYPOTHESIS_STAGES)),
                             "1/s"),
        "points_per_s": (_median([r.points / r.latency_s for r in grid]), "1/s"),
        "peak_rss_mb": (max(r.rss_kb for r in records) / 1024.0, "MB"),
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {n} operation invocations, "
                           f"{beyond} beyond"}
    return metrics, notes


def _spans(recs, name):
    return [r.trace["spans"][name] for r in recs
            if r.trace.get("spans", {}).get(name, [0])[0] > 0]


def _count(recs, name):
    return sum(r.trace.get("counts", {}).get(name, 0) for r in recs)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _span_calls(recs, name):
    return sum(s[0] for s in _spans(recs, name))


def _mean_count(recs, name):
    vals = [r.trace["counts"][name] for r in recs
            if r.trace.get("counts", {}).get(name)]
    return (_mean(vals), "count")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(records):
    """Per-layer metrics from the traced invocations of a run.

    A time or count is the mean per invocation that reached the function;
    per-point figures divide by the grid points of verify and eval.
    """
    m = {}

    def span_ms(name, key=None, self_time=False):
        m[key or name + ".ms"] = (
            1000.0 * _mean([s[2 if self_time else 1] for s in _spans(records, name)]),
            "ms")

    for name in ("hypothesis.derive_constants", "hypothesis.choose_L",
                 "hypothesis.choose_M"):
        span_ms(name)
    for k in ("pow_sums", "bracket_sweep", "choose_l_sweep",
              "radius_bound_sweep", "quad_psi_negt"):
        name = "kernels." + k
        spans = _spans(records, name)
        m[name + ".calls"] = (_mean([s[0] for s in spans]), "count")
        span_ms(name)
        m[name + ".elements"] = (_mean([s[3] for s in spans]), "count")
    certify = [r for r in records if r.stage == "certify"]
    m["kernels.quad_psi_negt.calls_per_run_all"] = (
        _ratio(_span_calls(certify, "kernels.quad_psi_negt"),
               _span_calls(certify, "certificates.run_all")), "count")

    span_ms("schedule.check_sum_brackets")
    m["schedule.log_inv_radius.calls"] = _mean_count(
        records, "schedule.log_inv_radius.calls")

    m["weights.engines"] = _mean_count(records, "weights.engines")
    m["weights.sigma.calls"] = _mean_count(records, "weights.sigma.calls")
    m["weights.tail.calls"] = _mean_count(records, "weights.tail.calls")
    for k in ("divergence_certificate", "integral_equation_residual",
              "decay_bound_check"):
        span_ms("weights." + k)
    builds = [r for r in records if r.stage == "build"]
    # base: quadrature panels run in the build invocations, which include
    # their own certificate battery
    m["weights.useful_panel_ratio"] = (
        _ratio(sum(r.terms - 1 for r in builds),
               _span_calls(builds, "kernels.quad_psi_negt")), "ratio")

    span_ms("certificates.run_all")
    # a hypothesis is one params, one certify and one build invocation
    per_stage = [[r for r in records if r.stage == st] for st in HYPOTHESIS_STAGES]
    m["certificates.run_all.calls_per_hypothesis"] = (
        sum(_ratio(_span_calls(recs, "certificates.run_all"), len(recs))
            for recs in per_stage), "count/hypothesis")
    for k in ("check_first_shell", "check_eps_condition",
              "check_schedule_identities", "check_claim1", "check_claim2",
              "check_lemma"):
        span_ms("certificates." + k)

    grid = [r for r in records if r.stage in GRID_STAGES]
    points = sum(r.points for r in grid)
    span_ms("families.audit_family")
    span_ms("families.make_grid")
    m["families.barrier_evals"] = (
        _mean([_count([r], "families.barrier_evals") for r in grid]), "count")
    m["families.barrier_evals_per_point"] = (
        _ratio(_count(grid, "families.barrier_evals"), points), "count/point")

    for k in ("build", "save_series", "load_series"):
        span_ms("series." + k)
    span_ms("series.evaluate", "series.evaluate.self_ms", self_time=True)
    span_ms("series.classify", "series.classify.self_ms", self_time=True)
    span_ms("series.verify_peak")
    m["series.points"] = (_mean([r.points for r in grid]), "count")
    m["series.beyond_head_points"] = (_mean([r.beyond_head for r in grid]),
                                      "count")

    prim = 0
    for k in ("add", "mul", "div", "widen", "add_scaled"):
        c = _count(grid, "enclosure." + k)
        if k != "add_scaled":
            prim += c
        m["enclosure." + k] = (_ratio(c, points), "count/point")
    m["enclosure.ops_per_point"] = (_ratio(prim, points), "count/point")

    for stage in HYPOTHESIS_STAGES + GRID_STAGES:
        recs = [r for r in records if r.stage == stage]
        m[f"cli.{stage}.ms"] = (
            1000.0 * _median([r.trace.get("cli_s", 0.0) for r in recs]), "ms")
    # fork, exit and reaping, taken on the untraced twins of the loop
    loop = [r for r in records if r.phase == "loop"]
    m["cli.fork_exit_ms"] = (
        1000.0 * _median([r.untraced_s - r.untraced_cli_s for r in loop]), "ms")
    m["trace.overhead_ratio"] = (
        _ratio(sum(r.latency_s for r in loop), sum(r.untraced_s for r in loop))
        - 1.0, "ratio")
    return m


# -- environment -----------------------------------------------------------


def environment(args):
    import peakfn
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": peakfn.active_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main ------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASELINE_SEED,
                    help=f"input seed (baseline {BASELINE_SEED}, "
                         f"held out {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="PATH",
                    help="append the full result as one JSON line here")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "peakfn")):
        sys.stderr.write(f"perfbench: no peakfn sources under {SRC}\n")
        return 2
    # the invocations do no linear algebra; keeping numpy's BLAS pool from
    # starting threads keeps forking this process safe
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import peakfn          # noqa: F401  the parent every invocation forks from
    import peakfn.cli      # noqa: F401

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    env = environment(args)
    workload = WORKLOADS[args.workload]
    runner = Runner(bool(args.trace))
    if args.trace:
        import tracer  # noqa: F401  imported once here, installed per child

    setup_times = []

    def set_up():
        t_import = time_import()
        recs = [runner.call(c, SETUP, len(setup_times)) for c in workload.setup()]
        setup_times.append(t_import + sum(r.latency_s for r in recs))
        return setup_times[-1]

    def probe(item):
        if isinstance(item, Call):
            return runner.call(item, "probe").latency_s
        return set_up()

    set_up()
    if all(r.error is None for r in runner.records):
        rng = random.Random(args.seed)
        probes = workload.probes()
        cycle = itertools.cycle(probes)
        t0 = time.perf_counter()
        t_end = t0 + args.seconds
        probe_s = 0.0
        for unit in workload.units(rng):
            for call in unit:
                runner.call(call, "loop")
            now = time.perf_counter()
            if now >= t_end:
                break
            while probe_s < workload.probe_share * (now - t0):
                probe_s += probe(next(cycle))
                now = time.perf_counter()
        # a run too short for every probe's turn still times each stage and
        # sets up several times
        probed = {r.stage for r in runner.records if r.phase == "probe"}
        for item in probes:
            if isinstance(item, Call) and item.stage not in probed:
                probe(item)
                probed.add(item.stage)
        while len(setup_times) < (1 if args.trace else SETUP_REPS):
            set_up()

    records = runner.records
    failed = sum(r.error is not None for r in records)
    notes = {}
    if args.trace:
        metrics = per_layer(records)
    else:
        metrics, notes = end_to_end(records, statistics.median(setup_times))
    digest = hashlib.sha256("".join(
        r.digest for r in records if r.phase == SETUP and r.rep == 0
    ).encode()).hexdigest()

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:46s} {value:14.6g} {unit}{note}")
    print(f"{'failed_ratio':46s} {failed / len(records):14.6g} "
          f"({failed} of {len(records)} invocations)")
    print(f"{'setup_outputs_sha256':46s} {digest}")

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        full = dict(result, env=env, notes=notes, setup_sha256=digest,
                    outputs=[[r.phase, r.stage, r.digest] for r in records])
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
