"""The certificate battery's float-list passes give the records and floats
of their per-index Enclosure versions (tests/battery_references.py) bit for
bit, and claim 2's closed-form record agrees with the per-index sweep, on
the reference config, on hypotheses drawn as perfbench draws its
certify-cold stream, on a slowly decaying corner of the hypothesis space
and on a config where claim 2 fails."""

import functools
import json
import random

import battery_references as ref
import pytest

from peakfn import (HypothesisConstants, Schedule, WeightEngine, _kernels,
                    build, certificates, cli, derive_constants,
                    synthetic_family)
from peakfn import hypothesis as hyp
from peakfn.enclosure import Enclosure
from peakfn.hypothesis import adjust_C, choose_D
from peakfn.weights import UNIT_CACHE_CAP

# perfbench's certify-cold hypothesis box, drawn in Latin-hypercube blocks
BOX = {"alpha": (0.3, 0.7), "s": (0.5, 1.0), "t": (0.5, 0.85),
       "A": (0.3, 0.7), "C": (1.5, 3.0)}
BLOCK = 16
REF = {"alpha": 0.5, "s": 1.0, "t": 0.75, "A": 0.5, "C": 2.0}
# overrides under which claim 2 fails, at m = 120
FAILING = ({"alpha": 0.5, "s": 0.5, "t": 0.75, "A": 0.9, "C": 2.0},
           {"D": 0.9, "M": 2.5})


def _box_draws(seed, count):
    rng = random.Random(seed)
    keys = sorted(BOX)
    out = []
    while len(out) < count:
        cols = {}
        for key in keys:
            lo, hi = BOX[key]
            strata = list(range(BLOCK))
            rng.shuffle(strata)
            cols[key] = [lo + (hi - lo) * (k + rng.random()) / BLOCK
                         for k in strata]
        out += [{key: cols[key][i] for key in keys} for i in range(BLOCK)]
    return out[:count]


# a corner where the claim-2 ratio rises to m = 24 and then falls slowly,
# with 1 - q = 0.014
SLOW_DECAY = {"alpha": 0.3, "s": 0.5, "t": 0.85, "A": 0.7, "C": 2.0}

HYPOTHESES = ([("reference", REF, {})]
              + [(f"seed{seed}-{i}", h, {}) for seed in (1, 4099)
                 for i, h in enumerate(_box_draws(seed, 20))]
              + [("slow-decay", SLOW_DECAY, {}), ("failing", *FAILING)])
CONSTANTS = {name: derive_constants(HypothesisConstants(**h), **over)[0]
             for name, h, over in HYPOTHESES}


def _bits(value):
    """value with every float as its hex form, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


@functools.cache
def _claim2_sweep(name, m_max):
    """The per-index claim-2 check on [2, m_max], one Enclosure chain per
    m, as the package ran it before the closed-form record."""
    return ref.check_claim2(WeightEngine(CONSTANTS[name]), (2, m_max))


@pytest.mark.parametrize("m_max", [3, 120, 400, 3000])
@pytest.mark.parametrize("name", list(CONSTANTS))
def test_claim2_matches_the_enclosure_reference(name, m_max):
    # the closed-form record passes only where the sweep on [2, m_max]
    # passes too; to m = 3000 the two verdicts agree on every config here
    rec = certificates.check_claim2(WeightEngine(CONSTANTS[name]))
    sweep = _claim2_sweep(name, m_max)
    assert sweep["passed"] or not rec["passed"]
    if m_max == 3000:
        assert rec["passed"] == sweep["passed"]


def test_claim2_fails_at_120_on_the_failing_config():
    assert not certificates.check_claim2(
        WeightEngine(CONSTANTS["failing"]))["passed"]
    sweep = _claim2_sweep("failing", 120)
    assert not sweep["passed"]
    assert sweep["argmin_m"] == 120


def test_run_all_grows_no_cache_past_index_1():
    # claim 2 reads sigma_1, g(1) and psi(1)^(-t) only, and nothing else in
    # the battery reads the weight caches
    eng = WeightEngine(CONSTANTS["reference"])
    assert certificates.run_all(eng).passed
    assert len(eng._sig_lo) == 1
    assert len(eng._g_lo) == len(eng._i_lo) == len(eng._pre_lo) == 2


@pytest.mark.parametrize("name", list(CONSTANTS))
def test_schedule_identities_match_the_per_index_reference(name):
    consts = CONSTANTS[name]
    got = certificates.check_schedule_identities(Schedule(consts))[0]
    want = ref.radius_recursion_closed_form(Schedule(consts))
    assert _bits(got) == _bits(want)
    sched = Schedule(consts)
    assert _bits(sched.log_inv_radii_closed(400)) == _bits(
        [ref.log_inv_radius_closed(sched, m) for m in range(1, 401)])


@pytest.mark.parametrize("m_check", [3, 120, 400])
@pytest.mark.parametrize("name", list(CONSTANTS))
def test_eps_condition_report_matches_the_reference(name, m_check):
    c = CONSTANTS[name]
    args = (c.alpha, c.s, c.t, c.A, c.M, c.p, c.q, m_check)
    assert _bits(hyp.eps_condition_report(*args)) == _bits(
        ref.eps_condition_report(*args))


def test_cached_eps_report_cannot_be_changed_by_a_caller():
    c = CONSTANTS["reference"]
    args = (c.alpha, c.s, c.t, c.A, c.M, c.p, c.q, 120)
    first = hyp.eps_condition_report(*args)
    want = json.dumps(first, sort_keys=True)
    first["per_m"][0][1] = 1e300
    first["per_m"].clear()
    first["tail_certificate"]["passed"] = "changed"
    first["m_range"].append(7)
    again = hyp.eps_condition_report(*args)
    assert json.dumps(again, sort_keys=True) == want


@pytest.mark.parametrize("name", list(CONSTANTS))
def test_quad_psi_negt_matches_the_psi_val_integrand(name):
    c = CONSTANTS[name]
    ca = Schedule(c).psi_power_coefficient
    rng = random.Random(7)
    panels = [(1.0e3, 1.0e6), (0.0, 1.0), (0.25, 3.5), (1.0, 1.0 + 2**-52),
              (20_000.0, 20_400.0)]
    panels += [(a, a + rng.uniform(1e-6, 50.0))
               for a in (rng.uniform(1.0, 500.0) for _ in range(10))]
    for a, b in panels:
        args = (a, b, c.log_inv_D, ca, c.p, c.t)
        assert _bits(_kernels.quad_psi_negt(*args)) == _bits(
            ref.quad_psi_negt(*args)), (a, b)


@pytest.mark.parametrize("name", list(CONSTANTS))
def test_unit_panels_match_the_per_panel_rules(name, monkeypatch):
    # every panel the unit cache holds, [1, 2] .. [cap - 1, cap]
    c = CONSTANTS[name]
    args = (c.log_inv_D, Schedule(c).psi_power_coefficient, c.p, c.t)
    count = UNIT_CACHE_CAP - 1
    bisected = []
    quad = _kernels.quad_psi_negt

    def recording(a, b, *rest):
        bisected.append(b)
        return quad(a, b, *rest)

    monkeypatch.setattr(_kernels, "quad_psi_negt", recording)
    got = _kernels.quad_unit_panels(2, count, *args)
    monkeypatch.undo()
    assert _bits(got) == _bits(ref.quad_unit_panels(2, count, *args))
    if name == "reference":
        # the panels near j = 2 are too wide at depth 0 and are bisected
        assert bisected == [2.0, 3.0, 4.0, 5.0]


def test_choose_D_matches_the_200_step_bisection():
    rng = random.Random(2024)
    for _ in range(2000):
        alpha = rng.uniform(0.01, 0.99)
        s = rng.uniform(0.05, 1.0)
        c = adjust_C(alpha, s, rng.uniform(0.1, 5.0))
        assert choose_D(alpha, s, c).hex() == ref.choose_D(alpha, s, c).hex()


@pytest.mark.parametrize("m_max", [3, 120, 400])
@pytest.mark.parametrize("name", ["reference", "failing", "seed1-0",
                                  "seed4099-0"])
def test_run_all_records_equal_the_references(name, m_max):
    # on an engine whose caches already reach m_max, as a long series'
    # would: the records read nothing that cache growth moves
    consts = CONSTANTS[name]
    eng = WeightEngine(consts)
    eng.reserve(m_max)
    report = certificates.run_all(eng)
    got = {r["name"]: r for r in report.records}
    assert _bits(got["claim-2"]) == _bits(
        certificates.check_claim2(WeightEngine(consts)))
    assert _bits(got["radius-recursion-closed-form"]) == _bits(
        ref.radius_recursion_closed_form(Schedule(consts)))


def _cli(tmp_path, *args):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REF))
    out = tmp_path / "out.json"
    assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes()


def test_one_certify_runs_the_shrink_loop_once_for_the_accepted_M(
        tmp_path, monkeypatch):
    calls = []
    loop = hyp._eps_head

    def counting(*args):
        calls.append(args[4])   # M
        return loop(*args)

    # the params bytes of the per-m reference, with no cache in the way
    monkeypatch.setattr(hyp, "eps_condition_report", ref.eps_condition_report)
    want = _cli(tmp_path, "params")
    monkeypatch.undo()
    monkeypatch.setattr(hyp, "_eps_head", counting)
    hyp._eps_condition.cache_clear()
    report = json.loads(_cli(tmp_path, "certify"))
    assert report["passed"]
    assert calls.count(report["constants"]["M"]) == 1
    # a warm cache and a cold one give the reference's bytes
    assert _cli(tmp_path, "params") == want
    hyp._eps_condition.cache_clear()
    assert _cli(tmp_path, "params") == want


def test_build_makes_no_enclosure_per_head_term(monkeypatch):
    made = []
    init = Enclosure.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Enclosure, "__init__", counting)
    counts = []
    for n in (10, 1000):
        made.clear()
        ser = build(synthetic_family(CONSTANTS["reference"]), n_terms=n)
        assert len(ser.sigma_lo) == n
        counts.append(len(made))
    assert counts[0] == counts[1]
