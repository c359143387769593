"""Series assembly, certified evaluation, case classification, grid
verification, and serialization round-trips."""

import bisect
import copy
import dataclasses
import functools
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_barriers import scalar_barrier

import peakfn
from peakfn import build, load_series, make_grid, save_series, synthetic_family
from peakfn.enclosure import ComplexEnclosure, Enclosure
from peakfn.errors import BuildRefusedError, ConfigError, DomainError
from peakfn.hypothesis import GUARD
from peakfn.series import (BARRIER_EVAL_REL, SERIES_FORMAT, CaseLabel,
                           EvalResult, _dot, _payload, _sum_up)


@functools.lru_cache(maxsize=None)
def _scalar_head(fam, log_inv_r: tuple) -> list:
    """f_1..f_N of a head as the scalar reference closures."""
    return [scalar_barrier(fam, lir) for lir in log_inv_r]


def head_barriers(ser) -> list:
    return _scalar_head(ser.family, tuple(ser.log_inv_r))


def test_build_shape(ref_series, ref_constants):
    ser = ref_series
    assert ser.n_terms == 100
    assert len(ser.sigma_lo) == len(ser.sigma_hi) == 100
    assert len(ser.log_inv_r) == 100
    assert len(ser.log_inv_eps) == 100
    assert ser.consts == ref_constants
    # normalizer consistent with prefix + tail at 4-ulp padding
    ideal = ser.sigma_prefix_head + ser.tail_after_head
    assert ideal.lo <= ser.normalizer.lo + 4 * math.ulp(ideal.lo)
    assert ser.normalizer.hi <= ideal.hi + 4 * math.ulp(ideal.hi)


def test_evaluate_at_peak(ref_series):
    res = ref_series.evaluate(0.0)
    assert res.m_of_y == 0
    assert res.case is None
    assert res.F.re.contains(1.0)
    assert res.F.im.contains(0.0)
    assert res.F.re.width < 1e-3


def test_peak_enclosure_comes_from_the_sum(ref_series):
    # the peak value sums sigma_j f_j(x) = sigma_j; a wrong head shows there
    tripled = dataclasses.replace(
        ref_series, sigma_lo=[lo * 3.0 for lo in ref_series.sigma_lo],
        sigma_hi=[hi * 3.0 for hi in ref_series.sigma_hi])
    res = tripled.evaluate(0.0)
    assert not res.F.re.contains(1.0)
    assert res.F.re.lo > 1.1


def test_verify_peak_calls_each_barrier_once_per_point(ref_series,
                                                       disk_series):
    # off the peak f_j is called only for j <= m(y), since the family's
    # off-ball bound at r_{m+1} is at most alpha at every admitted point of
    # both families; at the peak every f_j is called
    full_off_peak = 0
    for ser in (ref_series, disk_series):
        calls = {}
        index = {lir: j for j, lir in enumerate(ser.log_inv_r, 1)}

        def counted(values):
            # one (point, j) pair per entry of the hook's lists
            def hook(points, which, lirs):
                for i, lir in zip(which, lirs):
                    calls.setdefault(complex(points[i]), []).append(
                        index[lir])
                return values(points, which, lirs)
            return hook

        counting = dataclasses.replace(ser, family=dataclasses.replace(
            ser.family, _values=counted(ser.family._values)))
        points = make_grid(ser.family, "log", 1e-20, 1.0, 56)
        assert len(set(points)) == len(points)
        rep = counting.verify_peak(points)
        assert rep["passed"]
        assert set(calls) == set(points) | {0j}
        alpha = ser.consts.alpha
        n = ser.n_terms
        for y, pp in zip(points, rep["per_point"]):
            m = pp["m_of_y"]
            assert 0 < m < n
            assert ser.family.off_ball_bound(y, ser.log_inv_r[m]) <= alpha
            full_off_peak += calls[y] == list(range(1, n + 1))
            assert calls[y] == list(range(1, m + 1))
        assert calls[0j] == list(range(1, n + 1))
    assert full_off_peak == 0


def test_evaluate_forced_region(ref_series):
    # every barrier is exactly alpha at y >= r_1: F is alpha to within slack
    for y in (0.15, 0.5, 1.0):
        res = ref_series.evaluate(y)
        assert res.abs_F.hi < 0.5 + 1e-3
        assert res.F.re.contains(0.5) or abs(res.F.re.mid - 0.5) < 1e-3


def test_evaluate_frozen_midscale(ref_series):
    res = ref_series.evaluate(0.05)
    assert res.m_of_y == 2
    assert res.F.re.contains(0.508883)
    assert res.F.re.width <= 1e-3
    assert res.F.im.contains(0.0) and res.F.im.width < 1e-10


def test_evaluate_deep_point(ref_series):
    res = ref_series.evaluate(1e-30)
    assert res.m_of_y == 15
    assert res.abs_F.hi < 1.0
    assert res.abs_F.hi == pytest.approx(0.516, abs=5e-3)


def test_evaluate_rejects_outside(ref_series):
    with pytest.raises(DomainError):
        ref_series.evaluate(2.0)
    # below the peak every synthetic barrier is 1, so F is 1 there
    for y in (-1e-14, -5e-14, -1e-13):
        with pytest.raises(DomainError):
            ref_series.evaluate(y)
    with pytest.raises(DomainError):
        ref_series.verify_peak([-1e-14, -5e-14])
    # nor above 1: the interval's 1e-13 shell is gone
    for y in (1.0 + 1e-15, 1.0 + 1e-13):
        with pytest.raises(DomainError):
            ref_series.evaluate(y)
    with pytest.raises(DomainError):
        ref_series.evaluate(0.5 + 0.5j)


def test_classify_cases(ref_series):
    assert str(ref_series.classify(0.5)) == "outside-all-W"
    assert str(ref_series.classify(0.05)) == "in-W1"
    assert str(ref_series.classify(0.0751)) == "in-W1"
    lab = ref_series.classify(0.004)
    assert lab.kind in ("in-W1", "in-Wm-not-before")
    with pytest.raises(DomainError):
        ref_series.classify(0.0)


def test_classify_monotone_membership(ref_series):
    # the W_m thresholds 1 + eps_m^s decrease in m, so if y belongs to some
    # W_m it belongs to all later ones; the label is the first
    lab = ref_series.classify(2e-4)
    if lab.kind == "in-Wm-not-before":
        m = lab.m
        eps_pow = math.exp(
            -ref_series.consts.s * ref_series.log_inv_eps[m - 1])
        vals = [abs(f(2e-4 + 0j)) for f in head_barriers(ref_series)[:m]]
        assert max(vals) >= 1.0 + eps_pow
        prev_pow = math.exp(
            -ref_series.consts.s * ref_series.log_inv_eps[m - 2])
        assert max(vals[:m - 1]) < 1.0 + prev_pow


def test_verify_peak_report(ref_series):
    grid = make_grid(ref_series.family, "log", 1e-30, 1.0, 500)
    rep = ref_series.verify_peak(grid)
    assert rep["passed"]
    assert rep["points"] == 500
    assert rep["failures"] == []
    assert rep["min_margin"] > 0.0
    assert rep["max_abs_hi"] < 1.0
    assert rep["peak_enclosure"]["contains_one"]
    assert rep["w1_alpha_claim"] == "not-certified"
    assert len(rep["per_point"]) == 500
    # forced region margin is 1 - alpha up to enclosure slack
    far = [pp for pp in rep["per_point"]
           if isinstance(pp["y"], float) and pp["y"] >= 0.1]
    assert far and all(abs(pp["margin"] - 0.5) < 1e-3 for pp in far)


def test_verify_peak_small_log_grid(ref_series):
    rep = ref_series.verify_peak(
        make_grid(ref_series.family, "log", 1e-6, 1.0, 50))
    assert rep["passed"] and rep["points"] == 50


def test_verify_peak_rejects_peak_in_grid(ref_series):
    with pytest.raises(DomainError):
        ref_series.verify_peak([0.0])
    with pytest.raises(DomainError):
        ref_series.verify_peak([])


def test_build_refuses_bad_constants(ref_constants):
    bad = dataclasses.replace(ref_constants, D=0.2)
    fam = synthetic_family(bad)
    with pytest.raises(BuildRefusedError):
        build(fam, n_terms=10)


def test_build_holds_the_certified_weights(ref_constants, monkeypatch):
    # one engine per build: the battery runs on it and the series reads its
    # head weights from the same caches
    engines = []
    run_all = peakfn.certificates.run_all

    def recording(engine):
        engines.append(engine)
        return run_all(engine)

    monkeypatch.setattr(peakfn.certificates, "run_all", recording)
    ser = build(synthetic_family(ref_constants), n_terms=20)
    assert len(engines) == 1 and engines[0] is ser.engine


def test_build_computes_no_thresholds(ref_constants, tmp_path):
    # a series that is only written makes no exp call per head term; the
    # derived lists come on first use, and replace derives them afresh
    ser = build(synthetic_family(ref_constants), n_terms=30)
    save_series(ser, tmp_path / "series.json")
    assert "thresholds" not in ser.__dict__
    assert "_sigma_mag" not in ser.__dict__
    assert ser.thresholds == [1.0 + math.exp(-ser.consts.s * lie)
                              for lie in ser.log_inv_eps]
    assert "thresholds" in ser.__dict__
    tripled = dataclasses.replace(
        ser, log_inv_eps=[3.0 * lie for lie in ser.log_inv_eps],
        sigma_hi=[3.0 * hi for hi in ser.sigma_hi])
    assert tripled.thresholds == [1.0 + math.exp(-ser.consts.s * lie)
                                  for lie in tripled.log_inv_eps]
    assert tripled._sigma_mag == [max(abs(lo), 3.0 * abs(hi)) for lo, hi
                                  in zip(ser.sigma_lo, ser.sigma_hi)]


def test_round_trip_is_bit_identical(ref_series, tmp_path):
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    again = load_series(path, ref_series.family)
    assert again.consts == ref_series.consts
    assert again.n_terms == ref_series.n_terms
    assert again.sigma_lo == ref_series.sigma_lo
    assert again.sigma_hi == ref_series.sigma_hi
    assert again.normalizer == ref_series.normalizer
    assert again.log_inv_r == ref_series.log_inv_r
    for y in (0.0, 1e-30, 1e-12, 0.05, 0.5, 1.0):
        a = ref_series.evaluate(y)
        b = again.evaluate(y)
        assert (a.F.re, a.F.im, a.m_of_y) == (b.F.re, b.F.im, b.m_of_y)
        assert str(ref_series.classify(y) if y else "") == \
            str(again.classify(y) if y else "")


def test_save_format_stable(ref_series, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_series(ref_series, p1)
    save_series(ref_series, p2)
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["format"] == SERIES_FORMAT
    assert payload["family"] == "synthetic"


# ends whose text or spacing is awkward: a signed zero, the smallest
# subnormal, the smallest normal, a short exponent form, the first float
# repr writes with an exponent, and the largest float
AWKWARD_ENDS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
                1.7976931348623157e308)


@settings(max_examples=60, deadline=None)
@example(n=3, pool=list(AWKWARD_ENDS), rnd=random.Random(0))
@given(n=st.sampled_from([1, 2, 3, 1000]),
       pool=st.lists(st.sampled_from(AWKWARD_ENDS + tuple(
           -x for x in AWKWARD_ENDS)) | st.floats(allow_nan=False,
                                                  allow_infinity=False),
           min_size=1, max_size=12),
       rnd=st.randoms(use_true_random=False))
def test_save_series_writes_the_json_dump_bytes(ref_series, tmp_path_factory,
                                                n, pool, rnd):
    # a head of n entries, every end drawn from the pool; save_series
    # reads only the fields set here, so no other field need agree
    ser = copy.copy(ref_series)
    ser.n_terms = n
    ser.sigma_lo, ser.sigma_hi, ser.log_inv_r, ser.log_inv_eps = (
        [rnd.choice(pool) for _ in range(n)] for _ in range(4))
    ser.sigma_prefix_head, ser.tail_after_head, ser.normalizer = (
        Enclosure(*sorted([rnd.choice(pool), rnd.choice(pool)]))
        for _ in range(3))
    path = tmp_path_factory.mktemp("writer") / "series.json"
    save_series(ser, path)
    want = json.dumps(_payload(ser), sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


SERIES_KEYS = ["format", "family", "constants", "n_terms", "sigma_head",
               "sigma_prefix_head", "tail_after_head", "normalizer",
               "log_inv_r", "log_inv_eps"]

# the keys that say which series a file holds; load_series reads no other
# value of the file, only the lengths of the head lists
IDENTITY_KEYS = ["format", "family", "constants", "n_terms"]


def _bits(ser) -> tuple:
    """Every float of a series that evaluation reads, as float.hex."""
    ends = (ser.sigma_lo, ser.sigma_hi, ser.log_inv_r, ser.log_inv_eps,
            [ser.normalizer.lo, ser.normalizer.hi],
            [ser.tail_after_head.lo, ser.tail_after_head.hi])
    return tuple(tuple(map(float.hex, xs)) for xs in ends)


def _change(payload, key):
    """Change one top-level key of a series file, in place: a constant,
    an entry or an end goes one ulp up; quad_rel_tol is added."""
    value = payload.get(key)
    if key == "quad_rel_tol":
        payload[key] = 1e-10
    elif key == "format":
        payload[key] = "peakfn-series/2"
    elif key == "family":
        payload[key] = "disk-exp"
    elif key == "constants":
        value["alpha"] = math.nextafter(value["alpha"], math.inf)
    elif key == "n_terms":
        payload[key] = value - 1
    elif key == "sigma_head":
        value[0][1] = math.nextafter(value[0][1], math.inf)
    elif key in ("log_inv_r", "log_inv_eps"):
        value[0] = math.nextafter(value[0], math.inf)
    else:
        value[1] = math.nextafter(value[1], math.inf)


# quad_rel_tol: files written before the bracket quadrature carried it
@pytest.mark.parametrize("key", [None, *SERIES_KEYS, "quad_rel_tol"])
def test_load_refuses_any_changed_key(ref_series, tmp_path, key):
    # the file build wrote loads; a change to a key that says which series
    # the file holds refuses it, and a change to any other value loads the
    # series a fresh build makes, bit for bit, as no such value is read
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    payload = json.loads(path.read_text())
    assert sorted(payload) == sorted(SERIES_KEYS)
    if key is not None:
        _change(payload, key)
        path.write_text(json.dumps(payload))
    if key in IDENTITY_KEYS:
        with pytest.raises(ConfigError):
            load_series(path, ref_series.family)
        return
    again = load_series(path, ref_series.family)
    assert _bits(again) == _bits(build(ref_series.family,
                                       ref_series.n_terms))


@pytest.mark.parametrize("edit,named", [
    ({"family": "disk-exp"},
     "is for family 'disk-exp', the config names 'synthetic'"),
    ({"alpha": 0.9}, "other constants than the config's: alpha differ"),
    ({"M": 1.01}, "other constants than the config's: M differ"),
], ids=["family", "alpha", "M-failing-the-battery"])
def test_load_refuses_a_mismatch_before_rebuild(ref_series, tmp_path,
                                                monkeypatch, edit, named):
    # the family and the constants come from the caller; a file for other
    # ones is refused without a rebuild, even one whose constants would
    # fail the battery
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    payload = json.loads(path.read_text())
    if "family" in edit:
        payload.update(edit)
    else:
        payload["constants"].update(edit)
    path.write_text(json.dumps(payload))

    def no_build(*args, **kwargs):
        raise AssertionError("build ran on a mismatched file")

    monkeypatch.setattr(peakfn.series, "build", no_build)
    with pytest.raises(ConfigError, match=named):
        load_series(path, ref_series.family)


@pytest.mark.parametrize("tamper,named", [
    # entries of the right count load to the rebuild, whatever they hold
    ("triple-all", None),
    ("one-ulp", None),
    ("three-ends", None),
    ("bare-float", None),
    ("two-chars", None),
    ("two-keys", None),
    # the head arrays still hold 100 entries: refused before any rebuild
    ("n_terms-99", "log_inv_eps, log_inv_r, sigma_head must hold "
                   "n_terms = 99 entries"),
], ids=["triple-all", "one-ulp", "three-ends", "bare-float", "two-chars",
        "two-keys", "n_terms-99"])
def test_load_refuses_tampered_head(ref_series, tmp_path, tamper, named):
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    payload = json.loads(path.read_text())
    lo, hi = payload["sigma_head"][41]
    if tamper == "triple-all":
        payload["sigma_head"] = [[3.0 * lo, 3.0 * hi]
                                 for lo, hi in payload["sigma_head"]]
    elif tamper == "one-ulp":
        payload["sigma_head"][41] = [lo, math.nextafter(hi, math.inf)]
    elif tamper == "three-ends":
        payload["sigma_head"][41] = [lo, hi, hi]
    elif tamper == "bare-float":
        payload["sigma_head"][41] = lo
    elif tamper == "two-chars":
        payload["sigma_head"][41] = "lh"
    elif tamper == "two-keys":
        payload["sigma_head"][41] = {"lo": lo, "hi": hi}
    else:
        payload["n_terms"] = 99
    path.write_text(json.dumps(payload))
    if named is None:
        again = load_series(path, ref_series.family)
        assert _bits(again) == _bits(build(ref_series.family,
                                           ref_series.n_terms))
        return
    with pytest.raises(ConfigError, match=named):
        load_series(path, ref_series.family)


def test_load_rejects_malformed(ref_series, tmp_path):
    fam = ref_series.family
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_series(bad, fam)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(ConfigError):
        load_series(wrong, fam)
    with pytest.raises(ConfigError):
        load_series(tmp_path / "missing.json", fam)


@pytest.mark.parametrize("edit,named", [
    ({"family": "nonesuch"}, "is for family 'nonesuch'"),
    ({"n_terms": "many"}, "malformed series file .*: n_terms must be a "
                          "positive integer"),
    ({"constants": {"alpha": 0.5}}, "s, t, A, C, D, M, p, q, L, k differ"),
    # p = 0 would divide by zero in the schedule's power coefficient
    ({"p": 0.0}, ": p differ"),
    # outside the hypothesis range (0, 1]; sigma does not depend on s, so
    # a rebuild from the file's constants would match the file
    ({"s": 2.0}, ": s differ"),
    ({"z": 1.0}, ": z differ"),
], ids=["family", "n_terms", "constants", "p-zero", "s-out-of-range",
        "extra-constant"])
def test_load_rejects_malformed_inputs(ref_series, tmp_path, edit, named):
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    payload = json.loads(path.read_text())
    if set(edit) <= {"p", "s", "z"}:
        payload["constants"].update(edit)
    else:
        payload.update(edit)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=named):
        load_series(path, ref_series.family)


@pytest.mark.parametrize("edit,named", [
    ({"n_terms": 20000}, "log_inv_eps, log_inv_r, sigma_head must hold "
                         "n_terms = 20000 entries"),
    ({"n_terms": 100.0}, "n_terms must be a positive integer, got 100.0"),
    ({"n_terms": True}, "n_terms must be a positive integer, got True"),
    ({"n_terms": 0}, "n_terms must be a positive integer, got 0"),
    ({"n_terms": None}, "n_terms must be a positive integer, got None"),
    ({"sigma_head": "many"}, ": sigma_head must hold n_terms = 100 entries"),
    ({"log_inv_r": None}, ": log_inv_r must hold n_terms = 100 entries"),
], ids=["n_terms-20000", "float", "bool", "zero", "missing", "sigma-string",
        "lir-missing"])
def test_load_checks_head_shape_before_rebuild(ref_series, tmp_path,
                                               monkeypatch, edit, named):
    # the rebuild costs O(n_terms), so a head whose length cannot match is
    # refused before build runs
    path = tmp_path / "series.json"
    save_series(ref_series, path)
    payload = json.loads(path.read_text())
    for key, value in edit.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))

    def no_build(*args, **kwargs):
        raise AssertionError("build ran on a malformed head")

    monkeypatch.setattr(peakfn.series, "build", no_build)
    with pytest.raises(ConfigError, match=f"malformed series file .*{named}"):
        load_series(path, ref_series.family)


@pytest.mark.parametrize("name,factor", [("p", 0.9), ("q", 0.99), ("k", 0.5)])
def test_load_refuses_underived_constants(ref_constants, tmp_path, name,
                                          factor):
    # the file matches its own rebuild and the battery passes, but the tail
    # bracket and the claim-1 proof assume p, q and k derived from t, M and
    # alpha (Mk = (1-alpha)/2); the constants come from the caller's family,
    # which derives them, so the file is refused as built from others
    bad = dataclasses.replace(
        ref_constants, **{name: getattr(ref_constants, name) * factor})
    path = tmp_path / "series.json"
    save_series(build(synthetic_family(bad), n_terms=20), path)
    with pytest.raises(ConfigError, match=f"other constants than the "
                                          f"config's: {name} differ"):
        load_series(path, synthetic_family(ref_constants))


@pytest.fixture(scope="module")
def disk_series(ref_constants):
    fam = peakfn.disk_exponential_family(ref_constants)
    return build(fam, n_terms=60)


def test_disk_evaluate_peak_and_interior(disk_series):
    # offsets from the peak z = 1: the peak, z = 0 and z = -1
    res = disk_series.evaluate(0j)
    assert res.F.re.contains(1.0) and res.F.im.contains(0.0)
    res = disk_series.evaluate(-1.0 + 0.0j)
    assert res.abs_F.hi < 1.0
    res = disk_series.evaluate(-2.0 + 0.0j)
    assert res.abs_F.hi < 1.0
    # points past the circle are refused, however close: z = 1 - 1e-17j
    # rounds to a double with Re z = 1.0
    for delta in (-1e-17j, 1e-15, 1e-13):
        with pytest.raises(DomainError):
            disk_series.evaluate(delta)


def test_disk_verify_small_grid(disk_series):
    rep = disk_series.verify_peak(
        make_grid(disk_series.family, "log", 1e-8, 2.0, 120))
    assert rep["passed"]
    assert rep["max_abs_hi"] < 1.0
    kinds = {pp["case"] for pp in rep["per_point"]}
    assert kinds <= {"outside-all-W", "in-W1", "in-Wm-not-before",
                     "head-exhausted"}


def test_disk_round_trip(disk_series, tmp_path):
    path = tmp_path / "disk.json"
    save_series(disk_series, path)
    again = load_series(path, disk_series.family)
    for delta in (-0.5 + 0.5j, 0j, -0.01 + 0.0j):
        a, b = disk_series.evaluate(delta), again.evaluate(delta)
        assert (a.F.re, a.F.im) == (b.F.re, b.F.im)


def test_split_index_beyond_head(ref_constants):
    # a tiny head forces the split logic past the stored radii
    fam = synthetic_family(ref_constants)
    ser = build(fam, n_terms=4)
    res = ser.evaluate(1e-12)
    assert res.m_of_y > 4
    assert res.abs_F.hi < 1.0
    assert res.F.re.contains(0.5) or res.abs_F.hi < 0.7


@pytest.mark.parametrize("n", [1, 3])
def test_pad_and_ceiling_bound_their_exact_sums(ref_constants, monkeypatch,
                                                n):
    # evaluate widens the head box by the barrier pad and, past the head, by
    # the ceiling sum_{N < j < m} (C/M) g(j).hi; each must be at least the
    # exact sum of its float terms, which a sum rounded to nearest misses.
    # Both are _sum_up of exactly those terms (the per-point reference,
    # which the batch path equals bit for bit, widens by them)
    ser = build(synthetic_family(ref_constants), n_terms=n)
    sums = []

    def recording(terms):
        terms = list(terms)
        sums.append((terms, _sum_up(terms)))
        return sums[-1][1]

    monkeypatch.setattr(peakfn.series, "_sum_up", recording)
    ratio = ser.consts.C / ser.consts.M
    beyond = 0
    for y in make_grid(ser.family, "log", 1e-30, 1e-3, 200):
        sums.clear()
        res = ser.evaluate(y)
        pad_terms = [hi * abs(complex(f(y))) * BARRIER_EVAL_REL
                     for hi, f in zip(ser.sigma_hi, head_barriers(ser))]
        pads = [out for terms, out in sums if terms == pad_terms]
        assert len(pads) == 1
        assert Fraction(pads[0]) >= sum(map(Fraction, pad_terms))
        if res.m_of_y > ser.n_terms + 1:
            beyond += 1
            ceiling_terms = [ratio * ser.engine.g(j).hi
                             for j in range(ser.n_terms + 1, res.m_of_y)]
            ceilings = [out for terms, out in sums if terms == ceiling_terms]
            assert len(ceilings) == 1
            assert Fraction(ceilings[0]) >= sum(map(Fraction, ceiling_terms))
    assert beyond > 100


# -- the float head sum against exact arithmetic and the per-term chain ------

U = 2.0 ** -53
TINY = 2.0 ** -1074


def _units(x: float) -> int:
    """x as an integer multiple of 2^-1074, which every double is."""
    num, den = x.as_integer_ratio()
    return num * (2 ** 1074 // den)


@st.composite
def dot_inputs(draw):
    """Interval weights and values with mixed signs, zeros, subnormal and
    underflowing products and, optionally, a last term that cancels the
    rest; the arrays come from a drawn seed, so n can reach 4096."""
    n = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # products of two values near 2^-560 fall below the normal range
    low = draw(st.integers(-560, 20))
    spread = draw(st.integers(0, 60))
    width = draw(st.sampled_from([0.0, 2.0 ** -50, 1e-6, 0.5]))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))

    def signed(size):
        mant = rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size)
        return np.ldexp(mant, rng.integers(low, low + spread + 1, size))

    lo = signed(n)
    hi = lo + np.abs(lo) * width * rng.uniform(0.0, 1.0, n)
    vals = signed(n)
    vals[rng.uniform(size=n) < zeros] = 0.0
    if n > 1 and draw(st.booleans()):
        lo[-1] = hi[-1] = 1.0
        vals[-1] = -math.fsum((lo[:-1] * vals[:-1]).tolist())
    return lo, hi, vals


@given(dot_inputs())
@settings(max_examples=100, deadline=None)
def test_dot_encloses_exact_interval_dot_product(inputs):
    lo, hi, vals = inputs
    # exact sums in units of 2^-2148, where every product of doubles is whole
    lo_sum = hi_sum = mag = 0
    for a, b, v in zip(lo.tolist(), hi.tolist(), vals.tolist()):
        pa, pb = _units(a) * _units(v), _units(b) * _units(v)
        lo_sum += min(pa, pb)
        hi_sum += max(pa, pb)
        mag += max(abs(pa), abs(pb))
    ends_mag = np.maximum(np.abs(lo), np.abs(hi)).tolist()
    enc = Enclosure(*_dot(lo.tolist(), hi.tolist(), ends_mag, vals.tolist()))
    enc_lo, enc_hi = _units(enc.lo) << 1074, _units(enc.hi) << 1074
    assert enc_lo <= lo_sum and hi_sum <= enc_hi
    # each end lies within the error it covers (2u sum|p| + 2^-1075 per
    # nonzero value) plus the stated radius (3u sum|p| + 2^-1074 per nonzero
    # value) of the exact one, up to the outward steps of widen
    nonzero = int(np.count_nonzero(vals))
    slack = (Fraction(5 * mag, 2 ** 53) * (1 + Fraction(4, 2 ** 53))
             + 2 * nonzero * 2 ** 1074
             + (_units(4 * math.ulp(abs(enc.lo) + abs(enc.hi))) << 1074))
    assert lo_sum - enc_lo <= slack and enc_hi - hi_sum <= slack


def _reference_evaluate(ser, y) -> EvalResult:
    """evaluate as a per-term Enclosure chain: each sigma_j f_j(y) added to
    a complex box in turn, the pad and the ceiling summed in order."""
    y = ser.family.domain.require(y)
    m = ser.split_index(y)
    num = ComplexEnclosure.from_point(0.0 + 0.0j)
    eval_pad = 0.0
    running = 0.0
    lowest = math.inf
    member_m = None
    thresholds = [1.0 + math.exp(-ser.consts.s * lie)
                  for lie in ser.log_inv_eps]
    for j, (sig, f, thr) in enumerate(
            zip(map(Enclosure, ser.sigma_lo, ser.sigma_hi),
                head_barriers(ser), thresholds), 1):
        fval = complex(f(y))
        mod = abs(fval)
        num = num.add_scaled(sig, fval)
        eval_pad += sig.hi * mod * BARRIER_EVAL_REL
        running = max(running, mod)
        lowest = min(lowest, mod)
        if member_m is None and running >= thr:
            member_m = j
    if eval_pad > 0.0:
        num = num.widen(eval_pad)
    alpha_tol = ser.consts.alpha + GUARD * max(1.0, ser.consts.alpha)
    if m == 0:
        case = None
    elif member_m is not None:
        case = CaseLabel(
            "in-W1" if member_m == 1 else "in-Wm-not-before", member_m)
    elif running < thresholds[-1] and lowest <= alpha_tol:
        case = CaseLabel("outside-all-W")
    else:
        case = CaseLabel("head-exhausted")
    start = ser.n_terms + 1
    if m > start:
        disc = 0.0
        for j in range(start, m):
            disc += (ser.consts.C / ser.consts.M) * ser.engine.g(j).hi
        num = num.widen(disc)
    far_start = max(m, start)
    if far_start == start:
        far_tail = ser.tail_after_head
    else:
        far_tail = ser.engine.tail(far_start - 1)
    off = ser.family.exact_off_value
    if m == 0:
        num = num + ComplexEnclosure.from_real(far_tail)
    elif off is not None:
        num = num + ComplexEnclosure.from_real(far_tail * off)
    else:
        num = num.widen(ser.consts.alpha * far_tail.hi)
    f_enc = num.div_real(ser.normalizer)
    return EvalResult(point=y, m_of_y=m, F=f_enc, abs_F=f_enc.abs_bounds(),
                      case=case)


@pytest.fixture(scope="module")
def reference_cases(ref_constants):
    built = {}

    def series(family, n):
        if (family, n) not in built:
            fam = peakfn.family_by_name(family, ref_constants)
            built[family, n] = build(fam, n_terms=n)
        return built[family, n]
    return series


@pytest.mark.parametrize("family,n,grid", [
    ("synthetic", 100, ("log", 1e-30, 1.0, 500)),
    ("synthetic", 1000, ("log", 1e-30, 1.0, 500)),
    ("disk-exp", 100, ("log", 1e-12, 1.0, 200)),
    ("disk-exp", 100, ("log", 1e-30, 1.0, 500)),
    ("synthetic", 1000, ("linear", 1e-6, 1.0, 300)),
], ids=["synthetic-100", "synthetic-1000", "disk-exp-100",
        "disk-exp-100-eval-grid", "synthetic-1000-linear"])
def test_evaluate_agrees_with_per_term_chain(reference_cases, family, n,
                                             grid):
    ser = reference_cases(family, n)
    points = make_grid(ser.family, *grid) + [0j]
    for y in points:
        new, ref = ser.evaluate(y), _reference_evaluate(ser, y)
        assert (new.case, new.m_of_y) == (ref.case, ref.m_of_y)
        for a, b in ((new.F.re, ref.F.re), (new.F.im, ref.F.im)):
            assert max(a.lo, b.lo) <= min(a.hi, b.hi)
        assert new.abs_F.hi <= ref.abs_F.hi * (1.0 + 1e-15)


# -- the off-ball bound past the split index ---------------------------------


def _off_ball_excess(ser, bound, grid):
    """(y, j) for every head index j > m(y) where |f_j(y)| exceeds
    bound(y, log(1/r_{m+1})), the bound evaluate charges those terms."""
    excess = []
    for y in make_grid(ser.family, *grid):
        m = ser.split_index(y)
        if m >= ser.n_terms:
            continue
        phi = bound(y, ser.log_inv_r[m])
        head = head_barriers(ser)
        excess.extend((y, j) for j in range(m + 1, ser.n_terms + 1)
                      if abs(head[j - 1](y)) > phi)
    return excess


REFERENCE_GRIDS = [("log", 1e-30, 1.0, 500), ("log", 1e-30, 1.0, 100),
                   ("log", 1e-12, 1.0, 200), ("linear", 1e-6, 1.0, 300)]


@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
def test_off_ball_bound_holds_past_the_split(reference_cases, family):
    ser = reference_cases(family, 100)
    for grid in REFERENCE_GRIDS:
        assert _off_ball_excess(ser, ser.family.off_ball_bound, grid) == []
    # evaluate finds a first hit past the split by binary search
    assert np.all(np.diff(ser.thresholds) <= 0.0)


def test_understated_off_ball_bounds_fail(reference_cases):
    # alpha^((d/r)^2) bounds the barrier at every offset the closed disk
    # admits, since 2 Re delta <= -|delta|^2 there.  Past the split no
    # understated bound can be caught on the disk: r_m / r_{m+1} >= 40 on
    # this schedule, so every |f_j| with j > m(y) is at most alpha^1600,
    # which is 0 in binary64
    disk = reference_cases("disk-exp", 100)
    log_alpha = math.log(disk.consts.alpha)

    def gaussian(y, lir):
        dist = disk.family.domain.distance_to_peak(y)
        return math.exp(log_alpha * math.exp(2.0 * (math.log(dist) + lir)))

    assert np.exp(np.diff(disk.log_inv_r)).min() >= 40.0
    for grid in REFERENCE_GRIDS:
        assert _off_ball_excess(disk, gaussian, grid) == []
        assert _off_ball_excess(disk, lambda y, lir: 0.0, grid) == []
    # an off value a little below the synthetic family's alpha
    syn = reference_cases("synthetic", 100)
    low = syn.consts.alpha - 1e-3
    for grid in REFERENCE_GRIDS:
        excess = _off_ball_excess(syn, lambda y, lir: low, grid)
        assert {y for y, _ in excess} == set(make_grid(syn.family, *grid))


def test_off_ball_widening_nests_the_per_term_chain(reference_cases):
    # alpha is a loose but valid bound inside the disk; charged to every
    # term past the split, it must widen the box around all the terms the
    # per-term chain sums, which a missing or short widening would not
    disk = reference_cases("disk-exp", 100)
    alpha = disk.consts.alpha
    loose = dataclasses.replace(disk, family=dataclasses.replace(
        disk.family, _off_bound=lambda y, lir: alpha))
    for y in make_grid(disk.family, "linear", 1e-6, 1.0, 300):
        new, ref = loose.evaluate(y), _reference_evaluate(disk, y)
        assert (new.case, new.m_of_y) == (ref.case, ref.m_of_y)
        assert new.m_of_y < disk.n_terms
        for a, b in ((new.F.re, ref.F.re), (new.F.im, ref.F.im)):
            assert a.encloses(b)


# -- the batch path against one point at a time ------------------------------


def _per_point_dot(lo, hi, vals) -> Enclosure:
    """_dot as it was written with numpy arrays."""
    pos = vals >= 0.0
    p_lo = np.where(pos, lo, hi) * vals
    p_hi = np.where(pos, hi, lo) * vals
    mag = _sum_up(np.maximum(np.abs(p_lo), np.abs(p_hi)).tolist())
    rad = 3.0 * U * mag + TINY * np.count_nonzero(vals)
    return Enclosure(math.fsum(p_lo.tolist()), math.fsum(p_hi.tolist())
                     ).widen(math.nextafter(rad, math.inf))


def _per_point_evaluate(ser, y) -> EvalResult:
    """evaluate one point at a time with Enclosure arithmetic, each f_j
    from the scalar reference closures: the reference whose floats the
    batch path must reproduce."""
    y = ser.family.domain.require(y)
    m = ser.split_index(y)
    n = ser.n_terms
    k = n
    if 0 < m < n:
        phi = ser.family.off_ball_bound(y, ser.log_inv_r[m])
        if phi <= ser.consts.alpha:
            k = m
    vals = np.array([f(y) for f in head_barriers(ser)[:k]], dtype=complex)
    sig_lo = np.asarray(ser.sigma_lo[:k])
    sig_hi = np.asarray(ser.sigma_hi[:k])
    mods = np.hypot(vals.real, vals.imag)
    num = ComplexEnclosure(_per_point_dot(sig_lo, sig_hi, vals.real),
                           _per_point_dot(sig_lo, sig_hi, vals.imag))
    num = num.widen(_sum_up((sig_hi * mods * BARRIER_EVAL_REL).tolist()))
    running = np.maximum.accumulate(mods)
    hits = np.flatnonzero(running >= np.asarray(ser.thresholds[:k]))
    if hits.size:
        member_m = int(hits[0]) + 1
    elif k < n:
        member_m = 1 + bisect.bisect_left(
            ser.thresholds, -running[-1], lo=k, key=operator.neg)
    else:
        member_m = n + 1
    alpha_tol = ser.consts.alpha + GUARD * max(1.0, ser.consts.alpha)
    if m == 0:
        case = None
    elif member_m <= n:
        case = CaseLabel(
            "in-W1" if member_m == 1 else "in-Wm-not-before", member_m)
    elif k < n or mods.min() <= alpha_tol:
        case = CaseLabel("outside-all-W")
    else:
        case = CaseLabel("head-exhausted")
    start = n + 1
    if m > start:
        ratio = ser.consts.C / ser.consts.M
        ser.engine.reserve(m)
        num = num.widen(_sum_up(
            [ratio * ser.engine.g(j).hi for j in range(start, m)]))
    if k < n:
        far_tail = ser._mass_after(k)
    elif m <= start:
        far_tail = ser.tail_after_head
    else:
        far_tail = ser.engine.tail(m - 1)
    off = ser.family.exact_off_value
    if m == 0:
        num = num + ComplexEnclosure.from_real(far_tail)
    elif off is not None:
        num = num + ComplexEnclosure.from_real(far_tail * off)
    elif k < n:
        bound = phi * far_tail.hi
        num = num.widen(_sum_up([bound, bound * BARRIER_EVAL_REL]))
    else:
        num = num.widen(ser.consts.alpha * far_tail.hi)
    f_enc = num.div_real(ser.normalizer)
    return EvalResult(point=y, m_of_y=m, F=f_enc, abs_F=f_enc.abs_bounds(),
                      case=case)


def _fields(res: EvalResult) -> tuple:
    return (res.point, res.F.re.lo, res.F.re.hi, res.F.im.lo, res.F.im.hi,
            res.abs_F.lo, res.abs_F.hi, res.m_of_y, res.case)


def _assert_batch_is_per_point(ser, points):
    batch = list(ser.evaluate_many(points))
    assert len(batch) == len(points)
    for y, res in zip(points, batch):
        assert _fields(res) == _fields(_per_point_evaluate(ser, y)), y


@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
@pytest.mark.parametrize("grid", REFERENCE_GRIDS,
                         ids=[":".join(map(str, g)) for g in REFERENCE_GRIDS])
def test_batch_equals_per_point(reference_cases, family, grid):
    ser = reference_cases(family, 100)
    _assert_batch_is_per_point(ser, make_grid(ser.family, *grid) + [0j])


@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
def test_batch_equals_per_point_at_n_1000(reference_cases, family):
    ser = reference_cases(family, 1000)
    _assert_batch_is_per_point(
        ser, make_grid(ser.family, "log", 1e-30, 1.0, 100) + [0j])


@pytest.fixture(scope="module")
def short_heads(ref_constants):
    # N = 10: m(1e-30) = 15 > N + 1, so the head-to-split ceiling and the
    # head-exhausted label are reached
    return {name: build(peakfn.family_by_name(name, ref_constants),
                        n_terms=10)
            for name in ("synthetic", "disk-exp")}


@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
def test_batch_equals_per_point_past_a_short_head(short_heads, family):
    ser = short_heads[family]
    points = make_grid(ser.family, "log", 1e-30, 1.0, 500) + [0j]
    results = list(ser.evaluate_many(points))
    assert max(res.m_of_y for res in results) > ser.n_terms + 1
    assert any(str(res.case) == "head-exhausted" for res in results)
    _assert_batch_is_per_point(ser, points)


def test_batches_straddle_the_cap(reference_cases, monkeypatch):
    # with the cap at 100 pairs the grid's m(y) pairs per point fill many
    # batches; each batch stays under the cap, and a point past a batch
    # boundary gets the same floats
    ser = reference_cases("disk-exp", 100)
    sizes = []
    batch_of = peakfn.PeakSeries._evaluate_batch

    def recording(self, batch):
        sizes.append([k for _, _, k, _ in batch])
        return batch_of(self, batch)

    monkeypatch.setattr(peakfn.PeakSeries, "_evaluate_batch", recording)
    cap = 100
    monkeypatch.setattr(peakfn.series, "BATCH_PAIRS", cap)
    points = make_grid(ser.family, "log", 1e-30, 1.0, 500)
    _assert_batch_is_per_point(ser, points)
    assert len(sizes) > 5
    assert sum(map(sum, sizes)) > 10 * cap
    assert all(sum(ks) <= cap for ks in sizes)
    # each batch ends where the next point would not fit
    assert all(sum(ks) + nxt[0] > cap
               for ks, nxt in zip(sizes, sizes[1:]))


def test_a_point_past_the_cap_is_its_own_batch(ref_constants, monkeypatch):
    ser = build(synthetic_family(ref_constants), n_terms=40)
    monkeypatch.setattr(peakfn.series, "BATCH_PAIRS", 25)
    points = make_grid(ser.family, "log", 1e-30, 1.0, 60) + [0j]
    _assert_batch_is_per_point(ser, points)


@given(family=st.sampled_from(["synthetic", "disk-exp"]),
       n=st.sampled_from([10, 100]),
       kind=st.sampled_from(["log", "linear"]),
       lo_exp=st.floats(-30.0, 0.0),
       hi_frac=st.floats(0.0, 1.0),
       count=st.integers(1, 80))
@settings(max_examples=40, deadline=None)
def test_batch_equals_per_point_on_drawn_grids(short_heads, reference_cases,
                                               family, n, kind, lo_exp,
                                               hi_frac, count):
    ser = short_heads[family] if n == 10 else reference_cases(family, n)
    lo = max(10.0 ** lo_exp, 1e-30)
    hi = lo + (1.0 - lo) * hi_frac
    points = make_grid(ser.family, kind, lo, hi, count)
    _assert_batch_is_per_point(ser, points)
