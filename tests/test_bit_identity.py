"""The plain-Python unit panels, weight batch and batched evaluation give
the floats of their numpy versions (tests/numpy_references.py) bit for
bit, signed zeros included, on seeded hypotheses, for both families at
N = 10, 100 and 1000."""

import random

import numpy_references as ref
import pytest

from peakfn import (HypothesisConstants, WeightEngine, _kernels, build,
                    derive_constants, family_by_name, make_grid)
from peakfn import series as series_mod
from peakfn.series import _payload

# perfbench's certify-cold hypothesis box
BOX = {"alpha": (0.3, 0.7), "s": (0.5, 1.0), "t": (0.5, 0.85),
       "A": (0.3, 0.7), "C": (1.5, 3.0)}
GRIDS = [("log", 1e-30, 1.0, 500), ("log", 1e-12, 1.0, 200),
         ("linear", 1e-6, 1.0, 300)]


def _constants():
    rng = random.Random(20)
    out = [derive_constants(HypothesisConstants(
        alpha=0.5, s=1.0, t=0.75, A=0.5, C=2.0))[0]]
    for _ in range(3):
        h = {k: rng.uniform(*BOX[k]) for k in sorted(BOX)}
        out.append(derive_constants(HypothesisConstants(**h))[0])
    return out


CONSTANTS = _constants()


def _bits(value):
    """value with every float as its hex form, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("index", range(len(CONSTANTS)))
def test_unit_panels_match_numpy(index):
    consts = CONSTANTS[index]
    eng = WeightEngine(consts)
    args = (consts.log_inv_D, eng.schedule.psi_power_coefficient, consts.p,
            consts.t)
    lo, hi = _kernels.quad_unit_panels(2, 1000, *args)
    want_lo, want_hi = ref.quad_unit_panels(2, 1000, *args)
    assert _bits(lo) == _bits(want_lo.tolist())
    assert _bits(hi) == _bits(want_hi.tolist())


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("index", range(len(CONSTANTS)))
def test_weight_caches_match_numpy(index, n):
    consts = CONSTANTS[index]
    got, want = WeightEngine(consts), ref.NumpyWeightEngine(consts)
    # grown in two pieces, as build and a later query grow them
    for size in (n // 2 + 1, n + 1):
        got.reserve(size)
        want.reserve(size)
    for name in ("_i_lo", "_i_hi", "_g_lo", "_g_hi", "_sig_lo", "_sig_hi",
                 "_pre_lo", "_pre_hi"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(index, family, n):
        key = (index, family, n)
        if key not in cache:
            cache[key] = build(family_by_name(family, CONSTANTS[index]), n)
        return cache[key]
    return get


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
@pytest.mark.parametrize("index", range(len(CONSTANTS)))
def test_series_payload_matches_numpy(built, monkeypatch, index, family, n):
    monkeypatch.setattr(series_mod, "WeightEngine", ref.NumpyWeightEngine)
    want = _payload(build(family_by_name(family, CONSTANTS[index]), n))
    monkeypatch.undo()
    assert _bits(_payload(built(index, family, n))) == _bits(want)


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("family", ["synthetic", "disk-exp"])
@pytest.mark.parametrize("index", [0, 1])
def test_evaluate_many_matches_numpy(built, index, family, n):
    ser = built(index, family, n)
    for grid in GRIDS:
        points = make_grid(ser.family, *grid) + [0j]
        got = [ref.result_fields(r) for r in ser.evaluate_many(points)]
        assert _bits(got) == _bits(ref.evaluate_many(ser, points)), grid
