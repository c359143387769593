"""Weight enclosures against independently computed 40-digit values, plus
the structural identities (tail nesting, monotonicity, closed-form I on the
flat segment)."""

import math

import pytest

from peakfn import WeightEngine
from peakfn.errors import DomainError, InvalidParameterError

# frozen from the independent high-precision computation
I_VALUES = {
    1.0: 0.1428377689186816,
    2.0: 0.2451144328294494,
    5.0: 0.3904849209640563,
    25.0: 0.6746526834541556,
}
G_VALUES = {
    1.0: 0.9911123700082443,
    2.0: 0.984797096873019,
    3.0: 0.9809340556748413,
    25.0: 0.9587108201249899,
}
SIGMA_VALUES = {
    1: 0.03539206991992112,
    2: 0.0187477035744928,
    3: 0.01290792306898157,
}
# enclosure of the full normalizer from the same computation
SIGMA_TOTAL_LO = 3.984655590760336
SIGMA_TOTAL_HI = 3.984658857479822


@pytest.mark.parametrize("x,expected", sorted(I_VALUES.items()))
def test_integral_I_frozen(engine, x, expected):
    enc = engine.integral_I(x)
    assert enc.contains(expected)
    assert enc.rel_width < 1e-9


def test_integral_I_edges(engine):
    assert engine.integral_I(0.0).hi == 0.0
    half = engine.integral_I(0.5)
    one = engine.integral_I(1.0)
    # exactly linear below 1
    assert half.contains(0.5 * I_VALUES[1.0])
    assert one.lo <= 2.0 * half.mid <= one.hi + 1e-15
    with pytest.raises(DomainError):
        engine.integral_I(-1.0)


@pytest.mark.parametrize("x,expected", sorted(G_VALUES.items()))
def test_g_frozen(engine, x, expected):
    enc = engine.g(x)
    assert enc.contains(expected)
    assert enc.rel_width < 1e-9


def test_g_at_zero_and_monotone(engine):
    assert engine.g(0.0).lo == 1.0 == engine.g(0.0).hi
    prev = engine.g(0.0)
    for x in (0.5, 1.0, 2.0, 5.0, 25.0, 100.0):
        cur = engine.g(x)
        assert cur.hi < prev.hi + 1e-15
        assert cur.lo > 0.0
        prev = cur


@pytest.mark.parametrize("j,expected", sorted(SIGMA_VALUES.items()))
def test_sigma_frozen(engine, j, expected):
    enc = engine.sigma(j)
    assert enc.contains(expected)
    assert enc.rel_width < 1e-9


def test_sigma_validation(engine):
    with pytest.raises(InvalidParameterError):
        engine.sigma(0)
    with pytest.raises(InvalidParameterError):
        engine.sigma_prefix(-1)
    with pytest.raises(InvalidParameterError):
        engine.tail(-1)


def test_tail_zero_frozen(engine):
    t0 = engine.tail(0)
    assert t0.lo == pytest.approx(3.96444948003, rel=1e-10)
    assert t0.hi == pytest.approx(3.99984154995, rel=1e-10)
    # the whole series sits inside tail(0)
    assert t0.lo <= SIGMA_TOTAL_LO and SIGMA_TOTAL_HI <= t0.hi


def test_tail_sharpening_nests(engine):
    crude = engine.tail(5)
    for n in (1, 2, 10, 50):
        sharp = engine.tail(5, sharpen=n)
        assert crude.encloses(sharp)
        crude = sharp
    assert engine.tail(5, sharpen=50).width < engine.tail(5).width / 5.0


def test_normalizer_nesting_and_width(engine):
    n100 = engine.sigma_prefix(100) + engine.tail(100)
    n1000 = engine.sigma_prefix(1000) + engine.tail(1000)
    assert n100.encloses(n1000)
    assert n100.contains(SIGMA_TOTAL_LO) and n100.contains(SIGMA_TOTAL_HI)
    assert n100.rel_width < 2e-4
    assert n1000.rel_width < 2e-5


def test_sigma_range(engine):
    r = engine.sigma_range(2, 3)
    both = engine.sigma(2) + engine.sigma(3)
    assert r.lo <= both.mid <= r.hi
    assert engine.sigma_range(5, 4).hi == 0.0


def test_integral_equation_residual(engine):
    for x in (0.0, 1.0, 5.0, 25.0):
        rec = engine.integral_equation_residual(x)
        assert rec["relative_residual"] <= 1e-6, f"x={x}"


def test_divergence_certificate(engine):
    rec = engine.divergence_certificate()
    assert rec["passed"]
    assert rec["measured_increase"] == pytest.approx(0.1351441987, rel=1e-6)
    assert rec["certified_minorant"] == pytest.approx(0.11877, rel=1e-3)
    assert rec["measured_increase"] >= rec["certified_minorant"]


def test_divergence_certificate_leaves_unit_cache_empty(ref_constants):
    # one adaptive integral over [s1, s2]: no unit panels are cached
    eng = WeightEngine(ref_constants)
    assert eng.divergence_certificate()["passed"]
    assert len(eng._i_enc) == 1


def test_decay_bound_check(engine):
    rec = engine.decay_bound_check()
    assert rec["passed"]
    assert rec["ratio_at_onset"] == pytest.approx(12.3851936415, rel=1e-9)
    assert rec["A2"] == pytest.approx(6.6020240317, rel=1e-9)
    assert rec["A1"] == pytest.approx(1.19114297155, rel=1e-9)
    # every sample satisfies 0 < g(x) <= A1 exp(-rate x^(1-q))
    for x, g_hi, bound, ok in rec["samples"]:
        assert ok and g_hi <= bound * (1.0 + 1e-9)


def test_mpmath_cross_check_I(ref_constants):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    consts = ref_constants
    lid = mp.log(1 / mp.mpf("0.1"))
    ca = mp.log(2) * 5 / (mp.mpf("0.25") * mp.mpf("1.25"))

    def psi(u):
        uu = u if u > 1 else mp.mpf(1)
        return lid * uu + ca * uu ** mp.mpf("1.25")

    eng = WeightEngine(consts)
    for x in (1.0, 2.0, 7.5):
        truth = float(mp.quad(lambda u: psi(u) ** (-mp.mpf("0.75")),
                              [0, 1, x] if x > 1 else [0, x]))
        enc = eng.integral_I(x)
        assert enc.contains(truth), f"x={x}: {enc} vs {truth}"
