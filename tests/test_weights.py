"""Weight enclosures against independently computed 40-digit values, plus
the structural identities (tail nesting, monotonicity, closed-form I on the
flat segment)."""

import math
import random

import pytest

from peakfn import (HypothesisConstants, WeightEngine, _kernels,
                    derive_constants, weights)
from peakfn.enclosure import ZERO, Enclosure
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


def test_normalizer_nesting_and_width(engine):
    n100 = engine.sigma_prefix(100) + engine.tail(100)
    n1000 = engine.sigma_prefix(1000) + engine.tail(1000)
    assert n100.encloses(n1000)
    assert n100.contains(SIGMA_TOTAL_LO) and n100.contains(SIGMA_TOTAL_HI)
    assert n100.rel_width < 2e-4
    assert n1000.rel_width < 2e-5


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
    assert len(eng._i_lo) == 1


def test_decay_bound_check(engine):
    rec = engine.decay_bound_check()
    assert rec["passed"]
    assert rec["ratio_at_onset"] == pytest.approx(12.3851936415, rel=1e-9)
    assert rec["A2"] == pytest.approx(6.6020240317, rel=1e-9)
    assert rec["A1"] == pytest.approx(1.19114297155, rel=1e-9)
    assert set(rec) == {"x_on", "A1", "A2", "A3", "ratio_at_onset",
                        "ratio_limit", "passed"}
    # the proved bound 0 < g(x) <= A1 exp(-rate x^(1-q)), checked at samples
    consts = engine.consts
    one_minus_q = 1.0 - consts.q
    rate = consts.k / (rec["A2"] * one_minus_q)
    for x in (0.0, 1.0, 10.0, 100.0, 1000.0):
        g_enc = engine.g(x)
        bound = rec["A1"] * math.exp(-rate * math.pow(x, one_minus_q))
        assert 0.0 < g_enc.lo and g_enc.hi <= bound, f"x={x}"


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


def test_divergence_certificate_near_tie_fails(ref_constants):
    # a minorant within 1e-13 of the measured increase is no certificate
    eng = WeightEngine(ref_constants)
    rec = eng.divergence_certificate()
    scale = rec["measured_increase"] / rec["certified_minorant"] * (1 - 1e-13)
    eng._psi1_negt = eng._psi1_negt * scale
    tie = eng.divergence_certificate()
    assert tie["certified_minorant"] == pytest.approx(
        tie["measured_increase"], rel=1e-12)
    assert not tie["passed"]


class PerIndexChain:
    """The weight chain one index at a time in Enclosure arithmetic, as the
    engine computed it before its caches became float arrays; the batched
    engine must give the same floats."""

    def __init__(self, eng):
        self.eng = eng
        self.i_enc = [ZERO]
        self.sigma = []
        self.prefix = [ZERO]

    def quad_panel(self, a, b):
        c = self.eng.consts
        return Enclosure(*_kernels.quad_psi_negt(
            a, b, c.log_inv_D, self.eng.schedule.psi_power_coefficient,
            c.p, c.t))

    def ensure_integer_i(self, n):
        while len(self.i_enc) <= n:
            j = len(self.i_enc)
            if j == 1:
                self.i_enc.append(self.eng._psi1_negt * 1.0)
            else:
                self.i_enc.append(self.i_enc[-1]
                                  + self.quad_panel(float(j - 1), float(j)))

    def integral_I(self, x):
        if x <= 1.0:
            return self.eng._psi1_negt * x
        base = min(int(math.floor(x)), weights.UNIT_CACHE_CAP)
        self.ensure_integer_i(base)
        enc = self.i_enc[base]
        if x > float(base):
            enc = enc + self.quad_panel(float(base), x)
        return enc

    def g(self, x):
        return (self.integral_I(x) * (-self.eng.consts.k)).exp()

    def ensure_sigma(self, n):
        self.ensure_integer_i(min(n, weights.UNIT_CACHE_CAP))
        consts = self.eng.consts
        while len(self.sigma) < n:
            j = len(self.sigma) + 1
            psit = Enclosure.from_libm(
                math.pow(self.eng.schedule.psi(float(j)), consts.t), ulps=8)
            sig = self.g(float(j)) / (psit * consts.M)
            self.sigma.append(sig)
            self.prefix.append(self.prefix[-1] + sig)

    def tail(self, m):
        self.ensure_sigma(m + 1)
        integral = self.g(float(m + 1)) / self.eng.consts.mk
        upper = self.sigma[m] + integral
        return ZERO + Enclosure(integral.lo, upper.hi)


def _assert_same_chain(consts, n):
    eng = WeightEngine(consts)
    ref = PerIndexChain(eng)
    ref.ensure_sigma(n + 1)
    eng.reserve(n + 1)
    for j in range(1, n + 2):
        assert eng.integral_I(float(j)) == ref.integral_I(float(j)), j
        assert eng.g(float(j)) == ref.g(float(j)), j
        assert eng.sigma(j) == ref.sigma[j - 1], j
        assert eng.sigma_prefix(j) == ref.prefix[j], j
    for m in (0, 1, n // 2, n):
        assert eng.tail(m) == ref.tail(m), m
    assert eng.sigma_prefix(n) + eng.tail(n) == ref.prefix[n] + ref.tail(n)
    # the head as build reads it
    lo, hi = eng.sigma_bounds(n)
    assert list(map(Enclosure, lo, hi)) == ref.sigma[:n]


# perfbench's certify-cold hypothesis box
HYPOTHESIS_BOX = {"alpha": (0.3, 0.7), "s": (0.5, 1.0), "t": (0.5, 0.85),
                  "A": (0.3, 0.7), "C": (1.5, 3.0)}


def _box_constants(count):
    rng = random.Random(15)
    out = []
    for _ in range(count):
        h = {k: rng.uniform(*HYPOTHESIS_BOX[k])
             for k in sorted(HYPOTHESIS_BOX)}
        out.append(derive_constants(HypothesisConstants(**h))[0])
    return out


def test_batched_chain_matches_per_index_chain(ref_constants):
    _assert_same_chain(ref_constants, 1000)


@pytest.mark.parametrize("index", range(16))
def test_batched_chain_matches_on_box_hypotheses(index):
    _assert_same_chain(_box_constants(16)[index], 1000)


def test_batched_chain_matches_past_the_unit_cache(ref_constants, monkeypatch):
    # past the cap, I(j) is I(cap) plus one long panel [cap, j]
    monkeypatch.setattr(weights, "UNIT_CACHE_CAP", 64)
    _assert_same_chain(ref_constants, 150)
    eng = WeightEngine(ref_constants)
    ref = PerIndexChain(eng)
    for x in (63.5, 64.0, 64.25, 100.0, 151.0, 200.5):
        assert eng.integral_I(x) == ref.integral_I(x), x
        assert eng.g(x) == ref.g(x), x


def test_batches_give_the_same_floats(ref_constants):
    # the cache grown in pieces equals the cache grown at once
    whole = WeightEngine(ref_constants)
    whole.reserve(300)
    pieces = WeightEngine(ref_constants)
    for n in (1, 2, 3, 17, 121, 122, 300):
        pieces.reserve(n)
    for name in ("_i_lo", "_i_hi", "_g_lo", "_g_hi", "_sig_lo", "_sig_hi",
                 "_pre_lo", "_pre_hi"):
        assert getattr(pieces, name) == getattr(whole, name), name


@pytest.mark.parametrize("index", range(-1, 4))
def test_unit_panel_kernel_matches_quad_psi_negt(ref_constants, index,
                                                 monkeypatch):
    consts = ref_constants if index < 0 else _box_constants(4)[index]
    eng = WeightEngine(consts)
    args = (consts.log_inv_D, eng.schedule.psi_power_coefficient, consts.p,
            consts.t)
    bisected = []
    quad = _kernels.quad_psi_negt

    def recording(a, b, *rest):
        bisected.append(b)
        return quad(a, b, *rest)

    monkeypatch.setattr(_kernels, "quad_psi_negt", recording)
    lo, hi = _kernels.quad_unit_panels(2, 1000, *args)
    monkeypatch.undo()
    if index < 0:
        # the panels near j = 2 are too wide at depth 0 and are bisected
        assert bisected == [2.0, 3.0, 4.0, 5.0]
    for j in range(2, 1002):
        assert (lo[j - 2], hi[j - 2]) == _kernels.quad_psi_negt(
            j - 1.0, float(j), *args), j
    # a batch that starts mid-way gives the same pairs
    lo5, hi5 = _kernels.quad_unit_panels(7, 20, *args)
    assert lo5 == lo[5:25]
    assert hi5 == hi[5:25]
