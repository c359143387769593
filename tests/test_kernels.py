"""The numeric kernels: rule constants, envelope, and the quadrature bracket
against 40-digit values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakfn import _kernels
from peakfn._kernels import GAUSS7_W, GAUSS7_X, LOBATTO6_W, LOBATTO6_X

LID = 2.302585092994046      # log(1/0.1)
CA = 11.09035488895912       # log(1/A) * L / (p (p+1)) at p = 0.25, L = 5


def _full_rule(xs, ws):
    # mirror the non-negative half onto [-1, 0)
    nodes, weights = [], []
    for x, w in zip(xs, ws):
        nodes.append(x)
        weights.append(w)
        if x != 0.0:
            nodes.append(-x)
            weights.append(w)
    return nodes, weights


def test_rule_constants_sane():
    # each rule sums to 2 and is exact for monomials up to its degree
    for xs, ws, npts, degree in ((GAUSS7_X, GAUSS7_W, 7, 13),
                                 (LOBATTO6_X, LOBATTO6_W, 6, 9)):
        nodes, weights = _full_rule(xs, ws)
        assert len(nodes) == npts
        assert all(0.0 <= x <= 1.0 for x in xs) and all(w > 0 for w in ws)
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(w * x ** k for x, w in zip(nodes, weights))
            if k <= degree:
                assert got == pytest.approx(exact, abs=1e-15), (npts, k)
            else:
                assert abs(got - exact) > 1e-6, (npts, k)


def test_psi_val_flat_below_one():
    assert (_kernels.psi_val(0.5, LID, CA, 0.25)
            == _kernels.psi_val(1e-9, LID, CA, 0.25))
    assert _kernels.psi_val(1.0, LID, CA, 0.25) == pytest.approx(
        13.39293998195317, rel=1e-15)


def _mp_integral(a, b, lid, ca, p, t):
    """40-digit integral of psi^(-t) over [a, b], split at 1 and
    geometrically above it."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    lid, ca, p, t = (mp.mpf(v) for v in (lid, ca, p, t))

    def f(tau):
        tt = tau if tau > 1 else mp.mpf(1)
        return (lid * tt + ca * tt ** (1 + p)) ** (-t)

    pts = [mp.mpf(a)]
    if a < 1 < b:
        pts.append(mp.mpf(1))
    while pts[-1] >= 1 and pts[-1] * 2 < b:
        pts.append(pts[-1] * 2)
    pts.append(mp.mpf(b))
    return mp.quad(f, pts)


QUAD_CASES = [
    (0.0, 1.0, LID, CA, 0.25, 0.75),
    (1.0, 2.0, LID, CA, 0.25, 0.75),
    (5.0, 117.3, LID, CA, 0.25, 0.75),
    (3.0, 1e6, LID, CA, 0.25, 0.75),
    (0.5, 80.0, 1.6094379124341003, 23.025850929940457, 0.14, 0.86),
]


@pytest.mark.parametrize("a,b,lid,ca,p,t", QUAD_CASES)
def test_quad_error_bound_honest(a, b, lid, ca, p, t):
    lo, hi = _kernels.quad_psi_negt(a, b, lid, ca, p, t)
    truth = _mp_integral(a, b, lid, ca, p, t)
    assert lo <= truth <= hi
    assert hi - lo <= 1e-12 * float(truth)


@settings(max_examples=40, deadline=None)
@given(lid=st.floats(0.01, 50.0), ca=st.floats(0.01, 100.0),
       p=st.floats(0.01, 0.99), t=st.floats(0.5, 0.99),
       log_a=st.floats(0.0, 5.9), log_len=st.floats(-3.0, 6.0))
def test_quad_bracket_contains_truth(lid, ca, p, t, log_a, log_len):
    a = 10.0 ** log_a
    b = min(a + 10.0 ** log_len, 1e6)
    lo, hi = _kernels.quad_psi_negt(a, b, lid, ca, p, t)
    assert lo <= _mp_integral(a, b, lid, ca, p, t) <= hi


def test_quad_integrates_power_exactly():
    # psi is flat on [0, 1], where both rules integrate psi(1)^-t exactly
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    lo, hi = _kernels.quad_psi_negt(0.0, 1.0, LID, CA, 0.25, 0.75)
    closed = (mp.mpf(LID) + mp.mpf(CA)) ** mp.mpf(-0.75)
    assert lo <= closed <= hi
    assert hi - lo <= 1e-14 * lo
