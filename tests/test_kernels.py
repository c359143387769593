"""The numeric kernels: quadrature rule, envelope, and error-bound honesty."""

import math

import pytest

from peakfn import _kernels
from peakfn._kernels import GK_WG, GK_WK, GK_X

LID = 2.302585092994046      # log(1/0.1)
CA = 11.09035488895912       # log(1/A) * L / (p (p+1)) at p = 0.25, L = 5


def test_rule_constants_sane():
    assert len(GK_X) == 8 and len(GK_WK) == 8 and len(GK_WG) == 4
    # Kronrod weights integrate the constant 1 over [-1, 1]
    total = GK_WK[7] + 2.0 * sum(GK_WK[:7])
    assert total == pytest.approx(2.0, abs=1e-15)
    gauss = GK_WG[3] + 2.0 * sum(GK_WG[:3])
    assert gauss == pytest.approx(2.0, abs=1e-15)
    assert all(0.0 < x < 1.0 for x in GK_X[:7]) and GK_X[7] == 0.0


def test_psi_val_flat_below_one():
    assert (_kernels.psi_val(0.5, LID, CA, 0.25)
            == _kernels.psi_val(1e-9, LID, CA, 0.25))
    assert _kernels.psi_val(1.0, LID, CA, 0.25) == pytest.approx(
        13.39293998195317, rel=1e-15)


QUAD_CASES = [
    (0.0, 1.0, LID, CA, 0.25, 0.75),
    (1.0, 2.0, LID, CA, 0.25, 0.75),
    (5.0, 117.3, LID, CA, 0.25, 0.75),
    (3.0, 1e6, LID, CA, 0.25, 0.75),
    (0.5, 80.0, 1.6094379124341003, 23.025850929940457, 0.14, 0.86),
]


@pytest.mark.parametrize("a,b,lid,ca,p,t", QUAD_CASES)
def test_quad_error_bound_honest(a, b, lid, ca, p, t):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    val, err = _kernels.quad_psi_negt(a, b, lid, ca, p, t, 1e-10)

    def psi(tau):
        tt = tau if tau > 1 else mp.mpf(1)
        return lid * tt + ca * tt ** (1 + mp.mpf(p))

    truth = float(mp.quad(lambda u: psi(u) ** (-mp.mpf(t)), [a, 1, b]
                          if a < 1 < b else [a, b]))
    assert abs(val - truth) <= 10.0 * err + 1e-13 * abs(truth)


def test_quad_integrates_power_exactly():
    # integrand reduces to psi(1)^-t on [0, 1]: closed form to compare with
    val, err = _kernels.quad_psi_negt(0.0, 1.0, LID, CA, 0.25, 0.75, 1e-12)
    closed = math.pow(13.39293998195317, -0.75)
    assert val == pytest.approx(closed, rel=1e-14)
    assert err <= 1e-12 * abs(val) * 10.0 + 1e-300
