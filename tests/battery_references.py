"""The certificate battery's per-index passes as the package computed them
before they became float-list passes or closed-form proofs: one Enclosure
chain or scalar query per index m.  They are the references whose records
and floats the package's passes must give bit for bit, and the sweeps and
rules that the closed-form records of claim 2 and the shrink inequality
must agree with."""

import math

from peakfn import _kernels
from peakfn import hypothesis as hyp
from peakfn.hypothesis import GUARD, first_shell_margin, strictly_less


def check_claim2(engine, m_range=(2, 120)):
    """Claim 2 swept over m_range through tail(m) and sigma_prefix(m-1):
    the record certificates.check_claim2 gave before its all-m proof."""
    lo, hi = int(m_range[0]), int(m_range[1])
    consts = engine.consts
    sched = engine.schedule
    min_rel = math.inf
    argmin = 0
    ok = True
    for m in range(lo, hi + 1):
        eps_pow = math.exp(-consts.s * sched.log_inv_eps(m - 1))
        rhs = eps_pow * engine.sigma_prefix(m - 1).hi
        lhs = consts.mk * engine.tail(m).lo
        r = hyp.rel_margin(rhs, lhs)
        if r < min_rel:
            min_rel = r
            argmin = m
        if not hyp.strictly_less(rhs, lhs):
            ok = False
    return {
        "name": "claim-2",
        "range": f"m in [{lo}, {hi}]",
        "min_rel_margin": min_rel,
        "argmin_m": argmin,
        "guard": GUARD,
        "passed": bool(ok),
        "details": {"sides": "tail at enclosure.lo, head at enclosure.hi"},
    }


def log_inv_radius_closed(sched, m):
    """The closed form of log(1/r_m) at one m, from S_{m-1} and a T_{m-1}
    summed here from j = 1."""
    if m == 1:
        return float(m) * sched.consts.log_inv_D
    p = sched.consts.p
    s = sched.pow_sum(m - 1)
    tsum = _kernels.pow_sums(m - 1, p)[-1]
    weighted = float(m) * s - tsum
    return (float(m) * sched.consts.log_inv_D
            + sched.consts.log_inv_A * ((m - 1.0) + weighted))


def radius_recursion_closed_form(sched, m_equiv=200):
    """The radius-recursion-closed-form record of
    certificates.check_schedule_identities, one query per m."""
    worst_rel = 0.0
    arg = 1
    for m in range(1, m_equiv + 1):
        a = sched.log_inv_radius(m)
        b = log_inv_radius_closed(sched, m)
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        if rel > worst_rel:
            worst_rel = rel
            arg = m
    return {
        "name": "radius-recursion-closed-form",
        "range": f"m in [1, {m_equiv}]",
        "max_rel_difference": worst_rel,
        "tolerance": 1e-9,
        "passed": bool(worst_rel <= 1e-9),
        "details": {"argmax_m": arg},
    }


def eps_sweep_passed(alpha, s, t, A, M, p, q, m_end):
    """The shrink inequality checked at each m in [3, m_end] with the guard
    band, on the floats of hypothesis.eps_exponent_sides."""
    c1 = (1.0 + M * t) * (1.0 - alpha) / (2.0 * M * (1.0 - t))
    c2 = math.log(1.0 / A) * (s / p)
    base = math.pow(2.0, 1.0 - q)
    for m in range(3, m_end + 1):
        lhs = c1 * (math.pow(m + 1.0, 1.0 - q) - base)
        rhs = c2 * (math.pow(m - 1.0, p) - 1.0)
        if not strictly_less(lhs, rhs):
            return False
    return True


def eps_condition_passed(alpha, s, t, A, M, p, q, m_max=120):
    """The shrink inequality's verdict as the package gave it before its
    all-m proof: the per-m sweep on [3, m_max], then 1 - q > GUARD and
    1 - q < p, the slope test at max(m_max, m*) and d(m_max) > 0."""
    if not (eps_sweep_passed(alpha, s, t, A, M, p, q, m_max)
            and 1.0 - q > GUARD and strictly_less(1.0 - q, p)):
        return False
    c1 = (1.0 + M * t) * (1.0 - alpha) / (2.0 * M * (1.0 - t))
    c2 = math.log(1.0 / A) * (s / p)
    m_star = (q + 1.0 - p) / (p - (1.0 - q))
    _, slope_ok = hyp.slope_test(c1 * (1.0 - q), c2 * p, q, p,
                                 max(float(m_max), m_star), 1.0)
    d = c2 * math.pow(m_max - 1.0, p) - c1 * math.pow(m_max + 1.0, 1.0 - q)
    return slope_ok and d > 0.0


def choose_D(alpha, s, C):
    """hypothesis.choose_D with all 200 bisection steps."""
    def shell_ok(d):
        lhs = (1.0 - alpha) / 2.0 * math.pow(d, (1.0 - alpha) / C)
        return strictly_less(math.pow(d, s), lhs)

    lo, hi = 1e-15, 1.0 - 1e-15
    if first_shell_margin(alpha, s, C, hi) >= 0.0:
        d_eq = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if first_shell_margin(alpha, s, C, mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        d_eq = lo
    if d_eq > 0.1 and shell_ok(0.1):
        return 0.1
    d = 0.5 * d_eq
    while d > 0.0 and not shell_ok(d):
        d *= 0.5
    return d


def quad_psi_negt(a, b, lid, ca, p, t):
    """_kernels.quad_psi_negt with its integrand through psi_val."""
    return _kernels.bracket_quad(
        lambda s: math.pow(_kernels.psi_val(s, lid, ca, p), -t), a, b)


def quad_unit_panels(first, count, lid, ca, p, t):
    """_kernels.quad_unit_panels as one _kernels._rules call per panel on
    the integrand as a closure, as the package computed it before the
    panel sums were written out with the node offsets as constants."""
    pw = math.pow
    e = 1.0 + p

    def f(s):
        return pw(s * lid + ca * pw(s, e), -t)

    pad = 3 * _kernels._U   # one accepted panel
    lo, hi = [], []
    pb = first - 1.0
    f_b = f(pb)
    for j in range(first, first + count):
        pa, pb = pb, float(j)
        f_a, f_b = f_b, f(pb)
        gauss, lobatto = _kernels._rules(f, pa, pb, f_a, f_b)
        if lobatto - gauss <= _kernels.REL_WIDTH * gauss:
            rho = _kernels._rho(pa, pb)
            lo.append(gauss * (1.0 - rho) * (1.0 - pad))
            hi.append(lobatto * (1.0 + rho) * (1.0 + pad))
        else:
            a, b = _kernels.quad_psi_negt(pa, pb, lid, ca, p, t)
            lo.append(a)
            hi.append(b)
    return lo, hi
