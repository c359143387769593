"""Numeric kernels: bracket quadrature and certificate sweeps."""

import math

# Gauss-Legendre 7-point abscissae and weights on [-1, 1], non-negative half.
GAUSS7_X = (0.9491079123427585, 0.7415311855993945, 0.4058451513773972, 0.0)
GAUSS7_W = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)
# Gauss-Lobatto 6-point abscissae and weights on [-1, 1], non-negative half.
LOBATTO6_X = (1.0, 0.7650553239294647, 0.2852315164806451)
LOBATTO6_W = (0.06666666666666667, 0.378474956297847, 0.5548583770354863)

# a panel is accepted once (Lobatto - Gauss) <= REL_WIDTH * Gauss
REL_WIDTH = 1e-13
_MAX_DEPTH = 48
_U = 2.0 ** -53


def psi_val(tau: float, lid: float, ca: float, p: float) -> float:
    """Growth envelope tau*log(1/D) + ca*tau^(1+p), held flat below tau=1."""
    if tau < 1.0:
        tau = 1.0
    return tau * lid + ca * math.pow(tau, 1.0 + p)


def bracket_quad(f, a: float, b: float) -> tuple[float, float]:
    """Bracket (lo, hi) of the integral of f over [a, b].

    Meant for f >= 0 whose derivatives of order 10 and 14 are >= 0 on each
    side of tau = 1 (a completely monotone f qualifies).  The signed error
    terms of the rules then make the 7-point Gauss sum of every panel a
    lower bound and the 6-point Lobatto sum an upper bound.  A panel that
    straddles 1 is split there; panels are bisected, left first, until
    Lobatto - Gauss <= REL_WIDTH * Gauss, and a panel at depth _MAX_DEPTH
    is accepted with the bracket it has, which is still valid.

    Rounding, with u = 2^-53: suppose f(tau) is computed within
    (6 + 2 ln max(tau, 1)) u relative and |f'(tau)| <= 2 f(tau)/max(tau, 1).
    The computed nodes lie within 4 u b of the rule's, which moves f by at
    most 8 u b/max(a, 1) relative, and the rounded rule constants and
    positive sums add at most 8 u.  So each end of a panel [a, b] is pushed
    out by rho = (32 + 2 ln max(b, 1) + 8 b/max(a, 1)) u, which leaves slack
    for second-order terms and for the multiply by 1 -+ rho.  Adding n
    positive panel ends loses at most (n - 1) u relative, so the totals are
    pushed out by (n + 2) u.
    """
    if b <= a:
        return 0.0, 0.0
    # explicit stack, left half processed first
    stack = [(1.0, b, 0), (a, 1.0, 0)] if a < 1.0 < b else [(a, b, 0)]
    lo_sum = 0.0
    hi_sum = 0.0
    panels = 0
    while stack:
        pa, pb, depth = stack.pop()
        gauss, lobatto = _rules(f, pa, pb, f(pa), f(pb))
        if lobatto - gauss <= REL_WIDTH * gauss or depth >= _MAX_DEPTH:
            rho = _rho(max(pa, 1.0), max(pb, 1.0))
            lo_sum += gauss * (1.0 - rho)
            hi_sum += lobatto * (1.0 + rho)
            panels += 1
        else:
            c = 0.5 * (pa + pb)
            stack.append((c, pb, depth + 1))
            stack.append((pa, c, depth + 1))
    pad = (panels + 2) * _U
    return lo_sum * (1.0 - pad), hi_sum * (1.0 + pad)


def _rules(f, a: float, b: float, fa: float, fb: float) -> tuple:
    """The 7-point Gauss and 6-point Lobatto sums of f over [a, b], given
    fa = f(a) and fb = f(b)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    gauss = GAUSS7_W[3] * f(c)
    for i in range(3):
        dx = h * GAUSS7_X[i]
        gauss += GAUSS7_W[i] * (f(c - dx) + f(c + dx))
    lobatto = LOBATTO6_W[0] * (fa + fb)
    for i in (1, 2):
        dx = h * LOBATTO6_X[i]
        lobatto += LOBATTO6_W[i] * (f(c - dx) + f(c + dx))
    return gauss * h, lobatto * h


def _rho(a1: float, b1: float) -> float:
    """bracket_quad's relative push of a panel's ends, a1 = max(a, 1) and
    b1 = max(b, 1)."""
    return (32.0 + 2.0 * math.log(b1) + 8.0 * b1 / a1) * _U


def quad_psi_negt(a, b, lid, ca, p, t):
    """Bracket (lo, hi) of the integral of psi(s)^(-t) over [a, b].

    For tau >= 1, psi^(-t) = tau^(-t) * (lid + ca*tau^p)^(-t) is completely
    monotone (a completely monotone function times one of a Bernstein
    function), and below 1 it is constant, so bracket_quad applies.  Its
    rounding premises hold: with libm pow within 1 ulp and 1+p rounded,
    pow(psi_val(tau), -t) is within (4 + 2 ln max(tau, 1)) u of
    psi(tau)^(-t), and |d/dtau psi^(-t)| <= t (1+p) psi^(-t)/tau.
    The integrand is pow(psi_val(s), -t) with psi_val inlined.
    """
    pw = math.pow
    e = 1.0 + p

    def f(s):
        if s < 1.0:
            s = 1.0
        return pw(s * lid + ca * pw(s, e), -t)

    return bracket_quad(f, a, b)


def quad_unit_panels(first: int, count: int, lid, ca, p, t):
    """quad_psi_negt(j - 1, j, lid, ca, p, t) for j = first..first+count-1,
    as two float lists (lo, hi); first >= 2.

    The same floats, with each shared panel end evaluated once: a panel
    whose depth-0 bracket is narrow enough is bracket_quad's only panel,
    and one too wide goes to quad_psi_negt, which bisects it.  A unit
    panel has half-width 0.5 and centre j - 0.5, both exact, so its node
    offsets are the constants 0.5 * GAUSS7_X[i] and 0.5 * LOBATTO6_X[i],
    and _rules' sums are written out in _rules' order.  Every node is
    >= 1, where psi_val does not clamp, so the integrand
    pow(s * lid + ca * pow(s, 1 + p), -t) is inlined at each node.
    """
    pw, log = math.pow, math.log
    e, nt = 1.0 + p, -t
    g0, g1, g2 = (0.5 * x for x in GAUSS7_X[:3])
    l1, l2 = (0.5 * x for x in LOBATTO6_X[1:])
    gw0, gw1, gw2, gw3 = GAUSS7_W
    lw0, lw1, lw2 = LOBATTO6_W
    rel, u = REL_WIDTH, _U
    pad = 3 * _U   # one accepted panel
    lo, hi = [], []
    pb = first - 1.0
    f_b = pw(pb * lid + ca * pw(pb, e), nt)
    for j in range(first, first + count):
        pa, pb = pb, float(j)
        f_a = f_b
        f_b = pw(pb * lid + ca * pw(pb, e), nt)
        c = pb - 0.5
        x, y = c - g0, c + g0
        gauss = gw3 * pw(c * lid + ca * pw(c, e), nt)
        gauss += gw0 * (pw(x * lid + ca * pw(x, e), nt)
                        + pw(y * lid + ca * pw(y, e), nt))
        x, y = c - g1, c + g1
        gauss += gw1 * (pw(x * lid + ca * pw(x, e), nt)
                        + pw(y * lid + ca * pw(y, e), nt))
        x, y = c - g2, c + g2
        gauss += gw2 * (pw(x * lid + ca * pw(x, e), nt)
                        + pw(y * lid + ca * pw(y, e), nt))
        lobatto = lw0 * (f_a + f_b)
        x, y = c - l1, c + l1
        lobatto += lw1 * (pw(x * lid + ca * pw(x, e), nt)
                          + pw(y * lid + ca * pw(y, e), nt))
        x, y = c - l2, c + l2
        lobatto += lw2 * (pw(x * lid + ca * pw(x, e), nt)
                          + pw(y * lid + ca * pw(y, e), nt))
        gauss *= 0.5
        lobatto *= 0.5
        if lobatto - gauss <= rel * gauss:
            # _rho(pa, pb), inlined
            rho = (32.0 + 2.0 * log(pb) + 8.0 * pb / pa) * u
            lo.append(gauss * (1.0 - rho) * (1.0 - pad))
            hi.append(lobatto * (1.0 + rho) * (1.0 + pad))
        else:
            a, b = quad_psi_negt(pa, pb, lid, ca, p, t)
            lo.append(a)
            hi.append(b)
    return lo, hi


def pow_sums(n: int, e: float, done: int = 0, s: float = 0.0):
    """Prefix sums S_k = sum_{j<=k} j^e for k = done+1..done+n (a list of
    length n), continuing from s = S_done.  The sum is sequential, so a
    list extended this way holds the floats of one computed from k = 1."""
    out = []
    for j in range(done + 1, done + n + 1):
        s += math.pow(float(j), e)
        out.append(s)
    return out


def bracket_sweep(m_max: int, p: float):
    """Worst relative margins of the two power-sum sandwich brackets.

    For each m in [2, m_max], with S1 = sum_{j<m} j^(p-1) and
    S2 = sum_{j<m} j^p, checks

        (m^p - 1)/p  <  S1  <  (m^p - 1)/p + (1 - m^(p-1))
        (m^(p+1) - 1)/(p+1) + (1 - m^p)  <  S2  <  (m^(p+1) - 1)/(p+1)

    Returns (r1lo, m1lo, r1hi, m1hi, r2lo, m2lo, r2hi, m2hi): the minimum
    relative margin of each of the four inequalities and its argmin m.  The
    run uses the all-m proof in hypothesis.bracket_certificate; the tests
    keep this sweep as its reference.
    """
    s1 = 1.0
    s2 = 1.0
    r = [math.inf, 0, math.inf, 0, math.inf, 0, math.inf, 0]
    for m in range(2, m_max + 1):
        mf = float(m)
        mp = math.pow(mf, p)
        low1 = (mp - 1.0) / p
        high1 = low1 + (1.0 - math.pow(mf, p - 1.0))
        high2 = (math.pow(mf, p + 1.0) - 1.0) / (p + 1.0)
        low2 = high2 + (1.0 - mp)
        pairs = ((s1 - low1, max(abs(s1), abs(low1))),
                 (high1 - s1, max(abs(s1), abs(high1))),
                 (s2 - low2, max(abs(s2), abs(low2))),
                 (high2 - s2, max(abs(s2), abs(high2))))
        for idx in range(4):
            margin, scale = pairs[idx]
            if scale == 0.0:
                scale = 1.0
            rel = margin / scale
            if rel < r[2 * idx]:
                r[2 * idx] = rel
                r[2 * idx + 1] = m
        s1 += math.pow(mf, p - 1.0)
        s2 += mp
    return tuple(r)


def choose_l_sweep(m_max: int, p: float, big_l: float):
    """Worst relative margin of the linear-vs-power comparison constant.

    Checks 2(m-1) + (m^(1+p) - (p+1)m + p)/(p(p+1)) <= L*m^(1+p)/(p(p+1))
    over m in [1, m_max]; returns (min_rel_margin, argmin_m).  The run
    uses the closed-form bound proved in hypothesis.choose_L; the tests
    keep this sweep as its reference.
    """
    denom = p * (p + 1.0)
    best = math.inf
    arg = 0
    for m in range(1, m_max + 1):
        mf = float(m)
        m1p = math.pow(mf, 1.0 + p)
        lhs = 2.0 * (mf - 1.0) + (m1p - (p + 1.0) * mf + p) / denom
        rhs = big_l * m1p / denom
        scale = max(abs(lhs), abs(rhs))
        if scale == 0.0:
            scale = 1.0
        rel = (rhs - lhs) / scale
        if rel < best:
            best = rel
            arg = m
    return best, arg


def radius_bound_sweep(m_max: int, p: float, lid: float, lia: float, big_l: float):
    """Worst relative margin of the radius-growth majorant.

    Runs the log(1/r_m) recursion and checks
    log(1/r_m) <= m*lid + lia*L*m^(1+p)/(p(p+1)) for m in [1, m_max].
    Returns (min_rel_margin, argmin_m).  The run certifies the bound for
    every m by the radius-bound proof in certificates; the tests keep this
    sweep as its reference.
    """
    ca = lia * big_l / (p * (p + 1.0))
    best = math.inf
    arg = 0
    lir = lid
    s = 0.0  # sum_{j<=m-1} j^(p-1)
    for m in range(1, m_max + 1):
        mf = float(m)
        bound = mf * lid + ca * math.pow(mf, 1.0 + p)
        scale = max(abs(lir), abs(bound))
        if scale == 0.0:
            scale = 1.0
        rel = (bound - lir) / scale
        if rel < best:
            best = rel
            arg = m
        # advance recursion: log(1/r_{m+1}) = lia + lir_m + log(1/eps_m)
        s += math.pow(mf, p - 1.0)
        log_inv_eps = lid + s * lia
        lir = lia + lir + log_inv_eps
    return best, arg
