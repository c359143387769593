"""Numeric kernels: Gauss-Kronrod quadrature and certificate sweeps."""

import math

# Gauss-Kronrod 7-15 abscissae and weights on [-1, 1] (QUADPACK dqk15).
GK_X = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789848,
    0.0,
)
GK_WK = (
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
GK_WG = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)

_MAX_DEPTH = 48


def psi_val(tau: float, lid: float, ca: float, p: float) -> float:
    """Growth envelope tau*log(1/D) + ca*tau^(1+p), held flat below tau=1."""
    if tau < 1.0:
        tau = 1.0
    return tau * lid + ca * math.pow(tau, 1.0 + p)


def adaptive_quad(f, a: float, b: float, rel_tol: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod 7-15 integral of a smooth callable over [a, b].

    Returns (value, error_bound).  Deterministic left-first bisection; a
    panel is accepted when its |K-G| is within rel_tol of its value or at
    depth _MAX_DEPTH, and the error bound is the sum of accepted |K-G|.
    """
    if b <= a:
        return 0.0, 0.0
    # explicit stack, left half processed first (matches recursion order)
    stack = [(a, b, 0)]
    total = 0.0
    err = 0.0
    while stack:
        lo, hi, depth = stack.pop()
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        fc = f(c)
        resk = fc * GK_WK[7]
        resg = fc * GK_WG[3]
        for i in range(7):
            dx = h * GK_X[i]
            f1 = f(c - dx)
            f2 = f(c + dx)
            resk += GK_WK[i] * (f1 + f2)
            if i == 1 or i == 3 or i == 5:
                resg += GK_WG[i // 2] * (f1 + f2)
        val = resk * h
        e = abs((resk - resg) * h)
        if e <= rel_tol * abs(val) or depth >= _MAX_DEPTH:
            total += val
            err += e
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return total, err


def quad_psi_negt(a, b, lid, ca, p, t, rel_tol):
    """Adaptive integral of psi(s)^(-t) over [a, b]; see adaptive_quad."""
    return adaptive_quad(lambda s: math.pow(psi_val(s, lid, ca, p), -t),
                         a, b, rel_tol)


def pow_sums(n: int, e: float):
    """Prefix sums S_k = sum_{j<=k} j^e for k = 1..n (list of length n)."""
    out = []
    s = 0.0
    for j in range(1, n + 1):
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
