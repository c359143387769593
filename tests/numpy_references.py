"""The numpy versions of the unit-panel kernel, the weight batch and the
batched evaluation, as the package computed them before it dropped numpy:
the references whose floats the plain-Python code must give bit for bit.

Each keeps numpy to correctly rounded + - * /, hypot and exact operations
(comparisons, selections, nextafter), and every pow, exp and log a libm
call per element, as the package did.  The family values come from the
family's own hook, which tests/test_families.py pins to the scalar
closures of tests/scalar_barriers.py.
"""

import math

import numpy as np

from peakfn import _kernels
from peakfn.enclosure import Enclosure
from peakfn.hypothesis import GUARD
from peakfn.series import BARRIER_EVAL_REL, CaseLabel, EvalResult
from peakfn.weights import UNIT_CACHE_CAP, WeightEngine

_U = 2.0 ** -53
_TINY = 2.0 ** -1074


def down(x):
    return np.nextafter(np.nextafter(x, -math.inf), -math.inf)


def up(x):
    return np.nextafter(np.nextafter(x, math.inf), math.inf)


def widen_ends(lo, hi, delta):
    return down(lo - delta), up(hi + delta)


def div_ends(lo, hi, den):
    cands = (lo / den.lo, lo / den.hi, hi / den.lo, hi / den.hi)
    return down(np.minimum.reduce(cands)), up(np.maximum.reduce(cands))


def abs_ends(lo, hi):
    mag_lo, mag_hi = np.abs(lo), np.abs(hi)
    return (np.where((lo <= 0.0) & (0.0 <= hi), 0.0,
                     np.minimum(mag_lo, mag_hi)),
            np.maximum(mag_lo, mag_hi))


def sum_up(terms):
    return math.nextafter(math.fsum(terms), math.inf)


def quad_unit_panels(first, count, lid, ca, p, t):
    """_kernels.quad_unit_panels over float arrays."""
    ends = np.arange(first - 1, first + count, dtype=float)
    pa, pb = ends[:-1], ends[1:]
    c = 0.5 * (pa + pb)
    h = 0.5 * (pb - pa)
    gdx = [h * x for x in _kernels.GAUSS7_X[:3]]
    ldx = [h * x for x in _kernels.LOBATTO6_X[1:]]
    nodes = np.concatenate([ends, c] + [c - dx for dx in gdx + ldx]
                           + [c + dx for dx in gdx + ldx])
    pw = math.pow
    e = 1.0 + p
    f = np.array([pw(s * lid + ca * pw(s, e), -t) for s in nodes.tolist()])
    f_end = f[:count + 1]
    f_c, f_minus, f_plus = np.split(f[count + 1:], [count, 6 * count])
    f_minus = f_minus.reshape(5, count)
    f_plus = f_plus.reshape(5, count)
    gw, lw = _kernels.GAUSS7_W, _kernels.LOBATTO6_W
    gauss = gw[3] * f_c
    for i in range(3):
        gauss = gauss + gw[i] * (f_minus[i] + f_plus[i])
    lobatto = lw[0] * (f_end[:-1] + f_end[1:])
    for i in (1, 2):
        lobatto = lobatto + lw[i] * (f_minus[i + 2] + f_plus[i + 2])
    gauss = gauss * h
    lobatto = lobatto * h
    log_b = np.array([math.log(b) for b in pb.tolist()])
    rho = (32.0 + 2.0 * log_b + 8.0 * pb / pa) * _U
    pad = 3 * _U
    lo = gauss * (1.0 - rho) * (1.0 - pad)
    hi = lobatto * (1.0 + rho) * (1.0 + pad)
    wide = ~(lobatto - gauss <= _kernels.REL_WIDTH * gauss)
    for i in np.flatnonzero(wide).tolist():
        j = first + i
        lo[i], hi[i] = _kernels.quad_psi_negt(j - 1.0, float(j), lid, ca, p, t)
    return lo, hi


class NumpyWeightEngine(WeightEngine):
    """WeightEngine whose caches grow by the numpy weight batch."""

    def _integer_i(self, j0, n):
        i_lo, i_hi = self._i_lo, self._i_hi
        lo, hi = i_lo[-1], i_hi[-1]
        out_lo, out_hi = [], []
        nx, inf = math.nextafter, math.inf
        if j0 == 1:
            first = self._psi1_negt * 1.0
            lo, hi = first.lo, first.hi
            out_lo.append(lo)
            out_hi.append(hi)
            j0 = 2
        cap = UNIT_CACHE_CAP
        if j0 <= min(n, cap):
            q_lo, q_hi = quad_unit_panels(
                j0, min(n, cap) - j0 + 1, self._lid, self._ca,
                self.consts.p, self.consts.t)
            for a, b in zip(q_lo.tolist(), q_hi.tolist()):
                lo = nx(nx(lo + a, -inf), -inf)
                hi = nx(nx(hi + b, inf), inf)
                out_lo.append(lo)
                out_hi.append(hi)
        if n > cap:
            base = Enclosure((i_lo + out_lo)[cap], (i_hi + out_hi)[cap])
            for j in range(max(j0, cap + 1), n + 1):
                enc = base + self._quad_panel(float(cap), float(j))
                out_lo.append(enc.lo)
                out_hi.append(enc.hi)
        return out_lo, out_hi

    def reserve(self, n):
        done = len(self._sig_lo)
        if n <= done:
            return
        i_lo, i_hi = self._integer_i(done + 1, n)
        lo, hi = np.array(i_lo), np.array(i_hi)
        neg_k = -self.consts.k
        a, b = lo * neg_k, hi * neg_k
        ex = math.exp
        u_lo, u_hi = down(np.minimum(a, b)), up(np.maximum(a, b))
        g_lo = down(np.array([ex(v) for v in u_lo.tolist()]))
        g_hi = up(np.array([ex(v) for v in u_hi.tolist()]))
        psi, pw = _kernels.psi_val, math.pow
        lid, ca, p, t = self._lid, self._ca, self.consts.p, self.consts.t
        psit = np.array([pw(psi(float(j), lid, ca, p), t)
                         for j in range(done + 1, n + 1)])
        p_lo, p_hi = psit, psit
        for _ in range(8):
            p_lo = np.nextafter(p_lo, -math.inf)
            p_hi = np.nextafter(p_hi, math.inf)
        m_const = self.consts.M
        a, b = p_lo * m_const, p_hi * m_const
        d_lo, d_hi = down(np.minimum(a, b)), up(np.maximum(a, b))
        quot = (g_lo / d_lo, g_lo / d_hi, g_hi / d_lo, g_hi / d_hi)
        s_lo = down(np.minimum.reduce(quot)).tolist()
        s_hi = up(np.maximum.reduce(quot)).tolist()
        self._i_lo += i_lo
        self._i_hi += i_hi
        self._g_lo += g_lo.tolist()
        self._g_hi += g_hi.tolist()
        self._sig_lo += s_lo
        self._sig_hi += s_hi
        nx, inf = math.nextafter, math.inf
        plo, phi = self._pre_lo[-1], self._pre_hi[-1]
        for a, b in zip(s_lo, s_hi):
            plo = nx(nx(plo + a, -inf), -inf)
            phi = nx(nx(phi + b, inf), inf)
            self._pre_lo.append(plo)
            self._pre_hi.append(phi)


def _dots(lo, hi, vals, segments):
    pos = vals >= 0.0
    p_lo = np.where(pos, lo, hi) * vals
    p_hi = np.where(pos, hi, lo) * vals
    mags = np.maximum(np.abs(p_lo), np.abs(p_hi))
    mag = np.array([sum_up(mags[a:b].tolist()) for a, b in segments])
    nonzero = np.add.reduceat((vals != 0.0).astype(np.intp),
                              [a for a, _ in segments])
    rad = np.nextafter(3.0 * _U * mag + _TINY * nonzero, math.inf)
    return widen_ends(
        np.array([math.fsum(p_lo[a:b].tolist()) for a, b in segments]),
        np.array([math.fsum(p_hi[a:b].tolist()) for a, b in segments]), rad)


def evaluate_many(ser, points):
    """PeakSeries.evaluate_many as one numpy batch of every point."""
    n, consts = ser.n_terms, ser.consts
    batch = []
    for delta in points:
        delta = ser.family.domain.require(delta)
        m = ser.split_index(delta)
        k, phi = n, None
        if 0 < m < n:
            phi = ser.family.off_ball_bound(delta, ser.log_inv_r[m])
            if phi <= consts.alpha:
                k = m
        batch.append((delta, m, k, phi))
    counts = np.array([k for _, _, k, _ in batch])
    ends = np.cumsum(counts)
    starts = ends - counts
    which = np.repeat(np.arange(len(batch)), counts)
    j = np.arange(ends[-1]) - starts[which]
    # f_1..f_k at each point from one call of the one-point hook
    vals = np.array([v for d, _, k, _ in batch
                     for v in ser.family.values(d, ser.log_inv_r[:k])],
                    dtype=complex)
    sig_lo = np.array(ser.sigma_lo)[j]
    sig_hi = np.array(ser.sigma_hi)[j]
    mods = np.hypot(vals.real, vals.imag)
    segments = list(zip(starts.tolist(), ends.tolist()))
    re = _dots(sig_lo, sig_hi, vals.real, segments)
    im = _dots(sig_lo, sig_hi, vals.imag, segments)
    pad_terms = sig_hi * mods * BARRIER_EVAL_REL
    pad = np.array([sum_up(pad_terms[a:b].tolist()) for a, b in segments])
    lo, hi = widen_ends(np.array([re[0], im[0]]), np.array([re[1], im[1]]),
                        pad)
    thresholds = np.array(ser.thresholds)
    clears = np.searchsorted(-thresholds, -mods)
    member = np.minimum.reduceat(np.maximum(clears, j), starts) + 1
    lowest = np.minimum.reduceat(mods, starts)
    alpha_tol = consts.alpha + GUARD * max(1.0, consts.alpha)
    off = ser.family.exact_off_value
    ratio = consts.C / consts.M
    cases = []
    ceiling = np.zeros(len(batch))
    add_lo, add_hi = np.zeros((2, len(batch))), np.zeros((2, len(batch)))
    charge = np.zeros(len(batch))
    for i, (_, m, k, phi) in enumerate(batch):
        member_m = int(member[i])
        if m == 0:
            cases.append(None)
        elif member_m <= n:
            cases.append(CaseLabel(
                "in-W1" if member_m == 1 else "in-Wm-not-before", member_m))
        elif k < n or lowest[i] <= alpha_tol:
            cases.append(CaseLabel("outside-all-W"))
        else:
            cases.append(CaseLabel("head-exhausted"))
        if m > n + 1:
            ser.engine.reserve(m)
            ceiling[i] = sum_up([ratio * ser.engine.g(jj).hi
                                 for jj in range(n + 1, m)])
        if k < n:
            far_tail = ser._mass_after(k)
        elif m <= n + 1:
            far_tail = ser.tail_after_head
        else:
            far_tail = ser.engine.tail(m - 1)
        if m == 0:
            add_lo[0, i], add_hi[0, i] = far_tail.lo, far_tail.hi
        elif off is not None:
            far_tail = far_tail * off
            add_lo[0, i], add_hi[0, i] = far_tail.lo, far_tail.hi
        elif k < n:
            bound = phi * far_tail.hi
            charge[i] = sum_up([bound, bound * BARRIER_EVAL_REL])
        else:
            charge[i] = consts.alpha * far_tail.hi
    beyond = np.array([m > n + 1 for _, m, _, _ in batch])
    widened = widen_ends(lo, hi, ceiling)
    lo = np.where(beyond, widened[0], lo)
    hi = np.where(beyond, widened[1], hi)
    added = np.array([m == 0 or off is not None for _, m, _, _ in batch])
    widened = widen_ends(lo, hi, charge)
    lo = np.where(added, down(lo + add_lo), widened[0])
    hi = np.where(added, up(hi + add_hi), widened[1])
    lo, hi = div_ends(lo, hi, ser.normalizer)
    mag_lo, mag_hi = abs_ends(lo, hi)
    abs_lo = down(np.maximum(0.0, list(map(math.hypot, *mag_lo.tolist()))))
    abs_hi = up(np.array(list(map(math.hypot, *mag_hi.tolist()))))
    return [(delta, m, (rl, rh, il, ih), (al, ah), case)
            for (delta, m, _, _), rl, il, rh, ih, al, ah, case in zip(
                batch, *lo.tolist(), *hi.tolist(), abs_lo.tolist(),
                abs_hi.tolist(), cases)]


def result_fields(res: EvalResult):
    """An EvalResult in the form evaluate_many above returns."""
    return (res.point, res.m_of_y,
            (res.F.re.lo, res.F.re.hi, res.F.im.lo, res.F.im.hi),
            (res.abs_F.lo, res.abs_F.hi), res.case)
