"""The barrier families one point and one radius at a time: the closures
each family made per radius before evaluation went through the array hook
BarrierFamily.values, kept as the reference the hook must equal bit for
bit.  Points are offsets from the peak, as the hook takes them."""

import cmath
import math


def synthetic(consts, lir):
    alpha = consts.alpha
    s = consts.s
    big_a = consts.A
    log_a = math.log(big_a)
    w_mid = math.log((1.0 + big_a) / 2.0)
    two_over_gap = 2.0 / (1.0 - big_a)
    cap = consts.C * math.pow(lir, consts.t)

    def f(delta: complex) -> complex:
        y = delta.real
        if y <= 0.0:
            return complex(1.0, 0.0)
        w = math.log(y) + lir
        if w > 0.0:
            return complex(alpha, 0.0)
        if w <= log_a:
            return complex(1.0 + 0.5 * math.exp(s * (w - log_a)), 0.0)
        ratio = math.exp(w)
        if w <= w_mid:
            frac = (ratio - big_a) * two_over_gap
            return complex(1.5 + (cap - 1.5) * frac, 0.0)
        frac = (ratio - (1.0 + big_a) / 2.0) * two_over_gap
        return complex(cap + (alpha - cap) * frac, 0.0)

    return f


def disk_exp(consts, lir):
    log_lam = math.log(2.0 * math.log(1.0 / consts.alpha)) + 2.0 * lir

    def f(delta: complex) -> complex:
        if delta == 0.0:
            return complex(1.0, 0.0)
        dx = delta.real
        dy = delta.imag
        if dx == 0.0:
            wre = 0.0
        else:
            lw = log_lam + math.log(abs(dx))
            if lw > 7.0 and dx < 0.0:
                return complex(0.0, 0.0)
            wre = math.copysign(math.exp(min(lw, 709.0)), dx)
        if dy == 0.0:
            wim = 0.0
        else:
            wim = math.copysign(
                math.exp(min(log_lam + math.log(abs(dy)), 709.0)), dy)
        if wre < -745.0:
            return complex(0.0, 0.0)
        return cmath.exp(complex(wre, wim))

    return f


BY_NAME = {"synthetic": synthetic, "disk-exp": disk_exp}


def scalar_barrier(fam, lir):
    """f_r as a function of the offset delta = y - x of one point from the
    peak, r = exp(-lir)."""
    return BY_NAME[fam.name](fam.consts, lir)
