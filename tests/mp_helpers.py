"""mpmath glue that only the tests use: conversions between mpc and the
fixed-point pairs of cubesum.analytic, the exact Site of an mpc tau, and
the exact-or-mpmath Laurent recurrence the integer one is checked against."""

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import to_fixed

from cubesum.analytic import Site


def mpc_to_fixed(v, W):
    """The fixed-point pair of a complex number (mpc, mpf or Python number)
    at W: its components times 2^W, floored."""
    v = mp.mpc(v)
    return to_fixed(v.real._mpf_, W), to_fixed(v.imag._mpf_, W)


def fixed_to_mpc(v, W):
    """The mpc of a fixed-point pair at W, rounded to the working precision."""
    return mp.mpc(mp.ldexp(v[0], -W), mp.ldexp(v[1], -W))


def dyadic(x):
    """The mpf x as the rational it is: its _mpf_ holds the sign, the
    unsigned mantissa and the exponent."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def exact_site(tau):
    """The Site of eval_z at the mpc tau, read exactly: 6 Re(tau) and Im(tau)
    as the dyadic rationals they are (Im(tau) = a sqrt(1)/d)."""
    re, im = dyadic(tau.real), dyadic(tau.imag)
    return Site((6 * re.numerator, re.denominator), (1, im.numerator, im.denominator))


def wp_laurent_coefficients(g3, count):
    """[G_6, G_12, ..., G_{6*count}] for a lattice with g2 = 0.

    Works over any coefficient ring with +, * and exact division by Python
    ints (exact K-elements or mpmath numbers).  Writing wp = z^-2 +
    sum c_m z^(2m-2), differentiating wp'^2 = 4 wp^3 - g3 gives the classical
    recurrence c_m = 3 sum_{h=2}^{m-2} c_h c_{m-h} / ((m-3)(2m+1)) with
    c_2 = 0, c_3 = g3/28; then G_{2m} = c_m / (2m-1).  With g2 = 0 only
    m = 0 mod 3 survives, i.e. the weights 6, 12, 18, ...  The sum is
    symmetric in h <-> m - h, so each product is formed once.
    """
    zero = g3 - g3
    mmax = 3 * count
    c = [zero] * (mmax + 1)
    if mmax >= 3:
        c[3] = g3 / 28
    for m in range(6, mmax + 1, 3):
        s = zero
        for h in range(3, (m + 1) // 2, 3):  # h < m - h
            s = s + c[h] * c[m - h]
        s = s * 2
        if m % 6 == 0:
            s = s + c[m // 2] * c[m // 2]
        c[m] = (s * 3) / ((m - 3) * (2 * m + 1))
    return [c[3 * k + 3] / (6 * k + 5) for k in range(count)]
