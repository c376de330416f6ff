"""Arbitrary-precision analytics for the parametrization.

All lattices here are hexagonal: L = Omega * Z[w], so g2 = 0 and wp_L(z) =
Omega^-2 wp_0(z/Omega), where wp_0 belongs to the base lattice Z[w].  The
base lattice is computed once per precision: its g3, from the weight-6
Eisenstein q-series at the hexagonal point, and its Laurent coefficients.
The lattice of y^2 = x^3 + D/4 (model y = wp'/2, x = wp) has g3 = -D, so
Omega^6 = g3(Z[w]) / (-D); the principal sixth root is taken (any would
do, as the units of Z[w] are exactly the sixth roots of unity), and the
conjugate curve has the conjugate Omega.

One number representation runs from the q-sum to recognition: a complex
number is a Gaussian fixed-point pair (re, im) of Python integers scaled
by 2^W, products shifted back by W, so every operation truncates by less
than one unit of 2^-W and the error bounds are counts of units.  Outside
the q-sum's own wider W, W = prec + GUARD_BITS.  The one q-sum (eval_z)
gives the Abel-Jacobi images z and z^c of the newform and its conjugate
from one pass over the compact slots split into columns by k mod L, with
L a multiple of the denominator of 6 Re(tau) read exactly (p at a CM
site, isqrt(K) on the imaginary axis), so q^(3L) is a real constant and
each column is a real series in its powers; the column sums are combined
by rectangular splitting in q^3 (Paterson-Stockmeyer).  wp_0 is a Horner
sum in xi^6 over the base lattice's coefficients, stored as integers,
after an integer reduction of xi = z/Omega to the Voronoi cell of 0.
Recognition is a continued fraction over Z[w] on the same integers
(recognize_eisenstein), and the sixth root for Omega^-1 and the cube root
of recognition are Gaussian Newton steps on them too (principal_root).
mpmath is left with the per-precision constants of Z[w] (_base_lattice),
one real exp and one root of unity per site (eval_z's set-up), and the
callers that work in mpc (tests, the Fricke constant and the cusp image z0
= L(f, 1), _fricke), which convert at the boundary (mpc_to_fixed,
fixed_to_mpc).  "Lies in L" always means a residual below 2^(-prec/2): of
the lattice coordinates from the nearest integers (PeriodLattice.contains),
or of z/Omega reduced to the Voronoi cell of 0 (wp_eval, which raises
PoleAtLatticePoint there).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import to_fixed

from .eisenstein import EisensteinInt, QOmega
from .heckeform import build_form, conductor_and_level, split_prime

GUARD_BITS = 32


class PoleAtLatticePoint(ArithmeticError):
    pass


class TorsionCheckFailed(AssertionError):
    pass


# ------------------------------------------------------ fixed-point pairs


def mpc_to_fixed(v, W):
    """The fixed-point pair of a complex number (mpc, mpf or Python number)
    at W: its components times 2^W, floored."""
    v = mp.mpc(v)
    return to_fixed(v.real._mpf_, W), to_fixed(v.imag._mpf_, W)


def fixed_to_mpc(v, W):
    """The mpc of a fixed-point pair at W, rounded to the working precision."""
    return mp.mpc(mp.ldexp(v[0], -W), mp.ldexp(v[1], -W))


def fixed_mul(a, b, W):
    return (a[0] * b[0] - a[1] * b[1]) >> W, (a[0] * b[1] + a[1] * b[0]) >> W


def fixed_div(a, b, W):
    """a / b: the exact quotient of the two pairs, floored."""
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) << W) // n, ((a[1] * b[0] - a[0] * b[1]) << W) // n


@functools.lru_cache(maxsize=16)
def fixed_sqrt3(W):
    """sqrt(3) 2^W, floored."""
    return math.isqrt(3 << 2 * W)


def fixed_of(x, W):
    """The pair of x = (A + B w)/d in Q(w) (an EisensteinInt has d = 1):
    ((2A - B) + B sqrt(-3)) / (2d), each component off by under one unit
    whatever the size of A and B."""
    A, B, d = (x.a, x.b, 1) if isinstance(x, EisensteinInt) else (x.A, x.B, x.d)
    im = math.isqrt(3 * B * B << 2 * W) // (2 * d)
    return ((2 * A - B) << W) // (2 * d), im if B >= 0 else -im


def principal_root(x, n, W, scale=None):
    """The principal n-th root (2 <= n <= 6) of a = x 2^W / scale, as a
    pair at W, floored: x != 0 in Q(w) (an EisensteinInt has d = 1) and
    scale > 0 an integer, 2^W when None (a = x).  It is mpmath's branch, arg
    in (-pi/n, pi/n], and it is off by under 1 + 1/32 + |a|^(1/n) 2^-16
    units of 2^-W.

    Radicand.  x = (c + B sqrt(-3))/(2d) with c = 2A - B, so v = a 2^e =
    (c + B sqrt(-3)) 2^(W + e) / (2 d scale), each component floored, with
    e such that |v| > 2^(W + 17): relative precision, so a small a keeps
    all its bits.  v is off by under 2 units, a relative error
    under 2^-(W + 16), which moves the root by under |a|^(1/n) 2^-(W + 16).
    A floor keeps the sign of the imaginary part (a negative one floors to
    at most -1), so v lies on a's side of the negative real axis, where an
    imaginary part of 0 means arg pi, as in mpmath.

    Newton.  With b = the bit length of v's larger component and k = (b -
    e) // n, m = a 2^(-nk) has 2^-1 <= |m| < 2^(n - 1/2), so its root r has
    2^(-1/n) <= |r| < 2, and a^(1/n) = r 2^k.  The seed is the float root of
    the leading 53 bits of v (shifted before the conversion, so that no
    float overflows): the principal one, from atan2, within a relative 2^-44
    of r, then truncated to the first step's q bits.  A step at q bits maps
    the pair Y of r to ((n - 1) Y + m / Y^(n-1)) // n, with m floored at q,
    n - 2 truncated products (Y^(n-1) off by a relative 9 units) and a
    floored quotient: off by under 2^4 units of 2^-q, a relative 2^(5 - q),
    on top of the exact step's relative error n delta^2 from a relative
    error delta <= 2^-20.  So delta < 2^(6 - q) holds after every step
    while each q is at most twice the one before less 10, and the seed is
    held at the first q, at most 88; q doubles up to P = W + k + 12, where
    r is within 2^(7 - P), so a^(1/n) within 2^-(W + 5), 1/32 unit (for
    |a| >= 2^(-20n), where P >= 26).  The roots of m are at least |r| apart,
    so Newton stays at the seed's root; the floor adds the last unit.
    """
    A, B, d = (x.a, x.b, 1) if isinstance(x, EisensteinInt) else (x.A, x.B, x.d)
    den = 2 * d * (1 << W if scale is None else scale)
    c = 2 * A - B
    e = max(-W, 18 + den.bit_length() - max(abs(c), abs(B)).bit_length())  # v = a 2^e
    im = math.isqrt(3 * B * B << 2 * (W + e))
    vr, vi = (c << W + e) // den, (im if B >= 0 else -im) // den
    b = max(abs(vr), abs(vi)).bit_length()
    k = (b - e) // n
    P = W + k + 12
    t = P - e - n * k  # m = a 2^(-nk) at P bits is v 2^t
    m = (vr << t, vi << t) if t >= 0 else (vr >> -t, vi >> -t)
    qs = [P]  # the steps' precisions, from the last
    while qs[-1] > 88:
        qs.append((qs[-1] + 12) // 2)
    lead = max(b - 53, 0)
    fr, fi = float(vr >> lead), float(vi >> lead)
    mag = 2.0 ** ((math.log2(math.hypot(fr, fi)) + lead - e - n * k) / n)
    arg = math.atan2(fi, fr) / n
    prev = qs[-1]
    Y = int(math.ldexp(mag * math.cos(arg), prev)), int(math.ldexp(mag * math.sin(arg), prev))
    for q in reversed(qs):
        Y, mq = (Y[0] << q - prev, Y[1] << q - prev), (m[0] >> P - q, m[1] >> P - q)
        pw = Y
        for _ in range(n - 2):
            pw = fixed_mul(pw, Y, q)
        tr, ti = fixed_div(mq, pw, q)
        Y, prev = (((n - 1) * Y[0] + tr) // n, ((n - 1) * Y[1] + ti) // n), q
    return Y[0] >> 12, Y[1] >> 12


def recognize_eisenstein(v, W, norm_bits):
    """(x, N(gamma)) for x = alpha/gamma in K near v (a pair at W): the last
    convergent of v's nearest-integer continued fraction over Z[w] (Hurwitz,
    Acta Math. 11, 1887) before the first whose denominator has N(gamma) >
    B = 2^norm_bits, kept when it lies within 8/B of v; None otherwise.

    Euclid runs on (V, 2^W), V = X + Y w from the floored coordinates of v
    (_coords, under 4 units from v).  Each quotient rounds the coordinates
    of num/den, as EisensteinInt.__divmod__ does, but from the leading
    100 bits of the pair, so they are off by under 2^-90 and each remainder
    is at most c = sqrt(3) (1/2 + 2^-90) < 0.867 times its divisor; only
    the remainder and the convergents take full-width (linear) products.
    The convergents p_k/q_k of z = V/2^W have p_k q_(k-1) - p_(k-1) q_k a
    unit, and e_k = |q_k z - p_k| (the k-th remainder over 2^W) falls by c
    per step.  For the k kept, e_k |q_(k+1)| <= 1 + e_(k+1) |q_k| <= 1 + c
    e_k |q_(k+1)| gives e_k < 1 / ((1 - c) sqrt(B)) (e_k = 0 where the
    expansion ends).

    Recovery: let x = alpha/gamma in lowest terms lie within delta of v,
    with B delta <= 8 and N(gamma) <= B/256.  Were (gamma, alpha) not a unit
    times (q_k, p_k), gamma p_k - alpha q_k would be a nonzero element of
    Z[w], of absolute value at least 1; but it is gamma (p_k - q_k z) + q_k
    (gamma z - alpha), under |gamma| e_k + sqrt(B) |gamma| (delta + 2^(2-W))
    < 1/(16 (1 - c)) + 0.52 < 0.99 while B < 2^(W - 4).  So x comes back,
    and passes the 8/B test.  Above N(gamma) = B/256 it may come back or
    not; a wrong convergent that passes the test is for the caller's exact
    checks to reject.
    """
    if norm_bits < 0:  # no denominator has a norm below 1
        return None
    bound = 1 << norm_bits
    na, nb = _coords(v, W)  # num = na + nb w, den = da + db w
    da, db = 1 << W, 0
    pa, pb, p1a, p1b = 1, 0, 0, 0  # p_(k-1), p_(k-2)
    qa, qb, q1a, q1b = 0, 0, 1, 0  # q_(k-1), q_(k-2)
    while da or db:
        s = max(abs(da), abs(db)).bit_length() - 100
        ta, tb, ua, ub = (na >> s, nb >> s, da >> s, db >> s) if s > 0 else (na, nb, da, db)
        # num conj(den) / N(den), conj(a + b w) = (a - b) - b w
        n2 = 2 * (ua * ua - ua * ub + ub * ub)
        ka = (2 * (ta * (ua - ub) + tb * ub) + n2 // 2) // n2
        kb = (2 * (tb * ua - ta * ub) + n2 // 2) // n2
        # (ka + kb w) times the pairs: (a1 a2 - b1 b2) + (a1 b2 + b1 a2 - b1 b2) w
        ra, rb = ka * pa - kb * pb + p1a, ka * pb + kb * pa - kb * pb + p1b
        sa, sb = ka * qa - kb * qb + q1a, ka * qb + kb * qa - kb * qb + q1b
        m = max(abs(sa), abs(sb)).bit_length()  # 2^(2m - 3) <= N(q) < 2^(2m + 2)
        if 2 * m + 2 > norm_bits and (2 * m - 3 > norm_bits or sa * sa - sa * sb + sb * sb > bound):
            break
        pa, pb, p1a, p1b, qa, qb, q1a, q1b = ra, rb, pa, pb, sa, sb, qa, qb
        na, nb, da, db = da, db, na - (ka * da - kb * db), nb - (ka * db + kb * da - kb * db)
    # q_0 = 1 is within every bound; x = p/q = p conj(q) / N(q)
    n = qa * qa - qa * qb + qb * qb
    x = QOmega.from_ints(pa * (qa - qb) + pb * qb, pb * qa - pa * qb, n)
    xr, xi = fixed_of(x, W)
    miss2 = (xr - v[0]) ** 2 + (xi - v[1]) ** 2
    return (x, n) if miss2 << 2 * norm_bits < 64 << 2 * W else None


# ------------------------------------------------------- Laurent expansion


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


# ----------------------------------------------------------- base lattice


SERIES_RADIUS = Fraction(7, 20)  # |z/Omega| up to which wp is summed; else halve first

_base_cache = {}


def _base_lattice(prec):
    """(g3, C) of the reference lattice Z[w], computed once per precision,
    as integers scaled by 2^W, W = prec + GUARD_BITS.  The sums run at W +
    16 bits and are rounded at W, so g3 is held within one unit of 2^-W.

    g3 = 140 G_6 and G_6 = 2 zeta(6) E_6, with q = -e^(-pi sqrt(3)).  E_4
    vanishes at this point, which is checked as a self-test of the series.
    C[k] = (6k+5) G_{6k+6}: the coefficients of wp_0 - xi^-2 in xi^(6k+4),
    which are real because Z[w] is closed under conjugation.  There are
    enough of them for the series to reach 2^-(prec + 48) inside
    SERIES_RADIUS: G_6k tends to 6 (the six units), so each term gains
    -6 log2(SERIES_RADIUS) bits.
    """
    if prec in _base_cache:
        return _base_cache[prec]
    W = prec + GUARD_BITS
    with mp.workprec(W + 16):
        qabs = mp.e ** (-mp.pi * mp.sqrt(3))
        nmax = int((prec + 48) * math.log(2) / (mp.pi * math.sqrt(3))) + 8
        sigma3 = [0] * (nmax + 1)
        sigma5 = [0] * (nmax + 1)
        for d in range(1, nmax + 1):
            d3, d5 = d**3, d**5
            for m in range(d, nmax + 1, d):
                sigma3[m] += d3
                sigma5[m] += d5
        e4 = mp.mpf(1)
        e6 = mp.mpf(1)
        qn = mp.mpf(1)
        for n in range(1, nmax + 1):
            qn = qn * (-qabs)
            e4 += 240 * sigma3[n] * qn
            e6 -= 504 * sigma5[n] * qn
        if abs(e4) >= mp.mpf(2) ** (-(prec + 16)):
            raise AssertionError("E4 must vanish on Z[w]")
        zeta6 = mp.pi**6 / 945
        g3 = 140 * 2 * zeta6 * e6
        kmax = int((prec + 48) / (-6 * math.log2(SERIES_RADIUS))) + 6
        G = wp_laurent_coefficients(g3, kmax)
        C = [int(mp.nint(mp.ldexp((6 * k + 5) * g, W))) for k, g in enumerate(G)]
        _base_cache[prec] = int(mp.nint(mp.ldexp(g3, W))), C
    return _base_cache[prec]


@dataclass(frozen=True)
class PeriodLattice:
    """L = Omega * Z[w], the period lattice of y^2 = x^3 + D/4, held as
    inv = Omega^-1, a pair at W = prec + GUARD_BITS."""

    inv: tuple
    prec: int

    @property
    def W(self):
        return self.prec + GUARD_BITS

    def conj(self):
        """The lattice of the conjugate curve: conj(Omega) Z[w]."""
        return PeriodLattice((self.inv[0], -self.inv[1]), self.prec)

    def residual(self, z):
        """Distance of the lattice coordinates of z (a pair at W) from the
        nearest integers, in units of 2^-W."""
        W = self.W
        half = 1 << (W - 1)
        return max(abs(c - ((c + half) >> W << W)) for c in _coords(fixed_mul(z, self.inv, W), W))

    def contains(self, z, tol_bits=None):
        tol_bits = tol_bits if tol_bits is not None else self.prec // 2
        return self.residual(z) < 1 << (self.W - tol_bits)


def _coords(xi, W):
    """(x, y) with xi = x + y w, as fixed-point reals at W: y = 2 Im(xi) /
    sqrt(3) and x = Re(xi) + y/2."""
    s3 = fixed_sqrt3(W)
    return xi[0] + (xi[1] << W) // s3, (xi[1] << (W + 1)) // s3


# the six units of Z[w] as (m, n) with unit = m + n w, and 0 itself
_VORONOI_STEPS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def reduce_xi(xi, W):
    """(r, (m, n)) with xi = r + m + n w and r in the Voronoi cell of 0 in
    Z[w], so |r| <= 1/sqrt(3); xi and r are pairs at W.

    The coordinates of xi are rounded once; the residual of that rounding
    box (a parallelogram) is O(1), so the nearest of it and its six unit
    translates is picked from floats, by the norm N(a + b w) = a^2 - ab + b^2.
    A float tie sits on a cell edge, where either side is a representative.
    r is xi less the pair of m + n w, off by under one unit.
    """
    x, y = _coords(xi, W)
    half = 1 << (W - 1)
    m, n = (x + half) >> W, (y + half) >> W
    one = 1 << W
    fx, fy = (x - (m << W)) / one, (y - (n << W)) / one
    dm, dn = min(
        _VORONOI_STEPS,
        key=lambda d: (fx - d[0]) ** 2 - (fx - d[0]) * (fy - d[1]) + (fy - d[1]) ** 2,
    )
    m, n = m + dm, n + dn
    lr, li = fixed_of(EisensteinInt(m, n), W)
    return (xi[0] - lr, xi[1] - li), (m, n)


def lattice_of_curve(D, prec=192):
    """Period lattice of y^2 = x^3 + D/4 (D in Z[w] or Q(w)), i.e. the
    hexagonal lattice with g3 = -D: Omega^-1 is the principal sixth root of
    -D / g3(Z[w]), taken by Newton steps on the integers from -D and the
    integer g3 of _base_lattice (principal_root, which gives the proof).  That g3 = 820.8... is held within one unit of 2^-W, a
    relative error under 2^-(W + 9), which moves the root by under
    |Omega^-1| 2^-(W + 12); principal_root adds under 1 + 1/32 + |Omega^-1|
    2^-16 units.  So while |Omega^-1| < 2^10 (|D| < 2^69), Omega^-1 is off
    by under 2 units of 2^-W: 1 from the floor, under 1/4 from g3 and under
    1/16 from the Newton steps and the radicand.  The conjugate curve has
    the conjugate lattice (PeriodLattice.conj), as the principal root
    commutes with conjugation off the negative real axis."""
    if not D:
        raise ValueError("D must be nonzero")
    g3, _ = _base_lattice(prec)
    return PeriodLattice(principal_root(-D, 6, prec + GUARD_BITS, g3), prec)


# -------------------------------------------------------------- wp values


def wp_eval(L, z, prec=None):
    """(wp(z), wp'(z)) for the lattice L, pairs at W = prec + GUARD_BITS
    for z a pair at W.

    With xi = z/Omega, wp_L(z) = Omega^-2 wp_0(xi) and wp_L'(z) = Omega^-3
    wp_0'(xi).  xi is reduced mod Z[w] to r (reduce_xi); |r| below
    2^-(prec/2) lies on the lattice and raises PoleAtLatticePoint.  A
    reduced r has |r| <= 1/sqrt(3) < 2 SERIES_RADIUS, so it is halved at
    most once, and the duplication formula undoes that.

    wp_0 = r^-2 + sum_k C_k r^(6k+4) and wp_0' = -2 r^-3 + sum_k (6k+4)
    C_k r^(6k+3), with C = _base_lattice's integers.  Both sums run by
    Horner in t = r^6; r^-1 is the exact quotient of the pair (floored),
    and r^-2, r^-3 are its powers, so they keep their relative precision
    near the pole.

    Error, in units u = 2^-W, against exact arithmetic on the z given:
    - Omega^-1 is off by under 2 units (lattice_of_curve), so xi is off
      by under 3 |z| + 1, and r by under e_r = 3 |z| + 2 (3 |z| / 2 + 2
      halved);
    - each Horner step truncates by under 2 units, and |t| <= 2^-9 damps
      what came before: the sums are off by under 2^10 units (their
      slopes in t are under 70 and 700);
    - r^-2 and r^-3 are off by under 2 e_r |r|^-3 + 4 and 3 e_r |r|^-4 +
      8 units; the series terms r^4 sum and r^3 sum by under 2^11;
    - the duplication forms lambda = 3 wp^2 / wp' at r/2 (|r/2| > 0.17)
      and cancels in wp(r) and wp'(r) by factors under 2^5 and 2^7;
    - the rescale multiplies by Omega^-2 and Omega^-3 and adds 2 and 3
      units of Omega^-1 times wp_0 and wp_0'.
    So with Y = max(1, |Omega|^-1) and r the reduced xi (before halving),
    wp(z) and wp'(z) are both off by under 2^14 (1 + |z|) Y^3 |r|^-4
    units.
    """
    prec = prec if prec is not None else L.prec
    if prec != L.prec:
        raise ValueError(f"the lattice is held at {L.prec} bits, not {prec}")
    _, C = _base_lattice(prec)
    W, inv = L.W, L.inv
    r, _ = reduce_xi(fixed_mul(z, inv, W), W)
    n2 = r[0] * r[0] + r[1] * r[1]
    if n2 < 1 << 2 * (W - prec // 2):
        raise PoleAtLatticePoint(f"z/Omega lies within 2^-{prec // 2} of Z[w]")
    R = SERIES_RADIUS
    halve = n2 * R.denominator**2 > R.numerator**2 << 2 * W
    if halve:
        r = (r[0] >> 1, r[1] >> 1)
    r2 = fixed_mul(r, r, W)
    r3 = fixed_mul(r2, r, W)
    tr, ti = fixed_mul(r3, r3, W)
    sr = si = dr = di = 0
    for k in reversed(range(len(C))):
        c = C[k]
        sr, si = ((sr * tr - si * ti) >> W) + c, (sr * ti + si * tr) >> W
        dr, di = ((dr * tr - di * ti) >> W) + (6 * k + 4) * c, (dr * ti + di * tr) >> W
    ir = fixed_div((1 << W, 0), r, W)
    ir2 = fixed_mul(ir, ir, W)
    ir3 = fixed_mul(ir2, ir, W)
    s4 = fixed_mul((sr, si), fixed_mul(r2, r2, W), W)
    d3 = fixed_mul((dr, di), r3, W)
    wp = (ir2[0] + s4[0], ir2[1] + s4[1])
    wpd = (d3[0] - 2 * ir3[0], d3[1] - 2 * ir3[1])
    if halve:
        if wpd == (0, 0):
            raise PoleAtLatticePoint("duplication hit a 2-torsion point")
        sq = fixed_mul(wp, wp, W)
        lam = fixed_div((3 * sq[0], 3 * sq[1]), wpd, W)
        l2 = fixed_mul(lam, lam, W)
        wp2 = (l2[0] - 2 * wp[0], l2[1] - 2 * wp[1])
        t = fixed_mul(lam, (wp[0] - wp2[0], wp[1] - wp2[1]), W)
        wp, wpd = wp2, (2 * t[0] - wpd[0], 2 * t[1] - wpd[1])
    i2 = fixed_mul(inv, inv, W)
    return fixed_mul(wp, i2, W), fixed_mul(wpd, fixed_mul(i2, inv, W), W)


# --------------------------------------------------------- form evaluation


@functools.lru_cache(maxsize=64)
def terms_needed(im_tau, prec):
    """Terms M so that sum_{n>M} sigma_0(n) sqrt(n) |q|^n / n < 2^-prec.

    Uses sigma_0(n) <= sqrt(3n) (equality at n = 12), so the tail is below
    sqrt(3) |q|^(M+1) / (1 - |q|).  Memoized: an attempt asks for its M in
    parametrize._attempt_site (the term cap) and again in eval_z, both
    through site_terms.
    """
    with mp.workprec(64):
        im = mp.mpf(im_tau)
        if im <= 0:
            raise ValueError("site must be in the upper half plane")
        logq = -2 * mp.pi * im  # natural log of |q|
        qabs = mp.e**logq
        M = int((prec * mp.log(2) + mp.log(mp.sqrt(3) / (1 - qabs))) / (-logq)) + 8
        return max(M, 16)


def site_terms(site, prec):
    """terms_needed at a cmpoint.EvalSite, keyed by Im(tau) as a float from
    the site's exact im_coeff, so that no mpc is built for it."""
    return terms_needed(math.sqrt(3) * site.im_coeff, prec)


def _dyadic(x):
    """The mpf x as the rational it is: its _mpf_ holds the sign, the
    unsigned mantissa and the exponent."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


KERNEL_GUARD_BITS = 2


def eval_z(form, site, prec=192):
    """(z, z^c): z(tau) = sum a_n/n q^n over n <= M = terms_needed(Im tau,
    prec), the Abel-Jacobi image of tau, for the form and its conjugate,
    from one pass over the compact slots, as pairs at prec + GUARD_BITS.
    The form must carry at least M coefficients (a ValueError otherwise).

    a_n vanishes off n = 1 mod 3, so z = q P(x) with x = q^3 and P(x) =
    sum_k a_(3k+1)/(3k+1) x^k over the K = ceil(M/3) steps k < K, the
    form's compact slots.  With a_(3k+1) = alpha[k] + beta[k] w, P splits as
    U + V w and the conjugate form's as U + V conj(w), so one pass sums U
    and V.  The form stores b_n, with a_n = w^e(n) b_n for p not dividing n
    and a_(pm) = pibar a_m (heckeform).

    Columns: the slots split by k mod L into L columns, U = sum_(j < L)
    x^j U_j with U_j = sum_g alpha_n/n X^g over n = 3(j + Lg) + 1 and X =
    x^L, and V likewise.  L is the multiple of the denominator of 6 Re(tau)
    (read exactly: cmpoint.EvalSite.re, or the dyadic rational an mpf is)
    nearest isqrt(K), at least the denominator itself and capped at K, so X
    = e^(6 pi i L tau) = (-1)^(6 L Re tau) e^(-6 pi L Im tau) is real
    wherever a second row exists: at the solve's site W(tau_r) L = p while
    isqrt(K) < 3p/2, and X = -e^(-pi sqrt(3)) (N = 9p) or -e^(-pi sqrt(3)/3)
    (N = 27p); on the imaginary axis (the Fricke sites) L = isqrt(K), about
    sqrt(K) columns of sqrt(K) rows; a real part with a long mantissa gets
    L = K, one row.  The column sums are real.  Where p | L (every solve
    site) a column holds one residue of n mod p: off p | n it is a unit
    column, U_j + V_j w = w^e S_j with S_j = sum_g b_n (X^g // n).  The S_j
    are summed row by row: row g is the L slots from Lg, and only its
    nonzero b_n are visited (itertools.compress; at the solve sites over
    half the slots hold b_n = 0), each adding one floor division and one
    small-integer product into its column's S_j; then U_j and V_j are S_j
    times the unit's coordinates.  A column of n = pm (1/p of the slots,
    b_n = 0 there) is pibar times the sum of its a_m (alpha_m, beta_m),
    whose slots k // p are the first K/p + 1 of the store.  Elsewhere (test
    and Fricke sites) the columns take (alpha_n, beta_n) from the whole
    store spread out, two products per term.  Each sum is the same
    integer in any order, so the order of the terms leaves z unchanged to
    the bit.  The columns are combined by rectangular splitting in x:
    with B = isqrt(L), the baby steps x^i (i < B) are formed once, a block
    of B consecutive columns is a sum of integer products u_j x^i, and
    Horner in the giant step x^B runs over the blocks from the top,
    shifting once per step.

    Error, in units of 2^-W (values scaled by 2^W; every product is shifted
    and every quotient floored, each by under one unit per component):
    - x and X are off by one unit per component, and each power formed
      from them by at most 3 more units per factor (|x|, |X| < 1): x^i by
      3i, (x^B)^m by 3Bm, X^g by 3g;
    - X^g // n is off by under 1 + 3g/n < 1 + 1/L units (n > 3Lg), and
      the rest of a column is exact integer arithmetic: a term of a unit
      column is off by |b_n| (1 + 1/L) units in S_j, and so in each of U_j
      and V_j (0 or +-S_j), any other term by (|alpha_n| + |beta_n|)(1 +
      1/L) units (pibar times the a_m sum is the a_n sum, integer for
      integer); as |b_n| = |a_n| <= |alpha_n| + |beta_n|, the latter bounds
      both;
    - column j reaches the result through x^i (x^B)^m with i + Bm = j,
      off by 3j units; as 3j < n, weighting each term of the column by it
      adds under (|alpha_n| + |beta_n|) units, plus under 2 units per
      Horner step;
    - |alpha_n| + |beta_n| <= 2 |a_n| <= 2 sigma_0(n) sqrt(n) <= 2 sqrt(3) n
      (sigma_0(n) <= sqrt(3n)), and over n <= M, n = 1 mod 3, sum n is
      about M^2/6.
    So U + V w and U + V conj(w) (|w| = 1) are off by under (2 + 1/L)
    0.58 M^2 <= 1.8 M^2 units, the few Horner steps aside: W = prec +
    GUARD_BITS + KERNEL_GUARD_BITS + 2 M.bit_length() keeps z and z^c
    within one unit of 2^-(prec + GUARD_BITS), the precision they are
    returned at (floored, under one more unit).

    Set-up: q = E zeta with E = e^(-2 pi Im tau) (one real exp) and zeta =
    e^(2 pi i Re tau) (one root of unity) at Wq = W + 8 + (3L).bit_length()
    bits; x = q^3 and X = (-1)^(6 L Re tau) E^(3L) come from integer
    products (the (3L).bit_length() bits absorb E's error, raised to the
    3L-th power) and are rounded to W, each off by about one unit of 2^-W.
    The last product, q (U + V w) and q (U + V conj(w)), is in integers too.
    """
    exact = hasattr(site, "re")  # a cmpoint.EvalSite
    if exact:
        M = site_terms(site, prec)
    else:
        with mp.workprec(prec + GUARD_BITS):
            tau = mp.mpc(site)
            M = terms_needed(tau.imag, prec)
    if M > form.terms:
        raise ValueError(f"form has {form.terms} coefficients, site needs {M}")
    W = prec + GUARD_BITS + KERNEL_GUARD_BITS + 2 * M.bit_length()
    K = (M + 2) // 3
    re = site.re if exact else _dyadic(tau.real)
    den = (6 * re).denominator
    L = min(den * max(1, round(math.isqrt(K) / den)), K)
    Wq = W + 8 + (3 * L).bit_length()
    with mp.workprec(Wq):
        if exact:
            im = site.im_coeff
            E = mp.exp(-2 * mp.pi * mp.sqrt(3) * im.numerator / im.denominator)
        else:
            E = mp.exp(-2 * mp.pi * tau.imag)
        E = to_fixed(E._mpf_, Wq)
        zr, zi = mpc_to_fixed(mp.expjpi(mp.mpf(2 * re.numerator) / re.denominator), Wq)
    q = (E * zr >> Wq, E * zi >> Wq)
    X, n = 1 << Wq, 3 * L
    while n:  # E^(3L) by squaring
        if n & 1:
            X = X * E >> Wq
        E = E * E >> Wq
        n >>= 1
    if (6 * L * re).numerator % 2:  # 6 L Re(tau) is an integer wherever X is used
        X = -X
    xr, xi = fixed_mul(fixed_mul(q, q, Wq), q, Wq)
    xr, xi, X = xr >> Wq - W, xi >> Wq - W, X >> Wq - W
    q = (q[0] >> Wq - W, q[1] >> Wq - W)
    B = math.isqrt(L)
    baby = [(1 << W, 0)]
    for _ in range(B):
        pr, pi = baby[-1]
        baby.append(((pr * xr - pi * xi) >> W, (pr * xi + pi * xr) >> W))
    gr, gi = baby.pop()  # the giant step x^B
    Xg = [1 << W]  # X^g for the rows g < ceil(K/L)
    for _ in range((K - 1) // L):
        Xg.append(Xg[-1] * X >> W)
    b, p = form.b, form.p  # slot k holds b_(3k+1)

    def pair_column(ns, xs, ys):  # sum (x_n + y_n w) (X^g // n)
        u = v = 0
        for n, x, y, t in zip(ns, xs, ys, Xg):
            if x or y:
                t //= n
                u += x * t
                v += y * t
        return u, v

    if L % p:  # a column holds several residues of n mod p
        alpha, beta = form.pairs()
        sums = (pair_column(range(3 * j + 1, 3 * K, 3 * L), alpha[j:K:L], beta[j:K:L]) for j in range(L))
        U, V = map(list, zip(*sums))
    else:  # S_j = sum_g b_n (X^g // n), row by row over the b_n != 0
        S, cols = [0] * L, range(L)
        for t, k0 in zip(Xg, range(0, K, L)):
            row, n0 = b[k0 : min(k0 + L, K)], 3 * k0 + 1
            for j in itertools.compress(cols, row):
                S[j] += row[j] * (t // (n0 + 3 * j))
        ea, eb = form.units()  # a_n = w^e b_n, w^e = ea + eb w at j mod p
        U = list(map(operator.mul, ea * (L // p), S))
        V = list(map(operator.mul, eb * (L // p), S))
        # the columns of n = pm (3j + 1 = 0 mod p, where S_j = 0): pibar
        # times the a_m, at the slots k // p = j // p + (L/p) g, m < K/p + 1
        alpha, beta = form.pairs((K - 1) // p + 1)
        pibar = split_prime(p).pibar
        for j in range((p - 1) // 3, L, p):
            u, v = pair_column(range(3 * j + 1, 3 * K, 3 * L), alpha[j // p :: L // p], beta[j // p :: L // p])
            U[j], V[j] = pibar.a * u - pibar.b * v, pibar.a * v + pibar.b * u - pibar.b * v

    bre, bim = [x for x, _ in baby], [y for _, y in baby]
    ur = ui = vr = vi = 0
    for j0 in reversed(range(0, L, B)):
        u, v = U[j0 : j0 + B], V[j0 : j0 + B]
        sur, sui = sum(map(operator.mul, u, bre)), sum(map(operator.mul, u, bim))
        svr, svi = sum(map(operator.mul, v, bre)), sum(map(operator.mul, v, bim))
        ur, ui = (ur * gr - ui * gi + sur) >> W, (ur * gi + ui * gr + sui) >> W
        vr, vi = (vr * gr - vi * gi + svr) >> W, (vr * gi + vi * gr + svi) >> W
    # V w = -V/2 + sqrt(-3) V/2, and V conj(w) = -V/2 - sqrt(-3) V/2
    s3 = fixed_sqrt3(W)
    cr, ci = -vi * s3 >> W + 1, vr * s3 >> W + 1
    hr, hi = ur - (vr >> 1), ui - (vi >> 1)
    shift = W - (prec + GUARD_BITS)
    return (
        fixed_mul(q, (hr + cr, hi + ci), W + shift),
        fixed_mul(q, (hr - cr, hi - ci), W + shift),
    )


def _fricke(p, i, prec, at, form):
    """(C, z_f(tau0), z_fc(tau0)) at the Fricke involution's fixed point
    tau0 = i/sqrt(N), from z alone.

    f(W tau) = C N tau^2 f^c(tau) with W tau = -1/(N tau) gives d/dtau
    z_f(W tau) = C dz_fc/dtau, so z_f(W tau) = C z_fc(tau) + z0 with a
    constant z0 (the image of the cusp 0), and the two sites tau0 = W tau0
    and `at` give C = (z_f(tau0) - z_f(W at)) / (z_fc(tau0) - z_fc(at)).
    `at` defaults to 2 tau0, so W at = tau0/2.  `form` is extended in place
    to the terms the lowest site needs; one is built when it is missing.
    """
    _, N = conductor_and_level(p, i)
    with mp.workprec(prec + GUARD_BITS):
        tau0 = mp.mpc(0, 1) / mp.sqrt(N)
        a = 2 * tau0 if at is None else mp.mpc(at)
        wa = -1 / (N * a)
        M = terms_needed(min(a.imag, wa.imag, tau0.imag), prec)
        if form is None:
            form = build_form(p, i, M)
        form.extend(M)
        W = prec + GUARD_BITS
        z_f, z_fc = (fixed_to_mpc(z, W) for z in eval_z(form, tau0, prec))
        z_wa = fixed_to_mpc(eval_z(form, wa, prec)[0], W)
        z_a = fixed_to_mpc(eval_z(form, a, prec)[1], W)
        C = (z_f - z_wa) / (z_fc - z_a)
        return C, z_f, z_fc


def fricke_constant(p, i, prec=192, at=None, form=None):
    """C with f(-1/(N tau)) = C N tau^2 f^c(tau), measured from z (_fricke).

    Contracts: |C| = 1 and C^6 = pi^(2i)/pibar^(2i) (up to the sixth root of
    unity that stays unpinned); both are asserted by the acceptance suite
    rather than here.  `at` is the second site, off the fixed point; `form`
    is extended in place to the terms the sites need.
    """
    return _fricke(p, i, prec, at, form)[0]


def l_value_and_cusp_zero(p, i, prec=192, conjugate=False):
    """(z0, True) where z0 = L(f, 1) is the Abel-Jacobi image of the cusp 0.

    Splits the integral at the fixed point of the Fricke involution:
    z0 = z_f(i/sqrt(N)) - C z_fc(i/sqrt(N)).  Checks that z0 is a primitive
    sqrt(-3)-division point of the period lattice and that its wp-image has
    x = 0 (so y = +-pibar^i/2); raises TorsionCheckFailed otherwise.
    conjugate=True does the same for f^c from f's pairs, swapped.
    """
    split = split_prime(p)
    C, z_f, z_fc = _fricke(p, i, prec, None, None)
    with mp.workprec(prec + GUARD_BITS):
        if conjugate:  # at tau0 = -1/(N tau0), f^c's constant is 1/C
            C, z_f, z_fc = 1 / C, z_fc, z_f
        z0 = z_f - C * z_fc

        D = (split.pi if conjugate else split.pibar) ** (2 * i)
        L = lattice_of_curve(D, prec)
        W = L.W
        z0s3 = mpc_to_fixed(z0 * mp.mpc(0, 1) * mp.sqrt(3), W)
        if not L.contains(z0s3, tol_bits=prec // 2):
            res = L.residual(z0s3) / 2**W
            raise TorsionCheckFailed(f"sqrt(-3)*z0 not in L (residual {res:.3g})")
        z0f = mpc_to_fixed(z0, W)
        if L.residual(z0f) < 1 << (W - 2):
            raise TorsionCheckFailed("z0 lies in L itself; cusp image is not primitive")
        x, ypr = (fixed_to_mpc(v, W) for v in wp_eval(L, z0f, prec))
        y = ypr / 2
        tol = mp.mpf(2) ** (-(prec - 40))
        scale = max(1, abs(y))
        if abs(x) > tol * scale:
            raise TorsionCheckFailed(f"wp(z0) = {x} is not 0")
        half = (split.pi if conjugate else split.pibar).to_mpc(mp) ** i / 2
        if min(abs(y - half), abs(y + half)) > tol * scale:
            raise TorsionCheckFailed(f"wp'(z0)/2 = {y} is not +-pibar^i/2")
        return z0, True
