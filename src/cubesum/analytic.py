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
L a multiple of p and of the denominator of 6 Re(tau) read exactly (or
one row), so q^(3L) is a real constant, each column is a real series in
its powers and holds one residue of n mod p; the column sums are combined
by rectangular splitting in q^3 (Paterson-Stockmeyer).  wp_0 is a Horner
sum in xi^6 over the base lattice's coefficients, stored as integers,
after an integer reduction of xi = z/Omega to the Voronoi cell of 0.
Recognition is a continued fraction over Z[w] on the same integers
(recognize_eisenstein), and the sixth root for Omega^-1 and the cube root
of recognition are Gaussian Newton steps on them too (principal_root).
The constants are integer code too, each with a proved bound: pi by
Machin's formula (fixed_pi), e^z by halving, Taylor terms and squaring
back (fixed_exp), from which come |q| (fixed_qabs) and the root of unity
e^(2 pi i Re tau) (fixed_expjpi) of eval_z's set-up, and the g3 and
Laurent coefficients of Z[w] (_base_lattice, wp_laurent_fixed).  Every
site of eval_z is exact, 6 Re(tau) a rational and Im(tau) = a sqrt(s)/d
(a Site or a cmpoint.EvalSite), and the verify fixtures work on the same
pairs: the Fricke constant and the cusp image z0 = L(f, 1) at three sites
on the imaginary axis (_fricke), and the Gauss sum from roots of unity
(gauss_sum).  So no command imports mpmath: only the tests' oracles and
the benchmark's tracer do (analytic.mp).  The q-sum's length M comes from
a proven tail bound in floats (terms_needed).  "Lies in L" always means a
residual below 2^(-prec/2): of the lattice coordinates from the nearest
integers (PeriodLattice.contains), or of z/Omega reduced to the Voronoi
cell of 0 (wp_eval, which raises PoleAtLatticePoint there).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .eisenstein import EisensteinInt, Frozen, QOmega, cubic_char_table
from .heckeform import build_form, conductor_and_level, split_prime

GUARD_BITS = 32


def __getattr__(name):
    """analytic.mp, mpmath's context, imported on first use.  Its one reader
    is the benchmark's tracer (perfbench/tracer.py), which reads Im(tau)
    through EvalSite.to_mpc; no command does."""
    if name == "mp":
        from mpmath import mp

        return mp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PoleAtLatticePoint(ArithmeticError):
    pass


class TorsionCheckFailed(AssertionError):
    pass


# ------------------------------------------------------ fixed-point pairs


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


@functools.lru_cache(maxsize=64)
def fixed_pi(W):
    """pi 2^W, floored, off by under 1 + 2^-8 units of 2^-W: Machin's pi =
    16 atan(1/5) - 4 atan(1/239), memoized per width.

    Each atan(1/k) = sum_j (-1)^j / ((2j + 1) k^(2j + 1)) is summed at P = W
    + G bits, G = W.bit_length() + 16.  The powers t_j = floor(2^P /
    k^(2j + 1)) are exact (t_j // k^2 floors the same quotient), so each
    term t_j // (2j + 1) is off by under 2 units of 2^-P; the sum stops at
    the first t_j = 0, where the alternating tail is under one unit.
    atan(1/5) takes under P/4.6 + 1 terms and atan(1/239) under P/15.8 + 1,
    so pi is off by under 16 (2 (P/4.6 + 1) + 1) + 4 (2 (P/15.8 + 1) + 1) <
    8P + 60 < 2^(G - 8) units of 2^-P (for every W >= 1): under 2^-8 units
    of 2^-W before the floor.
    """
    P = W + W.bit_length() + 16

    def atan_inv(k):
        s, t, j, k2 = 0, (1 << P) // k, 0, k * k
        while t:
            s += t // (2 * j + 1) if j % 2 == 0 else -(t // (2 * j + 1))
            t //= k2
            j += 1
        return s

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> P - W


def fixed_exp(z, W):
    """e^z for a pair z at W with Re z <= 0, as a pair at W: each component
    floored, off by under 1 + 2^-8 units of 2^-W.

    Argument reduction (Brent-Zimmermann, Modern Computer Arithmetic,
    4.3.1): with s the larger of |Re z| and |Im z| and r = isqrt(W)//2 + 2, k
    = max(0, s.bit_length() - W) + r halvings give u = z/2^k with |u| <
    sqrt(2) 2^-r < 2^-1.5, held exactly at P = W + G bits, G = k + 2
    (W + k).bit_length() + 12.

    Taylor.  T_j = T_(j-1) u / j is formed with one floor per product and
    one per quotient, so a component error e of T_(j-1) becomes at most
    (e |u| sqrt(2) + 1)/j + 1 <= 2 in T_j, as e |u| sqrt(2) <= e/2.  The
    sum stops at the first term whose components are at most 1 in size (a
    floor can hold a tiny negative term at -1 for ever): the exact term
    there is under 3 sqrt(2) < 4.3 in size, and with the rest of the series
    (each term at most |u| times the one before) under 4.3 / (1 - 2^-1.5)
    < 7.  So e^u is off by under 2n + 7 units per component over the n
    terms summed, and n <= P/1.5 + 3 <= P: the exact terms fall by 2^-1.5
    a step, and once they are under one unit the next two steps bring the
    computed ones to size 1.

    Squaring k times gives e^z.  The exact values have size at most 1 (Re z
    <= 0), so an error of complex size D becomes under 2 (1 + eta) D + 2
    (the two floors), with eta = D 2^-P <= 2^-(W + 8) while D <= 2^(G - 8),
    and (1 + eta)^k <= 2.  From D_0 = sqrt(2) (2n + 7), D_k < 2^(k + 1)
    (D_0 + 2) < 2^(k + 1) (3P + 12) <= 2^(G - 8), as 2^(2 (W +
    k).bit_length() + 3) >= 8 (W + k)^2 >= 3P + 12.  Shifted to W that is
    under 2^-8 units, before each component's floor.
    """
    x, y = z
    r = math.isqrt(W) // 2 + 2
    k = max(0, max(abs(x), abs(y)).bit_length() - W) + r
    G = k + 2 * (W + k).bit_length() + 12
    P = W + G
    ur, ui = x << G - k, y << G - k
    sr, si = tr, ti = 1 << P, 0
    for j in itertools.count(1):
        tr, ti = ((tr * ur - ti * ui) >> P) // j, ((tr * ui + ti * ur) >> P) // j
        if -1 <= tr <= 1 and -1 <= ti <= 1:
            break
        sr += tr
        si += ti
    for _ in range(k):
        sr, si = (sr + si) * (sr - si) >> P, sr * si >> P - 1
    return sr >> G, si >> G


def fixed_expjpi(a, b, W):
    """e^(pi i a/b) for integers a and b > 0, as a pair at W: each component
    floored, off by under 1 + 2^-10 units of 2^-W.

    With m the integer nearest 2a/b, a/b = m/2 + f with |f| <= 1/4, and
    e^(pi i a/b) = i^m e^(pi i f).  At P = W + 12, theta = pi f is formed
    from fixed_pi(P) and the exact f, off by under 1/4 (1 + 2^-8) + 1 <
    1.26 units, which moves e^(i theta) by as much; fixed_exp adds under 1
    + 2^-8 per component.  The rotation by i^m is exact, and the shift to
    W divides the under 2.27 units by 2^12 before each component's floor.
    """
    m = (4 * a + b) // (2 * b)
    P = W + 12
    c, s = fixed_exp((0, fixed_pi(P) * (2 * a - m * b) // (2 * b)), P)
    for _ in range(m % 4):
        c, s = -s, c
    return c >> 12, s >> 12


def fixed_qabs(s, a, d, W):
    """|q| = e^(-2 pi Im tau) at Im tau = a sqrt(s)/d, for integers s >= 1,
    a >= 0 and d > 0 with a sqrt(s)/d <= sqrt(3)/2, floored at W, off by
    under 1 + 2^-9 units of 2^-W.

    At P = W + 12, x = 2 pi a sqrt(s)/d is formed from fixed_pi(P) (off by
    under 1 + 2^-8 units) and isqrt(s 2^2P), the floor of sqrt(s) 2^P: exact
    where s is a square, else under one unit off.  As 2a/d <= sqrt(3/s),
    their product is off by under sqrt(3) (1 + 2^-8) + pi sqrt(3/2) < 5.6
    units (the second term is 0 at s = 1 and at most pi sqrt(3/s) from s =
    2 on), so x, with its own floor, by under 6.6; and x <= pi sqrt(3).  e^-x
    moves by at most that much (x >= 0), and fixed_exp adds under 1 + 2^-8:
    under 7.7 units of 2^-P, 2^-9 units of 2^-W, before the floor.
    """
    P = W + 12
    x = fixed_pi(P) * math.isqrt(s << 2 * P) * 2 * a // (d << P)
    return fixed_exp((-x, 0), P)[0] >> 12


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
    all its bits.  sqrt(3) is floored at K bits, K = 3 bits past those of
    |B| 2^(W + e) / (2 d scale) (at least 0), so it lowers the imaginary
    component by under 1/4 unit before its floor: that is off by under 5/4
    units, the real one by under 1, and v by under 2 (sqrt(1 + 25/16)), a
    relative error under 2^-(W + 16), which moves the root by under
    |a|^(1/n) 2^-(W + 16).  A floor keeps the sign of the imaginary part
    (a negative one floors to at most -1, as floor(sqrt(3) 2^K) >= 1), so v
    lies on a's side of the negative real axis, where an imaginary part of
    0 means arg pi, as in mpmath.

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
    K = max(abs(B).bit_length() + W + e - den.bit_length() + 3, 0)  # sqrt(3)'s bits
    im, sh = abs(B) * math.isqrt(3 << 2 * K), W + e - K
    im = im if B >= 0 else -im
    vr, vi = (c << W + e) // den, (im << sh) // den if sh >= 0 else im // (den << -sh)
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
    """(found, stop): found is (x, N(gamma)) for x = alpha/gamma in K near v
    (a pair at W), the last convergent of v's nearest-integer continued
    fraction over Z[w] (Hurwitz, Acta Math. 11, 1887) before the first whose
    denominator has N(gamma) > B = 2^norm_bits, kept when it lies within 8/B
    of v, and None otherwise.  stop is floor(log2 N(k)) for the partial
    quotient k of that first convergent, where the expansion stops, or None
    where the expansion ends inside the bound (or norm_bits < 0).  The last
    kept convergent lies about 1/(N(gamma) |k|) from v, so a large stop
    quotient marks one unusually near v.

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
        return None, None
    bound = 1 << norm_bits
    na, nb = _coords(v, W)  # num = na + nb w, den = da + db w
    da, db = 1 << W, 0
    pa, pb, p1a, p1b = 1, 0, 0, 0  # p_(k-1), p_(k-2)
    qa, qb, q1a, q1b = 0, 0, 1, 0  # q_(k-1), q_(k-2)
    stop = None
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
            stop = (ka * ka - ka * kb + kb * kb).bit_length() - 1
            break
        pa, pb, p1a, p1b, qa, qb, q1a, q1b = ra, rb, pa, pb, sa, sb, qa, qb
        na, nb, da, db = da, db, na - (ka * da - kb * db), nb - (ka * db + kb * da - kb * db)
    # q_0 = 1 is within every bound; x = p/q = p conj(q) / N(q)
    n = qa * qa - qa * qb + qb * qb
    x = QOmega.from_ints(pa * (qa - qb) + pb * qb, pb * qa - pa * qb, n)
    xr, xi = fixed_of(x, W)
    miss2 = (xr - v[0]) ** 2 + (xi - v[1]) ** 2
    return ((x, n) if miss2 << 2 * norm_bits < 64 << 2 * W else None), stop


# ----------------------------------------------------------- base lattice


SERIES_RADIUS = Fraction(7, 20)  # |z/Omega| up to which wp is summed; else halve first

_base_cache = {}


def wp_laurent_fixed(g3, count, B):
    """[c_3, c_6, ..., c_(3 count)] of wp = z^-2 + sum c_m z^(2m-2) for a
    lattice with g2 = 0, as integers scaled by 2^B from g3 at B.

    Differentiating wp'^2 = 4 wp^3 - g3 gives the classical recurrence c_m =
    3 sum_(h=2)^(m-2) c_h c_(m-h) / ((m - 3)(2m + 1)) with c_2 = 0 and c_3 =
    g3/28; with g2 = 0 only m = 0 mod 3 survives, and at m = 3j it reads
    c_(3j) = sum_(a=1)^(j-1) c_(3a) c_(3j-3a) / ((j - 1)(6j + 1)).  The sum
    is symmetric in a <-> j - a, so each product is formed once.  Each sum
    of products is exact at 2^(2B), with one floor per coefficient."""
    c = [0, g3 // 28]
    for j in range(2, count + 1):
        s = 2 * sum(map(operator.mul, c[1 : (j + 1) // 2], c[j - 1 : j // 2 : -1]))
        if j % 2 == 0:
            s += c[j // 2] * c[j // 2]
        c.append(s // ((j - 1) * (6 * j + 1) << B))
    return c[1:]


def _base_lattice(prec):
    """(g3, C) of the reference lattice Z[w], computed once per precision,
    as integers scaled by 2^W, W = prec + GUARD_BITS, each the nearest to
    its value unless that lies within 2^-30 units of 2^-W of a half-unit.

    g3 = 140 G_6 and G_6 = 2 zeta(6) E_6 = 2 pi^6 E_6 / 945, so g3 = (8/27)
    pi^6 E_6, with q = -e^(-pi sqrt(3)).  E_4 vanishes at this point, which
    is checked as a self-test of the series.  C[k] = (6k+5) G_(6k+6) =
    c_(3k+3): the coefficients of wp_0 - xi^-2 in xi^(6k+4), which are real
    because Z[w] is closed under conjugation.  There are kmax of them,
    enough for the series to reach 2^-(prec + 48) inside SERIES_RADIUS:
    G_6k tends to 6 (the six units), so each term gains -6
    log2(SERIES_RADIUS) bits.

    Everything is summed in integers at B = W + 2 kmax.bit_length() + 48
    bits and rounded to W at the end.  In units of 2^-B:
    - |q| (fixed_qabs) is off by under 1.002; pi (fixed_pi) by under 1.004,
      pi^2, pi^4 and pi^6 (truncated products) by under 7.4, 146 and 2170;
    - the sums h = sum_(n <= nmax) sigma(n) q^n run by Horner in q, h <- q
      (sigma(n) + h), so the error from q is damped by |q| < 1/230 at each
      step: under 2.4 units for sigma_5 (and sigma_3), from (1.002 (1 +
      0.15) + 1) for n = 1 and a geometric rest; the tail past nmax = B//7
      + 8 is under one unit (|q| < 2^-7.8, sigma_5(n) < 1.04 n^5).  So E_6
      = 1 - 504 h_5 is off by under 504 * 3.4 < 1714, and E_4 = 1 + 240 h_3
      by under 2^10, far below the self-test's 2^(B - prec - 16);
    - g3 = 8 pi^6 E_6 / 27, with E_6 < 3, is off by under (8/27)(961.4 *
      1714 + 3 * 2170) + 1 < 2^19 units, a relative eps < 2^(10 - B) of g3
      = 820.8...
    Every G_6k is real, within 6.38 - 6 of 6 (sum over the nonzero omega of
    N(omega)^-3 = 6 zeta(3) L(3, chi_-3) < 6.38, of which the units give
    6), so every c_(3j) = (6j - 1) G_6j lies in [28, 6.38 (6j - 1)].  The
    c are positive and c_(3j) is homogeneous of degree j in g3, so in
    wp_laurent_fixed a relative error eta_a in c_(3a) sends a relative
    error at most eta_a + eta_(j-a) + eta_a eta_(j-a) into each product,
    and the floor adds tau = 2^-B / 28: by induction c_(3j) is off by a
    relative (2j - 1)(eps + tau), the square terms staying under eps
    while 4 j^2 eps < 1.  So C[k] is off by under 6.38 (6k + 5)(2k + 1)
    2^(10.1 - B) < 2^(16.4) kmax^2 2^-B < 2^-31.6 units of 2^-W, and g3
    by under 2^(19 - 48) units of 2^-W, before each is rounded.
    """
    if prec in _base_cache:
        return _base_cache[prec]
    W = prec + GUARD_BITS
    kmax = int((prec + 48) / (-6 * math.log2(SERIES_RADIUS))) + 6
    B = W + 2 * kmax.bit_length() + 48
    Q = fixed_qabs(3, 1, 2, B)  # |q| = e^(-pi sqrt(3)), Im w = sqrt(3)/2
    nmax = B // 7 + 8
    sigma3 = [0] * (nmax + 1)
    sigma5 = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        d3, d5 = d**3, d**5
        for m in range(d, nmax + 1, d):
            sigma3[m] += d3
            sigma5[m] += d5
    h3 = h5 = 0  # sum sigma(n) q^n, q = -Q
    for n in range(nmax, 0, -1):
        h3 = -((sigma3[n] << B) + h3) * Q >> B
        h5 = -((sigma5[n] << B) + h5) * Q >> B
    e4, e6 = (1 << B) + 240 * h3, (1 << B) - 504 * h5
    if abs(e4) >= 1 << (B - prec - 16):
        raise AssertionError("E4 must vanish on Z[w]")
    pi2 = fixed_pi(B) ** 2 >> B
    pi6 = (pi2 * pi2 >> B) * pi2 >> B
    g3 = 8 * pi6 * e6 // (27 << B)
    half = 1 << (B - W - 1)
    C = [(c + half) >> (B - W) for c in wp_laurent_fixed(g3, kmax, B)]
    _base_cache[prec] = (g3 + half) >> (B - W), C
    return _base_cache[prec]


class PeriodLattice(Frozen):
    """L = Omega * Z[w], the period lattice of y^2 = x^3 + D/4, held as
    inv = Omega^-1, a pair at W = prec + GUARD_BITS."""

    __slots__ = ("inv", "prec")

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
    integer g3 of _base_lattice (principal_root, which gives the proof).
    That g3 = 820.8... is held within one unit of 2^-W, a relative error
    under 2^-(W + 9), which moves the root by under |Omega^-1| 2^-(W + 12);
    principal_root adds under 1 + 1/32 + |Omega^-1| 2^-16 units.  So while
    |Omega^-1| < 2^10 (|D| < 2^69), Omega^-1 is off by under 2 units of
    2^-W: 1 from the floor, under 1/4 from g3 and under 1/16 from the Newton
    steps and the radicand.  The conjugate curve has the conjugate lattice
    (PeriodLattice.conj), as the principal root commutes with conjugation
    off the negative real axis."""
    if not D:
        raise ValueError("D must be nonzero")
    g3, _ = _base_lattice(prec)
    return PeriodLattice(principal_root(-D, 6, prec + GUARD_BITS, g3), prec)


# -------------------------------------------------------------- wp values


def wp_eval(L, z):
    """(wp(z), wp'(z)) for the lattice L, pairs at L's W = prec + GUARD_BITS
    for z a pair at W (prec = L.prec).

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
    prec, W, inv = L.prec, L.W, L.inv
    _, C = _base_lattice(prec)
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


# r(n) <= IDEAL_COUNT_BOUND n^(1/4) for the number r(n) of ideals of Z[w] of
# norm n: (2/7^(1/4)) (2/13^(1/4)) = 4/91^(1/4) = 1.295089..., rounded up
IDEAL_COUNT_BOUND = 1.2951


@functools.lru_cache(maxsize=64)
def terms_needed(im_tau, prec):
    """Terms M so that sum_{n>M} |a_n|/n |q|^n < 2^-prec for every form here,
    from C (M+1)^(-1/4) |q|^(M+1) / (1 - |q|^3), C = IDEAL_COUNT_BOUND.

    Proof.  a_n sums psi over the ideals of norm n prime to the conductor
    (heckeform), with |psi(a)| = sqrt(N(a)), so |a_n| <= r(n) sqrt(n) for
    r(n) the number of ideals of Z[w] of norm n, and a_n = 0 off n = 1 mod
    3.  r is multiplicative: r(l^e) is e + 1 for a split prime l (l = 1 mod
    3), 1 or 0 for an inert one and 1 for 3.  So r(n) n^(-1/4) is the
    product over l^e || n of r(l^e) l^(-e/4), each at most 1 except at the
    split l < 16, 7 and 13: (e + 1) l^(-e/4) <= 1 once l >= 2^4 (e + 1 <=
    2^e), and it falls in e from e = 1 at l = 7 and 13, where it is
    2/7^(1/4) and 2/13^(1/4).  The product of those is the sharp C (r(91)
    = 4), so |a_n|/n <= C n^(-1/4) <= C (M+1)^(-1/4) for n > M, and the n =
    1 mod 3 past M are at least M + 1 and 3 apart: the tail is under C
    (M+1)^(-1/4) |q|^(M+1) / (1 - |q|^3).

    M.  With a = -log|q| = 2 pi Im(tau) and x = prec log 2 + log(C / (1 -
    |q|^3)), the tail is under 2^-prec once t = M + 1 has a t + log(t)/4 >=
    x.  Let t_hi = x/a, t_lo = max(1, t_hi - log(t_hi)/(4a)) (1 where t_hi
    <= 1) and t0 = (x - log(t_lo)/4)/a.  Every t >= max(t0, t_lo) has log t
    >= log t_lo and so meets that condition, and t = M + 1 is one: it is
    over t0 and at least 1, and where t_lo > 1, t_lo <= t_hi gives t0 >=
    (x - log(t_hi)/4)/a = t_lo.  The floats are off by a relative 2^-50 or
    so; M = floor(t0) + 8 covers them.

    Memoized: an attempt asks for its M in parametrize._attempt_site (the
    term cap) and again in eval_z, both through site_terms.
    """
    im = float(im_tau)
    if im <= 0:
        raise ValueError("site must be in the upper half plane")
    a = 2 * math.pi * im
    x = prec * math.log(2) + math.log(IDEAL_COUNT_BOUND / -math.expm1(-3 * a))
    t_hi = x / a
    t_lo = max(1, t_hi - math.log(t_hi) / (4 * a)) if t_hi > 1 else 1
    M = int((x - math.log(t_lo) / 4) / a) + 8
    return max(M, 16)


class Site(Frozen):
    """A site tau of eval_z, given exactly: re6 = (a6, d6) with 6 Re(tau) =
    a6/d6, and im = (s, a, d) with Im(tau) = a sqrt(s)/d <= sqrt(3)/2 (as
    fixed_qabs asks), all ints.  cmpoint.EvalSite has the same two fields;
    the Fricke sites of _fricke lie on the imaginary axis, re6 = (0, 1)."""

    __slots__ = ("re6", "im")


def site_terms(site, prec):
    """terms_needed at a site, keyed by Im(tau) = a sqrt(s)/d (site.im) as
    a float."""
    s, a, d = site.im
    return terms_needed(math.sqrt(s) * (a / d), prec)


KERNEL_GUARD_BITS = 2


def eval_z(form, site, prec=192):
    """(z, z^c): z(tau) = sum a_n/n q^n over n <= M = terms_needed(Im tau,
    prec), the Abel-Jacobi image of tau, for the form and its conjugate,
    from one pass over the compact slots, as pairs at prec + GUARD_BITS.
    The site is exact: a Site or a cmpoint.EvalSite (re6 and im).
    The form must carry at least M coefficients (a ValueError otherwise).

    a_n vanishes off n = 1 mod 3, so z = q P(x) with x = q^3 and P(x) =
    sum_k a_(3k+1)/(3k+1) x^k over the K = ceil(M/3) steps k < K, the
    form's compact slots.  With a_(3k+1) = alpha[k] + beta[k] w, P splits as
    U + V w and the conjugate form's as U + V conj(w), so one pass sums U
    and V.  The form stores b_n, with a_n = w^e(n) b_n for p not dividing n
    and a_(pm) = pibar a_m (heckeform).

    Columns: the slots split by k mod L into L columns, U = sum_(j < L)
    x^j U_j with U_j = sum_g alpha_n/n X^g over n = 3(j + Lg) + 1 and X =
    x^L, and V likewise.  With l = lcm(den, p), den the denominator of 6
    Re(tau) = a6/d6 (site.re6), L is the multiple of l nearest isqrt(K), at
    least l, or K (one row) where that reaches K.  So X = e^(6 pi i L tau) =
    (-1)^(6 L Re tau) e^(-6 pi L Im tau) is real wherever a second row
    exists, and a column holds one residue of n mod p.  Off p | n it is a
    unit column, U_j + V_j w = w^e S_j with S_j = sum_g b_n (X^g // n).
    The S_j are summed row by row: row g is the L slots from Lg, and only
    its nonzero b_n are visited (itertools.compress; at the solve sites over
    half the slots hold b_n = 0), each adding one floor division and one
    small-integer product into its column's S_j; then U_j and V_j are S_j
    times the unit's coordinates.  A column of n = pm (1/p of the slots,
    b_n = 0 there) is pibar times the sum of its a_m (alpha_m, beta_m),
    whose slots k // p are the first K/p + 1 of the store.  Each sum is the same integer in
    any order, so the order of the terms leaves z unchanged to the bit.
    The columns are combined by rectangular splitting in x:
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
      and V_j (0 or +-S_j), a term of a column p | n by (|alpha_n| +
      |beta_n|)(1 + 1/L) units (pibar times the a_m sum is the a_n sum,
      integer for integer); as |b_n| = |a_n| <= |alpha_n| + |beta_n|, the
      latter bounds both;
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
    bits, each floored within 1 + 2^-8 units: zeta is fixed_expjpi of 2
    Re(tau) = a6/(3 d6) and E is fixed_qabs of site.im = (s, a, d).
    x = q^3 and X = (-1)^(6 L Re tau) E^(3L) come from integer products
    (the (3L).bit_length() bits absorb E's error, raised to the 3L-th
    power) and are rounded to W, each off by about one unit of 2^-W.
    The last product, q (U + V w) and q (U + V conj(w)), is in integers too.
    """
    M = site_terms(site, prec)
    a6, d6 = site.re6  # 6 Re(tau) = a6/d6
    if M > form.terms:
        raise ValueError(f"form has {form.terms} coefficients, site needs {M}")
    W = prec + GUARD_BITS + KERNEL_GUARD_BITS + 2 * M.bit_length()
    K = (M + 2) // 3
    b, p = form.b, form.p  # slot k holds b_(3k+1)
    ell = math.lcm(d6 // math.gcd(a6, d6), p)
    L = min(ell * max(1, round(math.isqrt(K) / ell)), K)
    Wq = W + 8 + (3 * L).bit_length()
    E = fixed_qabs(*site.im, Wq)
    zr, zi = fixed_expjpi(a6, 3 * d6, Wq)  # 2 Re(tau) = a6/(3 d6)
    q = (E * zr >> Wq, E * zi >> Wq)
    X, n = 1 << Wq, 3 * L
    while n:  # E^(3L) by squaring
        if n & 1:
            X = X * E >> Wq
        E = E * E >> Wq
        n >>= 1
    t = L * a6  # 6 L Re(tau) = t/d6, an integer wherever X is used
    if t // math.gcd(t, d6) % 2:
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

    def pair_column(ns, xs, ys):  # sum (x_n + y_n w) (X^g // n)
        u = v = 0
        for n, x, y, t in zip(ns, xs, ys, Xg):
            if x or y:
                t //= n
                u += x * t
                v += y * t
        return u, v

    # S_j = sum_g b_n (X^g // n), row by row over the b_n != 0
    S, cols = [0] * L, range(L)
    for t, k0 in zip(Xg, range(0, K, L)):
        row, n0 = b[k0 : min(k0 + L, K)], 3 * k0 + 1
        for j in itertools.compress(cols, row):
            S[j] += row[j] * (t // (n0 + 3 * j))
    ea, eb = form.units()  # a_n = w^e b_n, w^e = ea + eb w at j mod p
    U = list(map(operator.mul, itertools.cycle(ea), S))
    V = list(map(operator.mul, itertools.cycle(eb), S))
    # the columns of n = pm (3j + 1 = 0 mod p, where S_j = 0): pibar
    # times the a_m, at the slots k // p = j // p + (L/p) g, m < K/p + 1
    alpha, beta = form.pairs((K - 1) // p + 1)
    pibar, step = split_prime(p).pibar, max(L // p, 1)
    for j in range((p - 1) // 3, L, p):
        u, v = pair_column(range(3 * j + 1, 3 * K, 3 * L), alpha[j // p :: step], beta[j // p :: step])
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


def _fricke(p, i, prec):
    """(C, z_f(tau0), z_fc(tau0)) at the Fricke involution's fixed point
    tau0 = i/sqrt(N), from z alone, as pairs at W = prec + GUARD_BITS.

    f(W tau) = C N tau^2 f^c(tau) with W tau = -1/(N tau) gives d/dtau
    z_f(W tau) = C dz_fc/dtau, so z_f(W tau) = C z_fc(tau) + z0 with a
    constant z0 (the image of the cusp 0), and the sites tau0 = W tau0 and
    2 tau0, with W(2 tau0) = tau0/2, give C = (z_f(tau0) - z_f(tau0/2)) /
    (z_fc(tau0) - z_fc(2 tau0)).  The three sites lie on the imaginary axis,
    at Im tau = sqrt(N)/N, 2 sqrt(N)/N and sqrt(N)/(2N).
    """
    _, N = conductor_and_level(p, i)
    tau0, double, half = (Site((0, 1), (N, a, d)) for a, d in ((1, N), (2, N), (1, 2 * N)))
    form = build_form(p, i, site_terms(half, prec))
    z_f, z_fc = eval_z(form, tau0, prec)
    zh, zd = eval_z(form, half, prec)[0], eval_z(form, double, prec)[1]
    num, den = (z_f[0] - zh[0], z_f[1] - zh[1]), (z_fc[0] - zd[0], z_fc[1] - zd[1])
    return fixed_div(num, den, prec + GUARD_BITS), z_f, z_fc


def fricke_constant(p, i, prec=192):
    """C with f(-1/(N tau)) = C N tau^2 f^c(tau), measured from z (_fricke),
    as a pair at W = prec + GUARD_BITS.

    Contracts: |C| = 1 and C^6 = pi^(2i)/pibar^(2i) (up to the sixth root of
    unity that stays unpinned); verify's fixtures check both, not this.
    """
    return _fricke(p, i, prec)[0]


def l_value_and_cusp_zero(p, i, prec=192, conjugate=False):
    """z0 = L(f, 1), the Abel-Jacobi image of the cusp 0, as a pair at W =
    prec + GUARD_BITS.

    Splits the integral at the fixed point of the Fricke involution:
    z0 = z_f(i/sqrt(N)) - C z_fc(i/sqrt(N)).  Checks that z0 is a primitive
    sqrt(-3)-division point of the period lattice and that its wp-image has
    x = 0 (so y = +-pibar^i/2), each up to 2^-(prec-40) max(1, |y|),
    compared in integers (squared); raises TorsionCheckFailed otherwise.
    conjugate=True does the same for f^c from f's pairs, swapped.
    """
    split = split_prime(p)
    base = split.pi if conjugate else split.pibar
    W = prec + GUARD_BITS
    C, z_f, z_fc = _fricke(p, i, prec)
    if conjugate:  # at tau0 = -1/(N tau0), f^c's constant is 1/C
        C, z_f, z_fc = fixed_div((1 << W, 0), C, W), z_fc, z_f
    cz = fixed_mul(C, z_fc, W)
    z0 = (z_f[0] - cz[0], z_f[1] - cz[1])

    L = lattice_of_curve(base ** (2 * i), prec)
    s3 = fixed_sqrt3(W)
    z0s3 = (-z0[1] * s3 >> W, z0[0] * s3 >> W)  # z0 sqrt(-3)
    if not L.contains(z0s3, tol_bits=prec // 2):
        res = L.residual(z0s3) / 2**W
        raise TorsionCheckFailed(f"sqrt(-3)*z0 not in L (residual {res:.3g})")
    if L.residual(z0) < 1 << (W - 2):
        raise TorsionCheckFailed("z0 lies in L itself; cusp image is not primitive")
    x, wpd = wp_eval(L, z0)
    y = (wpd[0] >> 1, wpd[1] >> 1)
    hr, hi = fixed_of(base.to_q() ** i / 2, W)
    x2, y2 = x[0] * x[0] + x[1] * x[1], y[0] * y[0] + y[1] * y[1]
    d2 = min((y[0] - hr) ** 2 + (y[1] - hi) ** 2, (y[0] + hr) ** 2 + (y[1] + hi) ** 2)
    # |.|^2 > 2^-2(prec-40) max(1, |y|^2), all scaled by 2^(2W)
    tol = max(1 << 2 * W, y2)
    if x2 << 2 * (prec - 40) > tol:
        raise TorsionCheckFailed(f"|wp(z0)| = 2^{(math.log2(x2) - 2 * W) / 2:.2f} is not 0")
    if d2 << 2 * (prec - 40) > tol:
        raise TorsionCheckFailed(f"wp'(z0)/2 is 2^{(math.log2(d2) - 2 * W) / 2:.2f} from +-pibar^i/2")
    return z0


def gauss_sum(p, pi, prec=160):
    """tau(chi) = sum_u chi(u) e^(2 pi i u/p) for chi = (./pi)_3, as a pair
    at W = prec + GUARD_BITS, off by under 3p units of 2^-W per component.

    With S_k the sum of e^(pi i 2u/p) (fixed_expjpi, each off by under 1 +
    2^-10 units per component) over the u with chi(u) = w^k, tau = S_0 + w
    S_1 + w^2 S_2 = (S_0 - S_2) + w (S_1 - S_2), as w^2 = -1 - w.  Each u
    is in one S_k, so each difference is off by under (p - 1)(1 + 2^-10)
    units per component, and w X = ((-X_re - sqrt(3) X_im) + (sqrt(3) X_re
    - X_im) i)/2 scales X's error by under (1 + sqrt(3))/2 < 1.37 and adds
    under 2 units of floors: under 2.37 (p - 1)(1 + 2^-10) + 2 < 3p.
    """
    W = prec + GUARD_BITS
    S = [[0, 0], [0, 0], [0, 0]]
    for u, k in enumerate(cubic_char_table(p, pi)[1:], 1):
        c, s = fixed_expjpi(2 * u, p, W)
        S[k][0] += c
        S[k][1] += s
    xr, xi = S[1][0] - S[2][0], S[1][1] - S[2][1]
    s3 = fixed_sqrt3(W)
    wr, wi = (-xr - (xi * s3 >> W)) >> 1, ((xr * s3 >> W) - xi) >> 1
    return S[0][0] - S[2][0] + wr, S[0][1] - S[2][1] + wi
