"""Exact elliptic-curve arithmetic on the models y^2 = x^3 + D/4.

Points live over Q(w) (or Q, the b-components zero); all group law and
descent arithmetic is exact rational, integer-normalised: each coordinate is
a QOmega (A + B w)/d with d > 0 and gcd(A, B, d) = 1 — no floating point
crosses into this module.  The CM action is [w](x, y) = (w x, y), and
sqrt(-3) = 1 + 2w.

The descent's maps are closed forms, each coordinate formed on integer
numerators and denominators and normalized once (mul_sqrt_m3, trace,
sub_torsion); the group law stays for everything else.

[sqrt(-3)].  On E: y^2 = x^3 + D/4 the points (0, +-sqrt(D)/2) are
inflection points, so with O they form a subgroup of order 3.  Velu's
formulas for that kernel (Velu, C. R. Acad. Sci. Paris 273, 1971;
Silverman, The Arithmetic of Elliptic Curves, III.4) give the 3-isogeny
    phi(x, y) = ((x^3 + D)/x^2, y (x^3 - 2D)/x^3)
onto E': Y^2 = X^3 - 27D/4.  Check: with y^2 = x^3 + D/4, Y^2 x^6 =
(x^3 + D/4)(x^3 - 2D)^2 = x^9 - (15/4) D x^6 + 3 D^2 x^3 + D^3, and
X^3 x^6 = (x^3 + D)^3 = x^9 + 3D x^6 + 3 D^2 x^3 + D^3, which is larger
by (27/4) D x^6.  psi(X, Y) = (-X/3, Y/(-3 sqrt(-3))) maps E' back onto
E, as Y^2/(-27) = -X^3/27 + D/4.  On the invariant differentials
dx/(2y) of E and dX/(2Y) of E': dX = (x^3 - 2D)/x^3 dx, so phi pulls
dX/(2Y) back to dx/(2y), and psi pulls dx/(2y) back to (-1/3) dX
(-3 sqrt(-3))/(2Y) = sqrt(-3) dX/(2Y).  So psi phi multiplies dx/(2y)
by sqrt(-3), as [1 + 2w] = [1] + [w][2] does ([w] multiplies it by w).
An endomorphism is fixed by that multiplier in characteristic 0
(Silverman, III.5), so psi phi = [sqrt(-3)]:
    [sqrt(-3)](x, y) = (-(x^3 + D)/(3x^2), y (x^3 - 2D)/(-3 sqrt(-3) x^3)),
and O at x = 0, the kernel.

Trace.  For D rational, conj(P) lies on E too and P + conj(P) is fixed by
conjugation, so it is over Q.  With x = (x_A + x_B w)/d_x and y = (y_A +
y_B w)/d_y, x - conj(x) = x_B sqrt(-3)/d_x and y - conj(y) = y_B
sqrt(-3)/d_y (as w - w^2 = sqrt(-3)), so the chord through P and conj(P)
has slope (y - conj(y))/(x - conj(x)) = y_B d_x/(d_y x_B): the sqrt(-3)
cancels, and the slope is rational.  When x_B = 0 there is no chord
(conj(P) = +-P), and trace takes add's tangent or vertical case.

The exact identities are tested on numerators and denominators,
cross-multiplied, with no gcd: the curve equation (CurvePoint.on_curve, in
Z[w]), the isogeny identity Y^2 = X^3 - 432 p^(2i) and the cube identity
u^3 + v^3 = p^i.  isogeny_to_432 and to_cube_sum take rational points
only, build X, Y and u, v on the integers and normalize each once.

Nontorsion is certified by reduction at two good primes q1, q2: the torsion
order divides g = gcd(#E(F_q1), #E(F_q2)), so [g]P != O is a proof.  That
statement is decided at the witness prime l = 2^61 - 1.  l = 1 mod 9, so l
is never an eligible p, and l is prime to 6p, so y^2 = x^3 + p^(2i)/4 has
good reduction at l and reduction E(Q) -> E~(F_l) is a group homomorphism
(Silverman, The Arithmetic of Elliptic Curves, VII.2.1).  Hence
[g]P~ = reduction of [g]P, and [g]P~ != O~ in E~(F_l) proves [g]P != O.
Only when the witness reads O~ (P~ = O~ because l divides a denominator of
P, or [g]P~ = O~) is [g]P formed over Q, so the verdict is exactly
[g]P != O for every point.  [g]P~ is formed in Jacobian coordinates, with
no inversion: [g]P~ = O~ exactly when its Z is 0.

[3]T = O for the torsion side T = (0, t) needs no group law: on its curve,
with t != 0, the tangent at T is horizontal, so [2]T = (0, -t) = -T
(is_torsion_at_zero).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .eisenstein import (
    EisensteinInt,
    Frozen,
    QOmega,
    _coerce_q,
    count_points_bruteforce,
    is_prime_int,
)


class MixedCurves(ValueError):
    pass


class KernelPoint(ValueError):
    pass


class DegenerateImage(ValueError):
    pass


class BadReduction(ValueError):
    pass


class DescentFailed(RuntimeError):
    pass


def _q(x):
    q = _coerce_q(x)
    return QOmega(x) if q is None else q


def _zmul(a, b):
    """(a0 + a1 w)(b0 + b1 w) in Z[w], as a pair (no EisensteinInt objects:
    on_curve runs several times an attempt)."""
    bb = a[1] * b[1]
    return a[0] * b[0] - bb, a[0] * b[1] + a[1] * b[0] - bb


class CurvePoint(Frozen):
    """A point on y^2 = x^3 + D/4, or the point at infinity (x = y = None)."""

    # DescentFailed and sub_torsion's ValueError embed points in the repr
    __slots__ = ("D", "x", "y")

    @staticmethod
    def infinity(D):
        return CurvePoint(_q(D), None, None)

    @staticmethod
    def make(D, x, y):
        P = CurvePoint(_q(D), _q(x), _q(y))
        if not P.on_curve():
            raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + ({D})/4")
        return P

    @property
    def is_infinity(self):
        return self.x is None

    def on_curve(self):
        """y^2 = x^3 + D/4, multiplied through by 4 d_D d_x^3 d_y^2 (the
        denominators) and compared in Z[w]."""
        if self.is_infinity:
            return True
        x, y, D = self.x, self.y, self.D
        X = (x.A, x.B)
        y2, x3 = _zmul((y.A, y.B), (y.A, y.B)), _zmul(_zmul(X, X), X)
        dx3, dy2 = x.d**3, y.d**2
        cy, cx, cD = 4 * D.d * dx3, 4 * D.d * dy2, dx3 * dy2
        return cy * y2[0] == cx * x3[0] + cD * D.A and cy * y2[1] == cx * x3[1] + cD * D.B

    def is_rational(self):
        return self.is_infinity or (self.x.is_rational() and self.y.is_rational())

    def __neg__(self):
        if self.is_infinity:
            return self
        return CurvePoint(self.D, self.x, -self.y)

    def conj(self):
        """Galois conjugation w -> w^2 on coordinates (D must be rational)."""
        if self.is_infinity:
            return self
        return CurvePoint(self.D, self.x.conj(), self.y.conj())


def add(P, Q):
    if P.D != Q.D:
        raise MixedCurves(f"{P.D} != {Q.D}")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint.infinity(P.D)
        lam = 3 * P.x * P.x / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return CurvePoint(P.D, x3, y3)


def mul(n, P):
    if n < 0:
        return mul(-n, -P)
    R = CurvePoint.infinity(P.D)
    B = P
    while n:
        if n & 1:
            R = add(R, B)
        n >>= 1
        if n:  # no doubling past the top bit
            B = add(B, B)
    return R


def is_torsion_at_zero(T):
    """True when T = (0, t) with t != 0 is on its curve, which proves
    [3]T = O: the tangent at x = 0 has slope 3x^2/(2y) = 0, so [2]T =
    (0, -t) = -T.  Any other point, O and points off the curve included,
    is refused (False)."""
    return not T.is_infinity and not T.x and bool(T.y) and T.on_curve()


def endo_omega(P):
    """The CM automorphism [w](x, y) = (w x, y)."""
    if P.is_infinity:
        return P
    return CurvePoint(P.D, QOmega(0, 1) * P.x, P.y)


def _zconj(a):
    """conj(a0 + a1 w) = (a0 - a1) - a1 w, as a pair."""
    return a[0] - a[1], -a[1]


def _znorm(a):
    return a[0] * a[0] - a[0] * a[1] + a[1] * a[1]


def mul_sqrt_m3(P):
    """[sqrt(-3)] P = (-(x^3 + D)/(3x^2), y(x^3 - 2D)/(-3 sqrt(-3) x^3)), O
    at x = 0 (the kernel): the 3-isogeny and the isomorphism back of the
    module docstring.  With x = X/d_x, y = Y/d_y and D = D_n/d_D (X, Y, D_n
    in Z[w]), and X^2 and X^3 cleared by conj(X)^2 and conj(X)^3 (N = N(X)),
    x' = -(d_D N^2 X + D_n d_x^3 conj(X)^2)/(3 d_D d_x N^2) and
    y' = sqrt(-3) Y (d_D N^3 - 2 D_n d_x^3 conj(X)^3)/(9 d_y d_D N^3), as
    1/(-3 sqrt(-3)) = sqrt(-3)/9; each is normalized once."""
    if P.is_infinity or not P.x:
        return CurvePoint.infinity(P.D)
    x, y, D = P.x, P.y, P.D
    X, Dn, dD = (x.A, x.B), (D.A, D.B), D.d
    N, cX = _znorm(X), _zconj(X)
    cX2 = _zmul(cX, cX)
    Ddx3 = _zmul(Dn, (x.d**3, 0))
    a = _zmul(Ddx3, cX2)
    N2 = dD * N * N
    xn = -(N2 * X[0] + a[0]), -(N2 * X[1] + a[1])
    b = _zmul(Ddx3, _zmul(cX2, cX))
    N3 = N2 * N
    yn = _zmul(_zmul((y.A, y.B), (N3 - 2 * b[0], -2 * b[1])), (1, 2))
    return CurvePoint(
        D,
        QOmega.from_ints(xn[0], xn[1], 3 * x.d * N2),
        QOmega.from_ints(yn[0], yn[1], 9 * y.d * N3),
    )


def trace(P):
    """P + conj(P), a point over Q, for P on a curve with D rational.

    With x = (x_A + x_B w)/d_x and y = (y_A + y_B w)/d_y, x - conj(x) =
    x_B sqrt(-3)/d_x and y - conj(y) = y_B sqrt(-3)/d_y, so the chord
    through P and conj(P) has the rational slope l = y_B d_x/(d_y x_B),
    and x3 = l^2 - Tr(x), Tr(x) = (2 x_A - x_B)/d_x.  In y3 = l(x - x3) - y
    the w-parts cancel (l x_B/d_x = y_B/d_y), so y3 = l(x_A/d_x - x3) -
    y_A/d_y.  A rational x (x_B = 0) is the tangent or vertical case of add.
    """
    if P.is_infinity:
        return P
    x, y = P.x, P.y
    if P.D.B:
        raise MixedCurves(f"{P.D} != {P.D.conj()}")
    if not x.B:
        return add(P, P.conj())
    lam = QOmega.from_ints(y.B * x.d, 0, y.d * x.B)
    ln, m, dx = lam.A, lam.d, x.d
    m2 = m * m
    x3 = QOmega.from_ints(ln * ln * dx - (2 * x.A - x.B) * m2, 0, m2 * dx)
    n3, e3 = x3.A, x3.d
    y3 = QOmega.from_ints(ln * (x.A * e3 - n3 * dx) * y.d - y.A * m * dx * e3, 0, m * dx * e3 * y.d)
    return CurvePoint(P.D, x3, y3)


def sub_torsion(P, T):
    """P - T for a point T = (0, t), by the chord through P and -T = (0, -t):
    slope l = (y + t)/x, x3 = l^2 - x, y3 = t - l x3.  At x = 0, P = +-T:
    P = T gives O and P = -T gives -2T = T, as add does.  With x = X/d_x,
    y = Y/d_y and t = t_n/d_t, l = d_x (d_t Y + d_y t_n) conj(X)/(d_y d_t
    N(X)); l, x3 and y3 are each normalized once."""
    if P.D != T.D:
        raise MixedCurves(f"{P.D} != {T.D}")
    if T.is_infinity or T.x:
        raise ValueError(f"{T} is not a point (0, t)")
    if P.is_infinity:
        return -T
    x, y, t = P.x, P.y, T.y
    if not x:
        return CurvePoint.infinity(P.D) if y == t else T
    X, dx = (x.A, x.B), x.d
    ln = _zmul((dx * (t.d * y.A + y.d * t.A), dx * (t.d * y.B + y.d * t.B)), _zconj(X))
    lam = QOmega.from_ints(ln[0], ln[1], y.d * t.d * _znorm(X))
    L, m = (lam.A, lam.B), lam.d
    m2 = m * m
    L2 = _zmul(L, L)
    x3 = QOmega.from_ints(L2[0] * dx - X[0] * m2, L2[1] * dx - X[1] * m2, m2 * dx)
    e3 = x3.d
    Ln3 = _zmul(L, (x3.A, x3.B))
    tm = m * e3
    y3 = QOmega.from_ints(t.A * tm - t.d * Ln3[0], t.B * tm - t.d * Ln3[1], t.d * tm)
    return CurvePoint(P.D, x3, y3)


def isogeny_to_432(P, p, i):
    """Image of the rational point P in E(p^i) : y^2 = x^3 + p^(2i)/4 on
    Y^2 = X^3 - 432 p^(2i).

    X = 4(x^3 + p^(2i))/x^2, Y = 8y(x^3 - 2 p^(2i))/x^3; the 3-isogeny with
    kernel {O, (0, +-p^i/2)} composed with the scaling (4, 8) (verified
    symbolically in the test suite).  With x = a/d and y = b/e, X = 4(a^3 +
    p^(2i) d^3)/(a^2 d) and Y = 8b(a^3 - 2 p^(2i) d^3)/(e a^3) are formed on
    the integers and normalized once; the identity is checked on their
    numerators and denominators, cross-multiplied.
    """
    n2 = p ** (2 * i)
    if P.is_infinity or P.x == QOmega(0):
        raise KernelPoint("point lies in the isogeny kernel")
    if not P.is_rational():
        raise ValueError("the isogeny applies to rational points")
    a, d, b, e = P.x.A, P.x.d, P.y.A, P.y.d
    a3, nd3 = a**3, n2 * d**3
    X = QOmega.from_ints(4 * (a3 + nd3), 0, a * a * d)
    Y = QOmega.from_ints(8 * b * (a3 - 2 * nd3), 0, e * a3)
    xd3 = X.d**3
    if Y.A * Y.A * xd3 != (X.A**3 - 432 * n2 * xd3) * Y.d * Y.d:
        raise AssertionError(f"isogeny image ({X}, {Y}) is off Y^2 = X^3 - 432 p^(2i)")
    return X, Y


class CubeSum(Frozen):
    __slots__ = ("u", "v", "target")

    def verify(self):
        """u^3 + v^3 = target, multiplied through by the denominators."""
        u, v = self.u, self.v
        ud3, vd3 = u.denominator**3, v.denominator**3
        return u.numerator**3 * vd3 + v.numerator**3 * ud3 == self.target * ud3 * vd3


def to_cube_sum(X, Y, p, i):
    """(u, v) with u^3 + v^3 = p^i from a rational point on Y^2 = X^3 - 432
    p^(2i): u, v = (36 p^i +- Y)/(6X), formed on the integers from X = NX/DX
    and Y = NY/DY as (36 p^i DY +- NY) DX / (6 NX DY), each normalized once;
    the identity is checked cross-multiplied (CubeSum.verify)."""
    X, Y = _q(X), _q(Y)
    n = p**i
    if not X:
        raise DegenerateImage("X = 0 has no cube-sum image")
    if not (X.is_rational() and Y.is_rational()):  # u, v are rational exactly when X, Y are
        raise DegenerateImage(f"image of ({X}, {Y}) is not rational")
    den = 6 * X.A * Y.d
    out = CubeSum(
        u=Fraction((36 * n * Y.d + Y.A) * X.d, den),
        v=Fraction((36 * n * Y.d - Y.A) * X.d, den),
        target=n,
    )
    if not out.verify():
        raise AssertionError(f"cube identity failed: ({out.u})^3 + ({out.v})^3 != {p}^{i}")
    return out


def reduction_count(D_int, q):
    """#E~(F_q) for y^2 = x^3 + D/4 with rational integer D, good odd q,
    counted point by point over F_q (the q of a certificate are small) and
    memoized by (D mod q, q), which every p shares."""
    return _count_mod(D_int % q, q)


@functools.cache
def _count_mod(d, q):
    return count_points_bruteforce(EisensteinInt(d, 0), q)


def good_reduction_primes(p, count=2, start=5):
    out = []
    q = start
    while len(out) < count:
        if is_prime_int(q) and q != p and q % 3 != 0 and q != 2:
            out.append(q)
        q += 2
    return out


WITNESS_PRIME = 2**61 - 1


def _witness_dbl(R, ell):
    """[2]R on y^2 = x^3 + c over F_ell in Jacobian coordinates (X, Y, Z),
    x = X/Z^2 and y = Y/Z^3, Z = 0 for O~: S = 4XY^2, M = 3X^2, X' = M^2 -
    2S, Y' = M(S - X') - 8Y^4, Z' = 2YZ (a 2-torsion R, Y = 0, gives Z' =
    0)."""
    X, Y, Z = R
    Y2 = Y * Y % ell
    S = 4 * X * Y2 % ell
    M = 3 * X * X % ell
    X3 = (M * M - 2 * S) % ell
    return X3, (M * (S - X3) - 8 * Y2 * Y2) % ell, 2 * Y * Z % ell


def _witness_add(R, S, ell):
    """R + S on y^2 = x^3 + c over F_ell in Jacobian coordinates, the
    chord-and-tangent law of add: H = U2 - U1 and r = S2 - S1 for U = X
    (Z')^2 and S = Y (Z')^3; H = 0 is the tangent (r = 0) or the vertical
    (O~)."""
    X1, Y1, Z1 = R
    X2, Y2, Z2 = S
    if not Z1:
        return S
    if not Z2:
        return R
    Z1s, Z2s = Z1 * Z1 % ell, Z2 * Z2 % ell
    U1, U2 = X1 * Z2s % ell, X2 * Z1s % ell
    S1, S2 = Y1 * Z2s * Z2 % ell, Y2 * Z1s * Z1 % ell
    H, r = (U2 - U1) % ell, (S2 - S1) % ell
    if not H:
        return _witness_dbl(R, ell) if not r else (1, 1, 0)
    H2 = H * H % ell
    H3, V = H2 * H % ell, U1 * H2 % ell
    X3 = (r * r - H3 - 2 * V) % ell
    return X3, (r * (V - X3) - S1 * H3) % ell, H * Z1 * Z2 % ell


def _witness_mul(n, P, ell):
    """[n]P~ in E~(F_ell) as a Jacobian triple (X, Y, Z), Z = 0 for O~; n >=
    0, P is rational and ell divides neither of its denominators.  Left-to-
    right double-and-add from P = (a/d, b/e) = (a d e^2, b d^3 e^2, d e),
    with no inversion: the certificate only asks whether Z = 0."""
    if not n:
        return 1, 1, 0
    a, d, b, e = P.x.A % ell, P.x.d % ell, P.y.A % ell, P.y.d % ell
    de = d * e % ell
    R = B = (a * de * e % ell, b * d * de * d * e % ell, de)
    for bit in bin(n)[3:]:  # the bits after the leading one
        R = _witness_dbl(R, ell)
        if bit == "1":
            R = _witness_add(R, B, ell)
    return R


class TorsionCertificate(Frozen):
    __slots__ = ("primes", "counts", "bound", "nontorsion", "witness")
    # witness: WITNESS_PRIME when it decided, None when [g]P was formed over Q


def nontorsion_certificate(P, p, i):
    """Certify P in E(p^i)(Q) nontorsion by the two-prime reduction bound.

    Any torsion order divides g = gcd of the two good-reduction counts, so
    [g]P != O proves P nontorsion; [g]P = O pins P as torsion (the known
    3-group {O, (0, +-p^i/2)}).

    [g]P != O is decided first at l = WITNESS_PRIME.  l is prime, l = 1
    mod 9 (so l != p for every eligible p) and l is prime to 6p, so the
    model y^2 = x^3 + p^(2i)/4 is l-integral with discriminant -27 p^(4i)
    prime to l: minimal at l, with good reduction.  Reduction
    E(Q) -> E~(F_l) is then a group homomorphism (Silverman, VII.2.1), so
    [g]P~ is the reduction of [g]P and [g]P~ != O~ proves [g]P != O.  When
    l divides a denominator of P (P~ = O~) or [g]P~ = O~, the witness
    proves nothing and [g]P is formed over Q; the torsion points always
    take that path.  The verdict is [g]P != O either way, and `witness`
    says which path gave it.
    """
    if P.is_infinity:
        return TorsionCertificate((), (), 0, False, None)
    if not P.is_rational():
        raise ValueError("certificate applies to rational points")
    D_int = p ** (2 * i)
    if P.D != QOmega(D_int) or not P.on_curve():
        raise ValueError(f"point is not on y^2 = x^3 + {p}^{2 * i}/4")
    q1, q2 = good_reduction_primes(p)
    for q in (q1, q2):
        if q in (2, 3, p):
            raise BadReduction(f"{q} is not a good prime here")
    counts = (reduction_count(D_int, q1), reduction_count(D_int, q2))
    g = gcd(counts[0], counts[1])
    ell = WITNESS_PRIME
    if p != ell and P.x.d % ell and P.y.d % ell and _witness_mul(g, P, ell)[2]:
        return TorsionCertificate((q1, q2), counts, g, True, ell)
    killed = mul(g, P).is_infinity
    return TorsionCertificate((q1, q2), counts, g, not killed, None)
