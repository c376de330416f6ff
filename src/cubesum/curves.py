"""Exact elliptic-curve arithmetic on the models y^2 = x^3 + D/4.

Points live over Q(w) (or Q, the b-components zero); all group law and
descent arithmetic is exact rational, integer-normalised: each coordinate is
a QOmega (A + B w)/d with d > 0 and gcd(A, B, d) = 1 — no floating point
crosses into this module.  The CM action is [w](x, y) = (w x, y), and
sqrt(-3) = 1 + 2w so [sqrt(-3)]P = P + [w][2]P.

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
[g]P != O for every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import (
    EisensteinInt,
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


@dataclass(frozen=True)
class CurvePoint:
    """A point on y^2 = x^3 + D/4, or the point at infinity (x = y = None)."""

    D: QOmega
    x: QOmega | None
    y: QOmega | None

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


def endo_omega(P):
    """The CM automorphism [w](x, y) = (w x, y)."""
    if P.is_infinity:
        return P
    return CurvePoint(P.D, QOmega(0, 1) * P.x, P.y)


def mul_sqrt_m3(P):
    """[sqrt(-3)] P = [1 + 2w] P = P + [w]([2] P)."""
    return add(P, endo_omega(mul(2, P)))


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


@dataclass(frozen=True)
class CubeSum:
    u: Fraction
    v: Fraction
    target: int

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
    counted point by point over F_q (the q of a certificate are small)."""
    return count_points_bruteforce(EisensteinInt(D_int % q, 0), q)


def good_reduction_primes(p, count=2, start=5):
    out = []
    q = start
    while len(out) < count:
        if is_prime_int(q) and q != p and q % 3 != 0 and q != 2:
            out.append(q)
        q += 2
    return out


WITNESS_PRIME = 2**61 - 1


def _witness_add(R, S, ell):
    """R + S on y^2 = x^3 + c over F_ell, points as residue pairs (x, y)
    and O~ as None: the chord-and-tangent law of add."""
    if R is None:
        return S
    if S is None:
        return R
    (x1, y1), (x2, y2) = R, S
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _witness_mul(n, P, ell):
    """[n]P~ in E~(F_ell), n >= 0, by the double-and-add of mul; P is
    rational and ell divides neither of its denominators."""
    inv = pow(P.x.d * P.y.d, -1, ell)  # one inversion for both denominators
    B = (P.x.A * P.y.d * inv % ell, P.y.A * P.x.d * inv % ell)
    R = None
    while n:
        if n & 1:
            R = _witness_add(R, B, ell)
        n >>= 1
        if n:
            B = _witness_add(B, B, ell)
    return R


@dataclass(frozen=True)
class TorsionCertificate:
    primes: tuple
    counts: tuple
    bound: int
    nontorsion: bool
    witness: int | None = None  # WITNESS_PRIME when it decided, None when [g]P was formed over Q


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
        return TorsionCertificate((), (), 0, False)
    if not P.is_rational():
        raise ValueError("certificate applies to rational points")
    D_int = p ** (2 * i)
    if P.D != QOmega(D_int) or not P.on_curve():
        raise ValueError(f"point is not on y^2 = x^3 + {p}^{2 * i}/4")
    q1, q2 = good_reduction_primes(p)
    from math import gcd

    for q in (q1, q2):
        if q in (2, 3, p):
            raise BadReduction(f"{q} is not a good prime here")
    counts = (reduction_count(D_int, q1), reduction_count(D_int, q2))
    g = gcd(counts[0], counts[1])
    ell = WITNESS_PRIME
    if p != ell and P.x.d % ell and P.y.d % ell and _witness_mul(g, P, ell) is not None:
        return TorsionCertificate((q1, q2), counts, g, True, ell)
    killed = mul(g, P).is_infinity
    return TorsionCertificate((q1, q2), counts, g, not killed)
