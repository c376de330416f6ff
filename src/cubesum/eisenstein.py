"""Exact arithmetic in Z[w], the ring of integers of Q(sqrt(-3)).

Elements are written a + b*w with w = (-1 + sqrt(-3))/2, so w^2 = -w - 1 and
norm(a + b*w) = a^2 - a*b + b^2.  The six units are +-1, +-w, +-w^2; the ring
is Euclidean for the norm, which is what every divisibility routine here
relies on.  Residue symbols follow the Euler-criterion convention
(a/pi)_n == a^((N(pi)-1)/n) mod pi with values in the sixth roots of unity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


class NotSplit(ValueError):
    pass


class NotPrime(ValueError):
    pass


class NoPrimaryAssociate(ValueError):
    pass


class BadModulus(ValueError):
    pass


class BadNormalization(ValueError):
    pass


class DividesSixD(ValueError):
    pass


class FieldTooLarge(ValueError):
    pass


class TrivialCharacter(ValueError):
    pass


# Brute-force point counting refuses fields larger than this (keeps oracle
# sweeps fast; the closed formula has no such limit).
BRUTE_FORCE_FIELD_CAP = 200_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_int(n):
    """Deterministic Miller-Rabin, valid far beyond any input used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _round_div(num, den):
    # nearest integer to num/den, den > 0
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


class EisensteinInt:
    """Immutable a + b*w with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

    def __setattr__(self, *_):
        raise AttributeError("EisensteinInt is immutable")

    def __repr__(self):
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*w"
        return f"{self.a}{self.b:+d}*w"

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power in Z[w]")
        result = ONE
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def conj(self):
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __divmod__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Z[w]")
        n = other.norm()
        t = self * other.conj()
        q = EisensteinInt(_round_div(t.a, n), _round_div(t.b, n))
        return q, self - q * other

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def divides(self, other):
        return not (other % self)

    def residue_mod3(self):
        return (self.a % 3, self.b % 3)

    def to_q(self):
        return _raw(self.a, self.b, 1)

    def to_mpc(self, ctx):
        """Embed via w -> (-1 + i*sqrt(3))/2 using an mpmath context."""
        s3 = ctx.sqrt(3)
        return ctx.mpc(ctx.mpf(self.a) - ctx.mpf(self.b) / 2, s3 * ctx.mpf(self.b) / 2)


def _coerce(x):
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return None


class QOmega:
    """Element (A + B*w)/d of Q(w), the fraction field of Z[w], in integers.

    The normal form d > 0, gcd(A, B, d) = 1 is unique, so == compares the
    three fields; every operation is an integer formula followed by one
    three-way gcd.  a = A/d and b = B/d are read as Fractions.
    """

    __slots__ = ("A", "B", "d")

    def __init__(self, a, b=0):
        if type(a) is int and type(b) is int:
            _set_A(self, a)
            _set_B(self, b)
            _set_d(self, 1)
            return
        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        d = da * db // math.gcd(da, db)  # lcm; already coprime to the numerators
        _set_A(self, a.numerator * (d // da))
        _set_B(self, b.numerator * (d // db))
        _set_d(self, d)

    @staticmethod
    def from_ints(A, B, d=1):
        """(A + B*w)/d for integers A, B and d != 0."""
        g = math.gcd(A, B, d)
        if d < 0:
            g = -g
        if g != 1:
            A, B, d = A // g, B // g, d // g
        return _raw(A, B, d)

    def __setattr__(self, *_):
        raise AttributeError("QOmega is immutable")

    @property
    def a(self):
        return Fraction(self.A, self.d)

    @property
    def b(self):
        return Fraction(self.B, self.d)

    def __repr__(self):
        return f"QOmega({self.a!r}, {self.b!r})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        wpart = "w" if b == 1 else ("-w" if b == -1 else f"{b}*w")
        if a == 0:
            return wpart
        return f"{a}+{wpart}" if not wpart.startswith("-") else f"{a}{wpart}"

    def __eq__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.d == other.d

    def __hash__(self):
        return hash((self.A, self.B, self.d))

    def __bool__(self):
        return self.A != 0 or self.B != 0

    def __add__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _qo(self.A + other.A, self.B + other.B, d1)
        return _qo(self.A * d2 + other.A * d1, self.B * d2 + other.B * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _qo(self.A - other.A, self.B - other.B, d1)
        return _qo(self.A * d2 - other.A * d1, self.B * d2 - other.B * d1, d1 * d2)

    def __rsub__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(-self.A, -self.B, self.d)

    def __mul__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.A, self.B, other.A, other.B
        bb = b1 * b2
        return _qo(a1 * a2 - bb, a1 * b2 + b1 * a2 - bb, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        # x / y = x conj(y) / N(y), N(y) = n / d2^2 with n > 0 unless y = 0
        a1, b1, a2, b2 = self.A, self.B, other.A - other.B, -other.B
        n = a2 * a2 - a2 * b2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        bb = b1 * b2
        return _qo((a1 * a2 - bb) * other.d, (a1 * b2 + b1 * a2 - bb) * other.d, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce_q(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return _Q_ONE / self ** (-n)
        result = _Q_ONE
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def conj(self):
        # gcd(A - B, -B, d) = gcd(A, B, d): still normal
        return _raw(self.A - self.B, -self.B, self.d)

    def norm(self):
        A, B = self.A, self.B
        return Fraction(A * A - A * B + B * B, self.d * self.d)

    def is_rational(self):
        return self.B == 0

    def to_mpc(self, ctx):
        # (A + B w)/d = ((2A - B) + B sqrt(-3)) / (2d)
        s3 = ctx.sqrt(3)
        den = 2 * self.d
        return ctx.mpc(ctx.mpf(2 * self.A - self.B) / den, s3 * ctx.mpf(self.B) / den)


_new = object.__new__
_set_A, _set_B, _set_d = QOmega.A.__set__, QOmega.B.__set__, QOmega.d.__set__
_qo = QOmega.from_ints


def _raw(A, B, d):
    # (A + B w)/d already in normal form
    z = _new(QOmega)
    _set_A(z, A)
    _set_B(z, B)
    _set_d(z, d)
    return z


_Q_ONE = _raw(1, 0, 1)


def _coerce_q(x):
    if isinstance(x, QOmega):
        return x
    if isinstance(x, int):
        return _raw(x, 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    if isinstance(x, EisensteinInt):
        return _raw(x.a, x.b, 1)
    return None


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
W = EisensteinInt(0, 1)
W2 = EisensteinInt(-1, -1)
SQRT_M3 = EisensteinInt(1, 2)  # sqrt(-3) = 1 + 2w

UNITS = (ONE, W, W2, -ONE, -W, -W2)
CUBE_ROOTS = (ONE, W, W2)


def unit_power(k):
    """w^k for any integer k."""
    return CUBE_ROOTS[k % 3]


def gcd_eis(x, y):
    """A gcd in Z[w] (defined up to units) by Euclidean descent."""
    while y:
        x, y = y, x % y
    return x


def sqrt_eis(s):
    """A square root of s in Z[w], or None when s is not a square there.

    For T = u + v*w: N(T) = isqrt(N(s)), Tr(T)^2 = Tr(s) + 2 N(T), and
    3 v^2 = 2 N(T) - Tr(s), the negated square of T - conj(T) = v sqrt(-3).
    So t = Tr(T) = 2u - v and |v| are integer square roots, u = (t + v)/2,
    and the sign of v is the one with T^2 == s exactly.  Which of +-T is
    returned is unspecified.
    """
    nn = s.norm()
    n = math.isqrt(nn)
    if n * n != nn:
        return None
    # |Tr(s)| <= 2 sqrt(N(s)) = 2n, so both radicands are >= 0
    tr = 2 * s.a - s.b
    tt, (dd, rem) = tr + 2 * n, divmod(2 * n - tr, 3)
    t, d = math.isqrt(tt), math.isqrt(dd)
    if t * t != tt or rem or d * d != dd or (t + d) % 2:
        return None
    for v in (d, -d):
        T = EisensteinInt((t + v) // 2, v)
        if T * T == s:
            return T
    return None


def eis_pow_mod(base, exp, mod):
    result = ONE % mod
    base = base % mod
    while exp:
        if exp & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        exp >>= 1
    return result


def is_prime_element(z):
    """True iff z is a prime of Z[w]."""
    n = z.norm()
    if n <= 1:
        return False
    if is_prime_int(n):
        # split prime (n = 1 mod 3) or the ramified prime above 3
        return True
    q = math.isqrt(n)
    if q * q == n and is_prime_int(q) and q % 3 == 2:
        # inert rational prime: z must be a unit multiple of q
        return any(u * z == EisensteinInt(q, 0) for u in UNITS)
    return False


def norm(z):
    """norm(a + b*w) = a^2 - a*b + b^2."""
    return z.norm()


def normalize_primary(z, target=1):
    """The unique unit associate of z congruent to target (1 or 2) mod 3Z[w]."""
    if target not in (1, 2):
        raise ValueError("target residue must be 1 or 2")
    if not z:
        raise NoPrimaryAssociate("zero has no primary associate")
    if z.norm() % 3 == 0:
        raise NoPrimaryAssociate(f"norm of {z} is divisible by 3")
    want = (target, 0)
    for u in UNITS:
        cand = u * z
        if cand.residue_mod3() == want:
            return cand
    raise NoPrimaryAssociate(f"no associate of {z} is {target} mod 3")  # unreachable


@dataclass(frozen=True)
class PrimeSplit:
    """p = pi * pibar with pi = 1 mod 3; pi is the representative with b > 0."""

    p: int
    pi: EisensteinInt
    pibar: EisensteinInt


def _cube_root_of_unity_mod(p):
    # some w with w^2 + w + 1 = 0 mod p, p = 1 mod 3
    for a in range(2, p):
        c = pow(a, (p - 1) // 3, p)
        if c != 1:
            return c
    raise ArithmeticError(f"no cube root of unity mod {p}")


@functools.lru_cache(maxsize=256)
def split_prime(p):
    """Split p = 1 mod 3 as pi*pibar, pi = 1 mod 3 normalized with b > 0.

    Memoized: a solve needs the split of p in several layers, and the
    result is immutable.  A bad p raises NotSplit on every call."""
    if not is_prime_int(p) or p % 3 != 1:
        raise NotSplit(f"{p} is not a prime congruent to 1 mod 3")
    w = _cube_root_of_unity_mod(p)
    g = gcd_eis(EisensteinInt(p, 0), EisensteinInt(-w, 1))
    if g.norm() != p:
        raise ArithmeticError(f"splitting of {p} failed")  # cannot happen
    pi = normalize_primary(g, 1)
    pibar = normalize_primary(pi.conj(), 1)
    if pi.b < 0:
        pi, pibar = pibar, pi
    return PrimeSplit(p=p, pi=pi, pibar=pibar)


def residue_map_omega(pi):
    """The image of w in Z[w]/(pi) = F_p, i.e. w = -a * b^(-1) mod p."""
    p = pi.norm()
    if not is_prime_int(p):
        raise NotPrime(f"{pi} does not have prime norm")
    w = (-pi.a * pow(pi.b, -1, p)) % p
    if (w * w + w + 1) % p:
        raise AssertionError(f"{w} is not a cube root of unity mod {p}")
    return w


def _match_unit(value, pi, units):
    for u in units:
        if not (value - u) % pi:
            return u
    return None


def sextic_residue_symbol(a, pi):
    """(a/pi)_6: as above with exponent (N(pi)-1)/6, N(pi) = 1 mod 6."""
    a = _coerce(a)
    if not is_prime_element(pi):
        raise NotPrime(f"{pi} is not prime in Z[w]")
    n = pi.norm()
    if n % 6 != 1:
        raise BadModulus(f"N({pi}) = {n} is not 1 mod 6")
    if not a % pi:
        return ZERO
    s = eis_pow_mod(a, (n - 1) // 6, pi)
    u = _match_unit(s, pi, UNITS)
    if u is None:
        raise ArithmeticError(f"Euler criterion failed for {a} mod {pi}")
    return u


class Fq2:
    """F_{q^2} = F_q[s]/(s^2 + s + 1) for a prime q = 2 mod 3.

    Elements are pairs (u, v) meaning u + v*s; s is the residue of w, which
    makes the cubic character computable by plain exponentiation.
    """

    def __init__(self, q):
        if not is_prime_int(q) or q % 3 != 2:
            raise NotSplit(f"{q} is not a prime congruent to 2 mod 3")
        self.q = q
        self.one = (1, 0)
        self.zero = (0, 0)

    def embed(self, z):
        z = _coerce(z)
        return (z.a % self.q, z.b % self.q)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.q, (x[1] + y[1]) % self.q)

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.q, (x[1] - y[1]) % self.q)

    def mul(self, x, y):
        q = self.q
        a1, b1 = x
        a2, b2 = y
        return ((a1 * a2 - b1 * b2) % q, (a1 * b2 + b1 * a2 - b1 * b2) % q)

    def pow(self, x, e):
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def elements(self):
        for a in range(self.q):
            for b in range(self.q):
                yield (a, b)

    def cubic_char_exponent(self, x):
        """k with x^((q^2-1)/3) = s^k, or None for x = 0."""
        if x == self.zero:
            return None
        c = self.pow(x, (self.q * self.q - 1) // 3)
        for k, root in enumerate((self.one, (0, 1), self.mul((0, 1), (0, 1)))):
            if c == root:
                return k
        raise ArithmeticError("cube character value is not a cube root of unity")


def jacobi_sum_cubic(q):
    """J(chi_q, chi_q) over F_{q^2} by direct summation; equals q for q = 2 mod 3."""
    F = Fq2(q)
    chi = {x: F.cubic_char_exponent(x) for x in F.elements()}
    counts = [0, 0, 0]
    for u in F.elements():
        ku = chi[u]
        if ku is None:
            continue
        kv = chi[F.sub(F.one, u)]
        if kv is None:
            continue
        counts[(ku + kv) % 3] += 1
    return counts[0] * ONE + counts[1] * W + counts[2] * W2


def cubic_char_table(p, pi):
    """Exponent table k(u) with (u/pi)_3 = w^k(u) for u in F_p, None at 0."""
    w = residue_map_omega(pi)
    lookup = {1: 0, w: 1, w * w % p: 2}
    e = (p - 1) // 3
    table = [None] * p
    for u in range(1, p):
        table[u] = lookup[pow(u, e, p)]
    return table


def jacobi_sum_split(p, pi):
    """J(chi, chi) for the cubic character chi = (./pi)_3 mod p; norm is p."""
    if not is_prime_int(p) or p % 3 != 1:
        raise NotSplit(f"{p} is not a prime congruent to 1 mod 3")
    table = cubic_char_table(p, pi)
    if all(k in (None, 0) for k in table):
        raise TrivialCharacter("cubic character mod p is trivial")
    counts = [0, 0, 0]
    for u in range(2, p):
        ku = table[u]
        kv = table[(1 - u) % p]
        if ku is None or kv is None:
            continue
        counts[(ku + kv) % 3] += 1
    return counts[0] * ONE + counts[1] * W + counts[2] * W2


def gauss_sum(p, pi, prec=160):
    """tau(chi) = sum_u chi(u) e^(2 pi i u / p) for chi = (./pi)_3, as mpc."""
    import mpmath

    table = cubic_char_table(p, pi)
    with mpmath.mp.workprec(prec + 32):
        omega_c = mpmath.mpc(mpmath.mpf(-1) / 2, mpmath.sqrt(3) / 2)
        roots = (mpmath.mpc(1), omega_c, omega_c * omega_c)
        total = mpmath.mpc(0)
        for u in range(1, p):
            total += roots[table[u]] * mpmath.e ** (2j * mpmath.pi * u / p)
        return total


def count_points_formula(D, piq):
    """#E~(F_q) for y^2 = x^3 + D/4 at the prime (piq), piq normalized 2 mod 3.

    Returns N(piq) + 1 + conj((D/piq)_6)*piq + (D/piq)_6*conj(piq), which is a
    rational integer.
    """
    D = _coerce(D)
    if piq.residue_mod3() != (2, 0):
        raise BadNormalization(f"{piq} is not 2 mod 3")
    if not (6 * D) % piq:
        raise DividesSixD(f"({piq}) divides 6*{D}")
    s = sextic_residue_symbol(D, piq)
    tr = s.conj() * piq + s * piq.conj()
    if tr.b:
        raise AssertionError(f"trace {tr} of the Frobenius is not rational")
    return piq.norm() + 1 + tr.a


def _count_prime_field(d, q):
    # affine solutions of (2y)^2 = 4x^3 + d over F_q plus infinity
    squares = [0] * q
    for y in range(q):
        squares[4 * y * y % q] += 1
    return 1 + sum(squares[(4 * x * x * x + d) % q] for x in range(q))


def count_points_bruteforce(D, field_size, omega_residue=None):
    """Count solutions of (2y)^2 = 4x^3 + D over the residue field, plus 1.

    field_size must be q or q^2 for a prime q.  For a split prime with D not
    rational, omega_residue picks the root of x^2+x+1 mod q that identifies
    which prime above q is meant.  Char-2 fields are counted literally on the
    cleared-denominator equation (degenerate; never compared to the formula).
    """
    D = _coerce(D)
    if field_size > BRUTE_FORCE_FIELD_CAP:
        raise FieldTooLarge(f"{field_size} > {BRUTE_FORCE_FIELD_CAP}")
    if is_prime_int(field_size):
        q = field_size
        if D.b == 0:
            d = D.a % q
        else:
            if q % 3 == 1:
                if omega_residue is None:
                    raise ValueError("omega_residue needed for split q and non-rational D")
                if (omega_residue**2 + omega_residue + 1) % q:
                    raise ValueError("omega_residue is not a root of x^2+x+1 mod q")
                d = (D.a + D.b * omega_residue) % q
            elif q == 3:
                d = (D.a + D.b) % 3  # w = 1 mod (1 - w)
            else:
                raise ValueError(f"F_{q} is not a residue field of Z[w] for non-rational D")
        return _count_prime_field(d, q)
    q = math.isqrt(field_size)
    if q * q != field_size or not is_prime_int(q) or q % 3 != 2:
        raise ValueError(f"{field_size} is not a valid residue field size")
    F = Fq2(q)
    d = F.embed(D)
    if q == 2:
        return 1 + (16 if d == F.zero else 0)
    squares = {}
    for y in F.elements():
        v = F.mul(F.mul(y, y), (4 % q, 0))
        squares[v] = squares.get(v, 0) + 1
    four = (4 % q, 0)
    total = 1
    for x in F.elements():
        v = F.add(F.mul(four, F.pow(x, 3)), d)
        total += squares.get(v, 0)
    return total
