"""Formal Laurent q-series with exact Q(w) coefficients.

The parametrizing series y(q) = wp'(z(q))/2 is computed by purely exact
arithmetic: z(q) = sum a_n/n q^n has coefficients in Q(w), and with g3 = -D
exact the Laurent coefficients of wp' are exact too, so the composition never
touches floating point.  Integrality of the result (coefficients in Z[w]
after the half-shift by the 3-torsion y-coordinate) is a property of the
parametrization that is asserted, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .analytic import wp_laurent_coefficients
from .eisenstein import QOmega, split_prime, sqrt_m3_q
from .heckeform import qexp_coefficients


class RecognitionFailed(ArithmeticError):
    def __init__(self, n, value):
        self.n = n
        self.value = value
        super().__init__(f"coefficient of q^{n} is {value}, not in (1/2)Z[w]")


class CubeRootNotInField(ArithmeticError):
    pass


_Q0 = QOmega(0)
_Q1 = QOmega(1)


class LaurentSeries:
    """sum coeffs[j] q^(lead+j), known modulo q^trunc (trunc = lead + len)."""

    __slots__ = ("lead", "coeffs")

    def __init__(self, lead, coeffs):
        coeffs = [c if isinstance(c, QOmega) else QOmega(c) for c in coeffs]
        # normalize: strip leading zeros so lead points at a nonzero term
        # (but keep at least one slot to preserve the truncation order)
        while len(coeffs) > 1 and not coeffs[0]:
            coeffs.pop(0)
            lead += 1
        self.lead = lead
        self.coeffs = coeffs

    @property
    def trunc(self):
        return self.lead + len(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        return f"LaurentSeries(lead={self.lead}, [{shown}...], O(q^{self.trunc}))"

    def coefficient(self, n):
        if n < self.lead:
            return _Q0
        if n >= self.trunc:
            raise IndexError(f"q^{n} is beyond the truncation order {self.trunc}")
        return self.coeffs[n - self.lead]

    def coefficients(self, lo, hi):
        return [self.coefficient(n) for n in range(lo, hi)]

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        lo = min(self.lead, other.lead)
        hi = min(self.trunc, other.trunc)
        return all(self.coefficient(n) == other.coefficient(n) for n in range(lo, hi))

    def __neg__(self):
        return LaurentSeries(self.lead, [-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QOmega)):
            const = other if isinstance(other, QOmega) else QOmega(other)
            # a constant is exact to every order; clamp to self
            return self._add_clamped(LaurentSeries(0, [const]), self.trunc)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._add_clamped(other, min(self.trunc, other.trunc))

    def _add_clamped(self, other, trunc):
        lead = min(self.lead, other.lead)
        out = []
        for n in range(lead, trunc):
            a = self.coefficient(n) if self.lead <= n < self.trunc else _Q0
            b = other.coefficient(n) if other.lead <= n < other.trunc else _Q0
            out.append(a + b)
        return LaurentSeries(lead, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (LaurentSeries, QOmega)):
            return self + (-other)
        return self + (-QOmega(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QOmega)):
            c = other if isinstance(other, QOmega) else QOmega(other)
            return LaurentSeries(self.lead, [a * c for a in self.coeffs])
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # truncation bookkeeping: self known mod q^T1, other mod q^T2
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        lead = self.lead + other.lead
        n_out = trunc - lead
        out = [_Q0] * n_out
        for i1, a in enumerate(self.coeffs):
            if not a:
                continue
            jmax = min(len(other.coeffs), n_out - i1)
            for j in range(jmax):
                b = other.coeffs[j]
                if b:
                    out[i1 + j] = out[i1 + j] + a * b
        return LaurentSeries(lead, out)

    __rmul__ = __mul__

    def invert(self):
        """1/self; requires a nonzero leading coefficient."""
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroDivisionError("cannot invert a series with zero leading term")
        n = len(self.coeffs)
        a0 = self.coeffs[0]
        inv0 = _Q1 / a0
        out = [inv0] + [_Q0] * (n - 1)
        for k in range(1, n):
            s = _Q0
            for j in range(1, k + 1):
                if j < len(self.coeffs) and self.coeffs[j]:
                    s = s + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * s
        return LaurentSeries(-self.lead, out)

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return LaurentSeries(0, [_Q1] + [_Q0] * (len(self.coeffs) - 1))
        result = self._copy()
        for _ in range(n - 1):
            result = result * self
        return result

    def _copy(self):
        return LaurentSeries(self.lead, list(self.coeffs))

    def conjugate(self):
        return LaurentSeries(self.lead, [c.conj() for c in self.coeffs])

    def is_one(self):
        return all(
            self.coefficient(n) == (_Q1 if n == 0 else _Q0)
            for n in range(self.lead, self.trunc)
        )


def z_series(p, i, M, conjugate=False):
    """z(q) = sum_{n<=M} a_n/n q^n as an exact series (known mod q^(M+1))."""
    alpha, beta = qexp_coefficients(p, i, M, conjugate=conjugate)
    coeffs = [QOmega(Fraction(alpha[n], n), Fraction(beta[n], n)) for n in range(1, M + 1)]
    return LaurentSeries(1, coeffs)


def y_series(p, i, M, conjugate=False):
    """y(q) = wp'(z(q))/2, exact, with integrality checked coefficientwise.

    The constant term sits in shift + Z[w] where shift is (pibar^i)/2 (or the
    conjugate); every other coefficient must land in Z[w] and the leading
    term is exactly -q^-3.
    """
    split = split_prime(p)
    base = split.pi if conjugate else split.pibar
    D = (base**(2 * i)).to_q()
    shift = base.to_q() ** i / 2

    z = z_series(p, i, M + 6, conjugate=conjugate)
    trunc = M + 1
    inv_z3 = (z**3).invert()  # lead -3

    kmax = max(0, (trunc + 2) // 6 + 1)
    G = wp_laurent_coefficients(-D, kmax)
    y = -inv_z3
    if kmax:
        z3 = z**3
        z6 = z3 * z3
        zp = z3  # z^(6k+3)
        for k in range(kmax):
            d_k = G[k] * Fraction((6 * k + 4) * (6 * k + 5), 2)
            y = y + zp * d_k
            zp = zp * z6

    # clamp to the requested order and certify integrality
    out = LaurentSeries(y.lead, y.coefficients(y.lead, trunc))
    if out.coefficient(-3) != QOmega(-1):
        raise RecognitionFailed(-3, out.coefficient(-3))
    for n in range(out.lead, out.trunc):
        c = out.coefficient(n) - (shift if n == 0 else _Q0)
        if not c.is_integral():
            raise RecognitionFailed(n, out.coefficient(n))
    return out


def cube_root_in_qomega(c):
    """An exact cube root of c in Q(w), or CubeRootNotInField."""
    if not c:
        return _Q0
    if c == _Q1:
        return _Q1
    if c == QOmega(-1):
        return QOmega(-1)
    # numeric candidate + exact verification
    from mpmath import mp

    from .analytic import recognize_qomega

    with mp.workprec(256):
        v = c.to_mpc(mp)
        r = v ** (mp.mpf(1) / 3)
        w = mp.mpc(mp.mpf(-1) / 2, mp.sqrt(3) / 2)
        den = c.a.denominator * c.b.denominator
        bound = max(10**9, den**2)
        roots = []
        for k in range(3):
            guess = recognize_qomega(r * w**k, bound, 100)
            if guess is not None and guess**3 == c:
                roots.append(guess)
    for guess in roots:  # prefer the rational root when there is one
        if guess.is_rational():
            return guess
    if roots:
        return roots[0]
    raise CubeRootNotInField(f"{c} has no cube root in Q(w)")


def cube_root_series(S):
    """T with T^3 = S to the truncation order, by Newton iteration
    T <- T(2 + S T^-3)/3; the leading coefficient must have an exact cube
    root in Q(w) and the leading exponent must be divisible by 3."""
    if S.lead % 3:
        raise CubeRootNotInField(f"leading exponent {S.lead} is not divisible by 3")
    r0 = cube_root_in_qomega(S.coeffs[0])
    if not r0:
        raise CubeRootNotInField("zero leading coefficient")
    n = len(S.coeffs)
    body = LaurentSeries(0, S.coeffs)  # strip q^lead
    T = LaurentSeries(0, [r0] + [_Q0] * (n - 1))
    correct = 1
    while correct < n:
        T = T * (2 + body * (T**3).invert()) * Fraction(1, 3)
        correct *= 2
    if T**3 != body:
        raise AssertionError("Newton cube root does not cube back to the series")
    return LaurentSeries(S.lead // 3, T.coeffs)


def f_plus_minus_series(p, i, sign, M):
    """F(q) with F^3 = (y + s*pibar^i/2) / (y^c + s*pi^i/2), s = +-1.

    Also asserts the congruence (numerator = denominator mod sqrt(-3))
    that makes the cube root integral."""
    if sign not in (1, -1, "+", "-"):
        raise ValueError("sign must be +1 or -1")
    s = 1 if sign in (1, "+") else -1
    split = split_prime(p)
    y = y_series(p, i, M)
    yc = y_series(p, i, M, conjugate=True)
    num = y + split.pibar.to_q() ** i * Fraction(s, 2)
    den = yc + split.pi.to_q() ** i * Fraction(s, 2)
    sqrt3 = sqrt_m3_q()
    for n in range(num.lead, min(num.trunc, den.trunc)):
        d = num.coefficient(n) - den.coefficient(n)
        if not (d / sqrt3).is_integral():
            raise RecognitionFailed(n, d)
    ratio = num * den.invert()
    return cube_root_series(ratio)
