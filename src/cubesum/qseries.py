"""Formal Laurent q-series with exact Q(w) coefficients.

The parametrizing series y(q) = wp'(z(q))/2, z(q) = sum a_n/n q^n, comes from
the differential equation of wp rather than by composing its Laurent
expansion with z(q).  With g2 = 0, wp'' = 6 wp^2, so for theta = q d/dq and
f = theta z = sum a_n q^n the pair x = wp(z), y satisfies theta x = 2 f y and
theta y = 3 f x^2.  In X = q^2 x and W = 2 q^3 y (X_0 = 1, W_0 = -2) the
coefficient of q^k solves a 2x2 linear system with determinant (k-6)(k+1).
At the resonance k = 6 the system is singular and X_6 is free; that is where
g3 = -D enters: wp(z) = z^-2 + (g3/28) z^4 + O(z^10) gives
X_6 = [q^6](q^2/z^2) + g3/28.

F(q) with F^3 = num/den is one quotient recurrence and one cube-root
recurrence (J.C.P. Miller's power recurrence, Knuth, TAOCP 2, 4.7).

All of it lives on q^3.  a_n vanishes off n = 1 mod 3, so z(wq) = w z(q).
On the hexagonal lattice wp(wz) = w^-2 wp(z) and wp'(wz) = w^-3 wp'(z) =
wp'(z), so q^2 x and q^3 y are unchanged by q -> wq: they are series in
u = q^3, and so are the ratio and its cube root.  Every recurrence runs on
u: the ODE at k = 3t (resonance at t = 2), the quotient, and Miller's
recurrence, which is unchanged when the index is scaled.  The results are
spread back to q once, at the end.  Every step runs on two lists per
series, c_t = alpha[t] + beta[t] w, of ints; a division that is not exact
yields a Fraction, so no floating point is ever touched and a coefficient
off Z[w] still reaches the integrality check.
Integrality of y (coefficients in Z[w] after the half-shift by the
3-torsion y-coordinate) is a property of the parametrization that is
checked, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .eisenstein import QOmega, split_prime
from .heckeform import newform_pairs


class NotIntegral(ArithmeticError):
    """An exact coefficient of y(q) that is not in (1/2)Z[w]."""

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

    def is_one(self):
        return all(
            self.coefficient(n) == (_Q1 if n == 0 else _Q0)
            for n in range(self.lead, self.trunc)
        )


# ------------------------------------------------------ pair-list kernels
#
# A series is two lists (xa, xb) with x_k = xa[k] + xb[k] w, w^2 = -1 - w;
# the entries are ints, or Fractions where a division was not exact.


def _exact_div(x, d):
    """x / d: an int when d divides x, a Fraction otherwise."""
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _conv(xa, xb, ya, yb, k, lo=1):
    """sum_{m=lo..k} x_m y_(k-m); zero x_m are skipped."""
    sa = sb = 0
    for m in range(lo, k + 1):
        a, b = xa[m], xb[m]
        if a or b:
            c, d = ya[k - m], yb[k - m]
            bd = b * d
            sa += a * c - bd
            sb += a * d + b * c - bd
    return sa, sb


def _mul(xa, xb, ya, yb):
    """x * y to the shorter of the two truncation orders."""
    prod = [_conv(xa, xb, ya, yb, k, 0) for k in range(min(len(xa), len(ya)))]
    return [a for a, _ in prod], [b for _, b in prod]


def _power(ra, rb, num, den):
    """r^(num/den) for r_0 = 1, by J.C.P. Miller's recurrence
    den k t_k = sum_{j=1..k} ((num + den) j - den k) r_j t_(k-j)."""
    ta, tb = [1], [0]
    for k in range(1, len(ra)):
        sa = sb = 0
        for j in range(1, k + 1):
            a, b = ra[j], rb[j]
            if a or b:
                c = (num + den) * j - den * k
                ua, ub = ta[k - j], tb[k - j]
                bu = b * ub
                sa += c * (a * ua - bu)
                sb += c * (a * ub + b * ua - bu)
        ta.append(_exact_div(sa, den * k))
        tb.append(_exact_div(sb, den * k))
    return ta, tb


def _wp_ode(fa, fb, T, g3):
    """W = 2 q^3 y mod q^(3T+1) as the pair list of W_(3t), t <= T, from the
    series in u = q^3 with coefficients F_(3s) = a_(3s+1) = fa[s] + fb[s] w
    (s <= T, F_0 = 1) and g3 = (a, b).  Per t, with k = 3t: A = sum F_3s
    W_(k-3s) and B = P + sum F_3s S_(k-3s) over s >= 1, with S = X^2 and
    P = sum X_3j X_(k-3j) over 0 < j < t, and then X_k and W_k solve
    (k-2) X_k - W_k = A, -12 X_k + (k-3) W_k = 6B."""
    Xa, Xb = [1] + [0] * T, [0] * (T + 1)
    Sa, Sb = list(Xa), list(Xb)
    Wa, Wb = [-2] + [0] * T, [0] * (T + 1)
    for t in range(1, T + 1):
        k = 3 * t
        Aa, Ab = _conv(fa, fb, Wa, Wb, t)
        Pa, Pb = _conv(Xa, Xb, Xa, Xb, t)  # X_k is still 0: the j = t term drops
        Ba, Bb = _conv(fa, fb, Sa, Sb, t)
        Ba += Pa
        Bb += Pb
        if k == 6:  # resonance: X_6 = [q^6](q^2/z^2) + g3/28, W_6 = 4 X_6 - A
            za = [Fraction(fa[s], 3 * s + 1) for s in range(3)]  # z/q in u
            zb = [Fraction(fb[s], 3 * s + 1) for s in range(3)]
            ta, tb = _power(za, zb, -2, 1)
            Xa[2] = _exact_div(28 * ta[2] + g3[0], 28)
            Xb[2] = _exact_div(28 * tb[2] + g3[1], 28)
            Wa[2] = 4 * Xa[2] - Aa
            Wb[2] = 4 * Xb[2] - Ab
        else:
            det = (k - 6) * (k + 1)
            Xa[t] = _exact_div((k - 3) * Aa + 6 * Ba, det)
            Xb[t] = _exact_div((k - 3) * Ab + 6 * Bb, det)
            Wa[t] = _exact_div(12 * Aa + 6 * (k - 2) * Ba, det)
            Wb[t] = _exact_div(12 * Ab + 6 * (k - 2) * Bb, det)
        Sa[t] = 2 * Xa[t] + Pa
        Sb[t] = 2 * Xb[t] + Pb
    return Wa, Wb


def _on_q(coeffs, length):
    """A series in u = q^3 as one in q, known to `length` slots: c_t moves
    to q^(3t) and the slots between are zero."""
    out = [_Q0] * length
    out[::3] = coeffs
    return out


# ---------------------------------------------------------------- y and F


def _y_pairs(p, i, M, conjugate=False):
    """W = 2 q^3 y(q) mod q^(M+4), a series in u = q^3, as the pair list of
    its coefficients W_(3t), 3t <= M + 3, integrality checked: y has leading
    term -q^-3, its constant term lies in base^i/2 + Z[w] (base = pibar, or
    pi for the conjugate) and every other coefficient in Z[w]."""
    split = split_prime(p)
    base = split.pi if conjugate else split.pibar
    D = base ** (2 * i)
    shift = base**i
    T = (M + 3) // 3
    # F_(3s) = a_(3s+1), s <= T: the compact slots of n <= 3T + 1
    alpha, beta = newform_pairs(p, i, 3 * T + 1, conjugate=conjugate)
    if (alpha[0], beta[0]) != (1, 0):  # z = a_1 q + ..., y = -a_1^-3 q^-3 + ...
        a1 = QOmega(alpha[0], beta[0])
        raise NotIntegral(-3, -(a1**-3) if a1 else a1)
    wa, wb = _wp_ode(alpha, beta, T, (-D.a, -D.b))
    for t in range(T + 1):
        a, b = wa[t], wb[t]
        if t == 1:
            a, b = a - shift.a, b - shift.b
        if a % 2 or b % 2:
            raise NotIntegral(3 * t - 3, QOmega(wa[t], wb[t]) * Fraction(1, 2))
    return wa, wb


def y_series(p, i, M, conjugate=False):
    """y(q) = wp'(z(q))/2 mod q^(M+1), exact, with integrality checked
    coefficientwise: the leading term is exactly -q^-3, the constant term
    sits in shift + Z[w] with shift = pibar^i/2 (or its conjugate) and every
    other coefficient lands in Z[w]."""
    wa, wb = _y_pairs(p, i, M, conjugate)
    return LaurentSeries(-3, _on_q([QOmega.from_ints(a, b, 2) for a, b in zip(wa, wb)], M + 4))


def cube_root_series(S):
    """T with T^3 = S to the truncation order, for S = q^(3m) (1 + O(q)):
    T = q^m (1 + O(q)) by Miller's recurrence, cubed back and compared with
    S exactly.  Any other S raises CubeRootNotInField."""
    if S.lead % 3:
        raise CubeRootNotInField(f"leading exponent {S.lead} is not divisible by 3")
    if S.coeffs[0] != _Q1:
        raise CubeRootNotInField(f"leading coefficient {S.coeffs[0]} is not 1")
    ra, rb = [_exact_div(c.A, c.d) for c in S.coeffs], [_exact_div(c.B, c.d) for c in S.coeffs]
    ta, tb = _power(ra, rb, 1, 3)
    if _mul(*_mul(ta, tb, ta, tb), ta, tb) != (ra, rb):
        raise AssertionError("cube root does not cube back to the series")
    return LaurentSeries(S.lead // 3, [QOmega(a, b) for a, b in zip(ta, tb)])


def f_plus_minus_series(p, i, sign, M):
    """F(q) with F^3 = (y + s*pibar^i/2) / (y^c + s*pi^i/2), s = +-1.

    The denominator is the conjugate of the numerator, so their difference
    b (1 + 2w) = b sqrt(-3) is divisible by sqrt(-3) with no check.  The
    ratio is a series in u = q^3; cube_root_series takes its root in u, and
    the root is spread back to q at the end."""
    if sign not in (1, -1, "+", "-"):
        raise ValueError("sign must be +1 or -1")
    s = 1 if sign in (1, "+") else -1
    wa, wb = _y_pairs(p, i, M)
    # q^3 num and q^3 den = conj(q^3 num), series in u = q^3: y^c and pi^i
    # are the conjugates
    shift = split_prime(p).pibar ** i
    wa[1] += s * shift.a
    wb[1] += s * shift.b
    na, nb = [a // 2 for a in wa], [b // 2 for b in wb]
    del wa, wb
    da, db = [a - b for a, b in zip(na, nb)], [-b for b in nb]
    # ratio = num/den: den_0 = -1, so r_k = sum_{j>=1} den_j r_(k-j) - num_k
    # and r_0 = -num_0 = 1, as cube_root_series requires
    ra, rb = [], []
    for k in range(len(na)):
        sa, sb = _conv(da, db, ra, rb, k)
        ra.append(sa - na[k])
        rb.append(sb - nb[k])
    del na, nb, da, db
    root = cube_root_series(LaurentSeries(0, [QOmega(a, b) for a, b in zip(ra, rb)]))
    return LaurentSeries(0, _on_q(root.coeffs, M + 4))
