"""Coefficients of the weight-2 CM newform attached to y^2 = x^3 + pibar^(2i)/4.

The Hecke character sends an ideal (g), g = 1 mod 3 coprime to 3*pi, to
psi((g)) = conj((pi^i/g)_3) * g, and a_n sums psi over the ideals of norm n
prime to the conductor: a_n is supported on n = 1 mod 3, with a_p = pibar.
By cubic reciprocity (pi/g)_3 = (g/pi)_3 depends only on g mod pi in F_p, so
the coefficients come from one walk over the lattice points g = a + b*w,
a = 1 and b = 0 mod 3, with one table lookup each; they are kept as two int
lists with a_n = alpha_n + beta_n * w (Rodriguez-Villegas--Zagier, CMS Conf.
Proc. 15, 1995; Ireland--Rosen, ch. 9).  twist_check walks the same points
for the rational twist's character; a generator enumeration that factors
each point and takes the generic Euler-criterion symbol is the tests'
independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .eisenstein import (
    BadNormalization,
    EisensteinInt,
    NotPrime,
    ZERO,
    cubic_char_table,
    cubic_residue_symbol,
    is_prime_element,
    is_prime_int,
    residue_map_omega,
    split_prime,
    unit_power,
)


class BadPrimeClass(ValueError):
    pass


class RamifiedIdeal(ValueError):
    pass


class MismatchAt(AssertionError):
    def __init__(self, n, got, want):
        self.n = n
        super().__init__(f"coefficient mismatch at n={n}: {got} != {want}")


def conductor_and_level(p, i):
    """(e3, N): conductor (sqrt(-3))^e3 * (pibar) and level N = 3^(e3+1) * p.

    e3 = 1 and N = 9p when p^i = 4 mod 9; e3 = 2 and N = 27p when p^i = 7.
    """
    if not is_prime_int(p) or p % 9 not in (4, 7):
        raise BadPrimeClass(f"{p} is not a prime congruent to 4,7 mod 9")
    if i not in (1, 2):
        raise ValueError("power must be 1 or 2")
    cls = pow(p, i, 9)
    e3 = 1 if cls == 4 else 2
    return e3, 3 ** (e3 + 1) * p


def hecke_psi(gen, p, i):
    """psi((gen)) = conj((pi^i/gen)_3) * gen, gen prime, 1 mod 3, coprime to 3p."""
    if gen.norm() % 3 == 0 or gen.norm() % p == 0:
        raise RamifiedIdeal(f"({gen}) is not coprime to 3*{p}")
    if gen.residue_mod3() != (1, 0):
        raise BadNormalization(f"{gen} is not 1 mod 3")
    if not is_prime_element(gen):
        raise NotPrime(f"{gen} is not prime")
    s = split_prime(p)
    sym = cubic_residue_symbol(s.pi, gen) ** i
    return sym.conj() * gen


# ------------------------------------------------------------- lattice walk


@functools.lru_cache(maxsize=64)
def _psi_exponents(p, e, conj):
    """(w, t) for g = pi, or pibar when conj, of split_prime(p): w is the image
    of w mod g, and t[x] = e * k mod 3 for x in F_p^*, where (x/g)_3 = w^k;
    t[0] = None (g divides the point).  Memoized, as every walk over p needs
    the same p-entry table; callers pass e mod 3."""
    split = split_prime(p)
    g = split.pibar if conj else split.pi
    t = tuple(None if k is None else e * k % 3 for k in cubic_char_table(p, g))
    return residue_map_omega(g), t


# w^t * (a + b w) = (r0 a + r1 b) + (r2 a + r3 b) w for (r0, r1, r2, r3) = _ROTATE[t]
_ROTATE = ((1, 0, 0, 1), (0, -1, 1, -1), (-1, 1, -1, 0))


def _primary_rows(M0, M):
    """(b, start, stop): the points g = a + b w with a = 1 and b = 0 mod 3 and
    M0 < N(g) <= M are a in range(start, stop, 3), one or two spans per b.
    N(g) = a^2 - ab + b^2 <= M exactly when |2a - b| <= isqrt(4M - 3b^2)."""
    B = math.isqrt(4 * M // 3)
    for b in range(-(B // 3) * 3, B + 1, 3):
        r = math.isqrt(4 * M - 3 * b * b)
        spans = [((b - r + 1) // 2, (b + r) // 2)]
        if 4 * M0 >= 3 * b * b:
            r0 = math.isqrt(4 * M0 - 3 * b * b)
            spans = [(spans[0][0], (b - r0 + 1) // 2 - 1), ((b + r0) // 2 + 1, spans[0][1])]
        for lo, hi in spans:
            lo += (1 - lo) % 3
            if lo <= hi:
                yield b, lo, hi + 1


def _walk(p, alpha, beta, M, tables):
    """Extend a_0..a_M0 (alpha, beta, in place) to a_0..a_M by adding
    psi(g) = w^(t1[g mod pi] + t2[g mod pibar]) g to a_N(g) for every primary
    g with M0 < N(g) <= M, where tables = ((w1, t1), (w2, t2)) hold the image
    of w mod pi and mod pibar and the exponents of _psi_exponents; g is
    skipped where an exponent is None."""
    M0 = len(alpha) - 1
    alpha += [0] * (M - M0)
    beta += [0] * (M - M0)
    (w1, t1), (w2, t2) = tables
    for b, start, stop in _primary_rows(M0, M):
        c1, c2, bb = b * w1, b * w2, b * b
        for a in range(start, stop, 3):
            e1, e2 = t1[(a + c1) % p], t2[(a + c2) % p]
            if e1 is not None and e2 is not None:
                n = a * (a - b) + bb
                r0, r1, r2, r3 = _ROTATE[(e1 + e2) % 3]
                alpha[n] += r0 * a + r1 * b
                beta[n] += r2 * a + r3 * b


def qexp_coefficients(p, i, M, conjugate=False, prefix=None):
    """(alpha, beta), two int lists with a_n = alpha[n] + beta[n] w for
    n <= M (index 0 unused).  `prefix`, the newform's own (alpha, beta) up to
    some M0, is not changed; only the annulus M0 < N(g) <= M is walked."""
    if prefix is None or len(prefix[0]) < 2:
        prefix = ([0, 1], [0, 0])
    alpha, beta = prefix[0][: M + 1], prefix[1][: M + 1]
    M0 = len(alpha) - 1
    if M > M0:
        # psi(g) = w^(-i k) g with (g/pi)_3 = w^k on g prime to p ...
        # (the pibar table with e = 0 only marks the points pibar divides)
        _walk(p, alpha, beta, M, (_psi_exponents(p, -i % 3, False), _psi_exponents(p, 0, True)))
        # ... and a_(pm) = pibar a_m, as (pibar^v) is the one ideal of norm
        # p^v prime to the conductor
        pibar = split_prime(p).pibar
        x, y = pibar.a, pibar.b
        for n in range(p * (M0 // p + 1), M + 1, p):
            a, b = alpha[n // p], beta[n // p]
            alpha[n], beta[n] = x * a - y * b, x * b + y * a - y * b
    if conjugate:  # conj(a + b w) = (a - b) - b w
        return [a - b for a, b in zip(alpha, beta)], [-b for b in beta]
    return alpha, beta


def as_eisenstein(coeffs):
    """An (alpha, beta) pair as the list of a_n = alpha[n] + beta[n] w, for
    dumps and checks at small M."""
    return [EisensteinInt(a, b) for a, b in zip(*coeffs)]


@dataclass
class HeckeForm:
    """The newform's one coefficient store, a_n = alpha[n] + beta[n] w for
    n <= terms (index 0 unused).  The coefficients do not depend on
    precision, so a store is never rebuilt: extend() walks only the lattice
    points of norm above the terms it holds."""

    p: int
    i: int
    N: int
    alpha: list
    beta: list

    @property
    def terms(self):
        return len(self.alpha) - 1

    def extend(self, M):
        """Hold at least a_1..a_M; only the missing terms are computed."""
        if M > self.terms:
            self.alpha, self.beta = qexp_coefficients(
                self.p, self.i, M, prefix=(self.alpha, self.beta)
            )


def build_form(p, i, M, coeffs=None):
    """HeckeForm with coefficients a_1..a_M, an (alpha, beta) pair computed
    unless supplied."""
    _, N = conductor_and_level(p, i)
    alpha, beta = qexp_coefficients(p, i, M) if coeffs is None else coeffs
    return HeckeForm(p=p, i=i, N=N, alpha=alpha, beta=beta)


def spot_check(p, i, coeffs):
    """Whether a stored prefix (alpha, beta) of a_0..a_M agrees with a fresh
    walk at every n <= min(M, 100)."""
    M = min(len(coeffs[0]) - 1, 100)
    return M >= 1 and qexp_coefficients(p, i, M) == tuple(c[: M + 1] for c in coeffs)


# ------------------------------------------------------------- nebentypus


def nebentypus(p, i, d):
    """xi(d) = (-3/d) psi((d))/d on integers, computed through the residue
    character mod p: xi(d) = conj((d/pi)_3^i) by cubic reciprocity (signs and
    units drop out of the symbol).  Zero when gcd(d, 3p) > 1."""
    d = int(d)
    if d % 3 == 0 or d % p == 0:
        return ZERO
    return unit_power(_psi_exponents(p, -i % 3, False)[1][d % p])


def _twist_coefficients(p, i, M):
    """(alpha, beta) of b_0..b_M for the rational curve y^2 = x^3 + p^(6-2i)/4.
    The sextic symbol of the square p^(6-2i) is the cubic symbol of its root,
    so psi(g) = conj((p^(3-i)/g)_3) g on primary g with p not dividing N(g),
    and (p/g)_3 = (g/pi)_3 (g/pibar)_3 by cubic reciprocity."""
    alpha, beta = [0], [0]
    _walk(p, alpha, beta, M, [_psi_exponents(p, (i - 3) % 3, conj) for conj in (False, True)])
    return alpha, beta


@dataclass(frozen=True)
class TwistReport:
    p: int
    i: int
    M: int
    checked: int
    ok: bool = True


def twist_check(p, i, M):
    """Verify b_n = conj(chi)(n) * a_n for n <= M coprime to p, where b_n come
    from the Hecke character of the rational curve y^2 = x^3 + p^(6-2i)/4 and
    conj(chi)(n) = conj((pi^i/n)_3) = nebentypus(p, i, n) by cubic
    reciprocity (both sides vanish off n = 1 mod 3)."""
    a = as_eisenstein(qexp_coefficients(p, i, M))
    b = as_eisenstein(_twist_coefficients(p, i, M))
    for n in range(1, M + 1):
        want = nebentypus(p, i, n) * a[n]
        if n % p and b[n] != want:
            raise MismatchAt(n, b[n], want)
    return TwistReport(p=p, i=i, M=M, checked=M - M // p)
