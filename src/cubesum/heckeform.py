"""Coefficients of the weight-2 CM newform attached to y^2 = x^3 + pibar^(2i)/4.

The Hecke character sends an ideal (g), g = 1 mod 3 coprime to 3*pi, to
psi((g)) = conj((pi^i/g)_3) * g, and a_n sums psi over the ideals of norm n
prime to the conductor: a_n is supported on n = 1 mod 3, with a_p = pibar.
By cubic reciprocity (pi/g)_3 = (g/pi)_3 depends only on g mod pi in F_p, so
the coefficients come from one walk over the lattice points g = a + b*w,
a = 1 and b = 0 mod 3, with one table lookup each; they are kept only on
the support, as two int lists with a_(3k+1) = alpha[k] + beta[k] * w
(Rodriguez-Villegas--Zagier, CMS Conf. Proc. 15, 1995; Ireland--Rosen,
ch. 9).  twist_check walks the same points for the rational twist's
character; a generator enumeration that factors each point and takes the
generic Euler-criterion symbol is the tests' independent oracle.
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
    """(w, T) for g = pi, or pibar when conj, of split_prime(p): w is the
    image of w mod g, and T[j] = e * k mod 3 with (3j/g)_3 = w^k, for j in
    range(2p).  The table is in stride-3 order (T[j] = t[3j mod p] for the
    exponent t[x] of x), so the points a = a0, a0 + 3, ... of a walk row read
    the contiguous run T[j0], T[j0 + 1], ..., j0 = a0/3 mod p < p, which
    wraps past p once within the 2p entries.  T[0] = 0 stands for the points
    g divides.  Memoized, as every walk over p needs the same table; callers
    pass e mod 3."""
    split = split_prime(p)
    g = split.pibar if conj else split.pi
    t = cubic_char_table(p, g)
    return residue_map_omega(g), tuple(e * (t[3 * j % p] or 0) % 3 for j in range(2 * p))


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
    """Extend the compact store (alpha, beta, in place; slot k holds
    a_(3k+1)) from n <= M0 = 3 len(alpha) - 2 to n <= M by adding
    psi(g) = w^e g to a_N(g) for every primary g with M0 < N(g) <= M.
    tables holds one or two (w, T) of _psi_exponents, and e is the sum of
    their T at g mod pi (or pibar).  A point with p | N(g) writes only to a
    slot with p | n, which the caller overwrites or zeroes.  Along a row the
    slot advances by differences: N(a + 3) - N(a) = 3 (2a + 3 - b)."""
    M0 = 3 * len(alpha) - 2
    K = (M + 2) // 3
    alpha += [0] * (K - len(alpha))
    beta += [0] * (K - len(beta))
    inv3 = pow(3, -1, p)
    # a row of at most n_max points is one slice of a table of at least
    # p + n_max entries, from j0 = (a0 + b w)/3 = a0/3 + b (w/3) mod p
    n_max = math.isqrt(4 * M) // 3 + 1
    (w1, T1), *twist = [(w * inv3 % p, T * (n_max // p + 1)) for w, T in tables]
    for b, start, stop in _primary_rows(M0, M):
        n = (stop - start + 2) // 3
        a3 = start * inv3
        j = (a3 + b * w1) % p
        exps = T1[j : j + n]
        for w2, T2 in twist:
            j = (a3 + b * w2) % p
            exps = [(x + y) % 3 for x, y in zip(exps, T2[j : j + n])]
        a, k, dk = start, (start * (start - b) + b * b - 1) // 3, 2 * start + 3 - b
        for e in exps:
            if not e:  # w^0 (a + b w)
                alpha[k] += a
                beta[k] += b
            elif e == 1:  # w (a + b w) = -b + (a - b) w
                alpha[k] -= b
                beta[k] += a - b
            else:  # w^2 (a + b w) = (b - a) - a w
                alpha[k] += b - a
                beta[k] -= a
            a += 3
            k += dk
            dk += 6


def qexp_coefficients(p, i, M, conjugate=False, prefix=None):
    """(alpha, beta), two int lists with a_(3k+1) = alpha[k] + beta[k] w:
    the K = (M + 2) // 3 slots n = 3k + 1 <= M of the support (a_n vanishes
    off n = 1 mod 3; as_eisenstein spreads them to a_0..a_M).  `prefix`, the
    newform's own compact pair up to some n, is not changed; only the
    lattice points of norm past it are walked."""
    K = (M + 2) // 3
    if prefix is None or not prefix[0]:
        prefix = ([1], [0])
    alpha, beta = prefix[0][:K], prefix[1][:K]
    K0 = len(alpha)
    if K > K0:
        # psi(g) = w^(-i k) g with (g/pi)_3 = w^k on g prime to p ...
        _walk(p, alpha, beta, M, (_psi_exponents(p, -i % 3, False),))
        # ... and a_(pm) = pibar a_m, as (pibar^v) is the one ideal of norm
        # p^v prime to the conductor: n = pm = 3k + 1 has m = 3(k // p) + 1
        # and k = (p - 1)/3 mod p
        r = (p - 1) // 3
        slots = range(K0 + (r - K0) % p, K, p)
        if slots:
            pibar = split_prime(p).pibar
            x, y = pibar.a, pibar.b
        for k in slots:
            a, b = alpha[k // p], beta[k // p]
            alpha[k], beta[k] = x * a - y * b, x * b + y * a - y * b
    if conjugate:  # conj(a + b w) = (a - b) - b w
        return [a - b for a, b in zip(alpha, beta)], [-b for b in beta]
    return alpha, beta


def as_eisenstein(coeffs, M):
    """a_0..a_M as a list of EisensteinInts from a compact (alpha, beta)
    pair of slots n = 3k + 1 (zero elsewhere), for fixtures and checks at
    small M."""
    a = [ZERO] * (M + 1)
    for n, x, y in zip(range(1, M + 1, 3), *coeffs):
        a[n] = EisensteinInt(x, y)
    return a


@dataclass
class HeckeForm:
    """The newform's one coefficient store: a_(3k+1) = alpha[k] + beta[k] w
    for the (terms + 2) // 3 slots 3k + 1 <= terms; a_n vanishes off
    n = 1 mod 3.  The coefficients do not depend on precision, so a store is
    never rebuilt: extend() walks only the lattice points of norm above the
    terms it holds."""

    p: int
    i: int
    N: int
    terms: int
    alpha: list
    beta: list

    def extend(self, M):
        """Hold at least a_1..a_M; only the missing terms are computed."""
        if M > self.terms:
            self.alpha, self.beta = qexp_coefficients(
                self.p, self.i, M, prefix=(self.alpha, self.beta)
            )
            self.terms = M


def build_form(p, i, M, coeffs=None):
    """HeckeForm with coefficients a_1..a_M, a compact (alpha, beta) pair
    computed unless supplied."""
    _, N = conductor_and_level(p, i)
    alpha, beta = qexp_coefficients(p, i, M) if coeffs is None else coeffs
    return HeckeForm(p=p, i=i, N=N, terms=M, alpha=alpha, beta=beta)


def spot_check(p, i, coeffs):
    """Whether a stored compact prefix (alpha, beta) agrees with a fresh walk
    at every slot n <= 100 it holds (the K <= 34 slots 3k + 1 <= 100)."""
    K = min(len(coeffs[0]), 34)
    return K >= 1 and qexp_coefficients(p, i, 3 * K - 2) == tuple(c[:K] for c in coeffs)


# ------------------------------------------------------------- nebentypus


def nebentypus(p, i, d):
    """xi(d) = (-3/d) psi((d))/d on integers, computed through the residue
    character mod p: xi(d) = conj((d/pi)_3^i) by cubic reciprocity (signs and
    units drop out of the symbol).  Zero when gcd(d, 3p) > 1."""
    d = int(d)
    if d % 3 == 0 or d % p == 0:
        return ZERO
    return unit_power(_psi_exponents(p, -i % 3, False)[1][d * pow(3, -1, p) % p])


def _twist_coefficients(p, i, M):
    """The compact (alpha, beta) of b_n, n <= M, for the rational curve
    y^2 = x^3 + p^(6-2i)/4.  The sextic symbol of the square p^(6-2i) is the
    cubic symbol of its root, so psi(g) = conj((p^(3-i)/g)_3) g on primary g
    with p not dividing N(g), and (p/g)_3 = (g/pi)_3 (g/pibar)_3 by cubic
    reciprocity; the slots with p | n, where the walk wrote the points p
    divides, are zeroed."""
    alpha, beta = [], []
    _walk(p, alpha, beta, M, [_psi_exponents(p, (i - 3) % 3, conj) for conj in (False, True)])
    r = (p - 1) // 3  # n = 3k + 1 = 0 mod p
    alpha[r::p] = beta[r::p] = [0] * len(range(r, len(alpha), p))
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
    a = as_eisenstein(qexp_coefficients(p, i, M), M)
    b = as_eisenstein(_twist_coefficients(p, i, M), M)
    for n in range(1, M + 1):
        want = nebentypus(p, i, n) * a[n]
        if n % p and b[n] != want:
            raise MismatchAt(n, b[n], want)
    return TwistReport(p=p, i=i, M=M, checked=M - M // p)
