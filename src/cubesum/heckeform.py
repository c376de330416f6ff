"""Coefficients of the weight-2 CM newform attached to y^2 = x^3 + pibar^(2i)/4.

The Hecke character sends an ideal (g), g = 1 mod 3 coprime to 3*pi, to
psi((g)) = conj((pi^i/g)_3) * g, and a_n sums psi over the ideals of norm n
prime to the conductor: a_n is supported on n = 1 mod 3, with a_p = pibar.
The rational curve y^2 = x^3 + p^(6-2i)/4 has the character psi'((g)) =
conj((p^(3-i)/g)_3) * g on the same g with p not dividing N(g), and
integer coefficients b_n (Rodriguez-Villegas--Zagier, CMS Conf. Proc. 15,
1995; Ireland--Rosen, ch. 9).  The store holds only them: one int list
with b[k] = b_(3k+1), zero where p | n.  Three facts make that enough.
Symbols here are cubic residue symbols with primary denominators (g = 1
mod 3, as is pi), multiplicative in the denominator, and conj((x/g)_3) =
(conj(x)/conj(g))_3 (conjugate Euler's criterion).

- a_n = w^e(n) b_n for p not dividing n, where (n/pi)_3 = w^k(n) and e(n) =
  i k(n) mod 3, a function of n mod p.  Proof: (pi/g)_3 = (g/pi)_3 by cubic
  reciprocity, and (pibar/g)_3 = (g/pibar)_3 = conj((conj(g)/pi)_3); with
  p = pi pibar and x^3 = 1 for a cube root of unity, psi'(g)/psi(g) =
  conj((pi/g)^-2i (pibar/g)^-i) = (g/pi)^2i (conj(g)/pi)^2i = (N(g)/pi)^-i.
  The ratio depends on N(g) = n alone, so b_n = w^-e(n) a_n.
- psi'(conj(g)) = conj(psi'(g)): conj(g) is primary, of the same norm, and
  (p^(3-i)/conj(g))_3 = conj((p^(3-i)/g)_3) as p is rational.  So g =
  a + b w with b > 0 and its conjugate add psi'(g) + conj(psi'(g)) = 2x - y
  to b_N(g), for psi'(g) = x + y w (w + conj(w) = -1).
- psi'(a) = a for rational a (b = 0): (p/a)_3 is its own conjugate
  (conj(p)/conj(a))_3, so it is a real cube root of unity, 1.

So the walk (_pair_walk) visits the primary points a + b w with b >= 0,
half the lattice, and takes psi'(g) = w^e g with e = i (k1 + k2), (g/pi)_3
= w^k1 and (g/pibar)_3 = w^k2, as (p/g)_3 = (g/pi)_3 (g/pibar)_3 by cubic
reciprocity; each symbol depends only on g mod pi (or pibar) in F_p, so it
is one table lookup.  The rest of the package reads a_n back from the
store: a_n = w^e(n) b_n, and a_(pm) = pibar a_m, as (pibar^v) is the one
ideal of norm p^v prime to the conductor.  twist_check compares the store
with an independent walk of the newform's own character over the whole
lattice; a generator enumeration that factors each point and takes the
generic Euler-criterion symbol is the tests' oracle for both.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .eisenstein import (
    ZERO,
    EisensteinInt,
    Record,
    cubic_char_table,
    is_prime_int,
    residue_map_omega,
    split_prime,
    unit_power,
)


class BadPrimeClass(ValueError):
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


# ------------------------------------------------------------- lattice walk


@functools.lru_cache(maxsize=64)
def _psi_exponents(p, e, conj):
    """(w, T) for g = pi, or pibar when conj, of split_prime(p): w is the
    image of w mod g, and T[j] = e * k mod 3 with (3j/g)_3 = w^k, for j in
    range(2p).  The table is in stride-3 order (T[j] = t[3j mod p] for the
    exponent t[x] of x), so the points a = a0, a0 + 3, ... of a walk row read
    the contiguous run T[j0], T[j0 + 1], ..., j0 = a0/3 mod p < p, which
    wraps past p once within the 2p entries; x in F_p has exponent
    T[x/3 mod p].  T[0] = 0 stands for the points g divides.  T is bytes,
    so that runs of it add as integers (_pair_walk).  Memoized, as every
    walk over p needs the same table; callers pass e mod 3."""
    split = split_prime(p)
    g = split.pibar if conj else split.pi
    t = cubic_char_table(p, g)
    return residue_map_omega(g), bytes(e * (t[3 * j % p] or 0) % 3 for j in range(2 * p))


def _primary_rows(M0, M, b0=None):
    """(b, start, stop): the points g = a + b w with a = 1 and b = 0 mod 3,
    b >= b0 when b0 is given, and M0 < N(g) <= M are a in range(start, stop,
    3), one or two spans per b.  N(g) = a^2 - ab + b^2 <= M exactly when
    |2a - b| <= isqrt(4M - 3b^2)."""
    B = math.isqrt(4 * M // 3)
    for b in range(-(B // 3) * 3 if b0 is None else b0, B + 1, 3):
        r = math.isqrt(4 * M - 3 * b * b)
        spans = [((b - r + 1) // 2, (b + r) // 2)]
        if 4 * M0 >= 3 * b * b:
            r0 = math.isqrt(4 * M0 - 3 * b * b)
            spans = [(spans[0][0], (b - r0 + 1) // 2 - 1), ((b + r0) // 2 + 1, spans[0][1])]
        for lo, hi in spans:
            lo += (1 - lo) % 3
            if lo <= hi:
                yield b, lo, hi + 1


def _row_tables(p, M, e, conjs):
    """(w/3 mod p, T) for each conj in conjs, from _psi_exponents(p, e,
    conj), with T repeated so that a row of a walk to M (at most isqrt(4M)/3
    + 1 points) is one slice of it, from j0 = (a0 + b w)/3 = a0/3 + b (w/3)
    mod p."""
    inv3 = pow(3, -1, p)
    reps = (math.isqrt(4 * M) // 3 + 1) // p + 1
    return [(w * inv3 % p, T * reps) for w, T in (_psi_exponents(p, e, c) for c in conjs)]


def _walk(p, i, alpha, beta, M):
    """The newform's own walk, over every primary point: extend the pair
    (alpha, beta), in place, slot k holding a_(3k+1) = alpha[k] + beta[k] w,
    from n <= M0 = 3 len(alpha) - 2 to n <= M by adding psi(g) = w^(-i k) g,
    (g/pi)_3 = w^k, to a_N(g) for every primary g with M0 < N(g) <= M.  A
    point with p | N(g) writes only to a slot with p | n, which is left as
    it falls.  Along a row the slot advances by differences: N(a + 3) -
    N(a) = 3 (2a + 3 - b).  twist_check's independent side; the store comes
    from _pair_walk."""
    M0 = 3 * len(alpha) - 2
    K = (M + 2) // 3
    alpha += [0] * (K - len(alpha))
    beta += [0] * (K - len(beta))
    inv3 = pow(3, -1, p)
    [(w1, T)] = _row_tables(p, M, -i % 3, (False,))
    for b, start, stop in _primary_rows(M0, M):
        j = (start * inv3 + b * w1) % p
        a, k, dk = start, (start * (start - b) + b * b - 1) // 3, 2 * start + 3 - b
        for e in T[j : j + (stop - start + 2) // 3]:
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


# translate tables (256 entries; the bytes here stop at 8): y -> 3y, and
# x + 3y -> (x + y) mod 3 for the byte sums of two exponent runs
_TIMES3 = bytes((0, 3, 6)).ljust(256, b"\0")
_ADD_MOD3 = bytes((v + v // 3) % 3 for v in range(9)).ljust(256, b"\0")


def _pair_walk(p, i, b, M):
    """Extend the store b (in place; slot k holds b_(3k+1)) from n <= M0 =
    3 len(b) - 2 to n <= M by adding psi'(g) + psi'(conj(g)) to b_N(g) for
    every primary g = a + y w with y >= 0 and M0 < N(g) <= M (the module
    docstring's pair sums; the row y = 0 adds a), then zeroing the new slots
    with p | n, where the points p divides wrote.  The exponents of a row
    are T1 + T2 mod 3 of the two tables' runs, summed as the bytes of two
    integers (T2 scaled by 3, so no byte carries) and reduced by one
    translate."""
    K0 = len(b)
    M0 = 3 * K0 - 2
    K = (M + 2) // 3
    b += [0] * (K - K0)
    inv3 = pow(3, -1, p)
    (w1, T1), (w2, T2) = _row_tables(p, M, i % 3, (False, True))
    T2 = T2.translate(_TIMES3)
    run = int.from_bytes
    for y, start, stop in _primary_rows(M0, M, 0):
        if not y:  # psi'(a) = a, counted once
            for a in range(start, stop, 3):
                b[(a * a - 1) // 3] += a
            continue
        n = (stop - start + 2) // 3
        j1, j2 = (start * inv3 + y * w1) % p, (start * inv3 + y * w2) % p
        exps = (run(T1[j1 : j1 + n], "little") + run(T2[j2 : j2 + n], "little")).to_bytes(
            n, "little"
        )
        a, k, dk = start, (start * (start - y) + y * y - 1) // 3, 2 * start + 3 - y
        for e in exps.translate(_ADD_MOD3):
            if not e:  # a + y w: 2a - y
                b[k] += 2 * a - y
            elif e == 1:  # w (a + y w) = -y + (a - y) w: -a - y
                b[k] -= a + y
            else:  # w^2 (a + y w) = (y - a) - a w: 2y - a
                b[k] += 2 * y - a
            a += 3
            k += dk
            dk += 6
    r = (p - 1) // 3  # n = 3k + 1 = 0 mod p
    for k in range(K0 + (r - K0) % p, K, p):
        b[k] = 0


def qexp_coefficients(p, i, M, prefix=None):
    """The store to n <= M: one int list b with b[k] = b_(3k+1) of the
    rational curve y^2 = x^3 + p^(6-2i)/4, zero where p | n, over the
    K = (M + 2) // 3 slots n = 3k + 1 <= M of the support (b_n vanishes off
    n = 1 mod 3).  `prefix`, a store up to some n, is not changed; only the
    lattice points of norm past it are walked.  newform_pairs reads the
    newform's a_n from it."""
    K = (M + 2) // 3
    b = (prefix or [1])[:K]
    if K > len(b):
        _pair_walk(p, i, b, M)
    return b


@functools.lru_cache(maxsize=64)
def _units(p, e):
    """(A, B): w^e(n) = A[k mod p] + B[k mod p] w at the slot k of n = 3k + 1
    (n/3 = k + 1/3 mod p), with e(n) = e k(n) mod 3, (n/pi)_3 = w^k(n).
    w^0 = 1, w^1 = w and w^2 = -1 - w.  Memoized like _psi_exponents."""
    j0 = pow(3, -1, p)
    E = _psi_exponents(p, e, False)[1][j0 : j0 + p]
    return tuple((1, 0, -1)[x] for x in E), tuple((0, 1, -1)[x] for x in E)


def _spread(p, i, b, conjugate=False):
    """(alpha, beta) with a_(3k+1) = alpha[k] + beta[k] w from the store b:
    w^e(n) b_n, conj(a_n) = w^-e(n) b_n for the conjugate form, and a_(pm)
    = pibar a_m (pi conj(a_m)) in the slots p | n, filled upwards as m < n."""
    A, B = _units(p, (-i if conjugate else i) % 3)
    alpha = list(map(operator.mul, b, itertools.cycle(A)))
    beta = list(map(operator.mul, b, itertools.cycle(B)))
    split = split_prime(p)
    g = split.pi if conjugate else split.pibar
    for k in range((p - 1) // 3, len(b), p):  # n = pm, m = 3 (k // p) + 1
        x, y = alpha[k // p], beta[k // p]
        alpha[k], beta[k] = g.a * x - g.b * y, g.a * y + g.b * x - g.b * y
    return alpha, beta


def newform_pairs(p, i, M, conjugate=False):
    """(alpha, beta), two int lists with a_(3k+1) = alpha[k] + beta[k] w:
    the K = (M + 2) // 3 slots n = 3k + 1 <= M of the newform (or its
    conjugate), spread from a fresh store (as_eisenstein spreads them to
    a_0..a_M)."""
    return _spread(p, i, qexp_coefficients(p, i, M), conjugate)


def as_eisenstein(coeffs, M):
    """a_0..a_M as a list of EisensteinInts from a compact (alpha, beta)
    pair of slots n = 3k + 1 (zero elsewhere), for fixtures and checks at
    small M."""
    a = [ZERO] * (M + 1)
    for n, x, y in zip(range(1, M + 1, 3), *coeffs):
        a[n] = EisensteinInt(x, y)
    return a


class HeckeForm(Record):
    """The newform's one coefficient store: b[k] = b_(3k+1) for the
    (terms + 2) // 3 slots 3k + 1 <= terms, zero where p | n, and a_n =
    w^e(n) b_n off p | n (units, pairs).  The coefficients do not depend on
    precision, so a store is never rebuilt: extend() walks only the lattice
    points of norm above the terms it holds."""

    __slots__ = ("p", "i", "N", "terms", "b")

    def extend(self, M):
        """Hold at least n <= M; only the missing terms are computed."""
        if M > self.terms:
            self.b = qexp_coefficients(self.p, self.i, M, prefix=self.b)
            self.terms = M

    def units(self):
        """(A, B) with a_n = (A[k mod p] + B[k mod p] w) b_n at the slot k of
        n = 3k + 1, p not dividing n."""
        return _units(self.p, self.i % 3)

    def pairs(self, stop=None):
        """(alpha, beta) of the slots k < stop (all held when None), as
        newform_pairs gives them."""
        return _spread(self.p, self.i, self.b[:stop])


def build_form(p, i, M, b=None):
    """HeckeForm with the store to n <= M, walked unless supplied."""
    _, N = conductor_and_level(p, i)
    return HeckeForm(p=p, i=i, N=N, terms=M, b=qexp_coefficients(p, i, M) if b is None else b)


def spot_check(p, i, b):
    """Whether a stored prefix b agrees with a fresh walk at every slot
    n <= 100 it holds (the K <= 34 slots 3k + 1 <= 100)."""
    K = min(len(b), 34)
    return K >= 1 and qexp_coefficients(p, i, 3 * K - 2) == b[:K]


# ------------------------------------------------------------- nebentypus


def nebentypus(p, i, d):
    """xi(d) = (-3/d) psi((d))/d on integers, computed through the residue
    character mod p: xi(d) = conj((d/pi)_3^i) by cubic reciprocity (signs and
    units drop out of the symbol).  Zero when gcd(d, 3p) > 1."""
    d = int(d)
    if d % 3 == 0 or d % p == 0:
        return ZERO
    return unit_power(_psi_exponents(p, -i % 3, False)[1][d * pow(3, -1, p) % p])


def twist_check(p, i, M):
    """Verify b_n = conj(chi)(n) * a_n for n <= M coprime to p, and b_n = 0
    for p | n, between two independent walks: the store's pair walk of the
    rational curve's character psi' and the full-lattice walk of the
    newform's psi, with conj(chi)(n) = conj((pi^i/n)_3) = nebentypus(p, i,
    n) by cubic reciprocity (both sides vanish off n = 1 mod 3).  Returns
    the count of n compared, M - M // p."""
    alpha, beta = [1], [0]
    _walk(p, i, alpha, beta, M)
    a = as_eisenstein((alpha, beta), M)
    b = as_eisenstein((qexp_coefficients(p, i, M), [0] * M), M)
    for n in range(1, M + 1):
        want = nebentypus(p, i, n) * a[n] if n % p else ZERO
        if b[n] != want:
            raise MismatchAt(n, b[n], want)
    return M - M // p
