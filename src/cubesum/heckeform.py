"""Coefficients of the weight-2 CM newform attached to y^2 = x^3 + pibar^(2i)/4.

The Hecke character sends a prime ideal (g), g = 1 mod 3 coprime to 3*pi, to
conj((pi^i/g)_3) * g; summing over integral ideals prime to the conductor
gives a_n supported on n = 1 mod 3, with a_p = pibar.  Coefficients come
from one multiplicative sieve: the character's trace at split primes, and
the Hecke recursion at prime powers.  twist_check runs the same sieve for
the rational twist's character; a direct generator enumeration over the
norm ball is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eisenstein import (
    ONE,
    BadNormalization,
    EisensteinInt,
    NotPrime,
    ZERO,
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


# ------------------------------------------------------------------ sieve


def _smallest_prime_factors(limit):
    spf = list(range(limit + 1))
    for q in range(2, int(limit**0.5) + 1):
        if spf[q] == q:
            for m in range(q * q, limit + 1, q):
                if spf[m] == m:
                    spf[m] = q
    return spf


def _cubic_symbol_split(value_mod_l, ell, w):
    """Exponent k with (value/g)_3 = w^k, computed in F_ell (w = omega mod g)."""
    c = pow(value_mod_l, (ell - 1) // 3, ell)
    if c == 1:
        return 0
    if c == w:
        return 1
    if c == w * w % ell:
        return 2
    raise ArithmeticError("cube character value out of range")


def _psi_trace(c, ell):
    """psi(lam) + psi(lambar) at a split prime ell coprime to 3c, where
    psi((g)) = conj((c/g)_3) * g for the generators g = 1 mod 3 above ell."""
    s_ell = split_prime(ell)
    total = ZERO
    for g in (s_ell.pi, s_ell.pibar):
        w = residue_map_omega(g)
        k = _cubic_symbol_split((c.a + c.b * w) % ell, ell, w)
        total = total + unit_power(-k) * g
    return total


def _hecke_sieve(p, M, c, a_p, xi, prefix=()):
    """a_0..a_M (a_0 unused) of the weight-2 form of the Hecke character
    psi((g)) = conj((c/g)_3) * g on primes (g) coprime to 3p.

    For n = m * ell^e with ell its smallest prime: a_n = a_m * a_{ell^e} when
    m > 1; a_ell is psi's trace at a split ell, a_p at p, and 0 at 3 and at
    an inert ell (no ideal has norm ell); higher powers follow the Hecke
    recursion a_{ell^e} = a_ell a_{ell^(e-1)} - xi(ell) ell a_{ell^(e-2)}.
    Every a_n comes from a_m with m < n only, so the sieve resumes after a
    known prefix a_0..a_k (k >= 1) and builds a_(k+1)..a_M alone.
    """
    spf = _smallest_prime_factors(M)
    coeffs = ([ZERO, ONE] if len(prefix) < 2 else list(prefix))[: M + 1]
    start = len(coeffs)
    coeffs += [ZERO] * (M + 1 - start)
    for n in range(start, M + 1):
        ell = spf[n]
        m, q = n, 1
        while m % ell == 0:
            m //= ell
            q *= ell
        if m > 1:
            coeffs[n] = coeffs[m] * coeffs[q]
        elif n == p:
            coeffs[n] = a_p
        elif n == ell:
            coeffs[n] = _psi_trace(c, ell) if ell % 3 == 1 else ZERO
        else:
            prev = n // ell
            coeffs[n] = coeffs[ell] * coeffs[prev] - xi(ell) * ell * coeffs[prev // ell]
    return coeffs


def qexp_coefficients(p, i, M, conjugate=False, prefix=()):
    """a_1..a_M of the newform (index 0 of the returned list is unused); the
    terms of `prefix`, the newform's own a_0..a_k, are taken as they are."""
    split = split_prime(p)
    coeffs = _hecke_sieve(
        p, M, split.pi**i, split.pibar, lambda ell: nebentypus(p, i, ell), prefix
    )
    if conjugate:
        coeffs = [c.conj() for c in coeffs]
    return coeffs


def qexp_coefficients_direct(p, i, M, conjugate=False):
    """Oracle route: walk generators x = 1 mod 3 with norm <= M, coprime to
    the conductor, and sum psi((x)) per norm.  psi((x)) is assembled from the
    prime factorization of x by trial division, with symbols from the generic
    Euler-criterion implementation."""
    split = split_prime(p)
    coeffs = [ZERO] * (M + 1)
    bound = int((4 * M / 3) ** 0.5) + 2
    sym_cache = {}

    def prime_symbol(g):
        if g not in sym_cache:
            sym_cache[g] = cubic_residue_symbol(split.pi, g) ** i
        return sym_cache[g]

    spf = _smallest_prime_factors(M)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            x = EisensteinInt(a, b)
            n = x.norm()
            if n == 0 or n > M or x.residue_mod3() != (1, 0):
                continue
            if n % p == 0 and not x % split.pi:
                continue  # not coprime to the conductor
            # factor x by trial division over the primes dividing its norm
            sym = ONE
            rest = x
            m = n
            while m > 1:
                ell = spf[m]
                if ell % 3 == 2:
                    g = EisensteinInt(-ell, 0)
                    while not rest % g:
                        rest = rest.exact_div(g)
                        sym = sym * prime_symbol(g)
                        m //= ell * ell
                else:
                    s_ell = split_prime(ell)
                    for g in (s_ell.pi, s_ell.pibar):
                        while not rest % g:
                            rest = rest.exact_div(g)
                            if ell != p:  # psi at (pibar) is pibar itself
                                sym = sym * prime_symbol(g)
                            m //= ell
            if not rest.is_unit():
                raise AssertionError(f"a_{n}: cofactor {rest} is not a unit")
            coeffs[n] = coeffs[n] + sym.conj() * x
    if M >= 1:
        if coeffs[1] != ONE:
            raise AssertionError(f"a_1 = {coeffs[1]}, not 1")
    if conjugate:
        coeffs = [c.conj() for c in coeffs]
    return coeffs


@dataclass
class HeckeForm:
    """The newform's one coefficient store, a_0..a_terms (a_0 unused).  The
    coefficients do not depend on precision, so a store is never rebuilt:
    extend() resumes the sieve after the terms it holds."""

    p: int
    i: int
    N: int
    coeffs: list

    @property
    def terms(self):
        return len(self.coeffs) - 1

    def extend(self, M):
        """Hold at least a_1..a_M; only the missing terms are sieved."""
        if M > self.terms:
            self.coeffs = qexp_coefficients(self.p, self.i, M, prefix=self.coeffs)


def build_form(p, i, M, coeffs=None):
    """HeckeForm with coefficients a_1..a_M (computed unless supplied)."""
    _, N = conductor_and_level(p, i)
    if coeffs is None:
        coeffs = qexp_coefficients(p, i, M)
    return HeckeForm(p=p, i=i, N=N, coeffs=coeffs)


def spot_check(p, i, coeffs):
    """Whether a stored prefix a_0..a_M recomputes at a_1 = 1, a_p = pibar
    and a_ell, ell < 100 split, as far as M reaches."""
    split = split_prime(p)
    want = {1: ONE, p: split.pibar}
    for ell in range(7, 100, 6):
        if ell != p and is_prime_int(ell):
            want[ell] = _psi_trace(split.pi**i, ell)
    M = len(coeffs) - 1
    return M >= 1 and all(coeffs[n] == a for n, a in want.items() if n <= M)


# ------------------------------------------------------------- nebentypus


def nebentypus(p, i, d):
    """xi(d) = (-3/d) psi((d))/d on integers, computed through the residue
    character mod p: xi(d) = conj((d/pi)_3^i) by cubic reciprocity (signs and
    units drop out of the symbol).  Zero when gcd(d, 3p) > 1."""
    d = int(d)
    if d % 3 == 0 or d % p == 0:
        return ZERO
    split = split_prime(p)
    w = residue_map_omega(split.pi)
    k = _cubic_symbol_split(pow(d % p, i, p), p, w)
    return unit_power(-k)


def _twist_coefficients(p, i, M):
    """b_0..b_M of the rational curve y^2 = x^3 + p^(6-2i)/4.  The sextic
    symbol of the square p^(6-2i) is the cubic symbol of its root, so psi
    has c = p^(3-i); 3 and p are bad, and the nebentypus is trivial."""
    return _hecke_sieve(
        p, M, EisensteinInt(p ** (3 - i), 0), ZERO, lambda ell: ZERO if 3 * p % ell == 0 else ONE
    )


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
    chi is the cubic residue character mod p."""
    split = split_prime(p)
    a = qexp_coefficients(p, i, M)
    b = _twist_coefficients(p, i, M)

    w = residue_map_omega(split.pi)
    checked = 0
    for n in range(1, M + 1):
        if n % p == 0:
            continue
        if n % 3 == 1:
            # the twisting character is conj((pi^i/n)_3); with (n/pi)_3 = w^k
            # via cubic reciprocity this is w^(-k)
            k = _cubic_symbol_split(pow(n % p, i, p), p, w)
            want = unit_power(-k) * a[n]
        else:
            want = ZERO
        if b[n] != want:
            raise MismatchAt(n, b[n], want)
        checked += 1
    return TwistReport(p=p, i=i, M=M, checked=checked)
