import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cubesum import heckeform
from cubesum.eisenstein import (
    ONE,
    W2,
    ZERO,
    BadNormalization,
    EisensteinInt,
    NotPrime,
    is_prime_element,
    is_prime_int,
    norm,
    split_prime,
)
from cubesum.heckeform import (
    BadPrimeClass,
    MismatchAt,
    as_eisenstein,
    build_form,
    conductor_and_level,
    nebentypus,
    newform_pairs,
    qexp_coefficients,
    twist_check,
)

from eisenstein_helpers import cubic_residue_symbol, exact_div

rng = random.Random(7131)


class RamifiedIdeal(ValueError):
    pass


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


def generator_sum(M, psi_at_prime):
    """c_0..c_M with c_n the sum over the generators x = 1 mod 3 of norm n
    of prod psi_at_prime(lam) over the primary prime factors lam of x, with
    multiplicity; x is left out where psi_at_prime gives None.  x is
    factored by trial division over the primes dividing its norm."""
    coeffs = [ZERO] * (M + 1)
    bound = int((4 * M / 3) ** 0.5) + 2
    cache = {}
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            x = EisensteinInt(a, b)
            n = x.norm()
            if n == 0 or n > M or x.residue_mod3() != (1, 0):
                continue
            psi, rest, m = ONE, x, n
            while m > 1 and psi is not None:
                ell = next((q for q in range(2, math.isqrt(m) + 1) if m % q == 0), m)
                if ell % 3 == 2:
                    gens, step = [EisensteinInt(-ell, 0)], ell * ell
                else:
                    s_ell = split_prime(ell)
                    gens, step = [s_ell.pi, s_ell.pibar], ell
                for g in gens:
                    while psi is not None and not rest % g:
                        rest = exact_div(rest, g)
                        if g not in cache:
                            cache[g] = psi_at_prime(g)
                        psi = None if cache[g] is None else psi * cache[g]
                        m //= step
            if psi is None:
                continue
            # x and its factors are primary, so x is their product exactly
            assert rest == ONE, f"c_{n}: cofactor {rest} is not 1"
            coeffs[n] = coeffs[n] + psi
    return coeffs


def qexp_coefficients_direct(p, i, M, conjugate=False):
    """Oracle route for the newform: psi((x)) over the generators x = 1 mod 3
    with norm <= M coprime to the conductor, the product of hecke_psi over
    the prime factors of x (psi at (pibar) is pibar itself), with symbols
    from the generic Euler-criterion implementation."""
    split = split_prime(p)

    def psi(g):
        if g == split.pi:
            return None  # not coprime to the conductor
        return g if g == split.pibar else hecke_psi(g, p, i)

    coeffs = generator_sum(M, psi)
    assert M < 1 or coeffs[1] == ONE, f"a_1 = {coeffs[1]}, not 1"
    if conjugate:
        coeffs = [c.conj() for c in coeffs]
    return coeffs


def twist_coefficients_direct(p, i, M):
    """Oracle route for the store: b_n, n <= M, of y^2 = x^3 + p^(6-2i)/4,
    psi'((x)) = conj((p^(3-i)/x)_3) x over the generators x = 1 mod 3 with p
    not dividing N(x), the symbol taken at each prime factor of x."""

    def psi(g):
        if g.norm() % p == 0:
            return None
        return (cubic_residue_symbol(EisensteinInt(p), g) ** (3 - i)).conj() * g

    return generator_sum(M, psi)


def test_level_fixtures():
    assert conductor_and_level(7, 1) == (2, 189)
    assert conductor_and_level(13, 1) == (1, 117)
    assert conductor_and_level(31, 1) == (1, 279)
    # p^2 flips the class mod 9: 49 = 4, 169 = 7, 961 = 7
    assert conductor_and_level(7, 2) == (1, 63)
    assert conductor_and_level(13, 2) == (2, 351)
    assert conductor_and_level(31, 2) == (2, 837)


def test_level_rejects_other_classes():
    for p in (5, 11, 17, 19, 12):
        with pytest.raises(BadPrimeClass):
            conductor_and_level(p, 1)


def test_hecke_psi_fixtures():
    # (-2) for p=7: expected value derived from the cubic symbol directly
    g = EisensteinInt(-2, 0)
    sym = cubic_residue_symbol(split_prime(7).pi, g)
    assert hecke_psi(g, 7, 1) == sym.conj() * g
    assert hecke_psi(g, 7, 1) == EisensteinInt(0, -2)  # conj(w^2) * (-2) = -2w
    # trivial symbol: psi is the generator itself (6w+1 is a cube mod 3w+1)
    g = EisensteinInt(1, 6)
    assert cubic_residue_symbol(split_prime(7).pi, g) == ONE
    assert hecke_psi(g, 7, 1) == g


def test_hecke_psi_errors():
    with pytest.raises(BadNormalization):
        hecke_psi(EisensteinInt(2, 0), 7, 1)
    with pytest.raises(RamifiedIdeal):
        hecke_psi(EisensteinInt(1, -1) * -W2, 7, 1)  # associate of sqrt(-3)
    with pytest.raises(RamifiedIdeal):
        hecke_psi(split_prime(7).pibar, 7, 1)


def test_psi_norm_preserved():
    for g in (EisensteinInt(-2, 0), split_prime(13).pi, split_prime(19).pibar):
        v = hecke_psi(g, 7, 1)
        assert norm(v) == norm(g)


def test_ap_is_pibar_and_symbol_truly_trivial():
    # the special case psi((pibar)) = pibar agrees with the symbol formula
    for p in (7, 13, 31):
        s = split_prime(p)
        for i in (1, 2):
            assert cubic_residue_symbol(s.pi**i, s.pibar) == ONE
            a = as_eisenstein(newform_pairs(p, i, p), p)
            assert a[p] == s.pibar


def test_first_coefficients_p7():
    # hand-derived: a_4 = psi((-2)) = -2w, a_7 = pibar, a_10 = 0, a_13 = 2
    a = as_eisenstein(newform_pairs(7, 1, 13), 13)
    assert a[1] == ONE
    assert a[4] == EisensteinInt(0, -2)
    assert a[7] == EisensteinInt(-2, -3)
    assert a[10] == ZERO
    assert a[13] == EisensteinInt(2, 0)


def test_vanishing_off_1_mod_3():
    a = as_eisenstein(newform_pairs(7, 1, 200), 200)
    for n in range(1, 201):
        if n % 3 != 1:
            assert a[n] == ZERO


def test_lattice_walk_matches_factoring_oracle():
    # M = 700 reaches ell^3 and ell^4 (7^3, 5^4, 2^8), p^2 (49, 169) and p^3
    # (343); M = 2401 = 7^4 reaches v_p(n) = 4, four steps of a_(pm) = pibar a_m
    cases = [(p, i, 700) for p, i in ((7, 1), (13, 1), (7, 2), (31, 1), (13, 2), (31, 2))]
    for p, i, M in cases + [(7, 1, 2401), (7, 2, 2401)]:
        assert as_eisenstein(newform_pairs(p, i, M), M) == qexp_coefficients_direct(p, i, M)


# (p, i) at level N = 9p and N = 27p for each power
STORE_CASES = [(13, 1), (7, 1), (7, 2), (13, 2), (31, 1), (31, 2), (43, 1), (43, 2)]


@pytest.mark.parametrize("p, i", STORE_CASES)
def test_pair_walk_matches_the_twist_oracle(p, i):
    # the store is b_n of the rational curve, slot for slot, zero at every
    # slot p | n, and b_n is rational on the oracle's side too
    M = 1500
    want = twist_coefficients_direct(p, i, M)
    assert all(c.b == 0 for c in want)
    b = qexp_coefficients(p, i, M)
    assert len(b) == (M + 2) // 3
    assert b == [want[n].a for n in range(1, M + 1, 3)]
    assert all(b[k] == 0 for k in range((p - 1) // 3, len(b), p))  # n = p, 4p, 7p, ...


@pytest.mark.parametrize("p, i", STORE_CASES)
def test_store_spreads_to_the_hecke_psi_oracle(p, i):
    # a_n = w^e(n) b_n off p | n and a_(pm) = pibar a_m, against psi summed
    # over generators; the conjugate form likewise
    M = 400
    form = build_form(p, i, M)
    a = qexp_coefficients_direct(p, i, M)
    assert as_eisenstein(form.pairs(), M) == a
    assert as_eisenstein(newform_pairs(p, i, M, conjugate=True), M) == [c.conj() for c in a]


@settings(max_examples=40, deadline=None)
@given(
    pi=st.sampled_from(STORE_CASES),
    M1=st.integers(0, 2500),
    dM=st.integers(1, 2500),
)
def test_stepwise_extension_equals_one_walk(pi, M1, dM):
    p, i = pi
    form = build_form(p, i, M1)
    held = list(form.b)
    form.extend(M1 + dM)
    assert form.terms == M1 + dM
    assert form.b == qexp_coefficients(p, i, M1 + dM)
    assert form.b[: len(held)] == held


def test_twist_check_catches_a_wrong_store(monkeypatch):
    real = heckeform.qexp_coefficients

    def tampered(p, i, M, prefix=None):
        b = real(p, i, M, prefix)
        b[5] += 1  # b_16
        return b

    monkeypatch.setattr(heckeform, "qexp_coefficients", tampered)
    with pytest.raises(MismatchAt) as e:
        twist_check(7, 1, 100)
    assert e.value.n == 16


# sha256 of the `cubesum qexp p --power i --terms M` dump, as the
# multiplicative sieve with the Hecke recursion printed it
QEXP_DIGESTS = {
    (103, 1, 7800): "6f914315004bc8365ca3be47a0585cec9d30a57532dc113388ea04c39ba9799f",
    (61, 2, 9096): "05e7ea352d22da8bd405079c7ff7512879f10f253b7479755066f46e50fdf808",
    (409, 1, 102000): "3a07d1043892cc57cf59b57ad74bf735213093a83029f0f405af9fd652e5328f",
    (997, 2, 20000): "3dbc37a972118d67554d43504ffbdf02aefa4cb9a6ce92857b287b0dc8704b71",
}


@pytest.mark.parametrize("p, i, M", sorted(QEXP_DIGESTS))
def test_qexp_dump_reproduces_the_sieve_digest(p, i, M, capsys):
    from cubesum.cli import main

    assert main(["qexp", str(p), "--power", str(i), "--terms", str(M)]) == 0
    dump = capsys.readouterr().out
    assert hashlib.sha256(dump.encode()).hexdigest() == QEXP_DIGESTS[p, i, M]


def test_conjugate_form_is_coefficientwise_conjugate():
    a = as_eisenstein(newform_pairs(13, 1, 100), 100)
    ac = as_eisenstein(newform_pairs(13, 1, 100, conjugate=True), 100)
    assert ac == [c.conj() for c in a]
    acd = qexp_coefficients_direct(13, 1, 100, conjugate=True)
    assert ac == acd


def test_multiplicativity_exhaustive():
    M = 400
    a = as_eisenstein(newform_pairs(7, 1, M), M)
    for m in range(2, M):
        for n in range(2, M // m + 1):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n]


def test_hecke_recursion_at_good_primes():
    for p, i in ((7, 1), (13, 1), (31, 1), (7, 2)):
        a = as_eisenstein(newform_pairs(p, i, 2500), 2500)
        for ell in range(2, 50):
            if not is_prime_int(ell) or ell in (3, p):
                continue
            xi = nebentypus(p, i, ell)
            assert a[ell * ell] == a[ell] * a[ell] - xi * ell


def test_hecke_recursion_against_direct_enumeration():
    # the recursion at ell < 50 with a_ell, a_{ell^2} from the independent
    # generator-ball route
    a = qexp_coefficients_direct(7, 1, 2210)
    for ell in range(2, 50):
        if not is_prime_int(ell) or ell in (3, 7):
            continue
        xi = nebentypus(7, 1, ell)
        assert a[ell * ell] == a[ell] * a[ell] - xi * ell


def test_hecke_bound_at_split_primes():
    a = as_eisenstein(newform_pairs(7, 1, 200), 200)
    for ell in range(5, 200):
        if is_prime_int(ell) and ell % 3 == 1 and ell != 7:
            assert norm(a[ell]) <= 4 * ell


def test_nebentypus_cube_condition():
    # xi(d) = 1 iff d is a cube mod p (for d coprime to 3p)
    for p in (7, 13):
        cubes = {pow(x, 3, p) for x in range(1, p)}
        for d in range(1, 200):
            if d % 3 == 0 or d % p == 0:
                assert nebentypus(p, 1, d) == ZERO
            else:
                assert (nebentypus(p, 1, d) == ONE) == (d % p in cubes)


def test_nebentypus_multiplicative():
    for d1 in range(1, 40):
        for d2 in range(1, 40):
            x1, x2 = nebentypus(7, 1, d1), nebentypus(7, 1, d2)
            assert nebentypus(7, 1, d1 * d2) == x1 * x2


def test_nebentypus_against_psi_route():
    # xi(ell) * ell = psi(lam) * psi(lambar) at good split primes
    for p, i in ((7, 1), (13, 1), (31, 2)):
        a = as_eisenstein(newform_pairs(p, i, 2500), 2500)
        for ell in (7, 13, 19, 31, 37, 43):
            if ell == p:
                continue
            want = a[ell] * a[ell] - a[ell * ell]  # = psi((ell)) by the recursion
            assert nebentypus(p, i, ell) * ell == want


def test_twist_check_fixtures():
    assert twist_check(7, 1, 200) == 200 - 200 // 7
    twist_check(13, 1, 150)
    twist_check(31, 1, 150)
    twist_check(7, 2, 150)


def test_twisted_form_vanishes_at_p():
    # b_p = 0 on the rational-curve side (p is a bad prime there)
    s = split_prime(7)
    b = twist_coefficients_direct(7, 1, 49)
    assert b[7] == ZERO and b[49] == ZERO
    store = qexp_coefficients(7, 1, 49)
    assert store[(7 - 1) // 3] == 0 and store[(49 - 1) // 3] == 0
    # while the CM form itself has a_p = pibar^e
    a = as_eisenstein(newform_pairs(7, 1, 49), 49)
    assert a[7] == s.pibar and a[49] == s.pibar * s.pibar


def test_twist_check_zero_cases():
    # n = 2 mod 3: both sides vanish; n = p: the twisted side has b_p = 0
    a = as_eisenstein(newform_pairs(7, 1, 100), 100)
    assert a[7] != ZERO  # a_p = pibar on the form side...
    checked = twist_check(7, 1, 100)  # ...but the comparison skips multiples of p
    assert checked == sum(1 for n in range(1, 101) if n % 7 != 0)


def test_build_form():
    f = build_form(7, 1, 50)
    assert f.N == 189 and f.terms == 50


@pytest.mark.parametrize(
    "p, i, M0",
    [
        (p, i, M0)
        for p, i in [(7, 1), (13, 2), (31, 2)]
        for M0 in (p - 1, p, p + 1, p * p - 1, 7**3 - 1)
    ],
)
def test_extension_matches_a_fresh_sieve(p, i, M0):
    # resume just below a_p, a_(p^2) and a_(7^3): the annulus M0 < N <= 1100
    # then starts with the pibar^v shifts of the walk; M0 = p - 1, p, p + 1
    # cover every residue mod 3, so the held slots end at M0, M0 - 1, M0 - 2
    f = build_form(p, i, M0)
    held = f.b
    f.extend(M0 - 5)  # never shrinks
    assert f.terms == M0
    f.extend(1100)
    assert f.terms == 1100
    assert f.b == qexp_coefficients(p, i, 1100)
    assert held == qexp_coefficients(p, i, M0)  # the prefix is not changed
    assert f.pairs() == newform_pairs(p, i, 1100)


def test_long_rows_wrap_the_exponent_table():
    # at p = 7, M = 20000 a row holds up to 55 points, so its run of the
    # stride-3 table wraps past p several times
    M = 20000
    assert as_eisenstein(newform_pairs(7, 1, M), M) == qexp_coefficients_direct(7, 1, M)


@pytest.mark.parametrize("p, i", [(7, 1), (7, 2), (13, 1), (13, 2), (31, 1), (31, 2)])
def test_twisted_form_vanishes_at_every_multiple_of_p(p, i):
    # the pair walk writes the points p divides into the slots p | n and
    # then zeroes those slots; every other b_n matches the nebentypus twist
    M = 5000
    b = as_eisenstein((qexp_coefficients(p, i, M), [0] * M), M)
    assert all(b[n] == ZERO for n in range(p, M + 1, p))
    assert any(b[n] != ZERO for n in range(1, M + 1) if n % p)
    twist_check(p, i, 600)


def test_as_eisenstein_spreads_the_support():
    assert qexp_coefficients(7, 1, 20) == [1, -2, 0, 0, 2, 4, -7]
    coeffs = newform_pairs(7, 1, 20)
    assert coeffs == ([1, 0, -2, 0, 2, -4, 7], [0, -2, -3, 0, 0, -4, 7])
    for M in (19, 20, 21, 22):  # the last slot n = 19 and the zeros past it
        a = as_eisenstein(coeffs, M)
        assert len(a) == M + 1 and a[19] == EisensteinInt(7, 7)
        assert all(a[n] == ZERO for n in range(M + 1) if n % 3 != 1)
