import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cubesum.eisenstein import (
    BadModulus,
    BadNormalization,
    DividesSixD,
    EisensteinInt,
    FieldTooLarge,
    Fq2,
    NoPrimaryAssociate,
    NotPrime,
    NotSplit,
    ONE,
    QOmega,
    SQRT_M3,
    UNITS,
    W,
    W2,
    count_points_bruteforce,
    count_points_formula,
    gauss_sum,
    is_prime_element,
    jacobi_sum_cubic,
    jacobi_sum_split,
    norm,
    normalize_primary,
    residue_map_omega,
    sextic_residue_symbol,
    split_prime,
    sqrt_eis,
)

from eisenstein_helpers import cubic_residue_symbol, exact_div, is_integral

rng = random.Random(20240901)


def rand_eis(bound=50):
    return EisensteinInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


# ---------------------------------------------------------------- basic ring


def test_norm_fixtures():
    assert norm(EisensteinInt(1, 3)) == 7
    assert norm(W) == 1
    assert norm(EisensteinInt(1, 6)) == 31


def test_omega_relations():
    assert W * W == W2
    assert W * W2 == ONE
    assert W + W2 == EisensteinInt(-1, 0)
    assert SQRT_M3 * SQRT_M3 == EisensteinInt(-3, 0)


def test_norm_multiplicative():
    for _ in range(1000):
        x, y = rand_eis(), rand_eis()
        assert norm(x * y) == norm(x) * norm(y)


def test_divmod_is_euclidean():
    for _ in range(500):
        x, y = rand_eis(), rand_eis(12)
        if not y:
            continue
        q, r = divmod(x, y)
        assert q * y + r == x
        assert norm(r) < norm(y)


eis_ints = st.builds(
    EisensteinInt, st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200)
)


@given(eis_ints)
def test_sqrt_eis_recovers_a_root_and_rejects_non_squares(T):
    assert sqrt_eis(T * T) in (T, -T)
    if T:
        # -1, 2 (inert) and sqrt(-3) (ramified) are not squares, and T^2 + 1
        # = U^2 would need (U - T)(U + T) = 1, so T = 0
        for s in (T * T + 1, -(T * T), 2 * T * T, SQRT_M3 * T * T):
            assert sqrt_eis(s) is None, s


def test_sqrt_eis_small_cases():
    assert sqrt_eis(EisensteinInt(0)) == EisensteinInt(0)
    assert sqrt_eis(W) in (W2, -W2)  # w = (w^2)^2
    for s in (-W, EisensteinInt(2), SQRT_M3, EisensteinInt(3)):
        assert sqrt_eis(s) is None


def test_units_are_sixth_roots():
    assert len(set(UNITS)) == 6
    for u in UNITS:
        assert norm(u) == 1
        assert u**6 == ONE


# ------------------------------------------------------- primary associates


def oracle_primary(z, target):
    hits = [u * z for u in UNITS if (u * z).residue_mod3() == (target, 0)]
    assert len(hits) == 1
    return hits[0]


def test_normalize_primary_against_enumeration():
    for _ in range(300):
        z = rand_eis(30)
        if not z or norm(z) % 3 == 0:
            continue
        for target in (1, 2):
            assert normalize_primary(z, target) == oracle_primary(z, target)


def test_normalize_primary_fixtures():
    z = EisensteinInt(-2, -3)  # conjugate prime above 7, already 1 mod 3
    assert normalize_primary(z, 1) == z
    assert normalize_primary(ONE, 1) == ONE
    assert normalize_primary(EisensteinInt(2, 0), 2) == EisensteinInt(2, 0)


def test_normalize_primary_idempotent():
    for _ in range(100):
        z = rand_eis(30)
        if not z or norm(z) % 3 == 0:
            continue
        w = normalize_primary(z, 1)
        assert normalize_primary(w, 1) == w


def test_normalize_primary_rejects_norm_div_3():
    with pytest.raises(NoPrimaryAssociate):
        normalize_primary(EisensteinInt(1, -1), 1)  # norm 3


# --------------------------------------------------------------- splitting


def test_split_prime_fixtures():
    s7 = split_prime(7)
    assert s7.pi == EisensteinInt(1, 3)
    assert s7.pibar == EisensteinInt(-2, -3)
    s13 = split_prime(13)
    assert s13.pi == EisensteinInt(4, 3)
    assert s13.pibar == EisensteinInt(1, -3)
    s31 = split_prime(31)
    assert s31.pi == EisensteinInt(1, 6)
    assert s31.pibar == EisensteinInt(-5, -6)


def test_split_prime_invariants():
    for p in [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109, 127, 139]:
        s = split_prime(p)
        assert s.pi * s.pibar == EisensteinInt(p, 0)
        assert s.pi.residue_mod3() == (1, 0)
        assert s.pibar.residue_mod3() == (1, 0)
        assert s.pi.b > 0
        assert norm(s.pi) == p


def test_split_prime_rejects():
    with pytest.raises(NotSplit):
        split_prime(5)
    with pytest.raises(NotSplit):
        split_prime(21)


def test_residue_map_omega_fixtures():
    # derived by solving b*w = -a mod p
    assert residue_map_omega(EisensteinInt(1, 3)) == 2  # 3w = -1 mod 7
    assert residue_map_omega(EisensteinInt(4, 3)) == 3  # 3w = -4 mod 13
    assert residue_map_omega(EisensteinInt(1, -3)) == 9  # -3w = -1 mod 13


def test_residue_map_omega_is_cube_root():
    for p in [7, 13, 19, 31, 37, 43]:
        s = split_prime(p)
        for pi in (s.pi, s.pibar):
            w = residue_map_omega(pi)
            assert (w * w + w + 1) % p == 0
            # w really is the residue of the generator
            assert not (W - EisensteinInt(w, 0)) % pi


# ----------------------------------------------------------------- symbols


def brute_is_cube(a, pi):
    # cube enumeration oracle in the residue field
    p = norm(pi)
    return any(not (a - EisensteinInt(c, 0) ** 3) % pi for c in range(p))


def test_cubic_symbol_fixtures():
    pi7 = EisensteinInt(1, 3)
    assert cubic_residue_symbol(ONE, pi7) == ONE
    assert cubic_residue_symbol(EisensteinInt(2, 0), pi7) == W2
    assert cubic_residue_symbol(pi7 * EisensteinInt(5, 0), pi7) == EisensteinInt(0, 0)


def test_cubic_symbol_euler_criterion():
    for p in [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109, 127, 139, 151, 157, 163, 181, 193, 199]:
        s = split_prime(p)
        for _ in range(10):
            a = rand_eis(40)
            if not a % s.pi:
                continue
            sym = cubic_residue_symbol(a, s.pi)
            e = (p - 1) // 3
            from cubesum.eisenstein import eis_pow_mod

            assert not (eis_pow_mod(a, e, s.pi) - sym) % s.pi


def test_cubic_symbol_detects_cubes():
    for p in [7, 13, 19, 31]:
        s = split_prime(p)
        for a in range(1, p):
            sym = cubic_residue_symbol(EisensteinInt(a, 0), s.pi)
            assert (sym == ONE) == brute_is_cube(EisensteinInt(a, 0), s.pi)


def test_cubic_symbol_multiplicative():
    s = split_prime(31)
    for _ in range(50):
        a, b = rand_eis(40), rand_eis(40)
        if not a % s.pi or not b % s.pi:
            continue
        assert cubic_residue_symbol(a * b, s.pi) == cubic_residue_symbol(
            a, s.pi
        ) * cubic_residue_symbol(b, s.pi)


def test_sextic_symbol_square_is_cubic():
    pi = split_prime(13).pi
    for _ in range(100):
        a = rand_eis(40)
        if not a % pi:
            continue
        s6 = sextic_residue_symbol(a, pi)
        assert s6 * s6 == cubic_residue_symbol(a, pi)


def test_sextic_symbol_at_minus_one():
    for p in [7, 13, 31, 37]:
        pi = split_prime(p).pi
        expect = ONE if ((p - 1) // 6) % 2 == 0 else -ONE
        assert sextic_residue_symbol(-ONE, pi) == expect


def test_sextic_symbol_trivial_and_errors():
    pi = split_prime(7).pi
    assert sextic_residue_symbol(ONE, pi) == ONE
    with pytest.raises(NotPrime):
        cubic_residue_symbol(ONE, EisensteinInt(4, 0))
    with pytest.raises(BadModulus):
        sextic_residue_symbol(ONE, EisensteinInt(2, 0))  # N = 4 not 1 mod 6
    with pytest.raises(BadModulus):
        cubic_residue_symbol(ONE, EisensteinInt(1, -1))  # prime above 3


def test_is_prime_element():
    assert is_prime_element(EisensteinInt(1, 3))
    assert is_prime_element(EisensteinInt(2, 0))
    assert is_prime_element(EisensteinInt(0, 2))  # 2w, associate of 2
    assert is_prime_element(EisensteinInt(1, -1))  # norm 3
    assert not is_prime_element(EisensteinInt(4, 0))
    assert not is_prime_element(ONE)
    assert not is_prime_element(EisensteinInt(1, 3) * EisensteinInt(4, 3))


# -------------------------------------------------------------- Jacobi sums


def test_jacobi_sum_cubic_is_q():
    for q in [2, 5, 11, 17, 23, 29]:
        assert jacobi_sum_cubic(q) == EisensteinInt(q, 0)



def test_jacobi_identity_order2_vs_cubic():
    # J(rho, xi) = xi(4) J(xi, xi) for rho of order 2, xi nontrivial, by
    # direct summation; characters of order dividing 6 keep values in Z[w].
    for q in [2, 5, 11]:
        F = Fq2(q)
        n = q * q - 1
        if n % 2:  # q = 2: F_4 has no order-2 character, identity is vacuous
            continue
        # build a generator of F_{q^2}^* and its discrete log
        for gcand in F.elements():
            if gcand == F.zero:
                continue
            seen = set()
            x = F.one
            for _ in range(n):
                x = F.mul(x, gcand)
                seen.add(x)
            if len(seen) == n:
                g = gcand
                break
        log = {}
        x = F.one
        for k in range(n):
            log[x] = k
            x = F.mul(x, g)

        zeta6 = exact_div(ONE + SQRT_M3, EisensteinInt(2, 0))  # primitive 6th root

        def char(m):  # character of order n/gcd(n,m) with values in <zeta6>
            def chi(v):
                if v == F.zero:
                    return EisensteinInt(0, 0)
                return zeta6 ** ((log[v] * m * 6 // n) % 6)

            return chi

        rho = char(n // 2)
        for m in (n // 3, 2 * n // 3, n // 6, n // 2):
            xi = char(m)
            if all(xi(v) == ONE for v in F.elements() if v != F.zero):
                continue
            j_rho_xi = sum(
                (rho(u) * xi(F.sub(F.one, u)) for u in F.elements()),
                EisensteinInt(0, 0),
            )
            j_xi_xi = sum(
                (xi(u) * xi(F.sub(F.one, u)) for u in F.elements()),
                EisensteinInt(0, 0),
            )
            four = F.embed(EisensteinInt(4, 0))
            assert j_rho_xi == xi(four) * j_xi_xi


def test_jacobi_sum_split_norm_and_conjugate():
    for p in [7, 13, 31]:
        s = split_prime(p)
        j = jacobi_sum_split(p, s.pi)
        assert norm(j) == p
        jbar = jacobi_sum_split(p, s.pibar)
        assert jbar == j.conj()


def test_gauss_sum_identities():
    import mpmath

    for p in [7, 13, 31]:
        s = split_prime(p)
        tau = gauss_sum(p, s.pi, prec=160)
        with mpmath.mp.workprec(200):
            assert abs(abs(tau) ** 2 - p) < mpmath.mpf(2) ** -100
            j = jacobi_sum_split(p, s.pi).to_mpc(mpmath.mp)
            assert abs(tau**3 - p * j) < mpmath.mpf(2) ** -100


# ------------------------------------------------------------- point counts


def test_count_formula_matches_bruteforce_rational_D():
    D = ONE
    for q in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]:
        if q % 3 == 1:
            s = split_prime(q)
            piq = normalize_primary(s.pi, 2)
            assert count_points_formula(D, piq) == count_points_bruteforce(D, q)
        else:
            piq = EisensteinInt(q, 0)
            assert count_points_formula(D, piq) == count_points_bruteforce(D, q * q)


def test_count_formula_matches_bruteforce_eisenstein_D():
    s7 = split_prime(7)
    D = s7.pibar * s7.pibar
    for q in [5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]:
        if q % 3 == 1:
            sq = split_prime(q)
            for pi_over_q in (sq.pi, sq.pibar):
                piq = normalize_primary(pi_over_q, 2)
                got = count_points_formula(D, piq)
                want = count_points_bruteforce(D, q, omega_residue=residue_map_omega(piq))
                assert got == want
        else:
            piq = EisensteinInt(q, 0)
            assert count_points_formula(D, piq) == count_points_bruteforce(D, q * q)


def test_count_formula_all_good_primes_under_100():
    # D in {1, pibar, pibar^2, p^2} for p in {7, 13}, every good prime q < 100
    from cubesum.eisenstein import is_prime_int

    d_set = []
    for p in (7, 13):
        s = split_prime(p)
        d_set += [ONE, s.pibar, s.pibar * s.pibar, EisensteinInt(p * p, 0)]
    for q in range(5, 100):
        if not is_prime_int(q) or q % 3 == 0:
            continue
        for D in d_set:
            if q % 3 == 2:
                piq = EisensteinInt(q, 0)
                if not (6 * D) % piq:
                    continue
                assert count_points_formula(D, piq) == count_points_bruteforce(D, q * q)
            else:
                sq = split_prime(q)
                for g in (sq.pi, sq.pibar):
                    piq = normalize_primary(g, 2)
                    if not (6 * D) % piq:
                        continue
                    w = residue_map_omega(piq)
                    assert count_points_formula(D, piq) == count_points_bruteforce(
                        D, q, omega_residue=w
                    )


def test_count_formula_errors():
    with pytest.raises(BadNormalization):
        count_points_formula(ONE, split_prime(7).pi)  # 1 mod 3, not 2
    with pytest.raises(DividesSixD):
        count_points_formula(ONE, EisensteinInt(2, 0))
    with pytest.raises(FieldTooLarge):
        count_points_bruteforce(ONE, 299993)


def test_count_bruteforce_f4_literal():
    # degenerate char-2 count of the cleared-denominator equation
    assert count_points_bruteforce(ONE, 4) == 1
    assert count_points_bruteforce(EisensteinInt(2, 0), 4) == 17


# ------------------------------------------------------------------ QOmega


def test_qomega_field_ops():
    x = QOmega(Fraction(3, 2), Fraction(-1, 3))
    y = QOmega(Fraction(-7, 5), Fraction(2, 1))
    assert (x / y) * y == x
    assert x * x.conj() == QOmega(x.norm())
    assert (x + y).conj() == x.conj() + y.conj()
    assert QOmega(1, 2) * QOmega(1, 2) == QOmega(-3)  # sqrt(-3)^2


def test_qomega_embedding_consistency():
    import mpmath

    with mpmath.mp.workprec(80):
        x = QOmega(Fraction(3, 7), Fraction(5, 2))
        y = QOmega(Fraction(-1, 3), Fraction(4, 9))
        lhs = (x * y).to_mpc(mpmath.mp)
        rhs = x.to_mpc(mpmath.mp) * y.to_mpc(mpmath.mp)
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -60


# ------------------------------------------- QOmega against a Fraction pair


class FractionQOmega:
    """The reference Q(w): a + b*w as a pair of Fractions, operation by
    operation the textbook formulas (QOmega keeps integers instead)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("FractionQOmega is immutable")

    def __repr__(self):
        return f"QOmega({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        wpart = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return wpart
        return f"{self.a}+{wpart}" if not wpart.startswith("-") else f"{self.a}{wpart}"

    def __eq__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        return FractionQOmega(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        return FractionQOmega(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return FractionQOmega(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return FractionQOmega(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        c = self * other.conj()
        return FractionQOmega(c.a / n, c.b / n)

    def __rtruediv__(self, other):
        other = _coerce_ref(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return FractionQOmega(1) / self ** (-n)
        result = FractionQOmega(1)
        for _ in range(n):
            result = result * self
        return result

    def conj(self):
        return FractionQOmega(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_integral(self):
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_rational(self):
        return self.b == 0


def _coerce_ref(x):
    if isinstance(x, FractionQOmega):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionQOmega(x)
    if isinstance(x, EisensteinInt):
        return FractionQOmega(x.a, x.b)
    return None


def _outcome(f, *args):
    try:
        return f(*args)
    except (ZeroDivisionError, ValueError) as e:
        return type(e)


def _agrees(got, want):
    """got (a QOmega, or a plain value) equals the reference value want, and
    a QOmega is in normal form: d > 0 and gcd(A, B, d) = 1."""
    if not isinstance(want, FractionQOmega):
        return got == want and type(got) is type(want)
    return (
        isinstance(got, QOmega)
        and all(type(f) is int for f in (got.A, got.B, got.d))
        and got.d > 0
        and math.gcd(got.A, got.B, got.d) == 1
        and (got.a, got.b) == (want.a, want.b)
        and (str(got), repr(got)) == (str(want), repr(want))
    )


rationals = st.one_of(
    st.integers(-(2**70), 2**70),
    st.fractions(max_denominator=2**40).filter(lambda f: abs(f.numerator) < 2**80),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
)
q_pairs = st.tuples(rationals, rationals)
# the other operand of a mixed operation: Q(w), Z[w], Z or Q
operands = st.one_of(
    q_pairs.map(lambda ab: ("q", ab)),
    st.builds(EisensteinInt, st.integers(-99, 99), st.integers(-99, 99)).map(lambda z: ("eis", z)),
    rationals.map(lambda r: ("rat", r)),
)


def _pair(kind, value):
    if kind == "q":
        return QOmega(*value), FractionQOmega(*value)
    return value, value


@given(q_pairs)
def test_qomega_unary_operations_match_the_fraction_reference(ab):
    x, ref = QOmega(*ab), FractionQOmega(*ab)
    assert _agrees(x, ref)
    assert _agrees(-x, -ref)
    assert _agrees(x.conj(), ref.conj())
    assert _agrees(x.norm(), ref.norm())
    for name in ("__bool__", "is_rational"):
        assert _agrees(getattr(x, name)(), getattr(ref, name)())
    assert is_integral(x) == ref.is_integral()  # d = 1 exactly on Z[w]
    assert x == x.conj().conj() and hash(x) == hash(x.conj().conj())


@given(q_pairs, operands)
def test_qomega_binary_operations_match_the_fraction_reference(ab, other):
    x, ref = QOmega(*ab), FractionQOmega(*ab)
    y, yref = _pair(*other)
    for op in (
        lambda s, t: s + t,
        lambda s, t: s - t,
        lambda s, t: s * t,
        lambda s, t: s / t,
        lambda s, t: t + s,
        lambda s, t: t - s,
        lambda s, t: t * s,
        lambda s, t: t / s,
    ):
        got, want = _outcome(op, x, y), _outcome(op, ref, yref)
        assert want is got if isinstance(want, type) else _agrees(got, want)
    assert (x == y) == (ref == yref) and (y == x) == (yref == ref)
    if x == y and isinstance(y, QOmega):
        assert hash(x) == hash(y)


@given(q_pairs, st.integers(-5, 7))
def test_qomega_powers_match_the_fraction_reference(ab, n):
    x, ref = QOmega(*ab), FractionQOmega(*ab)
    got, want = _outcome(pow, x, n), _outcome(pow, ref, n)
    assert want is got if isinstance(want, type) else _agrees(got, want)


def test_qomega_int_fast_path_and_accessors():
    x = QOmega(6, -4)
    assert (x.A, x.B, x.d) == (6, -4, 1) and (x.a, x.b) == (Fraction(6), Fraction(-4))
    y = QOmega(Fraction(3, 4), Fraction(-5, 6))  # (9 - 10 w)/12
    assert (y.A, y.B, y.d) == (9, -10, 12)
    assert QOmega.from_ints(6, -4, -10) == QOmega(Fraction(-3, 5), Fraction(2, 5))
    with pytest.raises(AttributeError):
        x.A = 1
