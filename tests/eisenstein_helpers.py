"""Z[w] and Q(w) helpers that only the tests use: the cubic residue symbol,
exact division in Z[w] and the integrality test of a QOmega."""

from cubesum.eisenstein import (
    CUBE_ROOTS,
    ZERO,
    BadModulus,
    NotPrime,
    _coerce,
    _match_unit,
    eis_pow_mod,
    is_prime_element,
)


def cubic_residue_symbol(a, pi):
    """(a/pi)_3: the cube root of unity congruent to a^((N(pi)-1)/3) mod pi."""
    a = _coerce(a)
    if not is_prime_element(pi):
        raise NotPrime(f"{pi} is not prime in Z[w]")
    n = pi.norm()
    if n % 3 == 0:
        raise BadModulus("cubic symbol undefined at the prime above 3")
    if not a % pi:
        return ZERO
    s = eis_pow_mod(a, (n - 1) // 3, pi)
    u = _match_unit(s, pi, CUBE_ROOTS)
    if u is None:
        raise ArithmeticError(f"Euler criterion failed for {a} mod {pi}")
    return u


def exact_div(a, b):
    """a / b in Z[w], raising if the division is not exact."""
    q, r = divmod(a, _coerce(b))
    if r:
        raise ValueError(f"{b} does not divide {a}")
    return q


def is_integral(x):
    """Whether the QOmega x lies in Z[w]: its normal form has d = 1."""
    return x.d == 1
