import random
from fractions import Fraction

import pytest

import cubesum.qseries as qs
from cubesum.analytic import wp_laurent_coefficients
from cubesum.eisenstein import SQRT_M3, QOmega, split_prime
from cubesum.heckeform import as_eisenstein
from cubesum.qseries import (
    CubeRootNotInField,
    LaurentSeries,
    NotIntegral,
    cube_root_series,
    f_plus_minus_series,
    y_series,
)

from eisenstein_helpers import is_integral

rng = random.Random(3131)


def series_list(s, lo, hi, step=3):
    return [s.coefficient(n) for n in range(lo, hi, step)]


def q(a, b=0):
    return QOmega(Fraction(a), Fraction(b))


# ------------------------------------------------ series products (oracle)


class Series(LaurentSeries):
    """A LaurentSeries with the products, inverse and powers that only the
    composition oracle and the algebra tests use; y_series and
    f_plus_minus_series run on int lists and never need them."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QOmega)):
            c = other if isinstance(other, QOmega) else QOmega(other)
            return Series(self.lead, [a * c for a in self.coeffs])
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # truncation bookkeeping: self known mod q^T1, other mod q^T2
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        lead = self.lead + other.lead
        n_out = trunc - lead
        out = [q(0)] * n_out
        for i1, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(min(len(other.coeffs), n_out - i1)):
                b = other.coeffs[j]
                if b:
                    out[i1 + j] = out[i1 + j] + a * b
        return Series(lead, out)

    __rmul__ = __mul__

    def invert(self):
        """1/self; requires a nonzero leading coefficient."""
        if not self.coeffs[0]:
            raise ZeroDivisionError("cannot invert a series with zero leading term")
        inv0 = q(1) / self.coeffs[0]
        out = [inv0]
        for k in range(1, len(self.coeffs)):
            s = sum((self.coeffs[j] * out[k - j] for j in range(1, k + 1) if self.coeffs[j]), q(0))
            out.append(-inv0 * s)
        return Series(-self.lead, out)

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        result = Series(0, [q(1)] + [q(0)] * (len(self.coeffs) - 1))
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self):
        return Series(self.lead, [c.conj() for c in self.coeffs])


def series(s):
    """s, with the products of Series."""
    return Series(s.lead, s.coeffs)


def z_series(p, i, M, conjugate=False):
    """z(q) = sum_{n<=M} a_n/n q^n as an exact series (known mod q^(M+1)),
    from the coefficients y_series reads (a tampered qs.newform_pairs
    reaches both routes)."""
    a = as_eisenstein(qs.newform_pairs(p, i, M, conjugate=conjugate), M)
    return Series(1, [a[n].to_q() / n for n in range(1, M + 1)])


# --------------------------------------------------------- series algebra


def rand_series(lead=0, n=12, integral=False, unit_leading=False):
    if integral:
        cs = [q(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
    else:
        cs = [
            QOmega(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(n)
        ]
    if unit_leading or not cs[0]:
        cs[0] = q(1)
    return Series(lead, cs)


def test_mul_inverse_roundtrip():
    for _ in range(20):
        s = rand_series(lead=rng.randint(-3, 3))
        prod = s * s.invert()
        assert prod.is_one()


def test_truncation_bookkeeping():
    a = Series(0, [q(1), q(2), q(3)])  # mod q^3
    b = Series(2, [q(5), q(7)])  # mod q^4
    ab = a * b
    assert ab.lead == 2
    assert ab.trunc == 4  # min(3+2, 4+0): the O(q^4) error of b dominates
    assert ab.coefficient(2) == q(5)
    assert ab.coefficient(3) == q(17)


def test_cube_root_trivial_and_exact_cube():
    one = LaurentSeries(0, [q(1)] + [q(0)] * 9)
    assert cube_root_series(one).is_one()
    s = Series(0, [q(1), q(1)] + [q(0)] * 10)  # 1 + q
    cubed = s * s * s
    assert cube_root_series(cubed) == s


def test_cube_root_random_roundtrip():
    for _ in range(10):
        s = rand_series(n=10, unit_leading=True)
        t = cube_root_series(s * s * s)
        assert t == s


def test_cube_root_newton_property():
    for _ in range(10):
        s = rand_series(lead=rng.randint(-2, 2), n=10, unit_leading=True)
        root = cube_root_series(s * s * s)
        assert series(root) ** 3 == s**3


def test_cube_root_needs_a_unit_leading_coefficient():
    for s0 in (q(-8), q(0, 1), q(2)):
        with pytest.raises(CubeRootNotInField):
            cube_root_series(LaurentSeries(0, [s0, q(1)] + [q(0)] * 5))
    with pytest.raises(CubeRootNotInField):
        cube_root_series(LaurentSeries(1, [q(1), q(1)]))


# ------------------------------------------------------- parametrization y


def test_y_series_leading_term_and_support():
    y = y_series(7, 1, 30)
    assert y.lead == -3
    assert y.coefficient(-3) == q(-1)
    for n in range(-3, 30):
        if n % 3:
            assert not y.coefficient(n), f"unexpected coefficient at q^{n}"


def test_y_series_shift_exponent_resolution():
    # only the first power of pibar/2 makes the series Z[w]-integral
    s7 = split_prime(7)
    y = y_series(7, 1, 30)
    good = y - s7.pibar.to_q() / 2
    assert all(is_integral(good.coefficient(n)) for n in range(-3, 30))
    bad = y - (s7.pibar**2).to_q() / 2
    assert not all(is_integral(bad.coefficient(n)) for n in range(-3, 30))


def test_y_series_p7_reference_values():
    # 16 reference terms of y(q) - pibar/2 (zero at q^30 included)
    s7 = split_prime(7)
    shifted = y_series(7, 1, 46) - s7.pibar.to_q() / 2
    want = [-1, 1, 1, 1, -1, -2, 1, -3, 1, 1, 2, 0, -1, 2, -4, 1, 3]
    assert series_list(shifted, -3, 46) == [q(v) for v in want]


def test_y_series_p13_reference_values():
    s13 = split_prime(13)
    shifted = y_series(13, 1, 46) + s13.pibar.to_q() / 2
    want = [-1, 2, 1, -2, -1, -2, 2, 0, 2, 2, -1, 0, 0, -4, 1, 4, -6]
    assert series_list(shifted, -3, 46) == [q(v) for v in want]


def test_y_series_p31_reference_values():
    # the w-sign of the reference constant is pinned by the ratio series below
    # (conj(c) - c = 3 + 6w forces c = -4 - 3w) and by conjugation symmetry
    s31 = split_prime(31)
    shifted = y_series(31, 1, 22) + s31.pibar.to_q() / 2
    want = [q(-1), q(-4, -3), q(1), q(1, 6), q(8, 3), q(1, 3), q(11), q(0, 3), q(20, -12)]
    assert series_list(shifted, -3, 22) == want
    shifted_c = y_series(31, 1, 22, conjugate=True) + s31.pi.to_q() / 2
    assert series_list(shifted_c, -3, 22) == [c.conj() for c in want]


def test_y_series_conjugation_symmetry():
    y = y_series(13, 1, 40)
    yc = y_series(13, 1, 40, conjugate=True)
    assert yc == series(y).conjugate()


def test_ratio_series_p31_reference_values():
    # (y + pibar/2) / (y^c + pi/2), the reference prefix
    s31 = split_prime(31)
    num = y_series(31, 1, 22) + s31.pibar.to_q() / 2
    den = y_series(31, 1, 22, conjugate=True) + s31.pi.to_q() / 2
    ratio = series(num) * series(den).invert()
    want = [
        q(1),
        q(3, 6),
        q(-21, -15),
        q(63, -9),
        q(-39, 192),
        q(-429, -750),
        q(2133, 1458),
        q(-5274, 90),
    ]
    assert series_list(ratio, 0, 22) == want


def test_f_series_identities():
    assert f_plus_minus_series(7, 1, "-", 22).is_one()
    assert f_plus_minus_series(13, 1, "+", 22).is_one()


def test_f_plus_p31_reference_values():
    # q^12 coefficient 4w - 16 is forced by the ratio series prefix above
    F = f_plus_minus_series(31, 1, "+", 22)
    want = [
        q(1),
        q(1, 2),
        q(-4, -5),
        q(10, 5),
        q(-16, 4),
        q(4, -40),
        q(65, 109),
        q(-240, -165),
    ]
    assert series_list(F, 0, 22) == want
    # integrality (the cube root stays in Z[w][[q]])
    for n in range(0, 22):
        assert is_integral(F.coefficient(n))


def test_f_series_cube_recovers_ratio():
    for p, sign in ((31, "+"), (31, "-"), (7, "+"), (13, "-")):
        F = f_plus_minus_series(p, 1, sign, 19)
        s = split_prime(p)
        sgn = 1 if sign == "+" else -1
        num = y_series(p, 1, 19) + s.pibar.to_q() * Fraction(sgn, 2)
        den = y_series(p, 1, 19, conjugate=True) + s.pi.to_q() * Fraction(sgn, 2)
        assert series(F) ** 3 == series(num) * series(den).invert()


def test_z_series_matches_coefficients():
    from cubesum.heckeform import newform_pairs

    a = as_eisenstein(newform_pairs(7, 1, 20), 20)
    z = z_series(7, 1, 20)
    for n in range(1, 21):
        assert z.coefficient(n) == a[n].to_q() / n


# ------------------------------------------- composition route as an oracle


def _y_series_oracle(p, i, M, conjugate=False):
    """y = wp'(z(q))/2 = -z^-3 + sum_k d_k z^(6k+3), composed from the Laurent
    coefficients G_k of wp (g2 = 0, g3 = -D), with the checks of y_series."""
    split = split_prime(p)
    base = split.pi if conjugate else split.pibar
    D = (base ** (2 * i)).to_q()
    shift = base.to_q() ** i / 2

    z = z_series(p, i, M + 6, conjugate=conjugate)
    trunc = M + 1
    z3 = z**3
    kmax = max(0, (trunc + 2) // 6 + 1)
    G = wp_laurent_coefficients(-D, kmax)
    y = -z3.invert()
    z6 = z3 * z3
    zp = z3  # z^(6k+3)
    for k in range(kmax):
        y = y + zp * (G[k] * Fraction((6 * k + 4) * (6 * k + 5), 2))
        zp = zp * z6

    out = LaurentSeries(y.lead, [y.coefficient(n) for n in range(y.lead, trunc)])
    if out.coefficient(-3) != q(-1):
        raise NotIntegral(-3, out.coefficient(-3))
    for n in range(out.lead, out.trunc):
        c = out.coefficient(n) - (shift if n == 0 else q(0))
        if not is_integral(c):
            raise NotIntegral(n, out.coefficient(n))
    return out


def _ratio_oracle(p, i, sign, M, y=None, yc=None):
    """(y + s pibar^i/2) / (y^c + s pi^i/2) by series inversion, after the
    congruence check of f_plus_minus_series."""
    split = split_prime(p)
    s = 1 if sign == "+" else -1
    y = _y_series_oracle(p, i, M) if y is None else y
    yc = _y_series_oracle(p, i, M, conjugate=True) if yc is None else yc
    num = y + split.pibar.to_q() ** i * Fraction(s, 2)
    den = yc + split.pi.to_q() ** i * Fraction(s, 2)
    for n in range(num.lead, min(num.trunc, den.trunc)):
        d = num.coefficient(n) - den.coefficient(n)
        if not is_integral(d / SQRT_M3.to_q()):
            raise NotIntegral(n, d)
    return series(num) * series(den).invert()


def _same(s, t):
    return (s.lead, s.trunc, s.coeffs) == (t.lead, t.trunc, t.coeffs)


@pytest.mark.parametrize(
    "p,i", [(7, 1), (7, 2), (13, 1), (13, 2), (31, 1), (31, 2), (43, 1), (61, 2), (97, 2)]
)
def test_ode_route_matches_the_composition_oracle(p, i):
    # M = 1..12 crosses the resonance at k = M + 3 = 6
    for M in list(range(1, 13)) + [25, 100]:
        y = y_series(p, i, M)
        yc = y_series(p, i, M, conjugate=True)
        want_y = _y_series_oracle(p, i, M)
        want_yc = _y_series_oracle(p, i, M, conjugate=True)
        assert _same(y, want_y), (p, i, M)
        assert _same(yc, want_yc), (p, i, M)
        for sign in "+-":
            F = f_plus_minus_series(p, i, sign, M)
            ratio = _ratio_oracle(p, i, sign, M, want_y, want_yc)
            # F_0 = 1 and F^3 = ratio determine F
            assert F.coefficient(0) == q(1) and (F.lead, F.trunc) == (ratio.lead, ratio.trunc)
            assert series(F) ** 3 == ratio, (p, i, M, sign)


@pytest.mark.parametrize("p", [7, 13, 31, 43])
@pytest.mark.parametrize("i", [1, 2])
def test_series_on_q3_match_the_composition_oracle_to_150_terms(p, i):
    # y, y^c and F run on u = q^3 and are spread back to q at the end; the
    # oracle composes wp's Laurent series with z(q) on every power of q
    M = 150
    want_y = _y_series_oracle(p, i, M)
    want_yc = _y_series_oracle(p, i, M, conjugate=True)
    got = [y_series(p, i, M), y_series(p, i, M, conjugate=True)]
    assert _same(got[0], want_y) and _same(got[1], want_yc)
    want = [want_y, want_yc]
    for sign in "+-":
        F = f_plus_minus_series(p, i, sign, M)
        ratio = _ratio_oracle(p, i, sign, M, want_y, want_yc)
        assert F.coefficient(0) == q(1) and (F.lead, F.trunc) == (ratio.lead, ratio.trunc)
        assert series(F) ** 3 == ratio, (p, i, sign)
        got.append(F)
        want.append(ratio)
    for s in got + want:  # both routes vanish off q^(3t)
        assert s.trunc >= M and not any(s.coefficient(n) for n in range(s.lead, s.trunc) if n % 3)


def _raised(fn):
    try:
        fn()
    except (NotIntegral, CubeRootNotInField) as e:
        return type(e), e.args, getattr(e, "n", None), getattr(e, "value", None)
    return None


@pytest.mark.parametrize(
    "n,delta", [(4, None), (7, (1, 0)), (10, (0, 1)), (13, (2, -2)), (19, (3, 3))]
)
def test_tampered_coefficient_fails_like_the_oracle(monkeypatch, n, delta):
    # a_n changed (negated when delta is None) before either route sees it
    real = qs.newform_pairs

    def tampered(p, i, M, conjugate=False):
        alpha, beta = (list(c) for c in real(p, i, M, conjugate=conjugate))
        k = (n - 1) // 3  # the compact slot of a_n
        if len(alpha) > k:
            if delta is None:
                alpha[k], beta[k] = -alpha[k], -beta[k]
            else:
                alpha[k] += delta[0]
                beta[k] += delta[1]
        return alpha, beta

    monkeypatch.setattr(qs, "newform_pairs", tampered)
    seen = set()
    for p, i in ((7, 1), (31, 2)):
        for M in (4, 12, 25):
            for conj in (False, True):
                got = _raised(lambda: y_series(p, i, M, conjugate=conj))
                assert got == _raised(lambda: _y_series_oracle(p, i, M, conjugate=conj))
                seen.add(got and got[0])
            for sign in "+-":
                got = _raised(lambda: f_plus_minus_series(p, i, sign, M))
                assert got == _raised(lambda: _ratio_oracle(p, i, sign, M))
    assert NotIntegral in seen


def test_cube_root_is_cubed_back(monkeypatch):
    # a root that is off in its last coefficient never leaves cube_root_series
    real = qs._power

    def off(ra, rb, num, den):
        ta, tb = real(ra, rb, num, den)
        ta[-1] += 1
        return ta, tb

    monkeypatch.setattr(qs, "_power", off)
    with pytest.raises(AssertionError, match="cube back"):
        cube_root_series(LaurentSeries(0, [q(1), q(3)] + [q(0)] * 5))
