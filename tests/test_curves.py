import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from cubesum import curves
from cubesum.curves import (
    CurvePoint,
    DegenerateImage,
    KernelPoint,
    MixedCurves,
    add,
    endo_omega,
    is_torsion_at_zero,
    isogeny_to_432,
    mul,
    mul_sqrt_m3,
    nontorsion_certificate,
    reduction_count,
    sub_torsion,
    to_cube_sum,
    trace,
)
from cubesum.eisenstein import (
    EisensteinInt,
    QOmega,
    count_points_bruteforce,
    count_points_formula,
    normalize_primary,
    split_prime,
)

rng = random.Random(99)


def rand_point(D):
    """A random exact point: pick x in Q(w), set D' so the curve fits...
    here instead: scan small x over Q(w) on the fixed curve by adjusting y^2."""
    # easier: generate y and x and define D = 4(y^2 - x^3); the tests that
    # need a fixed curve use known points and their multiples instead
    x = QOmega(Fraction(rng.randint(-8, 8), rng.randint(1, 4)), Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
    y = QOmega(Fraction(rng.randint(-8, 8), rng.randint(1, 4)), Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
    D = 4 * (y * y - x**3)
    return CurvePoint.make(D, x, y)


def orbit_points(P, n=6):
    pts = []
    for k in range(1, n + 1):
        Q = mul(k, P)
        if not Q.is_infinity:
            pts.append(Q)
    return pts


def test_identity_and_inverse():
    P = rand_point(None)
    O = CurvePoint.infinity(P.D)
    assert add(P, O) == P
    assert add(O, P) == P
    assert add(P, -P).is_infinity


def test_group_law_commutes_and_associates():
    for _ in range(12):
        P = rand_point(None)
        Q = mul(2, P)
        R = mul(3, P)
        assert add(P, Q) == add(Q, P)
        assert add(add(P, Q), R) == add(P, add(Q, R))


def test_associativity_with_independent_points():
    # two unrelated points on a common curve: build Q from P's curve by
    # solving for y^2 = x^3 + D/4 via a multiple, then mix
    for _ in range(8):
        P = rand_point(None)
        Q = mul(2, P)
        R = -mul(5, P)
        assert add(add(P, Q), R) == add(P, add(Q, R))


def test_three_torsion_point():
    for p, i in ((7, 1), (13, 1), (7, 2)):
        T = CurvePoint.make(QOmega(Fraction(p) ** (2 * i)), 0, Fraction(p**i, 2))
        assert mul(2, T) == -T
        assert mul(3, T).is_infinity


def test_endo_omega_order_three_automorphism():
    for _ in range(10):
        P = rand_point(None)
        assert endo_omega(endo_omega(endo_omega(P))) == P
        Q = mul(4, P)
        assert endo_omega(add(P, Q)) == add(endo_omega(P), endo_omega(Q))
        assert endo_omega(mul(5, P)) == mul(5, endo_omega(P))


def test_sqrt_m3_squared_is_minus_three():
    for _ in range(6):
        P = rand_point(None)
        assert mul_sqrt_m3(mul_sqrt_m3(P)) == mul(-3, P)


def test_mixed_curves_rejected():
    P = rand_point(None)
    Q = rand_point(None)
    if P.D != Q.D:
        with pytest.raises(MixedCurves):
            add(P, Q)


def test_isogeny_symbolic_identity():
    # full symbolic proof: Y^2 - X^3 + 432 n^2 factors through the curve
    import sympy

    x, y, n = sympy.symbols("x y n")
    X = 4 * (x**3 + n**2) / x**2
    Y = 8 * y * (x**3 - 2 * n**2) / x**3
    rel = Y**2 - X**3 + 432 * n**2
    # substitute y^2 = x^3 + n^2/4
    rel = sympy.expand(rel.subs(y**2, x**3 + n**2 / 4))
    assert sympy.simplify(rel) == 0


def test_isogeny_unscaled_template():
    # (2,3) on y^2 = x^3 + 1: the unscaled image has zero y-coordinate
    x, y, B = Fraction(2), Fraction(3), Fraction(1)
    Xu = (x**3 + 4 * B) / x**2
    Yu = y * (x**3 - 8 * B) / x**3
    assert Yu == 0 and Xu == 3
    assert Yu**2 == Xu**3 - 27 * B  # the unscaled target model


def test_isogeny_kernel_rejected():
    P = CurvePoint.make(QOmega(49), 0, Fraction(7, 2))
    with pytest.raises(KernelPoint):
        isogeny_to_432(P, 7, 1)
    with pytest.raises(KernelPoint):
        isogeny_to_432(CurvePoint.infinity(QOmega(49)), 7, 1)


def test_isogeny_numeric_points():
    # P + conj(P) for the p=7 reference point gives (-20/9, -61/54)
    P = CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))
    X, Y = isogeny_to_432(P, 7, 1)
    assert Y * Y == X**3 - 432 * 49


def test_to_cube_sum_fixture_p7():
    cs = to_cube_sum(28, -28, 7, 1)
    assert (cs.u, cs.v) == (Fraction(4, 3), Fraction(5, 3))
    assert cs.verify()
    # u <-> v under Y -> -Y
    cs2 = to_cube_sum(28, 28, 7, 1)
    assert (cs2.u, cs2.v) == (Fraction(5, 3), Fraction(4, 3))


def test_to_cube_sum_fixture_p13():
    # (7/3)^3 + (2/3)^3 = 13; reconstruct its (X, Y)
    u, v = Fraction(7, 3), Fraction(2, 3)
    X = 12 * 13 / (u + v)
    Y = 36 * 13 * (u - v) / (u + v)
    cs = to_cube_sum(X, Y, 13, 1)
    assert (cs.u, cs.v) == (u, v)


def test_to_cube_sum_degenerate():
    with pytest.raises(DegenerateImage):
        to_cube_sum(0, 1, 7, 1)


def test_reduction_count_matches_the_sextic_formula():
    # reduction_count counts point by point; the independent side is q + 1
    # at supersingular q and the sextic-symbol formula at split q
    for p, i in ((7, 1), (13, 1), (409, 1), (67, 2), (97, 2)):
        D = p ** (2 * i)
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            if q == p:
                continue
            if q % 3 == 2:
                assert reduction_count(D, q) == q + 1
            else:
                piq = normalize_primary(split_prime(q).pi, 2)
                assert reduction_count(D, q) == count_points_formula(EisensteinInt(D, 0), piq)


def test_cube_sum_from_any_nonkernel_multiple():
    # to_cube_sum . isogeny applied to multiples of an exact rational point
    P = CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))
    for k in (1, 2, 3, -1):
        Q = mul(k, P)
        if Q.is_infinity or Q.x == QOmega(0):
            continue
        X, Y = isogeny_to_432(Q, 7, 1)
        cs = to_cube_sum(X, Y, 7, 1)
        assert cs.u**3 + cs.v**3 == 7


def test_nontorsion_fixtures():
    T = CurvePoint.make(QOmega(49), 0, Fraction(7, 2))
    assert not nontorsion_certificate(T, 7, 1).nontorsion
    assert not nontorsion_certificate(CurvePoint.infinity(QOmega(49)), 7, 1).nontorsion
    P = CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))
    assert nontorsion_certificate(P, 7, 1).nontorsion
    cert = nontorsion_certificate(P, 7, 1)
    assert cert.nontorsion and cert.bound % 3 == 0
    # a torsion point is killed by the bound
    certT = nontorsion_certificate(T, 7, 1)
    assert not certT.nontorsion


def _points_of_e7():
    # the 7^1 fixture P, its multiples kP, T and O
    P = CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))
    return [mul(k, P) for k in (-1, 1, 2, 3, 4, 5, 6)] + [
        CurvePoint.make(QOmega(49), 0, Fraction(7, 2)), CurvePoint.infinity(QOmega(49))]


def test_witness_certificate_keeps_the_exact_verdict():
    from cubesum.parametrize import solve_pipeline

    ell = curves.WITNESS_PRIME
    assert ell == 2**61 - 1 and ell % 9 == 1
    inputs = [(Q, 7, 1) for Q in _points_of_e7()]
    # descended points of three solves (67^2 has g = 6)
    inputs += [(solve_pipeline(p, i).point_Q, p, i) for p, i in ((103, 1), (67, 2), (79, 2))]
    verdicts = []
    for Q, p, i in inputs:
        cert = nontorsion_certificate(Q, p, i)
        assert cert.nontorsion == (not mul(cert.bound, Q).is_infinity)
        assert cert.witness == (ell if cert.nontorsion else None)
        verdicts.append(cert.nontorsion)
    assert verdicts == [True] * 7 + [False, False] + [True] * 3  # only T and O are torsion


@pytest.mark.parametrize("ell", [5, 29])
def test_witness_reading_O_falls_back_to_g_p_over_q(monkeypatch, ell):
    # at l = 5 = q1 of 7^1, g = 6 = #E~(F_5) kills every reduction; 29
    # divides the denominator of 5P, which reduces to O~ there, and the
    # witness decides the other multiples
    inputs = _points_of_e7()
    exact = [nontorsion_certificate(Q, 7, 1) for Q in inputs]
    real_mul = curves.mul
    calls = []

    def spy(n, P):
        calls.append(n)
        return real_mul(n, P)

    monkeypatch.setattr(curves, "WITNESS_PRIME", ell)
    monkeypatch.setattr(curves, "mul", spy)
    fell_back = 0
    for Q, want in zip(inputs, exact):
        calls.clear()
        cert = nontorsion_certificate(Q, 7, 1)
        assert (cert.nontorsion, cert.bound) == (want.nontorsion, want.bound)
        if Q.is_infinity:
            assert calls == [] and cert.witness is None
        elif ell == 5 or Q.x.d % ell == 0 or not want.nontorsion:
            assert calls == [6] and cert.witness is None
            fell_back += 1
        else:
            assert calls == [] and cert.witness == ell
    assert fell_back == (8 if ell == 5 else 2)  # 29: 5P and T


def test_witness_certificate_forms_no_g_p_over_q(monkeypatch):
    from cubesum.parametrize import solve_pipeline

    real_mul, real_cert = curves.mul, curves.nontorsion_certificate
    calls, certs = [], []
    monkeypatch.setattr(curves, "mul", lambda n, P: calls.append(n) or real_mul(n, P))
    monkeypatch.setattr(curves, "nontorsion_certificate", lambda *a: certs.append(a) or real_cert(*a))
    r = solve_pipeline(67, 2)
    assert certs and r.certificate.bound == 6 and r.certificate.witness == curves.WITNESS_PRIME
    assert 6 not in calls


def test_certificate_needs_a_point_of_e_p_i():
    with pytest.raises(ValueError):
        nontorsion_certificate(_points_of_e7()[1], 13, 1)


def _on_curve_oracle(P):
    # the QOmega formula CurvePoint.on_curve replaced
    return P.is_infinity or P.y * P.y == P.x**3 + P.D / 4


def _isogeny_oracle(P, p, i):
    # the QOmega formulas isogeny_to_432 replaced
    n2 = p ** (2 * i)
    x3 = P.x**3
    return 4 * (x3 + n2) / (P.x * P.x), 8 * P.y * (x3 - 2 * n2) / x3


def _cube_sum_oracle(X, Y, p, i):
    # the QOmega formulas to_cube_sum replaced
    n = p**i
    return (36 * n + Y) / (6 * X), (36 * n - Y) / (6 * X)


def test_integer_on_curve_agrees_with_the_qomega_formula():
    # points over Q(w) (rand_point, D with denominators too) and over Q (the
    # 7^1 fixture's multiples, T and O), on the curve and moved off it
    points = [rand_point(None) for _ in range(20)] + _points_of_e7()
    moves = ((Fraction(1, 7), 0), (0, QOmega(0, Fraction(1, 5))), (QOmega(0, 1), 1))
    for P in points:
        assert P.on_curve() and _on_curve_oracle(P)
        if P.is_infinity:
            continue
        for dx, dy in moves:
            Q = CurvePoint(P.D, P.x + dx, P.y + dy)
            assert not Q.on_curve() and not _on_curve_oracle(Q)
        Q = CurvePoint(P.D, P.x, -P.y)
        assert Q.on_curve() and _on_curve_oracle(Q)


def test_isogeny_and_cube_sum_agree_with_the_qomega_formulas():
    # the descended points of the benchmark's twelve timed solves, and 30P
    # of 7^1 (u of 6300 digits)
    from cubesum.parametrize import solve_pipeline

    timed = [(p, 1) for p in (103, 157, 211, 223, 283, 337, 409, 439)] + [(p, 2) for p in (61, 67, 79, 97)]
    inputs = [(solve_pipeline(p, i).point_Q, p, i) for p, i in timed]
    inputs.append((mul(30, solve_pipeline(7, 1).point_Q), 7, 1))
    for P, p, i in inputs:
        X, Y = isogeny_to_432(P, p, i)
        assert (X, Y) == _isogeny_oracle(P, p, i)
        cs = to_cube_sum(X, Y, p, i)
        assert (QOmega(cs.u), QOmega(cs.v)) == _cube_sum_oracle(X, Y, p, i)
        assert cs.verify() and cs.target == p**i


def test_isogeny_and_cube_sum_take_rational_points_only():
    P = endo_omega(_points_of_e7()[1])  # (w x, y): on E(7), not rational
    assert P.on_curve() and not P.is_rational()
    with pytest.raises(ValueError):
        isogeny_to_432(P, 7, 1)
    with pytest.raises(DegenerateImage):
        to_cube_sum(QOmega(28, 1), -28, 7, 1)
    with pytest.raises(DegenerateImage):
        to_cube_sum(28, QOmega(0, 28), 7, 1)


def test_exact_checks_survive_python_O():
    # under -O every assert is stripped; the isogeny and cube identities
    # must still reject an off-curve point
    import cubesum

    code = textwrap.dedent("""
        import sys
        from cubesum.curves import CurvePoint, isogeny_to_432, to_cube_sum
        from cubesum.eisenstein import QOmega
        assert False, "asserts are live"
        print("optimize", sys.flags.optimize)
        for check in (
            lambda: isogeny_to_432(CurvePoint(QOmega(49), QOmega(1), QOmega(1)), 7, 1),
            lambda: to_cube_sum(QOmega(1), QOmega(1), 7, 1),
        ):
            try:
                check()
                print("returned")
            except AssertionError:
                print("raised")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cubesum.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["optimize", "1", "raised", "raised"]


@pytest.mark.parametrize("n", range(14))
def test_mul_stops_doubling_at_the_top_bit(monkeypatch, n):
    P = CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))
    R = CurvePoint.infinity(P.D)
    for _ in range(n):
        R = curves.add(R, P)
    real, doublings = curves.add, []

    def counting(A, B):
        if A is B:
            doublings.append(A)
        return real(A, B)

    monkeypatch.setattr(curves, "add", counting)
    assert curves.mul(n, P) == R
    assert len(doublings) == max(n.bit_length() - 1, 0)


# ------------------------------------------- closed forms of the descent


def _sqrt_m3_oracle(P):
    # the group-law chain mul_sqrt_m3 replaced: [1 + 2w]P = P + [w][2]P
    return add(P, endo_omega(mul(2, P)))


def _trace_oracle(P):
    return add(P, P.conj())


def test_closed_forms_agree_with_the_group_law():
    # kP, [w]kP and -kP for k = 1..4 over six solves' point_K: 72 points
    # over K, with x and y both irrational, as the descent meets them
    from cubesum.parametrize import solve_pipeline

    seen = 0
    for p, i in ((7, 1), (13, 1), (61, 2), (67, 2), (103, 1), (223, 1)):
        PK = solve_pipeline(p, i).point_K
        for k in range(1, 5):
            kP = mul(k, PK)
            for Q in (kP, endo_omega(kP), -kP):
                assert mul_sqrt_m3(Q) == _sqrt_m3_oracle(Q)
                assert trace(Q) == _trace_oracle(Q)
                seen += 1
    assert seen == 72


def test_closed_forms_at_the_kernel_and_at_rational_x():
    for p, i in ((7, 1), (13, 2)):
        D = QOmega(p ** (2 * i))
        for t in (Fraction(p**i, 2), Fraction(-(p**i), 2)):  # (0, +-sqrt(D)/2)
            T = CurvePoint.make(D, 0, t)
            assert mul_sqrt_m3(T).is_infinity and _sqrt_m3_oracle(T).is_infinity
            assert trace(T) == _trace_oracle(T) == -T  # [2]T
    for P in _points_of_e7()[:-1]:  # over Q: x rational, trace is [2]P
        assert trace(P) == _trace_oracle(P) == mul(2, P)
        # [sqrt(-3)]P has rational x and y in sqrt(-3) Q, so conj = -: O
        S = mul_sqrt_m3(P)
        assert S == _sqrt_m3_oracle(P)
        if not S.is_infinity:
            assert S.x.is_rational() and S.y.conj() == -S.y
            assert trace(S).is_infinity and _trace_oracle(S).is_infinity
    assert mul_sqrt_m3(CurvePoint.infinity(QOmega(49))).is_infinity
    assert trace(CurvePoint.infinity(QOmega(49))).is_infinity


def test_closed_forms_keep_the_sign_of_y():
    # [sqrt(-3)](x, -y) = -[sqrt(-3)](x, y): a sign slip in y' would still
    # pass mul_sqrt_m3(mul_sqrt_m3(P)) == -3P, but not the oracle, on points
    # over Q(w) with D not rational as well
    for _ in range(12):
        P = rand_point(None)
        for Q in (P, -P, endo_omega(P), mul(2, P)):
            assert mul_sqrt_m3(Q) == _sqrt_m3_oracle(Q)
            assert mul_sqrt_m3(-Q) == -mul_sqrt_m3(Q)


def test_trace_needs_a_rational_curve():
    P = rand_point(None)
    while P.D.B == 0 or P.x.B == 0:
        P = rand_point(None)
    with pytest.raises(MixedCurves):
        trace(P)


def test_sub_torsion_is_the_chord_through_minus_t():
    from cubesum.parametrize import solve_pipeline

    for p, i in ((7, 1), (61, 2), (67, 2), (103, 1)):
        r = solve_pipeline(p, i)
        T = r.torsion_point
        for Q in (r.point_K, mul(2, r.point_K), endo_omega(r.point_K), -r.point_K, r.point_Q):
            assert sub_torsion(Q, T) == add(Q, -T)
        # x = 0: P = T gives O, P = -T gives -2T = T, as add does
        assert sub_torsion(T, T).is_infinity and add(T, -T).is_infinity
        assert sub_torsion(-T, T) == add(-T, -T) == T
        assert sub_torsion(CurvePoint.infinity(T.D), T) == -T
    with pytest.raises(ValueError):
        sub_torsion(T, r.point_Q)


def test_reduction_counts_are_memoized_by_the_residue():
    for q in (5, 7, 11, 13):
        for d in range(q):
            want = count_points_bruteforce(EisensteinInt(d, 0), q)
            for D in (d, d + q, d + 7 * q**3, d - q):
                assert reduction_count(D, q) == want
    before = curves._count_mod.cache_info()
    reduction_count(61**4, 5)
    reduction_count(1 + 5 * 10**40, 5)
    after = curves._count_mod.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_torsion_at_zero_agrees_with_the_group_law():
    from cubesum.parametrize import solve_pipeline

    points = [solve_pipeline(p, i).torsion_point for p, i in ((7, 1), (61, 2), (67, 2))]
    for _ in range(40):
        t = QOmega(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        if t:
            points.append(CurvePoint.make(4 * t * t, 0, t))  # (0, t) on y^2 = x^3 + t^2
    for T in points:
        assert is_torsion_at_zero(T) and is_torsion_at_zero(-T)
        assert add(T, add(T, T)).is_infinity and add(T, T) == -T


def test_torsion_at_zero_refuses_every_other_point():
    D = QOmega(49)
    # y = 0 (the singular y^2 = x^3), O, and (0, t) off its curve
    assert not is_torsion_at_zero(CurvePoint.make(0, 0, 0))
    assert not is_torsion_at_zero(CurvePoint.infinity(D))
    assert not is_torsion_at_zero(CurvePoint(D, QOmega(0), QOmega(Fraction(5, 2))))
    assert not is_torsion_at_zero(CurvePoint(D, QOmega(0), QOmega(0)))
    # x != 0: not of the form (0, t), even at a 3-torsion point x^3 = -D
    S = CurvePoint.make(-27, 3, Fraction(9, 2))
    assert add(S, add(S, S)).is_infinity and not is_torsion_at_zero(S)
    for P in _points_of_e7()[:7]:
        assert P.x and not is_torsion_at_zero(P)


def _witness_mul_affine(n, P, ell):
    # the affine double-and-add _witness_mul replaced: one inversion a step
    def add2(R, S):
        if R is None:
            return S
        if S is None:
            return R
        (x1, y1), (x2, y2) = R, S
        if x1 == x2:
            if (y1 + y2) % ell == 0:
                return None
            lam = 3 * x1 * x1 * pow(2 * y1, -1, ell) % ell
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
        x3 = (lam * lam - x1 - x2) % ell
        return x3, (lam * (x1 - x3) - y1) % ell

    B = (P.x.A * pow(P.x.d, -1, ell) % ell, P.y.A * pow(P.y.d, -1, ell) % ell)
    R = None
    while n:
        if n & 1:
            R = add2(R, B)
        n >>= 1
        B = add2(B, B)
    return R


def _witness_mul_residues(n, Q, ell):
    # _witness_mul's Jacobian (X, Y, Z) as residues (X/Z^2, Y/Z^3), None for O~
    X, Y, Z = curves._witness_mul(n, Q, ell)
    if not Z:
        return None
    zi = pow(Z, -1, ell)
    return X * zi * zi % ell, Y * zi * zi * zi % ell


@pytest.mark.parametrize("ell", [curves.WITNESS_PRIME, 5, 11, 29, 101])
def test_witness_mul_agrees_with_the_affine_law_and_with_mul(ell):
    # [n]Q for n <= 12 against mul over Q reduced mod ell, and random n
    # up to 2^40 against the affine law; the small ell reach O~, the
    # tangent and the vertical inside the ladder
    from cubesum.parametrize import solve_pipeline

    pick = random.Random(ell)
    bases = _points_of_e7()[:4]
    bases += [solve_pipeline(p, i).point_Q for p, i in ((61, 2), (67, 2))]
    checked = 0
    for Q in bases:
        if Q.x.d % ell == 0 or Q.y.d % ell == 0:
            continue
        R = CurvePoint.infinity(Q.D)
        for n in range(13):
            got = _witness_mul_residues(n, Q, ell)
            assert got == _witness_mul_affine(n, Q, ell)
            if R.is_infinity or R.x.d % ell == 0:
                assert got is None  # [n]Q reduces to O~
            else:
                assert got == (R.x.A * pow(R.x.d, -1, ell) % ell, R.y.A * pow(R.y.d, -1, ell) % ell)
            R = add(R, Q)
            checked += 1
        for n in (pick.randrange(2**40) for _ in range(20)):
            assert _witness_mul_residues(n, Q, ell) == _witness_mul_affine(n, Q, ell)
    assert checked >= 13 * 4
