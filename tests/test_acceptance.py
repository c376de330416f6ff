"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here exactly as specified.
"""

import math
import random
import time
from fractions import Fraction

from mpmath import mp

from cubesum.analytic import (
    l_value_and_cusp_zero,
    fricke_constant,
    lattice_of_curve,
    mpc_to_fixed,
)
from cubesum.curves import CurvePoint, add, endo_omega, mul
from cubesum.eisenstein import (
    EisensteinInt,
    Fq2,
    ONE,
    QOmega,
    SQRT_M3,
    count_points_bruteforce,
    count_points_formula,
    gauss_sum,
    is_prime_int,
    jacobi_sum_cubic,
    jacobi_sum_split,
    normalize_primary,
    residue_map_omega,
    split_prime,
)
from cubesum.heckeform import as_eisenstein, nebentypus, newform_pairs
from cubesum.parametrize import solve_pipeline
from cubesum.qseries import cube_root_series, f_plus_minus_series, y_series

from eisenstein_helpers import exact_div, is_integral

rng = random.Random(20240902)

SOLVE_BUDGET_SECONDS = 60


def _pass(msg):
    print(f"PASS  {msg}")


# --------------------------------------------------------------------------
def test_criterion_1_end_to_end_solves():
    jobs = [(7, 1), (13, 1), (31, 1), (7, 2)]
    for p, i in jobs:
        t0 = time.perf_counter()
        r = solve_pipeline(p, i, bits=192)
        dt = time.perf_counter() - t0
        assert r.cube.u**3 + r.cube.v**3 == p**i
        assert r.certificate.nontorsion
        assert r.point_Q.is_rational() and r.point_Q.on_curve()
        assert dt < SOLVE_BUDGET_SECONDS, f"solve {p}^{i} took {dt:.1f}s"
    _pass(
        "criterion 1: solve 7, 13, 31 and 7^2 produce exact u^3+v^3 = p^i with "
        f"nontorsion certificates, each within {SOLVE_BUDGET_SECONDS}s at 192 bits"
    )


# --------------------------------------------------------------------------
def _unit_orbit(P):
    out = []
    Q = P
    for _ in range(3):
        out.extend([Q, -Q])
        Q = endo_omega(Q)
    return out


def test_criterion_2_reference_k_points():
    targets = {
        7: ((0, Fraction(-7, 3)), (Fraction(7, 18), Fraction(7, 9))),
        13: ((Fraction(13, 3), Fraction(13, 3)), (Fraction(65, 18), Fraction(65, 9))),
        31: ((0, Fraction(-217, 12)), (Fraction(-3131, 72), Fraction(-3131, 36))),
    }
    for p, ((xa, xb), (ya, yb)) in targets.items():
        want = CurvePoint.make(
            QOmega(Fraction(p * p)), QOmega(xa, xb), QOmega(ya, yb)
        )
        got = solve_pipeline(p, 1).point_K
        assert got in _unit_orbit(want), f"p={p}: {got} not in the reference 6-orbit"
    _pass(
        "criterion 2: K-points (-7w/3, 7sqrt(-3)/18), (-13w^2/3, 65sqrt(-3)/18), "
        "(-217w/12, -3131sqrt(-3)/72) reproduced up to the unit-twist orbit"
    )


# --------------------------------------------------------------------------
def test_criterion_3_reference_series():
    s7, s13, s31 = split_prime(7), split_prime(13), split_prime(31)

    sh7 = y_series(7, 1, 46) - s7.pibar.to_q() / 2
    want7 = [-1, 1, 1, 1, -1, -2, 1, -3, 1, 1, 2, 0, -1, 2, -4, 1, 3]
    assert [sh7.coefficient(n) for n in range(-3, 46, 3)] == [QOmega(v) for v in want7]

    sh13 = y_series(13, 1, 46) + s13.pibar.to_q() / 2
    want13 = [-1, 2, 1, -2, -1, -2, 2, 0, 2, 2, -1, 0, 0, -4, 1, 4, -6]
    assert [sh13.coefficient(n) for n in range(-3, 46, 3)] == [QOmega(v) for v in want13]

    sh31 = y_series(31, 1, 22) + s31.pibar.to_q() / 2
    want31 = [(-1, 0), (-4, -3), (1, 0), (1, 6), (8, 3), (1, 3), (11, 0), (0, 3), (20, -12)]
    assert [sh31.coefficient(n) for n in range(-3, 22, 3)] == [QOmega(a, b) for a, b in want31]

    F31 = f_plus_minus_series(31, 1, "+", 22)
    wantF = [(1, 0), (1, 2), (-4, -5), (10, 5), (-16, 4), (4, -40), (65, 109), (-240, -165)]
    assert [F31.coefficient(n) for n in range(0, 22, 3)] == [QOmega(a, b) for a, b in wantF]

    assert f_plus_minus_series(7, 1, "-", 22).is_one()
    assert f_plus_minus_series(13, 1, "+", 22).is_one()
    _pass(
        "criterion 3: y-series (p = 7: 16 terms, p = 13: 14 terms, p = 31: 8 terms) "
        "and F+ (p = 31) match exactly; F-(7) = F+(13) = 1 through q^21"
    )


# --------------------------------------------------------------------------
def test_criterion_4_point_count_oracle():
    FIELD_LIMIT = 10_000
    d_set = [EisensteinInt(1, 0), EisensteinInt(49, 0)]
    for p in (7, 13):
        s = split_prime(p)
        d_set += [s.pibar, s.pibar * s.pibar]
    checked = 0
    for q in range(2, FIELD_LIMIT):
        if not is_prime_int(q):
            continue
        if q % 3 == 1:
            sq = split_prime(q)
            for g in (sq.pi, sq.pibar):
                piq = normalize_primary(g, 2)
                w = residue_map_omega(piq)
                for D in d_set:
                    if not (6 * D) % piq:
                        continue
                    lhs = count_points_formula(D, piq)
                    rhs = count_points_bruteforce(D, q, omega_residue=w)
                    assert lhs == rhs, f"mismatch at split q={q}, D={D}"
                    checked += 1
        elif q % 3 == 2 and q * q < FIELD_LIMIT:
            piq = EisensteinInt(q, 0)
            for D in d_set:
                if not (6 * D) % piq:
                    continue
                lhs = count_points_formula(D, piq)
                rhs = count_points_bruteforce(D, q * q)
                assert lhs == rhs, f"mismatch at inert q={q}, D={D}"
                checked += 1
    assert checked > 5000
    _pass(
        f"criterion 4: point-count formula = brute force on every good residue "
        f"field of size < 10^4 for 6 twists D ({checked} comparisons, 0 mismatches)"
    )


# --------------------------------------------------------------------------
def test_criterion_5_jacobi_sums():
    for q in (2, 5, 11, 17, 23, 29):
        assert jacobi_sum_cubic(q) == EisensteinInt(q, 0)

    checked_pairs = 0
    for q in (2, 5, 11):
        F = Fq2(q)
        n = q * q - 1
        if n % 2:  # q = 2: no order-2 character of F_4^*, identity is vacuous
            continue
        g = None
        for cand in F.elements():
            if cand == F.zero:
                continue
            x, seen = F.one, set()
            for _ in range(n):
                x = F.mul(x, cand)
                seen.add(x)
            if len(seen) == n:
                g = cand
                break
        log = {}
        x = F.one
        for k in range(n):
            log[x] = k
            x = F.mul(x, g)
        zeta6 = exact_div(ONE + SQRT_M3, EisensteinInt(2, 0))

        def char(m):
            def chi(v):
                if v == F.zero:
                    return EisensteinInt(0, 0)
                return zeta6 ** ((log[v] * m * 6 // n) % 6)

            return chi

        rho = char(n // 2)
        four = F.embed(EisensteinInt(4, 0))
        for m in (n // 6, n // 3, n // 2, 2 * n // 3, 5 * n // 6):
            xi = char(m)
            if all(xi(v) == ONE for v in F.elements() if v != F.zero):
                continue
            j1 = sum((rho(u) * xi(F.sub(F.one, u)) for u in F.elements()), EisensteinInt(0, 0))
            j2 = sum((xi(u) * xi(F.sub(F.one, u)) for u in F.elements()), EisensteinInt(0, 0))
            assert j1 == xi(four) * j2, f"J(rho,xi) identity fails at q={q}, m={m}"
            checked_pairs += 1
    assert checked_pairs >= 8
    _pass(
        "criterion 5: J(chi_q, chi_q) = q for q = 2 mod 3, q < 30; "
        f"J(rho,xi) = xi(4) J(xi,xi) by direct summation ({checked_pairs} characters)"
    )


# --------------------------------------------------------------------------
def test_criterion_6_gauss_and_fricke():
    for p in (7, 13, 31):
        s = split_prime(p)
        tau = gauss_sum(p, s.pi, prec=160)
        with mp.workprec(224):
            assert abs(abs(tau) ** 2 - p) < mp.mpf(2) ** -100
            j = jacobi_sum_split(p, s.pi).to_mpc(mp)
            assert abs(tau**3 - p * j) < mp.mpf(2) ** -100
    for p, i in ((7, 1), (13, 1), (31, 1), (7, 2)):
        s = split_prime(p)
        C = fricke_constant(p, i, 160)
        with mp.workprec(224):
            assert abs(abs(C) - 1) < mp.mpf(2) ** -80
            target = (s.pi.to_mpc(mp) / s.pibar.to_mpc(mp)) ** (2 * i)
            assert abs(C**6 - target) < mp.mpf(2) ** -80
    _pass(
        "criterion 6: |tau(chi)|^2 = p and tau^3 = p J(chi,chi) to 2^-100 at 160 "
        "bits; Fricke |C| = 1 and C^6 = pi^(2i)/pibar^(2i) to 2^-80"
    )


# --------------------------------------------------------------------------
def test_criterion_7_cusp_landmarks():
    from test_analytic import wp_mpc

    for p in (7, 13, 31):
        PREC = 192
        s = split_prime(p)
        z0, ok = l_value_and_cusp_zero(p, 1, PREC)
        assert ok
        L = lattice_of_curve(s.pibar**2, PREC)
        with mp.workprec(PREC + 32):
            s3 = mp.mpc(0, 1) * mp.sqrt(3)
            # residuals come back in units of 2^-(PREC + 32)
            assert L.residual(mpc_to_fixed(z0 * s3, L.W)) < 2 ** (L.W - 96)
            assert L.residual(mpc_to_fixed(z0, L.W)) > 2 ** (L.W - 2)
            x, _ = wp_mpc(L, z0, PREC)
            assert abs(x) < mp.mpf(2) ** -96
    _pass(
        "criterion 7: z0 = L(f,1) is a primitive sqrt(-3)-division point of L "
        "(residual < 2^-96 at 192 bits) with wp-image x = 0, for p = 7, 13, 31"
    )


# --------------------------------------------------------------------------
def test_criterion_8_property_suites():
    from test_analytic import lattice_omega, wp_mpc

    # wp curve-equation residual for 100 random z at 192 bits
    PREC = 192
    D = split_prime(7).pibar ** 2
    L = lattice_of_curve(D, PREC)
    with mp.workprec(PREC + 32):
        Dc = D.to_mpc(mp)
        for _ in range(100):
            t = rng.uniform(0.25, 0.55)
            ang = rng.uniform(0, 2 * math.pi)
            z = lattice_omega(L) * t * mp.e ** (1j * mp.mpf(ang))
            wp, wpd = wp_mpc(L, z, PREC)
            assert abs((wpd / 2) ** 2 - wp**3 - Dc / 4) < mp.mpf(2) ** -(PREC - 32)

    # Laurent wp against the row-summed lattice sum at |z| = 0.1 |Omega|
    from test_analytic import wp_lattice_sum

    with mp.workprec(PREC + 32):
        z = lattice_omega(L) * mp.mpf("0.1") * mp.e ** (1j * mp.mpf("0.9"))
        wp1, wpd1 = wp_mpc(L, z, PREC)
        wp2, wpd2 = wp_lattice_sum(L, z, PREC)
        assert abs(wp1 - wp2) < mp.mpf(2) ** -96 * max(1, abs(wp2))
        assert abs(wpd1 - wpd2) < mp.mpf(2) ** -96 * max(1, abs(wpd2))

    # Hecke multiplicativity and recursion
    a = as_eisenstein(newform_pairs(7, 1, 400), 400)
    for m in range(2, 400):
        for n in range(2, 400 // m + 1):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n]
    for ell in range(5, 20):
        if is_prime_int(ell) and ell not in (7,):
            assert a[ell * ell] == a[ell] * a[ell] - nebentypus(7, 1, ell) * ell

    # Prop-style integrality of y-series with unit leading coefficient
    for p in (7, 13, 31):
        s = split_prime(p)
        y = y_series(p, 1, 25)
        assert y.coefficient(-3) == QOmega(-1)
        sh = y - s.pibar.to_q() / 2
        assert all(is_integral(sh.coefficient(n)) for n in range(-3, 25))

    # cube-root-series exactness on random unit-leading series
    from test_qseries import Series, series

    for _ in range(10):
        coeffs = [QOmega(1)] + [
            QOmega(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5), 2))
            for _ in range(9)
        ]
        S = Series(0, coeffs)
        cubed = S * S * S
        assert series(cube_root_series(cubed)) ** 3 == cubed

    # group-law axioms on exact points
    for _ in range(10):
        x = QOmega(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), 2))
        y = QOmega(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), 2))
        P = CurvePoint(4 * (y * y - x**3), x, y)
        assert P.on_curve()
        Q, R = mul(2, P), mul(3, P)
        assert add(P, Q) == add(Q, P)
        assert add(add(P, Q), R) == add(P, add(Q, R))
        assert add(P, -P).is_infinity

    _pass(
        "criterion 8: wp residuals, Laurent-vs-lattice-sum wp, Hecke "
        "multiplicativity/recursion, y-series integrality, cube-root exactness, "
        "group-law axioms all green"
    )
