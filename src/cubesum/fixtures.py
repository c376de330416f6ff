"""The worked-example fixture suite behind `cubesum verify`.

Three reference primes (7, 13, 31) with frozen exact values: splittings,
levels, point-count identities, Gauss/Jacobi sums, CM sites, series
prefixes, K-points (up to the documented unit-twist orbit) and end-to-end
cube sums.  Every check raises AssertionError with a diagnostic on mismatch.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .eisenstein import (
    EisensteinInt,
    QOmega,
    count_points_bruteforce,
    count_points_formula,
    gauss_sum,
    jacobi_sum_cubic,
    jacobi_sum_split,
    normalize_primary,
    residue_map_omega,
    split_prime,
)
from .heckeform import as_eisenstein, conductor_and_level, newform_pairs, twist_check


def q(a, b=0):
    return QOmega(a, b)


def _eq(got, want, what):
    if got != want:
        raise AssertionError(f"{what}: got {got}, want {want}")


def _check(ok, what):
    if not ok:
        raise AssertionError(what)


def check_splits():
    _eq(split_prime(7).pi, EisensteinInt(1, 3), "pi(7)")
    _eq(split_prime(7).pibar, EisensteinInt(-2, -3), "pibar(7)")
    _eq(split_prime(13).pi, EisensteinInt(4, 3), "pi(13)")
    _eq(split_prime(13).pibar, EisensteinInt(1, -3), "pibar(13)")
    _eq(split_prime(31).pi, EisensteinInt(1, 6), "pi(31)")
    _eq(split_prime(31).pibar, EisensteinInt(-5, -6), "pibar(31)")
    _eq(EisensteinInt(1, 3).norm(), 7, "norm(3w+1)")
    _eq(EisensteinInt(1, 6).norm(), 31, "norm(6w+1)")


def check_levels():
    _eq(conductor_and_level(7, 1)[1], 189, "N(7,1)")
    _eq(conductor_and_level(13, 1)[1], 117, "N(13,1)")
    _eq(conductor_and_level(31, 1)[1], 279, "N(31,1)")


def check_jacobi_cubic():
    for qq in (2, 5, 11, 17, 23, 29):
        _eq(jacobi_sum_cubic(qq), EisensteinInt(qq, 0), f"J(chi_{qq}, chi_{qq})")


def check_gauss_sums():
    for p in (7, 13, 31):
        s = split_prime(p)
        tau = gauss_sum(p, s.pi, prec=160)
        with mp.workprec(200):
            _check(abs(abs(tau) ** 2 - p) < mp.mpf(2) ** -100, f"|tau|^2 != {p}")
            j = jacobi_sum_split(p, s.pi).to_mpc(mp)
            _check(abs(tau**3 - p * j) < mp.mpf(2) ** -100, f"tau^3 != p J for {p}")


def check_point_counts_quick():
    for p in (7, 13):
        s = split_prime(p)
        for D in (EisensteinInt(1, 0), s.pibar, s.pibar * s.pibar, EisensteinInt(49, 0)):
            for qq in (5, 11, 13, 17, 19, 23):
                if qq % 3 == 2:
                    piq = EisensteinInt(qq, 0)
                    if not (6 * D) % piq:
                        continue
                    _eq(
                        count_points_formula(D, piq),
                        count_points_bruteforce(D, qq * qq),
                        f"count formula vs brute force at inert {qq}, D={D}",
                    )
                else:
                    sq = split_prime(qq)
                    for g in (sq.pi, sq.pibar):
                        piq = normalize_primary(g, 2)
                        if not (6 * D) % piq:
                            continue
                        _eq(
                            count_points_formula(D, piq),
                            count_points_bruteforce(D, qq, omega_residue=residue_map_omega(piq)),
                            f"count formula vs brute force at split {qq}, D={D}",
                        )


def check_cm_roots():
    from .cmpoint import solve_r

    _check(5 in solve_r(7), "r = 5 missing for p = 7")
    _check(23 in solve_r(13), "r = 23 missing for p = 13")
    _check(26 in solve_r(31), "r = 26 missing for p = 31")


def check_ap_values():
    for p in (7, 13, 31):
        s = split_prime(p)
        a = as_eisenstein(newform_pairs(p, 1, p), p)
        _eq(a[p], s.pibar, f"a_{p}")
        for n in range(1, p + 1):
            if n % 3 != 1:
                _eq(a[n], EisensteinInt(0, 0), f"a_{n} vanishing for p={p}")


def check_twist_relation():
    twist_check(7, 1, 120)
    twist_check(13, 1, 120)
    twist_check(31, 1, 120)


_Y7 = [-1, 1, 1, 1, -1, -2, 1, -3, 1, 1, 2, 0, -1, 2, -4, 1, 3]
_Y13 = [-1, 2, 1, -2, -1, -2, 2, 0, 2, 2, -1, 0, 0, -4, 1, 4, -6]
# the w-sign of the two reference constants is pinned by the ratio series
# (conj(c) - c = 3 + 6w forces b = -3) and by conjugation symmetry
_Y31 = [(-1, 0), (-4, -3), (1, 0), (1, 6), (8, 3), (1, 3), (11, 0), (0, 3), (20, -12)]
_F31 = [(1, 0), (1, 2), (-4, -5), (10, 5), (-16, 4), (4, -40), (65, 109), (-240, -165)]


def check_yseries_7():
    from .qseries import y_series

    sh = y_series(7, 1, 46) - split_prime(7).pibar.to_q() / 2
    got = [sh.coefficient(n) for n in range(-3, 46, 3)]
    _eq(got, [q(v) for v in _Y7], "y-series p=7")


def check_yseries_13():
    from .qseries import y_series

    sh = y_series(13, 1, 46) + split_prime(13).pibar.to_q() / 2
    got = [sh.coefficient(n) for n in range(-3, 46, 3)]
    _eq(got, [q(v) for v in _Y13], "y-series p=13")


def check_yseries_31():
    from .qseries import y_series

    sh = y_series(31, 1, 22) + split_prime(31).pibar.to_q() / 2
    got = [sh.coefficient(n) for n in range(-3, 22, 3)]
    _eq(got, [q(a, b) for a, b in _Y31], "y-series p=31")


def check_fseries_identities():
    from .qseries import f_plus_minus_series

    _check(f_plus_minus_series(7, 1, "-", 22).is_one(), "F_-(q) != 1 for p = 7")
    _check(f_plus_minus_series(13, 1, "+", 22).is_one(), "F_+(q) != 1 for p = 13")


def check_fseries_31():
    from .qseries import f_plus_minus_series

    F = f_plus_minus_series(31, 1, "+", 22)
    got = [F.coefficient(n) for n in range(0, 22, 3)]
    _eq(got, [q(a, b) for a, b in _F31], "F_+ series p=31")


def check_cusp_landmarks():
    from .analytic import l_value_and_cusp_zero

    for p in (7, 13, 31):
        z0, ok = l_value_and_cusp_zero(p, 1, 192)
        _check(ok, f"cusp landmark failed for {p}")


def check_fricke():
    from .analytic import fricke_constant

    for p in (7, 13, 31):
        C = fricke_constant(p, 1, 160)
        s = split_prime(p)
        with mp.workprec(200):
            _check(abs(abs(C) - 1) < mp.mpf(2) ** -80, f"|C| != 1 for {p}")
            target = (s.pi.to_mpc(mp) / s.pibar.to_mpc(mp)) ** 2
            _check(abs(C**6 - target) < mp.mpf(2) ** -80, f"C^6 off for {p}")


def _unit_orbit(P):
    from .curves import endo_omega

    out = []
    Q = P
    for _ in range(3):
        out.extend([Q, -Q])
        Q = endo_omega(Q)
    return out


_KPOINTS = {
    7: ((0, Fraction(-7, 3)), (Fraction(7, 18), Fraction(7, 9))),
    13: ((Fraction(13, 3), Fraction(13, 3)), (Fraction(65, 18), Fraction(65, 9))),
    31: ((0, Fraction(-217, 12)), (Fraction(-3131, 72), Fraction(-3131, 36))),
}


def _check_solve(p, i=1):
    from .curves import CurvePoint
    from .parametrize import solve_pipeline

    r = solve_pipeline(p, i)
    _check(r.cube.verify(), f"cube identity failed for {p}^{i}")
    _check(r.certificate.nontorsion, f"certificate failed for {p}^{i}")
    if i == 1 and p in _KPOINTS:
        (xa, xb), (ya, yb) = _KPOINTS[p]
        want = CurvePoint.make(q(p * p), q(xa, xb), q(ya, yb))
        _check(r.point_K in _unit_orbit(want), f"K-point for {p} outside the reference orbit")
    return r


def check_solve_7():
    _check_solve(7, 1)


def check_solve_13():
    _check_solve(13, 1)


def check_solve_31():
    _check_solve(31, 1)


def check_solve_49():
    _check_solve(7, 2)


def suite():
    return [
        ("split_reference_primes", check_splits),
        ("levels_189_117_279", check_levels),
        ("jacobi_sum_cubic_q_lt_30", check_jacobi_cubic),
        ("gauss_sum_identities", check_gauss_sums),
        ("point_count_formula_vs_bruteforce", check_point_counts_quick),
        ("cm_root_candidates", check_cm_roots),
        ("coefficients_ap_and_vanishing", check_ap_values),
        ("cubic_twist_relation", check_twist_relation),
        ("yseries_p7", check_yseries_7),
        ("yseries_p13", check_yseries_13),
        ("yseries_p31", check_yseries_31),
        ("fseries_p31", check_fseries_31),
        ("fseries_p7_p13_identities", check_fseries_identities),
        ("cusp_landmarks", check_cusp_landmarks),
        ("fricke_constants", check_fricke),
        ("solve_p7", check_solve_7),
        ("solve_p13", check_solve_13),
        ("solve_p31", check_solve_31),
        ("solve_p7_power2", check_solve_49),
    ]
