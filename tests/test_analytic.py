import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

import cubesum.analytic as analytic
from cubesum.analytic import (
    GUARD_BITS,
    PoleAtLatticePoint,
    TermsCapExceeded,
    eval_f,
    eval_z,
    fricke_constant,
    l_value_and_cusp_zero,
    lattice_of_curve,
    omega_mpc,
    reduce_xi,
    terms_needed,
    wp_eval,
    wp_laurent_coefficients,
)
from cubesum.eisenstein import EisensteinInt, QOmega, split_prime
from cubesum.heckeform import (
    as_eisenstein,
    build_form,
    conductor_and_level,
    nebentypus,
    qexp_coefficients,
)

rng = random.Random(424242)


def wp_lattice_sum(L, z, prec):
    """Independent oracle: the defining lattice sum with each row through the
    lattice summed in closed form (geometric/cotangent identities), i.e. the
    classical Fourier expansion over the basis (Omega, Omega*w).

    wp(z; Z+tau Z)/(2 pi i)^2 = 1/12 + u/(1-u)^2
        + sum_n q^n [ u/(1-q^n u)^2 + u^-1/(1-q^n u^-1)^2 - 2/(1-q^n)^2 ]
    with u = e^(2 pi i z), q = e^(2 pi i tau); here tau = w and the result is
    scaled back by homogeneity wp_{cL}(cz) = c^-2 wp_L(z).  Powers are
    written as products: mpmath raises an mpc to an integer power through
    log and exp, which dominates the time at thousands of bits.
    """
    with mp.workprec(prec + 64):
        zz = mp.mpc(z) / L.Omega
        tau = omega_mpc()
        q = mp.e ** (2j * mp.pi * tau)
        u = mp.e ** (2j * mp.pi * zz)
        r = 1 / (1 - u)
        s = mp.mpf(1) / 12 + u * r * r
        sd = u * (1 + u) * r * r * r
        qn = mp.mpc(1)
        nmax = int((prec + 80) / (-mp.log(abs(q), 2))) + 4
        for n in range(1, nmax + 1):
            qn *= q
            a = qn * u
            b = qn / u
            ra, rb, rq = 1 / (1 - a), 1 / (1 - b), 1 / (1 - qn)
            s += a * ra * ra + b * rb * rb - 2 * qn * rq * rq
            sd += a * (1 + a) * ra * ra * ra - b * (1 + b) * rb * rb * rb
        twopii = 2j * mp.pi
        wp = twopii**2 * s / L.Omega**2
        wpd = twopii**3 * sd / L.Omega**3
        return wp, wpd


def random_z(L, lo=0.05, hi=1.4):
    t = rng.uniform(lo, hi)
    ang = rng.uniform(0, 6.28)
    with mp.workprec(L.prec + GUARD_BITS):
        return L.Omega * t * mp.e ** (1j * mp.mpf(ang))


# -------------------------------------------------------- Laurent / lattice


def test_laurent_coefficients_exact_and_numeric_agree():
    g3q = QOmega(Fraction(-7, 1), Fraction(3, 1))
    Gq = wp_laurent_coefficients(g3q, 6)
    with mp.workprec(120):
        Gc = wp_laurent_coefficients(g3q.to_mpc(mp), 6)
        for a, b in zip(Gq, Gc):
            assert abs(a.to_mpc(mp) - b) < mp.mpf(2) ** -90


def test_laurent_g6_is_g3_over_140():
    g3 = QOmega(Fraction(5, 3))
    G = wp_laurent_coefficients(g3, 1)
    assert G[0] == g3 / 140


def test_low_weight_lattice_sums_vanish():
    # G_4, G_8, G_10 of the hexagonal lattice are zero (only weights divisible
    # by 6 survive); checked by truncated direct summation over Z[w]
    with mp.workprec(64):
        w = omega_mpc()
        R = 60
        for k in (4, 8, 10):
            total = mp.mpc(0)
            comparison = mp.mpf(0)
            for a in range(-R, R + 1):
                for b in range(-R, R + 1):
                    if a == 0 and b == 0:
                        continue
                    v = a + b * w
                    total += v ** (-k)
                    comparison += abs(v) ** (-k)
            assert abs(total) < mp.mpf(1e-4) * comparison


def test_lattice_scaling_and_unit_invariance():
    prec = 128
    D = EisensteinInt(-2, -3) ** 2  # pibar^2 for p = 7
    L1 = lattice_of_curve(D, prec)
    with mp.workprec(prec + GUARD_BITS):
        L2 = lattice_of_curve(D.to_q() / QOmega(64), prec)  # u = 2: u^-6 D
        # Omega scales by u (up to a sixth root of unity = same lattice)
        ratio = L2.Omega / L1.Omega / 2
        assert abs(ratio**6 - 1) < mp.mpf(2) ** -100
        # unit * D gives the identical lattice data
        L3 = lattice_of_curve(EisensteinInt(0, 1) ** 6 * D, prec)
        assert abs(L3.Omega - L1.Omega) < mp.mpf(2) ** -100


def test_wp_satisfies_curve_equation():
    prec = 192
    D = split_prime(7).pibar ** 2
    L = lattice_of_curve(D, prec)
    with mp.workprec(prec + GUARD_BITS):
        Dc = D.to_mpc(mp)
        for _ in range(20):
            z = random_z(L)
            if L.residual(z) < 0.05:
                continue
            wp, wpd = wp_eval(L, z, prec)
            res = abs(wpd**2 - 4 * wp**3 - Dc)
            assert res < mp.mpf(2) ** (-(prec - 32)) * max(1, abs(wp) ** 3)


@pytest.mark.parametrize("prec", [160, 192, 384, 768, 3072])
def test_wp_matches_lattice_sum_oracle(prec):
    # the series length is fixed per precision, so each rung is checked
    L = lattice_of_curve(EisensteinInt(5, 1), prec)
    with mp.workprec(prec + 64):
        tol = mp.mpf(2) ** -(prec - 64)
        for frac in (0.1, 0.22, 0.34, 0.4, 0.55):  # series to its radius, halving
            z = L.Omega * frac * mp.e ** (1j * mp.mpf(0.77))
            wp, wpd = wp_eval(L, z, prec)
            owp, owpd = wp_lattice_sum(L, z, prec)
            assert abs(wp - owp) < tol * max(1, abs(owp))
            assert abs(wpd - owpd) < tol * max(1, abs(owpd))


def test_reduction_near_voronoi_edges():
    # points within 1e-12 of an edge (and of a vertex) of the Voronoi cell of
    # 0, on random lattice translates: the representative is short and wp,
    # evaluated through it, agrees with the lattice sum
    prec = 192
    L = lattice_of_curve(EisensteinInt(5, 1), prec)
    with mp.workprec(prec + GUARD_BITS):
        w = omega_mpc()
        bound = 1 / mp.sqrt(3) + mp.mpf(2) ** -40
        half_edge = 1 / (2 * mp.sqrt(3))
        tol = mp.mpf(2) ** -(prec - 64)
        for k in range(6):
            unit = w ** (k // 2) * (1 if k % 2 == 0 else -1)
            for along in (-half_edge, rng.uniform(-0.28, 0.28), half_edge):
                for off in (-1e-12, 1e-12):
                    edge = unit * (mp.mpf(1) / 2 + off + mp.mpc(0, along))
                    m, n = rng.randint(-4, 4), rng.randint(-4, 4)
                    xi = edge + m + n * w
                    r, _ = reduce_xi(xi)
                    assert abs(r) <= bound
                    z = L.Omega * xi
                    wp, wpd = wp_eval(L, z, prec)
                    owp, owpd = wp_lattice_sum(L, z, prec)
                    assert abs(wp - owp) < tol * max(1, abs(owp))
                    assert abs(wpd - owpd) < tol * max(1, abs(owpd))


def test_laurent_coefficients_once_per_precision(monkeypatch):
    # every lattice rescales the one base lattice Z[w]: its coefficients are
    # computed once per precision, whatever the curve
    calls = []

    def counting(g3, count):
        calls.append(count)
        return wp_laurent_coefficients(g3, count)

    monkeypatch.setattr(analytic, "_base_cache", {})
    monkeypatch.setattr(analytic, "wp_laurent_coefficients", counting)
    for prec, total in ((192, 1), (256, 2)):
        for D in (EisensteinInt(5, 1), split_prime(7).pibar ** 2):
            L = lattice_of_curve(D, prec)
            with mp.workprec(prec + GUARD_BITS):
                wp_eval(L, L.Omega * mp.mpc(0.3, 0.2), prec)
        assert len(calls) == total


def test_wp_parity_and_cm_rotation():
    prec = 128
    L = lattice_of_curve(EisensteinInt(1, 0), prec)
    with mp.workprec(prec + GUARD_BITS):
        w = omega_mpc()
        for _ in range(10):
            z = random_z(L, 0.1, 0.9)
            wp, wpd = wp_eval(L, z, prec)
            wpm, wpdm = wp_eval(L, -z, prec)
            assert abs(wp - wpm) < mp.mpf(2) ** -96 * max(1, abs(wp))
            assert abs(wpd + wpdm) < mp.mpf(2) ** -96 * max(1, abs(wpd))
            wpw, wpdw = wp_eval(L, w * z, prec)
            # homogeneity with lambda = w and wL = L
            assert abs(wpw - w * wp) < mp.mpf(2) ** -90 * max(1, abs(wp))
            assert abs(wpdw - wpd) < mp.mpf(2) ** -90 * max(1, abs(wpd))


def test_wp_pole_and_periodicity():
    prec = 128
    L = lattice_of_curve(EisensteinInt(3, 5), prec)
    with pytest.raises(PoleAtLatticePoint):
        wp_eval(L, L.from_coords(2, -1), prec)
    with mp.workprec(prec + GUARD_BITS):
        z = random_z(L, 0.2, 0.45)
        wp1, wpd1 = wp_eval(L, z, prec)
        wp2, wpd2 = wp_eval(L, z + L.from_coords(3, 1), prec)
        assert abs(wp1 - wp2) < mp.mpf(2) ** -96 * max(1, abs(wp1))
        assert abs(wpd1 - wpd2) < mp.mpf(2) ** -96 * max(1, abs(wpd1))


def test_reduce_gives_minimal_norm():
    prec = 96
    L = lattice_of_curve(EisensteinInt(2, 0), prec)
    with mp.workprec(prec + GUARD_BITS):
        w = omega_mpc()
        for _ in range(50):
            xi = random_z(L, 0.0, 3.0) / L.Omega
            r, (m, n) = reduce_xi(xi)
            assert abs(xi - (r + m + n * w)) < mp.mpf(2) ** -80
            # no lattice translate of r in the immediate neighborhood is shorter
            for dm in (-1, 0, 1):
                for dn in (-1, 0, 1):
                    assert abs(r) <= abs(r - (dm + dn * w)) + mp.mpf(2) ** -80


# ------------------------------------------------------------- eval_z / f


def _sum_form_oracle(coeffs, q, M, divide_by_n):
    """The plain mpmath q-sum of one coefficient sequence (EisensteinInts),
    term by term at the working precision: the reference for the fixed-point
    kernel."""
    s3h = mp.sqrt(3) / 2
    total = mp.mpc(0)
    q3 = q**3
    qn = q  # q^n for n = 1, 4, 7, ...
    for n in range(1, M + 1, 3):
        c = coeffs[n]
        if c.a or c.b:
            v = mp.mpc(mp.mpf(c.a) - mp.mpf(c.b) / 2, s3h * c.b)
            if divide_by_n:
                v = v / n
            total += v * qn
        qn *= q3
    return total


@pytest.mark.parametrize("prec", [192, 384, 768, 3072])
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True), (eval_f, False)])
def test_kernel_matches_mpmath_oracle_for_f_and_fc(prec, evaluate, divide_by_n):
    # the height of 31's wtau sites, with a real part off the axis
    p, i = 31, 1
    _, N = conductor_and_level(p, i)
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(mp.mpf(3) / 7, mp.mpf(3) / (2 * N) * mp.sqrt(3))
        M = terms_needed(tau.imag, prec)
        f = build_form(p, i, M)
        got_f, got_fc = evaluate(f, tau, prec)
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein((f.alpha, f.beta))
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        assert abs(got_f - want_f) < mp.mpf(2) ** (-prec)
        assert abs(got_fc - want_fc) < mp.mpf(2) ** (-prec)
        assert abs(got_f - got_fc) > 1e-3  # f and f^c are distinct sums


# M for step counts K = ceil(M/3) of 1, 2, 48 = 7^2 - 1, 49 = 7^2, 50 and
# the prime 97: one block, a block of one, a short last block, full blocks
# only, a last block of one term, and no square structure at all
@pytest.mark.parametrize("M", [1, 6, 142, 147, 148, 289])
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True), (eval_f, False)])
def test_kernel_block_edges(monkeypatch, M, evaluate, divide_by_n):
    prec = 192
    monkeypatch.setattr(analytic, "terms_needed", lambda im_tau, prec: M)
    f = build_form(31, 1, M)
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(mp.mpf(2) / 9, mp.mpf(1) / 40)
        got_f, got_fc = evaluate(f, tau, prec)
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein((f.alpha, f.beta))
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        assert abs(got_f - want_f) < mp.mpf(2) ** (-prec)
        assert abs(got_fc - want_fc) < mp.mpf(2) ** (-prec)


@pytest.mark.parametrize("prec, im_tau", [(192, 0.0004), (768, 0.0016)])
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True), (eval_f, False)])
def test_kernel_keeps_its_guard_bits(prec, im_tau, evaluate, divide_by_n):
    # the sums come back at prec + GUARD_BITS: over about 55000 terms, and
    # against an oracle 64 bits finer, they hold to that up to a few
    # roundings of the final mpc sums
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(mp.mpf(3) / 7, im_tau)
        M = terms_needed(tau.imag, prec)
        f = build_form(31, 1, M)
        got_f, got_fc = evaluate(f, tau, prec)
    with mp.workprec(prec + 64):
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein((f.alpha, f.beta))
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        tol = mp.mpf(2) ** -(prec + GUARD_BITS - 3)
        assert abs(got_f - want_f) < tol * max(1, abs(want_f))
        assert abs(got_fc - want_fc) < tol * max(1, abs(want_fc))


def test_eval_z_period_and_third_shift():
    prec = 96
    f = build_form(7, 1, terms_needed(0.05, prec))
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(0.31, 0.05)
        z1 = eval_z(f, tau, prec)[0]
        z2 = eval_z(f, tau + 1, prec)[0]
        assert abs(z1 - z2) < mp.mpf(2) ** -80
        # a_n supported on n = 1 mod 3 makes tau -> tau + 1/3 act by w
        z3 = eval_z(f, tau + mp.mpf(1) / 3, prec)[0]
        assert abs(z3 - omega_mpc() * z1) < mp.mpf(2) ** -80


def test_eval_z_tail_bound_soundness():
    # the kernel's M = terms_needed(Im tau, prec) terms sum to within 2^-prec
    # of twice as many terms
    prec = 96
    M = terms_needed(0.04, prec)
    f1 = build_form(13, 1, M)
    f2 = build_form(13, 1, 2 * M)
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(0.1, 0.04)
        q = mp.e ** (2j * mp.pi * tau)
        a, ac = eval_z(f1, tau, prec)
        a2 = as_eisenstein((f2.alpha, f2.beta))
        b = _sum_form_oracle(a2, q, 2 * M, divide_by_n=True)
        bc = _sum_form_oracle([c.conj() for c in a2], q, 2 * M, divide_by_n=True)
        assert abs(a - b) < mp.mpf(2) ** (-prec)
        assert abs(ac - bc) < mp.mpf(2) ** (-prec)


def test_eval_z_cap():
    f = build_form(7, 1, 32)
    with pytest.raises(TermsCapExceeded):
        eval_z(f, mpmath.mpc(0, 0.001), 192, max_terms=1000)


def _random_gamma_in(N, p, cube_condition, rng, tries=200):
    """A matrix [[a, b], [c, d]] in Gamma_0(N), d a cube mod p if asked."""
    cubes = {pow(x, 3, p) for x in range(1, p)}
    for _ in range(tries):
        c = N  # keeps Im(tau) = Im(gamma tau) = 1/N for the test sites
        d = rng.randint(2, 4 * N)
        import math

        if math.gcd(c, d) != 1:
            continue
        if cube_condition and d % p not in cubes:
            continue
        if not cube_condition and d % p in cubes:
            continue
        a = pow(d, -1, c)
        b = (a * d - 1) // c
        return a, b, c, d
    raise RuntimeError("no matrix found")


def test_eval_z_gamma_periods_land_in_lattice():
    # z(gamma tau) - z(tau) in L for gamma with d a cube mod p
    prec = 128
    p, i = 7, 1
    _, N = conductor_and_level(p, i)
    L = lattice_of_curve(split_prime(p).pibar ** (2 * i), prec)
    with mp.workprec(prec + GUARD_BITS):
        M = terms_needed(mp.mpf(1) / N * 0.8, prec)
        f = build_form(p, i, M)
        for k in range(6):
            a, b, c, d = _random_gamma_in(N, p, True, rng)
            # site chosen so that both tau and gamma tau have height ~ 1/N
            tau = mp.mpc(mp.mpf(-d) / c, mp.mpf(1) / c)
            gtau = (a * tau + b) / (c * tau + d)
            assert gtau.imag > mp.mpf(1) / N * 0.9
            z1 = eval_z(f, tau, prec)[0]
            z2 = eval_z(f, gtau, prec)[0]
            assert L.contains(z2 - z1, tol_bits=prec // 2), f"gamma #{k}: period off lattice"


def test_eval_z_gamma1_period_consistency():
    # 2 pi i integrals over 20 random Gamma_1(N) elements land in L
    prec = 128
    p, i = 7, 1
    _, N = conductor_and_level(p, i)
    L = lattice_of_curve(split_prime(p).pibar ** (2 * i), prec)
    with mp.workprec(prec + GUARD_BITS):
        M = terms_needed(mp.mpf(1) / N * 0.9, prec)
        f = build_form(p, i, M)
        seen = set()
        while len(seen) < 20:
            k, m = rng.randint(-5, 6), rng.randint(-5, 5)
            if k == 0 or (k, m) in seen:
                continue
            seen.add((k, m))
            a, b, c, d = 1 + m * N, (m + k) + m * k * N, N, 1 + k * N
            assert a * d - b * c == 1 and a % N == d % N == 1 % N
            # site on the |c tau + d| = 1 circle so both heights equal 1/N
            tau = mp.mpc(mp.mpf(-d) / c, mp.mpf(1) / c)
            gtau = (a * tau + b) / (c * tau + d)
            z1 = eval_z(f, tau, prec)[0]
            z2 = eval_z(f, gtau, prec)[0]
            assert L.contains(z2 - z1, tol_bits=prec // 2)


def test_eval_z_nebentypus_action():
    # for gamma in Gamma_0(N) with xi(d) = w^k: z(gamma tau) = w^k z(tau) + period
    prec = 128
    p, i = 7, 1
    _, N = conductor_and_level(p, i)
    L = lattice_of_curve(split_prime(p).pibar ** (2 * i), prec)
    with mp.workprec(prec + GUARD_BITS):
        M = terms_needed(mp.mpf(1) / N * 0.8, prec)
        f = build_form(p, i, M)
        for k in range(4):
            a, b, c, d = _random_gamma_in(N, p, False, rng)
            xi = nebentypus(p, i, d).to_mpc(mp)
            tau = mp.mpc(mp.mpf(-d) / c, mp.mpf(1) / c)
            gtau = (a * tau + b) / (c * tau + d)
            z1 = eval_z(f, tau, prec)[0]
            z2 = eval_z(f, gtau, prec)[0]
            assert L.contains(z2 - xi * z1, tol_bits=prec // 2)


# ----------------------------------------------------- Fricke and L-value


def test_fricke_constant_unit_modulus_and_sixth_power():
    for p, i in ((7, 1), (13, 1), (31, 1)):
        prec = 160
        C = fricke_constant(p, i, prec)
        s = split_prime(p)
        with mp.workprec(prec + GUARD_BITS):
            assert abs(abs(C) - 1) < mp.mpf(2) ** -80
            target = (s.pi.to_mpc(mp) / s.pibar.to_mpc(mp)) ** (2 * i)
            assert min(abs(C**6 - target), abs(C**6 - target.conjugate())) < mp.mpf(2) ** -80


def test_fricke_constant_site_independent():
    prec = 128
    _, N = conductor_and_level(13, 1)
    with mp.workprec(prec + GUARD_BITS):
        C1 = fricke_constant(13, 1, prec)
        C2 = fricke_constant(13, 1, prec, at=mp.mpc(0.01, 1.17 / mp.sqrt(N)))
        assert abs(C1 - C2) < mp.mpf(2) ** -80


def test_l_value_and_cusp_zero():
    for p in (7, 13, 31):
        z0, flag = l_value_and_cusp_zero(p, 1, 192)
        assert flag
        assert abs(z0) > 0
        z0c, flagc = l_value_and_cusp_zero(p, 1, 192, conjugate=True)
        assert flagc


def test_terms_needed_monotone():
    assert terms_needed(0.01, 192) > terms_needed(0.02, 192) > terms_needed(0.02, 96)


def test_fricke_constant_extends_a_too_short_form():
    # a form shorter than the Fricke site needs is extended in place, not summed short
    want = fricke_constant(7, 1, 160)
    short = build_form(7, 1, 20)
    got = fricke_constant(7, 1, 160, form=short)
    assert got == want
    assert short.terms > 20
    assert (short.alpha, short.beta) == qexp_coefficients(7, 1, short.terms)
