import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import to_fixed

import cubesum.analytic as analytic
from cubesum.analytic import (
    GUARD_BITS,
    IDEAL_COUNT_BOUND,
    SERIES_RADIUS,
    PoleAtLatticePoint,
    TorsionCheckFailed,
    eval_z,
    fixed_exp,
    fixed_expjpi,
    fixed_mul,
    fixed_pi,
    fixed_qabs,
    fixed_sqrt3,
    fricke_constant,
    gauss_sum,
    l_value_and_cusp_zero,
    lattice_of_curve,
    fixed_of,
    principal_root,
    recognize_eisenstein,
    reduce_xi,
    site_terms,
    terms_needed,
    wp_eval,
)
from cubesum.cmpoint import eval_site
from cubesum.eisenstein import EisensteinInt, QOmega, cubic_char_table, split_prime
from cubesum.heckeform import (
    HeckeForm,
    as_eisenstein,
    build_form,
    conductor_and_level,
    nebentypus,
    newform_pairs,
)

from mp_helpers import exact_site, fixed_to_mpc, mpc_to_fixed, wp_laurent_coefficients

rng = random.Random(424242)


def omega_mpc():
    """w = (-1 + i sqrt(3))/2 at the current working precision."""
    return mp.mpc(mp.mpf(-1) / 2, mp.sqrt(3) / 2)


def lattice_omega(L):
    """Omega of the lattice L, as an mpc at L's W."""
    with mp.workprec(L.W):
        return 1 / fixed_to_mpc(L.inv, L.W)


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
        zz = mp.mpc(z) / lattice_omega(L)
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
        wp = twopii**2 * s / lattice_omega(L)**2
        wpd = twopii**3 * sd / lattice_omega(L)**3
        return wp, wpd


def wp_mpc(L, z, prec):
    """wp_eval with an mpc z and mpc results, converted at the boundary."""
    W = prec + GUARD_BITS
    with mp.workprec(W):
        return tuple(fixed_to_mpc(v, W) for v in wp_eval(L, mpc_to_fixed(z, W)))


def z_mpc(form, tau, prec):
    """eval_z's (z, z^c) at the mpc tau, read exactly, as mpc."""
    W = prec + GUARD_BITS
    with mp.workprec(W):
        return tuple(fixed_to_mpc(v, W) for v in eval_z(form, exact_site(tau), prec))


def contains(L, z, tol_bits):
    return L.contains(mpc_to_fixed(z, L.W), tol_bits)


def from_coords(L, m, n):
    """The lattice point Omega (m + n w), as an mpc."""
    with mp.workprec(L.W):
        return lattice_omega(L) * (m + n * omega_mpc())


def reduce_xi_mp(xi):
    """(r, (m, n)) with xi = r + m + n w and r in the Voronoi cell of 0, in
    mpmath: the reduction of earlier versions, kept for the oracle."""
    s3 = mp.sqrt(3)
    y = 2 * xi.imag / s3
    x = xi.real + y / 2
    m, n = int(mp.nint(x)), int(mp.nint(y))
    fx, fy = float(x - m), float(y - n)
    dm, dn = min(
        analytic._VORONOI_STEPS,
        key=lambda d: (fx - d[0]) ** 2 - (fx - d[0]) * (fy - d[1]) + (fy - d[1]) ** 2,
    )
    m, n = m + dm, n + dn
    return mp.mpc(xi.real - m + mp.mpf(n) / 2, xi.imag - n * s3 / 2), (m, n)


def wp_oracle(L, z, prec, extra=64):
    """(wp(z), wp'(z)) in mpmath at prec + extra bits, on the lattice whose
    Omega^-1 is exactly L.inv: the mpmath wp_eval of earlier versions
    (reduction, halving, Horner over the base lattice's integers at the
    finer precision, duplication and rescale in mpc), the oracle of the
    fixed-point wp_eval.  Returns the reduced xi as well, before halving."""
    P = prec + extra
    _, C = analytic._base_lattice(P)
    W = P + GUARD_BITS
    with mp.workprec(W):
        Omega = 1 / fixed_to_mpc(L.inv, L.W)
        xi, _ = reduce_xi_mp(mp.mpc(z) / Omega)
        r = xi
        if abs(xi) < mp.mpf(2) ** (-(prec // 2)):
            raise PoleAtLatticePoint(f"z = {z} lies on the lattice")
        halve = abs(xi) > mp.mpf(SERIES_RADIUS.numerator) / SERIES_RADIUS.denominator
        if halve:
            xi = xi / 2
        xi2 = xi * xi
        xi3 = xi2 * xi
        t = xi3 * xi3
        tr, ti = to_fixed(t.real._mpf_, W), to_fixed(t.imag._mpf_, W)
        sr = si = dr = di = 0
        for k in reversed(range(len(C))):
            c = C[k]
            sr, si = ((sr * tr - si * ti) >> W) + c, (sr * ti + si * tr) >> W
            dr, di = ((dr * tr - di * ti) >> W) + (6 * k + 4) * c, (dr * ti + di * tr) >> W
        s = mp.mpc(mp.ldexp(sr, -W), mp.ldexp(si, -W))
        sd = mp.mpc(mp.ldexp(dr, -W), mp.ldexp(di, -W))
        wp = 1 / xi2 + s * xi2 * xi2
        wpd = -2 / xi3 + sd * xi3
        if halve:
            lam = 3 * wp * wp / wpd
            wp2 = lam * lam - 2 * wp
            wp, wpd = wp2, 2 * lam * (wp - wp2) - wpd
        O2 = Omega * Omega
        return wp / O2, wpd / (O2 * Omega), r


def random_z(L, lo=0.05, hi=1.4):
    t = rng.uniform(lo, hi)
    ang = rng.uniform(0, 6.28)
    with mp.workprec(L.prec + GUARD_BITS):
        return lattice_omega(L) * t * mp.e ** (1j * mp.mpf(ang))


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
        ratio = lattice_omega(L2) / lattice_omega(L1) / 2
        assert abs(ratio**6 - 1) < mp.mpf(2) ** -100
        # unit * D gives the identical lattice data
        L3 = lattice_of_curve(EisensteinInt(0, 1) ** 6 * D, prec)
        assert abs(lattice_omega(L3) - lattice_omega(L1)) < mp.mpf(2) ** -100


@pytest.mark.parametrize("p, i, prec", [(7, 1, 64), (103, 2, 192), (409, 2, 768)])
def test_conjugate_curve_has_the_conjugate_lattice(p, i, prec):
    # an attempt takes f^c's lattice as the conjugate of f's
    split = split_prime(p)
    L = lattice_of_curve(split.pibar ** (2 * i), prec)
    Lc = lattice_of_curve(split.pi ** (2 * i), prec)
    assert all(abs(a - b) <= 2 for a, b in zip(L.conj().inv, Lc.inv))


def _mpmath_root(x, n, W, scale=None):
    """mpmath's principal n-th root of x 2^W / scale (of x when scale is
    None), taken 64 bits finer and floored at W: the oracle of
    principal_root, and the formula lattice_of_curve and the twist's cube
    root used."""
    with mp.workprec(W + 64):
        a = x.to_mpc(mp) if scale is None else x.to_mpc(mp) * mp.ldexp(1, W) / scale
        return mpc_to_fixed(mp.root(a, n), W)


def _root_cases(prec):
    """(x, n, scale) radicands of lattice_of_curve (-D, 6, g3) and of an
    attempt's twist (pi^(2i), 3, None), and synthetic ones."""
    g3 = analytic._base_lattice(prec)[0]
    cases = [(-(split_prime(7).pibar ** 2), 6, g3)]  # 7^1's lattice: |-D/g3| near 2^-7
    for p, i in ((103, 2), (1993, 2)):
        s = split_prime(p)
        cases += [(-(s.pibar ** (2 * i)), 6, g3), (s.pi ** (2 * i), 3, None), (s.pibar ** (2 * i), 3, None)]
    cases.append((-EisensteinInt(-(2**68), 2**68), 6, g3))  # |D| = 2^68 sqrt(3), near 2^69
    # x = -2 + B 2^-100 w: within 2^-100 of the negative real axis, above
    # it, below it and on it
    cases += [(QOmega.from_ints(-(2 << 100), B, 1 << 100), n, None) for B in (1, -1, 0) for n in (3, 6)]
    return cases


@pytest.mark.parametrize("prec", [2, 64, 96, 192, 768, 3072])
def test_principal_root_matches_mpmath(prec):
    W = prec + GUARD_BITS
    for x, n, scale in _root_cases(prec):
        got, want = principal_root(x, n, W, scale), _mpmath_root(x, n, W, scale)
        assert abs(got[0] - want[0]) <= 1 and abs(got[1] - want[1]) <= 1, (prec, x, n)
        if x == QOmega.from_ints(-(2 << 100), -1, 1 << 100):
            assert got[1] < 0  # the branch below the axis
    D = split_prime(7).pibar ** 2
    want = _mpmath_root(-D, 6, W, analytic._base_lattice(prec)[0])
    assert all(abs(a - b) <= 1 for a, b in zip(lattice_of_curve(D, prec).inv, want))


def test_wp_satisfies_curve_equation():
    prec = 192
    D = split_prime(7).pibar ** 2
    L = lattice_of_curve(D, prec)
    with mp.workprec(prec + GUARD_BITS):
        Dc = D.to_mpc(mp)
        for _ in range(20):
            z = random_z(L)
            if L.residual(mpc_to_fixed(z, L.W)) < (1 << L.W) // 20:
                continue
            wp, wpd = wp_mpc(L, z, prec)
            res = abs(wpd**2 - 4 * wp**3 - Dc)
            assert res < mp.mpf(2) ** (-(prec - 32)) * max(1, abs(wp) ** 3)


@pytest.mark.parametrize("prec", [160, 192, 384, 768, 3072])
def test_wp_matches_lattice_sum_oracle(prec):
    # the series length is fixed per precision, so each rung is checked
    L = lattice_of_curve(EisensteinInt(5, 1), prec)
    with mp.workprec(prec + 64):
        tol = mp.mpf(2) ** -(prec - 64)
        for frac in (0.1, 0.22, 0.34, 0.4, 0.55):  # series to its radius, halving
            z = lattice_omega(L) * frac * mp.e ** (1j * mp.mpf(0.77))
            wp, wpd = wp_mpc(L, z, prec)
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
                    r, _ = reduce_xi(mpc_to_fixed(xi, L.W), L.W)
                    assert abs(fixed_to_mpc(r, L.W)) <= bound
                    z = lattice_omega(L) * xi
                    wp, wpd = wp_mpc(L, z, prec)
                    owp, owpd = wp_lattice_sum(L, z, prec)
                    assert abs(wp - owp) < tol * max(1, abs(owp))
                    assert abs(wpd - owpd) < tol * max(1, abs(owpd))


_ORACLE_CURVES = [split_prime(7).pibar ** 2, EisensteinInt(5, 1), split_prime(103).pibar ** 4]
_HALF_PERIODS = [(1, 0), (0, 1), (1, 1)]  # twice the 2-torsion points of Z[w]


def _xi_case(kind, prec, draw):
    """A point xi (mpc) of one kind, translated by a random lattice point."""
    w = omega_mpc()
    u = st.floats(0, 1)
    angle = 2 * mp.pi * draw(u)
    if kind == "edge":  # within 2^-20 .. 2^-60 of an edge of the Voronoi cell
        unit = w ** draw(st.integers(0, 2)) * draw(st.sampled_from([1, -1]))
        off = mp.mpf(2) ** -draw(st.integers(20, 60)) * draw(st.sampled_from([1, -1]))
        along = (2 * draw(u) - 1) / (2 * mp.sqrt(3))
        xi = unit * (mp.mpf(1) / 2 + off + mp.mpc(0, along))
    elif kind == "halving":  # SERIES_RADIUS < |xi| < 1/sqrt(3)
        R = mp.mpf(SERIES_RADIUS.numerator) / SERIES_RADIUS.denominator
        xi = (R + (mp.mpf(0.577) - R) * draw(u)) * mp.expj(angle)
    elif kind == "two-torsion":  # wp' near 0: the duplication cancels
        m, n = draw(st.sampled_from(_HALF_PERIODS))
        xi = (m + n * w) / 2 + mp.mpf(2) ** -draw(st.integers(4, 40)) * mp.expj(angle)
    else:  # the series alone, down to just above the pole threshold
        xi = mp.mpf(2) ** -draw(st.integers(2, prec // 2 - 2)) * (1 + draw(u)) * mp.expj(angle)
    return xi + draw(st.integers(-5, 5)) + draw(st.integers(-5, 5)) * w


@settings(max_examples=80, deadline=None)
@given(
    prec=st.sampled_from([64, 192, 768, 3072]),
    D=st.sampled_from(_ORACLE_CURVES),
    kind=st.sampled_from(["edge", "halving", "two-torsion", "series", "pole"]),
    data=st.data(),
)
def test_fixed_point_wp_matches_the_mpmath_oracle(prec, D, kind, data):
    # wp_eval against the mpmath wp 64 bits finer, on the same z and the same
    # lattice, within the bound of wp_eval's docstring: 2^14 (1 + |z|) Y^3
    # |r|^-4 units of 2^-W, Y = max(1, |Omega|^-1) and r the reduced xi; a
    # lattice point plus noise under 2^-(prec/2) (in xi) is a pole
    L = lattice_of_curve(D, prec)
    W = L.W
    with mp.workprec(W + 96):
        Omega = 1 / fixed_to_mpc(L.inv, W)
        if kind == "pole":
            m, n = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
            noise = mp.mpf(2) ** -(prec // 2 + data.draw(st.integers(2, 40)))
            xi = m + n * omega_mpc() + noise * mp.expj(2 * mp.pi * data.draw(st.floats(0, 1)))
            with pytest.raises(PoleAtLatticePoint):
                wp_eval(L, mpc_to_fixed(Omega * xi, W))
            return
        z = mpc_to_fixed(Omega * _xi_case(kind, prec, data.draw), W)
        got = wp_eval(L, z)
        zc = fixed_to_mpc(z, W)
        owp, owpd, r = wp_oracle(L, zc, prec)
        bound = 2**14 * (1 + abs(zc)) * max(1, 1 / abs(Omega)) ** 3 / abs(r) ** 4 * mp.mpf(2) ** -W
        assert abs(fixed_to_mpc(got[0], W) - owp) < bound
        assert abs(fixed_to_mpc(got[1], W) - owpd) < bound


@pytest.mark.parametrize("prec", [64, 192, 768])
def test_base_lattice_holds_g3_within_one_unit(monkeypatch, prec):
    # g3 at W = prec + GUARD_BITS against the same sums 256 bits finer
    monkeypatch.setattr(analytic, "_base_cache", {})
    g3 = analytic._base_lattice(prec)[0]
    assert abs(g3 - (analytic._base_lattice(prec + 256)[0] >> 256)) <= 1


def test_laurent_coefficients_once_per_precision(monkeypatch):
    # every lattice rescales the one base lattice Z[w]: its coefficients are
    # computed once per precision, whatever the curve
    calls, real = [], analytic.wp_laurent_fixed

    def counting(g3, count, B):
        calls.append(count)
        return real(g3, count, B)

    monkeypatch.setattr(analytic, "_base_cache", {})
    monkeypatch.setattr(analytic, "wp_laurent_fixed", counting)
    for prec, total in ((192, 1), (256, 2)):
        for D in (EisensteinInt(5, 1), split_prime(7).pibar ** 2):
            L = lattice_of_curve(D, prec)
            with mp.workprec(prec + GUARD_BITS):
                wp_mpc(L, lattice_omega(L) * mp.mpc(0.3, 0.2), prec)
        assert len(calls) == total


def _mpmath_base_lattice(prec, extra=96):
    """(g3, C) of _base_lattice from mpmath at W + extra bits, each rounded
    to the nearest integer at W: the mpmath _base_lattice of earlier
    versions, which summed at W + 16 bits and so left C[k] off by 1 or 2
    units, here with the sums run long enough for the wider precision."""
    W = prec + GUARD_BITS
    with mp.workprec(W + extra):
        qabs = mp.e ** (-mp.pi * mp.sqrt(3))
        nmax = int((prec + 48 + extra) * math.log(2) / (mp.pi * math.sqrt(3))) + 8
        sigma5 = [0] * (nmax + 1)
        for d in range(1, nmax + 1):
            for m in range(d, nmax + 1, d):
                sigma5[m] += d**5
        e6, qn = mp.mpf(1), mp.mpf(1)
        for n in range(1, nmax + 1):
            qn = qn * (-qabs)
            e6 -= 504 * sigma5[n] * qn
        g3 = 140 * 2 * (mp.pi**6 / 945) * e6
        kmax = int((prec + 48) / (-6 * math.log2(SERIES_RADIUS))) + 6
        G = wp_laurent_coefficients(g3, kmax)
        C = [int(mp.nint(mp.ldexp((6 * k + 5) * g, W))) for k, g in enumerate(G)]
        return int(mp.nint(mp.ldexp(g3, W))), C


@pytest.mark.parametrize("prec", [48, 96, 192, 384, 768, 1536, 3072, 2, 7, 100, 3200])
def test_base_lattice_is_the_mpmath_oracle_integer_for_integer(monkeypatch, prec):
    # every rung of the default ladders, the narrowest and an odd few: g3 and
    # every C[k] equal the oracle's, with no unit to spare
    monkeypatch.setattr(analytic, "_base_cache", {})
    assert analytic._base_lattice(prec) == _mpmath_base_lattice(prec)


def _units_off(got, exact, W):
    """|got - exact 2^W| in units of 2^-W, exact an mpf (or mpc component)."""
    return abs(got - mp.ldexp(exact, W))


@settings(max_examples=60, deadline=None)
@given(W=st.integers(64, 3200))
def test_fixed_pi_is_within_its_bound(W):
    with mp.workprec(W + 64):
        assert _units_off(fixed_pi(W), mp.pi, W) < 1 + mp.mpf(2) ** -8


# arguments at W: from 0 and a few units, through the sizes of |log q| at
# the solve sites, to well past the base lattice's pi sqrt(3)
_ARG_SCALE = st.sampled_from([-3200, -200, -40, -8, -3, -1, 0, 1, 2, 3])


@settings(max_examples=80, deadline=None)
@given(W=st.integers(64, 3200), scale=_ARG_SCALE, frac=st.floats(0, 1))
def test_fixed_exp_of_a_negative_real_is_within_its_bound(W, scale, frac):
    x = int(frac * 2**53) << max(W + scale - 53, 0) >> max(53 - W - scale, 0)
    got = fixed_exp((-x, 0), W)
    with mp.workprec(W + 64):
        assert got[1] == 0
        assert _units_off(got[0], mp.exp(-mp.ldexp(x, -W)), W) < 1 + mp.mpf(2) ** -8


@settings(max_examples=80, deadline=None)
@given(W=st.integers(64, 3200), scale=_ARG_SCALE, frac=st.floats(-1, 1))
def test_fixed_exp_of_an_imaginary_is_within_its_bound(W, scale, frac):
    t = int(abs(frac) * 2**53) << max(W + scale - 53, 0) >> max(53 - W - scale, 0)
    t = -t if frac < 0 else t
    got = fixed_exp((0, t), W)
    with mp.workprec(W + 64):
        want = mp.expj(mp.ldexp(t, -W))
        for g, w in zip(got, (want.real, want.imag)):
            assert _units_off(g, w, W) < 1 + mp.mpf(2) ** -8


@settings(max_examples=80, deadline=None)
@given(W=st.integers(64, 3200), b=st.integers(1, 10**6), frac=st.floats(-4, 4))
@example(W=64, b=6, frac=1 / 6)  # sin(pi/6) = 1/2 exactly
@example(W=64, b=3, frac=-1 / 3)  # cos(pi/3) = 1/2, reduced to -pi/6
@example(W=100, b=4, frac=3 / 4)  # f = -1/4, the edge of the reduction
@example(W=3200, b=2, frac=-3 / 2)  # a multiple of pi/2
def test_fixed_expjpi_is_within_its_bound(W, b, frac):
    # e^(pi i a/b) on every quadrant, the multiples of pi/2 and pi/6 included
    a = round(frac * b)
    got = fixed_expjpi(a, b, W)
    with mp.workprec(W + 64):
        want = mp.expjpi(mp.mpf(a) / b)
        for g, w in zip(got, (want.real, want.imag)):
            assert _units_off(g, w, W) < 1 + mp.mpf(2) ** -10


@settings(max_examples=60, deadline=None)
@given(
    W=st.integers(64, 3200),
    s=st.sampled_from([1, 2, 3, 5, 117, 189, 279]),
    den=st.integers(2, 10**7),
    frac=st.floats(0, 1),
)
def test_fixed_qabs_is_within_its_bound(W, s, den, frac):
    num = int(frac * den * math.sqrt(3 / (4 * s)))  # num sqrt(s)/den <= sqrt(3)/2
    with mp.workprec(W + 64):
        want = mp.exp(-2 * mp.pi * mp.sqrt(s) * mp.mpf(num) / den)
        assert _units_off(fixed_qabs(s, num, den, W), want, W) < 1 + mp.mpf(2) ** -9


@pytest.mark.parametrize("W", [64, 192, 1000, 3104])
@pytest.mark.parametrize("p, i", [(7, 1), (13, 1), (31, 1), (7, 2), (13, 2)])
def test_fixed_qabs_at_the_fricke_sites(p, i, W):
    # |q| at tau0 = i/sqrt(N), 2 tau0 and tau0/2: Im tau = a sqrt(N)/d
    _, N = conductor_and_level(p, i)
    for a, d in ((1, N), (2, N), (1, 2 * N)):
        with mp.workprec(W + 64):
            want = mp.exp(-2 * mp.pi * a * mp.sqrt(N) / d)
            assert _units_off(fixed_qabs(N, a, d, W), want, W) < 1 + mp.mpf(2) ** -9


def test_wp_parity_and_cm_rotation():
    prec = 128
    L = lattice_of_curve(EisensteinInt(1, 0), prec)
    with mp.workprec(prec + GUARD_BITS):
        w = omega_mpc()
        for _ in range(10):
            z = random_z(L, 0.1, 0.9)
            wp, wpd = wp_mpc(L, z, prec)
            wpm, wpdm = wp_mpc(L, -z, prec)
            assert abs(wp - wpm) < mp.mpf(2) ** -96 * max(1, abs(wp))
            assert abs(wpd + wpdm) < mp.mpf(2) ** -96 * max(1, abs(wpd))
            wpw, wpdw = wp_mpc(L, w * z, prec)
            # homogeneity with lambda = w and wL = L
            assert abs(wpw - w * wp) < mp.mpf(2) ** -90 * max(1, abs(wp))
            assert abs(wpdw - wpd) < mp.mpf(2) ** -90 * max(1, abs(wpd))


def test_wp_pole_and_periodicity():
    prec = 128
    L = lattice_of_curve(EisensteinInt(3, 5), prec)
    with pytest.raises(PoleAtLatticePoint):
        wp_mpc(L, from_coords(L, 2, -1), prec)
    with mp.workprec(prec + GUARD_BITS):
        z = random_z(L, 0.2, 0.45)
        wp1, wpd1 = wp_mpc(L, z, prec)
        wp2, wpd2 = wp_mpc(L, z + from_coords(L, 3, 1), prec)
        assert abs(wp1 - wp2) < mp.mpf(2) ** -96 * max(1, abs(wp1))
        assert abs(wpd1 - wpd2) < mp.mpf(2) ** -96 * max(1, abs(wpd1))


def test_reduce_gives_minimal_norm():
    prec = 96
    L = lattice_of_curve(EisensteinInt(2, 0), prec)
    with mp.workprec(prec + GUARD_BITS):
        w = omega_mpc()
        for _ in range(50):
            xi = random_z(L, 0.0, 3.0) / lattice_omega(L)
            r, (m, n) = reduce_xi(mpc_to_fixed(xi, L.W), L.W)
            r = fixed_to_mpc(r, L.W)
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


# the CM sites W(tau_r) of 13^1 (N = 9p) and 7^1 (N = 27p), where the
# kernel sums p real columns in the powers of q^(3p)
CM_SITES = [(13, 1), (7, 1)]


# Off the CM sites the test reads tau exactly, as the dyadic rationals its
# mpfs are (exact_site), and at p = 31 the kernel takes L = the multiple of
# l = lcm(den(6 Re(tau)), 31) nearest isqrt(K), at least l, or K (one row)
# where that reaches K: 3/7, 2/9 and -200/189 have long mantissas (L = K,
# one row of K columns); 3/8
# has den = 4 and l = 124, so one row up to K = 124, and L = 124 at 192 and
# 3072 bits (K = 780 and 12153), with X = q^372 < 0 (6 L Re(tau) = 279 is
# odd); 0, the shape of the Fricke sites, has den = 1 and l = 31, so one
# row up to K = 31, and L = 31 at 192 bits and 62 at 768 (K = 3055).
def _site_and_tau(cm, re, im):
    """(site, its mpc value): the CM site of cm = (p, i), or else the mpc
    with real part re (a fraction string, rounded to the working precision)
    and imaginary part im, and its exact site."""
    if cm is None:
        r = Fraction(re)
        tau = mp.mpc(mp.mpf(r.numerator) / r.denominator, im)
        return exact_site(tau), tau
    site = eval_site(*cm)
    return site, site.to_mpc(mp)


# the unlabelled precisions are at Re(tau) = 3/7, but 3072 bits at 3/8
@pytest.mark.parametrize(
    "prec, cm, re",
    [(prec, None, "3/7") for prec in (192, 384, 768)]
    + [(3072, None, "3/8")]
    + [(192, None, re) for re in ("-200/189", "3/8", "0")]
    + [(768, None, "0")]
    + [(prec, cm, None) for cm in CM_SITES for prec in (192, 768)],
    ids=["192", "384", "768", "3072", "-200/189-192", "3/8-192", "0-192", "0-768"]
    + ["13^1-192", "13^1-768", "7^1-192", "7^1-768"],
)
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True)])
def test_kernel_matches_mpmath_oracle_for_f_and_fc(prec, cm, re, evaluate, divide_by_n):
    # the height of 31's wtau sites, with a real part of its own, or a CM
    # site with its own form
    p, i = cm or (31, 1)
    _, N = conductor_and_level(p, i)
    with mp.workprec(prec + GUARD_BITS):
        site, tau = _site_and_tau(cm, re, mp.mpf(3) / (2 * N) * mp.sqrt(3))
        M = terms_needed(tau.imag, prec)
        f = build_form(p, i, M)
        got_f, got_fc = (fixed_to_mpc(v, prec + GUARD_BITS) for v in evaluate(f, site, prec))
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein(f.pairs(), f.terms)
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        assert abs(got_f - want_f) < mp.mpf(2) ** (-prec)
        assert abs(got_fc - want_fc) < mp.mpf(2) ** (-prec)
        if cm is None:
            assert abs(got_f - got_fc) > 1e-3  # f and f^c are distinct sums


# Step counts K = ceil(M/3) = 1, 2, 48 = 6 * 8, 49 = 7^2, 50 and the prime
# 97; the kernel sums L columns in blocks of B = isqrt(L).  At Re(tau) =
# 2/9 (the unlabelled cases) and at 3/8, L = K, one row: one column, two,
# full blocks of 6 and of 7 columns, and ragged last blocks (50 = 7 * 7 +
# 1, 97 = 9 * 10 + 7).  3/8 at M = 748 (K = 250) has L = 124 (11 blocks of
# 11 and one of 3) and rows of 124, 124 and 2.  At 0, K = 1 and 2 give L =
# K, and K = 48, 49, 50 and 97 give L = 31 (6 blocks of 5 and one of 1):
# rows of 31 and 17, 18 or 19, and of 31, 31, 31 and 4.  At a CM site L =
# p: K = p - 1, p, p + 1 and 2p give one short row (L capped at K), one
# full row, a second row of one term, and two full rows.
BLOCK_EDGE_MS = (1, 6, 142, 147, 148, 289)


@pytest.mark.parametrize(
    "M, cm, re",
    [(M, None, "2/9") for M in BLOCK_EDGE_MS]
    + [(M, None, re) for re in ("3/8", "0") for M in BLOCK_EDGE_MS]
    + [(748, None, "3/8")]
    + [(3 * K - 2, (p, 1), None) for p, _ in CM_SITES for K in (p - 1, p, p + 1, 2 * p)],
    ids=[str(M) for M in BLOCK_EDGE_MS]
    + [f"{re}-{M}" for re in ("3/8", "0") for M in BLOCK_EDGE_MS]
    + ["3/8-748"]
    + [f"{p}^1-K={K}" for p, _ in CM_SITES for K in (p - 1, p, p + 1, 2 * p)],
)
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True)])
def test_kernel_block_edges(monkeypatch, M, cm, re, evaluate, divide_by_n):
    prec = 192
    monkeypatch.setattr(analytic, "terms_needed", lambda im_tau, prec: M)
    p, i = cm or (31, 1)
    f = build_form(p, i, M)
    # every column holds one residue of n mod p, at every site: the store is
    # spread only at the slots of m < K/p + 1, for the columns p | n
    # (spied on the class: a HeckeForm has slots, no instance dict)
    pairs, unspied, stops = f.pairs, HeckeForm.pairs, []
    monkeypatch.setattr(HeckeForm, "pairs", lambda self, stop=None: stops.append(stop) or unspied(self, stop))
    with mp.workprec(prec + GUARD_BITS):
        site, tau = _site_and_tau(cm, re, mp.mpf(1) / 40)
        got_f, got_fc = (fixed_to_mpc(v, prec + GUARD_BITS) for v in evaluate(f, site, prec))
        assert stops and None not in stops
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein(pairs(), f.terms)
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        assert abs(got_f - want_f) < mp.mpf(2) ** (-prec)
        assert abs(got_fc - want_fc) < mp.mpf(2) ** (-prec)


@pytest.mark.parametrize(
    "prec, im_tau, cm",
    [(192, 0.0004, None), (768, 0.0016, None), (192, None, (13, 1)), (768, None, (7, 1))],
    ids=["192-0.0004", "768-0.0016", "13^1-192", "7^1-768"],
)
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True)])
def test_kernel_keeps_its_guard_bits(prec, im_tau, cm, evaluate, divide_by_n):
    # the sums come back at prec + GUARD_BITS: over about 55000 terms (or
    # at a CM site, over its own form), and against an oracle 64 bits
    # finer, they hold to that up to a few roundings of the final mpc sums
    p, i = cm or (31, 1)
    with mp.workprec(prec + GUARD_BITS):
        site, tau = _site_and_tau(cm, "3/7", im_tau)
        M = terms_needed(tau.imag, prec)
        f = build_form(p, i, M)
        got_f, got_fc = (fixed_to_mpc(v, prec + GUARD_BITS) for v in evaluate(f, site, prec))
    with mp.workprec(prec + 64):
        if cm:
            tau = site.to_mpc(mp)
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein(f.pairs(), f.terms)
        want_f = _sum_form_oracle(a, q, M, divide_by_n)
        want_fc = _sum_form_oracle([c.conj() for c in a], q, M, divide_by_n)
        tol = mp.mpf(2) ** -(prec + GUARD_BITS - 3)
        assert abs(got_f - want_f) < tol * max(1, abs(want_f))
        assert abs(got_fc - want_fc) < tol * max(1, abs(want_fc))


# sha256 of repr(eval_z(form, site, prec)) at the solve site of (p, i), as
# the kernel that summed both coordinates of every a_n gave it: N = 9p and
# 27p, 96 to 3072 bits.  The last three, as the column-by-column unit sums
# gave them, are the timed 96-bit solves' shape: L = p columns of 14 rows
# (409^1, N = 9p) and of about 40 rows (223^1 and 439^1, N = 27p)
EVAL_Z_DIGESTS = {
    (103, 1, 96): "5e47cc38fa4042b74a4a488e73e872b1fe59ad136e404c552a6a2c7b899611a3",
    (409, 1, 192): "e1398a699aefccfb89a87b02fcd062ed89196ffb69bc21d84c5319db7ac471f4",
    (61, 2, 192): "78c95f6059c85e7b3275c9bec149ad52c554f1cfb881b166395748c8727be96e",
    (67, 2, 96): "c15920ff802216bd89e1f09455aae51d3a1c3beb0fcd0fe9e1b8180dedd29513",
    (97, 2, 384): "903df16debb7acb4ddbda04acaf7bcfb9d1a1d3295a462bce7068538c0dfe8e1",
    (31, 2, 768): "e4f13e3a2a1f3d5c2379dfbe69d47d5668f496e7479e6cc657dcc431ede198af",
    (7, 1, 1536): "93fc5f547eae36290db04501f937f164d4a7d815115ec4eb5609a9f151c11205",
    (13, 2, 3072): "1ddec16f07e2d0e806175cb20f8ae4a7a5bac08f7eacec37d0c8cc9802c9d1a6",
    (409, 1, 96): "b2b9971a3e06ca6e08ee3c6fd9f543348a686f9fb565020b51287789008ac24b",
    (223, 1, 96): "1a1f318f16920ea655dd51fe2d2e4244e6953b57e8040911699ccb48b1a46ca0",
    (439, 1, 96): "f59dad4c2a2ea151df6558dc7e94f4417bcad8a3c07bec8e94a21f35af3c9e97",
}


# the M each digest was taken at: terms_needed's M under its first tail
# bound, sqrt(3) |q|^(M+1) / (1 - |q|) from sigma_0(n) <= sqrt(3n)
EVAL_Z_DIGEST_TERMS = {
    (103, 1, 96): 4047,
    (409, 1, 192): 31363,
    (61, 2, 192): 4620,
    (67, 2, 96): 7965,
    (97, 2, 384): 14485,
    (31, 2, 768): 27533,
    (7, 1, 1536): 12369,
    (13, 2, 3072): 45871,
    (409, 1, 96): 16358,
    (223, 1, 96): 26934,
    (439, 1, 96): 53506,
}

# terms_needed's M at the same sites under the ideal-count tail bound
SITE_TERMS = {
    (103, 1, 96): 3852,
    (409, 1, 192): 30469,
    (61, 2, 192): 4504,
    (67, 2, 96): 7564,
    (97, 2, 384): 14283,
    (31, 2, 768): 27332,
    (7, 1, 1536): 12327,
    (13, 2, 3072): 45784,
    (409, 1, 96): 15502,
    (223, 1, 96): 25487,
    (439, 1, 96): 50533,
}


@pytest.mark.parametrize("p, i, prec", sorted(EVAL_Z_DIGESTS))
def test_eval_z_at_solve_sites_reproduces_the_pair_kernel(monkeypatch, p, i, prec):
    # one product per term in the unit columns, pibar a_m in the columns
    # p | n: the same integers, bit for bit, over the digest's M terms
    M = EVAL_Z_DIGEST_TERMS[p, i, prec]
    monkeypatch.setattr(analytic, "site_terms", lambda site, prec: M)
    site = eval_site(p, i)
    f = build_form(p, i, M)
    z = eval_z(f, site, prec)
    assert hashlib.sha256(repr(z).encode()).hexdigest() == EVAL_Z_DIGESTS[p, i, prec]


@pytest.mark.parametrize("p, i, prec", sorted(SITE_TERMS))
def test_site_terms_are_pinned_and_at_most_the_digest_terms(p, i, prec):
    M = site_terms(eval_site(p, i), prec)
    assert M == SITE_TERMS[p, i, prec]
    assert M <= EVAL_Z_DIGEST_TERMS[p, i, prec]


def test_eval_z_period_and_third_shift():
    prec = 96
    f = build_form(7, 1, terms_needed(0.05, prec))
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(0.31, 0.05)
        z1 = z_mpc(f, tau, prec)[0]
        z2 = z_mpc(f, tau + 1, prec)[0]
        assert abs(z1 - z2) < mp.mpf(2) ** -80
        # a_n supported on n = 1 mod 3 makes tau -> tau + 1/3 act by w
        z3 = z_mpc(f, tau + mp.mpf(1) / 3, prec)[0]
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
        a, ac = z_mpc(f1, tau, prec)
        a2 = as_eisenstein(f2.pairs(), f2.terms)
        b = _sum_form_oracle(a2, q, 2 * M, divide_by_n=True)
        bc = _sum_form_oracle([c.conj() for c in a2], q, 2 * M, divide_by_n=True)
        assert abs(a - b) < mp.mpf(2) ** (-prec)
        assert abs(ac - bc) < mp.mpf(2) ** (-prec)


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
            z1 = z_mpc(f, tau, prec)[0]
            z2 = z_mpc(f, gtau, prec)[0]
            assert contains(L, z2 - z1, prec // 2), f"gamma #{k}: period off lattice"


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
            z1 = z_mpc(f, tau, prec)[0]
            z2 = z_mpc(f, gtau, prec)[0]
            assert contains(L, z2 - z1, prec // 2)


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
            z1 = z_mpc(f, tau, prec)[0]
            z2 = z_mpc(f, gtau, prec)[0]
            assert contains(L, z2 - xi * z1, prec // 2)


# ----------------------------------------------------- Fricke and L-value


def test_fricke_constant_unit_modulus_and_sixth_power():
    for p, i in ((7, 1), (13, 1), (31, 1)):
        prec = 160
        s = split_prime(p)
        with mp.workprec(prec + GUARD_BITS):
            C = fixed_to_mpc(fricke_constant(p, i, prec), prec + GUARD_BITS)
            assert abs(abs(C) - 1) < mp.mpf(2) ** -80
            target = (s.pi.to_mpc(mp) / s.pibar.to_mpc(mp)) ** (2 * i)
            assert min(abs(C**6 - target), abs(C**6 - target.conjugate())) < mp.mpf(2) ** -80


def _re6(x):
    """re6 of a site with Re(tau) = x, a Fraction."""
    return (6 * x).numerator, (6 * x).denominator


def test_fricke_constant_site_independent():
    # C from the sites tau0 and at = x + i y/sqrt(N) off the fixed point:
    # W at = -1/(N at) = (-x + i y/sqrt(N))/n with n = N x^2 + y^2, so both
    # are exact sites, Im = a sqrt(N)/d
    prec = 128
    W = prec + GUARD_BITS
    _, N = conductor_and_level(13, 1)
    x, y = Fraction(1, 100), Fraction(117, 100)
    n = N * x * x + y * y
    tau0 = analytic.Site((0, 1), (N, 1, N))
    at = analytic.Site(_re6(x), (N, y.numerator, N * y.denominator))
    im = y / (N * n)
    w_at = analytic.Site(_re6(-x / n), (N, im.numerator, im.denominator))
    f = build_form(13, 1, max(site_terms(t, prec) for t in (tau0, at, w_at)))
    z_f, z_fc = eval_z(f, tau0, prec)
    z_wa, z_a = eval_z(f, w_at, prec)[0], eval_z(f, at, prec)[1]
    C2 = analytic.fixed_div((z_f[0] - z_wa[0], z_f[1] - z_wa[1]), (z_fc[0] - z_a[0], z_fc[1] - z_a[1]), W)
    C1 = fricke_constant(13, 1, prec)
    assert (C1[0] - C2[0]) ** 2 + (C1[1] - C2[1]) ** 2 < 1 << 2 * (W - 80)


@pytest.mark.parametrize("p, i", [(7, 1), (13, 1), (31, 1), (7, 2)])
def test_fricke_constant_satisfies_the_f_identity(p, i):
    # C comes from z alone; the identity it stands for, f(-1/(N tau)) =
    # C N tau^2 f^c(tau), is checked on the plain f-sums of the oracle at a
    # site off the imaginary axis
    prec = 160
    _, N = conductor_and_level(p, i)
    C = fricke_constant(p, i, prec)
    with mp.workprec(prec + GUARD_BITS):
        C = fixed_to_mpc(C, prec + GUARD_BITS)
        tau = mp.mpc(0.1, 1.3) / mp.sqrt(N)
        wtau = -1 / (N * tau)
        M = terms_needed(min(tau.imag, wtau.imag), prec)
        f = build_form(p, i, M)
        a = as_eisenstein(f.pairs(), f.terms)
        f_w = _sum_form_oracle(a, mp.e ** (2j * mp.pi * wtau), M, divide_by_n=False)
        fc = _sum_form_oracle([c.conj() for c in a], mp.e ** (2j * mp.pi * tau), M, divide_by_n=False)
        assert abs(f_w - C * N * tau**2 * fc) < mp.mpf(2) ** -80


def test_l_value_and_cusp_zero():
    for p in (7, 13, 31):
        z0 = l_value_and_cusp_zero(p, 1, 192)
        assert z0 != (0, 0)
        l_value_and_cusp_zero(p, 1, 192, conjugate=True)


def _rotated_by_w(C, z_f, z_fc, W):
    return fixed_mul(C, (-(1 << W) >> 1, fixed_sqrt3(W) >> 1), W), z_f, z_fc


def _z0_at_zero(C, z_f, z_fc, W):
    return C, fixed_mul(C, z_fc, W), z_fc


def _z0_off_by_half_the_bits(C, z_f, z_fc, W):
    return C, (z_f[0] + (1 << (W - 192 // 2 - 8)), z_f[1]), z_fc


@pytest.mark.parametrize("perturb, message", [
    (_rotated_by_w, r"sqrt\(-3\)\*z0 not in L"),
    (_z0_at_zero, "z0 lies in L itself"),
    (_z0_off_by_half_the_bits, r"\|wp\(z0\)\| = 2\^-10[0-9]\.[0-9]+ is not 0"),
], ids=["C-times-w", "z0-in-L", "wp-not-0"])
def test_cusp_guards_reject_a_perturbed_fricke_pass(monkeypatch, perturb, message):
    # at 7^1, 192 bits: C turned by w moves z0 off the sqrt(-3)-division
    # points; z_f = C z_fc puts z0 at 0, in L; z_f moved by 2^-(prec/2 + 8)
    # keeps sqrt(-3) z0 within 2^-(prec/2) of L but moves wp(z0) by about
    # |wp'(z0)| 2^-104 from 0
    W = 192 + GUARD_BITS
    real = analytic._fricke
    monkeypatch.setattr(analytic, "_fricke", lambda *a: perturb(*real(*a), W))
    with pytest.raises(TorsionCheckFailed, match=message):
        l_value_and_cusp_zero(7, 1, 192)


def test_cusp_guard_rejects_a_y_off_the_curve_of_the_lattice(monkeypatch):
    # wp'(z0)/2 is +-pibar^i/2 for every z0 that passes the wp(z0) = 0 guard
    # on the lattice of y^2 = x^3 + pibar^(2i)/4, so no perturbed Fricke pass
    # reaches this guard; a lattice of another curve does.  That of D = 64
    # pibar^2 is L/2, which holds L: z0 is still a primitive
    # sqrt(-3)-division point with wp(z0) = 0, but wp'(z0)/2 = +-8 pibar/2
    real = analytic.lattice_of_curve
    monkeypatch.setattr(analytic, "lattice_of_curve", lambda D, prec: real(D * 64, prec))
    with pytest.raises(TorsionCheckFailed, match=r"wp'\(z0\)/2 is 2\^[0-9.]+ from \+-pibar\^i/2"):
        l_value_and_cusp_zero(7, 1, 192)


@pytest.mark.parametrize("prec", [16, 160, 1000])
@pytest.mark.parametrize("p", [7, 13, 31, 97])
def test_gauss_sum_matches_mpmath_within_its_bound(p, prec):
    # tau(chi) = sum_u chi(u) e^(2 pi i u/p) summed in mpmath 64 bits finer
    s = split_prime(p)
    table = cubic_char_table(p, s.pi)
    W = prec + GUARD_BITS
    with mp.workprec(W + 64):
        w = omega_mpc()
        want = sum(w ** table[u] * mp.expjpi(mp.mpf(2 * u) / p) for u in range(1, p))
        got = gauss_sum(p, s.pi, prec)
        assert _units_off(got[0], want.real, W) < 3 * p
        assert _units_off(got[1], want.imag, W) < 3 * p


def _shifted(v, W, radial):
    """The pair v moved by 2^-60 relative: scaled by 1 + 2^-60 (radial) or
    turned by 2^-60 radians, to first order."""
    dr, di = (v[0] >> 60, v[1] >> 60) if radial else (-v[1] >> 60, v[0] >> 60)
    return v[0] + dr, v[1] + di


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "turned"])
def test_fixture_checks_reject_a_value_off_by_2_to_the_minus_60(monkeypatch, radial):
    # the integer tolerances of the Gauss-sum and Fricke fixtures reject a
    # value 2^-60 off: a radial move fails the modulus check, a turn the power
    from cubesum import fixtures

    W = 160 + GUARD_BITS
    monkeypatch.setattr(fixtures, "gauss_sum", lambda *a: _shifted(gauss_sum(*a), W, radial))
    with pytest.raises(AssertionError, match=r"\|tau\|\^2" if radial else r"tau\^3"):
        fixtures.check_gauss_sums()
    monkeypatch.setattr(fixtures, "fricke_constant", lambda *a: _shifted(fricke_constant(*a), W, radial))
    with pytest.raises(AssertionError, match=r"\|C\|" if radial else r"C\^6"):
        fixtures.check_fricke()


def test_terms_needed_monotone():
    assert terms_needed(0.01, 192) > terms_needed(0.02, 192) > terms_needed(0.02, 96)


# ------------------------------------------------------- the q-sum's tail


def _ideal_counts(top):
    """r(n) for n < top, the number of ideals of Z[w] of norm n: its
    elements a + b w of norm a^2 - ab + b^2 = n, over the six units."""
    r = [0] * top
    bmax = math.isqrt(4 * top // 3) + 1
    for b in range(-bmax, bmax + 1):
        # (2a - b)^2 + 3 b^2 = 4 n < 4 top
        h = math.isqrt(max(4 * top - 3 * b * b, 0))
        for a in range((b - h) // 2, (b + h) // 2 + 2):
            n = a * a - a * b + b * b
            if n < top:
                r[n] += 1
    return [c // 6 for c in r]


def test_ideal_count_bound_holds_below_200000_and_is_sharp_at_91():
    top = 200_000
    r = _ideal_counts(top)
    assert r[:14] == [0, 1, 0, 1, 1, 0, 0, 2, 0, 1, 0, 0, 1, 2]
    assert all(r[n] <= IDEAL_COUNT_BOUND * n**0.25 for n in range(1, top))
    assert max(range(1, top), key=lambda n: r[n] / n**0.25) == 91 and r[91] == 4
    assert IDEAL_COUNT_BOUND <= 1.2953


# solve sites with N = 9p (409^1, 61^2, 103^1) and N = 27p (223^1, 67^2,
# 7^1), at the rungs 48, 96 and 384 bits
TAIL_SITES = [(409, 1, 48), (223, 1, 48), (61, 2, 96), (67, 2, 96), (103, 1, 384), (7, 1, 384)]


@pytest.mark.parametrize("p, i, prec", TAIL_SITES)
def test_terms_needed_tail_is_below_2_to_the_minus_prec_at_solve_sites(p, i, prec):
    # sum_{M < n <= 4M} |a_n|/n |q|^n, plus the sigma_0 bound past 4M,
    # scaled by 2^prec; every |a_n| on the way is under C n^(3/4)
    site = eval_site(p, i)
    M = site_terms(site, prec)
    sq, num, den = site.im
    a = 2 * math.pi * math.sqrt(sq) * (num / den)  # -log|q|
    alpha, beta = newform_pairs(p, i, 4 * M)
    scale = prec * math.log(2)
    tail = 0.0
    for k, (x, y) in enumerate(zip(alpha, beta)):
        n, norm = 3 * k + 1, x * x - x * y + y * y
        assert norm <= IDEAL_COUNT_BOUND**2 * n**1.5
        if n > M and norm:
            tail += math.exp(math.log(norm) / 2 - math.log(n) - a * n + scale)
    past = math.sqrt(3) * math.exp(scale - a * (4 * M + 1)) / -math.expm1(-a)
    assert tail + past < 1


def _terms_needed_sigma0(im_tau, prec):
    """terms_needed under its first tail bound, sqrt(3) |q|^(M+1) / (1 -
    |q|) from sigma_0(n) <= sqrt(3n)."""
    with mp.workprec(64):
        logq = -2 * mp.pi * mp.mpf(im_tau)
        qabs = mp.e**logq
        M = int((prec * mp.log(2) + mp.log(mp.sqrt(3) / (1 - qabs))) / (-logq)) + 8
        return max(M, 16)


@settings(max_examples=300, deadline=None)
@given(
    im=st.floats(min_value=1e-6, max_value=4.0) | st.sampled_from([3e-4, 2.4e-4, 1.4e-5, 0.05, 1.0]),
    prec=st.integers(min_value=1, max_value=8192),
)
def test_terms_needed_meets_its_bound_and_never_exceeds_the_sigma0_bound(im, prec):
    M = terms_needed(im, prec)
    assert M <= _terms_needed_sigma0(im, prec)
    with mp.workprec(128):
        q = mp.e ** (-2 * mp.pi * im)
        tail = IDEAL_COUNT_BOUND * mp.mpf(M + 1) ** -0.25 * q ** (M + 1) / (1 - q**3)
        assert tail < mp.mpf(2) ** -prec


def test_terms_needed_refuses_the_lower_half_plane():
    with pytest.raises(ValueError):
        terms_needed(0.0, 96)


# ------------------------------------------------ recognition over Z[w]


@settings(max_examples=200, deadline=None)
@given(
    prec=st.sampled_from([16, 64, 96, 192, 384]),
    data=st.data(),
)
def test_continued_fraction_recovers_every_x_within_the_bound(prec, data):
    # noise of 2^-prec is 8/B for B = 2^(prec + 3), so every alpha/gamma
    # with N(gamma) <= B/256 comes back exactly, whatever the size of alpha
    W = prec + GUARD_BITS
    norm_bits = prec + 3
    half = math.isqrt((1 << (norm_bits - 8)) // 3)  # |a|, |b| <= half: N(a + b w) <= 3 half^2
    gamma = EisensteinInt(data.draw(st.integers(-half, half)), data.draw(st.integers(-half, half)))
    gamma = gamma or EisensteinInt(1)
    big = 1 << (norm_bits - 8) // 2 + 12
    alpha = EisensteinInt(data.draw(st.integers(-big, big)), data.draw(st.integers(-big, big)))
    t = alpha * gamma.conj()
    x = QOmega.from_ints(t.a, t.b, gamma.norm())
    # |noise| < 2^-prec: each component under 2^-prec / sqrt(2)
    cap = (1 << (W - prec)) * 7 // 10
    nr, ni = data.draw(st.integers(-cap, cap)), data.draw(st.integers(-cap, cap))
    xr, xi = fixed_of(x, W)
    got, _ = recognize_eisenstein((xr + nr, xi + ni), W, norm_bits)
    assert got is not None and got[0] == x
    assert got[1] % x.d == 0  # x's rational denominator divides N(gamma)


def test_continued_fraction_bounds_at_the_edges():
    W = 96 + GUARD_BITS
    x = QOmega(Fraction(1, 3), Fraction(2, 7))
    v = fixed_of(x, W)
    # a negative bound: no denominator qualifies, no shift goes negative and
    # no expansion runs
    assert recognize_eisenstein(v, W, -5) == (None, None)
    # a bound of 1 admits integers only, within 8: the nearest one passes
    # (the caller's exact checks judge it), and an integer comes back
    # exactly, its expansion ending at once
    found, stop = recognize_eisenstein(v, W, 0)
    assert found == (QOmega(0), 1) and stop is not None
    assert recognize_eisenstein(fixed_of(QOmega(5, -2), W), W, 0) == ((QOmega(5, -2), 1), None)
    # x = (7 + 6w)/21 in lowest terms (N(7 + 6w) = 43), N(21) = 441: under
    # 2^9, over 2^8.  v is x floored to 2^-W, so past x the expansion takes
    # a quotient k of about 2^W/441, N(k) about 2^(2 (W - 9)), and stops
    found, stop = recognize_eisenstein(v, W, 9)
    assert found == (x, 441) and abs(stop - 2 * (W - 9)) <= 4
    got, stop = recognize_eisenstein(v, W, 8)
    assert got is None or (got[0] != x and got[1] <= 256)
    assert stop is not None


@pytest.mark.parametrize("noise_bits", [40, 60, 80])
def test_continued_fraction_stop_quotient_measures_the_nearness_of_x(noise_bits):
    # x = alpha/gamma with N(gamma) about 2^20 under noise 2^-noise_bits and
    # a bound of 2^(noise_bits - 10) far above N(gamma): the quotient where
    # the expansion leaves the bound is about 1/(N(gamma) noise), so
    # floor(log2 N(k)) is near 2 (noise_bits - 20) and grows with the bits
    # the numbers carry beyond x
    W = 128 + GUARD_BITS
    gamma, alpha = EisensteinInt(1000, 301), EisensteinInt(12345, -678)
    t = alpha * gamma.conj()
    x = QOmega.from_ints(t.a, t.b, gamma.norm())
    xr, xi = fixed_of(x, W)
    noise = 1 << (W - noise_bits)
    (got, n), stop = recognize_eisenstein((xr + noise, xi), W, noise_bits - 10)
    assert got == x and n == gamma.norm()
    assert abs(stop - 2 * (noise_bits - 20)) <= 4
