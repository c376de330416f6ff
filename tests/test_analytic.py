import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import to_fixed

import cubesum.analytic as analytic
from cubesum.analytic import (
    GUARD_BITS,
    SERIES_RADIUS,
    PoleAtLatticePoint,
    eval_z,
    fixed_to_mpc,
    fricke_constant,
    l_value_and_cusp_zero,
    lattice_of_curve,
    fixed_of,
    mpc_to_fixed,
    principal_root,
    recognize_eisenstein,
    reduce_xi,
    site_terms,
    terms_needed,
    wp_eval,
    wp_laurent_coefficients,
)
from cubesum.cmpoint import eval_site
from cubesum.eisenstein import EisensteinInt, QOmega, split_prime
from cubesum.heckeform import (
    as_eisenstein,
    build_form,
    conductor_and_level,
    nebentypus,
    qexp_coefficients,
)

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
        return tuple(fixed_to_mpc(v, W) for v in wp_eval(L, mpc_to_fixed(z, W), prec))


def z_mpc(form, site, prec):
    """eval_z's (z, z^c) as mpc."""
    W = prec + GUARD_BITS
    with mp.workprec(W):
        return tuple(fixed_to_mpc(v, W) for v in eval_z(form, site, prec))


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
    principal_root, and the formula lattice_of_curve and scaling_root used."""
    with mp.workprec(W + 64):
        a = x.to_mpc(mp) if scale is None else x.to_mpc(mp) * mp.ldexp(1, W) / scale
        return mpc_to_fixed(mp.root(a, n), W)


def _root_cases(prec):
    """(x, n, scale) radicands of lattice_of_curve (-D, 6, g3) and
    scaling_root (pi^(2i), 3, None), and synthetic ones."""
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
                wp_eval(L, mpc_to_fixed(Omega * xi, W), prec)
            return
        z = mpc_to_fixed(Omega * _xi_case(kind, prec, data.draw), W)
        got = wp_eval(L, z, prec)
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
                wp_mpc(L, lattice_omega(L) * mp.mpc(0.3, 0.2), prec)
        assert len(calls) == total


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


# Off the CM sites the kernel reads Re(tau) exactly, as the dyadic rational
# its mpf is, and takes L = the denominator of 6 Re(tau), capped at K: 3/7,
# 2/9 and -200/189 have long mantissas (L = K, one row of K columns), 3/8
# gives L = 4 with X = q^12 < 0 (6 L Re(tau) = 9 is odd), and 0, the shape
# of the Fricke sites, gives L = 1 (one column).
def _site_and_tau(cm, re, im):
    """(site, its mpc value): the CM site of cm = (p, i), or else the mpc
    with real part re (a fraction string, rounded to the working precision)
    and imaginary part im, as both."""
    if cm is None:
        r = Fraction(re)
        tau = mp.mpc(mp.mpf(r.numerator) / r.denominator, im)
        return tau, tau
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
# 2/9 (the unlabelled cases) L = K, one row: one column, two, full blocks
# of 6 and of 7 columns, and ragged last blocks (50 = 7 * 7 + 1, 97 = 9 *
# 10 + 7).  At 3/8, L = 4 (two blocks of two) from K = 4 on: full rows,
# a first column one term longer than the rest, and ragged rows; K = 1
# and 2 cap L at K.  At 0, L = 1: one column of K terms.  At a CM site L = p: K = p -
# 1, p, p + 1 and 2p give one short row (L capped at K), one full row, a
# second row of one term, and two full rows.
BLOCK_EDGE_MS = (1, 6, 142, 147, 148, 289)


@pytest.mark.parametrize(
    "M, cm, re",
    [(M, None, "2/9") for M in BLOCK_EDGE_MS]
    + [(M, None, re) for re in ("3/8", "0") for M in BLOCK_EDGE_MS]
    + [(3 * K - 2, (p, 1), None) for p, _ in CM_SITES for K in (p - 1, p, p + 1, 2 * p)],
    ids=[str(M) for M in BLOCK_EDGE_MS]
    + [f"{re}-{M}" for re in ("3/8", "0") for M in BLOCK_EDGE_MS]
    + [f"{p}^1-K={K}" for p, _ in CM_SITES for K in (p - 1, p, p + 1, 2 * p)],
)
@pytest.mark.parametrize("evaluate, divide_by_n", [(eval_z, True)])
def test_kernel_block_edges(monkeypatch, M, cm, re, evaluate, divide_by_n):
    prec = 192
    monkeypatch.setattr(analytic, "terms_needed", lambda im_tau, prec: M)
    p, i = cm or (31, 1)
    f = build_form(p, i, M)
    with mp.workprec(prec + GUARD_BITS):
        site, tau = _site_and_tau(cm, re, mp.mpf(1) / 40)
        got_f, got_fc = (fixed_to_mpc(v, prec + GUARD_BITS) for v in evaluate(f, site, prec))
        q = mp.e ** (2j * mp.pi * tau)
        a = as_eisenstein(f.pairs(), f.terms)
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


@pytest.mark.parametrize("p, i, prec", sorted(EVAL_Z_DIGESTS))
def test_eval_z_at_solve_sites_reproduces_the_pair_kernel(p, i, prec):
    # one product per term in the unit columns, pibar a_m in the columns
    # p | n: the same integers, bit for bit
    site = eval_site(p, i)
    f = build_form(p, i, site_terms(site, prec))
    z = eval_z(f, site, prec)
    assert hashlib.sha256(repr(z).encode()).hexdigest() == EVAL_Z_DIGESTS[p, i, prec]


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


@pytest.mark.parametrize("p, i", [(7, 1), (13, 1), (31, 1), (7, 2)])
def test_fricke_constant_satisfies_the_f_identity(p, i):
    # C comes from z alone; the identity it stands for, f(-1/(N tau)) =
    # C N tau^2 f^c(tau), is checked on the plain f-sums of the oracle at a
    # site off the imaginary axis
    prec = 160
    _, N = conductor_and_level(p, i)
    C = fricke_constant(p, i, prec)
    with mp.workprec(prec + GUARD_BITS):
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
    assert short.b == qexp_coefficients(7, 1, short.terms)


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
    got = recognize_eisenstein((xr + nr, xi + ni), W, norm_bits)
    assert got is not None and got[0] == x
    assert got[1] % x.d == 0  # x's rational denominator divides N(gamma)


def test_continued_fraction_bounds_at_the_edges():
    W = 96 + GUARD_BITS
    x = QOmega(Fraction(1, 3), Fraction(2, 7))
    v = fixed_of(x, W)
    # a negative bound: no denominator qualifies, and no shift goes negative
    assert recognize_eisenstein(v, W, -5) is None
    # a bound of 1 admits integers only, within 8: the nearest one passes
    # (the caller's exact checks judge it), and an integer comes back exactly
    assert recognize_eisenstein(v, W, 0) == (QOmega(0), 1)
    assert recognize_eisenstein(fixed_of(QOmega(5, -2), W), W, 0) == (QOmega(5, -2), 1)
    # x = (7 + 6w)/21 in lowest terms (N(7 + 6w) = 43), N(21) = 441: under
    # 2^9, over 2^8
    assert recognize_eisenstein(v, W, 9) == (x, 441)
    got = recognize_eisenstein(v, W, 8)
    assert got is None or (got[0] != x and got[1] <= 256)
