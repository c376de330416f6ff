"""Arbitrary-precision analytics for the parametrization.

All lattices here are hexagonal: L = Omega * Z[w], so g2 = 0 and wp_L(z) =
Omega^-2 wp_0(z/Omega), where wp_0 belongs to the base lattice Z[w].  The
base lattice is computed once per precision: its g3, from the weight-6
Eisenstein q-series at the hexagonal point, and its Laurent coefficients.
The lattice of y^2 = x^3 + D/4 (model y = wp'/2, x = wp) has g3 = -D, so
Omega^6 = g3(Z[w]) / (-D); any sixth root can be taken because the units of
Z[w] are exactly the sixth roots of unity.

Numerical conventions: every public function takes a target precision in
bits and works internally with 32 guard bits; "lies in L" always means a
residual below 2^(-prec/2): of the lattice coordinates from the nearest
integers (PeriodLattice.contains), or of z/Omega reduced to the Voronoi cell
of 0 (wp_eval, which raises PoleAtLatticePoint there).

Both series are summed by one fixed-point idiom: Python integers scaled by
2^W, products shifted back by W, so every operation truncates by less than
one unit of 2^-W and the error bounds are counts of units.  The q-sums of
the newform (_q_sums) give f and its conjugate f^c from one pass, by
rectangular splitting in q^3 (Paterson-Stockmeyer); wp_0 is a Horner sum
in xi^6 over the base lattice's coefficients, stored as integers.  mpmath
is left with the set-up (q, xi^6), the duplication step and the rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from .eisenstein import EisensteinInt, QOmega
from .heckeform import build_form, conductor_and_level, split_prime

GUARD_BITS = 32


class PoleAtLatticePoint(ArithmeticError):
    pass


class TermsCapExceeded(RuntimeError):
    pass


class TorsionCheckFailed(AssertionError):
    pass


def omega_mpc():
    """w = (-1 + i sqrt(3))/2 at the current working precision."""
    return mp.mpc(mp.mpf(-1) / 2, mp.sqrt(3) / 2)


def mpf_to_fraction(x):
    """The exact rational value of an mpf (binary fractions are exact)."""
    from fractions import Fraction

    p, q = mpmath.libmp.to_rational(mp.mpf(x)._mpf_)
    return Fraction(int(p), int(q))


def recognize_qomega(v, den_bound, tol_bits):
    """Best a + b*w in Q(w) close to complex v, denominators <= den_bound.

    Components are recovered by continued fractions (Fraction.limit_denominator
    on the exact binary value); returns None when the reconstruction misses v
    by 2^-tol_bits or the bound is exceeded.
    """
    from fractions import Fraction

    s3 = mp.sqrt(3)
    v = mp.mpc(v)
    b_real = 2 * v.imag / s3
    a_real = v.real + v.imag / s3
    b = mpf_to_fraction(b_real).limit_denominator(den_bound)
    a = mpf_to_fraction(a_real).limit_denominator(den_bound)
    cand = QOmega(a, b)
    if abs(cand.to_mpc(mp) - v) < mp.mpf(2) ** (-tol_bits):
        return cand
    return None


def _to_mpc(x):
    if isinstance(x, (EisensteinInt, QOmega)):
        return x.to_mpc(mp)
    return mp.mpc(x)


# ------------------------------------------------------- Laurent expansion


def wp_laurent_coefficients(g3, count):
    """[G_6, G_12, ..., G_{6*count}] for a lattice with g2 = 0.

    Works over any coefficient ring with +, * and exact division by Python
    ints (exact K-elements or mpmath numbers).  Writing wp = z^-2 +
    sum c_m z^(2m-2), differentiating wp'^2 = 4 wp^3 - g3 gives the classical
    recurrence c_m = 3 sum_{h=2}^{m-2} c_h c_{m-h} / ((m-3)(2m+1)) with
    c_2 = 0, c_3 = g3/28; then G_{2m} = c_m / (2m-1).  With g2 = 0 only
    m = 0 mod 3 survives, i.e. the weights 6, 12, 18, ...  The sum is
    symmetric in h <-> m - h, so each product is formed once.
    """
    zero = g3 - g3
    mmax = 3 * count
    c = [zero] * (mmax + 1)
    if mmax >= 3:
        c[3] = g3 / 28
    for m in range(6, mmax + 1, 3):
        s = zero
        for h in range(3, (m + 1) // 2, 3):  # h < m - h
            s = s + c[h] * c[m - h]
        s = s * 2
        if m % 6 == 0:
            s = s + c[m // 2] * c[m // 2]
        c[m] = (s * 3) / ((m - 3) * (2 * m + 1))
    return [c[3 * k + 3] / (6 * k + 5) for k in range(count)]


# ----------------------------------------------------------- base lattice


SERIES_RADIUS = 0.35  # |z/Omega| up to which wp is summed; else halve first

_base_cache = {}


def _base_lattice(prec):
    """(g3, C) of the reference lattice Z[w], computed once per precision.

    g3 = 140 G_6 and G_6 = 2 zeta(6) E_6, with q = -e^(-pi sqrt(3)).  E_4
    vanishes at this point, which is checked as a self-test of the series.
    C[k] = (6k+5) G_{6k+6} * 2^(prec + GUARD_BITS), rounded to an integer:
    the coefficients of wp_0 - xi^-2 in xi^(6k+4), which are real because
    Z[w] is closed under conjugation.  There are enough of them for the
    series to reach 2^-(prec + 48) inside SERIES_RADIUS: G_6k tends to 6
    (the six units), so each term gains -6 log2(SERIES_RADIUS) bits.
    """
    if prec in _base_cache:
        return _base_cache[prec]
    with mp.workprec(prec + GUARD_BITS):
        qabs = mp.e ** (-mp.pi * mp.sqrt(3))
        nmax = int((prec + 48) * math.log(2) / (mp.pi * math.sqrt(3))) + 8
        sigma3 = [0] * (nmax + 1)
        sigma5 = [0] * (nmax + 1)
        for d in range(1, nmax + 1):
            d3, d5 = d**3, d**5
            for m in range(d, nmax + 1, d):
                sigma3[m] += d3
                sigma5[m] += d5
        e4 = mp.mpf(1)
        e6 = mp.mpf(1)
        qn = mp.mpf(1)
        for n in range(1, nmax + 1):
            qn = qn * (-qabs)
            e4 += 240 * sigma3[n] * qn
            e6 -= 504 * sigma5[n] * qn
        if abs(e4) >= mp.mpf(2) ** (-(prec + 16)):
            raise AssertionError("E4 must vanish on Z[w]")
        zeta6 = mp.pi**6 / 945
        g3 = 140 * 2 * zeta6 * e6
        kmax = int((prec + 48) / (-6 * math.log2(SERIES_RADIUS))) + 6
        G = wp_laurent_coefficients(g3, kmax)
        W = prec + GUARD_BITS
        C = [int(mp.nint(mp.ldexp((6 * k + 5) * g, W))) for k, g in enumerate(G)]
        _base_cache[prec] = g3, C
    return _base_cache[prec]


@dataclass(frozen=True)
class PeriodLattice:
    """L = Omega * Z[w], the period lattice of y^2 = x^3 + D/4."""

    Omega: object
    prec: int

    def coords(self, z):
        """Real (x, y) with z = (x + y*w) * Omega."""
        with mp.workprec(self.prec + GUARD_BITS):
            xi = mp.mpc(z) / self.Omega
            y = 2 * xi.imag / mp.sqrt(3)
            x = xi.real + y / 2
            return x, y

    def from_coords(self, m, n):
        with mp.workprec(self.prec + GUARD_BITS):
            return self.Omega * (m + n * omega_mpc())

    def residual(self, z):
        """Distance of the lattice coordinates of z from the nearest integers."""
        x, y = self.coords(z)
        with mp.workprec(self.prec + GUARD_BITS):
            return max(abs(x - mp.nint(x)), abs(y - mp.nint(y)))

    def contains(self, z, tol_bits=None):
        tol = mp.mpf(2) ** (-(tol_bits if tol_bits is not None else self.prec // 2))
        return self.residual(z) < tol


# the six units of Z[w] as (m, n) with unit = m + n w, and 0 itself
_VORONOI_STEPS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def reduce_xi(xi):
    """(r, (m, n)) with xi = r + m + n w and r in the Voronoi cell of 0 in
    Z[w], so |r| <= 1/sqrt(3).

    The coordinates of xi are rounded once; the residual of that rounding
    box (a parallelogram) is O(1), so the nearest of it and its six unit
    translates is picked from floats, by the norm N(a + b w) = a^2 - ab + b^2.
    A float tie sits on a cell edge, where either side is a representative.
    """
    s3 = mp.sqrt(3)
    y = 2 * xi.imag / s3
    x = xi.real + y / 2
    m, n = int(mp.nint(x)), int(mp.nint(y))
    fx, fy = float(x - m), float(y - n)
    dm, dn = min(
        _VORONOI_STEPS,
        key=lambda d: (fx - d[0]) ** 2 - (fx - d[0]) * (fy - d[1]) + (fy - d[1]) ** 2,
    )
    m, n = m + dm, n + dn
    return mp.mpc(xi.real - m + mp.mpf(n) / 2, xi.imag - n * s3 / 2), (m, n)


def lattice_of_curve(D, prec=192):
    """Period lattice of y^2 = x^3 + D/4, i.e. the hexagonal lattice with
    g3 = -D; Omega is any sixth root of g3(Z[w]) / (-D)."""
    g3_base, _ = _base_lattice(prec)
    with mp.workprec(prec + GUARD_BITS):
        Dc = _to_mpc(D)
        if Dc == 0:
            raise ValueError("D must be nonzero")
        Omega = (g3_base / (-Dc)) ** (mp.mpf(1) / 6)
        return PeriodLattice(Omega=Omega, prec=prec)


# -------------------------------------------------------------- wp values


def wp_eval(L, z, prec=None):
    """(wp(z), wp'(z)) for the lattice L.

    With xi = z/Omega, wp_L(z) = Omega^-2 wp_0(xi) and wp_L'(z) = Omega^-3
    wp_0'(xi).  xi is reduced mod Z[w] (reduce_xi); a reduced xi below
    2^-(prec/2) lies on the lattice and raises PoleAtLatticePoint.  A reduced
    xi has |xi| <= 1/sqrt(3) < 2 SERIES_RADIUS, so it is halved at most once,
    and the duplication formula undoes that.

    wp_0 = xi^-2 + sum_k C_k xi^(6k+4) and wp_0' = -2 xi^-3 + sum_k (6k+4)
    C_k xi^(6k+3), with C = _base_lattice's integers at W = prec + GUARD_BITS.
    Both sums run by Horner in t = xi^6, held as an integer pair.  Each step
    truncates by under 2 units of 2^-W, and |t| <= SERIES_RADIUS^6 < 2^-9
    damps what came before, so the error is about 2 units plus t's own
    rounding (under 2 units) weighted by the slopes of the sums in t, under
    70 and 700: under 2^10 units, against sums of size 30 and 120.  The
    duplication and the rescaling run in mpmath at prec + GUARD_BITS.
    """
    prec = prec if prec is not None else L.prec
    _, C = _base_lattice(prec)
    W = prec + GUARD_BITS
    with mp.workprec(W):
        xi, _ = reduce_xi(mp.mpc(z) / L.Omega)
        if abs(xi) < mp.mpf(2) ** (-(prec // 2)):
            raise PoleAtLatticePoint(f"z = {z} lies on the lattice")
        halve = abs(xi) > SERIES_RADIUS
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
            if wpd == 0:
                raise PoleAtLatticePoint("duplication hit a 2-torsion point")
            lam = 3 * wp * wp / wpd
            wp2 = lam * lam - 2 * wp
            wp, wpd = wp2, 2 * lam * (wp - wp2) - wpd
        O2 = L.Omega * L.Omega
        return wp / O2, wpd / (O2 * L.Omega)


# --------------------------------------------------------- form evaluation


def terms_needed(im_tau, prec):
    """Terms M so that sum_{n>M} sigma_0(n) sqrt(n) |q|^n / n < 2^-prec.

    Uses sigma_0(n) <= sqrt(3n) (equality at n = 12), so the tail is below
    sqrt(3) |q|^(M+1) / (1 - |q|).
    """
    with mp.workprec(64):
        im = mp.mpf(im_tau)
        if im <= 0:
            raise ValueError("site must be in the upper half plane")
        logq = -2 * mp.pi * im  # natural log of |q|
        qabs = mp.e**logq
        M = int((prec * mp.log(2) + mp.log(mp.sqrt(3) / (1 - qabs))) / (-logq)) + 8
        return max(M, 16)


def _site_to_tau(site):
    if hasattr(site, "to_mpc"):
        return site.to_mpc(mp)
    return mp.mpc(site)


KERNEL_GUARD_BITS = 2


def _q_sums(form, site, prec, max_terms, divide_by_n):
    """(S, S^c) with S = sum c_n q^n over n <= M for the form and its
    conjugate, where c_n = a_n/n (divide_by_n) or a_n, and M =
    terms_needed(Im tau, prec).

    a_n vanishes off n = 1 mod 3, so S = q P(x) with x = q^3 and P(x) =
    sum_k c_(3k+1) x^k over the K = ceil(M/3) steps k < K.  With a_n =
    alpha_n + beta_n w, P splits as U + V w and the conjugate form's as
    U + V conj(w), so one pass sums U and V, over alpha and beta.

    Rectangular splitting (Paterson-Stockmeyer): with B = isqrt(K), the baby
    steps x^j (j < B) are computed once, each block of B consecutive steps is
    a sum of small-integer multiples of them (a zero a_n costs a truth test),
    and Horner in the giant step x^B runs over the blocks from the top.  So
    the W-bit products number about 4B + 8K/B instead of 4K; under
    divide_by_n each nonzero term divides the baby step by n once per
    component and multiplies the quotient by alpha_n and beta_n.

    Error, in units of 2^-W (values scaled by 2^W; every product is shifted
    and every quotient floored, each by under one unit per component):
    - the baby steps and x^B are off by at most 3j units (|x| < 1, and x
      itself is off by one unit per component);
    - a term is off by at most (|alpha_n| + |beta_n|)(1 + 3j/n) <=
      2 (|alpha_n| + |beta_n|) units under divide_by_n (n > 3j), and by
      (|alpha_n| + |beta_n|)(1 + 3j) <= (|alpha_n| + |beta_n|) n without it;
    - |alpha_n| + |beta_n| <= 2 |a_n| <= 2 sigma_0(n) sqrt(n) <= 2 sqrt(3) n
      (sigma_0(n) <= sqrt(3n)), so over n <= M, n = 1 mod 3, the terms add
      under 1.2 M^2 units, or 0.4 M^3 without divide_by_n;
    - each Horner step adds 2 units plus |P| <= sqrt(3) K (sqrt(3) K M
      without divide_by_n) times the 3B units of x^B; over the K/B steps
      that is under 0.6 M^2 units (0.6 M^3).
    So U and V are off by under 2 M^e units, e = 2 under divide_by_n and 3
    without, and W = prec + GUARD_BITS + KERNEL_GUARD_BITS + e *
    M.bit_length() keeps S and S^c within 2^-(prec + GUARD_BITS), the
    precision they are returned at.  The last product by q runs in mpmath.
    """
    with mp.workprec(prec + GUARD_BITS):
        tau = _site_to_tau(site)
        M = terms_needed(tau.imag, prec)
        if max_terms is not None and M > max_terms:
            raise TermsCapExceeded(f"site needs {M} terms, cap is {max_terms}")
        if M > form.terms:
            raise ValueError(f"form has {form.terms} coefficients, site needs {M}")
    W = prec + GUARD_BITS + KERNEL_GUARD_BITS + (2 if divide_by_n else 3) * M.bit_length()
    with mp.workprec(W):
        q = mp.exp(2j * mp.pi * _site_to_tau(site))
        x = q**3
        xr, xi = to_fixed(x.real._mpf_, W), to_fixed(x.imag._mpf_, W)
    B = math.isqrt(len(range(1, M + 1, 3)))
    baby = [(1 << W, 0)]
    for _ in range(B):
        pr, pi = baby[-1]
        baby.append(((pr * xr - pi * xi) >> W, (pr * xi + pi * xr) >> W))
    gr, gi = baby.pop()  # the giant step x^B
    alpha, beta = form.alpha, form.beta
    ur = ui = vr = vi = 0
    for n0 in reversed(range(1, M + 1, 3 * B)):
        n1 = min(n0 + 3 * B, M + 1)
        sur = sui = svr = svi = 0
        for n, a, b, (pr, pi) in zip(range(n0, n1, 3), alpha[n0:n1:3], beta[n0:n1:3], baby):
            if a or b:
                if divide_by_n:
                    pr, pi = pr // n, pi // n
                sur += a * pr
                sui += a * pi
                svr += b * pr
                svi += b * pi
        ur, ui = ((ur * gr - ui * gi) >> W) + sur, ((ur * gi + ui * gr) >> W) + sui
        vr, vi = ((vr * gr - vi * gi) >> W) + svr, ((vr * gi + vi * gr) >> W) + svi
    with mp.workprec(prec + GUARD_BITS):
        U = mp.mpc(mp.ldexp(ur, -W), mp.ldexp(ui, -W)) * q
        V = mp.mpc(mp.ldexp(vr, -W), mp.ldexp(vi, -W)) * q
        w = omega_mpc()
        return U + V * w, U + V * w.conjugate()


def eval_z(form, site, prec=192, max_terms=None):
    """(z, z^c): z(tau) = sum a_n/n q^n at the site, the Abel-Jacobi image of
    tau, for the form and for its conjugate, from one pass over the terms.

    The form must carry at least terms_needed(Im tau, prec) coefficients;
    max_terms, when given, turns an over-budget requirement into
    TermsCapExceeded instead of a ValueError.
    """
    return _q_sums(form, site, prec, max_terms, divide_by_n=True)


def eval_f(form, site, prec=192, max_terms=None):
    """(f(tau), f^c(tau)) from one pass (used for Fricke constants, not for
    points)."""
    return _q_sums(form, site, prec, max_terms, divide_by_n=False)


def fricke_constant(p, i, prec=192, at=None, form=None):
    """C with f(-1/(N tau)) = C N tau^2 f^c(tau), measured numerically.

    Contracts: |C| = 1 and C^6 = pi^(2i)/pibar^(2i) (up to the sixth root of
    unity that stays unpinned); both are asserted by the acceptance suite
    rather than here.  Default site is the involution's fixed point i/sqrt(N),
    where f and f^c come from one pass.  `form` is extended in place to
    the terms the site needs; one is built when it is missing.
    """
    _, N = conductor_and_level(p, i)
    with mp.workprec(prec + GUARD_BITS):
        tau = mp.mpc(0, 1) / mp.sqrt(N) if at is None else mp.mpc(at)
        wtau = -1 / (N * tau)
        M = terms_needed(min(tau.imag, wtau.imag), prec)
        if form is None:
            form = build_form(p, i, M)
        form.extend(M)
        if at is None:
            num, fc_tau = eval_f(form, tau, prec)
        else:
            num = eval_f(form, wtau, prec)[0]
            fc_tau = eval_f(form, tau, prec)[1]
        return num / (N * tau**2 * fc_tau)


def l_value_and_cusp_zero(p, i, prec=192, conjugate=False):
    """(z0, True) where z0 = L(f, 1) is the Abel-Jacobi image of the cusp 0.

    Splits the integral at the fixed point of the Fricke involution:
    z0 = z_f(i/sqrt(N)) - C z_fc(i/sqrt(N)).  Checks that z0 is a primitive
    sqrt(-3)-division point of the period lattice and that its wp-image has
    x = 0 (so y = +-pibar^i/2); raises TorsionCheckFailed otherwise.
    conjugate=True does the same for f^c from f's pairs, swapped.
    """
    _, N = conductor_and_level(p, i)
    split = split_prime(p)
    with mp.workprec(prec + GUARD_BITS):
        tau0 = mp.mpc(0, 1) / mp.sqrt(N)
        f = build_form(p, i, terms_needed(tau0.imag, prec))
        C = fricke_constant(p, i, prec, form=f)
        z_f, z_fc = eval_z(f, tau0, prec)
        if conjugate:  # at tau0 = -1/(N tau0), f^c's constant is 1/C
            C, z_f, z_fc = 1 / C, z_fc, z_f
        z0 = z_f - C * z_fc

        D = (split.pi if conjugate else split.pibar) ** (2 * i)
        L = lattice_of_curve(D, prec)
        s3 = mp.mpc(0, 1) * mp.sqrt(3)
        if not L.contains(z0 * s3, tol_bits=prec // 2):
            raise TorsionCheckFailed(f"sqrt(-3)*z0 not in L (residual {L.residual(z0 * s3)})")
        if L.residual(z0) < mp.mpf(1) / 4:
            raise TorsionCheckFailed("z0 lies in L itself; cusp image is not primitive")
        x, ypr = wp_eval(L, z0, prec)
        y = ypr / 2
        tol = mp.mpf(2) ** (-(prec - 40))
        scale = max(1, abs(y))
        if abs(x) > tol * scale:
            raise TorsionCheckFailed(f"wp(z0) = {x} is not 0")
        half = (split.pi if conjugate else split.pibar).to_mpc(mp) ** i / 2
        if min(abs(y - half), abs(y + half)) > tol * scale:
            raise TorsionCheckFailed(f"wp'(z0)/2 = {y} is not +-pibar^i/2")
        return z0, True
