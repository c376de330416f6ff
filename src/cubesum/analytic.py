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
one unit of 2^-W and the error bounds are counts of units.  The one q-sum
(eval_z) gives the Abel-Jacobi images z and z^c of the newform and its
conjugate from one pass over the compact slots split into columns by k
mod L: at a CM site L = p and q^(3p) is a real constant, so each column
is a real series in its powers; the column sums are combined by
rectangular splitting in q^3 (Paterson-Stockmeyer).  The Fricke constant
and the cusp image z0 = L(f, 1) come from z as well (_fricke).  wp_0 is a
Horner sum in xi^6 over the base lattice's coefficients, stored as
integers.  mpmath is left with the set-up (q, q^(3L), xi^6), the
duplication step and the rescaling.
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


def eval_z(form, site, prec=192):
    """(z, z^c): z(tau) = sum a_n/n q^n over n <= M = terms_needed(Im tau,
    prec), the Abel-Jacobi image of tau, for the form and its conjugate,
    from one pass over the compact slots.  The form must carry at least M
    coefficients (a ValueError otherwise).

    a_n vanishes off n = 1 mod 3, so z = q P(x) with x = q^3 and P(x) =
    sum_k a_(3k+1)/(3k+1) x^k over the K = ceil(M/3) steps k < K, the
    form's compact slots.  With a_(3k+1) = alpha[k] + beta[k] w, P splits as
    U + V w and the conjugate form's as U + V conj(w), so one pass sums U
    and V.

    Columns: the slots split by k mod L into L columns, U = sum_(j < L)
    x^j U_j with U_j = sum_g alpha_n/n X^g over n = 3(j + Lg) + 1 and X =
    x^L, and V likewise.  A site that carries its exact real part `re`
    (cmpoint.EvalSite) takes for L the denominator of 6 Re(tau), so that
    X = e^(6 pi i L tau) = (-1)^(6 L Re tau) e^(-6 pi L Im tau) is real: at
    the solve's site W(tau_r), L = p and X = -e^(-pi sqrt(3)) (N = 9p) or
    -e^(-pi sqrt(3)/3) (N = 27p).  The column sums are then real, and a
    nonzero term costs one floor division (X^g // n) and two small-integer
    products (by alpha and beta).  Any other site takes L = isqrt(K), and
    the same column loop runs twice, over Re X^g and over Im X^g, giving U =
    U' + i U'' (once when Im X = 0).  Each pass combines its real column
    sums by rectangular splitting in x: with B = isqrt(number of columns),
    the baby steps x^i (i < B) are formed once, a block of B consecutive
    columns is a sum of integer products u_j x^i, and Horner in the giant
    step x^B runs over the blocks from the top, shifting once per step.

    Error, in units of 2^-W (values scaled by 2^W; every product is shifted
    and every quotient floored, each by under one unit per component):
    - x and X are off by one unit per component, and each power formed
      from them by at most 3 more units per factor (|x|, |X| < 1): x^i by
      3i, (x^B)^m by 3Bm, X^g by 3g;
    - X^g // n is off by under 1 + 3g/n < 1 + 1/L units (n > 3Lg), so a
      term is off by (|alpha_n| + |beta_n|)(1 + 1/L) units;
    - column j reaches the result through x^i (x^B)^m with i + Bm = j,
      off by 3j units; as 3j < n, weighting each term of the column by it
      adds under (|alpha_n| + |beta_n|) units, plus under 2 units per
      Horner step;
    - |alpha_n| + |beta_n| <= 2 |a_n| <= 2 sigma_0(n) sqrt(n) <= 2 sqrt(3) n
      (sigma_0(n) <= sqrt(3n)), and over n <= M, n = 1 mod 3, sum n is
      about M^2/6.
    So one pass is off by under (2 + 1/L) 0.58 M^2 <= 1.8 M^2 units, and U
    and V together by under 3.6 M^2 after two passes: W = prec +
    GUARD_BITS + KERNEL_GUARD_BITS + 2 M.bit_length() keeps z and z^c
    within 2^-(prec + GUARD_BITS), the precision they are returned at.  The
    last product by q runs in mpmath.
    """
    with mp.workprec(prec + GUARD_BITS):
        tau = _site_to_tau(site)
        M = terms_needed(tau.imag, prec)
        if M > form.terms:
            raise ValueError(f"form has {form.terms} coefficients, site needs {M}")
    W = prec + GUARD_BITS + KERNEL_GUARD_BITS + 2 * M.bit_length()
    K = (M + 2) // 3
    re = getattr(site, "re", None)
    L = math.isqrt(K) if re is None else (6 * re).denominator
    with mp.workprec(W):
        tau = _site_to_tau(site)
        q = mp.exp(2j * mp.pi * tau)
        x = q**3
        if re is None:
            X = mp.exp(6j * mp.pi * L * tau)
        else:
            X = (-1) ** (6 * L * re).numerator * mp.exp(-6 * mp.pi * L * tau.imag)
        xr, xi = to_fixed(x.real._mpf_, W), to_fixed(x.imag._mpf_, W)
        Xr, Xi = to_fixed(mp.re(X)._mpf_, W), to_fixed(mp.im(X)._mpf_, W)
    cols = min(L, K)
    B = math.isqrt(cols)
    baby = [(1 << W, 0)]
    for _ in range(B):
        pr, pi = baby[-1]
        baby.append(((pr * xr - pi * xi) >> W, (pr * xi + pi * xr) >> W))
    gr, gi = baby.pop()  # the giant step x^B
    Xg_re, Xg_im = [1 << W], [0]  # X^g for the rows g < ceil(K/L)
    for _ in range((K - 1) // L):
        pr, pi = Xg_re[-1], Xg_im[-1]
        Xg_re.append((pr * Xr - pi * Xi) >> W)
        Xg_im.append((pr * Xi + pi * Xr) >> W)
    alpha, beta = form.alpha, form.beta  # slot k holds a_(3k+1)
    sums = []
    for Xg in (Xg_re, Xg_im) if Xi else (Xg_re,):
        ur = ui = vr = vi = 0
        for j0 in reversed(range(0, cols, B)):
            sur = sui = svr = svi = 0
            for j, (pr, pi) in zip(range(j0, cols), baby):
                u = v = 0  # column j
                for n, a, b, t in zip(range(3 * j + 1, 3 * K, 3 * L), alpha[j:K:L], beta[j:K:L], Xg):
                    if a or b:
                        t //= n
                        u += a * t
                        v += b * t
                sur += u * pr
                sui += u * pi
                svr += v * pr
                svi += v * pi
            ur, ui = (ur * gr - ui * gi + sur) >> W, (ur * gi + ui * gr + sui) >> W
            vr, vi = (vr * gr - vi * gi + svr) >> W, (vr * gi + vi * gr + svi) >> W
        sums.append((ur, ui, vr, vi))
    ur, ui, vr, vi = sums[0]
    if len(sums) > 1:  # U = U' + i U''
        ur2, ui2, vr2, vi2 = sums[1]
        ur, ui, vr, vi = ur - ui2, ui + ur2, vr - vi2, vi + vr2
    with mp.workprec(prec + GUARD_BITS):
        U = mp.mpc(mp.ldexp(ur, -W), mp.ldexp(ui, -W)) * q
        V = mp.mpc(mp.ldexp(vr, -W), mp.ldexp(vi, -W)) * q
        w = omega_mpc()
        return U + V * w, U + V * w.conjugate()


def _fricke(p, i, prec, at, form):
    """(C, z_f(tau0), z_fc(tau0)) at the Fricke involution's fixed point
    tau0 = i/sqrt(N), from z alone.

    f(W tau) = C N tau^2 f^c(tau) with W tau = -1/(N tau) gives d/dtau
    z_f(W tau) = C dz_fc/dtau, so z_f(W tau) = C z_fc(tau) + z0 with a
    constant z0 (the image of the cusp 0), and the two sites tau0 = W tau0
    and `at` give C = (z_f(tau0) - z_f(W at)) / (z_fc(tau0) - z_fc(at)).
    `at` defaults to 2 tau0, so W at = tau0/2.  `form` is extended in place
    to the terms the lowest site needs; one is built when it is missing.
    """
    _, N = conductor_and_level(p, i)
    with mp.workprec(prec + GUARD_BITS):
        tau0 = mp.mpc(0, 1) / mp.sqrt(N)
        a = 2 * tau0 if at is None else mp.mpc(at)
        wa = -1 / (N * a)
        M = terms_needed(min(a.imag, wa.imag, tau0.imag), prec)
        if form is None:
            form = build_form(p, i, M)
        form.extend(M)
        z_f, z_fc = eval_z(form, tau0, prec)
        C = (z_f - eval_z(form, wa, prec)[0]) / (z_fc - eval_z(form, a, prec)[1])
        return C, z_f, z_fc


def fricke_constant(p, i, prec=192, at=None, form=None):
    """C with f(-1/(N tau)) = C N tau^2 f^c(tau), measured from z (_fricke).

    Contracts: |C| = 1 and C^6 = pi^(2i)/pibar^(2i) (up to the sixth root of
    unity that stays unpinned); both are asserted by the acceptance suite
    rather than here.  `at` is the second site, off the fixed point; `form`
    is extended in place to the terms the sites need.
    """
    return _fricke(p, i, prec, at, form)[0]


def l_value_and_cusp_zero(p, i, prec=192, conjugate=False):
    """(z0, True) where z0 = L(f, 1) is the Abel-Jacobi image of the cusp 0.

    Splits the integral at the fixed point of the Fricke involution:
    z0 = z_f(i/sqrt(N)) - C z_fc(i/sqrt(N)).  Checks that z0 is a primitive
    sqrt(-3)-division point of the period lattice and that its wp-image has
    x = 0 (so y = +-pibar^i/2); raises TorsionCheckFailed otherwise.
    conjugate=True does the same for f^c from f's pairs, swapped.
    """
    split = split_prime(p)
    C, z_f, z_fc = _fricke(p, i, prec, None, None)
    with mp.workprec(prec + GUARD_BITS):
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
