"""Arbitrary-precision analytics for the parametrization.

All lattices here are hexagonal: L = Omega * Z[w], so g2 = 0 and wp_L(z) =
Omega^-2 wp_0(z/Omega), where wp_0 belongs to the base lattice Z[w].  The
base lattice is computed once per precision: its g3, from the weight-6
Eisenstein q-series at the hexagonal point, and its Laurent coefficients.
The lattice of y^2 = x^3 + D/4 (model y = wp'/2, x = wp) has g3 = -D, so
Omega^6 = g3(Z[w]) / (-D); any sixth root can be taken because the units of
Z[w] are exactly the sixth roots of unity.

Numerical conventions: every public function takes a target precision in
bits and works internally with 32 guard bits; "lies in L" always means the
lattice coordinates round to integers with residual below 2^(-prec/2).
The q-sums of the newform run in fixed-point Python integers, one pass for
f and its conjugate f^c (_q_sums).
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
    m = 0 mod 3 survives, i.e. the weights 6, 12, 18, ...
    """
    zero = g3 - g3
    mmax = 3 * count
    c = [zero] * (mmax + 1)
    if mmax >= 3:
        c[3] = g3 / 28
    for m in range(6, mmax + 1, 3):
        s = zero
        for h in range(3, m - 2, 3):
            s = s + c[h] * c[m - h]
        c[m] = (s * 3) / ((m - 3) * (2 * m + 1))
    return [c[3 * k + 3] / (6 * k + 5) for k in range(count)]


# ----------------------------------------------------------- base lattice


SERIES_RADIUS = 0.35  # |z/Omega| up to which wp is summed; else halve first

_base_cache = {}


def _base_lattice(prec):
    """(g3, G) of the reference lattice Z[w], computed once per precision.

    g3 = 140 G_6 and G_6 = 2 zeta(6) E_6, with q = -e^(-pi sqrt(3)).  E_4
    vanishes at this point, which is checked as a self-test of the series.
    G = [G_6, G_12, ...] has enough terms for the Laurent series of wp_0 to
    reach 2^-(prec + 48) inside SERIES_RADIUS: G_6k tends to 6 (the six
    units), so each term gains -6 log2(SERIES_RADIUS) bits.
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
        _base_cache[prec] = g3, wp_laurent_coefficients(g3, kmax)
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

    def reduce(self, z):
        """Minimal-norm representative of z mod L (and the coords removed)."""
        with mp.workprec(self.prec + GUARD_BITS):
            x, y = self.coords(z)
            m, n = int(mp.nint(x)), int(mp.nint(y))
            r = mp.mpc(z) - self.from_coords(m, n)
            # the rounding box is a parallelogram; fix up to the true Voronoi
            # cell by checking the six unit directions
            best, bm, bn = r, m, n
            for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                cand = mp.mpc(z) - self.from_coords(m + dm, n + dn)
                if abs(cand) < abs(best):
                    best, bm, bn = cand, m + dm, n + dn
            return best, (bm, bn)

    def residual(self, z):
        """Distance of the lattice coordinates of z from the nearest integers."""
        x, y = self.coords(z)
        with mp.workprec(self.prec + GUARD_BITS):
            return max(abs(x - mp.nint(x)), abs(y - mp.nint(y)))

    def contains(self, z, tol_bits=None):
        tol = mp.mpf(2) ** (-(tol_bits if tol_bits is not None else self.prec // 2))
        return self.residual(z) < tol


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
    """(wp(z), wp'(z)) for the lattice L, reducing z mod L first.

    With xi = z/Omega for the reduced z, wp_L(z) = Omega^-2 wp_0(xi) and
    wp_L'(z) = Omega^-3 wp_0'(xi).  wp_0 is the Laurent series of Z[w] for
    |xi| <= SERIES_RADIUS; otherwise xi is halved and the duplication formula
    undoes it (a reduced xi has |xi| <= 1/sqrt(3), so once is enough).
    """
    prec = prec if prec is not None else L.prec
    _, G = _base_lattice(prec)
    with mp.workprec(prec + GUARD_BITS):
        zr, _ = L.reduce(z)
        xi = zr / L.Omega
        if abs(xi) < mp.mpf(2) ** (-(prec // 2)):
            raise PoleAtLatticePoint(f"z = {z} lies on the lattice")
        halvings = 0
        while abs(xi) > SERIES_RADIUS:
            xi = xi / 2
            halvings += 1
            if halvings > 2:  # cannot happen for a reduced point
                raise ArithmeticError("duplication descent failed to converge")
        # wp_0 = xi^-2 + sum (6k+5) G_k xi^(6k+4), by Horner in xi^6
        xi2 = xi * xi
        xi3 = xi2 * xi
        t = xi3 * xi3
        s = sd = 0
        for k in reversed(range(len(G))):
            c = (6 * k + 5) * G[k]
            s = s * t + c
            sd = sd * t + (6 * k + 4) * c
        wp = 1 / xi2 + s * xi2 * xi2
        wpd = -2 / xi3 + sd * xi3
        for _ in range(halvings):
            if wpd == 0:
                raise PoleAtLatticePoint("duplication hit a 2-torsion point")
            lam = 3 * wp * wp / wpd
            wp2 = lam * lam - 2 * wp
            wpd2 = 2 * lam * (wp - wp2) - wpd
            wp, wpd = wp2, wpd2
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


KERNEL_GUARD_BITS = 8


def _q_sums(form, site, prec, max_terms, divide_by_n):
    """(S, S^c) with S = sum c_n q^n over n <= M for the form and its
    conjugate, where c_n = a_n/n (divide_by_n) or a_n, and M =
    terms_needed(Im tau, prec).

    One fixed-point pass: q^n (n = 1 mod 3) is stepped as a pair of integers
    scaled by 2^W, and with a_n = alpha_n + beta_n w it accumulates A = sum
    alpha_n/n q^n and B = sum beta_n/n q^n, so S = A + B w and S^c = A + B
    conj(w).  Every product and quotient rounds down by less than one unit
    of 2^-W.  As |q^3| < 1, the error of the stepped q^n stays within a few
    units over 1 - |q^3| (about M/prec), and the terms weight it by
    sum |a_n|/n; the total stays below 2^KERNEL_GUARD_BITS * M units, so
    W = prec + GUARD_BITS + M.bit_length() + KERNEL_GUARD_BITS keeps it
    below 2^-(prec + GUARD_BITS), the precision the sums are returned at.
    """
    with mp.workprec(prec + GUARD_BITS):
        tau = _site_to_tau(site)
        M = terms_needed(tau.imag, prec)
        if max_terms is not None and M > max_terms:
            raise TermsCapExceeded(f"site needs {M} terms, cap is {max_terms}")
        if M > form.terms:
            raise ValueError(f"form has {form.terms} coefficients, site needs {M}")
    W = prec + GUARD_BITS + M.bit_length() + KERNEL_GUARD_BITS
    with mp.workprec(W):
        q = mp.exp(2j * mp.pi * _site_to_tau(site))
        q3 = q**3
        qr, qi = to_fixed(q.real._mpf_, W), to_fixed(q.imag._mpf_, W)
        cr, ci = to_fixed(q3.real._mpf_, W), to_fixed(q3.imag._mpf_, W)
    alpha, beta = form.alpha, form.beta
    ar = ai = br = bi = 0
    for n in range(1, M + 1, 3):
        a, b = alpha[n], beta[n]
        if a or b:
            d = n if divide_by_n else 1
            ar += a * qr // d
            ai += a * qi // d
            br += b * qr // d
            bi += b * qi // d
        qr, qi = (qr * cr - qi * ci) >> W, (qr * ci + qi * cr) >> W
    with mp.workprec(prec + GUARD_BITS):
        A = mp.mpc(mp.ldexp(ar, -W), mp.ldexp(ai, -W))
        B = mp.mpc(mp.ldexp(br, -W), mp.ldexp(bi, -W))
        w = omega_mpc()
        return A + B * w, A + B * w.conjugate()


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
    where f and f^c come from one pass.  `form` (a solve's own store, say)
    is extended in place to the terms the site needs; one is built when it
    is missing.
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


def measure_beta(p, i, prec=160, form=None):
    """(k, residual): the sixth root of unity beta = C (pibar/pi)^(i/3).

    The exact sixth root is not pinned a priori; it is measured against the
    principal branch of the cube root and reported per (p, i).  `form` is
    handed to fricke_constant (a solve passes its coefficient store).
    """
    split = split_prime(p)
    C = fricke_constant(p, i, prec, form=form)
    with mp.workprec(prec + GUARD_BITS):
        third = mp.mpf(i) / 3
        beta = C * (split.pibar.to_mpc(mp) / split.pi.to_mpc(mp)) ** third
        best = min(range(6), key=lambda k: abs(beta - mp.e ** (mp.mpc(0, k) * mp.pi / 3)))
        res = abs(beta - mp.e ** (mp.mpc(0, best) * mp.pi / 3))
        return best, res


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
