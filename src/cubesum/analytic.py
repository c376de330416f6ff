"""Arbitrary-precision analytics for the parametrization.

All lattices here are hexagonal: L = Omega * Z[w], so g2 = 0 and the whole
Laurent expansion of wp is driven by g3 alone.  The lattice of y^2 = x^3 +
D/4 (model y = wp'/2, x = wp) has g3 = -D; it is computed by scaling the
reference lattice Z[w], whose g3 is evaluated once from the weight-6
Eisenstein q-series at the hexagonal point.  Any sixth root can be taken for
Omega because the units of Z[w] are exactly the sixth roots of unity.

Numerical conventions: every public function takes a target precision in
bits and works internally with 32 guard bits; "lies in L" always means the
lattice coordinates round to integers with residual below 2^(-prec/2).
The q-sums of the newform run in fixed-point Python integers, one pass for
f and its conjugate f^c (_q_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


_g3_cache = {}


def eisenstein_g3_base(prec):
    """g3 of the reference lattice Z[w], via E6 at the hexagonal point.

    g3 = 140 G_6 and G_6 = 2 zeta(6) E_6, with q = -e^(-pi sqrt(3)).  E_4
    vanishes at this point, which is asserted as a self-check of the series.
    """
    if prec in _g3_cache:
        return _g3_cache[prec]
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
    _g3_cache[prec] = g3
    return g3


@dataclass
class PeriodLattice:
    """L = Omega * Z[w] with g3 = -D for the curve y^2 = x^3 + D/4."""

    Omega: object
    g3: object
    D: object
    prec: int
    _G: list = field(default_factory=list, repr=False)

    def basis(self):
        with mp.workprec(self.prec + GUARD_BITS):
            return (self.Omega, self.Omega * omega_mpc())

    def min_vector(self):
        return abs(self.Omega)

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

    def laurent_G(self, count):
        if count > len(self._G):
            with mp.workprec(self.prec + GUARD_BITS):
                self._G = wp_laurent_coefficients(mp.mpc(self.g3), count)
        return self._G[:count]


def lattice_of_curve(D, prec=192):
    """Period lattice of y^2 = x^3 + D/4, i.e. the hexagonal lattice with
    g3 = -D; Omega is any sixth root of g3(Z[w]) / (-D)."""
    with mp.workprec(prec + GUARD_BITS):
        Dc = _to_mpc(D)
        if Dc == 0:
            raise ValueError("D must be nonzero")
        g3_base = eisenstein_g3_base(prec)
        Omega = (g3_base / (-Dc)) ** (mp.mpf(1) / 6)
        return PeriodLattice(Omega=Omega, g3=-Dc, D=D, prec=prec)


# -------------------------------------------------------------- wp values


SERIES_RADIUS = 0.35  # of the shortest lattice vector; else halve first


def _wp_series(L, z, prec):
    """(wp, wp') by the Laurent series; caller guarantees |z| is small."""
    with mp.workprec(prec + GUARD_BITS):
        ratio = abs(z) / L.min_vector()
        bits_per_k = -6 * math.log2(max(float(ratio), 1e-12))
        kmax = int((prec + 48) / max(bits_per_k, 1.0)) + 6
        G = L.laurent_G(kmax)
        z2 = z * z
        z3 = z2 * z
        z6 = z3 * z3
        wp = 1 / z2
        wpd = -2 / z3
        zp4 = z2 * z2
        zp3 = z3
        for k in range(kmax):
            wp += (6 * k + 5) * G[k] * zp4
            wpd += (6 * k + 4) * (6 * k + 5) * G[k] * zp3
            zp4 *= z6
            zp3 *= z6
        return wp, wpd


def wp_eval(L, z, prec=None):
    """(wp(z), wp'(z)) for the lattice L, reducing z mod L first.

    Uses the Laurent series inside SERIES_RADIUS of the shortest vector and
    one duplication step otherwise (a reduced point is within 0.578 of the
    shortest vector, so a single halving always reaches the series region).
    """
    prec = prec if prec is not None else L.prec
    with mp.workprec(prec + GUARD_BITS):
        zr, _ = L.reduce(z)
        scale = L.min_vector()
        if abs(zr) < scale * mp.mpf(2) ** (-(prec // 2)):
            raise PoleAtLatticePoint(f"z = {z} lies on the lattice")
        halvings = 0
        w = zr
        while abs(w) > SERIES_RADIUS * scale:
            w = w / 2
            halvings += 1
            if halvings > 2:  # cannot happen for a reduced point
                raise ArithmeticError("duplication descent failed to converge")
        wp, wpd = _wp_series(L, w, prec)
        for _ in range(halvings):
            if wpd == 0:
                raise PoleAtLatticePoint("duplication hit a 2-torsion point")
            lam = 3 * wp * wp / wpd
            wp2 = lam * lam - 2 * wp
            wpd2 = 2 * lam * (wp - wp2) - wpd
            wp, wpd = wp2, wpd2
        return wp, wpd


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
