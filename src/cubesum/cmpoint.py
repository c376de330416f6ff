"""Candidate CM evaluation points.

For r with r^2 - r + 1 = 0 mod 3p the two sites are tau_r = -1/(3w + 3r) and
its Fricke image W(tau_r) = (3w + 3r)/N.  Writing t = (r^2 - r + 1)/(3p), the
imaginary parts are sqrt(3)/2 / (9pt) and 3 sqrt(3)/2 / N; candidates are
ranked by those heights since they control q-series convergence.  -r is a
primitive cube root of unity in both residue fields above p, and which root
it is decides (up to a residue-orientation convention the pipeline probes
empirically) where the non-torsion point shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import EisensteinInt, is_prime_int, residue_map_omega, split_prime
from .heckeform import conductor_and_level


class NotCubeRoot(ArithmeticError):
    pass


def _sqrt_mod(a, p):
    """Tonelli-Shanks square root of a mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, k = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            k += 1
        b = pow(c, 1 << (m - k - 1), p)
        m, c = k, b * b % p
        t, r = t * c % p, r * b % p
    return r


def solve_r(p):
    """Both roots of r^2 - r + 1 = 0 mod 3p in [0, 3p), each = 2 mod 3."""
    if not is_prime_int(p) or p % 3 != 1:
        raise ValueError(f"{p} must be a prime congruent to 1 mod 3")
    s = _sqrt_mod(p - 3, p)  # sqrt(-3) mod p
    r_mod_p = (1 + s) * pow(2, -1, p) % p
    roots = []
    for rp in (r_mod_p, (1 - r_mod_p) % p):
        # CRT with r = 2 mod 3
        r = rp
        while r % 3 != 2:
            r += p
        r %= 3 * p
        if (r * r - r + 1) % (3 * p):
            raise AssertionError(f"r = {r} is not a root of r^2 - r + 1 mod {3 * p}")
        roots.append(r)
    return tuple(sorted(roots))


def classify_root(r, split):
    """(k_pi, k_pibar) with -r = w^k in the residue field mod pi resp. pibar."""
    p = split.p
    out = []
    for g in (split.pi, split.pibar):
        w = residue_map_omega(g)
        if (-r - w) % p == 0:
            out.append(1)
        elif (-r - w * w) % p == 0:
            out.append(2)
        else:
            raise NotCubeRoot(f"-{r} is not a primitive cube root of unity mod {g}")
    return tuple(out)


@dataclass(frozen=True)
class CMPoint:
    p: int
    r: int
    t: int
    class_pi: int
    class_pibar: int

    @property
    def denom(self):
        """3w + 3r, the exact denominator of tau_r."""
        return EisensteinInt(3 * self.r, 3)


@dataclass(frozen=True)
class EvalSite:
    """One evaluation site: tau_r itself or its Fricke image."""

    kind: str  # "tau" or "wtau"
    point: CMPoint
    N: int
    im_coeff: Fraction  # Im(site) = im_coeff * sqrt(3)

    def to_mpc(self, ctx):
        z = self.point.denom.to_mpc(ctx)  # 3w + 3r
        if self.kind == "tau":
            return -1 / z
        return z / self.N

    def label(self):
        return f"{self.kind}(r={self.point.r})"


@dataclass(frozen=True)
class Candidate:
    site: EvalSite
    predicted_nontorsion: str  # "f" or "fc"


def _min_t_representative(r, p):
    best = None
    for rr in (r - 3 * p, r, r + 3 * p):
        t, rem = divmod(rr * rr - rr + 1, 3 * p)
        if rem:
            raise AssertionError(f"3*{p} does not divide r^2 - r + 1 at r = {rr}")
        if best is None or t < best[0]:
            best = (t, rr)
    return best[1], best[0]


def candidate_points(p, i):
    """All four (root, site) combinations, ranked by descending Im of the
    site (ties broken toward the Fricke image, whose series converge first)."""
    split = split_prime(p)
    _, N = conductor_and_level(p, i)
    cands = []
    for r0 in solve_r(p):
        r, t = _min_t_representative(r0, p)
        if t % 3 != 1:
            raise AssertionError(f"t = {t} is not 1 mod 3 for r = {r}")
        k_pi, k_pibar = classify_root(r, split)
        pt = CMPoint(p=p, r=r, t=t, class_pi=k_pi, class_pibar=k_pibar)
        # -r = w^2 puts the non-torsion point on f at tau_r and on f^c at
        # W(tau_r); under this module's residue conventions the condition
        # holds mod pibar for the reference examples (measured, and the
        # pipeline probes both forms regardless)
        pred_tau = "f" if k_pibar == 2 else "fc"
        pred_wtau = "fc" if k_pibar == 2 else "f"
        cands.append(
            Candidate(
                site=EvalSite("tau", pt, N, Fraction(1, 18 * p * t)),
                predicted_nontorsion=pred_tau,
            )
        )
        cands.append(
            Candidate(
                site=EvalSite("wtau", pt, N, Fraction(3, 2 * N)),
                predicted_nontorsion=pred_wtau,
            )
        )
    cands.sort(key=lambda c: (-c.site.im_coeff, c.site.kind != "wtau"))
    return cands
