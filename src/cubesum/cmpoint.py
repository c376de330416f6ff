"""The CM evaluation site.

For r with r^2 - r + 1 = 0 mod 3p the CM point is tau_r = -1/(3w + 3r), and
a solve evaluates at its Fricke image W(tau_r) = (3w + 3r)/N, whose
imaginary part 3 sqrt(3)/2 / N is at least that of tau_r, sqrt(3)/2 / (9pt)
with t = (r^2 - r + 1)/(3p): the q-series there converge fastest.  The
other root of r^2 - r + 1 mod 3p is 1 - r, and 3w + 3(1 - r) = -conj(3w + 3r),
so its site gives the complex conjugates of the same sums and nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import EisensteinInt, is_prime_int
from .heckeform import conductor_and_level


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


@dataclass(frozen=True)
class CMPoint:
    p: int
    r: int
    t: int

    @property
    def denom(self):
        """3w + 3r, the exact denominator of tau_r."""
        return EisensteinInt(3 * self.r, 3)


@dataclass(frozen=True)
class EvalSite:
    """W(tau_r) = (3w + 3r)/N, the Fricke image of the CM point tau_r."""

    point: CMPoint
    N: int

    @property
    def im_coeff(self):
        """Im(site) / sqrt(3), exact."""
        return Fraction(3, 2 * self.N)

    def to_mpc(self, ctx):
        return self.point.denom.to_mpc(ctx) / self.N

    def label(self):
        return f"wtau(r={self.point.r})"


def eval_site(p, i):
    """W(tau_r) for r = solve_r(p)[0], taken at the representative r mod 3p
    (r - 3p, r or r + 3p) with the least t."""
    r0 = solve_r(p)[0]
    r = min((r0 - 3 * p, r0, r0 + 3 * p), key=lambda rr: rr * rr - rr + 1)
    t = (r * r - r + 1) // (3 * p)
    if t % 3 != 1:
        raise AssertionError(f"t = {t} is not 1 mod 3 for r = {r}")
    _, N = conductor_and_level(p, i)
    return EvalSite(CMPoint(p=p, r=r, t=t), N)
