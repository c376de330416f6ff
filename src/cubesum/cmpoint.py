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

from .eisenstein import EisensteinInt, is_prime_int, residue_map_omega, split_prime
from .heckeform import conductor_and_level


def solve_r(p):
    """Both roots of r^2 - r + 1 = 0 mod 3p in [0, 3p), each = 2 mod 3."""
    if not is_prime_int(p) or p % 3 != 1:
        raise ValueError(f"{p} must be a prime congruent to 1 mod 3")
    # r = -w and r = 1 + w = -w^2 mod p, for w a primitive cube root of 1
    w = residue_map_omega(split_prime(p).pi)
    roots = []
    for rp in (-w % p, (1 + w) % p):
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
    def re(self):
        """Re(site) = (3r - 3/2)/N, exact.

        6p Re(site) is 2r - 1 when N = 9p and (2r - 1)/3 when N = 27p, an odd
        integer either way (r = 2 mod 3), so q^(3p) = e^(6 pi i p site) is
        the real number -e^(-6 pi p Im(site)) here, for every p and i.
        """
        return Fraction(6 * self.point.r - 3, 2 * self.N)

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
