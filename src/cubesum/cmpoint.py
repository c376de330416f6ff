"""The CM evaluation site.

For r with r^2 - r + 1 = 0 mod 3p the CM point is tau_r = -1/(3w + 3r), and
a solve evaluates at its Fricke image W(tau_r) = (3w + 3r)/N, whose
imaginary part 3 sqrt(3)/2 / N is at least that of tau_r, sqrt(3)/2 / (9pt)
with t = (r^2 - r + 1)/(3p): the q-series there converge fastest.  The
other root of r^2 - r + 1 mod 3p is 1 - r, and 3w + 3(1 - r) = -conj(3w + 3r),
so its site gives the complex conjugates of the same sums and nothing new.
"""

from __future__ import annotations

from .eisenstein import EisensteinInt, Frozen, is_prime_int, residue_map_omega, split_prime
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


class EvalSite(Frozen):
    """W(tau_r) = (3w + 3r)/N, the Fricke image of the CM point tau_r of p,
    with t = (r^2 - r + 1)/(3p)."""

    __slots__ = ("p", "r", "t", "N")

    @property
    def re6(self):
        """(a, d) with 6 Re(site) = a/d, as ints: Re(site) = (3r - 3/2)/N,
        so a = 9 (2r - 1) and d = N.

        6p Re(site) is 2r - 1 when N = 9p and (2r - 1)/3 when N = 27p, an odd
        integer either way (r = 2 mod 3), so q^(3p) = e^(6 pi i p site) is
        the real number -e^(-6 pi p Im(site)) here, for every p and i.
        """
        return 9 * (2 * self.r - 1), self.N

    @property
    def im(self):
        """(s, a, d) with Im(site) = a sqrt(s)/d, as ints: (3, 3, 2N)."""
        return 3, 3, 2 * self.N

    def to_mpc(self, ctx):
        return EisensteinInt(3 * self.r, 3).to_mpc(ctx) / self.N

    def label(self):
        return f"wtau(r={self.r})"


def eval_site(p, i):
    """W(tau_r) for r = solve_r(p)[0], taken at the representative r mod 3p
    (r - 3p, r or r + 3p) with the least t."""
    r0 = solve_r(p)[0]
    r = min((r0 - 3 * p, r0, r0 + 3 * p), key=lambda rr: rr * rr - rr + 1)
    t = (r * r - r + 1) // (3 * p)
    if t % 3 != 1:
        raise AssertionError(f"t = {t} is not 1 mod 3 for r = {r}")
    _, N = conductor_and_level(p, i)
    return EvalSite(p, r, t, N)
