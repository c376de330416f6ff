from fractions import Fraction

from cubesum.cmpoint import eval_site, solve_r
from cubesum.eisenstein import is_prime_int, residue_map_omega, split_prime


def residue_classes(r, split):
    """(k_pi, k_pibar) with -r = w^k in the residue field mod pi resp. pibar."""
    out = []
    for g in (split.pi, split.pibar):
        w = residue_map_omega(g)
        out.append(next(k for k in (1, 2) if (-r - w**k) % split.p == 0))
    return tuple(out)


def test_solve_r_fixtures():
    assert solve_r(7) == (5, 17)
    assert 23 in solve_r(13)
    assert 26 in solve_r(31)


def test_solve_r_properties():
    for p in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109):
        r1, r2 = solve_r(p)
        for r in (r1, r2):
            assert (r * r - r + 1) % (3 * p) == 0
            assert r % 3 == 2
        assert (r1 + r2) % p == 1 % p  # the two roots sum to 1 mod p
    # against a brute-force search of [0, 3p) for every p = 1 mod 3 below 2000
    for p in range(7, 2000, 6):
        if is_prime_int(p):
            want = tuple(r for r in range(3 * p) if (r * r - r + 1) % (3 * p) == 0)
            assert solve_r(p) == want


def test_classify_root_fixtures():
    s7 = split_prime(7)
    # -5 = 2 = w mod (3w+1) and -5 = 2 = w^2 mod (-3w-2)
    assert residue_classes(5, s7) == (1, 2)
    s13 = split_prime(13)
    assert residue_classes(23, s13)[0] == 1  # -23 = 3 = w mod (3w+4)


def test_classify_root_conjugate_swap_and_complement():
    # -r is a primitive cube root of unity in both residue fields above p
    for p in (7, 13, 31, 37, 43, 61):
        s = split_prime(p)
        r1, r2 = solve_r(p)
        c1, c2 = residue_classes(r1, s), residue_classes(r2, s)
        # classes swap between pi and pibar
        assert c1[0] != c1[1]
        assert c2[0] != c2[1]
        # and the two roots are complementary
        assert c1[0] != c2[0]
        assert c1[1] != c2[1]


def test_eval_site_p7():
    site = eval_site(7, 1)
    # solve_r(7)[0] = 5 is its own minimal-t representative (t = 1)
    assert (site.p, site.r, site.t) == (7, 5, 1)
    assert site.label() == "wtau(r=5)"
    # N = 27p: W(tau_5) has the height of tau_5 itself, 1/(18pt)
    assert site.im == (3, 3, 2 * 189)
    assert Fraction(*site.im[1:]) == Fraction(1, 18 * 7)


def test_eval_site_p31_is_the_reference_site():
    site = eval_site(31, 1)
    assert (site.p, site.r, site.t) == (31, 26, 7)
    assert site.im == (3, 3, 2 * site.N)
    assert site.re6 == (9 * (2 * 26 - 1), site.N)


def test_candidate_invariants():
    for p, i in ((7, 1), (13, 1), (31, 1), (7, 2), (859, 2)):
        pt = eval_site(p, i)
        assert (pt.r**2 - pt.r + 1) == 3 * p * pt.t
        assert pt.t % 3 == 1
        assert pt.r % 3 == 2
        assert (pt.r - solve_r(p)[0]) % (3 * p) == 0


def test_sites_embed_to_upper_half_plane():
    import mpmath

    with mpmath.mp.workprec(80):
        for p, i in ((13, 1), (13, 2)):
            site = eval_site(p, i)
            tau = site.to_mpc(mpmath.mp)
            assert tau.imag > 0
            s, a, d = site.im
            want = mpmath.mpf(a) / d * mpmath.sqrt(s)
            assert abs(tau.imag - want) < mpmath.mpf(2) ** -60
            a, d = site.re6
            assert abs(6 * tau.real - mpmath.mpf(a) / d) < mpmath.mpf(2) ** -60


def test_wtau_higher_than_tau_when_t_large():
    # Im tau_r = sqrt(3) / (18pt): when t > 1 the Fricke image is higher
    for p, i in ((13, 1), (31, 1), (31, 2)):
        site = eval_site(p, i)
        assert site.t > 1
        assert Fraction(*site.im[1:]) > Fraction(1, 18 * p * site.t)


def test_q_to_the_3p_is_real_at_every_site():
    # 6p Re W(tau_r) is an odd integer, so x = q^3 has x^p = -e^(-6 pi p
    # Im tau): the q-sum kernel sums p real columns in its powers
    import mpmath

    from cubesum.eisenstein import is_prime_int

    sites = [
        eval_site(p, i)
        for p in range(2, 2000)
        if is_prime_int(p) and p % 9 in (4, 7)
        for i in (1, 2)
    ]
    assert len(sites) == 202
    for site in sites:
        p = site.p
        assert Fraction(*site.re6) == 6 * Fraction(6 * site.r - 3, 2 * site.N)
        six_p_re = p * Fraction(*site.re6)
        assert six_p_re.denominator == 1 and six_p_re.numerator % 2 == 1
        assert Fraction(*site.re6).denominator == p  # so the kernel takes L = p
    with mpmath.mp.workprec(192):
        for p, i in ((13, 1), (7, 1), (997, 2)):
            site = eval_site(p, i)
            tau = site.to_mpc(mpmath.mp)
            xp = mpmath.exp(6j * mpmath.pi * p * tau)
            want = -mpmath.exp(-6 * mpmath.pi * p * tau.imag)
            assert abs(xp - want) < mpmath.mpf(2) ** -150
