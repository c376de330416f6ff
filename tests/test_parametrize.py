from fractions import Fraction

import pytest
from mpmath import mp

from cubesum.curves import CurvePoint, endo_omega, mul
from cubesum.eisenstein import EisensteinInt, QOmega, is_prime_int, split_prime
from cubesum.heckeform import build_form
from cubesum import parametrize
from cubesum.analytic import TermsCapExceeded, omega_mpc
from cubesum.cmpoint import eval_site
from cubesum.curves import DescentFailed
from cubesum.parametrize import (
    EvalResidualTooLarge,
    PrecisionExhausted,
    RecognitionFailed,
    descend,
    evaluate_cm,
    recognize,
    solve_pipeline,
    twist_point,
)
from cubesum.analytic import eval_z, lattice_of_curve, terms_needed


def q(a, b=0):
    return QOmega(Fraction(a), Fraction(b))


def tau_r(r, prec):
    """The CM point tau_r = -1/(3w + 3r), as a plain complex number."""
    with mp.workprec(prec + 64):
        return -1 / EisensteinInt(3 * r, 3).to_mpc(mp)


def unit_orbit(P):
    """The six points (w^k x, +-y)."""
    out = []
    Q = P
    for _ in range(3):
        out.extend([Q, -Q])
        Q = endo_omega(Q)
    return out


def prepare(p, i, r, prec=192):
    """(split, z_f, z_fc) at tau_r, the CM point the reference fixtures use."""
    split = split_prime(p)
    tau = tau_r(r, prec)
    z_f, z_fc = eval_z(build_form(p, i, terms_needed(tau.imag, prec)), tau, prec)
    return split, z_f, z_fc


def test_evaluate_cm_p7_tau_fixture():
    # phi at tau_5 is the non-torsion side with y = (-9w-4)/2; phi^c there is
    # the torsion point (0, -pi/2)
    prec = 192
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    rec = recognize(raw, split, 1, 1 << 64, prec, form="f")
    assert rec.y == q(-2, Fraction(-9, 2))
    # x * pi^(2/3) recognized up to a unit twist of the cube-root branch
    orbit = {q(-1, 4) * q(0, 1) ** k for k in range(3)}
    assert rec.x_scaled in orbit

    kind_c, raw_c = evaluate_cm(z_fc, split.pi ** 2, prec)
    assert kind_c == "point"
    rec_c = recognize(raw_c, split, 1, 1 << 64, prec, form="fc")
    assert rec_c.x_scaled == q(0)
    assert rec_c.y in (split.pi.to_q() / 2, -split.pi.to_q() / 2)


def test_evaluate_cm_p13_tau23_torsion_fixture():
    # at the reference site r = 23 (t = 13), phi^c lands on (0, pi/2)
    prec = 192
    split, z_f, z_fc = prepare(13, 1, 23, prec)
    kind_c, raw_c = evaluate_cm(z_fc, split.pi ** 2, prec)
    assert kind_c == "point"
    rec_c = recognize(raw_c, split, 1, 1 << 64, prec, form="fc")
    assert rec_c.x_scaled == q(0)
    assert rec_c.y in (split.pi.to_q() / 2, -split.pi.to_q() / 2)


def test_evaluate_cm_lattice_point_with_noise_is_infinity():
    # z a lattice point up to noise far below 2^-(prec/2): wp_eval's pole
    # test is the only check that maps it to the point at infinity
    prec = 192
    D = split_prime(7).pibar ** 2
    L = lattice_of_curve(D, prec)
    with mp.workprec(prec + 32):
        noise = mp.mpf(2) ** -(prec - 8)
        for m, n, angle in ((0, 0, 0.3), (2, -1, 1.9), (-3, 5, 4.4)):
            z = L.from_coords(m, n) + noise * mp.expjpi(angle)
            assert evaluate_cm(z, D, prec) == ("infinity", None)


def test_recognize_p13_nontorsion_fixture():
    prec = 192
    split, z_f, z_fc = prepare(13, 1, 23, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    rec = recognize(raw, split, 1, 1 << 64, prec, form="f")
    assert rec.y in (q(Fraction(7, 2), Fraction(9, 2)), -q(Fraction(7, 2), Fraction(9, 2)))
    orbit = {q(-7, -2) * q(0, 1) ** k for k in range(3)}
    assert rec.x_scaled in orbit


def test_recognize_p31_fixture():
    prec = 224
    split, z_f, z_fc = prepare(31, 1, 26, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    rec = recognize(raw, split, 1, 1 << 80, prec, form="f")
    want_y = q(Fraction(-2531, 686), Fraction(-549, 343))
    assert rec.y in (want_y, -want_y)
    want_x = q(Fraction(-404, 49), Fraction(-130, 49))
    orbit = {want_x * q(0, 1) ** k for k in range(3)}
    assert rec.x_scaled in orbit


def test_recognized_point_reembedding():
    prec = 192
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    rec = recognize(raw, split, 1, 1 << 64, prec, form="f")
    with mp.workprec(prec + 32):
        # x_scaled re-embeds onto x * mult^(2/3) * w^k to within 2^-(prec/2)
        m = (split.pi if rec.mult_tag == "pi" else split.pibar).to_mpc(mp)
        scaled = raw[0] * (m * m) ** (mp.mpf(1) / 3) * omega_mpc() ** rec.twist_k
        assert abs(rec.x_scaled.to_mpc(mp) - scaled) <= mp.mpf(2) ** (-(prec // 2))
        yv = rec.y.to_mpc(mp)
        assert abs(yv - raw[1]) < mp.mpf(2) ** (-(prec // 2))


def test_twist_and_combine_reference_points():
    # the three reference K-points, each up to the documented 6-orbit
    targets = {
        (7, 1): CurvePoint.make(q(49), q(0, Fraction(-7, 3)), q(Fraction(7, 18), Fraction(7, 9))),
        (13, 1): CurvePoint.make(
            q(169), q(Fraction(13, 3), Fraction(13, 3)), q(Fraction(65, 18), Fraction(65, 9))
        ),
        (31, 1): CurvePoint.make(
            q(961), q(0, Fraction(-217, 12)), q(Fraction(-3131, 72), Fraction(-3131, 36))
        ),
    }
    # x for 13: -13 w^2 / 3 = 13/3 + 13/3 w; y = 65 sqrt(-3)/18 = 65/18 + 65/9 w
    for (p, i), want in targets.items():
        r = solve_pipeline(p, i)
        assert r.point_K in unit_orbit(want), f"p={p}: {r.point_K} not in orbit"


def test_twist_point_exactness_certifies():
    # corrupting a recognized coordinate must be caught by the exact check
    split = split_prime(7)
    prec = 192
    _, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    rec = recognize(raw, split, 1, 1 << 64, prec, form="f")
    import dataclasses

    bad = dataclasses.replace(rec, y=rec.y + q(1))
    with pytest.raises(RecognitionFailed):
        twist_point(bad, split, 1)


def test_descend_trace_branch_directly():
    # conj acts by w -> -1-w on coordinates; a rational input returns [2]P
    P = CurvePoint.make(q(49), q(Fraction(-20, 9)), q(Fraction(-61, 54)))
    assert P.conj() == P
    R, branch, cert = descend(P, 7, 1)
    assert R.is_rational()
    assert branch.startswith("trace")
    assert R == mul(2, P)
    assert cert.nontorsion


def test_descend_output_invariants():
    for p, i in ((7, 1), (13, 1)):
        r = solve_pipeline(p, i)
        PQ = r.point_Q
        assert PQ.is_rational()
        assert PQ.on_curve()
        assert PQ.x.b == 0 and PQ.y.b == 0
        assert r.certificate.nontorsion


def test_twist_point_at_infinity():
    from cubesum.parametrize import recognized_infinity

    split = split_prime(7)
    P = twist_point(recognized_infinity("f"), split, 1)
    assert P.is_infinity


def test_pipeline_alternate_precision():
    r = solve_pipeline(7, 1, bits=96)
    assert r.cube.verify() and r.bits == 96
    r = solve_pipeline(7, 1, bits=320)
    assert r.cube.verify() and r.bits == 320


def test_pipeline_determinism():
    r1 = solve_pipeline(13, 1)
    r2 = solve_pipeline(13, 1)
    assert r1.cube == r2.cube
    assert r1.point_K == r2.point_K
    assert r1.site.label() == r2.site.label()
    assert r1.bits == r2.bits and r1.terms == r2.terms


def test_pipeline_terms_cap():
    with pytest.raises(PrecisionExhausted):
        solve_pipeline(7, 1, max_terms=40)


def test_torsion_site_value_is_negative_cusp_image():
    # diagnostic, not load-bearing: the torsion value observed at a CM site
    # is the negation of the cusp-zero image of the same form
    from cubesum.analytic import l_value_and_cusp_zero, lattice_of_curve, wp_eval

    for p in (7, 13, 31):
        split = split_prime(p)
        r = solve_pipeline(p, 1)
        tor = r.rec_fc if (r.rec_fc.x_scaled is not None and not r.rec_fc.x_scaled) else r.rec_f
        conj = tor.form == "fc"
        z0, _ = l_value_and_cusp_zero(p, 1, 192, conjugate=conj)
        base = split.pi if conj else split.pibar
        L = lattice_of_curve(base**2, 192)
        with mp.workprec(224):
            _, ypr = wp_eval(L, z0, 192)
            half = base.to_mpc(mp) / 2
            cusp_sign = 1 if abs(ypr / 2 - half) < abs(ypr / 2 + half) else -1
        site_sign = 1 if tor.y == base.to_q() / 2 else -1
        assert site_sign == -cusp_sign


def test_exactly_one_torsion_side():
    # at W(tau_r) one of f, f^c gives a torsion point and the other the
    # nontorsion one
    for p, i in ((7, 1), (13, 1), (31, 1), (7, 2)):
        r = solve_pipeline(p, i)
        assert r.site == eval_site(p, i)
        tor_f = r.rec_f.at_infinity or not r.rec_f.x_scaled
        tor_fc = r.rec_fc.at_infinity or not r.rec_fc.x_scaled
        assert tor_f != tor_fc


# ------------------------------------------------------- escalation schedule

SITE = eval_site(7, 1).label()  # wtau(r=5)
RUNG_BITS = [192, 384, 768, 1536, 3072]


def stub_attempts(monkeypatch, outcome):
    """Replace _attempt_site by a recorder of (site label, bits) calls.

    outcome(label, bits) gives the exception the attempt raises, or None for
    a win; a win returns a bare object standing in for the result.
    """
    calls = []

    def fake(cand, split, p, i, prec, max_terms, form):
        label = cand.site.label()
        calls.append((label, prec))
        exc = outcome(label, prec)
        if exc is not None:
            raise exc
        return type("Won", (), {"label": label, "bits": prec})()

    monkeypatch.setattr(parametrize, "_attempt_site", fake)
    return calls


def test_schedule_precision_failure_escalates_first_site(monkeypatch):
    def outcome(label, bits):
        return None if bits >= 384 else RecognitionFailed("x not recognized")

    calls = stub_attempts(monkeypatch, outcome)
    r = solve_pipeline(7, 1)
    assert calls == [(SITE, 192), (SITE, 384)]
    assert (r.label, r.bits) == (SITE, 384)
    assert r.attempts == [
        {"site": SITE, "bits": 192, "error": "RecognitionFailed", "message": "x not recognized"}
    ]


@pytest.mark.parametrize("site_failure", [DescentFailed, TermsCapExceeded])
def test_schedule_site_failure_ends_the_solve(monkeypatch, site_failure):
    # more bits cannot mend it: no further rung is tried after it
    def outcome(label, bits):
        return EvalResidualTooLarge("residual too large") if bits == 192 else site_failure("no")

    calls = stub_attempts(monkeypatch, outcome)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert calls == [(SITE, 192), (SITE, 384)]
    assert str(info.value).split("; ") == [
        f"{SITE}@192b: EvalResidualTooLarge: residual too large",
        f"{SITE}@384b: {site_failure.__name__}: no",
    ]


def test_schedule_total_exhaustion(monkeypatch):
    calls = stub_attempts(monkeypatch, lambda label, bits: RecognitionFailed("no"))
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    # the one site at every rung, each attempt named in the message
    assert calls == [(SITE, b) for b in RUNG_BITS]
    entries = str(info.value).split("; ")
    assert entries == [f"{s}@{b}b: RecognitionFailed: no" for s, b in calls]


def test_identity_difference_is_a_site_failure(monkeypatch):
    # a twisted difference that is the identity ends the solve at its first
    # rung; it is not retried at higher precision
    def identity(rp_f, rp_fc, split, i):
        return CurvePoint.infinity(q(Fraction(split.p) ** (2 * i)))

    calls = []
    real = parametrize._attempt_site

    def spy(cand, split, p, i, prec, *rest):
        calls.append((cand.site.label(), prec))
        return real(cand, split, p, i, prec, *rest)

    monkeypatch.setattr(parametrize, "twist_and_combine", identity)
    monkeypatch.setattr(parametrize, "_attempt_site", spy)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert calls == [(SITE, 192)]
    assert str(info.value).count("DescentFailed: twisted difference is the identity") == 1


def test_pipeline_103_squared_wins_after_one_retry():
    # x_scaled of the nontorsion side has a 155-bit denominator: over the
    # 2^84 bound at 192 bits, inside the 2^180 bound at 384
    r = solve_pipeline(103, 2)
    assert (r.site.label(), r.bits, r.terms) == ("wtau(r=47)", 384, 46322)
    assert [(a["site"], a["bits"], a["error"]) for a in r.attempts] == [
        ("wtau(r=47)", 192, "RecognitionFailed")
    ]
    assert "not recognized" in r.attempts[0]["message"]
    assert "2^84" in r.attempts[0]["message"]
    assert r.checks["precision_margin_bits"] == {"f": 25, "fc": 180}
    assert r.cube.verify()


def test_pipeline_79_squared_wins_at_192_bits():
    # y would need about 1.5 times x's denominator bits; x alone fits 192
    r = solve_pipeline(79, 2)
    assert (r.site.label(), r.bits) == ("wtau(r=56)", 192)
    assert r.attempts == []
    assert r.cube.verify()


# ------------------------------------------------------- exact y from x


def nontorsion_fixture_raw(prec=192):
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    return split, raw


def test_recognize_takes_the_sign_of_y_from_the_numbers():
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    rec = recognize((x, y), split, 1, 1 << 84, prec, form="f")
    with mp.workprec(prec + 32):  # mpmath rounds even a negation
        minus_y = -y
    flipped = recognize((x, minus_y), split, 1, 1 << 84, prec, form="f")
    assert rec.y == q(-2, Fraction(-9, 2))
    assert flipped.y == -rec.y
    assert flipped.x_scaled == rec.x_scaled and flipped.twist_k == rec.twist_k


@pytest.mark.parametrize("delta", [Fraction(1, 1000), Fraction(-3, 7), Fraction(1, 2**40)])
def test_recognize_rejects_a_perturbed_x(delta):
    # x + delta, scaled by the irrational cube root, has no exact y: every
    # candidate's S is a non-square in Z[w], so no point comes back
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    with mp.workprec(prec + 32):
        bad_x = x + mp.mpf(delta.numerator) / delta.denominator
    with pytest.raises(RecognitionFailed, match="not recognized"):
        recognize((bad_x, y), split, 1, 1 << 84, prec, form="f")


def test_recognize_rejects_an_exact_y_off_the_numbers():
    # the true x with a numeric y that is not its y: the exact root exists
    # but disagrees with the numbers, so recognition fails
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    with mp.workprec(prec + 32):
        off = y + mp.mpf(2) ** -40
    with pytest.raises(RecognitionFailed, match="no exact y"):
        recognize((x, off), split, 1, 1 << 84, prec, form="f")


# ------------------------------------------------------------------ sweep


def test_sweep_small_primes():
    # every eligible p < 600 at power 1 and p < 150 at power 2 solves, and
    # the cube identity holds when recomputed here in rationals
    for i, bound in ((1, 600), (2, 150)):
        for p in range(7, bound):
            if p % 9 in (4, 7) and is_prime_int(p):
                r = solve_pipeline(p, i)
                u, v = Fraction(r.cube.u), Fraction(r.cube.v)
                assert u**3 + v**3 == p**i, (p, i)
