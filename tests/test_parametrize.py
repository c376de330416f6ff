from fractions import Fraction

import pytest
from mpmath import mp

from cubesum.curves import CurvePoint, endo_omega, mul
from cubesum.eisenstein import EisensteinInt, QOmega, is_prime_int, split_prime
from cubesum.heckeform import build_form
from cubesum import parametrize
from cubesum.analytic import GUARD_BITS, fixed_of, fixed_to_mpc, mpc_to_fixed
from cubesum.cmpoint import eval_site
from cubesum.curves import DescentFailed
from cubesum.parametrize import (
    EvalResidualTooLarge,
    PrecisionExhausted,
    RecognitionFailed,
    TermsCapExceeded,
    descend,
    evaluate_cm,
    recognize,
    solve_pipeline,
    twist_point,
)
from cubesum.analytic import eval_z, lattice_of_curve, terms_needed
from test_analytic import lattice_omega, omega_mpc


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
            z = lattice_omega(L) * (m + n * omega_mpc()) + noise * mp.expjpi(angle)
            assert evaluate_cm(mpc_to_fixed(z, L.W), D, prec) == ("infinity", None)


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
        x, y = (fixed_to_mpc(v, prec + GUARD_BITS) for v in raw)
        # x_scaled re-embeds onto x * pi^(2/3) (f's one scaling, principal
        # root) to within 2^-(prec/2)
        assert rec.form == "f"
        m = split.pi.to_mpc(mp)
        scaled = x * (m * m) ** (mp.mpf(1) / 3)
        assert abs(rec.x_scaled.to_mpc(mp) - scaled) <= mp.mpf(2) ** (-(prec // 2))
        yv = rec.y.to_mpc(mp)
        assert abs(yv - y) < mp.mpf(2) ** (-(prec // 2))


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


def attempt_with_sides(monkeypatch, f_side, fc_side):
    """7^1's 96-bit attempt with evaluate_cm's outcome for f and for f^c
    replaced: "real" keeps it, "T" gives the numbers of the 3-torsion point
    (0, base^i/2) of that form's curve and "infinity" the point at infinity.
    At this site f is the torsion side and f^c the tall one."""
    p, i, prec = 7, 1, 96
    split = split_prime(p)

    def fake(z, D, prec, lattice=None):
        tag = "f" if D == split.pibar ** (2 * i) else "fc"
        side = f_side if tag == "f" else fc_side
        if side == "real":
            return evaluate_cm(z, D, prec, lattice)
        if side == "infinity":
            return "infinity", None
        base = split.pibar if tag == "f" else split.pi
        return "point", ((0, 0), tuple(c >> 1 for c in fixed_of(base**i, prec + GUARD_BITS)))

    monkeypatch.setattr(parametrize, "evaluate_cm", fake)
    cand = parametrize.Candidate(eval_site(p, i))
    return parametrize._attempt_site(cand, split, p, i, prec, None, build_form(p, i, 0))


@pytest.mark.parametrize(
    "f_side, fc_side, error, message",
    [
        ("infinity", "infinity", RecognitionFailed, "neither f nor f"),
        ("infinity", "real", RecognitionFailed, "neither f nor f"),
        ("real", "T", DescentFailed, "both at the 3-torsion point"),
        ("T", "T", DescentFailed, "both at the 3-torsion point"),
    ],
    ids=["both-at-infinity", "f-at-infinity", "real-f-and-T", "T-and-T"],
)
def test_attempt_needs_exactly_one_torsion_side(monkeypatch, f_side, fc_side, error, message):
    # no side at T (a side at infinity is not T) is a precision failure; two
    # sides at T is a site failure, as their difference is torsion
    with pytest.raises(error, match=message):
        attempt_with_sides(monkeypatch, f_side, fc_side)


def test_tall_side_at_infinity_is_a_site_failure(monkeypatch):
    with pytest.raises(DescentFailed, match="fc is at infinity"):
        attempt_with_sides(monkeypatch, "real", "infinity")
    # the stand-in numbers of T are those of the real torsion side
    r = attempt_with_sides(monkeypatch, "T", "real")
    assert r.torsion_form == "f" and r.cube == solve_pipeline(7, 1).cube


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
        conj = r.torsion_form == "fc"
        z0, _ = l_value_and_cusp_zero(p, 1, 192, conjugate=conj)
        base = split.pi if conj else split.pibar
        L = lattice_of_curve(base**2, 192)
        with mp.workprec(224):
            ypr = fixed_to_mpc(wp_eval(L, mpc_to_fixed(z0, 224), 192)[1], 224)
            half = base.to_mpc(mp) / 2
            cusp_sign = 1 if abs(ypr / 2 - half) < abs(ypr / 2 + half) else -1
        # T = (0, s p/2) is the twist of (0, s base/2): the signs agree
        site_sign = 1 if r.torsion_point.y == q(p) / 2 else -1
        assert site_sign == -cusp_sign


def test_exactly_one_torsion_side():
    # at W(tau_r) one of f, f^c gives the 3-torsion point T = (0, +-p^i/2)
    # of E(p^i) and the other the nontorsion one
    for p, i in ((7, 1), (13, 1), (31, 1), (7, 2)):
        r = solve_pipeline(p, i)
        assert r.site == eval_site(p, i)
        T = r.torsion_point
        assert T.x == q(0) and T.y in (q(p**i) / 2, -q(p**i) / 2)
        assert mul(3, T).is_infinity and not T.is_infinity
        assert r.checks["torsion_point"] == {"ok": True, "form": r.torsion_form}
        assert {r.torsion_form, r.rec.form} == {"f", "fc"}
        assert r.rec.x_scaled != q(0)


# ------------------------------------------------------- escalation schedule

SITE = eval_site(7, 1).label()  # wtau(r=5)
RUNG_BITS = [96, 192, 384, 768, 1536, 3072]


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
        return None if bits >= 192 else RecognitionFailed("x not recognized")

    calls = stub_attempts(monkeypatch, outcome)
    r = solve_pipeline(7, 1)
    assert calls == [(SITE, 96), (SITE, 192)]
    assert (r.label, r.bits) == (SITE, 192)
    assert r.attempts == [
        {"site": SITE, "bits": 96, "error": "RecognitionFailed", "message": "x not recognized"}
    ]


@pytest.mark.parametrize("site_failure", [DescentFailed, TermsCapExceeded])
def test_schedule_site_failure_ends_the_solve(monkeypatch, site_failure):
    # more bits cannot mend it: no further rung is tried after it
    def outcome(label, bits):
        return EvalResidualTooLarge("residual too large") if bits == 96 else site_failure("no")

    calls = stub_attempts(monkeypatch, outcome)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert calls == [(SITE, 96), (SITE, 192)]
    assert str(info.value).split("; ") == [
        f"{SITE}@96b: EvalResidualTooLarge: residual too large",
        f"{SITE}@192b: {site_failure.__name__}: no",
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
    def identity(P, Q):
        return CurvePoint.infinity(P.D)

    calls = []
    real = parametrize._attempt_site

    def spy(cand, split, p, i, prec, *rest):
        calls.append((cand.site.label(), prec))
        return real(cand, split, p, i, prec, *rest)

    monkeypatch.setattr(parametrize, "add", identity)
    monkeypatch.setattr(parametrize, "_attempt_site", spy)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert calls == [(SITE, 96)]
    assert str(info.value).count("DescentFailed: twisted difference is the identity") == 1


def test_pipeline_103_squared_wins_after_one_retry():
    # x_scaled of the nontorsion side has N(gamma) = 2^155: over the 2^87
    # bound at 96 bits, inside the 2^183 bound at 192
    r = solve_pipeline(103, 2)
    assert (r.site.label(), r.bits, r.terms) == ("wtau(r=47)", 192, 23649)
    assert [(a["site"], a["bits"], a["error"]) for a in r.attempts] == [
        ("wtau(r=47)", 96, "RecognitionFailed")
    ]
    assert "not recognized" in r.attempts[0]["message"]
    assert "2^87" in r.attempts[0]["message"]
    assert r.checks["precision_margin_bits"] == {"f": 28}
    assert r.cube.verify()


def test_pipeline_79_squared_wins_at_96_bits():
    # x_scaled has N(gamma) = 2^70, inside the 2^86 bound at 96 bits; its
    # two rational coordinates recognized apart would need about 140 bits
    r = solve_pipeline(79, 2)
    assert (r.site.label(), r.bits) == ("wtau(r=56)", 96)
    assert r.attempts == []
    assert r.checks["precision_margin_bits"] == {"fc": 16}
    assert r.cube.verify()


# The schedule of five solves from 96 bits with the continued fraction over
# Z[w]: (p, i) -> (bits, terms, failed attempts (bits, error),
# precision_margin_bits of the tall side, torsion side, descent branch).
# 223^1 has N = 27p; 103^2 wins after one retry.  A speed-up must keep all
# of it: it comes from cheaper attempts, not from a different schedule.
SCHEDULE = {
    (103, 1): (96, 4047, [], {"f": 85}, "fc", "sqrt-3(w^0+)"),
    (223, 1): (96, 26934, [], {"f": 50}, "fc", "trace(w^0+)"),
    (67, 2): (96, 7965, [], {"fc": 47}, "f", "trace(w^0+)"),
    (79, 2): (96, 3095, [], {"fc": 16}, "f", "sqrt-3(w^0+)"),
    (103, 2): (192, 23649, [(96, "RecognitionFailed")], {"f": 28}, "fc", "sqrt-3(w^0+)"),
}


@pytest.mark.parametrize("p, i", list(SCHEDULE), ids=[f"{p}^{i}" for p, i in SCHEDULE])
def test_schedule_is_pinned(p, i):
    r = solve_pipeline(p, i)
    got = (
        r.bits,
        r.terms,
        [(a["bits"], a["error"]) for a in r.attempts],
        r.checks["precision_margin_bits"],
        r.torsion_form,
        r.descent_branch,
    )
    assert got == SCHEDULE[p, i]
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
    flipped = recognize((x, (-y[0], -y[1])), split, 1, 1 << 84, prec, form="f")
    assert rec.y == q(-2, Fraction(-9, 2))
    assert flipped.y == -rec.y
    assert flipped.x_scaled == rec.x_scaled


@pytest.mark.parametrize("delta", [Fraction(1, 1000), Fraction(-3, 7), Fraction(1, 2**40)])
def test_recognize_rejects_a_perturbed_x(delta):
    # x + delta, scaled by the irrational cube root, has no exact y: every
    # candidate's S is a non-square in Z[w], so no point comes back
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    W = prec + GUARD_BITS
    bad_x = (x[0] + (delta.numerator << W) // delta.denominator, x[1])
    with pytest.raises(RecognitionFailed, match="not recognized"):
        recognize((bad_x, y), split, 1, 1 << 84, prec, form="f")


def test_recognize_rejects_an_exact_y_off_the_numbers():
    # the true x with a numeric y that is not its y: the exact root exists
    # but disagrees with the numbers, so recognition fails
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    off = (y[0] + (1 << (prec + GUARD_BITS - 40)), y[1])
    with pytest.raises(RecognitionFailed, match="no exact y"):
        recognize((x, off), split, 1, 1 << 84, prec, form="f")


# 103^2's failed 96-bit attempt, as recognize reports it after its one
# continued fraction; x is printed to prec/2 = 48 bits
_FAIL_103_2_AT_96 = (
    "x of f = (-5.113157863274 - 3.941169187971j) not recognized with N(gamma) <= 2^87;"
    " its candidate x had no exact y matching the numbers"
)


def spy_continued_fractions(monkeypatch):
    calls = []
    real = parametrize.recognize_eisenstein
    monkeypatch.setattr(
        parametrize, "recognize_eisenstein", lambda *a: calls.append(a) or real(*a)
    )
    return calls


@pytest.mark.parametrize("p, i", [(103, 1), (79, 2)], ids=["103^1", "79^2"])
def test_a_winning_attempt_runs_one_continued_fraction(monkeypatch, p, i):
    # the torsion side takes none and the tall side one, under its one
    # cube root and no twist w^k
    calls = spy_continued_fractions(monkeypatch)
    r = solve_pipeline(p, i)
    assert r.attempts == [] and len(calls) == 1


def test_a_failing_attempt_runs_one_continued_fraction(monkeypatch):
    calls = spy_continued_fractions(monkeypatch)
    cand = parametrize.Candidate(eval_site(103, 2))
    with pytest.raises(RecognitionFailed) as info:
        parametrize._attempt_site(cand, split_prime(103), 103, 2, 96, None, build_form(103, 2, 0))
    assert str(info.value) == _FAIL_103_2_AT_96
    assert len(calls) == 1


# ------------------------------------------------------------------ sweep


def test_an_attempt_takes_no_mpmath_root(monkeypatch):
    # the lattice's sixth root and the scaling cube root come from
    # analytic.principal_root, at the lowest rung and at the highest
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an attempt called an mpmath root")

    monkeypatch.setattr(mp, "root", refuse)
    monkeypatch.setattr(mp, "cbrt", refuse)
    r = solve_pipeline(67, 2)
    assert r.bits == 96 and r.attempts == [] and r.cube.verify()
    cand = parametrize.Candidate(eval_site(7, 1))
    r = parametrize._attempt_site(cand, split_prime(7), 7, 1, 3072, None, build_form(7, 1, 0))
    assert r.bits == 3072 and r.cube.verify()
    assert calls == []


def test_sweep_small_primes():
    # every eligible p < 600 at power 1 and p < 150 at power 2 solves, and
    # the cube identity holds when recomputed here in rationals
    for i, bound in ((1, 600), (2, 150)):
        for p in range(7, bound):
            if p % 9 in (4, 7) and is_prime_int(p):
                r = solve_pipeline(p, i)
                u, v = Fraction(r.cube.u), Fraction(r.cube.v)
                assert u**3 + v**3 == p**i, (p, i)


# ------------------------------------------------ norm bound on recognition


def test_a_point_above_the_norm_bound_fails_and_never_gives_a_wrong_x():
    # [n]P for the twisted nontorsion point P of 7^1, made into the raw
    # numbers of its form's curve (x / root, y / mult), each to 2^-(prec +
    # 32): a multiple within the norm bound comes back exactly, one past it
    # raises RecognitionFailed
    prec = 64
    W = prec + GUARD_BITS
    r = solve_pipeline(7, 1)
    split = r.split
    rec = r.rec
    P = twist_point(rec, split, 1)
    root = parametrize.scaling_root(split, 1, prec)
    mult, rt = (split.pi, root) if rec.form == "f" else (split.pibar, (root[0], -root[1]))
    outcomes = []
    for n in range(1, 9):
        Q = mul(n, P)
        with mp.workprec(W + 64):
            x = Q.x.to_mpc(mp) / fixed_to_mpc(rt, W)
            y = Q.y.to_mpc(mp) / mult.to_mpc(mp)
            raw = (mpc_to_fixed(x, W), mpc_to_fixed(y, W))
        bound = parametrize.norm_bound(raw, root, prec)
        try:
            got = recognize(raw, split, 1, bound, prec, form=rec.form, root=root)
        except RecognitionFailed:
            outcomes.append("failed")
            continue
        assert got.x_scaled == Q.x and got.norm_bits <= bound.bit_length() - 1
        outcomes.append("exact")
    assert outcomes[0] == "exact" and outcomes[-1] == "failed"
