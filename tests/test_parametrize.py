import hashlib
from fractions import Fraction

import pytest
from mpmath import mp

from cubesum import curves
from cubesum.curves import CurvePoint, add, endo_omega, mul
from cubesum.eisenstein import EisensteinInt, QOmega, is_prime_int, split_prime
from cubesum.heckeform import build_form
from cubesum import parametrize
from cubesum.analytic import GUARD_BITS, Site, fixed_of, principal_root
from cubesum.cli import point_str
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
)
from cubesum.analytic import eval_z, lattice_of_curve, site_terms
from mp_helpers import fixed_to_mpc, mpc_to_fixed
from test_analytic import lattice_omega, omega_mpc


def q(a, b=0):
    return QOmega(Fraction(a), Fraction(b))


def tau_r(r):
    """The CM point tau_r = -1/(3w + 3r) = (-(3r - 3/2) + i 3 sqrt(3)/2)/n,
    n = N(3w + 3r) = 9 (r^2 - r + 1), as an exact site."""
    n = 9 * (r * r - r + 1)
    return Site((-9 * (2 * r - 1), n), (3, 3, 2 * n))


def unit_orbit(P):
    """The six points (w^k x, +-y)."""
    out = []
    Q = P
    for _ in range(3):
        out.extend([Q, -Q])
        Q = endo_omega(Q)
    return out


def twist(split, i, prec, form="f"):
    """The form's twist (u^3, u^2) onto E(p^i): pi^i and the principal cube
    root of pi^(2i) for f, pibar^i and the conjugate root for f^c."""
    root = principal_root(split.pi ** (2 * i), 3, prec + GUARD_BITS)
    return (split.pi**i, root) if form == "f" else (split.pibar**i, (root[0], -root[1]))


def prepare(p, i, r, prec=192):
    """(split, z_f, z_fc) at tau_r, the CM point the reference fixtures use."""
    split = split_prime(p)
    tau = tau_r(r)
    z_f, z_fc = eval_z(build_form(p, i, site_terms(tau, prec)), tau, prec)
    return split, z_f, z_fc


def test_evaluate_cm_p7_tau_fixture():
    # phi at tau_5 is the non-torsion side with y = (-9w-4)/2; phi^c there is
    # the torsion point (0, -pi/2)
    prec = 192
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    P, _ = recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")
    # y = (-9w-4)/2 on f's curve is u^3 y = pi y on E(7)
    assert P.y == split.pi.to_q() * q(-2, Fraction(-9, 2))
    # x * pi^(2/3) recognized up to a unit twist of the cube-root branch
    orbit = {q(-1, 4) * q(0, 1) ** k for k in range(3)}
    assert P.x in orbit and P.D == q(49) and P.on_curve()

    kind_c, raw_c = evaluate_cm(z_fc, split.pi ** 2, prec)
    assert kind_c == "point"
    P_c, _ = recognize(raw_c, twist(split, 1, prec, "fc"), 1 << 64, prec, "fc")
    assert P_c.x == q(0)
    # (0, +-pi/2) on f^c's curve is (0, +-pibar pi/2) on E(7)
    assert P_c.y in (split.pibar.to_q() * split.pi.to_q() / 2, -split.pibar.to_q() * split.pi.to_q() / 2)


def test_evaluate_cm_p13_tau23_torsion_fixture():
    # at the reference site r = 23 (t = 13), phi^c lands on (0, pi/2)
    prec = 192
    split, z_f, z_fc = prepare(13, 1, 23, prec)
    kind_c, raw_c = evaluate_cm(z_fc, split.pi ** 2, prec)
    assert kind_c == "point"
    P_c, _ = recognize(raw_c, twist(split, 1, prec, "fc"), 1 << 64, prec, "fc")
    assert P_c.x == q(0)
    assert P_c.y in (split.pibar.to_q() * split.pi.to_q() / 2, -split.pibar.to_q() * split.pi.to_q() / 2)


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
    P, _ = recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")
    want_y = split.pi.to_q() * q(Fraction(7, 2), Fraction(9, 2))
    assert P.y in (want_y, -want_y)
    orbit = {q(-7, -2) * q(0, 1) ** k for k in range(3)}
    assert P.x in orbit and P.on_curve()


def test_recognize_p31_fixture():
    prec = 224
    split, z_f, z_fc = prepare(31, 1, 26, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    P, _ = recognize(raw, twist(split, 1, prec), 1 << 80, prec, "f")
    want_y = split.pi.to_q() * q(Fraction(-2531, 686), Fraction(-549, 343))
    assert P.y in (want_y, -want_y)
    want_x = q(Fraction(-404, 49), Fraction(-130, 49))
    orbit = {want_x * q(0, 1) ** k for k in range(3)}
    assert P.x in orbit and P.on_curve()


def test_recognized_point_reembedding():
    prec = 192
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    P, _ = recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")
    with mp.workprec(prec + 32):
        x, y = (fixed_to_mpc(v, prec + GUARD_BITS) for v in raw)
        # P's x re-embeds onto x * pi^(2/3) (f's one scaling, principal
        # root) to within 2^-(prec/2)
        m = split.pi.to_mpc(mp)
        scaled = x * (m * m) ** (mp.mpf(1) / 3)
        assert abs(P.x.to_mpc(mp) - scaled) <= mp.mpf(2) ** (-(prec // 2))
        # and P's y, brought back to f's curve by u^3 = pi, onto y
        assert abs(P.y.to_mpc(mp) / m - y) < mp.mpf(2) ** (-(prec // 2))


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


def test_recognize_exactness_certifies(monkeypatch):
    # a y off E(p^i) that still matches the numbers must be caught by the
    # exact curve check: _exact_y's y moved by 2^-200, far inside the
    # 2^-(prec/2) tolerance of the numeric y
    split = split_prime(7)
    prec = 192
    _, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    P, _ = recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")
    real = parametrize._exact_y

    def nudged(x, c):
        T, e = real(x, c)  # y = T / (2 e^2), so y + 2^-200 = T' / (2 (e 2^100)^2)
        return T * 2**200 + EisensteinInt(2 * e * e), e * 2**100

    monkeypatch.setattr(parametrize, "_exact_y", nudged)
    with pytest.raises(RecognitionFailed, match=r"refused by check 4 \(the curve\)") as info:
        recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")
    assert (info.value.norm_bits, info.value.check) == (64, 4)
    monkeypatch.setattr(parametrize, "_exact_y", real)
    assert recognize(raw, twist(split, 1, prec), 1 << 64, prec, "f")[0] == P


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
        z0 = l_value_and_cusp_zero(p, 1, 192, conjugate=conj)
        base = split.pi if conj else split.pibar
        L = lattice_of_curve(base**2, 192)
        with mp.workprec(224):
            ypr = fixed_to_mpc(wp_eval(L, z0)[1], 224)
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
        assert set(r.checks["precision_margin_bits"]) == {"f", "fc"} - {r.torsion_form}
        assert r.tall_point.x != q(0) and r.tall_point.on_curve()


# ------------------------------------------------------- escalation schedule

SITE = eval_site(7, 1).label()  # wtau(r=5)
SITE_2 = eval_site(7, 2).label()
# the default ladders, doubled up to the top rung 3072: from 48 bits for a
# power-1 prime below 512, else from 96
RUNG_BITS = [48, 96, 192, 384, 768, 1536, 3072]
RUNG_BITS_2 = [96, 192, 384, 768, 1536, 3072]


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


def timed(attempts):
    """The attempts without their attempt_ms, after checking that each has
    one, a wall time in ms."""
    assert all(type(a["attempt_ms"]) is float and a["attempt_ms"] >= 0 for a in attempts)
    return [{k: v for k, v in a.items() if k != "attempt_ms"} for a in attempts]


def escalate_once(monkeypatch, p, i, first):
    # a precision failure at the first rung, then a win at twice the bits
    calls = stub_attempts(
        monkeypatch, lambda label, bits: None if bits > first else RecognitionFailed("x not recognized")
    )
    r = solve_pipeline(p, i)
    site = eval_site(p, i).label()
    assert calls == [(site, first), (site, 2 * first)]
    assert (r.label, r.bits) == (site, 2 * first)
    # a RecognitionFailed raised with no numbers, as the stub's, records them
    # as None
    assert timed(r.attempts) == [
        {"site": site, "bits": first, "error": "RecognitionFailed", "message": "x not recognized",
         "norm_bits": None, "stop_bits": None, "check": None}
    ]


def test_schedule_precision_failure_escalates_first_site(monkeypatch):
    escalate_once(monkeypatch, 7, 1, 48)


def test_schedule_power_2_precision_failure_escalates_from_96_bits(monkeypatch):
    escalate_once(monkeypatch, 7, 2, 96)


def end_on_site_failure(monkeypatch, p, i, first, site_failure):
    def outcome(label, bits):
        return EvalResidualTooLarge("residual too large") if bits == first else site_failure("no")

    calls = stub_attempts(monkeypatch, outcome)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(p, i)
    site = eval_site(p, i).label()
    assert calls == [(site, first), (site, 2 * first)]
    assert str(info.value).split("; ") == [
        f"{site}@{first}b: EvalResidualTooLarge: residual too large",
        f"{site}@{2 * first}b: {site_failure.__name__}: no",
    ]


@pytest.mark.parametrize("site_failure", [DescentFailed, TermsCapExceeded])
def test_schedule_site_failure_ends_the_solve(monkeypatch, site_failure):
    # more bits cannot mend it: no further rung is tried after it
    end_on_site_failure(monkeypatch, 7, 1, 48, site_failure)


@pytest.mark.parametrize("site_failure", [DescentFailed, TermsCapExceeded])
def test_schedule_power_2_site_failure_ends_the_solve(monkeypatch, site_failure):
    end_on_site_failure(monkeypatch, 7, 2, 96, site_failure)


def exhaust(monkeypatch, p, i, **kwargs):
    """The (site, bits) calls of a solve whose every attempt fails for more
    precision, after checking that the PrecisionExhausted message names each."""
    calls = stub_attempts(monkeypatch, lambda label, bits: RecognitionFailed("no"))
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(p, i, **kwargs)
    entries = str(info.value).split("; ")
    assert entries == [f"{s}@{b}b: RecognitionFailed: no" for s, b in calls]
    return calls


def test_schedule_total_exhaustion(monkeypatch):
    # the one site at every rung, 48 to 3072 bits, each attempt named in the
    # message
    assert exhaust(monkeypatch, 7, 1) == [(SITE, b) for b in RUNG_BITS]


def test_schedule_power_2_total_exhaustion(monkeypatch):
    # power 2 keeps its ladder: 96 to 3072 bits
    assert exhaust(monkeypatch, 7, 2) == [(SITE_2, b) for b in RUNG_BITS_2]


@pytest.mark.parametrize(
    "p, i, ladder",
    [(499, 1, RUNG_BITS), (547, 1, RUNG_BITS_2), (997, 1, RUNG_BITS_2), (499, 2, RUNG_BITS_2)],
    ids=["499^1", "547^1", "997^1", "499^2"],
)
def test_schedule_default_first_rung_follows_p(monkeypatch, p, i, ladder):
    # 48 bits only for a power-1 prime below 512; from 547 on, and at power
    # 2, the ladder starts at 96 bits as it did before the 48-bit rung
    assert parametrize.first_bits(p, i) == ladder[0]
    assert [b for _, b in exhaust(monkeypatch, p, i)] == ladder


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize(
    "bits, ladder",
    [
        (100, [100, 200, 400, 800, 1600, 3200]),
        (2, [2**k for k in range(1, 13)]),
        (2048, [2048 << k for k in range(6)]),
        (4096, [4096 << k for k in range(6)]),
    ],
    ids=["100", "2", "2048", "4096"],
)
def test_schedule_ends_at_the_first_rung_of_at_least_3072_bits(monkeypatch, i, bits, ladder):
    # an explicit first rung doubles at least five times and on to the top
    # rung, at either power: 100 to 3200 bits, 2 to 4096, and a start above
    # the top rung keeps its six rungs, 4096 to 131072
    assert [b for _, b in exhaust(monkeypatch, 7, i, bits=bits)] == ladder


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

    monkeypatch.setattr(parametrize, "sub_torsion", identity)
    monkeypatch.setattr(parametrize, "_attempt_site", spy)
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert calls == [(SITE, 48)]
    assert str(info.value).count("DescentFailed: twisted difference is the identity") == 1
    calls.clear()
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 2)
    assert calls == [(SITE_2, 96)]
    assert str(info.value).count("DescentFailed: twisted difference is the identity") == 1


def test_a_torsion_side_that_fails_the_closed_form_check_is_a_site_failure(monkeypatch):
    # [3]T = O is checked by curves.is_torsion_at_zero; when it fails the
    # attempt raises DescentFailed, which ends the solve at its first rung
    seen = []
    monkeypatch.setattr(curves, "is_torsion_at_zero", lambda T: seen.append(T) and False)
    with pytest.raises(DescentFailed, match="is not 3-torsion"):
        parametrize._attempt_site(parametrize.Candidate(eval_site(7, 1)), split_prime(7), 7, 1, 96,
                                  None, build_form(7, 1, 0))
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert str(info.value).count("DescentFailed: torsion side") == 1
    # each attempt asked about its T = (0, +-7/2), once
    half = QOmega(Fraction(7, 2))
    assert len(seen) == 2 and all(T.x == QOmega(0) and T.y in (half, -half) for T in seen)


def test_twisted_point_at_t_is_the_identity_difference(monkeypatch):
    # P = T (x_P = 0) makes P - T = O exactly: the same site failure
    T = solve_pipeline(7, 1).torsion_point
    monkeypatch.setattr(parametrize, "recognize", lambda raw, twist, bound, prec, form: (T, 0))
    with pytest.raises(PrecisionExhausted) as info:
        solve_pipeline(7, 1)
    assert str(info.value).count("DescentFailed: twisted difference is the identity") == 1


def _descend_oracle(PK, p, i):
    # the group-law descent descend replaced: every variant [w^k](+-PK)
    # formed first, the trace as add(P, conj P), [sqrt(-3)] as P + [w][2]P
    variants = []
    for sgn in (1, -1):
        Q = PK if sgn == 1 else -PK
        for k in range(3):
            variants.append((k, sgn, Q))
            Q = endo_omega(Q)
    branches = (("trace", lambda P: add(P, P.conj())), ("sqrt-3", lambda P: add(P, endo_omega(mul(2, P)))))
    for k, sgn, Q in variants:
        for name, branch in branches:
            R = branch(Q)
            if R.is_infinity or R.x == QOmega(0) or not R.is_rational():
                continue
            cert = curves.nontorsion_certificate(R, p, i)
            if cert.nontorsion:
                return R, f"{name}(w^{k}{'+' if sgn > 0 else '-'})", cert
    raise DescentFailed("oracle: no rational nontorsion point")


def test_descend_matches_the_group_law_oracle():
    # every eligible p < 600 at power 1 and p < 160 at power 2, on the
    # solve's own point_K and on [w](-point_K) and 2 point_K, which start
    # the descent from another unit twist and a taller point
    cases = [(p, i) for i, top in ((1, 600), (2, 160)) for p in range(7, top)
             if p % 9 in (4, 7) and is_prime_int(p)]
    assert len(cases) == 45
    for p, i in cases:
        r = solve_pipeline(p, i)
        for PK in (r.point_K, endo_omega(-r.point_K), mul(2, r.point_K)):
            assert descend(PK, p, i) == _descend_oracle(PK, p, i)
        assert (r.point_Q, r.descent_branch, r.certificate) == descend(r.point_K, p, i)


def test_descend_forms_the_unit_twists_only_as_it_needs_them(monkeypatch):
    # 103^1 wins on its first variant, PK itself: no [w] and no negation
    r = solve_pipeline(103, 1)
    assert r.descent_branch == "sqrt-3(w^0+)"
    calls = []
    monkeypatch.setattr(parametrize, "endo_omega", lambda P: calls.append(P) or endo_omega(P))
    assert descend(r.point_K, 103, 1)[1] == "sqrt-3(w^0+)"
    assert calls == []
    # a torsion start (T itself) runs through all six and fails: [w] and
    # [w^2] of T and of -T
    with pytest.raises(DescentFailed):
        descend(r.torsion_point, 103, 1)
    assert len(calls) == 4


def test_pipeline_103_squared_wins_after_one_retry():
    # x_scaled of the nontorsion side has N(gamma) = 2^155: over the 2^87
    # bound at 96 bits, inside the 2^183 bound at 192
    r = solve_pipeline(103, 2)
    assert (r.site.label(), r.bits, r.terms) == ("wtau(r=47)", 192, 22986)
    assert [(a["site"], a["bits"], a["error"]) for a in r.attempts] == [
        ("wtau(r=47)", 96, "RecognitionFailed")
    ]
    a = r.attempts[0]
    assert "not recognized" in a["message"]
    assert (a["norm_bits"], a["stop_bits"], a["check"]) == (87, 3, 2)
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


# The schedule of five solves from the default first rung (48 bits at power
# 1, 96 at power 2) with the continued fraction over Z[w]: (p, i) -> (bits,
# terms, failed attempts (bits, error), precision_margin_bits of the tall
# side, torsion side, descent branch).  223^1 has N = 27p; 103^2 wins after
# one retry.  A speed-up must keep all of it: it comes from cheaper
# attempts, not from a different schedule.
SCHEDULE = {
    (103, 1): (48, 1972, [], {"f": 37}, "fc", "sqrt-3(w^0+)"),
    (223, 1): (48, 13275, [], {"f": 2}, "fc", "trace(w^0+)"),
    (67, 2): (96, 7564, [], {"fc": 47}, "f", "trace(w^0+)"),
    (79, 2): (96, 2948, [], {"fc": 16}, "f", "sqrt-3(w^0+)"),
    (103, 2): (192, 22986, [(96, "RecognitionFailed")], {"f": 28}, "fc", "sqrt-3(w^0+)"),
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


def solve_tail_line(r):
    fails = [(a["bits"], a["error"], a["message"]) for a in r.attempts]
    return (f"{r.p} {r.i} {point_str(r.point_K)} {point_str(r.point_Q)} {r.descent_branch} "
            f"{r.checks['torsion_point']['form']} {r.checks['precision_margin_bits']} {fails}\n")


def test_solve_tail_is_pinned():
    # the exact tail of every eligible p < 300 at both powers, 38 solves: the
    # K-point, the rational point, the descent branch, the torsion side, the
    # tall side's margin and every failed attempt's bits, class and message
    # (which holds recognize's three numbers, and no digits of x).
    # From the 48-bit first rung only the power-1 margins differ from the
    # 96-bit one's, each by 48 bits: no power-1 p < 300 fails at 48 bits
    lines = [solve_tail_line(solve_pipeline(p, i)) for i in (1, 2) for p in range(7, 300)
             if p % 9 in (4, 7) and is_prime_int(p)]
    assert len(lines) == 38 and sum("RecognitionFailed" in line for line in lines) == 8
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "f11a6db2504a6958a040f03d5eee834e6df576bed204d59e126a99bd136cabbb"


# ------------------------------------------------------- exact y from x


def nontorsion_fixture_raw(prec=192):
    split, z_f, z_fc = prepare(7, 1, 5, prec)
    kind, raw = evaluate_cm(z_f, split.pibar ** 2, prec)
    assert kind == "point"
    return split, raw


def test_recognize_takes_the_sign_of_y_from_the_numbers():
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    P, _ = recognize((x, y), twist(split, 1, prec), 1 << 84, prec, "f")
    flipped, _ = recognize((x, (-y[0], -y[1])), twist(split, 1, prec), 1 << 84, prec, "f")
    assert P.y == split.pi.to_q() * q(-2, Fraction(-9, 2))
    assert flipped.y == -P.y
    assert flipped.x == P.x


@pytest.mark.parametrize("delta", [Fraction(1, 1000), Fraction(-3, 7), Fraction(1, 2**40)])
def test_recognize_rejects_a_perturbed_x(delta):
    # x + delta, scaled by the irrational cube root, has no exact y: every
    # candidate's S is a non-square in Z[w], so no point comes back
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    W = prec + GUARD_BITS
    bad_x = (x[0] + (delta.numerator << W) // delta.denominator, x[1])
    with pytest.raises(RecognitionFailed, match="not recognized") as info:
        recognize((bad_x, y), twist(split, 1, prec), 1 << 84, prec, "f")
    assert info.value.norm_bits == 84 and info.value.check in (1, 2)


def test_recognize_rejects_an_exact_y_off_the_numbers():
    # the true x with a numeric y that is not its y: the exact root exists
    # but disagrees with the numbers, so recognition fails
    prec = 192
    split, (x, y) = nontorsion_fixture_raw(prec)
    off = (y[0] + (1 << (prec + GUARD_BITS - 40)), y[1])
    with pytest.raises(RecognitionFailed, match=r"refused by check 3 \(the y sign\)") as info:
        recognize((x, off), twist(split, 1, prec), 1 << 84, prec, "f")
    assert info.value.check == 3


# 103^2's failed 96-bit attempt, as recognize reports it after its one
# continued fraction: the norm bound 2^87, the stop quotient's 3 bits and
# the check that refused, and no digits of x
_FAIL_103_2_AT_96 = "x of f not recognized: norm_bits 87, stop_bits 3, refused by check 2 (no exact y)"


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
    assert (info.value.norm_bits, info.value.stop_bits, info.value.check) == (87, 3, 2)
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
    # [n]P for the nontorsion point P of 7^1 on E(7), made into the raw
    # numbers of its form's curve (x / u^2, y / u^3), each to 2^-(prec +
    # 32): a multiple within the norm bound comes back exactly, one past it
    # raises RecognitionFailed
    prec = 64
    W = prec + GUARD_BITS
    r = solve_pipeline(7, 1)
    tall = "fc" if r.torsion_form == "f" else "f"
    P = r.tall_point
    u3, u2 = tw = twist(r.split, 1, prec, tall)
    outcomes = []
    for n in range(1, 9):
        Q = mul(n, P)
        with mp.workprec(W + 64):
            x = Q.x.to_mpc(mp) / fixed_to_mpc(u2, W)
            y = Q.y.to_mpc(mp) / u3.to_mpc(mp)
            raw = (mpc_to_fixed(x, W), mpc_to_fixed(y, W))
        bound = parametrize.norm_bound(parametrize._error_bits(raw, u2, prec))
        try:
            got, norm_bits = recognize(raw, tw, bound, prec, tall)
        except RecognitionFailed:
            outcomes.append("failed")
            continue
        assert got == Q and norm_bits <= bound.bit_length() - 1
        outcomes.append("exact")
    assert outcomes[0] == "exact" and outcomes[-1] == "failed"
