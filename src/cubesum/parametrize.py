"""The orchestrated pipeline from CM sites to certified cube sums.

Stages: sum the Abel-Jacobi images of f and f^c at the one site W(tau_r)
(cmpoint.eval_site; one pass gives both) and map each through wp on its
curve's lattice.  One image is the 3-torsion point whose twist to E(p^i)
is T = (0, +-p^i/2), the cusp image; it is read off the numbers
(torsion_sign) and T is built exactly.  Each side has one twist (u^3,
u^2) of its curve onto E(p^i), formed once per attempt from u^3 = pi^i.
The other, tall, side lives over K(pi^(1/3)): its x, scaled by u^2, is
recognized in K within a norm bound that follows from a stated error
bound on the numbers (norm_bound), and y is solved for on E(p^i), so
recognize returns the exact point P of E(p^i), checked on the curve
there.  P_f - P_fc on E(p^i) is descended to Q by the trace or the
sqrt(-3) endomorphism.  [3]T = O is checked exactly, and the descended
point is certified by exact arithmetic (nontorsion certificate, isogeny
and cube identities) before it is reported.

solve_pipeline escalates precision on that one site, from first_bits(p, i)
by default (48 bits for a power-1 prime below SMALL_P, else 96): a
numerical failure (RecognitionFailed, which includes no side at T,
EvalResidualTooLarge) retries at twice the bits until a rung of at least
TOP_BITS, and of at least 32 times the first, has been tried, and a
failure more bits cannot fix (DescentFailed, which includes both sides at
T, a tall side at infinity and a twisted difference that is the identity,
or TermsCapExceeded) ends the solve at once.  Every failed attempt is kept
in PipelineResult.attempts.
"""

from __future__ import annotations

import math
import time

from . import curves
from .analytic import (
    GUARD_BITS,
    PoleAtLatticePoint,
    eval_z,
    fixed_mul,
    fixed_of,
    lattice_of_curve,
    principal_root,
    recognize_eisenstein,
    site_terms,
    wp_eval,
)
from .cmpoint import eval_site
from .curves import CurvePoint, DescentFailed, endo_omega, mul_sqrt_m3, sub_torsion, trace
from .eisenstein import EisensteinInt, Frozen, QOmega, Record, split_prime, sqrt_eis
from .heckeform import build_form


class RecognitionFailed(ArithmeticError):
    """No side read as the 3-torsion point, no x in K within the norm bound
    matched the numbers, or a recognized point failed an exact check; more
    bits may mend it, so solve_pipeline retries at the next rung.

    recognize's failures carry how near they came (see recognize):
    norm_bits, stop_bits and check, each None where no recognition ran."""

    def __init__(self, message, norm_bits=None, stop_bits=None, check=None):
        super().__init__(message)
        self.norm_bits, self.stop_bits, self.check = norm_bits, stop_bits, check


class EvalResidualTooLarge(ArithmeticError):
    pass


class PrecisionExhausted(RuntimeError):
    pass


class TermsCapExceeded(RuntimeError):
    pass


def evaluate_cm(z, D, prec=192, lattice=None):
    """("infinity", None) or ("point", (x, y)) for a summed Abel-Jacobi image.

    z comes from eval_z at a CM site, a pair at W = prec + GUARD_BITS; x =
    wp(z) and y = wp'(z)/2 come back as pairs at W, on the lattice of the
    curve y^2 = x^3 + D/4 that the form belongs to: `lattice`, or
    lattice_of_curve(D, prec) when it is None.  The curve residual
    |y^2 - x^3 - D/4| must clear 2^-(prec-40) max(1, |x|^3), compared in
    integers (squared), or the evaluation is rejected.  A z on the lattice
    (wp_eval's PoleAtLatticePoint) is the point at infinity.
    """
    if lattice is None:
        lattice = lattice_of_curve(D, prec)
    try:
        x, wpd = wp_eval(lattice, z)
    except PoleAtLatticePoint:
        return "infinity", None
    W = prec + GUARD_BITS
    y = (wpd[0] >> 1, wpd[1] >> 1)
    y2, x3, (dr, di) = fixed_mul(y, y, W), fixed_mul(fixed_mul(x, x, W), x, W), fixed_of(D, W)
    rr, ri = y2[0] - x3[0] - (dr >> 2), y2[1] - x3[1] - (di >> 2)
    res2, x2 = rr * rr + ri * ri, x[0] * x[0] + x[1] * x[1]
    # |res|^2 > 2^-2(prec-40) max(1, |x|^6), all scaled by 2^(6W)
    if res2 << (4 * W + 2 * (prec - 40)) > max(1 << 6 * W, x2**3):
        raise EvalResidualTooLarge(f"curve residual 2^{(math.log2(res2) - 2 * W) / 2:.2f}")
    return "point", (x, y)


def _exact_y(x, c):
    """(T, e) with y = T/(2 e^2) on y^2 = x^3 + c/4, or None if y is not in K.

    With x = (a + b w)/e in normal form (e = x.d), T^2 = S =
    4 e (a + b w)^3 + c e^4 in Z[w]; T is one of the two roots.
    """
    e = x.d
    num = EisensteinInt(x.A, x.B) ** 3
    T = sqrt_eis(EisensteinInt(4 * e * num.a + c * e**4, 4 * e * num.b))
    return None if T is None else (T, e)


def _sign_near(exact, approx, tol2):
    """The sign s (1 on a tie) that puts s * exact nearer to approx, when it
    is within sqrt(tol2) units of it; None otherwise."""
    near = (exact[0] - approx[0]) ** 2 + (exact[1] - approx[1]) ** 2
    far = (exact[0] + approx[0]) ** 2 + (exact[1] + approx[1]) ** 2
    s, d = (1, near) if near <= far else (-1, far)
    return s if d < tol2 else None


def _error_bits(raw, root, prec):
    """e with delta < 2^e, for delta = 2^-prec (2|y| + 1) |root| the stated
    error bound on the numeric x_scaled of a raw point (x, y) and the cube
    root `root` (pairs at W = prec + GUARD_BITS).

    The bound: eval_z's z is within 2^-prec + 2^-W of the exact sum
    (terms_needed's tail, C (M+1)^(-1/4) |q|^(M+1) / (1 - |q|^3) < 2^-prec
    from |a_n| <= r(n) sqrt(n) and the ideal count r(n) <= C n^(1/4), and
    the kernel's rounding), which moves x = wp(z) by
    |wp'(z)| = 2|y| times that to first order; the 1 covers the excess 2^-32
    of that product, the second-order term and wp_eval's own error while
    they stay under 2^-(prec+1), and the scaling's few units of 2^-W while
    |x| < 2^29.  Scaling by the root multiplies it by |root| = p^(i/3).
    Each factor is rounded up to a power of two: 2|y| + 1 < 2^yb and |root|
    < 2^rb, so e = yb + rb - prec.
    """
    W = prec + GUARD_BITS
    y, r = raw[1], root
    yb = ((math.isqrt(4 * (y[0] * y[0] + y[1] * y[1])) >> W) + 1).bit_length()
    rb = ((math.isqrt(r[0] * r[0] + r[1] * r[1]) >> W) + 1).bit_length()
    return yb + rb - prec


def norm_bound(e):
    """The norm bound B = 8/2^e on x_scaled's denominator, for e =
    _error_bits of the tall side; analytic.recognize_eisenstein recovers
    every x_scaled = alpha/gamma with N(gamma) <= B/256, so under B = 2^8 it
    covers none: such a bound is refused (0, which recognizes nothing), and
    the attempt fails for more precision."""
    bits = 3 - e
    return 1 << bits if bits >= 8 else 0


def torsion_sign(raw, twist, e, prec):
    """s when a raw point (x, y) of a form's curve is, to its numbers, the
    point whose twist is T = (0, s p^i/2) on E(p^i): the scaled x within
    the stated error 2^e of 0 (e = _error_bits) and the twisted y within
    2^-(prec/2), recognize's tolerance, of +-p^i/2; None otherwise, and
    also where norm_bound refuses the error (e > -5), as recognize would.
    `twist` is the form's (u^3, u^2) (see recognize)."""
    x, y = raw
    u3, u2 = twist
    W = prec + GUARD_BITS
    sx = fixed_mul(x, u2, W)
    if e > -5 or sx[0] * sx[0] + sx[1] * sx[1] >= 1 << 2 * (W + e):
        return None
    half = (u3.norm() << W) >> 1  # N(u^3) = p^i
    return _sign_near((half, 0), fixed_mul(fixed_of(u3, W), y, W), 1 << 2 * (W - prec // 2))


def recognize(raw, twist, bound, prec, form):
    """(P, floor(log2 N(gamma))): the exact point P of E(p^i) behind a raw
    point (x, y) of the form's curve (pairs at W = prec + GUARD_BITS), by
    one continued fraction.  `twist` is (u^3, u^2), an EisensteinInt and a
    pair at W, of the twist (x, y) -> (u^2 x, u^3 y) of that curve onto
    E(p^i).  x_scaled = x u^2 is recognized in K as alpha/gamma with
    N(gamma) <= 2^n, n = floor(log2 bound), within 2^(3 - n) of the numbers
    (analytic.recognize_eisenstein).  N(gamma) is about x's rational
    denominator, half the bits of its two rational coordinates recognized
    apart.  y is solved for on E(p^i): T/(2e^2) with T an exact square root
    in Z[w] (_exact_y), of the sign nearer the numeric u^3 y, which it must
    match to 2^-(prec/2).  P = (x_scaled, +-T/(2e^2)) is then checked on
    E(p^i) exactly.

    Four checks may refuse, in this order, and raise RecognitionFailed,
    which triggers a precision retry:
      1. no convergent within 8/B of x_scaled (B = 2^n);
      2. no exact y: S has no square root in Z[w];
      3. the y sign: neither +-T/(2e^2) is within 2^-(prec/2) of u^3 y;
      4. the curve: P fails the exact equation of E(p^i).
    The exception carries norm_bits = n, stop_bits, the continued
    fraction's stop quotient (recognize_eisenstein's stop), and check, the
    number of the check that refused; its message states these and no
    digits of x.  Over the eligible p < 700 at both powers the stop
    quotient was at most 8 bits at every failed rung and at least 12 at
    every win, but it does not tell how many more bits a failed rung needs.

    One scaling.  f's curve y^2 = x^3 + pibar^(2i)/4 twists onto y^2 = x^3
    + u^6 pibar^(2i)/4, which is E(p^i) when u^6 = pi^(2i): f takes u^3 =
    pi^i and u^2 the principal cube root of pi^(2i), and f^c the conjugates.
    Under the other root (X, Y) would lie on Y^2 = X^3 + pibar^(4i)/4, and
    no exact y on E(p^i) matches Y.

    One branch.  The other cube roots are u^2 w^k, and x w^k lies in K
    exactly when x does, with x's gamma, at x's distance from the numbers
    (|w| = 1), and [w^k](x, y) = (x w^k, y) keeps y.  So the recovery proof
    of recognize_eisenstein for the principal root (k = 0) covers them all.

    The curve check passes by construction, as y is solved for, and stays
    as a guard on the data, not as a test of recognition: a wrong x is
    caught when S has no square root in Z[w], and otherwise by the numeric
    y agreement, then the descent, the nontorsion certificate and the cube
    identity.
    """
    x, y = raw
    u3, u2 = twist
    W = prec + GUARD_BITS
    norm_bits = bound.bit_length() - 1
    found, stop = recognize_eisenstein(fixed_mul(x, u2, W), W, norm_bits)
    check = 1  # the number of the check under way, reported if it refuses
    if found is not None:
        cand, norm = found
        c = u3.norm() ** 2  # p^(2i)
        exact = _exact_y(cand, c)
        check = 2
        if exact is not None:
            T, e = exact
            Y = QOmega.from_ints(T.a, T.b, 2 * e * e)
            u3y = fixed_mul(fixed_of(u3, W), y, W)
            s = _sign_near(fixed_of(Y, W), u3y, 1 << 2 * (W - prec // 2))
            check = 3
            if s is not None:
                P = CurvePoint(QOmega(c), cand, Y if s > 0 else -Y)
                check = 4
                if P.on_curve():
                    return P, norm.bit_length() - 1
    why = ("no convergent within 8/B", "no exact y", "the y sign", "the curve")[check - 1]
    raise RecognitionFailed(
        f"x of {form} not recognized: norm_bits {norm_bits}, stop_bits {stop},"
        f" refused by check {check} ({why})",
        norm_bits, stop, check,
    )


def _unit_twists(PK):
    """(k, sign, [w^k](sign PK)) for sign + then -, k = 0, 1, 2, each point
    formed only when the one before it has been tried."""
    for sgn in "+-":
        Q = PK if sgn == "+" else -PK
        yield 0, sgn, Q
        for k in (1, 2):
            Q = endo_omega(Q)
            yield k, sgn, Q


def descend(PK, p, i):
    """(point, branch, certificate): a rational point of E(p^i) from an exact
    K-point, with the two-prime certificate that it is nontorsion (decided
    at curves.WITNESS_PRIME, or over Q when the witness reads O).

    Branch 1 is the trace P + conj(P); branch 2 is [sqrt(-3)]P when that is
    rational, both in closed form (curves.trace, curves.mul_sqrt_m3).  Both
    branches are tried across the six unit twists [w^k](+-P) before giving
    up.  A rational candidate is certified once, here, unless it is the
    identity or has x = 0 (the known 3-torsion (0, +-p^i/2)).
    """
    for k, sgn, Q in _unit_twists(PK):
        for name, branch in (("trace", trace), ("sqrt-3", mul_sqrt_m3)):
            R = branch(Q)
            if R.is_infinity or not R.x or not R.is_rational():
                continue
            cert = curves.nontorsion_certificate(R, p, i)
            if cert.nontorsion:
                return R, f"{name}(w^{k}{sgn})", cert
    raise DescentFailed(f"no rational nontorsion point from {PK}")


class PipelineResult(Record):
    """tall_point is the tall side's exact point P on E(p^i), torsion_form
    the other side ("f" or "fc") and torsion_point its exact point T = (0,
    +-p^i/2) on E(p^i); attempts lists the failed attempts before this one."""

    __slots__ = ("p", "i", "split", "site", "bits", "terms", "tall_point", "torsion_form",
                 "torsion_point", "point_K", "descent_branch", "point_Q", "certificate", "cube",
                 "checks", "timings_ms", "attempts")


# perfbench/tracer.py binds _attempt_site's `cand` argument and reads cand.site.
class Candidate(Frozen):
    __slots__ = ("site",)  # cmpoint.EvalSite


def _attempt_site(cand, split, p, i, prec, max_terms, form):
    timings = {}
    t0 = time.perf_counter()
    site = cand.site
    M = site_terms(site, prec)  # eval_z's M, from the same expression
    if max_terms is not None and M > max_terms:
        raise TermsCapExceeded(f"site {site.label()} needs {M} > {max_terms} terms")
    form.extend(M)  # the coefficients do not depend on prec
    timings["coefficients_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # f lives on y^2 = x^3 + pibar^(2i)/4 and f^c on the conjugate curve
    # (pibar = conj(pi), as split_prime normalizes both to 1 mod 3)
    u3 = split.pi**i
    D_fc = u3 * u3
    D_f = D_fc.conj()
    z_f, z_fc = eval_z(form, site, prec)
    L_f = lattice_of_curve(D_f, prec)
    sides = {"f": evaluate_cm(z_f, D_f, prec, L_f), "fc": evaluate_cm(z_fc, D_fc, prec, L_f.conj())}
    timings["evaluate_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # one side is the 3-torsion point T, taken exactly; the other, tall,
    # side is recognized under its one twist (u^3, u^2) onto E(p^i): f's
    # is (pi^i, the principal cube root of pi^(2i)), f^c's the conjugates
    root = principal_root(D_fc, 3, prec + GUARD_BITS)
    twists = {"f": (u3, root), "fc": (u3.conj(), (root[0], -root[1]))}
    points = {t: raw for t, (kind, raw) in sides.items() if kind == "point"}
    errors = {t: _error_bits(raw, root, prec) for t, raw in points.items()}
    signs = {t: torsion_sign(raw, twists[t], errors[t], prec) for t, raw in points.items()}
    torsion = [t for t, s in signs.items() if s]
    if not torsion:
        raise RecognitionFailed("neither f nor f^c is at the 3-torsion point (0, +-p^i/2)")
    if len(torsion) == 2:
        raise DescentFailed("f and f^c are both at the 3-torsion point; site unusable")
    tall = "fc" if torsion == ["f"] else "f"
    if tall not in points:
        raise DescentFailed(f"{tall} is at infinity; site unusable")
    bound = norm_bound(errors[tall])
    P, norm_bits = recognize(points[tall], twists[tall], bound, prec, tall)
    timings["recognize_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    T = CurvePoint(QOmega(p ** (2 * i)), QOmega(0), QOmega.from_ints(signs[torsion[0]] * p**i, 0, 2))
    torsion_ok = curves.is_torsion_at_zero(T)  # [2]T = -T: [3]T = O
    if not torsion_ok:
        raise DescentFailed(f"torsion side {T} is not 3-torsion")
    PK = sub_torsion(P, T)  # P_f - P_fc: P - T, or T - P when f^c is tall
    if tall == "fc":
        PK = -PK
    if PK.is_infinity:
        raise DescentFailed("twisted difference is the identity; site unusable")
    PQ, branch, cert = descend(PK, p, i)
    if not cert.nontorsion:
        raise DescentFailed("descended point is torsion")
    X, Y = curves.isogeny_to_432(PQ, p, i)
    cube = curves.to_cube_sum(X, Y, p, i)
    timings["descent_ms"] = 1000 * (time.perf_counter() - t0)

    checks = {
        "twisted_difference_on_curve": {"ok": PK.on_curve()},
        "descended_point_rational": {"ok": PQ.is_rational()},
        "nontorsion_certificate": {
            "ok": cert.nontorsion,
            "primes": list(cert.primes),
            "counts": list(cert.counts),
            "bound": cert.bound,
            "witness": cert.witness,
        },
        "cube_identity": {"ok": True},  # to_cube_sum raises when it fails
        "torsion_point": {"ok": torsion_ok, "form": torsion[0]},  # [3]T = O
        # bits of the tall side's norm bound left over by N(gamma),
        # x_scaled = alpha/gamma
        "precision_margin_bits": {tall: bound.bit_length() - 1 - norm_bits},
    }
    return PipelineResult(
        p=p,
        i=i,
        split=split,
        site=site,
        bits=prec,
        terms=M,
        tall_point=P,
        torsion_form=torsion[0],
        torsion_point=T,
        point_K=PK,
        descent_branch=branch,
        point_Q=PQ,
        certificate=cert,
        cube=cube,
        checks=checks,
        timings_ms=timings,
        attempts=[],  # solve_pipeline puts the failed attempts here
    )


# The default ladder starts at 96 bits, or at 48 for a power-1 prime below
# SMALL_P.  The bits a point needs grow with p: of the eligible primes below
# 512, 29 of 31 win at 48 bits at power 1, but of those from 512 to 1999
# only 24 of 70 do, and there a failed 48-bit rung costs more in total than
# the wins save.  The ladder doubles until it has tried a rung of at least
# TOP_BITS, and of at least 32 times its first (five doublings).
SMALL_P = 512
TOP_BITS = 3072


def first_bits(p, i):
    """The default first rung of the precision ladder for p^i."""
    return 48 if i == 1 and p < SMALL_P else 96


# Failures more precision cannot fix: the site, and with it the solve, is
# given up at once.
SITE_FAILURES = (DescentFailed, TermsCapExceeded)
PRECISION_FAILURES = (RecognitionFailed, EvalResidualTooLarge)


def solve_pipeline(p, i, bits=None, max_terms=2_000_000, form=None):
    """End-to-end: u^3 + v^3 = p^i with exact verification.

    The precision starts at `bits`, first_bits(p, i) when None (48 for a
    power-1 prime below SMALL_P, else 96), and doubles after every
    precision failure until a rung of at least max(TOP_BITS, 32 * start)
    bits has been tried at the one site (48 or 96 to 3072 bits by default,
    100 to 3200 from 100, 4096 to 131072 from 4096); a descent failure
    (no rational nontorsion point, or an identity difference) or the terms
    cap ends the solve at once.  The failed attempts come back in the
    result's `attempts` (attempt_ms, site, bits, error, message, and
    RecognitionFailed's norm_bits, stop_bits and check, None for any other
    failure) and, when the solve fails, in the PrecisionExhausted message.
    Each attempt extends `form`, the caller's HeckeForm store (a new one
    when None), to the terms the site needs, so a failed rung leaves its
    coefficients to the next.
    """
    split = split_prime(p)
    cand = Candidate(eval_site(p, i))
    if form is None:
        form = build_form(p, i, 0)
    attempts = []
    prec = first_bits(p, i) if bits is None else bits
    last = max(TOP_BITS, 32 * prec)
    while True:
        t0 = time.perf_counter()
        try:
            result = _attempt_site(cand, split, p, i, prec, max_terms, form)
        except SITE_FAILURES + PRECISION_FAILURES as e:
            attempts.append({
                "attempt_ms": 1000 * (time.perf_counter() - t0),
                "site": cand.site.label(),
                "bits": prec,
                "error": type(e).__name__,
                "message": str(e),
                # how near recognition came (RecognitionFailed), else None
                "norm_bits": getattr(e, "norm_bits", None),
                "stop_bits": getattr(e, "stop_bits", None),
                "check": getattr(e, "check", None),
            })
            if isinstance(e, SITE_FAILURES) or prec >= last:
                break
            prec *= 2
        else:
            result.attempts = attempts
            return result
    raise PrecisionExhausted("; ".join(
        f"{a['site']}@{a['bits']}b: {a['error']}: {a['message']}" for a in attempts
    ))
