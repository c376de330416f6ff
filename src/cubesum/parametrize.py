"""The orchestrated pipeline from CM sites to certified cube sums.

Stages: sum the Abel-Jacobi images of f and f^c at the one site W(tau_r)
(cmpoint.eval_site; one pass gives both) and map each through wp on its
curve's lattice.  One image is the 3-torsion point whose twist to E(p^i)
is T = (0, +-p^i/2), the cusp image; it is read off the numbers
(torsion_sign) and T is built exactly.  The other, tall, side lives over
K(pi^(1/3)): its x is recognized in K under the one cube-root scaling that
twists its curve onto E(p^i), within a norm bound that follows from a
stated error bound on the numbers (norm_bound), and y is solved for
exactly (recognize).  P_f - P_fc on E(p^i) is descended to Q by the trace
or the sqrt(-3) endomorphism.  [3]T = O is checked exactly, and the
descended point is certified by exact arithmetic (nontorsion certificate,
isogeny and cube identities) before it is reported.

solve_pipeline escalates precision on that one site, from 96 bits by
default: a numerical failure (RecognitionFailed, which includes no side at
T, EvalResidualTooLarge) retries at twice the bits, and a failure more bits
cannot fix (DescentFailed, which includes both sides at T, a tall side at
infinity and a twisted difference that is the identity, or
TermsCapExceeded) ends the solve at once.  Every failed attempt is kept in
PipelineResult.attempts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from mpmath import mp

from . import curves
from .analytic import (
    GUARD_BITS,
    PoleAtLatticePoint,
    eval_z,
    fixed_mul,
    fixed_of,
    fixed_to_mpc,
    lattice_of_curve,
    principal_root,
    recognize_eisenstein,
    site_terms,
    wp_eval,
)
from .cmpoint import eval_site
from .curves import CurvePoint, DescentFailed, add, endo_omega, mul, mul_sqrt_m3
from .eisenstein import EisensteinInt, QOmega, split_prime, sqrt_eis
from .heckeform import build_form


class RecognitionFailed(ArithmeticError):
    """No side read as the 3-torsion point, no x in K within the norm bound
    matched the numbers, or a recognized point failed an exact check; more
    bits may mend it, so solve_pipeline retries at the next rung."""


class EvalResidualTooLarge(ArithmeticError):
    pass


class PrecisionExhausted(RuntimeError):
    pass


class TermsCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class RecognizedPoint:
    form: str  # "f" or "fc": the tall side
    x_scaled: QOmega  # x * u^2 with u^6 = pi^(2i) for f (pibar^(2i) for f^c), exact in K
    y: QOmega
    norm_bits: int  # floor(log2 N(gamma)), x_scaled = alpha/gamma in lowest terms


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
        x, wpd = wp_eval(lattice, z, prec)
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


def scaling_root(split, i, prec=192):
    """The principal cube root of pi^(2i), a pair at W = prec + GUARD_BITS,
    by Newton steps on the integers (analytic.principal_root, which gives
    the proof): off by under 1 + 1/32 + p^(i/3) 2^-16 units, so under 2
    while p^(i/3) < 2^14.  pibar^(2i)'s root is its
    conjugate, as pi^(2i) is off the real axis."""
    return principal_root(split.pi ** (2 * i), 3, prec + GUARD_BITS)


def _twist(split, i, root, form):
    """(u^3, u^2) of the twist (x, y) -> (u^2 x, u^3 y) of the form's curve
    onto E(p^i): (pi^i, root) for f, the conjugates for f^c; u^2 a pair."""
    if form == "f":
        return split.pi**i, root
    return split.pibar**i, (root[0], -root[1])


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
    (terms_needed's tail and the kernel's rounding), which moves x = wp(z) by
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


def norm_bound(raw, root, prec):
    """The norm bound B = 8/2^e on x_scaled's denominator (_error_bits);
    analytic.recognize_eisenstein recovers every x_scaled = alpha/gamma with
    N(gamma) <= B/256, so under B = 2^8 it covers none: such a bound is
    refused (0, which recognizes nothing), and the attempt fails for more
    precision."""
    bits = 3 - _error_bits(raw, root, prec)
    return 1 << bits if bits >= 8 else 0


def torsion_sign(raw, split, i, root, prec, form):
    """s when a raw point (x, y) of the form's curve is, to its numbers, the
    point whose twist is T = (0, s p^i/2) on E(p^i): the scaled x within
    the stated error 2^e of 0 (_error_bits) and the twisted y within
    2^-(prec/2), recognize's tolerance, of +-p^i/2; None otherwise, and
    also where norm_bound refuses the error (e > -5), as recognize would."""
    x, y = raw
    W = prec + GUARD_BITS
    u3, u2 = _twist(split, i, root, form)
    e = _error_bits(raw, root, prec)
    sx = fixed_mul(x, u2, W)
    if e > -5 or sx[0] * sx[0] + sx[1] * sx[1] >= 1 << 2 * (W + e):
        return None
    half = (split.p**i << W) >> 1
    return _sign_near((half, 0), fixed_mul(fixed_of(u3, W), y, W), 1 << 2 * (W - prec // 2))


def recognize(raw, split, i, bound, prec=192, form="f", root=None):
    """Exact coordinates for a raw point (x, y) of the form's curve (pairs
    at W = prec + GUARD_BITS; `root` = scaling_root(split, i, prec), taken
    here when None) by one continued fraction: x_scaled = x u^2, under the
    twist (x, y) -> (u^2 x, u^3 y) of _twist, is recognized in K as
    alpha/gamma with N(gamma) <= 2^n, n = floor(log2 bound), within 2^(3 -
    n) of the numbers (analytic.recognize_eisenstein).  N(gamma) is about
    x's rational denominator, half the bits of its two rational coordinates
    recognized apart.  y is solved for: u^3 y = T/(2e^2) on E(p^i) with T
    an exact square root in Z[w] (_exact_y), of the sign nearer the numeric
    u^3 y, which it must match to 2^-(prec/2).  Anything else raises
    RecognitionFailed, which triggers a precision retry.

    One scaling.  f's curve y^2 = x^3 + pibar^(2i)/4 twists onto y^2 = x^3
    + u^6 pibar^(2i)/4, which is E(p^i) when u^6 = pi^(2i): f takes the cube
    root of pi^(2i) and f^c its conjugate.  Under the other root (X, Y)
    would lie on Y^2 = X^3 + pibar^(4i)/4, and no exact y on E(p^i) matches Y.

    One branch.  The other cube roots are root * w^k, and x w^k lies in K
    exactly when x does, with x's gamma, at x's distance from the numbers
    (|w| = 1), and [w^k](x, y) = (x w^k, y) keeps y.  So the recovery proof
    of recognize_eisenstein for the principal root (k = 0) covers them all.
    """
    x, y = raw
    W = prec + GUARD_BITS
    norm_bits = bound.bit_length() - 1
    u3, u2 = _twist(split, i, root if root is not None else scaling_root(split, i, prec), form)
    found = recognize_eisenstein(fixed_mul(x, u2, W), W, norm_bits)
    if found is not None:
        cand, norm = found
        exact = _exact_y(cand, split.p ** (2 * i))
        if exact is not None:
            T, e = exact
            yv = fixed_of(QOmega.from_ints(T.a, T.b, 2 * e * e), W)
            s = _sign_near(yv, fixed_mul(fixed_of(u3, W), y, W), 1 << 2 * (W - prec // 2))
            if s is not None:
                U = T * u3.conj() * s  # y = s T / (2 e^2 u^3) = s T conj(u^3) / (2 e^2 p^i)
                return RecognizedPoint(
                    form=form,
                    x_scaled=cand,
                    y=QOmega.from_ints(U.a, U.b, 2 * e * e * split.p**i),
                    norm_bits=norm.bit_length() - 1,
                )
    with mp.workprec(prec // 2):
        shown = str(fixed_to_mpc(x, W))
    raise RecognitionFailed(
        f"x of {form} = {shown} not recognized with N(gamma) <= 2^{norm_bits}"
        + ("; its candidate x had no exact y matching the numbers" if found else "")
    )


def twist_point(rp, split, i):
    """The exact point of E(p^i)(K) behind a recognized point.

    The twist is (x, y) -> (u^2 x, u^3 y) with u^3 = pi^i for f and pibar^i
    for f^c (see recognize for why no other is tried), which lands the
    recognized x_scaled directly in the x-slot.  recognize solves for y on
    E(p^i), so the exact curve check passes by construction and stays as a
    guard on the data, not as a test of recognition: a wrong x is caught in
    recognize when S has no square root in Z[w], and otherwise by the
    numeric y agreement there, then the descent, the nontorsion certificate
    and the cube identity.
    """
    u3 = (split.pi if rp.form == "f" else split.pibar).to_q() ** i
    x = rp.x_scaled
    y = u3 * rp.y
    P = CurvePoint(QOmega(split.p ** (2 * i)), x, y)
    if not P.on_curve():
        raise RecognitionFailed(
            f"twisted point ({x}, {y}) fails the exact curve equation"
        )
    return P


def descend(PK, p, i):
    """(point, branch, certificate): a rational point of E(p^i) from an exact
    K-point, with the two-prime certificate that it is nontorsion (decided
    at curves.WITNESS_PRIME, or over Q when the witness reads O).

    Branch 1 is the trace P + conj(P); branch 2 is [sqrt(-3)]P when that is
    rational.  Both branches are tried across the six unit twists
    [w^k](+-P) before giving up.  A rational candidate is certified once,
    here, unless it is the identity or has x = 0 (the known 3-torsion
    (0, +-p^i/2)).
    """
    variants = []
    for sgn in (1, -1):
        Q = PK if sgn == 1 else -PK
        for k in range(3):
            variants.append((k, sgn, Q))
            Q = endo_omega(Q)
    branches = (("trace", lambda P: add(P, P.conj())), ("sqrt-3", mul_sqrt_m3))
    for k, sgn, Q in variants:
        for name, branch in branches:
            R = branch(Q)
            if R.is_infinity or R.x == QOmega(0) or not R.is_rational():
                continue
            cert = curves.nontorsion_certificate(R, p, i)
            if cert.nontorsion:
                return R, f"{name}(w^{k}{'+' if sgn > 0 else '-'})", cert
    raise DescentFailed(f"no rational nontorsion point from {PK}")


@dataclass
class PipelineResult:
    p: int
    i: int
    split: object
    site: object
    bits: int
    terms: int
    rec: RecognizedPoint  # the tall side
    torsion_form: str  # the other side, "f" or "fc"
    torsion_point: CurvePoint  # its exact point T = (0, +-p^i/2) on E(p^i)
    point_K: CurvePoint
    descent_branch: str
    point_Q: CurvePoint
    certificate: object
    X: QOmega
    Y: QOmega
    cube: object
    checks: dict
    timings_ms: dict
    attempts: list = field(default_factory=list)  # the failed attempts before this one


# perfbench/tracer.py binds _attempt_site's `cand` argument and reads cand.site.
@dataclass(frozen=True)
class Candidate:
    site: object  # cmpoint.EvalSite


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
    D_f, D_fc = split.pibar ** (2 * i), split.pi ** (2 * i)
    z_f, z_fc = eval_z(form, site, prec)
    L_f = lattice_of_curve(D_f, prec)
    sides = {"f": evaluate_cm(z_f, D_f, prec, L_f), "fc": evaluate_cm(z_fc, D_fc, prec, L_f.conj())}
    timings["evaluate_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # one side is the 3-torsion point T, taken exactly; the other, tall,
    # side is recognized under its one scaling
    root = scaling_root(split, i, prec)
    signs = {t: torsion_sign(raw, split, i, root, prec, t) for t, (kind, raw) in sides.items()
             if kind == "point"}
    torsion = [t for t, s in signs.items() if s]
    if not torsion:
        raise RecognitionFailed("neither f nor f^c is at the 3-torsion point (0, +-p^i/2)")
    if len(torsion) == 2:
        raise DescentFailed("f and f^c are both at the 3-torsion point; site unusable")
    tall = "fc" if torsion == ["f"] else "f"
    kind, raw = sides[tall]
    if kind == "infinity":
        raise DescentFailed(f"{tall} is at infinity; site unusable")
    bound = norm_bound(raw, root, prec)
    rec = recognize(raw, split, i, bound, prec, form=tall, root=root)
    timings["recognize_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    T = CurvePoint(QOmega(p ** (2 * i)), QOmega(0), QOmega.from_ints(signs[torsion[0]] * p**i, 0, 2))
    torsion_ok = T.on_curve() and mul(3, T).is_infinity
    if not torsion_ok:
        raise DescentFailed(f"torsion side {T} is not 3-torsion")
    P = twist_point(rec, split, i)
    PK = add(P, -T) if tall == "f" else add(T, -P)  # P_f - P_fc
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
        "cube_identity": {"ok": cube.verify()},
        "torsion_point": {"ok": torsion_ok, "form": torsion[0]},  # [3]T = O
        # bits of the tall side's norm bound left over by N(gamma),
        # x_scaled = alpha/gamma
        "precision_margin_bits": {tall: bound.bit_length() - 1 - rec.norm_bits},
    }
    return PipelineResult(
        p=p,
        i=i,
        split=split,
        site=site,
        bits=prec,
        terms=M,
        rec=rec,
        torsion_form=torsion[0],
        torsion_point=T,
        point_K=PK,
        descent_branch=branch,
        point_Q=PQ,
        certificate=cert,
        X=X,
        Y=Y,
        cube=cube,
        checks=checks,
        timings_ms=timings,
    )


RUNGS = 6  # precisions tried: bits, 2 bits, ..., 32 bits

# Failures more precision cannot fix: the site, and with it the solve, is
# given up at once.
SITE_FAILURES = (DescentFailed, TermsCapExceeded)
PRECISION_FAILURES = (RecognitionFailed, EvalResidualTooLarge)


def solve_pipeline(p, i, bits=96, max_terms=2_000_000, form=None):
    """End-to-end: u^3 + v^3 = p^i with exact verification.

    The precision starts at `bits` and doubles after every precision
    failure, for at most RUNGS attempts at the one site; a descent failure
    (no rational nontorsion point, or an identity difference) or the terms
    cap ends the solve at once.  The failed attempts come back in the
    result's `attempts` (site, bits, error, message) and, when the solve
    fails, in the PrecisionExhausted message.  Each attempt extends `form`,
    the caller's HeckeForm store (a new one when None), to the terms the
    site needs.
    """
    split = split_prime(p)
    cand = Candidate(eval_site(p, i))
    if form is None:
        form = build_form(p, i, 0)
    attempts = []
    prec = bits
    for _ in range(RUNGS):
        try:
            result = _attempt_site(cand, split, p, i, prec, max_terms, form)
        except SITE_FAILURES + PRECISION_FAILURES as e:
            attempts.append({
                "site": cand.site.label(),
                "bits": prec,
                "error": type(e).__name__,
                "message": str(e),
            })
            if isinstance(e, SITE_FAILURES):
                break
            prec *= 2
        else:
            result.attempts = attempts
            return result
    raise PrecisionExhausted("; ".join(
        f"{a['site']}@{a['bits']}b: {a['error']}: {a['message']}" for a in attempts
    ))
