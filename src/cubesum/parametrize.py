"""The orchestrated pipeline from CM sites to certified cube sums.

Stages: sum the Abel-Jacobi images of f and f^c at the one site W(tau_r)
(cmpoint.eval_site; one pass gives both), map each through wp on its
curve's lattice, recognize x in K (the non-torsion side lives over
K(pi^(1/3)), so x is recognized after scaling by a cube root; the torsion
side has x = 0) and solve for y by an exact square root in Z[w], twist both
to points of E(p^i) over K, take the difference, and descend to Q by the
trace or the sqrt(-3) endomorphism.  x is recognized as alpha/gamma by the
nearest-integer continued fraction over Z[w], under a bound on N(gamma)
that follows from a stated error bound on the numbers (norm_bound).  A
recognized point must match the numeric y to 2^-(prec/2), and the
descended point is certified by exact arithmetic (nontorsion certificate,
isogeny and cube identities) before it is reported.

solve_pipeline escalates precision on that one site, from 96 bits by
default: a numerical failure (RecognitionFailed, EvalResidualTooLarge)
retries at twice the bits, and a failure more bits cannot fix
(DescentFailed, including a twisted difference that is the identity, or
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
    fixed_sqrt3,
    fixed_to_mpc,
    lattice_of_curve,
    mpc_to_fixed,
    recognize_eisenstein,
    site_terms,
    wp_eval,
)
from .cmpoint import eval_site
from .curves import CurvePoint, DescentFailed, add, endo_omega, mul_sqrt_m3
from .eisenstein import EisensteinInt, QOmega, split_prime, sqrt_eis
from .heckeform import build_form


class RecognitionFailed(ArithmeticError):
    """No x in K within the attempt's norm bound matched the numbers, or a
    recognized point failed an exact check; more bits may mend it, so
    solve_pipeline retries at the next rung."""


class EvalResidualTooLarge(ArithmeticError):
    pass


class PrecisionExhausted(RuntimeError):
    pass


class TermsCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class RecognizedPoint:
    form: str  # "f" or "fc"
    at_infinity: bool
    x_scaled: QOmega | None  # x * mult^(2i/3) * w^twist_k, exact in K
    y: QOmega | None
    mult_tag: str | None  # "pi" or "pibar": which cube root made x algebraic
    twist_k: int
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
    taken by mpmath at W + 16 bits and floored, so it is off by under 2
    units while p^(i/3) < 2^14.  pibar^(2i)'s root is its conjugate, as
    pi^(2i) is off the real axis."""
    W = prec + GUARD_BITS
    with mp.workprec(W + 16):
        return mpc_to_fixed(mp.cbrt((split.pi ** (2 * i)).to_mpc(mp)), W)


def norm_bound(raw, root, prec):
    """The norm bound B = 8/delta on x_scaled's denominator, a power of two
    (0 when it would be under 2^8), for
    delta = 2^-prec (2|y| + 1) |root| the stated error bound on the numeric
    x_scaled of a raw point (x, y) and the cube root `root` (pairs at W =
    prec + GUARD_BITS); with it analytic.recognize_eisenstein recovers every
    x_scaled = alpha/gamma with N(gamma) <= B/256.

    The bound: eval_z's z is within 2^-prec + 2^-W of the exact sum
    (terms_needed's tail and the kernel's rounding), which moves x = wp(z) by
    |wp'(z)| = 2|y| times that to first order; the 1 covers the excess 2^-32
    of that product, the second-order term and wp_eval's own error while
    they stay under 2^-(prec+1), and the scaling's few units of 2^-W while
    |x| < 2^29.  Scaling by the root multiplies it by |root| = p^(i/3), and
    a twist w^k by 1.  Each factor is rounded up to a power of two:
    2|y| + 1 < 2^yb and |root| < 2^rb, so delta < 2^(yb + rb - prec).
    The recovery guarantee needs N(gamma) <= B/256, so under B = 2^8 it
    covers no denominator at all: such a bound is refused (0, which
    recognizes nothing), and the attempt fails for more precision.
    """
    W = prec + GUARD_BITS
    y, r = raw[1], root
    yb = ((math.isqrt(4 * (y[0] * y[0] + y[1] * y[1])) >> W) + 1).bit_length()
    rb = ((math.isqrt(r[0] * r[0] + r[1] * r[1]) >> W) + 1).bit_length()
    bits = prec - yb - rb + 3
    return 1 << bits if bits >= 8 else 0


def recognize(raw, split, i, bound, prec=192, form="f", root=None):
    """Exact coordinates for a raw point (x, y) of the form's curve, pairs
    at W = prec + GUARD_BITS.

    Tries, for each of the two cube-root scalings and each unit twist w^k,
    to recognize x_scaled = x * mult^(2i/3) * w^k in K as alpha/gamma with
    N(gamma) <= 2^n, n = floor(log2 bound), within 2^(3 - n) of the numbers
    (analytic.recognize_eisenstein; norm_bound gives the bound that matches
    their error).  x's rational denominator d divides N(gamma), and N(gamma)
    divides d^2 (they were equal at every solve checked), so x needs about
    log2 d bits, half of what its two rational coordinates recognized apart
    need.  y is not recognized but solved for: the twisted point (x_scaled,
    mult^i y) lies on E(p^i), so mult^i y = T/(2e^2) with T an exact square
    root in Z[w] (see _exact_y).  A candidate whose S has no root is passed
    over; of the two roots the one nearer the numeric mult^i y is kept, and
    it must agree with it to 2^-(prec/2).  After a rejection the scaling's
    remaining twists count as rejected untested, as x w^k has x's S and e.
    No candidate left raises RecognitionFailed, which triggers a precision
    retry.

    The principal cube roots of pi^(2i) and pibar^(2i) are conjugate, so
    one root, `root` = scaling_root(split, i, prec) (taken here when it is
    None), serves both tags; an attempt takes it once for f and f^c.
    Every comparison is of squared norms in units of 2^-2W.  A failure
    prints x to prec/2 bits.
    """
    x, y = raw
    W = prec + GUARD_BITS
    norm_bits = bound.bit_length() - 1
    c = split.p ** (2 * i)
    tol2 = 1 << 2 * (W - prec // 2)
    w = (-1 << W - 1, fixed_sqrt3(W) >> 1)
    root = root if root is not None else scaling_root(split, i, prec)
    roots = {"pi": root, "pibar": (root[0], -root[1])}
    mults = (("pi", split.pi), ("pibar", split.pibar))
    rejected = 0  # recognized x with no root, or a root off the numeric y
    for tag, mult in mults if form == "f" else mults[::-1]:
        m = mult**i
        y_twisted = fixed_mul(fixed_of(m, W), y, W)
        scaled = fixed_mul(x, roots[tag], W)
        # x w^k is in K exactly when x is, with x's e, S and y_twisted:
        # once the candidate for x is rejected under this tag, the later
        # k only approximate its twists and count as rejected untested
        refused = False
        for k in range(3):
            if k:
                scaled = fixed_mul(scaled, w, W)
            found = recognize_eisenstein(scaled, W, norm_bits)
            if found is None:
                continue
            if refused:
                rejected += 1
                continue
            cand, norm = found
            root = _exact_y(cand, c)
            if root is not None:
                T, e = root
                yv = fixed_of(QOmega.from_ints(T.a, T.b, 2 * e * e), W)
                near = (yv[0] - y_twisted[0]) ** 2 + (yv[1] - y_twisted[1]) ** 2
                far = (yv[0] + y_twisted[0]) ** 2 + (yv[1] + y_twisted[1]) ** 2
                if far < near:
                    T, near = -T, far
            if root is None or near >= tol2:
                rejected += 1
                refused = True
                continue
            # y = T / (2 e^2 m) = T conj(m) / (2 e^2 p^i)
            U, den = T * m.conj(), 2 * e * e * split.p**i
            return RecognizedPoint(
                form=form,
                at_infinity=False,
                x_scaled=cand,
                y=QOmega.from_ints(U.a, U.b, den),
                mult_tag=tag,
                twist_k=k,
                norm_bits=norm.bit_length() - 1,
            )
    with mp.workprec(prec // 2):
        shown = str(fixed_to_mpc(x, W))
    raise RecognitionFailed(
        f"x = {shown} not recognized under either cube root with N(gamma)"
        f" <= 2^{norm_bits}"
        + (f"; {rejected} candidate x had no exact y matching the numbers" if rejected else "")
    )


def recognized_infinity(form="f"):
    return RecognizedPoint(
        form=form, at_infinity=True, x_scaled=None, y=None, mult_tag=None, twist_k=0, norm_bits=0
    )


def twist_point(rp, split, i):
    """The exact point of E(p^i)(K) behind a recognized point.

    For mult_tag "pi" the twist is (x, y) -> (pi^(2i/3) x, pi^i y), which
    lands the recognized x_scaled directly in the x-slot; "pibar" is the
    conjugate map.  recognize solves for y on E(p^i), so the exact curve
    check passes by construction and stays as a guard on the data, not as a
    test of recognition: a wrong x is caught in recognize when S has no
    square root in Z[w], and otherwise by the numeric y agreement there,
    then the descent, the nontorsion certificate and the cube identity.
    """
    D = QOmega(split.p ** (2 * i))
    if rp.at_infinity:
        return CurvePoint.infinity(D)
    mult = split.pi if rp.mult_tag == "pi" else split.pibar
    x = rp.x_scaled
    y = mult.to_q() ** i * rp.y
    P = CurvePoint(D, x, y)
    if not P.on_curve():
        raise RecognitionFailed(
            f"twisted point ({x}, {y}) fails the exact curve equation"
        )
    return P


def twist_and_combine(rp_f, rp_fc, split, i):
    """phi(phi-image) - phi^c(phi^c-image) on E(p^i), exact over K."""
    Pf = twist_point(rp_f, split, i)
    Pfc = twist_point(rp_fc, split, i)
    return add(Pf, -Pfc)


def descend(PK, p, i):
    """(point, branch, certificate): a rational point of E(p^i) from an exact
    K-point, with the two-prime certificate that it is nontorsion.

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
    rec_f: RecognizedPoint
    rec_fc: RecognizedPoint
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
    kind_f, raw_f = evaluate_cm(z_f, D_f, prec, L_f)
    kind_fc, raw_fc = evaluate_cm(z_fc, D_fc, prec, L_f.conj())
    timings["evaluate_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # each side's bound follows from the error of its own numbers
    root = scaling_root(split, i, prec)
    bound = {}
    recs = []
    for form_tag, kind, raw in (("f", kind_f, raw_f), ("fc", kind_fc, raw_fc)):
        if kind == "infinity":
            recs.append(recognized_infinity(form_tag))
            continue
        bound[form_tag] = norm_bound(raw, root, prec)
        recs.append(recognize(raw, split, i, bound[form_tag], prec, form=form_tag, root=root))
    rec_f, rec_fc = recs
    timings["recognize_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    PK = twist_and_combine(rec_f, rec_fc, split, i)
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
        },
        "cube_identity": {"ok": cube.verify()},
        # bits of the norm bound left over by N(gamma), x_scaled = alpha/gamma
        "precision_margin_bits": {
            rec.form: None if rec.at_infinity else bound[rec.form].bit_length() - 1 - rec.norm_bits
            for rec in (rec_f, rec_fc)
        },
    }
    return PipelineResult(
        p=p,
        i=i,
        split=split,
        site=site,
        bits=prec,
        terms=M,
        rec_f=rec_f,
        rec_fc=rec_fc,
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
