"""The orchestrated pipeline from CM sites to certified cube sums.

Stages: sum the Abel-Jacobi images of f and f^c at the one site W(tau_r)
(cmpoint.eval_site; one pass gives both), map each through wp on its
curve's lattice, recognize x in K (the non-torsion side lives over
K(pi^(1/3)), so x is recognized after scaling by a cube root; the torsion
side has x = 0) and solve for y by an exact square root in Z[w], twist both
to points of E(p^i) over K, take the difference, and descend to Q by the
trace or the sqrt(-3) endomorphism.  Recognizing x alone needs about 2/3 of the bits y would.
A recognized point must match the numeric y to 2^-(prec/2), and the
descended point is certified by exact arithmetic (nontorsion certificate,
isogeny and cube identities) before it is reported.

solve_pipeline escalates precision on that one site: a numerical failure
(RecognitionFailed, EvalResidualTooLarge) retries at twice the bits, and a
failure more bits cannot fix (DescentFailed, including a twisted difference
that is the identity, or TermsCapExceeded) ends the solve at once.  Every
failed attempt is kept in PipelineResult.attempts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from . import analytic, curves
from .analytic import (
    GUARD_BITS,
    PoleAtLatticePoint,
    TermsCapExceeded,
    eval_z,
    lattice_of_curve,
    recognize_qomega,
    terms_needed,
    wp_eval,
)
from .cmpoint import eval_site
from .curves import CurvePoint, DescentFailed, add, endo_omega, mul_sqrt_m3
from .eisenstein import EisensteinInt, QOmega, split_prime, sqrt_eis
from .heckeform import build_form


class RecognitionFailed(ArithmeticError):
    pass


class EvalResidualTooLarge(ArithmeticError):
    pass


class PrecisionExhausted(RuntimeError):
    pass


@dataclass(frozen=True)
class RecognizedPoint:
    form: str  # "f" or "fc"
    at_infinity: bool
    x_scaled: QOmega | None  # x * mult^(2i/3) * w^twist_k, exact in K
    y: QOmega | None
    mult_tag: str | None  # "pi" or "pibar": which cube root made x algebraic
    twist_k: int
    den_bits: int  # floor(log2) of the lcm of x_scaled's denominators


def evaluate_cm(z, D, prec=192):
    """("infinity", None) or ("point", (x, y)) for a summed Abel-Jacobi image.

    z comes from eval_z at a CM site; x = wp(z), y = wp'(z)/2 on the lattice
    of the curve y^2 = x^3 + D/4 that the form belongs to; the curve residual
    must clear 2^-(prec-40) or the evaluation is rejected.  A z on the
    lattice (wp_eval's PoleAtLatticePoint) is the point at infinity.
    """
    lattice = lattice_of_curve(D, prec)
    with mp.workprec(prec + GUARD_BITS):
        try:
            wp, wpd = wp_eval(lattice, z, prec)
        except PoleAtLatticePoint:
            return "infinity", None
        x, y = wp, wpd / 2
        res = abs(y * y - x**3 - D.to_mpc(mp) / 4)
        scale = max(1, abs(x) ** 3)
        if res > mp.mpf(2) ** (-(prec - 40)) * scale:
            raise EvalResidualTooLarge(f"curve residual 2^{mp.log(res, 2)}")
        return "point", (x, y)


def _exact_y(x, c):
    """(T, e) with y = T/(2 e^2) on y^2 = x^3 + c/4, or None if y is not in K.

    With x = (a + b w)/e, e the lcm of the denominators, T^2 = S =
    4 e (a + b w)^3 + c e^4 in Z[w]; T is one of the two roots.
    """
    e = math.lcm(x.a.denominator, x.b.denominator)
    num = EisensteinInt(x.a * e, x.b * e) ** 3
    T = sqrt_eis(EisensteinInt(4 * e * num.a + c * e**4, 4 * e * num.b))
    return None if T is None else (T, e)


def recognize(raw, split, i, den_bound, prec=192, form="f"):
    """Exact coordinates for a raw complex point of the form's curve.

    Tries, for each of the two cube-root scalings and each unit twist w^k,
    to recognize x_scaled = x * mult^(2i/3) * w^k in K with denominators at
    most den_bound; y is not recognized but solved for: the twisted point
    (x_scaled, mult^i y) lies on E(p^i), so mult^i y = T/(2e^2) with T an
    exact square root in Z[w] (see _exact_y).  A candidate whose S has no
    root is passed over; of the two roots the one nearer the numeric
    mult^i y is kept, and it must agree with it to 2^-(prec/2).  x therefore
    needs only its own denominator bits, about 2/3 of y's (x = a/d^2 and
    y = b/d^3 on y^2 = x^3 + c).  No candidate left raises RecognitionFailed,
    which triggers a precision retry.
    """
    x, y = raw
    c = split.p ** (2 * i)
    with mp.workprec(prec + GUARD_BITS):
        tol = mp.mpf(2) ** (-(prec // 2))
        w = analytic.omega_mpc()
        mults = (("pi", split.pi), ("pibar", split.pibar))
        rejected = 0  # recognized x with no root, or a root off the numeric y
        for tag, mult in mults if form == "f" else mults[::-1]:
            m = mult**i
            m_c = m.to_mpc(mp)
            y_twisted = m_c * y
            # the principal cube root of mult^(2i)
            scaled = mp.mpc(x) * (m_c * m_c) ** (mp.mpf(1) / 3)
            for k in range(3):
                cand = recognize_qomega(scaled * w**k, den_bound, prec // 2)
                if cand is None:
                    continue
                root = _exact_y(cand, c)
                if root is None:
                    rejected += 1
                    continue
                T, e = root
                yv = T.to_mpc(mp) / (2 * e * e)
                if abs(yv + y_twisted) < abs(yv - y_twisted):
                    T, yv = -T, -yv
                if abs(yv - y_twisted) >= tol:
                    rejected += 1
                    continue
                # y = T / (2 e^2 m) = T conj(m) / (2 e^2 p^i)
                U, den = T * m.conj(), 2 * e * e * split.p**i
                return RecognizedPoint(
                    form=form,
                    at_infinity=False,
                    x_scaled=cand,
                    y=QOmega(Fraction(U.a, den), Fraction(U.b, den)),
                    mult_tag=tag,
                    twist_k=k,
                    den_bits=e.bit_length() - 1,
                )
        raise RecognitionFailed(
            f"x = {x} not recognized under either cube root with denominators"
            f" <= 2^{den_bound.bit_length() - 1}"
            + (f"; {rejected} candidate x had no exact y matching the numbers" if rejected else "")
        )


def recognized_infinity(form="f"):
    return RecognizedPoint(
        form=form, at_infinity=True, x_scaled=None, y=None, mult_tag=None, twist_k=0, den_bits=0
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
    D = QOmega(Fraction(split.p) ** (2 * i))
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
    M = terms_needed(float(site.im_coeff) * 3**0.5, prec)
    if max_terms is not None and M > max_terms:
        raise TermsCapExceeded(f"site {site.label()} needs {M} > {max_terms} terms")
    form.extend(M)  # the coefficients do not depend on prec
    timings["coefficients_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # f lives on y^2 = x^3 + pibar^(2i)/4 and f^c on the conjugate curve
    D_f, D_fc = split.pibar ** (2 * i), split.pi ** (2 * i)
    z_f, z_fc = eval_z(form, site, prec, max_terms=max_terms)
    kind_f, raw_f = evaluate_cm(z_f, D_f, prec)
    kind_fc, raw_fc = evaluate_cm(z_fc, D_fc, prec)
    timings["evaluate_ms"] = 1000 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    # continued fractions recover denominators up to about 2^(prec/2)
    den_bound_bits = max(prec // 2 - 12, 40)
    den_bound = 1 << den_bound_bits
    rec_f = (
        recognized_infinity("f")
        if kind_f == "infinity"
        else recognize(raw_f, split, i, den_bound, prec, form="f")
    )
    rec_fc = (
        recognized_infinity("fc")
        if kind_fc == "infinity"
        else recognize(raw_fc, split, i, den_bound, prec, form="fc")
    )
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
        # bits of den_bound left over by x_scaled's denominator
        "precision_margin_bits": {
            rec.form: None if rec.at_infinity else den_bound_bits - rec.den_bits
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


RUNGS = 5  # precisions tried: bits, 2 bits, ..., 16 bits

# Failures more precision cannot fix: the site, and with it the solve, is
# given up at once.
SITE_FAILURES = (DescentFailed, TermsCapExceeded)
PRECISION_FAILURES = (RecognitionFailed, EvalResidualTooLarge)


def solve_pipeline(p, i, bits=192, max_terms=2_000_000, form=None):
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
