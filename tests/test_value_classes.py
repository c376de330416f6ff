"""The result and record classes are plain __slots__ classes: construction
by keyword, immutability where they are frozen, value equality (and hash)
where callers compare them, and the CurvePoint repr that error messages
embed."""

from fractions import Fraction

import pytest

from cubesum.analytic import PeriodLattice, lattice_of_curve
from cubesum.cli import RunReport
from cubesum.cmpoint import CMPoint, EvalSite, eval_site
from cubesum.curves import CubeSum, CurvePoint, TorsionCertificate, nontorsion_certificate
from cubesum.eisenstein import PrimeSplit, QOmega, split_prime
from cubesum.heckeform import HeckeForm, TwistReport, build_form
from cubesum.parametrize import Candidate, PipelineResult


def _point():
    return CurvePoint.make(QOmega(49), QOmega(Fraction(-20, 9)), QOmega(Fraction(-61, 54)))


def test_curve_point_repr_is_pinned():
    # the strings the dataclass repr gave: DescentFailed messages embed them
    P = _point()
    want = ("CurvePoint(D=QOmega(Fraction(49, 1), Fraction(0, 1)), "
            "x=QOmega(Fraction(-20, 9), Fraction(0, 1)), y=QOmega(Fraction(-61, 54), Fraction(0, 1)))")
    assert repr(P) == str(P) == f"{P}" == want
    Q = CurvePoint.make(QOmega(49), QOmega(0, Fraction(-7, 3)), QOmega(Fraction(7, 18), Fraction(7, 9)))
    assert repr(Q) == ("CurvePoint(D=QOmega(Fraction(49, 1), Fraction(0, 1)), "
                       "x=QOmega(Fraction(0, 1), Fraction(-7, 3)), y=QOmega(Fraction(7, 18), Fraction(7, 9)))")
    O = CurvePoint.infinity(QOmega(49))
    assert f"{O}" == "CurvePoint(D=QOmega(Fraction(49, 1), Fraction(0, 1)), x=None, y=None)"


def _equal_pairs():
    """(a, b, c): a and b equal but distinct objects, c different."""
    P = _point()
    s = split_prime(7)
    L = lattice_of_curve(s.pibar**2, 64)
    cert = nontorsion_certificate(P, 7, 1)
    pt = eval_site(7, 1).point
    return {
        "CurvePoint": (P, CurvePoint(D=P.D, x=P.x, y=P.y), -P),
        "CurvePoint-infinity": (CurvePoint.infinity(QOmega(49)), CurvePoint.infinity(49), P),
        "CubeSum": (CubeSum(Fraction(2), Fraction(-1), 7), CubeSum(u=2, v=-1, target=7),
                    CubeSum(Fraction(-1), Fraction(2), 7)),
        "TorsionCertificate": (cert, nontorsion_certificate(P, 7, 1), TorsionCertificate((), (), 0, False)),
        "CMPoint": (pt, CMPoint(p=7, r=pt.r, t=pt.t), eval_site(13, 1).point),
        "EvalSite": (eval_site(7, 1), eval_site(7, 1), eval_site(7, 2)),
        "PrimeSplit": (s, PrimeSplit(p=7, pi=s.pi, pibar=s.pibar), split_prime(13)),
        "PeriodLattice": (L, L.conj().conj(), L.conj()),
    }


# the classes that hash as well as compare; CubeSum and TorsionCertificate
# only compare, since nothing hashes them
HASHED = {"CurvePoint", "CurvePoint-infinity", "CMPoint", "EvalSite", "PrimeSplit", "PeriodLattice"}


@pytest.mark.parametrize("name", list(_equal_pairs()))
def test_value_equality_and_hash(name):
    a, b, c = _equal_pairs()[name]
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != object() and a != (a,)
    if name in HASHED:
        assert hash(a) == hash(b) and len({a, b, c}) == 2


def test_hecke_form_compares_by_fields():
    # the cache tests compare a read-back store with a fresh one; a store
    # is mutable, so it is not hashable
    f, g = build_form(7, 1, 20), build_form(7, 1, 20)
    assert f is not g and f == g
    g.extend(40)
    assert f != g and g == build_form(7, 1, 40)
    assert f != HeckeForm(p=7, i=1, N=f.N, terms=20, b=f.b[:-1])
    with pytest.raises(TypeError):
        hash(f)


def _frozen():
    s = split_prime(7)
    return [
        s,
        TwistReport(p=7, i=1, M=10, checked=9),
        _point(),
        CubeSum(u=Fraction(2), v=Fraction(-1), target=7),
        TorsionCertificate(primes=(), counts=(), bound=0, nontorsion=False),
        lattice_of_curve(s.pibar**2, 64),
        eval_site(7, 1).point,
        eval_site(7, 1),
        Candidate(site=eval_site(7, 1)),
    ]


@pytest.mark.parametrize("obj", _frozen(), ids=lambda o: type(o).__name__)
def test_frozen_classes_refuse_assignment(obj):
    # AttributeError, the base class of dataclasses.FrozenInstanceError
    for name in type(obj).__slots__:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_construction_by_keyword_and_defaults():
    s = split_prime(7)
    assert (s.p, s.pi, s.pibar) == (7, s.pi, s.pibar)
    rep = TwistReport(p=7, i=1, M=10, checked=9)
    assert (rep.p, rep.i, rep.M, rep.checked, rep.ok) == (7, 1, 10, 9, True)
    cert = TorsionCertificate(primes=(13, 19), counts=(3, 3), bound=3, nontorsion=True)
    assert (cert.primes, cert.counts, cert.bound, cert.nontorsion) == ((13, 19), (3, 3), 3, True)
    assert cert.witness is None
    L = PeriodLattice(inv=(1, 2), prec=64)
    assert (L.inv, L.prec) == ((1, 2), 64)
    site = EvalSite(point=CMPoint(p=7, r=5, t=1), N=189)
    assert site == eval_site(7, 1) and Candidate(site=site).site is site
    f = HeckeForm(p=7, i=1, N=189, terms=0, b=[])
    f.extend(10)
    assert f == build_form(7, 1, 10)
    fields = dict(p=7, i=1, split=s, site=site, bits=48, terms=10, tall_point=None, torsion_form="f",
                  torsion_point=None, point_K=None, descent_branch="", point_Q=None, certificate=cert,
                  cube=None, checks={}, timings_ms={})
    r1, r2 = PipelineResult(**fields), PipelineResult(**fields)
    assert r1.attempts == [] and r1.attempts is not r2.attempts
    r1.attempts = [{}]  # a solve's result and report stay mutable
    assert PipelineResult(**fields, attempts=r1.attempts).attempts is r1.attempts
    names = ("p", "i", "pi", "r", "t", "site", "bits", "terms", "point_K", "point_Q",
             "descent_branch", "cube_sum", "checks", "timings_ms", "attempts")
    report = RunReport(**{name: k for k, name in enumerate(names)})
    assert list(report.to_dict()) == list(names)
    assert list(report.to_dict().values()) == list(range(len(names)))
    report.bits = 96
    assert report.to_dict()["bits"] == 96
