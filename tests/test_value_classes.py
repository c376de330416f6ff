"""The result and record classes are __slots__ classes on one Record base:
construction by position or keyword, immutability and hash where they are
Frozen, value equality, and the generic repr (CurvePoint's is embedded in
error messages)."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import cubesum
from cubesum.analytic import PeriodLattice, lattice_of_curve
from cubesum.cli import RunReport
from cubesum.cmpoint import CMPoint, EvalSite, eval_site
from cubesum.curves import CubeSum, CurvePoint, TorsionCertificate, nontorsion_certificate
from cubesum.eisenstein import Frozen, PrimeSplit, QOmega, Record, split_prime
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
    # every record shares that form
    assert repr(EvalSite(point=CMPoint(p=7, r=5, t=1), N=189)) == "EvalSite(point=CMPoint(p=7, r=5, t=1), N=189)"


def _result_fields():
    return dict(p=7, i=1, split=split_prime(7), site=eval_site(7, 1), bits=48, terms=10, tall_point=None,
                torsion_form="f", torsion_point=None, point_K=None, descent_branch="", point_Q=None,
                certificate=None, cube=None, checks={}, timings_ms={})


_REPORT_FIELDS = ("p", "i", "pi", "r", "t", "site", "bits", "terms", "point_K", "point_Q",
                  "descent_branch", "cube_sum", "checks", "timings_ms", "attempts")


def _equal_pairs():
    """(a, b, c): a and b equal but distinct objects, c different."""
    P = _point()
    s = split_prime(7)
    L = lattice_of_curve(s.pibar**2, 64)
    cert = nontorsion_certificate(P, 7, 1)
    pt = eval_site(7, 1).point
    site = eval_site(7, 1)
    report = {name: k for k, name in enumerate(_REPORT_FIELDS)}
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
        "TwistReport": (TwistReport(7, 1, 10, 9), TwistReport(p=7, i=1, M=10, checked=9),
                        TwistReport(7, 1, 10, 8)),
        "Candidate": (Candidate(site), Candidate(site=eval_site(7, 1)), Candidate(eval_site(7, 2))),
        "HeckeForm": (build_form(7, 1, 20), build_form(7, 1, 20), build_form(7, 1, 40)),
        "PipelineResult": (PipelineResult(**_result_fields()), PipelineResult(**_result_fields()),
                           PipelineResult(**dict(_result_fields(), bits=96))),
        "RunReport": (RunReport(**report), RunReport(*range(len(_REPORT_FIELDS))),
                      RunReport(**dict(report, bits=96))),
    }


@pytest.mark.parametrize("name", list(_equal_pairs()))
def test_value_equality_and_hash(name):
    a, b, c = _equal_pairs()[name]
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != object() and a != (a,)
    if isinstance(a, Frozen):
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):  # mutable, so unhashable
            hash(a)


def _records(base):
    for info in pkgutil.iter_modules(cubesum.__path__):
        importlib.import_module(f"cubesum.{info.name}")
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("cubesum.") and sub is not Frozen:
                found.add(sub)
    return found


def test_every_record_class_is_checked():
    # a new record class joins _equal_pairs, and _frozen too if it is Frozen
    assert _records(Record) == {type(a) for a, _, _ in _equal_pairs().values()}
    assert _records(Frozen) == {type(obj) for obj in _frozen()}


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


def test_record_argument_checks():
    assert CMPoint(7, r=5, t=1) == CMPoint(7, 5, 1) == CMPoint(t=1, p=7, r=5)
    for args, kwargs, what in [((7, 5), {}, "missing field 't'"),
                               ((), {"p": 7, "r": 5}, "missing field 't'"),
                               ((7, 5, 1), {"s": 0}, "no field 's'"),
                               ((7, 5, 1), {"denom": 0}, "no field 'denom'"),
                               ((7, 5), {"r": 5, "t": 1}, "both by position and by keyword"),
                               ((7, 5, 1, 0), {}, "takes 3 fields, not 4")]:
        with pytest.raises(TypeError, match=what):
            CMPoint(*args, **kwargs)
    with pytest.raises(TypeError, match="no field 'extend'"):  # a mutable record
        HeckeForm(7, 1, 189, 0, [], extend=None)
    assert TorsionCertificate((), (), 0, False).witness is None
    assert TorsionCertificate((), (), 0, False, witness=3).witness == 3
    with pytest.raises(TypeError, match="missing field 'nontorsion'"):
        TorsionCertificate((), (), 0)


def test_construction_by_keyword_and_defaults():
    s = split_prime(7)
    assert (s.p, s.pi, s.pibar) == (7, s.pi, s.pibar)
    rep = TwistReport(p=7, i=1, M=10, checked=9)
    assert (rep.p, rep.i, rep.M, rep.checked) == (7, 1, 10, 9)
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
    fields = _result_fields()
    r1, r2 = PipelineResult(**fields), PipelineResult(**fields)
    assert r1.attempts == [] and r1.attempts is not r2.attempts
    r1.attempts = [{}]  # a solve's result and report stay mutable
    assert PipelineResult(**fields, attempts=r1.attempts).attempts is r1.attempts
    report = RunReport(**{name: k for k, name in enumerate(_REPORT_FIELDS)})
    assert list(report.to_dict()) == list(_REPORT_FIELDS)
    assert list(report.to_dict().values()) == list(range(len(_REPORT_FIELDS)))
    report.bits = 96
    assert report.to_dict()["bits"] == 96
