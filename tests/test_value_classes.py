"""The result and record classes are __slots__ classes on one Record base:
construction by position or keyword with every field given, immutability
and hash where they are Frozen, value equality, and the generic repr
(CurvePoint's is embedded in error messages)."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import cubesum
from cubesum.analytic import PeriodLattice, Site, lattice_of_curve
from cubesum.cmpoint import EvalSite, eval_site
from cubesum.curves import CubeSum, CurvePoint, TorsionCertificate, nontorsion_certificate
from cubesum.eisenstein import Frozen, PrimeSplit, QOmega, Record, split_prime
from cubesum.heckeform import HeckeForm, build_form
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
    assert repr(EvalSite(p=7, r=5, t=1, N=189)) == "EvalSite(p=7, r=5, t=1, N=189)"


def _result_fields():
    return dict(p=7, i=1, split=split_prime(7), site=eval_site(7, 1), bits=48, terms=10, tall_point=None,
                torsion_form="f", torsion_point=None, point_K=None, descent_branch="", point_Q=None,
                certificate=None, cube=None, checks={}, timings_ms={}, attempts=[])


def _equal_pairs():
    """(a, b, c): a and b equal but distinct objects, c different."""
    P = _point()
    s = split_prime(7)
    L = lattice_of_curve(s.pibar**2, 64)
    cert = nontorsion_certificate(P, 7, 1)
    site = eval_site(7, 1)
    return {
        "CurvePoint": (P, CurvePoint(D=P.D, x=P.x, y=P.y), -P),
        "CurvePoint-infinity": (CurvePoint.infinity(QOmega(49)), CurvePoint.infinity(49), P),
        "CubeSum": (CubeSum(Fraction(2), Fraction(-1), 7), CubeSum(u=2, v=-1, target=7),
                    CubeSum(Fraction(-1), Fraction(2), 7)),
        "TorsionCertificate": (cert, nontorsion_certificate(P, 7, 1),
                               TorsionCertificate((), (), 0, False, None)),
        "EvalSite": (eval_site(7, 1), eval_site(7, 1), eval_site(7, 2)),
        "Site": (Site((0, 1), (189, 1, 189)), Site(re6=(0, 1), im=(189, 1, 189)), Site((0, 1), (189, 2, 189))),
        "PrimeSplit": (s, PrimeSplit(p=7, pi=s.pi, pibar=s.pibar), split_prime(13)),
        "PeriodLattice": (L, L.conj().conj(), L.conj()),
        "Candidate": (Candidate(site), Candidate(site=eval_site(7, 1)), Candidate(eval_site(7, 2))),
        "HeckeForm": (build_form(7, 1, 20), build_form(7, 1, 20), build_form(7, 1, 40)),
        "PipelineResult": (PipelineResult(**_result_fields()), PipelineResult(**_result_fields()),
                           PipelineResult(**dict(_result_fields(), bits=96))),
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
        _point(),
        CubeSum(u=Fraction(2), v=Fraction(-1), target=7),
        TorsionCertificate(primes=(), counts=(), bound=0, nontorsion=False, witness=None),
        lattice_of_curve(s.pibar**2, 64),
        eval_site(7, 1),
        Site((0, 1), (189, 1, 189)),
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
    assert EvalSite(7, r=5, t=1, N=189) == EvalSite(7, 5, 1, 189) == EvalSite(N=189, t=1, p=7, r=5)
    for args, kwargs, what in [((7, 5, 1), {}, "missing field 'N'"),
                               ((), {"p": 7, "r": 5, "t": 1}, "missing field 'N'"),
                               ((7,), {"t": 1, "N": 189}, "missing field 'r'"),
                               ((7, 5, 1, 189), {"s": 0}, "no field 's'"),
                               ((7, 5, 1, 189), {"re6": 0}, "no field 're6'"),
                               ((7, 5), {"r": 5, "t": 1, "N": 189}, "both by position and by keyword"),
                               ((7, 5, 1, 189, 0), {}, "takes 4 fields, not 5")]:
        with pytest.raises(TypeError, match=what):
            EvalSite(*args, **kwargs)
    with pytest.raises(TypeError, match="no field 'extend'"):  # a mutable record
        HeckeForm(7, 1, 189, 0, [], extend=None)
    assert TorsionCertificate((), (), 0, False, witness=3).witness == 3


@pytest.mark.parametrize("name", list(_equal_pairs()))
def test_every_record_refuses_a_missing_field(name):
    # no field has a default, by position or by keyword
    a = _equal_pairs()[name][0]
    cls, names = type(a), type(a).__slots__
    fields = {n: getattr(a, n) for n in names}
    assert cls(**fields) == a == cls(*fields.values())
    for missing in names:
        with pytest.raises(TypeError, match=f"missing field '{missing}'"):
            cls(**{n: v for n, v in fields.items() if n != missing})
    with pytest.raises(TypeError, match=f"missing field '{names[-1]}'"):
        cls(*list(fields.values())[:-1])


def test_construction_by_keyword_and_defaults():
    # there are no defaults: the builders give every field, attempts and
    # witness included
    s = split_prime(7)
    assert (s.p, s.pi, s.pibar) == (7, s.pi, s.pibar)
    cert = TorsionCertificate(primes=(13, 19), counts=(3, 3), bound=3, nontorsion=True, witness=None)
    assert (cert.primes, cert.counts, cert.bound, cert.nontorsion) == ((13, 19), (3, 3), 3, True)
    assert cert.witness is None
    with pytest.raises(TypeError, match="missing field 'witness'"):
        TorsionCertificate((), (), 0, False)
    L = PeriodLattice(inv=(1, 2), prec=64)
    assert (L.inv, L.prec) == ((1, 2), 64)
    site = EvalSite(p=7, r=5, t=1, N=189)
    assert site == eval_site(7, 1) and Candidate(site=site).site is site
    f = HeckeForm(p=7, i=1, N=189, terms=0, b=[])
    f.extend(10)
    assert f == build_form(7, 1, 10)
    fields = _result_fields()
    r = PipelineResult(**fields)
    assert r.attempts is fields["attempts"]
    r.attempts = [{}]  # a solve's result stays mutable
    assert r.attempts == [{}]
    del fields["attempts"]
    with pytest.raises(TypeError, match="missing field 'attempts'"):
        PipelineResult(**fields)
