"""The value contract of the package's plain record classes.

Each class compares equal only to an instance of its exact class with
equal fields, hashes as the tuple of those fields (so set iteration
orders stay as they were), prints as ``Name(field=value, ...)``, builds
from its field names as keywords, and survives a pickle round trip, so
it can cross a process boundary.  Every error class survives that round
trip too, with its fields, so an error raised in another process reaches
the caller with its type.
"""

from __future__ import annotations

import pickle

import pytest

from strfn import (
    AlphaFn,
    AlphaRejection,
    AlphaSweep,
    Alphabet,
    BoundedFn,
    CheckReport,
    Factorization,
    KernelComparison,
    LengthBasedRejection,
    PartialSpec,
    PsiTable,
    QuasiInverse,
    TableDef,
    ThetaClass,
    ThetaSpec,
    Token,
    VariadicParts,
    Witness,
    factorize,
    length_fn,
)
from strfn import checkers, errors, reports
from strfn.lengthbased import RelabeledLengthDef

AB = Alphabet(("a", "b"))
FACT = factorize(length_fn(AB, 1), 1)

# (class, every field by keyword in field order, its pinned repr)
CASES = [
    (Token, {"payload": 3}, "Token(3)"),
    (Token, {"payload": "x"}, "Token('x')"),
    (Alphabet, {"letters": ("a", "b")}, "Alphabet(letters=('a', 'b'))"),
    (TableDef, {"codomain": "string", "entries": {"": "", "a": "a"}},
     "TableDef(codomain='string', entries={'': '', 'a': 'a'})"),
    (BoundedFn, {"alphabet": AB, "bound": 0, "definition": TableDef("token", {"": Token(0)})},
     "BoundedFn(alphabet=Alphabet(letters=('a', 'b')), bound=0, "
     "definition=TableDef(codomain='token', entries={'': Token(0)}))"),
    (Witness, {"bindings": (("x", "ab"),), "lhs": "a", "rhs": Token(1)},
     "Witness(bindings=(('x', 'ab'),), lhs='a', rhs=Token(1))"),
    (CheckReport, {"verdict": "fails", "witness": Witness((("x", "a"),), "a", "b"),
                   "checked": 3, "skipped": 1, "detail": "why"},
     "CheckReport(verdict='fails', witness=Witness(bindings=(('x', 'a'),), lhs='a', "
     "rhs='b'), checked=3, skipped=1, detail='why')"),
    (VariadicParts, {"alphabet": AB, "parts": ({"": Token(0)}, {"a": Token(1), "b": Token(1)})},
     "VariadicParts(alphabet=Alphabet(letters=('a', 'b')), "
     "parts=({'': Token(0)}, {'a': Token(1), 'b': Token(1)}))"),
    (PartialSpec, {"alphabet": AB, "parts": ({"": ""}, {"a": "", "b": ""})},
     "PartialSpec(alphabet=Alphabet(letters=('a', 'b')), parts=({'': ''}, {'a': '', 'b': ''}))"),
    (QuasiInverse, {"entries": {Token(0): ""}}, "QuasiInverse(entries={Token(0): ''})"),
    (Factorization, {"source": FACT.source, "g": FACT.g, "h": FACT.h, "f": FACT.f,
                     "checks": FACT.checks},
     "Factorization(source=BoundedFn(alphabet=Alphabet(letters=('a', 'b')), bound=1, "
     "definition=BuiltinDef('length', {})), g=QuasiInverse(entries={Token(0): '', "
     "Token(1): 'a'}), h=BoundedFn(alphabet=Alphabet(letters=('a', 'b')), bound=1, "
     "definition=TableDef(codomain='string', entries={'': '', 'a': 'a', 'b': 'a'})), "
     "f=(('', Token(0)), ('a', Token(1))), checks={'source-preassociative': "
     "CheckReport(verdict='holds', witness=None, checked=1, skipped=0, detail=None), "
     "'inner-associative': CheckReport(verdict='holds', witness=None, checked=7, skipped=0, "
     "detail=None), 'source-standard': CheckReport(verdict='holds', witness=None, checked=2, "
     "skipped=0, detail=None), 'inner-standard': CheckReport(verdict='holds', witness=None, "
     "checked=2, skipped=0, detail=None)})"),
    (AlphaFn, {"kind": "structured", "n1": 1, "ell": 2, "values": (0, 3, 2)},
     "AlphaFn(kind='structured', n1=1, ell=2, values=(0, 3, 2))"),
    (AlphaRejection, {"condition": "periodicity", "message": "msg"},
     "AlphaRejection(condition='periodicity', message='msg')"),
    (PsiTable, {"entries": ((0, ""), (1, "a"))}, "PsiTable(entries=((0, ''), (1, 'a')))"),
    (LengthBasedRejection, {"reason": "inconsistent-psi", "message": "msg"},
     "LengthBasedRejection(reason='inconsistent-psi', message='msg')"),
    (RelabeledLengthDef, {"mu": {0: ""}, "relabel": {"": Token(0)}, "codomain": "token"},
     "RelabeledLengthDef(mu={0: ''}, relabel={'': Token(0)}, codomain='token')"),
    (AlphaSweep, {"total": 5, "equations_hold": 1, "accepted": 1, "rejected": 3,
                  "insufficient": 1, "mismatches": [(0, 1)]},
     "AlphaSweep(total=5, equations_hold=1, accepted=1, rejected=3, insufficient=1, "
     "mismatches=[(0, 1)])"),
    (ThetaSpec, {"x0": "ab", "x1": "b", "m": 2}, "ThetaSpec(x0='ab', x1='b', m=2)"),
    (ThetaClass, {"members": ("a", "b"), "truncated": False},
     "ThetaClass(members=('a', 'b'), truncated=False)"),
    (KernelComparison, {"relation": "strictly-below", "first_below_second": True,
                        "second_below_first": False, "separating": ("a", "b")},
     "KernelComparison(relation='strictly-below', first_below_second=True, "
     "second_below_first=False, separating=('a', 'b'))"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]
# A failing CheckReport pickled when the report records were defined in
# strfn.checkers: the pickle names that module.
OLD_PATH_PICKLE = (
    b"\x80\x04\x95\xb2\x00\x00\x00\x00\x00\x00\x00\x8c\x0estrfn.checkers\x94\x8c\x0b"
    b"CheckReport\x94\x93\x94)\x81\x94N}\x94(\x8c\x07verdict\x94\x8c\x05fails\x94\x8c\x07"
    b"witness\x94h\x00\x8c\x07Witness\x94\x93\x94)\x81\x94N}\x94(\x8c\x08bindings\x94\x8c"
    b"\x01x\x94\x8c\x01a\x94\x86\x94\x85\x94\x8c\x03lhs\x94h\x0e\x8c\x03rhs\x94\x8c\x01b"
    b"\x94u\x86\x94b\x8c\x07checked\x94K\x03\x8c\x07skipped\x94K\x01\x8c\x06detail\x94"
    b"\x8c\x03why\x94u\x86\x94b."
)
# Mutable records: equal by fields, never hashed.
UNHASHABLE = {AlphaSweep, Factorization}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_record_contract(cls, fields, text):
    obj = cls(**fields)
    assert repr(obj) == text
    assert obj == cls(*fields.values())
    assert not obj != cls(**fields)
    assert obj.__eq__(object()) is NotImplemented
    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj and repr(clone) == text
    try:
        expected = hash(tuple(fields.values()))
    except TypeError as exc:  # a dict or list field: the record is unhashable too
        expected = exc
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match=f"unhashable type: '{cls.__name__}'"):
            hash(obj)
    elif isinstance(expected, TypeError):
        with pytest.raises(TypeError, match=str(expected)):
            hash(obj)
    else:
        assert hash(obj) == expected


def test_report_records_keep_their_old_module_path():
    assert checkers.CheckReport is reports.CheckReport is CheckReport
    assert checkers.Witness is reports.Witness is Witness
    old = pickle.loads(OLD_PATH_PICKLE)
    assert type(old) is CheckReport and type(old.witness) is Witness
    assert old == CheckReport("fails", Witness((("x", "a"),), "a", "b"), 3, 1, "why")


def test_equality_needs_the_exact_class():
    parts = ({"": ""}, {"a": "", "b": ""})
    assert VariadicParts(AB, parts) != PartialSpec(AB, parts)
    assert PartialSpec(AB, parts) != VariadicParts(AB, parts)
    assert AlphaRejection("x", "y") != LengthBasedRejection("x", "y")
    assert Token(1) != 1 and Token("a") != "a"
    assert CheckReport("holds", None, 1, 0) != CheckReport("holds", None, 1, 1)


def test_defaults_and_unlisted_state_stay_out_of_the_contract():
    assert Witness((("x", ""),)) == Witness(bindings=(("x", ""),), lhs=None, rhs=None)
    assert AlphaFn("identity") == AlphaFn(kind="identity", n1=0, ell=1, values=())
    assert ThetaSpec("a", "b") == ThetaSpec(x0="a", x1="b", m=0)
    assert CheckReport("holds", None, 1, 0).detail is None
    first, second = AlphaSweep(), AlphaSweep()
    first.mismatches.append((0,))
    assert second.mismatches == []
    fn = length_fn(AB, 2)
    before = repr(fn)
    fn.domain(1)
    assert repr(fn) == before and fn == length_fn(AB, 2)
    assert hash(fn) == hash((fn.alphabet, fn.bound, fn.definition))


REPORTS = {"gate": CheckReport("fails", Witness((("x", "a"),), "a", "b"), 3, 1, "why")}
# Each error class: its arguments, and the fields a pickle must keep.
ERRORS = {
    errors.StrfnError: (("plain",), {}),
    errors.AlphabetError: (("bad letter",), {}),
    errors.OutOfDomainError: (("too long",), {}),
    errors.MissingEntryError: (("no entry",), {}),
    errors.MalformedSpecError: (("bad spec",), {}),
    errors.PreconditionError: (("gate failed", REPORTS), {"reports": REPORTS}),
    errors.ConditionsFailedError: (("conditions failed", REPORTS), {"reports": REPORTS}),
    errors.NotApplicableError: (("standard",), {}),
    errors.UnevaluableError: (("beyond the horizon",), {}),
    errors.InsufficientHorizonError: ((1, 2, 3), {"n1": 1, "ell": 2, "horizon": 3}),
    errors.QuasiInverseError: (("no quasi-inverse",), {}),
    errors.WitnessError: (("no witness",), {}),
    errors.WorkerError: (("worker died",), {}),
}


def _subclasses(cls):
    return {cls}.union(*map(_subclasses, cls.__subclasses__()))


def test_every_error_survives_a_pickle_round_trip():
    assert set(ERRORS) == _subclasses(errors.StrfnError)  # a new error needs a case
    for cls, (args, fields) in ERRORS.items():
        error = cls(*args)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == str(error) and clone.args == error.args
        assert {name: getattr(clone, name) for name in fields} == fields
