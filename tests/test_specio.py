from __future__ import annotations

import io
import json
import pickle

import pytest

from strfn import (
    Alphabet,
    MalformedSpecError,
    ThetaSpec,
    Token,
    check_preassociative,
    check_standard,
    compose_length_based,
    constant_fn,
    enumerate_strings,
    extend,
    factorize,
    identity_alpha,
    identity_fn,
    length_fn,
    length_of_fn,
    letter_remove_fn,
    letter_remove_g_fn,
    ofo_fn,
    partial_spec,
    psi_table,
    separator_insert_fn,
    sort_fn,
    synthesize_alpha,
    table_fn,
    theta_class,
    theta_rep_fn,
)
from strfn import jsontext, specio
from strfn.builtins import BUILTINS
from strfn.specio import (
    alpha_from_json,
    alpha_to_json,
    alphabet_from_json,
    alphabet_to_json,
    factorization_to_json,
    function_from_json,
    function_to_json,
    load_function,
    load_partial,
    partial_from_json,
    partial_to_json,
    psi_from_json,
    psi_to_json,
    report_to_json,
    theta_class_to_json,
    to_text,
    value_from_json,
    value_to_json,
    witness_to_json,
    write_to_json,
)


def test_value_json():
    assert value_to_json("ab") == "ab"
    assert value_to_json(Token(3)) == {"token": 3}
    assert value_from_json({"token": "x"}) == Token("x")
    assert value_from_json("ab") == "ab"


def test_alphabet_json(ab3):
    assert alphabet_to_json(ab3) == ["a", "b", "|"]
    assert alphabet_from_json(["a", "b", "|"]) == ab3
    with pytest.raises(MalformedSpecError):
        alphabet_from_json("ab")


# One function per registry entry, plus a lookup table.
_ROUND_TRIP_BUILDERS = {
    "identity": lambda ab: identity_fn(ab, 3),
    "sort": lambda ab: sort_fn(ab, 3, order=("b", "a")),
    "letter_remove": lambda ab: letter_remove_fn(ab, 3, "a"),
    "letter_remove_g": lambda ab: letter_remove_g_fn(ab, 3, "a"),
    "ofo": lambda ab: ofo_fn(ab, 3),
    "separator_insert": lambda ab: separator_insert_fn(ab, 3, "b"),
    "length": lambda ab: length_fn(ab, 3),
    "length_of": lambda ab: length_of_fn(sort_fn(ab, 3)),
    "constant": lambda ab: constant_fn(ab, 3, Token("k")),
    "length_based": lambda ab: compose_length_based(
        ab, 3, synthesize_alpha(2, 2, (0, 1, 4, 5)),
        psi_table({0: "", 1: "a", 4: "aaaa", 5: "aaaaa"})),
    "table": lambda ab: table_fn(ab, 1, {"": Token(0), "a": Token(1), "b": Token(1)},
                                 codomain="token"),
}


@pytest.mark.parametrize("name", [*BUILTINS, "table"])
def test_function_round_trips(ab, name):
    fn = _ROUND_TRIP_BUILDERS[name](ab)
    obj = function_to_json(fn)
    clone = function_from_json(obj)
    pickled = pickle.loads(pickle.dumps(fn))
    assert clone.alphabet == fn.alphabet
    assert clone.bound == fn.bound
    for s in enumerate_strings(fn.alphabet, fn.bound):
        assert clone.eval(s) == pickled.eval(s) == fn.eval(s)
    assert function_to_json(clone) == function_to_json(pickled) == obj
    assert obj["function"].get("name", "table") == name
    # Definitions compare by value and print without a memory address.
    assert _ROUND_TRIP_BUILDERS[name](ab) == fn
    assert "0x" not in repr(fn)


def test_docstring_lists_every_builtin():
    for name, entry in BUILTINS.items():
        assert f"``{name}``" in specio.__doc__
        for param in entry.params:
            assert f"``{param}``" in specio.__doc__


def test_unrecognized_definitions_become_tables(ab):
    fn = theta_rep_fn(ab, 3, ThetaSpec("a", "b", 1))
    obj = function_to_json(fn)
    assert obj["function"]["kind"] == "table"
    clone = function_from_json(obj)
    for s in enumerate_strings(ab, 3):
        assert clone.eval(s) == fn.eval(s)


def test_length_based_round_trip(ab):
    alpha = synthesize_alpha(2, 2, (0, 1, 4, 5))
    psi = psi_table({0: "", 1: "a", 4: "aaaa", 5: "aaaaa"})
    fn = compose_length_based(ab, 6, alpha, psi)
    obj = function_to_json(fn)
    assert obj["function"]["name"] == "length_based"
    clone = function_from_json(obj)
    for s in enumerate_strings(ab, 6):
        assert clone.eval(s) == fn.eval(s)


def test_alpha_json():
    assert alpha_to_json(identity_alpha()) == {"kind": "identity"}
    alpha = synthesize_alpha(2, 2, (0, 1, 4, 5))
    obj = alpha_to_json(alpha)
    assert obj == {"kind": "structured", "n1": 2, "ell": 2,
                   "values": [0, 1, 4, 5]}
    assert alpha_from_json(obj) == alpha
    assert alpha_from_json({"kind": "identity"}) == identity_alpha()


def test_alpha_json_rejects_bad_windows():
    with pytest.raises(MalformedSpecError):
        alpha_from_json({"kind": "structured", "n1": 1, "ell": 2,
                         "values": [0, 2, 4]})  # residue violation
    with pytest.raises(MalformedSpecError):
        alpha_from_json({"kind": "spiral"})
    with pytest.raises(MalformedSpecError):
        alpha_from_json({"kind": "structured", "n1": 1})


def test_psi_json():
    psi = psi_table({0: "", 2: "ab"})
    obj = psi_to_json(psi)
    assert obj == [[0, ""], [2, "ab"]]
    assert psi_from_json(obj) == psi
    with pytest.raises(MalformedSpecError):
        psi_from_json([[1, "aa"]])  # wrong length


@pytest.mark.parametrize("obj", [
    ["1a", [2, "ab"]],   # a two-character string is not a pair
    [["1", "a"]],        # nor is a string index
    [[True, "a"]],       # nor a bool index
    [[1, "a", "b"]],
    [[1.0, "a"]],
    [[1, 5]],
    [5],
])
def test_psi_from_json_reads_only_int_string_pairs(obj):
    with pytest.raises(MalformedSpecError):
        psi_from_json(obj)


def test_json_integers_are_never_bools(ab, first_letter_spec):
    for payload in (True, False):
        with pytest.raises(MalformedSpecError):
            value_from_json({"token": payload})
    assert value_from_json({"token": 1}) == Token(1)
    assert not specio._is_count(True) and not specio._is_count(False)
    ofo = function_to_json(ofo_fn(ab, 1))
    with pytest.raises(MalformedSpecError):
        function_from_json({**ofo, "bound": True})
    with pytest.raises(MalformedSpecError):
        partial_from_json({**partial_to_json(first_letter_spec), "m": True})
    with pytest.raises(MalformedSpecError):
        alpha_from_json({"kind": "structured", "n1": 2, "ell": 2,
                         "values": [0, True, 4, 5]})


def test_partial_round_trip(ab, first_letter_spec):
    obj = partial_to_json(first_letter_spec)
    assert obj["m"] == 1
    assert obj["parts"]["0"] == ""
    assert partial_from_json(obj) == first_letter_spec


def test_partial_from_json_requires_all_parts(ab):
    obj = {"alphabet": ["a", "b"], "m": 1,
           "parts": {"0": "", "1": [["a", ""], ["b", ""]]}}
    with pytest.raises(MalformedSpecError):
        partial_from_json(obj)


def test_witness_json_nests_bindings(ab3):
    fn = length_of_fn(letter_remove_g_fn(ab3, 5, "a"))
    report = check_preassociative(fn, 5)
    obj = witness_to_json(report.witness)
    assert obj == {
        "bindings": {"y": "", "y2": "b", "x": "", "z": "b"},
        "lhs": {"token": 1},
        "rhs": {"token": 2},
    }


def test_report_json_shape(ab):
    report = check_standard(letter_remove_fn(ab, 3, "a"), 3)
    obj = report_to_json(report)
    assert obj["verdict"] == "fails"
    assert obj["checked"] == 1
    assert obj["skipped"] == 0
    assert obj["incomplete"] is False
    assert obj["witness"]["bindings"] == {"x": "a"}

    passing = check_standard(ofo_fn(ab, 3), 3)
    obj = report_to_json(passing)
    assert obj["verdict"] == "holds"
    assert "witness" not in obj


def test_factorization_json(ab):
    fact = factorize(length_fn(ab, 2), 2)
    obj = factorization_to_json(fact)
    assert obj["g"] == [[{"token": 0}, ""], [{"token": 1}, "a"],
                        [{"token": 2}, "aa"]]
    assert obj["f"][0] == ["", {"token": 0}]
    assert obj["H"]["function"]["kind"] == "table"
    assert set(obj["checks"]) == {"source-preassociative", "inner-associative",
                                  "source-standard", "inner-standard"}


def test_theta_class_json(ab):
    cls = theta_class("ab", ThetaSpec("a", "b", 0), 2, ab)
    assert theta_class_to_json(cls) == {
        "members": ["aa", "ab", "ba", "bb"], "truncated": False,
    }


def test_to_text_is_deterministic(ab):
    fn = ofo_fn(ab, 3)
    first = to_text(function_to_json(fn))
    second = to_text(function_to_json(ofo_fn(ab, 3)))
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


_STREAMED = {
    "extend-L12": lambda ab, ab3, spec: function_to_json(extend(spec, 12)),
    "small": lambda ab, ab3, spec: {"value": ""},
    "witness": lambda ab, ab3, spec: report_to_json(
        check_preassociative(length_of_fn(letter_remove_g_fn(ab3, 5, "a")), 5)),
}


class _Recorder(io.StringIO):
    """A text file that keeps each write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("name", _STREAMED)
def test_streamed_json_is_to_text(ab, ab3, first_letter_spec, name):
    obj = _STREAMED[name](ab, ab3, first_letter_spec)
    first, second = _Recorder(), _Recorder()
    write_to_json(obj, first, second)
    expected = json.dumps(obj, indent=2) + "\n"
    assert first.getvalue() == second.getvalue() == expected == to_text(obj)
    assert first.writes == second.writes
    if name == "extend-L12":
        # 8191 table rows, each opening a line "      [": no write holds
        # more than jsontext.ROWS of them, so none holds the whole text.
        rows = [w.count("\n      [") for w in first.writes]
        assert sum(rows) == 8191
        assert len(first.writes) > 1 and max(rows) == jsontext.ROWS
    if name == "witness":
        assert '"witness"' in expected


def test_load_function(tmp_path, ab):
    fn = letter_remove_fn(ab, 3, "a")
    path = tmp_path / "fn.json"
    path.write_text(to_text(function_to_json(fn)))
    clone = load_function(path)
    assert clone.eval("aba") == "b"


def test_load_partial(tmp_path, first_letter_spec):
    path = tmp_path / "spec.json"
    path.write_text(to_text(partial_to_json(first_letter_spec)))
    assert load_partial(path) == first_letter_spec


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(MalformedSpecError):
        load_function(path)
