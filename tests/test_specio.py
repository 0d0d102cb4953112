from __future__ import annotations

import copy
import io
import json
import pickle
import tracemalloc
from pathlib import Path

import pytest

from strfn import (
    Alphabet,
    AlphabetError,
    MalformedSpecError,
    MissingEntryError,
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


@pytest.mark.parametrize("name", ["length-L12", "ofo-L5", "injective-tokens-L11", "fails"])
def test_streamed_factorization_is_the_listed_one(ab, name):
    fn = {"length-L12": lambda: length_fn(ab, 12),  # 8191 rows of H
          "ofo-L5": lambda: ofo_fn(ab, 5),
          "injective-tokens-L11": lambda: table_fn(ab, 11, Token, "token"),  # 4095 classes
          "fails": lambda: length_of_fn(ofo_fn(ab, 6))}[name]()
    fact = factorize(fn, fn.bound)
    first, second = _Recorder(), _Recorder()
    write_to_json(factorization_to_json(fact, streamed=True), first, second)
    expected = json.dumps(factorization_to_json(fact), indent=2) + "\n"
    assert first.getvalue() == second.getvalue() == expected


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


# A string table over {a, b} at bound 2, as [input, output] rows in
# length-lex order; each case edits the rows and expects the error (type
# and message) the loader gives, whatever the order of the rows.
_ROWS = [[s, s[:1]] for s in ("", "a", "b", "aa", "ab", "ba", "bb")]
_TOKEN = {"token": 1}
_BAD_TABLES = {
    "repeated-input": (lambda rows: rows + [["ab", "a"]],
                       MalformedSpecError, "table repeats the input 'ab'"),
    "missing-entry": (lambda rows: [r for r in rows if r[0] != "ab"],
                      MissingEntryError, "table source has no entry for 'ab'"),
    "extra-entry": (lambda rows: rows + [["aba", "a"]],
                    MalformedSpecError, "table has an entry for 'aba' outside X^<=2"),
    "wrong-type": (lambda rows: _set(rows, b=_TOKEN), MalformedSpecError,
                   "string-valued table produced Token(1) for 'b'"),
    "foreign-letter": (lambda rows: _set(rows, ab="ac"), AlphabetError,
                       "string 'ac' uses letter 'c' outside alphabet ('a', 'b')"),
    "two-bad-values": (lambda rows: _set(rows, a="c", ba=_TOKEN), AlphabetError,
                       "string 'c' uses letter 'c' outside alphabet ('a', 'b')"),
    "two-bad-types": (lambda rows: _set(rows, b=_TOKEN, aa={"token": 2}),
                      MalformedSpecError, "string-valued table produced Token(1) for 'b'"),
    "missing-before-bad": (lambda rows: _set([r for r in rows if r[0] != "a"], bb="c"),
                           MissingEntryError, "table source has no entry for 'a'"),
    "bad-before-missing": (lambda rows: _set([r for r in rows if r[0] != "bb"], a="c"),
                           AlphabetError,
                           "string 'c' uses letter 'c' outside alphabet ('a', 'b')"),
    "bad-before-extra": (lambda rows: _set(rows + [["aba", "a"]], bb=_TOKEN),
                         MalformedSpecError, "string-valued table produced Token(1) for 'bb'"),
}


def _set(rows, **outputs):
    """The rows with the outputs of some inputs (``ab=...``) replaced."""
    return [[s, outputs.get(s, out)] for s, out in rows]


def _length_table(ab, bound):
    return table_fn(ab, bound, length_fn(ab, bound).value_map(), "token")


def _table_obj(rows, codomain="string"):
    return {"alphabet": ["a", "b"], "bound": 2,
            "function": {"kind": "table", "codomain": codomain, "entries": rows}}


@pytest.mark.parametrize("order", ["length-lex", "reversed", "shuffled"])
@pytest.mark.parametrize("name", _BAD_TABLES)
def test_bad_tables_raise_the_first_error_in_length_lex_order(tmp_path, name, order):
    edit, error, message = _BAD_TABLES[name]
    rows = edit(list(_ROWS))
    rows = {"length-lex": rows, "reversed": rows[::-1],
            "shuffled": rows[1::2] + rows[::2]}[order]
    path = tmp_path / "bad.json"
    path.write_text(to_text(_table_obj(rows)))
    with pytest.raises(error) as caught:
        load_function(path)
    assert str(caught.value) == message


def test_token_tables_reject_string_values(ab):
    rows = [[s, {"token": len(s)}] for s, _ in _ROWS]
    rows[3][1] = "aa"
    for order in (rows, rows[::-1]):
        with pytest.raises(MalformedSpecError) as caught:
            function_from_json(_table_obj(order, "token"))
        assert str(caught.value) == "token-valued table produced 'aa' for 'aa'"
    assert function_from_json(_table_obj(rows[:3] + rows[4:] + [["aa", {"token": 2}]],
                                         "token")) == _length_table(ab, 2)


def test_a_short_table_with_a_huge_bound_fails_at_its_first_gap():
    # The order test stops one string past the rows, so it never counts or
    # enumerates X^{<=10**7}; the walk then names the first missing input.
    rows = [["", ""], ["a", "a"]]
    for order in (rows, rows[::-1]):
        obj = _table_obj(order)
        obj["bound"] = 10**7
        with pytest.raises(MissingEntryError) as caught:
            function_from_json(obj)
        assert str(caught.value) == "table source has no entry for 'b'"


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_out_of_order_tables_load_in_length_lex_order(tmp_path, ab, order):
    fn = ofo_fn(ab, 5)
    rows = [[s, v] for s, v in fn.value_map().items()]
    rows = rows[::-1] if order == "reversed" else rows[1::2] + rows[::2]
    path = tmp_path / "fn.json"
    path.write_text(to_text(_table_obj(rows) | {"bound": 5}))
    loaded = load_function(path)
    canonical = table_fn(ab, 5, fn.value_map())
    assert loaded == canonical
    assert list(loaded.definition.entries) == list(enumerate_strings(ab, 5))
    assert loaded.definition.entries is loaded.domain().vals


def test_a_canonical_table_is_its_own_domain(tmp_path, ab):
    path = tmp_path / "fn.json"
    for fn in (table_fn(ab, 5, ofo_fn(ab, 5).value_map()), _length_table(ab, 5)):
        path.write_text(to_text(function_to_json(fn)))
        loaded = load_function(path)
        assert loaded == fn
        assert loaded.definition.entries is loaded.domain().vals


@pytest.mark.parametrize("order", ["length-lex", "reversed"])
def test_table_fn_copies_its_mapping(ab, order):
    strings = list(enumerate_strings(ab, 3))
    source = {s: s[:1] for s in (strings if order == "length-lex" else strings[::-1])}
    fn = table_fn(ab, 3, source)
    expected = table_fn(ab, 3, lambda s: s[:1])
    source["ab"] = "b"
    del source["a"]
    assert fn == expected
    assert fn.definition.entries is not source


@pytest.mark.parametrize("order", ["length-lex", "reversed"])
def test_function_from_json_leaves_its_argument_as_it_was(ab, order):
    rows = [[s, {"token": len(s)}] for s in enumerate_strings(ab, 3)]
    obj = _table_obj(rows if order == "length-lex" else rows[::-1], "token") | {"bound": 3}
    before = copy.deepcopy(obj)
    fn = function_from_json(obj)
    assert obj == before
    assert fn == _length_table(ab, 3)


@pytest.mark.parametrize("name,make", [
    ("ofo-L13", lambda ab: table_fn(ab, 13, ofo_fn(ab, 13).value_map())),
    ("length-L12", lambda ab: _length_table(ab, 12)),
])
def test_load_function_holds_the_table_once(tmp_path, ab, name, make):
    """The loader's dict becomes the table, so loading peaks where
    ``json.loads`` alone does; a second dict of the table took about half
    the table's size more."""
    path = tmp_path / f"{name}.json"
    path.write_text(to_text(function_to_json(make(ab))))
    load_function(path)  # first-call set-up stays out of the figures
    tracemalloc.start()
    try:
        json.loads(Path(path).read_text(encoding="utf-8"))
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        fn = load_function(path)
        table, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fn.definition.entries is fn.domain().vals
    assert load_peak - parse_peak < 0.1 * table
