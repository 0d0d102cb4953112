from __future__ import annotations

import ast
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from strfn import (
    FAILS,
    Alphabet,
    AlphabetError,
    BoundedFn,
    MalformedSpecError,
    MissingEntryError,
    OutOfDomainError,
    TableDef,
    ThetaSpec,
    Token,
    check_bounded_retraction,
    check_equivalent_definitions,
    check_preassociative,
    check_quasi_inverse_conditions,
    concat,
    count_strings,
    enumerate_strings,
    extend,
    factorize,
    identity_patch,
    length_of_fn,
    ofo_fn,
    partial_spec,
    power,
    table_fn,
    theta_rep_fn,
)


def test_alphabet_basics(ab):
    assert ab.letters == ("a", "b")
    assert len(ab) == 2
    assert "a" in ab and "b" in ab
    assert "c" not in ab
    assert ab.index("b") == 1


def test_alphabet_rejects_bad_letters():
    with pytest.raises(AlphabetError):
        Alphabet(())
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(AlphabetError):
        Alphabet(("ab",))
    with pytest.raises(AlphabetError):
        Alphabet(("a", ""))


def test_alphabet_validate(ab):
    ab.validate("")
    ab.validate("abba")
    with pytest.raises(AlphabetError):
        ab.validate("abc")


def test_alphabet_index_unknown_letter(ab):
    with pytest.raises(AlphabetError):
        ab.index("z")


def test_length_lex_order_is_total(ab):
    strings = list(enumerate_strings(ab, 3))
    keys = [ab.length_lex_key(s) for s in strings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_length_lex_respects_alphabet_order_not_codepoints():
    # 'b' before 'a': the declared order wins, not the character values.
    rev = Alphabet(("b", "a"))
    strings = list(enumerate_strings(rev, 2))
    assert strings == ["", "b", "a", "bb", "ba", "ab", "aa"]


def test_enumerate_strings_counts(ab3):
    strings = list(enumerate_strings(ab3, 4))
    assert len(strings) == count_strings(ab3, 4) == 1 + 3 + 9 + 27 + 81
    assert len(set(strings)) == len(strings)
    assert strings[0] == ""
    by_len = {}
    for s in strings:
        by_len.setdefault(len(s), []).append(s)
    assert sorted(by_len) == [0, 1, 2, 3, 4]
    assert all(len(by_len[k]) == 3**k for k in by_len)


def test_enumerate_strings_min_len(ab):
    exact = list(enumerate_strings(ab, 3, min_len=3))
    assert exact == ["aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb"]
    assert list(enumerate_strings(ab, 2, min_len=2)) == ["aa", "ab", "ba", "bb"]


def test_concat_and_power(ab):
    assert concat("ab", "ba") == "abba"
    assert concat("", "", alphabet=ab) == ""
    assert power("ab", 3) == "ababab"
    assert power("ab", 0) == ""
    with pytest.raises(AlphabetError):
        concat("ab", "c", alphabet=ab)


def test_token_identity():
    assert Token(3) == Token(3)
    assert Token(3) != Token(4)
    assert Token(3) != Token("3")
    assert len({Token(1), Token(1), Token("x")}) == 2


def test_table_fn_eval(ab):
    fn = table_fn(ab, 2, {"": "", "a": "a", "b": "", "aa": "a",
                          "ab": "a", "ba": "a", "bb": ""})
    assert fn.eval("ab") == "a"
    assert fn("ab") == "a"
    assert fn.string_valued


def test_table_fn_requires_total_table(ab):
    with pytest.raises(MissingEntryError):
        table_fn(ab, 1, {"": "", "a": "a"})  # no entry for "b"


def test_table_fn_rejects_entries_outside_the_domain(ab):
    exact = {"": "", "a": "a", "b": "b"}
    for extra in ({"zzz": "a"}, {"abab": "b"}, {"zzz": "a", "abab": "b"}):
        with pytest.raises(MalformedSpecError, match=repr(next(iter(extra)))):
            table_fn(ab, 1, {**exact, **extra})


def test_table_fn_out_of_domain(ab):
    fn = table_fn(ab, 1, {"": "", "a": "a", "b": "b"})
    with pytest.raises(OutOfDomainError):
        fn.eval("aa")
    with pytest.raises(OutOfDomainError):
        fn.eval("abc")


def test_table_fn_token_codomain(ab):
    fn = table_fn(ab, 1, {"": Token(0), "a": Token(1), "b": Token(1)},
                  codomain="token")
    assert fn.eval("b") == Token(1)
    assert not fn.string_valued


def test_table_fn_rejects_mixed_codomain(ab):
    with pytest.raises(AlphabetError):
        table_fn(ab, 1, {"": "", "a": "a", "b": "c"})  # 'c' not a letter


def test_value_map_round_trip(ab):
    entries = {s: s[:1] for s in enumerate_strings(ab, 3)}
    fn = table_fn(ab, 3, entries)
    assert fn.value_map() == entries
    assert fn.value_map(max_len=1) == {"": "", "a": "a", "b": "b"}


@pytest.mark.parametrize("build", [
    lambda ab: table_fn(ab, 3, {s: s[:1] for s in enumerate_strings(ab, 3)}),
    lambda ab: extend(partial_spec(ab, 1, ["", {"a": "a", "b": "b"},
                                          {s: s[0] for s in ("aa", "ab", "ba", "bb")}]), 4),
    lambda ab: theta_rep_fn(ab, 4, ThetaSpec("a", "b", 1)),
    lambda ab: factorize(ofo_fn(ab, 4), 4).h,
    lambda ab: identity_patch(ofo_fn(ab, 4), 1, 2, 4),
], ids=["table_fn", "extend", "theta_rep_fn", "factorize", "identity_patch"])
def test_table_constructions_are_their_own_domain(ab, build):
    # The entries dict, keyed in length-lex order, is the domain at the bound.
    fn = build(ab)
    assert fn.value_map() is fn.definition.entries
    assert list(fn.definition.entries) == list(enumerate_strings(ab, fn.bound))


def test_bounded_fn_is_picklable(ab):
    fn = table_fn(ab, 1, {"": "", "a": "a", "b": "b"})
    clone = pickle.loads(pickle.dumps(fn))
    assert clone.eval("a") == "a"
    assert clone.alphabet == fn.alphabet


def test_table_def_missing_entry(ab):
    definition = TableDef("string", {"": ""})
    fn = BoundedFn(ab, 0, definition)
    assert fn.eval("") == ""
    with pytest.raises(OutOfDomainError):
        fn.eval("a")
    with pytest.raises(MissingEntryError):
        BoundedFn(ab, 1, definition).eval("a")


def test_eval_rejects_foreign_letters(ab):
    with pytest.raises(AlphabetError):
        ofo_fn(ab, 2).eval("ac")


class CountingDef:
    """Wraps a definition and records every string it is applied to."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    @property
    def codomain(self):
        return self.inner.codomain

    def apply(self, s):
        self.calls[s] += 1
        return self.inner.apply(s)


def failing_preassociative(fn, level):
    """The witness search must read the domain too, not evaluate again."""
    assert check_preassociative(fn, level).verdict == FAILS


@pytest.mark.parametrize("run, wrapped", [
    (lambda fn, level: factorize(fn, level), ofo_fn),
    (lambda fn, level: check_bounded_retraction(fn, 2, level), ofo_fn),
    (lambda fn, level: check_quasi_inverse_conditions(fn, 2, level), ofo_fn),
    (lambda fn, level: check_equivalent_definitions(fn, level), ofo_fn),
    (failing_preassociative, lambda alphabet, bound: length_of_fn(ofo_fn(alphabet, bound))),
], ids=["factorize", "bounded-retraction", "quasi-inverse-conditions",
        "equivalent-definitions", "failing-preassociative"])
def test_domain_evaluates_each_string_once(ab, run, wrapped):
    counting = CountingDef(wrapped(ab, 4).definition)
    run(BoundedFn(ab, 4, counting), 4)
    assert counting.calls == Counter(enumerate_strings(ab, 4))


def test_domain_is_memoized_for_the_latest_level(ab):
    fn = ofo_fn(ab, 3)
    dom = fn.domain(2)
    assert fn.domain(2) is dom
    assert dom.of_length(2) == ["aa", "ab", "ba", "bb"]
    assert dom.classes["ab"] == ["ab"]
    assert fn.domain() is not dom and fn.domain().level == 3
    assert fn.domain(3).classes["ab"] == ["ab", "aab", "aba", "abb"]
    with pytest.raises(OutOfDomainError):
        fn.domain(4)


def test_context_counts_index_the_context_prefixes(ab):
    dom = ofo_fn(ab, 3).domain(2)
    assert dom.context_counts == [1, 5, 17]
    assert [len(x) + len(z) for x, z in dom.contexts] == [0] + [1] * 4 + [2] * 12
    assert dom.contexts[:5] == [("", ""), ("", "a"), ("", "b"), ("a", ""), ("b", "")]


def test_package_imports_only_the_standard_library():
    # Every import in the package is relative, of strfn itself, or of a
    # standard-library module.
    sources = sorted((Path(__file__).parent.parent / "src" / "strfn").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "strfn" or top in sys.stdlib_module_names, (path.name, name)
