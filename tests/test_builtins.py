from __future__ import annotations

import random

import pytest

from strfn import (
    Alphabet,
    MalformedSpecError,
    PreconditionError,
    Token,
    build_builtin,
    compose_length_based,
    constant_fn,
    enumerate_strings,
    identity_alpha,
    identity_fn,
    length_fn,
    length_of_fn,
    letter_remove_fn,
    letter_remove_g_fn,
    ofo_fn,
    psi_table,
    separator_insert_fn,
    sort_fn,
    table_fn,
)
from strfn.builtins import BuiltinDef

from helpers import oracle_builtin


def test_identity(ab):
    fn = identity_fn(ab, 4)
    assert all(fn.eval(s) == s for s in enumerate_strings(ab, 4))


def test_sort_default_order():
    abc = Alphabet(("a", "b", "c"))
    fn = sort_fn(abc, 4)
    assert fn.eval("bab") == "abb"
    assert fn.eval("cba") == "abc"
    assert fn.eval("") == ""
    # letter multiplicities are preserved
    for s in enumerate_strings(abc, 4):
        assert sorted(fn.eval(s)) == sorted(s)


def test_sort_custom_order(ab):
    fn = sort_fn(ab, 3, order=("b", "a"))
    assert fn.eval("ab") == "ba"
    assert fn.eval("aab") == "baa"


def test_sort_order_must_be_permutation(ab):
    with pytest.raises(PreconditionError):
        sort_fn(ab, 3, order=("a", "c"))
    with pytest.raises(PreconditionError):
        sort_fn(ab, 3, order=("a",))


def test_letter_remove():
    abc = Alphabet(("a", "b", "c"))
    fn = letter_remove_fn(abc, 4, "a")
    assert fn.eval("aba") == "b"
    assert fn.eval("") == ""
    assert fn.eval("bcb") == "bcb"
    assert fn.eval("aaaa") == ""
    # removal is a homomorphism: F(xy) = F(x)F(y)
    for x in enumerate_strings(abc, 2):
        for y in enumerate_strings(abc, 2):
            assert fn.eval(x + y) == fn.eval(x) + fn.eval(y)


def test_letter_remove_g_keeps_a_marker(ab):
    """Strings of pure a's collapse to 'a' instead of vanishing."""
    fn = letter_remove_g_fn(ab, 4, "a")
    assert fn.eval("") == "a"
    assert fn.eval("aa") == "a"
    assert fn.eval("a") == "a"
    assert fn.eval("ab") == "b"
    assert fn.eval("baa") == "b"
    assert fn.eval("abab") == "bb"


def test_ofo_short_strings(ab):
    fn = ofo_fn(ab, 4)
    assert fn.eval("aab") == "ab"
    assert fn.eval("baba") == "ba"
    assert fn.eval("") == ""


def test_ofo_known_words():
    letters = Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"))
    fn = ofo_fn(letters, 17)
    assert fn.eval("indivisibilities") == "indvsblte"
    assert fn.eval("subdermatoglyphic") == "subdermatoglyphic"


def test_ofo_output_shape(ab3):
    fn = ofo_fn(ab3, 5)
    for s in enumerate_strings(ab3, 5):
        out = fn.eval(s)
        assert len(set(out)) == len(out)  # all distinct
        assert set(out) == set(s)  # same letters
        assert fn.eval(out) == out  # fixed point


def test_separator_insert():
    letters = Alphabet(("a", "b", "c", "d", "|"))
    fn = separator_insert_fn(letters, 9, "|")
    assert fn.eval("a") == "a"
    assert fn.eval("ab") == "a|b"
    assert fn.eval("a|b") == "a|b"
    assert fn.eval("||") == "||"
    assert fn.eval("||ab|||cd") == "||a|b|||c|d"
    assert fn.eval("") == ""


def test_length(ab):
    fn = length_fn(ab, 3)
    assert fn.eval("") == Token(0)
    assert fn.eval("aba") == Token(3)
    assert not fn.string_valued


def test_length_of(ab):
    inner = letter_remove_fn(ab, 4, "a")
    fn = length_of_fn(inner)
    assert fn.eval("abab") == Token(2)
    assert fn.eval("aaaa") == Token(0)
    assert fn.bound == inner.bound


def test_length_of_needs_string_valued_inner(ab):
    with pytest.raises(PreconditionError):
        length_of_fn(length_fn(ab, 3))


def test_built_length_of_keeps_the_requested_alphabet_and_bound(ab):
    abc = Alphabet(("a", "b", "c"))
    fn = build_builtin("length_of", ab, 3, {"inner": ofo_fn(ab, 3)})
    assert (fn.alphabet, fn.bound) == (ab, 3)
    for inner in (ofo_fn(abc, 3), ofo_fn(ab, 5)):
        with pytest.raises(PreconditionError):
            build_builtin("length_of", ab, 3, {"inner": inner})


def test_constant(ab):
    fn = constant_fn(ab, 3, "ab")
    assert fn.eval("") == "ab"
    assert fn.eval("bbb") == "ab"
    tok = constant_fn(ab, 3, Token("k"))
    assert tok.eval("ab") == Token("k")
    assert not tok.string_valued


def test_constant_value_checked_against_alphabet(ab):
    with pytest.raises(Exception):
        constant_fn(ab, 3, "xyz")


def test_constant_value_must_be_a_value(ab):
    with pytest.raises(MalformedSpecError, match="not a string or Token"):
        constant_fn(ab, 3, 5)


def test_build_builtin_dispatch(ab):
    assert build_builtin("identity", ab, 3).eval("ab") == "ab"
    assert build_builtin("sort", ab, 3).eval("ba") == "ab"
    assert build_builtin("letter_remove", ab, 3, {"letter": "a"}).eval("ab") == "b"
    assert build_builtin("letter_remove_g", ab, 3, {"letter": "a"}).eval("") == "a"
    assert build_builtin("ofo", ab, 3).eval("aab") == "ab"
    assert build_builtin("length", ab, 3).eval("ab") == Token(2)
    assert build_builtin("constant", ab, 3, {"value": ""}).eval("ab") == ""


def test_build_builtin_separator(ab3):
    fn = build_builtin("separator_insert", ab3, 4, {"bar": "|"})
    assert fn.eval("ab") == "a|b"


def test_build_builtin_unknown_name(ab):
    with pytest.raises(MalformedSpecError):
        build_builtin("frobnicate", ab, 3)


def test_build_builtin_missing_param(ab):
    with pytest.raises(MalformedSpecError):
        build_builtin("letter_remove", ab, 3)


@pytest.mark.parametrize("name, params", [
    ("letter_remove", {"letter": ["a"]}),
    ("sort", {"order": 5}),
    ("constant", {"value": 5}),
    ("length_based", {"alpha": [0, 1, 2, 3], "psi": psi_table({0: "", 1: "a"})}),
    ("length_based", {"alpha": identity_alpha(), "psi": {0: "", 1: "a"}}),
    ("length_of", {"inner": "x"}),
], ids=["letter", "order", "value", "profile", "psi", "function"])
def test_build_builtin_rejects_a_param_of_another_kind(ab, name, params):
    with pytest.raises(MalformedSpecError, match=r"parameter '\w+' must be"):
        build_builtin(name, ab, 3, params)


def _instances():
    """ROADMAP item 8's 46 instances, every builtin over ab, ba, abc and a|b
    with every letter as the parameter, then the rest of the registry and
    ``length_of`` over each string-valued one."""
    made = []
    for letters in ("ab", "ba", "abc", "a|b"):
        alphabet = Alphabet(tuple(letters))
        made += [(f"{name}-{letters}", lambda b, f=f, x=alphabet: f(x, b))
                 for name, f in (("identity", identity_fn), ("ofo", ofo_fn),
                                 ("sort", sort_fn), ("length", length_fn))]
        made += [(f"{name}-{letters}-{c}", lambda b, f=f, x=alphabet, c=c: f(x, b, c))
                 for name, f in (("letter_remove", letter_remove_fn),
                                 ("letter_remove_g", letter_remove_g_fn),
                                 ("separator_insert", separator_insert_fn))
                 for c in letters]
    assert len(made) == 46
    abc = Alphabet(("a", "b", "c"))
    made += [
        ("sort-abc-cab", lambda b: sort_fn(abc, b, ("c", "a", "b"))),
        ("constant-abc-ca", lambda b: constant_fn(abc, b, "ca")),
        ("constant-abc-token", lambda b: constant_fn(abc, b, Token("k"))),
        ("length_based-ab", lambda b: compose_length_based(
            Alphabet(("a", "b")), b, identity_alpha(),
            psi_table({n: "a" * n for n in range(b + 1)}))),
    ]
    made += [(f"length_of-{name}", lambda b, make=make: length_of_fn(make(b)))
             for name, make in made if make(0).string_valued]
    return made


INSTANCES = _instances()


@pytest.mark.parametrize("name, make", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_machines_match_the_closed_forms(monkeypatch, name, make):
    rng = random.Random(name)
    fn = make(12)
    closed = oracle_builtin(fn.definition)
    letters = fn.alphabet.letters
    for s in ("".join(rng.choices(letters, k=rng.randint(0, 12))) for _ in range(200)):
        assert fn.eval(s) == closed(s)
    # A domain is stepped one letter at a time, and never applies the definition.
    monkeypatch.setattr(BuiltinDef, "apply", None)
    for level in range(8):
        expected = {s: closed(s) for s in enumerate_strings(fn.alphabet, level)}
        assert list(make(level).value_map().items()) == list(expected.items())


@pytest.mark.parametrize("level", [0, 1, 5, 9])
def test_a_length_domain_shares_one_token_per_length(ab, level):
    for fn in (length_fn(ab, level), length_of_fn(identity_fn(ab, level))):
        tokens = {id(v): v for v in fn.value_map().values()}
        assert sorted(v.payload for v in tokens.values()) == list(range(level + 1))


def test_length_of_a_table_applies_it(ab):
    inner = table_fn(ab, 4, {s: s[:1] for s in enumerate_strings(ab, 4)})
    fn = length_of_fn(inner)
    assert fn.definition.step is None
    assert fn.value_map() == {s: Token(min(len(s), 1)) for s in enumerate_strings(ab, 4)}
    assert fn.eval("ab") == Token(1)
