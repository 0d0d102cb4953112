from __future__ import annotations

import random

import pytest

from helpers import random_string_table
from strfn import (
    FAILS,
    HOLDS,
    Alphabet,
    QuasiInverseError,
    Token,
    check_bounded_retraction,
    check_preassociative,
    check_quasi_inverse_conditions,
    constant_fn,
    enumerate_partial_specs,
    enumerate_strings,
    factorize,
    identity_fn,
    kernel_classes,
    length_fn,
    length_of_fn,
    letter_remove_fn,
    letter_remove_g_fn,
    ofo_fn,
    quasi_inverse,
    recursion_extension,
    recursive_eval,
    table_fn,
    variadic_parts,
)


def digit_sum_fixture():
    """Digit strings with token-valued sums, bounded at two letters."""
    digits = Alphabet(tuple("01234"))
    entries = {
        s: Token(sum(int(c) for c in s)) for s in enumerate_strings(digits, 2)
    }
    return digits, table_fn(digits, 2, entries, codomain="token")


def test_kernel_classes_of_length(ab):
    fn = length_fn(ab, 2)
    assert kernel_classes(fn, 2) == [[""], ["a", "b"], ["aa", "ab", "ba", "bb"]]


def test_kernel_classes_identity(ab):
    fn = identity_fn(ab, 2)
    assert kernel_classes(fn, 2) == [[s] for s in enumerate_strings(ab, 2)]


def test_kernel_classes_constant(ab):
    fn = constant_fn(ab, 2, Token("k"))
    assert kernel_classes(fn, 2) == [list(enumerate_strings(ab, 2))]


def test_quasi_inverse_of_length(ab):
    g = quasi_inverse(length_fn(ab, 4), 4)
    assert list(g.entries.items()) == [(Token(n), "a" * n) for n in range(5)]
    assert g.apply(Token(3)) == "aaa"


def test_quasi_inverse_picks_first_preimage(ab):
    g = quasi_inverse(ofo_fn(ab, 2), 2)
    assert list(g.entries.items()) == [
        ("", ""), ("a", "a"), ("b", "b"), ("ab", "ab"), ("ba", "ba"),
    ]


def test_quasi_inverse_identity_law(ab):
    # F(g(F(x))) = F(x) on the whole domain
    for fn in (ofo_fn(ab, 3), length_fn(ab, 3), letter_remove_fn(ab, 3, "a")):
        g = quasi_inverse(fn, 3)
        for s in enumerate_strings(ab, 3):
            assert fn.eval(g.apply(fn.eval(s))) == fn.eval(s)


def test_quasi_inverse_unknown_value(ab):
    g = quasi_inverse(length_fn(ab, 2), 2)
    with pytest.raises(QuasiInverseError):
        g.apply(Token(99))
    assert Token(2) in g
    assert Token(99) not in g


def test_factorize_length(ab):
    fact = factorize(length_fn(ab, 4), 4)
    assert fact.h.eval("aabb") == "aaaa"
    for s in enumerate_strings(ab, 4):
        assert fact.h.eval(s) == "a" * len(s)
    assert fact.f == tuple(("a" * n, Token(n)) for n in range(5))
    assert fact.outer("aaa") == Token(3)
    assert {k: r.verdict for k, r in fact.checks.items()} == {
        "source-preassociative": HOLDS,
        "inner-associative": HOLDS,
        "source-standard": HOLDS,
        "inner-standard": HOLDS,
    }
    assert fact.clean


def test_factorize_reproduces_source(ab):
    fact = factorize(length_fn(ab, 4), 4)
    for s in enumerate_strings(ab, 4):
        assert fact.outer(fact.h.eval(s)) == fact.source.eval(s)


def test_factorize_identity(ab):
    fact = factorize(identity_fn(ab, 3), 3)
    assert all(fact.h.eval(s) == s for s in enumerate_strings(ab, 3))
    assert fact.clean


def test_factorize_outer_rejects_foreign_strings(ab):
    fact = factorize(length_fn(ab, 4), 4)
    with pytest.raises(QuasiInverseError):
        fact.outer("abab")  # not in the range of the inner core


def test_factorize_flags_non_preassociative_source(ab3):
    fn = length_of_fn(letter_remove_g_fn(ab3, 3, "a"))
    fact = factorize(fn, 3)
    assert fact.checks["source-preassociative"].verdict == FAILS
    assert fact.checks["inner-associative"].verdict == FAILS
    assert not fact.clean


def test_inner_core_idempotent(ab3):
    # H = g . F satisfies H . H = H even when F is badly behaved
    fn = length_of_fn(letter_remove_g_fn(ab3, 3, "a"))
    fact = factorize(fn, 3)
    for s in enumerate_strings(ab3, 3):
        h = fact.h.eval(s)
        assert fact.h.eval(h) == h


def test_quasi_inverse_conditions_hold(first_letter):
    reports = check_quasi_inverse_conditions(first_letter, 1, 6)
    assert set(reports) == {"range", "a", "b", "c"}
    assert all(r.verdict == HOLDS for r in reports.values())


def test_quasi_inverse_conditions_range_failure(ab):
    fn = length_of_fn(letter_remove_fn(ab, 4, "a"))
    reports = check_quasi_inverse_conditions(fn, 1, 4)
    assert reports["range"].verdict == FAILS
    assert reports["range"].witness.bindings == (("x", "bb"),)
    assert reports["range"].detail == "value not attained at arity <= m"
    assert reports["a"].verdict == HOLDS
    assert reports["b"].verdict == HOLDS
    assert reports["c"].verdict == HOLDS


def test_quasi_inverse_conditions_digit_sums():
    # sums grow past any fixed arity, so the range condition must fail
    # even though the fold conditions hold
    _, fn = digit_sum_fixture()
    reports = check_quasi_inverse_conditions(fn, 1, 2)
    assert reports["range"].verdict == FAILS
    assert reports["range"].witness.bindings == (("x", "14"),)
    assert reports["a"].verdict == HOLDS
    assert reports["b"].verdict == HOLDS
    assert reports["c"].verdict == HOLDS


def test_quasi_inverse_condition_a_always_holds():
    # H(empty) is empty, so appending it to a letter changes nothing.
    rng = random.Random(11)
    for _ in range(60):
        alphabet = Alphabet(tuple(rng.sample("abc", rng.randint(1, 3))))
        level = rng.randint(1, 3)
        fn = random_string_table(alphabet, level, rng, out_max=2)
        report = check_quasi_inverse_conditions(fn, rng.randint(0, level - 1), level)["a"]
        assert (report.verdict, report.checked, report.skipped) == (HOLDS, len(alphabet), 0)


def test_bounded_retraction(first_letter, ab):
    reports = check_bounded_retraction(first_letter, 1, 6)
    assert {k: r.verdict for k, r in reports.items()} == {
        "range": HOLDS, "h-bounded": HOLDS,
        "retraction": HOLDS, "partition": HOLDS,
    }

    # when the range condition fails the rest is not reported
    reports = check_bounded_retraction(length_fn(ab, 4), 1, 4)
    assert set(reports) == {"range"}
    assert reports["range"].verdict == FAILS

    reports = check_bounded_retraction(constant_fn(ab, 3, Token("k")), 0, 3)
    assert all(r.verdict == HOLDS for r in reports.values())


def test_recursive_eval_sums():
    digits, fn = digit_sum_fixture()
    parts = variadic_parts(digits, [
        Token(0),
        {d: Token(int(d)) for d in "01234"},
        {s: Token(sum(int(c) for c in s))
         for s in enumerate_strings(digits, 2, min_len=2)},
    ])
    g = quasi_inverse(fn, 2)
    assert recursive_eval(parts, g, "") == Token(0)
    assert recursive_eval(parts, g, "2") == Token(2)
    assert recursive_eval(parts, g, "111") == Token(3)
    assert recursive_eval(parts, g, "012") == Token(3)
    assert recursive_eval(parts, g, "211") == Token(4)


def test_recursive_eval_direct_lookup_below_fold(ab, first_letter_spec):
    parts = variadic_parts(ab, ["", {"a": "a", "b": "b"},
                                {s: s[0] for s in ("aa", "ab", "ba", "bb")}])
    g = quasi_inverse(identity_fn(ab, 1), 1)
    assert recursive_eval(parts, g, "ab") == "a"
    assert recursive_eval(parts, g, "") == ""


def test_recursive_eval_rejects_oversized_pullbacks(ab):
    # a quasi-inverse that returns two-letter strings cannot feed the
    # binary part together with the next letter
    g = quasi_inverse(identity_fn(ab, 2), 2)
    parts = variadic_parts(ab, ["", {"a": "a", "b": "b"},
                                {"aa": "aa", "ab": "ab", "ba": "ba", "bb": "bb"}])
    with pytest.raises(QuasiInverseError):
        recursive_eval(parts, g, "aaa")


def test_both_folds_agree_on_every_one_bounded_spec(ab):
    """One table type serves both folds: through the identity quasi-inverse
    at level 1, recursive_eval is the associative extension's fold."""
    g = quasi_inverse(identity_fn(ab, 1), 1)
    strings = list(enumerate_strings(ab, 5))
    for spec in enumerate_partial_specs(ab, 1):
        grown = recursion_extension(spec, 5).value_map()
        assert grown == {s: recursive_eval(spec, g, s) for s in strings}, spec


def test_relabeling_preserves_preassociativity(ab):
    # composing a preassociative function with an injective map keeps it
    # preassociative; here: n -> 7n + 3 applied to lengths
    fn = table_fn(ab, 4, {s: Token(7 * len(s) + 3)
                          for s in enumerate_strings(ab, 4)}, codomain="token")
    assert check_preassociative(fn, 4).verdict == HOLDS
