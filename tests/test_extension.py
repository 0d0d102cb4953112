from __future__ import annotations

import random

import pytest

from strfn import (
    FAILS,
    HOLDS,
    VACUOUS,
    Alphabet,
    ConditionsFailedError,
    MalformedSpecError,
    PreconditionError,
    Token,
    check_associative_full,
    check_determination,
    check_m_bounded,
    constant_fn,
    enumerate_partial_specs,
    enumerate_strings,
    extend,
    identity_patch,
    letter_remove_fn,
    letter_remove_g_fn,
    partial_spec,
    recursion_extension,
    table_fn,
    verify_conditions,
)


def swap_spec(ab):
    """Unary part swaps the letters; binary part takes the first letter."""
    return partial_spec(
        ab, 1, ["", {"a": "b", "b": "a"},
                {"aa": "a", "ab": "a", "ba": "b", "bb": "b"}],
    )


def test_partial_spec_shape(ab, first_letter_spec):
    assert first_letter_spec.m == 1
    assert first_letter_spec.value_at("ab") == "a"
    assert first_letter_spec.value_at("") == ""


def test_partial_spec_validation(ab):
    # a part table must cover its whole arity
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 0, ["", {"a": ""}])
    # outputs may have at most m letters
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 0, ["", {"a": "a", "b": ""}])
    # outputs stay inside the alphabet
    from strfn import AlphabetError

    with pytest.raises(AlphabetError):
        partial_spec(ab, 1, ["", {"a": "c", "b": ""},
                             {s: "" for s in ("aa", "ab", "ba", "bb")}])
    # all arities up to m+1 must be present
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 1, ["", {"a": "", "b": ""}])
    # bare strings stand for the arity-0 part only
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 0, ["", "a"])
    # outputs are strings, at every arity
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 0, [Token(0), {"a": "", "b": ""}])
    with pytest.raises(MalformedSpecError):
        partial_spec(ab, 0, ["", {"a": Token(0), "b": ""}])


def test_conditions_hold_for_first_letter(first_letter_spec):
    reports = verify_conditions(first_letter_spec)
    assert set(reports) == {"a", "b", "c"}
    assert all(r.verdict == HOLDS for r in reports.values())
    assert all(r.skipped == 0 for r in reports.values())


def test_conditions_fail_for_letter_swap(ab):
    reports = verify_conditions(swap_spec(ab))
    assert reports["a"].verdict == FAILS
    assert reports["a"].witness.bindings == (("k", "1"), ("x", "a"))
    assert reports["b"].verdict == HOLDS
    assert reports["c"].verdict == FAILS
    assert reports["c"].witness.bindings == (("x", ""), ("y", ""), ("z", "a"))


def test_conditions_catch_shrinking_outputs(ab):
    """A spec whose unary part erases a letter while the binary part does
    not collapse accordingly has no associative extension: F(aa) = F(aF(a))
    = F(a) is forced, so F(aa) = b with F(a) = ε is contradictory.  Only
    the empty-sided fold instances detect this."""
    spec = partial_spec(ab, 1, [
        "", {"a": "", "b": "b"},
        {"aa": "b", "ab": "b", "ba": "b", "bb": "b"},
    ])
    reports = verify_conditions(spec)
    assert reports["a"].verdict == HOLDS
    assert reports["b"].verdict == HOLDS
    assert reports["c"].verdict == FAILS
    assert reports["c"].witness.bindings == (("x", ""), ("y", "a"), ("z", "a"))
    fn = recursion_extension(spec, 4)
    assert check_associative_full(fn, 4).verdict == FAILS


def test_extend_first_letter_matches_closed_form(ab, first_letter_spec):
    fn = extend(first_letter_spec, 6)
    for s in enumerate_strings(ab, 6):
        assert fn.eval(s) == s[:1]
    assert check_associative_full(fn, 6).verdict == HOLDS


def test_extend_last_letter(ab):
    spec = partial_spec(
        ab, 1, ["", {"a": "a", "b": "b"},
                {"aa": "a", "ab": "b", "ba": "a", "bb": "b"}],
    )
    fn = extend(spec, 5)
    for s in enumerate_strings(ab, 5):
        assert fn.eval(s) == s[-1:]


def test_extend_empty_collapse(ab):
    spec = partial_spec(ab, 0, ["", {"a": "", "b": ""}])
    fn = extend(spec, 4)
    assert set(fn.value_map().values()) == {""}


def test_extend_constant_value(ab):
    spec = partial_spec(
        ab, 1, ["a", {"a": "a", "b": "a"},
                {s: "a" for s in ("aa", "ab", "ba", "bb")}],
    )
    fn = extend(spec, 5)
    assert set(fn.value_map().values()) == {"a"}
    assert check_associative_full(fn, 5).verdict == HOLDS


def test_extend_refuses_bad_spec(ab):
    with pytest.raises(ConditionsFailedError) as info:
        extend(swap_spec(ab), 5)
    failed = sorted(k for k, r in info.value.reports.items() if not r.ok)
    assert failed == ["a", "c"]


def test_extension_needs_room_beyond_the_parts(first_letter_spec):
    with pytest.raises(PreconditionError):
        recursion_extension(first_letter_spec, 2)
    # m + 2 is the smallest level at which the recursion adds anything
    fn = recursion_extension(first_letter_spec, 3)
    assert fn.eval("aba") == "a"


def test_extension_agrees_with_its_own_parts(ab, first_letter_spec):
    fn = extend(first_letter_spec, 5)
    for k in range(first_letter_spec.m + 2):
        for s in enumerate_strings(ab, k, min_len=k):
            assert fn.eval(s) == first_letter_spec.value_at(s)


def test_determination_holds(ab, first_letter, first_letter_spec):
    fn = extend(first_letter_spec, 6)
    report = check_determination(first_letter, fn, 1, 6)
    assert report.verdict == HOLDS
    assert report.skipped == 0


def test_determination_vacuous_when_parts_differ(first_letter, last_letter):
    report = check_determination(first_letter, last_letter, 1, 6)
    assert report.verdict == VACUOUS
    assert report.witness.bindings == (("x", "ab"),)
    assert "determination does not apply" in report.detail


def test_determination_gates_on_preconditions(ab):
    fa = letter_remove_fn(ab, 5, "a")
    ga = letter_remove_g_fn(ab, 5, "a")
    with pytest.raises(PreconditionError) as info:
        check_determination(fa, ga, 1, 5)
    bad = sorted(k for k, r in info.value.reports.items() if not r.ok)
    assert bad == ["first m-bounded", "second m-bounded"]


def test_determination_requires_one_alphabet(ab):
    ac = Alphabet(("a", "c"))
    f, g = (table_fn(x, 3, {s: s[:1] for s in enumerate_strings(x, 3)}) for x in (ab, ac))
    with pytest.raises(PreconditionError, match="common alphabet"):
        check_determination(f, g, 1, 3)


def test_identity_patch(ab):
    fn = constant_fn(ab, 5, "a")
    patched = identity_patch(fn, 1, 1, 5)
    assert patched.eval("") == ""
    assert patched.eval("a") == "a"
    assert patched.eval("b") == "b"
    assert patched.eval("ab") == "a"
    assert check_associative_full(patched, 5).verdict == HOLDS
    assert check_m_bounded(patched, 1, 5).verdict == HOLDS


def test_identity_patch_depth_limited(ab):
    fn = constant_fn(ab, 5, "a")
    with pytest.raises(PreconditionError):
        identity_patch(fn, 2, 1, 5)


def test_identity_patch_requires_associativity(bit_flip):
    with pytest.raises(PreconditionError):
        identity_patch(bit_flip, 1, 1, 5)


def test_enumerate_partial_specs_count(ab):
    specs = list(enumerate_partial_specs(ab, 1))
    assert len(specs) == 2187  # 3 choices at arity 0, 3^2 at 1, 3^4 at 2
    sample = random.Random(7).sample(specs, 25)
    for spec in sample:
        assert spec.m == 1
        for s in ("", "a", "b", "aa", "ab", "ba", "bb"):
            assert len(spec.value_at(s)) <= 1


def test_conditions_sample_agrees_with_extension(ab):
    """Spot check: a passing spec extends to an associative function and a
    failing one cannot (the full sweep lives in the acceptance tests)."""
    rng = random.Random(1234)
    specs = list(enumerate_partial_specs(ab, 1))
    passing = failing = 0
    for spec in rng.sample(specs, 60):
        reports = verify_conditions(spec)
        fn = recursion_extension(spec, 5)
        assoc = check_associative_full(fn, 5)
        if all(r.ok for r in reports.values()):
            passing += 1
            assert assoc.verdict == HOLDS
        else:
            failing += 1
            assert assoc.verdict == FAILS
    assert passing and failing
