from __future__ import annotations

import re
from pathlib import Path

import pytest

import strfn
from helpers import oracle_block_classes, oracle_theta_reps
from strfn import (
    EQUIVALENT,
    HOLDS,
    INCOMPARABLE,
    STRICTLY_BELOW,
    Alphabet,
    AlphabetError,
    OutOfDomainError,
    PreconditionError,
    ThetaSpec,
    canonical_rep,
    check_associative_full,
    check_idempotent,
    check_standard,
    enumerate_strings,
    identity_fn,
    length_fn,
    preceq,
    table_fn,
    theta_class,
    theta_rep_fn,
)
from strfn.quotient import theta_chain


def test_theta_spec_blocks():
    assert ThetaSpec("a", "b", 0).blocks == ("a", "b")
    assert ThetaSpec("a", "b", 1).blocks == ("aa", "bb")
    assert ThetaSpec("a", "b", 2).blocks == ("aaaa", "bbbb")


def test_theta_spec_validation():
    with pytest.raises(ValueError):
        ThetaSpec("a", "a", 0)
    with pytest.raises(ValueError):
        ThetaSpec("", "b", 0)
    with pytest.raises(ValueError):
        ThetaSpec("a", "b", -1)


def test_theta_class_single_letters(ab):
    cls = theta_class("ab", ThetaSpec("a", "b", 0), 2, ab)
    assert cls.members == ("aa", "ab", "ba", "bb")
    assert not cls.truncated
    assert cls.rep == "aa"
    assert "ba" in cls
    assert len(cls) == 4


def test_theta_class_doubled_blocks(ab):
    cls = theta_class("aa", ThetaSpec("a", "b", 1), 4, ab)
    assert cls.members == ("aa", "bb")
    assert not cls.truncated
    # single letters cannot host a two-letter block
    single = theta_class("b", ThetaSpec("a", "b", 1), 4, ab)
    assert single.members == ("b",)


def test_theta_class_of_empty_string(ab):
    cls = theta_class("", ThetaSpec("a", "b", 1), 4, ab)
    assert cls.members == ("",)
    assert not cls.truncated


def test_theta_class_uneven_blocks(ab):
    # rewriting "aa" <-> "b" changes lengths; members sort by length-lex
    cls = theta_class("aaa", ThetaSpec("aa", "b", 0), 3, ab)
    assert cls.members == ("ab", "ba", "aaa")
    assert cls.rep == "ab"
    assert not cls.truncated


def test_theta_class_truncation(ab):
    # "bb" rewrites to three-letter strings that escape the bound
    cls = theta_class("bb", ThetaSpec("aa", "b", 0), 2, ab)
    assert cls.members == ("bb",)
    assert cls.truncated


def test_theta_class_out_of_domain(ab):
    with pytest.raises(OutOfDomainError):
        theta_class("aaaaa", ThetaSpec("a", "b", 0), 4, ab)


def test_canonical_rep(ab):
    spec = ThetaSpec("a", "b", 1)
    assert canonical_rep("bb", spec, 4, ab) == "aa"
    assert canonical_rep("b", spec, 4, ab) == "b"
    assert canonical_rep("ab", ThetaSpec("a", "b", 0), 4, ab) == "aa"


def test_canonical_rep_idempotent(ab):
    spec = ThetaSpec("a", "b", 1)
    for s in enumerate_strings(ab, 6):
        rep = canonical_rep(s, spec, 6, ab)
        assert canonical_rep(rep, spec, 6, ab) == rep


def test_rep_constant_on_classes(ab):
    spec = ThetaSpec("a", "b", 1)
    for s in enumerate_strings(ab, 5):
        cls = theta_class(s, spec, 5, ab)
        reps = {canonical_rep(m, spec, 5, ab) for m in cls.members}
        assert reps == {cls.rep}


def test_theta_rep_fn_properties(ab):
    fn = theta_rep_fn(ab, 6, ThetaSpec("a", "b", 1))
    assert check_associative_full(fn, 6).verdict == HOLDS
    assert check_idempotent(fn, 6).verdict == HOLDS
    assert check_standard(fn, 6).verdict == HOLDS
    assert fn.eval("bb") == "aa"
    assert fn.eval("abba") == "aaaa"


def test_theta_rep_fn_validates_blocks(ab):
    with pytest.raises(AlphabetError):
        theta_rep_fn(ab, 4, ThetaSpec("a", "c", 0))


def test_kernel_of_rep_fn_is_the_block_relation(ab):
    spec = ThetaSpec("a", "b", 1)
    fn = theta_rep_fn(ab, 4, spec)
    strings = list(enumerate_strings(ab, 4))
    for x in strings:
        for y in strings:
            same_value = fn.eval(x) == fn.eval(y)
            same_class = y in theta_class(x, spec, 4, ab)
            assert same_value == same_class, (x, y)


def test_preceq_chain(ab):
    f1 = theta_rep_fn(ab, 8, ThetaSpec("a", "b", 1))
    f2 = theta_rep_fn(ab, 8, ThetaSpec("a", "b", 2))
    comparison = preceq(f1, f2, 8)
    assert comparison.relation == STRICTLY_BELOW
    assert comparison.first_below_second
    assert not comparison.second_below_first
    assert comparison.separating == ("aa", "bb")


@pytest.mark.parametrize("x0, x1, bound", [
    ("a", "b", 6), ("ab", "b", 7), ("a", "ba", 5), ("aa", "b", 4), ("b", "a", 1),
])
def test_theta_chain_matches_each_pair_compared(ab, x0, x1, bound):
    """Past the cutoff, where no block fits the bound, each F^m is the identity."""
    chain = theta_chain(ab, bound, x0, x1, 4)
    assert [m for m, _ in chain] == [1, 2, 3, 4]
    for m, cmp in chain:
        assert cmp == preceq(theta_rep_fn(ab, bound, ThetaSpec(x0, x1, m)),
                             theta_rep_fn(ab, bound, ThetaSpec(x0, x1, m + 1)), bound)
    assert chain[-1][1].relation == EQUIVALENT
    with pytest.raises(AlphabetError):  # even where no F^m is built
        theta_chain(ab, 1, "cc", "a", 1)


def test_preceq_reflexive(ab):
    fn = theta_rep_fn(ab, 6, ThetaSpec("a", "b", 1))
    assert preceq(fn, fn, 6).relation == EQUIVALENT


def test_preceq_length_below_identity(ab):
    comparison = preceq(length_fn(ab, 6), identity_fn(ab, 6), 4)
    assert comparison.relation == STRICTLY_BELOW
    assert comparison.separating == ("a", "b")


def test_preceq_incomparable(first_letter, last_letter):
    comparison = preceq(first_letter, last_letter, 4)
    assert comparison.relation == INCOMPARABLE
    assert comparison.separating == ("b", "ab")


def test_preceq_requires_shared_alphabet(ab, ab3, first_letter):
    other = identity_fn(ab3, 4)
    with pytest.raises(PreconditionError):
        preceq(first_letter, other, 4)


# (x0, x1, m): single letters, doubled blocks, uneven blocks whose swaps
# leave the domain (aa <-> b), overlapping blocks (ab <-> ba), blocks of
# different lengths doubled (b <-> ab, m = 1), and a block of 4 letters
# against one of 8, which is longer than every level here.
_SPECS = [("a", "b", 0), ("a", "b", 1), ("aa", "b", 0), ("ab", "ba", 0), ("b", "ab", 1),
          ("a", "bb", 2)]


@pytest.mark.parametrize("x0, x1, m", _SPECS)
@pytest.mark.parametrize("letters, top", [("ab", 7), ("ba", 7), ("cab", 5)])
def test_classes_match_the_fixpoint_oracle(x0, x1, m, letters, top):
    alphabet = Alphabet(tuple(letters))
    spec = ThetaSpec(x0, x1, m)
    for level in range(top + 1):
        expected = oracle_block_classes(alphabet, level, *spec.blocks)
        reps = theta_rep_fn(alphabet, level, spec).value_map()
        assert reps == {s: members[0] for s, (members, _) in expected.items()}
        for s, (members, truncated) in expected.items():
            cls = theta_class(s, spec, level, alphabet)
            assert (cls.members, cls.truncated) == (members, truncated), (level, s)


@pytest.mark.parametrize("letters, top", [("ab", 6), ("abc", 4)])
def test_theta_rep_fn_matches_a_bfs_from_every_string(letters, top):
    # Every pair of distinct blocks of 1-2 letters, overlapping ones such
    # as ab <-> ba included; at m = 3 every block is longer than the level.
    alphabet = Alphabet(tuple(letters))
    words = list(enumerate_strings(alphabet, 2, min_len=1))
    for x0 in words:
        for x1 in words:
            if x0 == x1:
                continue
            for m in range(4):
                spec = ThetaSpec(x0, x1, m)
                for level in range(top + 1):
                    expected = oracle_theta_reps(alphabet, level, *spec.blocks)
                    reps = theta_rep_fn(alphabet, level, spec).value_map()
                    assert list(reps.items()) == list(expected.items()), (x0, x1, m, level)


def test_theta_rep_fn_never_builds_a_block_longer_than_the_bound(ab):
    reps = theta_rep_fn(ab, 3, ThetaSpec("a", "b", 2**40)).value_map()
    assert reps == {s: s for s in enumerate_strings(ab, 3)}


def test_oracle_sees_truncation_and_letter_order(ab):
    classes = oracle_block_classes(ab, 2, "aa", "b")
    assert classes["bb"] == (("bb",), True)
    assert classes["b"] == (("b", "aa"), False)
    assert classes["ab"] == (("ab",), True)
    swapped = oracle_block_classes(Alphabet(("b", "a")), 2, "a", "b")
    assert swapped["ab"] == (("bb", "ba", "ab", "aa"), False)


def test_theta_class_validates_blocks(ab):
    with pytest.raises(AlphabetError):
        theta_class("aa", ThetaSpec("c", "a", 0), 2, ab)


def test_no_module_level_memo():
    """Memo tables live on the objects that own them, never in a global cache."""
    memo = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|^\s*@cache\b"
                      r"|^from functools import .*\bcache\b", re.MULTILINE)
    found = [f"{path.name}: {hit.group(0)}"
             for path in sorted(Path(strfn.__file__).parent.glob("*.py"))
             for hit in memo.finditer(path.read_text())]
    assert found == []
