"""The ten acceptance checks, one test per criterion.

Each test prints a single scoreboard line ("acceptance NN [PASS] ...")
before asserting, so a verbose or captured run reads as a checklist.
The heavyweight sweeps (all 2187 one-bounded specs, all 823543 length
profiles) run here rather than in the per-module files.
"""
from __future__ import annotations

import math
import random

import pytest

from helpers import oracle_sweep, random_string_table, random_token_table
from strfn import (
    Alphabet,
    ThetaSpec,
    Token,
    canonical_rep,
    check_associative_full,
    check_associative_reduced,
    check_preassociative,
    check_standard,
    constant_fn,
    enumerate_partial_specs,
    enumerate_strings,
    eval_alpha,
    factorize,
    identity_fn,
    length_fn,
    length_of_fn,
    letter_remove_fn,
    letter_remove_g_fn,
    minimal_period,
    ofo_fn,
    preceq,
    quasi_inverse,
    recursion_extension,
    recursive_eval,
    separator_insert_fn,
    sort_fn,
    sweep_alpha_tables,
    synthesize_alpha,
    table_fn,
    theta_rep_fn,
    variadic_parts,
    verify_conditions,
)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance {num:02d}: {desc}"


@pytest.fixture(scope="module")
def unary_sweep():
    """Every 1-bounded spec over {a, b} with its fold and both verdicts."""
    ab = Alphabet(("a", "b"))
    rows = []
    for spec in enumerate_partial_specs(ab, 1):
        ok = all(r.ok for r in verify_conditions(spec).values())
        fn = recursion_extension(spec, 6)
        full = check_associative_full(fn, 6)
        reduced = check_associative_reduced(fn, 6)
        rows.append((ok, full, reduced))
    return rows


def test_criterion_01_exact_strings():
    letters = Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"))
    ofo = ofo_fn(letters, 17)
    ok = (ofo.eval("indivisibilities") == "indvsblte"
          and ofo.eval("subdermatoglyphic") == "subdermatoglyphic")

    sep = separator_insert_fn(Alphabet(("a", "b", "c", "d", "|")), 9, "|")
    expected = {"a": "a", "ab": "a|b", "a|b": "a|b", "||": "||",
                "||ab|||cd": "||a|b|||c|d"}
    ok = ok and all(sep.eval(s) == out for s, out in expected.items())
    _report(1, "duplicate removal and separator insertion, byte-exact", ok)


def test_criterion_02_checker_verdicts(ab3):
    associative = [
        identity_fn(ab3, 5),
        sort_fn(ab3, 5),
        ofo_fn(ab3, 5),
        letter_remove_fn(ab3, 5, "a"),
        letter_remove_g_fn(ab3, 5, "a"),
        separator_insert_fn(ab3, 5, "|"),
    ]
    ok = all(check_associative_full(fn, 5).ok for fn in associative)

    ok = ok and check_standard(ofo_fn(ab3, 5), 5).verdict == "holds"
    ok = ok and check_standard(identity_fn(ab3, 5), 5).verdict == "holds"
    ok = ok and check_standard(letter_remove_fn(ab3, 5, "a"), 5).verdict == "fails"
    ok = ok and check_standard(letter_remove_g_fn(ab3, 5, "a"), 5).verdict == "fails"

    ok = ok and check_preassociative(length_fn(ab3, 5), 5).verdict == "holds"
    ok = ok and check_preassociative(
        length_of_fn(letter_remove_fn(ab3, 5, "a")), 5).verdict == "holds"

    removal = check_preassociative(
        length_of_fn(letter_remove_g_fn(ab3, 5, "a")), 5)
    ok = ok and removal.verdict == "fails"
    ok = ok and removal.witness.bindings == (
        ("y", ""), ("y2", "b"), ("x", ""), ("z", "b"))
    ok = ok and (removal.witness.lhs, removal.witness.rhs) == (Token(1), Token(2))

    dedup = check_preassociative(length_of_fn(ofo_fn(ab3, 5)), 5)
    ok = ok and dedup.verdict == "fails"
    ok = ok and dedup.witness.bindings == (
        ("y", "a"), ("y2", "b"), ("x", "a"), ("z", ""))
    ok = ok and (dedup.witness.lhs, dedup.witness.rhs) == (Token(1), Token(2))
    _report(2, "builtin verdicts and counterexample witnesses at L=5", ok)


def test_criterion_03_reduced_equals_full(unary_sweep):
    ok = all(reduced.verdict == full.verdict and reduced.skipped == 0
             for _, full, reduced in unary_sweep)

    ab = Alphabet(("a", "b"))
    rng = random.Random(3)
    for _ in range(500):
        fn = random_string_table(ab, 6, rng, out_max=1)
        full = check_associative_full(fn, 6)
        reduced = check_associative_reduced(fn, 6)
        ok = ok and reduced.verdict == full.verdict and reduced.skipped == 0
    _report(3, "reduced check agrees with the full check on every "
               "1-bounded function (2187 folds + 500 random tables)", ok)


def test_criterion_04_conditions_match_extension(unary_sweep):
    ok = all(cond == full.ok for cond, full, _ in unary_sweep)
    passing = sum(1 for cond, _, _ in unary_sweep if cond)
    ok = ok and len(unary_sweep) == 2187 and passing == 26
    _report(4, "extension conditions hold iff the fold is associative "
               "(all 2187 one-bounded specs)", ok)


def test_criterion_05_factorization_round_trip(ab):
    fact = factorize(length_fn(ab, 4), 4)
    ok = all(fact.g.apply(Token(n)) == "a" * n for n in range(5))
    ok = ok and all(fact.h.eval(s) == "a" * len(s)
                    for s in enumerate_strings(ab, 4))
    ok = ok and fact.f == tuple(("a" * n, Token(n)) for n in range(5))
    ok = ok and all(fact.outer(fact.h.eval(s)) == fact.source.eval(s)
                    for s in enumerate_strings(ab, 4))
    ok = ok and check_associative_full(fact.h, 4).ok
    outputs = [v for _, v in fact.f]
    ok = ok and len(set(outputs)) == len(outputs)
    _report(5, "length factors through the unary-repetition core", ok)


def test_criterion_06_preassociativity_transfers(ab3):
    fixtures = [
        identity_fn(ab3, 5),
        sort_fn(ab3, 5),
        ofo_fn(ab3, 5),
        letter_remove_fn(ab3, 5, "a"),
        letter_remove_g_fn(ab3, 5, "a"),
        separator_insert_fn(ab3, 5, "|"),
        constant_fn(ab3, 5, "a"),
        length_fn(ab3, 5),
        length_of_fn(letter_remove_fn(ab3, 5, "a")),
        length_of_fn(letter_remove_g_fn(ab3, 5, "a")),
        length_of_fn(ofo_fn(ab3, 5)),
    ]
    ab = Alphabet(("a", "b"))
    rng = random.Random(6)
    pool = [Token(i) for i in range(3)]
    tables = [random_token_table(ab, 5, rng, pool) for _ in range(500)]

    ok = True
    for fn in fixtures + tables:
        fact = factorize(fn, 5)
        ok = ok and (fact.checks["source-preassociative"].ok
                     == fact.checks["inner-associative"].ok)
    _report(6, "a function is preassociative iff its pulled-back core is "
               "associative (11 fixtures + 500 random token tables)", ok)


def test_criterion_07_alpha_sweep():
    result = sweep_alpha_tables(6, 6, jobs=4)
    ok = (result == oracle_sweep(6, 6)
          and result.total == 7 ** 7 == 823543
          and result.agree
          and result.mismatches == []
          and result.insufficient > 0
          and result.accepted + result.rejected + result.insufficient
          == result.total)
    _report(7, "equation check and classification agree on all 823543 "
               "length profiles with horizon 6", ok)


def test_criterion_08_period_minimization():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        n1 = rng.randint(0, 4)
        ell = rng.randint(1, 4)
        window = list(range(n1)) + [
            n1 + i + ell * rng.randint(0, 3) for i in range(ell)
        ]
        alpha = synthesize_alpha(n1, ell, window)
        ok = ok and hasattr(alpha, "kind")  # a profile, not a rejection

        horizon = n1 + 14 * ell + 4
        values = [eval_alpha(alpha, n) for n in range(horizon + 1)]
        spread = rng.randint(0, 3)
        factor = rng.randint(1, 3)
        witnesses = [(n1, ell), (n1 + spread, ell * factor)]
        start, period = minimal_period(values, witnesses)
        ok = ok and (start, period) == (n1, ell)
        ok = ok and period == math.gcd(ell, ell * factor)
        ok = ok and all(values[n] == values[n + period]
                        for n in range(start, horizon + 1 - period))
    _report(8, "1000 random profiles: redundant periodicity witnesses "
               "combine to (min start, gcd period) and verify", ok)


def test_criterion_09_block_swap_chain():
    ab = Alphabet(("a", "b"))
    first = theta_rep_fn(ab, 8, ThetaSpec("a", "b", 1))
    second = theta_rep_fn(ab, 8, ThetaSpec("a", "b", 2))

    rep_first = check_associative_full(first, 8)
    rep_second = check_associative_full(second, 8)
    ok = (rep_first.verdict == "holds" and rep_first.skipped == 0
          and rep_second.verdict == "holds" and rep_second.skipped == 0)

    cmp = preceq(first, second, 8)
    ok = ok and cmp.relation == "strictly-below"
    ok = ok and cmp.first_below_second and not cmp.second_below_first
    ok = ok and cmp.separating == ("aa", "bb")

    spec = ThetaSpec("a", "b", 1)
    for s in enumerate_strings(ab, 8):
        rep = canonical_rep(s, spec, 8, ab)
        ok = ok and canonical_rep(rep, spec, 8, ab) == rep
    _report(9, "block-swap representatives: associative at L=8, strictly "
               "ordered kernels, idempotent canonical map", ok)


def test_criterion_10_sum_reconstruction():
    digits = Alphabet(tuple("01234"))
    sums = table_fn(
        digits, 2,
        {s: Token(sum(int(c) for c in s)) for s in enumerate_strings(digits, 2)},
        codomain="token",
    )
    parts = variadic_parts(digits, [
        Token(0),
        {d: Token(int(d)) for d in "01234"},
        {s: Token(sum(int(c) for c in s))
         for s in enumerate_strings(digits, 2, min_len=2)},
    ])
    g = quasi_inverse(sums, 2)
    ok = all(
        recursive_eval(parts, g, x + y + z) == Token(int(x) + int(y) + int(z))
        for x in "012" for y in "012" for z in "012"
    )
    _report(10, "three-digit sums rebuilt from the binary table by "
                "quasi-inverse recursion (27 exact values)", ok)
