from __future__ import annotations

import itertools
import json
import random

import pytest

from helpers import oracle_alpha_equations, oracle_classify, oracle_period_break
from strfn import (
    FAILS,
    HOLDS,
    Alphabet,
    AlphabetError,
    AlphaRejection,
    InsufficientHorizonError,
    LengthBasedRejection,
    MalformedSpecError,
    MissingEntryError,
    PreconditionError,
    Token,
    UnevaluableError,
    WitnessError,
    check_alpha_equations,
    check_associative_full,
    check_length_based,
    check_preassociative,
    check_weakly_length_based,
    classify_alpha,
    compose_length_based,
    compose_preassoc_length_based,
    decompose_length_based,
    enumerate_strings,
    eval_alpha,
    identity_alpha,
    identity_fn,
    letter_remove_fn,
    minimal_period,
    psi_table,
    sort_fn,
    sweep_alpha_tables,
    synthesize_alpha,
    table_fn,
)
from strfn.lengthbased import _classify, _equations_hold, _verify_period
from strfn.specio import report_to_json


def window_alpha():
    """Identity below 2, then the period-2 window (4, 5)."""
    return synthesize_alpha(2, 2, (0, 1, 4, 5))


# --------------------------------------------------------------- evaluation


def test_eval_alpha():
    assert eval_alpha(identity_alpha(), 7) == 7
    alpha = window_alpha()
    assert [eval_alpha(alpha, n) for n in range(9)] == [0, 1, 4, 5, 4, 5, 4, 5, 4]


def test_alpha_standard_flag():
    assert identity_alpha().standard
    assert window_alpha().standard
    nonstd = classify_alpha([2, 1, 2, 1, 2])
    assert nonstd.kind == "structured"
    assert not nonstd.standard


# ---------------------------------------------------------------- equations


def test_equations_hold():
    assert check_alpha_equations(list(range(7))).verdict == HOLDS
    assert check_alpha_equations([0, 1, 4, 5, 4, 5, 4]).verdict == HOLDS
    assert check_alpha_equations([2, 1, 2, 1, 2]).verdict == HOLDS


def test_equations_fixed_point_failure():
    report = check_alpha_equations([1, 2, 3, 4, 5, 6, 6])
    assert report.verdict == FAILS
    assert report.witness.bindings == (("n", "0"),)
    assert report.witness.lhs == Token(2)
    assert report.witness.rhs == Token(1)
    assert report.detail == "alpha(alpha(n)) != alpha(n)"


def test_equations_shift_failure():
    # values are all fixed points, but alpha(0) = alpha(2) does not shift
    report = check_alpha_equations([0, 1, 0, 3])
    assert report.verdict == FAILS
    assert report.witness.bindings == (("n", "0"), ("n2", "2"), ("k", "1"))
    assert report.witness.lhs == Token(1)
    assert report.witness.rhs == Token(3)
    assert report.detail == "equal values fail to shift together"


def test_equations_cannot_follow_large_values():
    with pytest.raises(UnevaluableError):
        check_alpha_equations([0, 9])


def alpha_corpus():
    """Every table of horizon 5 with entries 0..5, random small tables
    (every fifth one with entries up to one past its horizon), and
    synthesized profiles up to horizon ~160, each also with one entry
    copied over another."""
    yield from itertools.product(range(6), repeat=6)
    rng = random.Random(13)
    for i in range(20000):
        horizon = rng.randint(0, 12)
        top = horizon + (i % 5 == 0)
        yield tuple(rng.randint(0, top) for _ in range(horizon + 1))
    for _ in range(300):
        n1, ell = rng.randint(0, 40), rng.randint(1, 12)
        window = [*range(n1), *(n + ell * rng.randint(0, 4) for n in range(n1, n1 + ell))]
        alpha = synthesize_alpha(n1, ell, window)
        values = [eval_alpha(alpha, n) for n in range(max(window) + rng.randint(1, 4 * ell) + 1)]
        yield tuple(values)
        j, k = rng.sample(range(len(values)), 2)
        values[j] = values[k]
        yield tuple(values)


def test_equations_match_the_pairwise_oracle():
    """The per-class check gives the pairwise scan's report byte for byte,
    and the sweep's boolean test gives its verdict."""
    paths = {"holds": 0, "fixed-point": 0, "shift": 0, "late-shift": 0, "unevaluable": 0}
    for values in alpha_corpus():
        try:
            expected = oracle_alpha_equations(values)
        except UnevaluableError as exc:
            with pytest.raises(UnevaluableError) as info:
                check_alpha_equations(values)
            assert str(info.value) == str(exc)
            paths["unevaluable"] += 1
            continue
        # Compact JSON: the same bytes as the CLI's indented text, faster.
        report = json.dumps(report_to_json(check_alpha_equations(values)))
        assert report == json.dumps(report_to_json(expected)), values
        assert _equations_hold(values) == expected.ok, values
        if expected.ok:
            paths["holds"] += 1
        elif len(expected.witness.bindings) == 1:
            paths["fixed-point"] += 1
        else:
            paths["shift"] += 1
            # Past the horizon of every random table: a synthesized profile.
            paths["late-shift"] += int(expected.witness.binding("n2")) > 12
    # Each path is reached often enough that a wrong count or witness shows.
    assert paths["holds"] >= 2000
    assert paths["fixed-point"] >= 20000
    assert paths["shift"] >= 1000
    assert paths["late-shift"] >= 100
    assert paths["unevaluable"] >= 1000


# ------------------------------------------------------------ classification


def test_classify_identity():
    assert classify_alpha([0, 1, 2, 3]).kind == "identity"


def test_classify_windowed():
    alpha = classify_alpha([0, 1, 4, 5, 4, 5, 4])
    assert alpha.kind == "structured"
    assert (alpha.n1, alpha.ell) == (2, 2)
    assert alpha.values == (0, 1, 4, 5)


def test_classify_modular_profile():
    # n mod 3 is a legitimate profile: idempotent and shift-compatible
    alpha = classify_alpha([0, 1, 2, 0, 1, 2, 0])
    assert alpha.kind == "structured"
    assert (alpha.n1, alpha.ell) == (0, 3)
    assert alpha.values == (0, 1, 2)
    assert check_alpha_equations([0, 1, 2, 0, 1, 2, 0]).verdict == HOLDS


def test_classify_nonstandard_profile():
    alpha = classify_alpha([2, 1, 2, 1, 2])
    assert (alpha.n1, alpha.ell) == (0, 2)
    assert alpha.values == (2, 1)


def test_classify_rejects_broken_periodicity():
    rejection = classify_alpha([0, 1, 1, 3])
    assert isinstance(rejection, AlphaRejection)
    assert rejection.condition == "periodicity"


def test_classify_rejects_residue_mismatch():
    rejection = classify_alpha([0, 3, 5, 3, 4, 5])
    assert isinstance(rejection, AlphaRejection)
    assert rejection.condition == "window-residue"


def test_classify_short_horizon():
    with pytest.raises(InsufficientHorizonError) as info:
        classify_alpha([0, 2])
    assert (info.value.n1, info.value.ell, info.value.horizon) == (1, 1, 1)


def test_classification_agrees_with_equations():
    # derived jointly: a table is accepted exactly when both equations hold
    rng = random.Random(2024)
    accepted = rejected = 0
    for _ in range(300):
        horizon = rng.randint(2, 6)
        values = [rng.randint(0, horizon) for _ in range(horizon + 1)]
        try:
            shape = classify_alpha(values)
            equations = check_alpha_equations(values)
        except (InsufficientHorizonError, UnevaluableError):
            continue
        ok = not isinstance(shape, AlphaRejection)
        accepted += ok
        rejected += not ok
        assert ok == (equations.verdict == HOLDS), values
    assert accepted and rejected


def _outcome(classify, values):
    """What ``classify`` gives: the profile or rejection, or the error's text and fields."""
    try:
        return classify(values)
    except InsufficientHorizonError as e:
        return ("insufficient", str(e), e.n1, e.ell, e.horizon)


def _condition(outcome):
    if isinstance(outcome, tuple):
        return outcome[0]
    return outcome.condition if isinstance(outcome, AlphaRejection) else outcome.kind


@pytest.mark.parametrize("horizon, max_value", [(5, 5), (4, 6), (6, 3)])
def test_classify_matches_the_oracle_on_every_table(horizon, max_value):
    for values in itertools.product(range(max_value + 1), repeat=horizon + 1):
        assert _outcome(_classify, values) == _outcome(oracle_classify, values), values


def _random_profile(rng):
    """A random table, or a valid profile's table with some entries changed."""
    horizon = rng.randint(0, 30)
    if rng.random() < 0.3:
        return [rng.randint(0, horizon + 2) for _ in range(horizon + 1)]
    n1, ell = rng.randint(0, horizon), rng.randint(1, 8)
    window = list(range(n1)) + [n + ell * rng.randrange(3) for n in range(n1, n1 + ell)]
    values = [window[n] if n < n1 + ell else window[n1 + (n - n1) % ell]
              for n in range(horizon + 1)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        values[rng.randrange(horizon + 1)] = rng.randint(0, horizon + 2)
    return values


def test_classify_matches_the_oracle_on_random_tables():
    rng = random.Random(19)
    seen = set()
    for _ in range(20000):
        values = _random_profile(rng)
        table = tuple(values) if rng.random() < 0.5 else values
        expected = _outcome(oracle_classify, table)
        assert _outcome(classify_alpha, table) == expected, values
        seen.add(_condition(expected))
    assert seen == {"identity", "structured", "window-residue", "periodicity", "insufficient"}


def test_classify_outcome_counts_at_horizon_four():
    # Classification never gives window-growth: a moved n in [n1, n1 + ell)
    # with alpha(n) < n jumps by n - alpha(n) <= n - n1 < ell, below the
    # least jump.  Only synthesize_alpha does (test_synthesize_rejections).
    counts = {}
    for values in itertools.product(range(7), repeat=5):
        condition = _condition(_outcome(classify_alpha, values))
        counts[condition] = counts.get(condition, 0) + 1
    assert counts == {"identity": 1, "structured": 27, "window-residue": 1768,
                      "periodicity": 14190, "insufficient": 821}


def test_period_break_matches_the_walk():
    rng = random.Random(7)
    for _ in range(3000):
        values = [rng.randint(0, 2) for _ in range(rng.randint(1, 12))]
        start, period = rng.randint(0, 14), rng.randint(1, 14)
        expected = oracle_period_break(values, start, period)
        assert _verify_period(values, start, period) == expected, (values, start, period)
        assert _verify_period(tuple(values), start, period) == expected


# ------------------------------------------------------------------ synthesis


def test_synthesize_valid_windows():
    assert synthesize_alpha(2, 2, (0, 1, 4, 5)).kind == "structured"
    assert synthesize_alpha(0, 1, (0,)).kind == "structured"
    # the window may keep identity entries as long as residues line up
    assert synthesize_alpha(1, 2, (0, 1, 4)).kind == "structured"


def test_synthesize_rejections():
    assert synthesize_alpha(1, 2, (0, 2, 4)).condition == "window-residue"
    assert synthesize_alpha(1, 1, (1, 2)).condition == "identity-prefix"
    assert synthesize_alpha(2, 2, (0, 1, 1, 4)).condition == "window-growth"


def test_synthesize_malformed_arguments():
    with pytest.raises(ValueError):
        synthesize_alpha(1, 0, (0,))
    with pytest.raises(ValueError):
        synthesize_alpha(1, 2, (0, 1))  # needs n1 + ell entries
    with pytest.raises(ValueError):
        synthesize_alpha(True, 1, (0, 2))  # a bool is not a threshold
    with pytest.raises(ValueError):
        synthesize_alpha(0, True, (0,))  # nor a period


# -------------------------------------------------------------------- periods


def test_minimal_period_gcd():
    values = [0, 1, 2, 5, 6, 5, 6, 5, 6, 5, 6, 5]
    assert minimal_period(values, [(3, 4), (3, 6)]) == (3, 2)


def test_minimal_period_constant_table():
    assert minimal_period([7] * 8, [(0, 2), (5, 3)]) == (0, 1)


def test_minimal_period_single_witness():
    values = [0, 1, 4, 5, 6, 4, 5, 6, 4, 5, 6]
    assert minimal_period(values, [(2, 3)]) == (2, 3)


def test_minimal_period_rejects_false_witness():
    with pytest.raises(WitnessError):
        minimal_period([0, 1, 0, 1, 0], [(0, 3)])
    for witness in ((False, 2), (0, True)):  # bools are not witnesses
        with pytest.raises(WitnessError, match="malformed witness"):
            minimal_period([0, 1, 0, 1, 0, 1], [witness])


def test_minimal_period_gcd_needs_enough_horizon():
    # both witnesses check out individually, but their gcd (period 2)
    # is falsified by the table itself: too little room to interleave
    with pytest.raises(WitnessError):
        minimal_period([0, 1, 0, 2, 0, 1, 0], [(0, 4), (0, 6)])


# ----------------------------------------------------------------- composition


def test_psi_table_validation():
    psi = psi_table({0: "", 3: "aba"})
    assert psi.apply(3) == "aba"
    with pytest.raises(MissingEntryError):
        psi.apply(1)
    with pytest.raises(ValueError):
        psi_table({2: "a"})  # |psi(n)| must equal n
    with pytest.raises(ValueError):
        psi_table({True: "a"})  # a bool is not a length


def test_compose_length_based(ab):
    fn = compose_length_based(ab, 6, window_alpha(),
                              psi_table({0: "", 1: "a", 4: "aaaa", 5: "aaaaa"}))
    assert fn.eval("") == ""
    assert fn.eval("b") == "a"
    assert fn.eval("ab") == "aaaa"
    assert fn.eval("aab") == "aaaaa"
    assert fn.eval("abab") == "aaaa"
    assert check_associative_full(fn, 6).verdict == HOLDS
    assert check_length_based(fn, 6).verdict == HOLDS


def test_compose_requires_psi_coverage(ab):
    with pytest.raises(MissingEntryError):
        compose_length_based(ab, 6, window_alpha(), psi_table({0: "", 1: "a"}))


def test_decompose_round_trip(ab):
    fn = compose_length_based(ab, 6, window_alpha(),
                              psi_table({0: "", 1: "a", 4: "aaaa", 5: "aaaaa"}))
    alpha, psi = decompose_length_based(fn, 6)
    assert alpha.kind == "structured"
    assert (alpha.n1, alpha.ell) == (2, 2)
    assert alpha.values == (0, 1, 4, 5)
    assert psi.entries == ((0, ""), (1, "a"), (4, "aaaa"), (5, "aaaaa"))


def test_decompose_rejects_identity(ab):
    rejection = decompose_length_based(identity_fn(ab, 3), 3)
    assert isinstance(rejection, LengthBasedRejection)
    assert rejection.reason == "not-length-based"


def test_decompose_rejects_inconsistent_psi(ab):
    # constant per length, but lengths 1 and 2 share the output length 1,
    # so no single psi entry can serve both
    fn = table_fn(ab, 2, {"": "", "a": "a", "b": "a",
                          "aa": "b", "ab": "b", "ba": "b", "bb": "b"})
    assert check_length_based(fn, 2).verdict == HOLDS
    rejection = decompose_length_based(fn, 2)
    assert rejection.reason == "inconsistent-psi"


def test_decompose_rejects_growing_profile(ab):
    fn = table_fn(ab, 3, {s: "a" * (len(s) + 1) for s in enumerate_strings(ab, 3)})
    rejection = decompose_length_based(fn, 3)
    assert rejection.reason == "profile-periodicity"


def test_weakly_length_based(ab, bit_flip):
    assert check_weakly_length_based(bit_flip, 5).verdict == HOLDS
    assert check_weakly_length_based(sort_fn(ab, 4), 4).verdict == HOLDS
    report = check_weakly_length_based(letter_remove_fn(ab, 4, "a"), 4)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "a"), ("y", "b"))


def test_length_based_fails_on_position_dependence(ab, first_letter):
    report = check_length_based(first_letter, 6)
    assert report.verdict == FAILS
    assert report.detail == "same length, different values"


# --------------------------------------------- relabeled preassociative form


def test_preassoc_length_based_modular(ab):
    mu = {n: "a" * (n % 3) for n in range(7)}
    relabel = {"": Token("e"), "a": Token("x"), "aa": Token("y")}
    fn = compose_preassoc_length_based(ab, 6, mu, relabel)
    assert fn.eval("ab") == Token("y")
    assert fn.eval("babab") == Token("y")
    assert fn.eval("b") == Token("x")
    assert check_preassociative(fn, 6).verdict == HOLDS


def test_preassoc_length_based_needs_injective_relabel(ab):
    mu = {n: "a" * (n % 3) for n in range(7)}
    with pytest.raises(PreconditionError):
        compose_preassoc_length_based(
            ab, 6, mu, {"": Token("e"), "a": Token("x"), "aa": Token("x")}
        )


@pytest.mark.parametrize("value, error", [
    ("c", AlphabetError), (5, MalformedSpecError), (None, MalformedSpecError),
])
def test_preassoc_length_based_checks_relabel_values(ab, value, error):
    with pytest.raises(error):
        compose_preassoc_length_based(ab, 4, {n: "" for n in range(5)}, {"": value})


def test_preassoc_length_based_rejects_invalid_profile(ab):
    mu = {n: "a" * (n + 1) for n in range(4)}
    relabel = {"a" * k: Token(k) for k in range(1, 5)}
    with pytest.raises(PreconditionError):
        compose_preassoc_length_based(ab, 3, mu, relabel)


def test_any_valid_profile_composes_associatively(ab):
    """Composing psi . alpha for a valid alpha always yields an associative
    function: checked for a few windows."""
    cases = [
        (0, 1, (0,)),
        (1, 1, (0, 2)),
        (2, 2, (0, 1, 4, 5)),
        (0, 3, (0, 1, 2)),
    ]
    for n1, ell, window in cases:
        alpha = synthesize_alpha(n1, ell, window)
        assert not isinstance(alpha, AlphaRejection)
        bound = n1 + 2 * ell + 2
        psi = psi_table({v: "a" * v for v in set(
            eval_alpha(alpha, n) for n in range(bound + 1))})
        fn = compose_length_based(ab, bound, alpha, psi)
        assert check_associative_full(fn, bound).ok, (n1, ell, window)


# ---------------------------------------------------------------------- sweep


def test_sweep_small_horizon():
    sweep = sweep_alpha_tables(3, 3)
    assert sweep.total == 256
    assert sweep.accepted == 8
    assert sweep.equations_hold == 8
    assert sweep.accepted + sweep.rejected + sweep.insufficient == sweep.total
    assert sweep.agree
    assert sweep.mismatches == []


def test_sweep_totals_at_horizon_five():
    sweep = sweep_alpha_tables(5, 5)
    assert (sweep.total, sweep.equations_hold, sweep.accepted, sweep.rejected,
            sweep.insufficient, sweep.mismatches) == (46656, 34, 34, 46012, 610, [])


def test_sweep_rejects_negative_arguments():
    with pytest.raises(ValueError, match="horizon"):
        sweep_alpha_tables(-1, 2)
    with pytest.raises(ValueError, match="max_value"):
        sweep_alpha_tables(2, -1)


def test_sweep_parallel_matches_serial():
    assert sweep_alpha_tables(3, 3, jobs=2) == sweep_alpha_tables(3, 3)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_counts_entries_above_the_horizon_as_insufficient(jobs):
    # With max_value > horizon, tables with an entry above the horizon
    # cannot be evaluated; they join the InsufficientHorizon ones.
    sweep = sweep_alpha_tables(2, 4, jobs=jobs)
    assert (sweep.total, sweep.equations_hold, sweep.accepted, sweep.rejected,
            sweep.insufficient, sweep.mismatches) == (125, 4, 4, 17, 104, [])


# --------------------------------------------------------------- bool entries


@pytest.mark.parametrize("call", [
    lambda: check_alpha_equations([False, True]),
    lambda: classify_alpha([False, True, 2]),
    lambda: synthesize_alpha(1, 1, (0, True)),
    lambda: minimal_period([0, 1, True, 1], [(1, 2)]),
])
def test_profile_entries_must_not_be_bools(call):
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        call()
