from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from helpers import (
    oracle_assoc_scan,
    oracle_associative,
    oracle_decompositions_agree,
    oracle_associative_reduced,
    oracle_equiv_scan,
    oracle_absorbed_string,
    oracle_first_failing_pair,
    oracle_preassoc_first_witness,
    oracle_preassoc_scan,
    oracle_preassociative,
    oracle_standard,
    random_string_table,
    random_token_table,
    transformation_table,
)
from strfn import (
    FAILS,
    HOLDS,
    VACUOUS,
    Alphabet,
    CheckReport,
    NotApplicableError,
    PreconditionError,
    Token,
    check_associative_full,
    check_associative_reduced,
    check_equivalent_definitions,
    check_idempotent,
    check_injective_rigidity,
    check_m_bounded,
    check_m_determined_range,
    check_preassociative,
    check_standard,
    constant_fn,
    enumerate_strings,
    find_absorbed_string,
    identity_fn,
    length_fn,
    length_of_fn,
    letter_remove_fn,
    letter_remove_g_fn,
    ofo_fn,
    separator_insert_fn,
    sort_fn,
    table_fn,
)
from strfn.checkers import (
    _assoc_by_congruence,
    _assoc_by_one_letter_splits,
    _assoc_scan,
    _is_congruence,
    _never_lengthens,
    _parting,
    _splits,
)
from strfn.factorization import factorize


def fixture_functions(ab3):
    """The standard set of string-valued examples over {a, b, |}."""
    return {
        "identity": identity_fn(ab3, 5),
        "sort": sort_fn(ab3, 5),
        "ofo": ofo_fn(ab3, 5),
        "remove-a": letter_remove_fn(ab3, 5, "a"),
        "remove-a-marked": letter_remove_g_fn(ab3, 5, "a"),
        "separator": separator_insert_fn(ab3, 5, "|"),
    }


# ---------------------------------------------------------------- associativity


def test_associative_fixtures_hold(ab3):
    for name, fn in fixture_functions(ab3).items():
        report = check_associative_full(fn, 5)
        assert report.verdict == HOLDS, name
        assert report.ok


def test_ofo_associative_no_skips(ab3):
    report = check_associative_full(ofo_fn(ab3, 5), 5)
    assert report.verdict == HOLDS
    assert report.skipped == 0
    assert report.checked > 0


def test_bit_flip_not_associative(bit_flip):
    report = check_associative_full(bit_flip, 5)
    assert report.verdict == FAILS
    w = report.witness
    x, y, z = w.binding("x"), w.binding("y"), w.binding("z")
    lhs = bit_flip.eval(x + y + z)
    rhs = bit_flip.eval(x + bit_flip.eval(y) + z)
    assert lhs == w.lhs and rhs == w.rhs and lhs != rhs


def test_associativity_matches_oracle_on_fixtures(ab3):
    for name, fn in fixture_functions(ab3).items():
        ok, skipped = oracle_associative(fn, 4)
        report = check_associative_full(fn, 4)
        assert report.ok == ok, name
        assert report.skipped == skipped, name


def test_associativity_matches_oracle_on_random_tables(ab):
    # the checker stops at the first counterexample, so skip counts are
    # only comparable on a full scan
    rng = random.Random(9001)
    for _ in range(30):
        fn = random_string_table(ab, 4, rng)
        ok, skipped = oracle_associative(fn, 4)
        report = check_associative_full(fn, 4)
        assert report.ok == ok
        if ok:
            assert report.skipped == skipped
        ok_r, skipped_r = oracle_associative_reduced(fn, 4)
        report_r = check_associative_reduced(fn, 4)
        assert report_r.ok == ok_r
        if ok_r:
            assert report_r.skipped == skipped_r


def test_constant_skip_counting(ab):
    # F == "ab" everywhere: splitting can overflow the bound by one letter.
    fn = constant_fn(ab, 3, "ab")
    ok, skipped = oracle_associative(fn, 3)
    report = check_associative_full(fn, 3)
    assert ok and report.verdict == HOLDS
    assert skipped > 0
    assert report.skipped == skipped
    assert report.incomplete


def test_reduced_check_catches_unary_patch(ab):
    """Identity on single letters, constant 'a' elsewhere: fails immediately."""
    entries = {}
    for s in enumerate_strings(ab, 3):
        entries[s] = s if len(s) == 1 else "a"
    fn = table_fn(ab, 3, entries)
    report = check_associative_reduced(fn, 3)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", ""), ("y", ""), ("z", "b"))
    assert report.witness.lhs == "b"
    assert report.witness.rhs == "a"
    assert report.checked == 5
    assert report.skipped == 0


def test_associative_requires_string_values(ab):
    with pytest.raises(PreconditionError):
        check_associative_full(length_fn(ab, 3), 3)


def test_level_cannot_exceed_bound(ab):
    from strfn import OutOfDomainError

    with pytest.raises(OutOfDomainError):
        check_associative_full(identity_fn(ab, 3), 4)


def late_failing_ofo(alphabet, bound, string):
    """ofo with the entry of one late string changed to its first letter."""
    entries = dict(ofo_fn(alphabet, bound).value_map(bound))
    entries[string] = string[0]
    return table_fn(alphabet, bound, entries)


def test_late_failures_and_seeded_tables(ab, ab3):
    assert check_associative_full(ofo_fn(ab3, 5), 5).verdict == HOLDS
    flip = sort_fn(ab3, 5, order=("|", "b", "a"))
    assert check_associative_full(flip, 5).verdict == HOLDS
    late = late_failing_ofo(ab, 5, "abaab")
    for check in (check_associative_full, check_associative_reduced):
        report = check(late, 5)
        assert report.verdict == FAILS
        assert report.witness.lhs != report.witness.rhs
    assert check_associative_full(late, 5).checked == 544

    rng = random.Random(6)
    strings = list(enumerate_strings(ab, 4))
    for _ in range(8):
        fn = late_failing_ofo(ab, 4, rng.choice(strings[len(strings) // 2:]))
        assert check_associative_full(fn, 4).verdict == FAILS
        assert check_associative_reduced(fn, 4).verdict == FAILS
        fn = random_string_table(ab, 4, rng, out_max=2)
        assert check_associative_full(fn, 4).ok == oracle_associative(fn, 4)[0]


# -------------------------------------------------------------- preassociativity


def test_length_is_preassociative(ab):
    report = check_preassociative(length_fn(ab, 5), 5)
    assert report.verdict == HOLDS
    assert report.skipped == 0


def test_length_of_marked_removal_not_preassociative(ab3):
    fn = length_of_fn(letter_remove_g_fn(ab3, 5, "a"))
    report = check_preassociative(fn, 5)
    assert report.verdict == FAILS
    assert report.witness.bindings == (
        ("y", ""), ("y2", "b"), ("x", ""), ("z", "b"),
    )
    assert report.witness.lhs == Token(1)
    assert report.witness.rhs == Token(2)


def test_length_of_ofo_not_preassociative(ab3):
    fn = length_of_fn(ofo_fn(ab3, 5))
    report = check_preassociative(fn, 5)
    assert report.verdict == FAILS
    assert report.witness.bindings == (
        ("y", "a"), ("y2", "b"), ("x", "a"), ("z", ""),
    )
    assert report.witness.lhs == Token(1)
    assert report.witness.rhs == Token(2)


def test_preassociativity_fixtures(ab3):
    # every associative string function is preassociative
    for name, fn in fixture_functions(ab3).items():
        assert check_preassociative(fn, 5).ok, name


def test_preassociativity_matches_oracle(ab):
    rng = random.Random(4242)
    for _ in range(20):
        fn = random_string_table(ab, 3, rng)
        ok, skipped = oracle_preassociative(fn, 3)
        report = check_preassociative(fn, 3)
        assert report.ok == ok
        assert (report.skipped > 0) == (skipped > 0)


def test_preassociative_witness_reevaluates(ab):
    rng = random.Random(77)
    seen = 0
    while seen < 5:
        fn = random_string_table(ab, 3, rng)
        report = check_preassociative(fn, 3)
        if report.verdict != FAILS:
            continue
        seen += 1
        w = report.witness
        y, y2 = w.binding("y"), w.binding("y2")
        x, z = w.binding("x"), w.binding("z")
        assert fn.eval(y) == fn.eval(y2)
        assert fn.eval(x + y + z) == w.lhs
        assert fn.eval(x + y2 + z) == w.rhs
        assert w.lhs != w.rhs


def preassoc_corpus(rng):
    """Seeded tables of four kinds, in turn, without end.

    Random string and token tables over 1-3 letters; builtins with one
    entry set to another's value; and injective token tables over two
    letters in which two strings of length L - 1 share a token, whose
    witnesses need contexts of one letter, as in the benchmark's input.
    """
    alphabets = [Alphabet(tuple(s)) for s in ("a", "ab", "ba", "abc", "cab")]
    builtins = [ofo_fn, sort_fn, identity_fn, length_fn,
                lambda alphabet, level: length_of_fn(ofo_fn(alphabet, level))]
    while True:
        alphabet = rng.choice(alphabets)
        level = rng.randint(1, {1: 6, 2: 4, 3: 3}[len(alphabet)])
        yield "string", random_string_table(alphabet, level, rng, rng.randint(1, 2))
        pool = [Token(i) for i in range(rng.randint(2, 5))]
        yield "token", random_token_table(alphabet, level, rng, pool)
        fn = rng.choice(builtins)(alphabet, level)
        entries = dict(fn.value_map())
        s, t = rng.sample(list(entries), 2)
        entries[s] = entries[t]
        yield "perturbed", table_fn(alphabet, level, entries, codomain=fn.codomain)
        alphabet = rng.choice(alphabets[1:3])
        level = rng.randint(2, 4)
        token = {s: Token(i) for i, s in enumerate(enumerate_strings(alphabet, level))}
        u, v = rng.sample(list(enumerate_strings(alphabet, level - 1, level - 1)), 2)
        token[v] = token[u]
        yield "merged", table_fn(alphabet, level, token, codomain="token")


def test_preassociative_witness_matches_the_oracle():
    # The witness is the oracle's; the counters come from the class-pair
    # scan, and their digest pins them, since the witness search must
    # leave them alone.
    rng = random.Random(2024)
    failing = Counter()
    counters = []
    for kind, fn in preassoc_corpus(rng):
        if min(failing[k] for k in ("string", "token", "perturbed", "merged")) >= 80:
            break
        if failing[kind] >= 80:
            continue
        report = check_preassociative(fn, fn.bound)
        if report.verdict != FAILS:
            continue
        failing[kind] += 1
        witness = oracle_preassoc_first_witness(fn.alphabet, fn.value_map(), fn.bound)
        assert report == CheckReport(FAILS, witness, report.checked, report.skipped)
        counters.append((report.checked, report.skipped))
    digest = hashlib.sha256(repr(counters).encode()).hexdigest()
    assert digest == "4d6a9ca5ddb58ced3c6d327954490149187ecc4e3220a4f119bfa973dde32a5b"


def test_leader_pairs_match_the_pair_scan_and_the_definition():
    # check_preassociative against the quadratic pair scan, report for
    # report, and find_absorbed_string against its definition, over every
    # kind of the corpus.  A merged table always fails, at a one-letter
    # context of its merged pair, and leaves the empty string alone in
    # its class, so only its failing and not-applicable outcomes occur.
    rng = random.Random(2027)
    seen = Counter()
    for kind, fn in itertools.islice(preassoc_corpus(rng), 4000):
        level = fn.bound
        report = check_preassociative(fn, level)
        assert report == oracle_preassoc_scan(fn.domain(level)), kind
        seen[kind, report.verdict] += 1
        try:
            absorbed = find_absorbed_string(fn, level)
        except NotApplicableError:
            with pytest.raises(NotApplicableError):
                oracle_absorbed_string(fn, level)
            seen[kind, "not applicable"] += 1
            continue
        assert absorbed == oracle_absorbed_string(fn, level), kind
        seen[kind, "none" if absorbed is None else "found"] += 1
    for kind in ("string", "token", "perturbed"):
        for outcome in (HOLDS, FAILS, "found"):
            assert seen[kind, outcome] >= 100, (kind, outcome)
        assert seen[kind, "none"] >= 25, kind
    assert seen["merged", FAILS] == seen["merged", "not applicable"] == 1000


def test_preassociative_witness_breaks_ties_by_split(ab):
    # Injective but for b ~ aaa and aa ~ ab.  Both pairs first fail at
    # w = aaaab with x = a; the class of b is met first, but y = aa is the
    # earlier split.
    token = {s: Token(s) for s in enumerate_strings(ab, 4)}
    token["aaa"], token["ab"] = token["b"], token["aa"]
    fn = table_fn(ab, 4, token, codomain="token")
    report = check_preassociative(fn, 4)
    assert report.witness.bindings == (("y", "aa"), ("y2", "ab"), ("x", "a"), ("z", ""))
    assert report.witness == oracle_preassoc_first_witness(ab, fn.value_map(), 4)


def test_a_failing_preassociativity_check_searches_only_what_can_reach_n_star(
        ab, monkeypatch):
    # length_of(ofo) at L=8 first fails at n* = 3, at (y, y2) = (a, b) in
    # the context (a, empty), once b has parted from its leader a.  After
    # that only a y with |y| + |m| <= n* is searched, with the budget
    # n* - |y| - |m|: aa and bb, of the same class.  The walk reads no
    # other non-leader of the 508.
    calls = []

    def counting(dom, y, lead, budget):
        calls.append((y, lead, budget))
        return _parting(dom, y, lead, budget)

    monkeypatch.setattr("strfn.checkers._parting", counting)
    fn = length_of_fn(ofo_fn(ab, 8))
    report = check_preassociative(fn, 8)
    assert report.witness.bindings == (("y", "a"), ("y2", "b"), ("x", "a"), ("z", ""))
    assert calls == [("b", "a", 7), ("aa", "a", 0), ("bb", "a", 0)]
    assert sum(len(members) - 1 for members in fn.domain(8).classes.values()) == 508


def test_preassociative_counts_skips(ab):
    # constant function: every pair of strings is a kernel pair, so long
    # partners get skipped at the boundary.
    fn = constant_fn(ab, 3, "a")
    report = check_preassociative(fn, 3)
    assert report.verdict == HOLDS
    assert report.skipped > 0
    assert report.incomplete


def test_injective_function_preassociative_vacuously(bit_flip):
    report = check_preassociative(bit_flip, 5)
    assert report.ok
    assert report.verdict in (HOLDS, VACUOUS)


# ------------------------------------------------------------------- standard


def test_standard_fixtures(ab3):
    assert check_standard(ofo_fn(ab3, 5), 5).verdict == HOLDS
    assert check_standard(identity_fn(ab3, 5), 5).verdict == HOLDS

    report = check_standard(letter_remove_fn(ab3, 5, "a"), 5)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "a"),)

    report = check_standard(letter_remove_g_fn(ab3, 5, "a"), 5)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "a"),)


def test_standard_matches_oracle(ab):
    rng = random.Random(31337)
    for _ in range(20):
        fn = random_string_table(ab, 3, rng)
        assert check_standard(fn, 3).ok == oracle_standard(fn, 3)


# ----------------------------------------------------------------- idempotence


def test_idempotent_fixtures(ab3, bit_flip):
    assert check_idempotent(sort_fn(ab3, 5), 5).verdict == HOLDS
    assert check_idempotent(ofo_fn(ab3, 5), 5).verdict == HOLDS
    report = check_idempotent(bit_flip, 5)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "0"),)
    assert bit_flip.eval(bit_flip.eval("0")) != bit_flip.eval("0")


def test_idempotent_skips_grown_outputs(ab3):
    # |F(x)| may exceed the bound, making F(F(x)) unevaluable.
    fn = separator_insert_fn(ab3, 3, "|")
    report = check_idempotent(fn, 3)
    assert report.skipped > 0


# ----------------------------------------------------- boundedness and range


def test_m_bounded(ab):
    assert check_m_bounded(constant_fn(ab, 4, ""), 0, 4).verdict == HOLDS
    # output size only makes sense for string values
    with pytest.raises(PreconditionError):
        check_m_bounded(length_fn(ab, 4), 0, 4)

    report = check_m_bounded(identity_fn(ab, 4), 1, 4)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "aa"),)

    report = check_m_bounded(letter_remove_fn(ab, 4, "a"), 1, 4)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "bb"),)


def test_first_letter_is_one_bounded(first_letter):
    assert check_m_bounded(first_letter, 1, 6).verdict == HOLDS


def test_m_determined_range(ab, first_letter):
    report = check_m_determined_range(length_fn(ab, 4), 1, 4)
    assert report.verdict == FAILS
    assert report.witness.bindings == (("x", "aa"),)
    assert report.witness.lhs == Token(2)

    assert check_m_determined_range(first_letter, 1, 6).verdict == HOLDS
    assert check_m_determined_range(constant_fn(ab, 4, Token("k")), 0, 4).verdict == HOLDS


# ------------------------------------------------------ equivalent definitions


def test_equivalent_definitions_all_hold_for_ofo(ab3):
    reports = check_equivalent_definitions(ofo_fn(ab3, 4), 4)
    assert set(reports) == {"i", "ii", "iii", "iv"}
    assert all(r.ok for r in reports.values())
    assert all(r.verdict == HOLDS for r in reports.values())


def test_equivalent_definitions_all_hold_for_identity(ab):
    reports = check_equivalent_definitions(identity_fn(ab, 4), 4)
    assert all(r.verdict == HOLDS for r in reports.values())


def test_equivalent_definitions_all_fail_together(bit_flip):
    reports = check_equivalent_definitions(bit_flip, 4)
    assert all(r.verdict == FAILS for r in reports.values())


def test_definition_ii_matches_the_oracle(ab):
    rng = random.Random(11)
    seen = set()
    for case in range(60):
        level = 3 + case % 3
        strings = list(enumerate_strings(ab, level))
        kind = case % 3
        if kind == 0:
            entries = {s: rng.choice(strings[:7]) for s in strings}
        elif kind == 1:
            entries = dict(ofo_fn(ab, level).value_map(level))
        else:
            # A two-letter constant lengthens every letter, so instances
            # near the bound are skipped, and it is associative.
            entries = dict.fromkeys(strings, rng.choice(strings[3:7]))
        if kind and rng.random() < 0.7:
            entries[rng.choice(strings[-8:])] = rng.choice(strings[1:7])
        entries[""] = ""
        fn = table_fn(ab, level, entries)
        report = check_equivalent_definitions(fn, level)["ii"]
        assert report == oracle_decompositions_agree(fn, level)
        seen.add((report.verdict, report.incomplete))
    assert seen == {(v, skips) for v in (HOLDS, FAILS) for skips in (False, True)}


def decider_corpus(rng):
    """Seeded tables of four kinds, in turn, without end.

    Random string and token tables over 1-3 letters (a string table fixes
    the empty string half the time); transformation tables, string- and
    token-valued, which hold and take the deciders; builtins and
    transformation tables with one entry set to another's value;
    lengthening functions whose laws hold with bounded skips and are
    decided: ``separator_insert`` and two-letter constants; tables
    that send every string shorter than L to one string of L + 1 letters
    and fix X^L, whose associativity holds with skips but whose kernel is
    no congruence, so they are scanned; and late failures that never
    lengthen: ``ofo``, ``sort`` in reverse letter order and transformation
    tables built in reverse letter order, with one string among the last
    half of X^L sent to a shorter string.  Reversed, a length-preserving
    value can be greater than its preimage, so the first failing string
    need not be the first to fail a one-letter split.
    """
    alphabets = [Alphabet(tuple(s)) for s in ("a", "ab", "ba", "abc", "cab")]
    builtins = [ofo_fn, sort_fn, identity_fn,
                lambda alphabet, level: letter_remove_fn(alphabet, level, alphabet.letters[0]),
                lambda alphabet, level: letter_remove_g_fn(alphabet, level, alphabet.letters[0])]
    ab3 = Alphabet(("a", "b", "|"))
    while True:
        alphabet = rng.choice(alphabets)
        level = rng.randint(0, {1: 6, 2: 4, 3: 3}[len(alphabet)])
        fn = random_string_table(alphabet, level, rng, rng.randint(1, 2))
        if rng.random() < 0.5:
            entries = dict(fn.value_map())
            entries[""] = ""
            fn = table_fn(alphabet, level, entries)
        yield "random", fn
        pool = [Token(i) for i in range(rng.randint(1, 4))]
        yield "random", random_token_table(alphabet, level, rng, pool)
        points = rng.randint(1, 3)
        yield "transformation", transformation_table(alphabet, level, rng, points)
        yield "transformation", transformation_table(alphabet, level, rng, points, token=True)
        if rng.random() < 0.5:
            fn = rng.choice(builtins)(alphabet, level)
        else:
            fn = transformation_table(alphabet, level, rng, rng.randint(2, 3))
        entries = dict(fn.value_map())
        if len(entries) > 1:
            s, t = rng.sample(list(entries), 2)
            entries[s] = entries[t]
        yield "perturbed", table_fn(alphabet, level, entries)
        if rng.random() < 0.5:
            yield "lengthening", separator_insert_fn(ab3, rng.randint(0, 4), "|")
        else:
            value = "".join(rng.choices(alphabet.letters, k=2))
            yield "lengthening", constant_fn(alphabet, level, value)
        level = rng.randint(2, 4)
        long = "".join(rng.choices(alphabet.letters, k=level + 1))
        yield "undecided", table_fn(alphabet, level,
                                    lambda s: s if len(s) == level else long)
        reverse = alphabet.letters[::-1]
        fn = rng.choice([
            lambda: ofo_fn(alphabet, level),
            lambda: sort_fn(alphabet, level, reverse),
            lambda: transformation_table(Alphabet(reverse), level, rng, rng.randint(2, 3)),
        ])()
        entries = dict(fn.value_map())
        top = list(entries)[-len(alphabet) ** level:]
        entries[rng.choice(top[len(top) // 2:])] = rng.choice(list(entries)[:-len(top)])
        yield "late", table_fn(alphabet, level, entries)


def test_deciders_match_the_scans():
    # Each decided report must equal the one the scan it replaces gives,
    # and each shape of input must take its one decider: whole reports
    # (verdict, witness, counters, detail) over full, reduced, equivalent
    # definitions and preassociativity, counted by the path that ran.
    rng = random.Random(2026)
    seen = Counter()
    for kind, fn in itertools.islice(decider_corpus(rng), 2500):
        level, dom = fn.bound, fn.domain(fn.bound)
        report = check_preassociative(fn, level)
        assert report == oracle_preassoc_scan(dom), kind
        seen["preassoc", _is_congruence(dom), report.verdict, report.incomplete] += 1
        if report.verdict == FAILS:
            # The failing counters add the classes before the failing one
            # and the pairs (m_0, m_p) up to the parting member m_q.
            k, p, q = oracle_first_failing_pair(dom)
            assert p == 0, kind
            classes = list(dom.classes.values())
            seen["preassoc fails after a class with pairs"] += any(
                len(members) > 1 for members in classes[:k])
            seen["preassoc fails at q >= 2"] += q >= 2
        if not fn.string_valued:
            continue
        shrinks = _never_lengthens(dom.vals)
        path = ("one-letter" if shrinks
                else "congruence" if _assoc_by_congruence(dom, level) is not None
                else "scan")
        strings = {}
        for cap, check in ((level, check_associative_full), (1, check_associative_reduced)):
            report = check(fn, level)
            assert report == oracle_assoc_scan(dom, cap)[0], kind
            seen[check.__name__, path, report.verdict, report.incomplete] += 1
            if report.witness is not None:
                strings[check] = "".join(v for _, v in report.witness.bindings)
        # With no skips, the reduced witness is the first string to fail a
        # one-letter split; a full witness before it came from another
        # failing string.
        if shrinks and strings and (strings[check_associative_full]
                                    != strings[check_associative_reduced]):
            seen["witness before the first one-letter failure"] += 1
        if dom.vals[""] == "":
            reports = check_equivalent_definitions(fn, level)
            assert reports == oracle_equiv_scan(dom), kind
            seen["equiv", path, reports["i"].verdict] += 1
    assert seen["preassoc", True, HOLDS, True] >= 100
    assert seen["preassoc", False, FAILS, True] >= 100
    assert seen["preassoc fails after a class with pairs"] >= 100
    assert seen["preassoc fails at q >= 2"] >= 10
    for name in ("check_associative_full", "check_associative_reduced"):
        assert seen[name, "one-letter", HOLDS, False] >= 100
        assert seen[name, "one-letter", FAILS, False] >= 100
        assert seen[name, "congruence", HOLDS, True] >= 100
        assert seen[name, "scan", HOLDS, True] >= 100
        assert seen[name, "scan", FAILS, False] >= 100
    assert seen["witness before the first one-letter failure"] >= 10
    assert seen["equiv", "one-letter", HOLDS] >= 100
    assert seen["equiv", "one-letter", FAILS] >= 100


def test_the_splits_within_a_cap_follow_their_definition():
    # splits[t] is every (i, j), 0 <= i <= j <= t, with i + (t - j) <= cap,
    # by i and then by j.  The identity over one letter holds with one
    # string per length, so each length adds the one-letter pass's count
    # per string to ``checked``.
    a = Alphabet(("a",))
    for n in range(8):
        for cap in range(n + 2):
            splits = _splits(n, cap)
            assert splits == [[(i, j) for i in range(t + 1) for j in range(i, t + 1)
                               if i + (t - j) <= cap] for t in range(n + 1)], (n, cap)
            checked = [_assoc_by_one_letter_splits(identity_fn(a, t).domain(t), cap).checked
                       for t in range(n + 1)]
            assert checked[n] - (checked[n - 1] if n else 0) == len(splits[n]), (n, cap)


def test_holding_inputs_take_the_deciders(ab, ab3, monkeypatch):
    # A silent fallback to a scan would raise here.
    def no_scan(*args):
        raise AssertionError("a decided input was scanned")

    monkeypatch.setattr("strfn.checkers._assoc_scan", no_scan)
    monkeypatch.setattr("strfn.checkers._parting", no_scan)
    ofo = ofo_fn(ab3, 5)
    assert check_associative_full(ofo, 5).verdict == HOLDS
    assert check_associative_reduced(ofo, 5).verdict == HOLDS
    for fn in (separator_insert_fn(ab3, 6, "|"), constant_fn(ab, 5, "ab")):
        report = check_associative_full(fn, fn.bound)
        assert report.verdict == HOLDS and report.incomplete
        assert check_associative_reduced(fn, fn.bound).verdict == HOLDS
    reports = check_equivalent_definitions(ofo_fn(ab, 6), 6)
    assert {r.verdict for r in reports.values()} == {HOLDS}
    assert check_preassociative(length_fn(ab, 7), 7).verdict == HOLDS
    report = check_preassociative(letter_remove_g_fn(ab, 7, "a"), 7)
    assert report.verdict == HOLDS and report.incomplete
    checks = factorize(letter_remove_g_fn(ab, 6, "b"), 6).checks
    assert checks["inner-associative"].verdict == HOLDS
    assert factorize(length_fn(ab, 6), 6).clean

    # A failing function that never lengthens: only the witness string is
    # scanned, by the full and reduced checks and by (i) and (ii) of the
    # equivalent definitions.
    def witness_only(strings, *args):
        if len(strings) != 1:
            raise AssertionError("a failing input that never lengthens was scanned")
        return _assoc_scan(strings, *args)

    monkeypatch.setattr("strfn.checkers._assoc_scan", witness_only)
    ofo = dict(ofo_fn(ab, 9).value_map())
    ofo["bbbbbbbba"] = "b"
    transformation = dict(transformation_table(ab3, 5, random.Random(3), 3).value_map())
    transformation["||||a"] = "a"
    reversed_sort = dict(sort_fn(ab, 6, ("b", "a")).value_map())
    reversed_sort["bbbabb"] = "a"
    for alphabet, level, entries, failing, first in (
            (ab, 9, ofo, "bbbbbbbba", "bbbbbbbba"),
            (ab3, 5, transformation, "||||a", "||||a"),
            (ab, 6, reversed_sort, "abbbbb", "bbbabb")):
        fn = table_fn(alphabet, level, entries)
        dom = fn.domain(level)
        for cap, check, string in ((level, check_associative_full, failing),
                                   (1, check_associative_reduced, first)):
            report = check(fn, level)
            assert report == oracle_assoc_scan(dom, cap)[0]
            assert "".join(v for _, v in report.witness.bindings) == string
        assert check_equivalent_definitions(fn, level) == oracle_equiv_scan(dom)
    # "abbbbb" fails no one-letter split: F(abbb) = bbba puts it on the
    # string "bbbabb", which does.
    report = check_associative_full(fn, level)
    assert report.witness.bindings == (("x", ""), ("y", "abbb"), ("z", "bb"))
    assert report.checked == 1896

    # A late failure: b^10 a, the next to last string of X^11, sent to b.
    ofo = dict(ofo_fn(ab, 11).value_map())
    ofo["bbbbbbbbbba"] = "b"
    reports = check_equivalent_definitions(table_fn(ab, 11, ofo), 11)
    assert {r.verdict for r in reports.values()} == {FAILS}
    assert [reports[k].checked for k in ("i", "ii", "iii", "iv")] == [
        274278, 270184, 274278, 45035]
    assert reports["i"].witness.bindings == (("x", ""), ("y", "bb"), ("z", "bbbbbbbba"))


def test_equivalent_definitions_need_empty_fixed(ab):
    # the equivalence is only stated for F(empty) = empty
    fn = letter_remove_g_fn(ab, 4, "a")
    with pytest.raises(PreconditionError):
        check_equivalent_definitions(fn, 4)


# -------------------------------------------------------------------- rigidity


def test_rigidity_of_identity(ab):
    report = check_injective_rigidity(identity_fn(ab, 4), 4)
    assert report.verdict == HOLDS
    assert report.checked == 31  # 2^0 + ... + 2^4


def test_rigidity_vacuous_for_sort(ab):
    report = check_injective_rigidity(sort_fn(ab, 4), 4)
    assert report.verdict == VACUOUS
    assert report.ok
    assert report.witness.bindings == (("x", "ab"), ("y", "ba"))
    assert "injective" in report.detail


def test_rigidity_vacuous_for_bit_flip(bit_flip):
    # injective but not idempotent: the claim does not apply
    report = check_injective_rigidity(bit_flip, 5)
    assert report.verdict == VACUOUS


def test_no_injective_idempotent_function_other_than_identity(ab):
    """Exhaustive search at bound 2: every injective idempotent table is the identity.

    An injective map from the 7 strings of length <= 2 into themselves is a
    bijection, and an idempotent bijection fixes everything.
    """
    strings = list(enumerate_strings(ab, 2))
    found = []
    for image in itertools.permutations(strings):
        table = dict(zip(strings, image))
        if all(table[table[s] if len(table[s]) <= 2 else s] == table[s]
               for s in strings):
            found.append(table)
    assert len(found) == 1
    assert found[0] == {s: s for s in strings}


# ------------------------------------------------------------ absorbed strings


def test_absorbed_string_for_removal(ab):
    assert find_absorbed_string(letter_remove_fn(ab, 4, "a"), 4) == "a"


def test_absorbed_string_for_length_composite(ab):
    fn = length_of_fn(letter_remove_fn(ab, 4, "a"))
    assert find_absorbed_string(fn, 4) == "a"


def test_absorbed_string_not_applicable_when_standard(ab):
    with pytest.raises(NotApplicableError):
        find_absorbed_string(ofo_fn(ab, 4), 4)


def test_absorbed_string_candidate_can_fail_verification(ab):
    # 'a' shares its value with the empty string but is not absorbed:
    # F("aa") = "b" differs from F("a") = "a".
    fn = table_fn(ab, 2, {"": "a", "a": "a", "b": "b",
                          "aa": "b", "ab": "b", "ba": "b", "bb": "b"})
    assert find_absorbed_string(fn, 2) is None


# ------------------------------------------------------------ cross invariants


def test_associative_iff_preassociative_and_idempotent(ab3, bit_flip):
    """For string functions the two-property split is exact (when no
    instance was skipped)."""
    candidates = list(fixture_functions(ab3).items()) + [("bit-flip", bit_flip)]
    rng = random.Random(555)
    for i in range(20):
        fn = random_string_table(ab3, 3, rng)
        if fn.eval("") == "":
            candidates.append((f"random-{i}", fn))
    for name, fn in candidates:
        level = min(fn.bound, 4)
        assoc = check_associative_full(fn, level)
        pre = check_preassociative(fn, level)
        idem = check_idempotent(fn, level)
        if assoc.skipped or pre.skipped or idem.skipped:
            continue
        assert assoc.ok == (pre.ok and idem.ok), name


def test_associative_standard_functions_fix_empty(ab3):
    for name, fn in fixture_functions(ab3).items():
        if check_associative_full(fn, 5).ok and check_standard(fn, 5).ok:
            assert fn.eval("") == "", name
