"""Pinned reports of the law checkers and the construction conditions.

Every report these checkers return (verdict, witness, ``checked``,
``skipped`` and detail) over a seeded corpus is hashed, so any change to
the counting rule of ``checkers._scan`` or to a checker's enumeration
order shows up as a changed digest.  The length-profile equations are
pinned the same way over a corpus of profile tables.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from helpers import random_string_table, random_token_table
from strfn import (
    FAILS,
    HOLDS,
    VACUOUS,
    Alphabet,
    StrfnError,
    Token,
    check_alpha_equations,
    check_associative_full,
    check_associative_reduced,
    check_bounded_retraction,
    check_determination,
    check_equivalent_definitions,
    check_idempotent,
    check_injective_rigidity,
    check_length_based,
    check_m_bounded,
    check_m_determined_range,
    check_preassociative,
    check_quasi_inverse_conditions,
    check_standard,
    check_weakly_length_based,
    constant_fn,
    decompose_length_based,
    enumerate_partial_specs,
    enumerate_strings,
    eval_alpha,
    extend,
    factorize,
    identity_fn,
    length_fn,
    length_of_fn,
    letter_remove_g_fn,
    ofo_fn,
    partial_spec,
    sort_fn,
    synthesize_alpha,
    table_fn,
    verify_conditions,
)

ALPHABETS = [Alphabet(tuple(s)) for s in ("a", "ab", "ba", "abc", "cab")]
BUILTINS = [
    ofo_fn, sort_fn, identity_fn, length_fn,
    lambda alphabet, level: length_of_fn(ofo_fn(alphabet, level)),
    lambda alphabet, level: letter_remove_g_fn(alphabet, level, alphabet.letters[-1]),
    lambda alphabet, level: constant_fn(alphabet, level, alphabet.letters[0]),
]


def outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except StrfnError as exc:
        return type(exc).__name__, str(exc)


def function_corpus(rng, count):
    """``count`` seeded functions in turn: random string and token tables
    over 1-3 letters, builtins, and builtins with one entry set to another's
    value."""
    for i in range(count):
        alphabet = rng.choice(ALPHABETS)
        level = rng.randint(1, {1: 6, 2: 4, 3: 3}[len(alphabet)])
        kind = i % 4
        if kind == 0:
            yield random_string_table(alphabet, level, rng, rng.randint(1, 2))
        elif kind == 1:
            pool = [Token(j) for j in range(rng.randint(2, 5))]
            yield random_token_table(alphabet, level, rng, pool)
        else:
            fn = rng.choice(BUILTINS)(alphabet, level)
            if kind == 3:
                entries = dict(fn.value_map())
                s, t = rng.sample(list(entries), 2)
                entries[s] = entries[t]
                fn = table_fn(alphabet, level, entries, codomain=fn.codomain)
            yield fn


def function_reports(fn, m):
    level = fn.bound
    return [
        outcome(lambda: check_standard(fn, level)),
        outcome(lambda: check_idempotent(fn, level)),
        outcome(lambda: check_m_bounded(fn, m, level)),
        outcome(lambda: check_m_determined_range(fn, m, level)),
        outcome(lambda: check_injective_rigidity(fn, level)),
        outcome(lambda: check_length_based(fn, level)),
        outcome(lambda: check_weakly_length_based(fn, level)),
        outcome(lambda: decompose_length_based(fn, level)),
        outcome(lambda: check_quasi_inverse_conditions(fn, m, level)),
        outcome(lambda: check_bounded_retraction(fn, m, level)),
    ]


def random_spec(rng):
    alphabet = rng.choice(ALPHABETS[:4])
    m = rng.randint(0, 2 if len(alphabet) < 3 else 1)
    outputs = list(enumerate_strings(alphabet, m))
    parts = [{s: rng.choice(outputs) for s in enumerate_strings(alphabet, k, min_len=k)}
             for k in range(m + 2)]
    return partial_spec(alphabet, m, parts)


def verdicts(outcomes):
    """(checker position, report name, verdict) for every report of the rows."""
    seen = set()
    for row in outcomes:
        for i, out in enumerate(row):
            reports = out.items() if isinstance(out, dict) else [(None, out)]
            seen.update((i, name, getattr(r, "verdict", None)) for name, r in reports)
    return seen


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def function_outcomes():
    rng = random.Random(8)
    return [function_reports(fn, rng.randint(0, fn.bound - 1))
            for fn in function_corpus(rng, 1200)]


def extension_outcomes(ab):
    """verify_conditions on every one-bounded spec over {a, b} and on random
    specs, then check_determination on pairs of grown extensions (associative
    and m-bounded by construction) and on a grown extension against a
    perturbed copy of itself."""
    specs = list(enumerate_partial_specs(ab, 1))
    rng = random.Random(9)
    specs += [random_spec(rng) for _ in range(600)]
    conditions = [verify_conditions(spec) for spec in specs]
    grown = [(spec, extend(spec, spec.m + rng.randint(2, 3)))
             for spec, c in zip(specs, conditions) if all(r.ok for r in c.values())]
    pairs = []
    for (spec, fn), (_, other) in itertools.islice(
            zip(grown, rng.sample(grown, len(grown))), 400):
        m = rng.choice([spec.m, spec.m + 1])
        if fn.alphabet == other.alphabet:
            level = min(fn.bound, other.bound)
            pairs.append(outcome(lambda: check_determination(fn, other, m, level)))
        entries = dict(fn.value_map())
        entries[rng.choice(list(entries))] = rng.choice(list(entries.values()))
        twin = table_fn(fn.alphabet, fn.bound, entries)
        pairs.append(outcome(lambda: check_determination(fn, twin, m, fn.bound)))
    return conditions, pairs


def associativity_reports(fn):
    level = fn.bound
    return [
        outcome(lambda: check_associative_full(fn, level)),
        outcome(lambda: check_associative_reduced(fn, level)),
        outcome(lambda: check_equivalent_definitions(fn, level)),
        outcome(lambda: check_preassociative(fn, level)),
        outcome(lambda: factorize(fn, level).checks),
    ]


def test_associativity_reports_are_pinned():
    rows = [associativity_reports(fn) for fn in function_corpus(random.Random(10), 1200)]
    seen = verdicts(rows)
    # Both verdicts of the full, reduced and (i) checks occur in the corpus.
    for i, name in [(0, None), (1, None), (2, "i"), (3, None)]:
        assert {(i, name, HOLDS), (i, name, FAILS)} <= seen
    assert digest(rows) == "30d1361a068ba3fd535cc8df5299145c1347c9acd56eb8cf12bb5bcf54fed418"


def test_pointwise_and_factorization_reports_are_pinned():
    outcomes = function_outcomes()
    seen = verdicts(outcomes)
    # Every converted loop both holds and fails somewhere in the corpus,
    # except h-bounded and retraction, which cannot fail once range holds.
    for i, name in [(0, None), (1, None), (2, None), (3, None), (4, None), (5, None),
                    (6, None), (8, "range"), (8, "b"), (8, "c"), (9, "range")]:
        assert {(i, name, HOLDS), (i, name, FAILS)} <= seen
    assert (9, "retraction", HOLDS) in seen
    assert digest(outcomes) == "6d51bcc46f2c749cd1c75a052044628940b5f55031d92fa66dd204d480e75e3f"


def test_extension_reports_are_pinned(ab):
    conditions, pairs = extension_outcomes(ab)
    assert len(conditions) == 2187 + 600
    for name in "abc":
        assert {c[name].verdict for c in conditions} == {HOLDS, FAILS}
    kinds = {getattr(p, "verdict", "error") for p in pairs}
    assert kinds == {HOLDS, VACUOUS, "error"}
    assert digest((conditions, pairs)) == "1b2cad4b04213bc5e1767ec714f168952555c1fa41fc7c6936d2903d7ebb7d59"


def alpha_tables():
    """Every table of horizon 3 with entries 0..4, random short tables, and
    synthesized profiles past their window, every other one with one entry
    copied over another."""
    rng = random.Random(13)
    tables = [list(t) for t in itertools.product(range(5), repeat=4)]
    for _ in range(1500):
        horizon = rng.randint(0, 9)
        tables.append([rng.randint(0, horizon) for _ in range(horizon + 1)])
    for i in range(400):
        n1, ell = rng.randint(0, 10), rng.randint(1, 6)
        window = [*range(n1), *(n + ell * rng.randint(0, 3) for n in range(n1, n1 + ell))]
        alpha = synthesize_alpha(n1, ell, window)
        values = [eval_alpha(alpha, n) for n in range(max(window) + rng.randint(1, 3 * ell) + 1)]
        if i % 2:
            j, k = rng.sample(range(len(values)), 2)
            values[j] = values[k]
        tables.append(values)
    return tables


def test_alpha_equation_reports_are_pinned():
    outcomes = [outcome(lambda: check_alpha_equations(t)) for t in alpha_tables()]
    kinds = {getattr(o, "verdict", None) or o[0] for o in outcomes}
    assert kinds == {HOLDS, FAILS, "UnevaluableError"}
    shift_failures = [o for o in outcomes if getattr(o, "witness", None)
                      and len(o.witness.bindings) == 3]
    assert len(shift_failures) >= 100
    assert digest(outcomes) == "a85464fc6551e87830e1fbab4980dfd05c01bd39532a98ff1f88542c293958e8"
