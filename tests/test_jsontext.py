"""The report writer against its oracle, ``json.dumps(obj, indent=2)``.

Every tree goes through both ``to_text`` and ``write_to_json`` into two
files, and each must give the oracle's bytes and a newline.
"""
from __future__ import annotations

import enum
import json
import random
from itertools import islice

import pytest

from strfn import (
    BoundedFn,
    ConditionsFailedError,
    TableDef,
    Token,
    ThetaSpec,
    check_alpha_equations,
    check_equivalent_definitions,
    check_preassociative,
    classify_alpha,
    enumerate_strings,
    extend,
    factorize,
    length_fn,
    length_of_fn,
    letter_remove_g_fn,
    ofo_fn,
    partial_spec,
    preceq,
    table_fn,
    theta_class,
    theta_rep_fn,
)
from strfn.jsontext import ROWS
from strfn.specio import (
    alpha_to_json,
    factorization_to_json,
    function_to_json,
    report_to_json,
    reports_to_json,
    theta_class_to_json,
    to_text,
    write_to_json,
)


def _assert_oracle_bytes(obj, tmp_path):
    expected = json.dumps(obj, indent=2) + "\n"
    paths = tmp_path / "first.json", tmp_path / "second.json"
    with open(paths[0], "w") as first, open(paths[1], "w") as second:
        write_to_json(obj, first, second)
    for text in (to_text(obj), paths[0].read_text(), paths[1].read_text()):
        if text != expected:
            # Report the first line that differs: pytest's own diff of two
            # texts of a few hundred KB can run for minutes.
            got, want = text.splitlines(), expected.splitlines()
            line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                        min(len(got), len(want)))
            pytest.fail(f"line {line + 1}: got {got[line:line + 3]!r}, "
                        f"expected {want[line:line + 3]!r}")


class _Str(str):
    pass


class _Int(enum.IntEnum):
    ONE = 1


_STRINGS = ["", "a", "ab|", "é", "日本", '"\\/', "\n\t\x00\x1f", "\ud800", _Str("sub")]
_SCALARS = [
    lambda r: r.choice(_STRINGS),
    lambda r: r.randint(-5, 5),
    lambda r: r.randint(-10**40, 10**40),
    lambda r: r.choice([True, False, None, _Int.ONE]),
    lambda r: r.choice([0.5, -0.0, 1e300, 3.0, float("nan"), float("inf"), float("-inf")]),
]
_KEYS = ["k", "é", "", _Str("q"), 1, -7, 2.5, float("nan"), True, False, None, _Int.ONE]


def _scalar(r):
    return r.choice(_SCALARS)(r)


def _long_array(r):
    """More than ROWS items: [str, str] rows, token rows and scalars mixed."""
    n = r.choice([ROWS + 1, 2 * ROWS, 2 * ROWS + 3])
    plain = _STRINGS[:-1]  # exact str, as the pair path needs
    shape = r.choice(["pairs", "strings", "mixed"])
    if shape == "strings":
        rows = [r.choice(plain) * r.randint(0, 2) for _ in range(n)]
    elif shape == "pairs":
        rows = [[r.choice(plain), r.choice(plain)] for _ in range(n)]
    else:
        rows = [[r.choice(_STRINGS), r.choice(_STRINGS)] if pick < 0.6
                else [str(i), {"token": i}] if pick < 0.8 else _scalar(r)
                for i, pick in enumerate(r.random() for _ in range(n))]
    if r.random() < 0.5:  # one odd item sends its batch down the general path
        rows[r.randrange(n)] = _tree(r, 3)
    return rows


def _tree(r, depth=0):
    pick = r.random()
    if depth > 3 or pick < 0.35:
        return _scalar(r)
    if pick < 0.5:
        return [_tree(r, depth + 1) for _ in range(r.randint(0, 4))]
    if pick < 0.57:
        return tuple(_tree(r, depth + 1) for _ in range(r.randint(0, 3)))
    if pick < 0.85:
        return {(r.choice(_KEYS) if r.random() < 0.4 else f"k{i}"): _tree(r, depth + 1)
                for i in range(r.randint(0, 4))}
    return _long_array(r)


@pytest.mark.parametrize("seed", range(10))
def test_random_trees_match_the_oracle(tmp_path, seed):
    rng = random.Random(seed)
    for _ in range(30):
        _assert_oracle_bytes(_tree(rng), tmp_path)


def _cli_shapes(ab, ab3, first_letter_spec):
    """One object of each shape a CLI command writes."""
    tokens = table_fn(ab, 10, {s: Token(s.count("a")) for s in enumerate_strings(ab, 10)},
                      codomain="token")
    rep = theta_rep_fn(ab, 6, ThetaSpec("a", "b", 2))
    cmp = preceq(ofo_fn(ab, 6), length_of_fn(ofo_fn(ab, 6)), 6)
    swap = partial_spec(ab, 1, ["", {"a": "b", "b": "a"},
                                {"aa": "a", "ab": "a", "ba": "b", "bb": "b"}])
    with pytest.raises(ConditionsFailedError) as failed:
        extend(swap, 5)
    return {
        "value": {"value": "ab"},
        "witness": report_to_json(
            check_preassociative(length_of_fn(letter_remove_g_fn(ab3, 5, "a")), 5)),
        "equiv-defs": reports_to_json(check_equivalent_definitions(ofo_fn(ab, 4), 4)),
        "string-table": function_to_json(extend(first_letter_spec, 11)),
        "token-table": function_to_json(tokens),
        "factorization": factorization_to_json(factorize(length_fn(ab, 9), 9)),
        "theta-class": theta_class_to_json(theta_class("abab", ThetaSpec("a", "b", 1), 8, ab)),
        "theta-rep": function_to_json(rep),
        "theta-chain": {"chain": [
            {"m": 1, "relation": cmp.relation,
             "separating": list(cmp.separating) if cmp.separating else None},
            {"m": 2, "relation": "equivalent", "separating": None},
        ]},
        "compare": {"relation": cmp.relation, "first_below_second": cmp.first_below_second,
                    "second_below_first": cmp.second_below_first, "separating": None},
        "alpha-check": report_to_json(check_alpha_equations([0, 1, 2, 3])),
        "alpha-classify": alpha_to_json(classify_alpha([0, 1, 2, 3])),
        "alpha-minimize": {"start": 2, "period": 3},
        "sweep": {"total": 46656, "equations_hold": 34, "accepted": 34,
                  "rejected": 46012, "insufficient": 610, "mismatches": []},
        "error": {"error": "profile needs more values"},
        "conditions-error": {"error": str(failed.value),
                             "reports": reports_to_json(failed.value.reports)},
    }


def test_every_cli_shape_matches_the_oracle(tmp_path, ab, ab3, first_letter_spec):
    shapes = _cli_shapes(ab, ab3, first_letter_spec)
    assert len(shapes["string-table"]["function"]["entries"]) > ROWS
    assert len(shapes["token-table"]["function"]["entries"]) > ROWS
    for obj in shapes.values():
        _assert_oracle_bytes(obj, tmp_path)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": {1, 2}}, [object()]],
                         ids=["tuple-key", "set", "object"])
def test_what_json_rejects_is_rejected_alike(obj):
    with pytest.raises(TypeError) as oracle:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as info:
        to_text(obj)
    assert str(info.value) == str(oracle.value)


@pytest.mark.parametrize("seed", range(3))
def test_iterators_encode_as_their_lists(seed):
    rng = random.Random(seed)
    plain = _STRINGS[:-1]
    pairs = (1.0, 0.8, 0.0)[seed]  # all pairs take the pair path
    for n in (0, 1, ROWS, ROWS + 1, 2 * ROWS + 1):
        # [str, str] rows as lists and tuples, as a streamed table's are.
        items = [rng.choice([list, tuple])(rng.sample(plain, 2)) if rng.random() < pairs
                 else _scalar(rng) if rng.random() < 0.95 else _tree(rng, 3)
                 for _ in range(n)]
        for obj, streamed in ((items, iter(items)),
                              ({"k": items, "z": 0}, {"k": iter(items), "z": 0})):
            assert to_text(streamed) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("rows", [0, 1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("codomain", ["string", "token"])
def test_streamed_tables_match_the_listed_ones(tmp_path, ab, codomain, rows):
    """A table's rows read straight from the table give its listed text."""
    entries = {s: s[::-1] if codomain == "string" else Token(len(s) if len(s) % 2 else s)
               for s in islice(enumerate_strings(ab, 11), rows)}
    fn = BoundedFn(ab, 11, TableDef(codomain, entries))
    listed = function_to_json(fn)
    assert isinstance(listed["function"]["entries"], list)
    expected = json.dumps(listed, indent=2) + "\n"
    paths = tmp_path / "first.json", tmp_path / "second.json"
    with open(paths[0], "w") as first, open(paths[1], "w") as second:
        write_to_json(function_to_json(fn, streamed=True), first, second)
    assert paths[0].read_text() == paths[1].read_text() == expected
    assert to_text(function_to_json(fn, streamed=True)) == expected
