"""End-to-end runs of the command-line front door.

Each test invokes ``main`` with an argv list and asserts on the exit
code, the JSON written to stdout, and (occasionally) the one-line
summary on stderr.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import strfn
from strfn import (
    Alphabet,
    ThetaSpec,
    check_associative_full,
    extend,
    factorize,
    length_fn,
    length_of_fn,
    letter_remove_g_fn,
    ofo_fn,
    partial_spec,
    sort_fn,
    table_fn,
    theta_rep_fn,
)
from strfn import quotient
from strfn.builtins import build_builtin
from strfn.cli import main
from strfn.errors import MalformedSpecError, StrfnError
from strfn.lengthbased import (
    check_alpha_equations, classify_alpha, minimal_period, psi_table, sweep_alpha_tables,
    synthesize_alpha,
)
from strfn.specio import factorization_to_json, function_to_json, partial_to_json, to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(to_text(obj) if not isinstance(obj, str) else obj)
    return str(path)


@pytest.fixture
def ofo_file(tmp_path, ab):
    return write(tmp_path, "ofo.json", function_to_json(ofo_fn(ab, 6)))


@pytest.fixture
def length_file(tmp_path, ab):
    return write(tmp_path, "len.json", function_to_json(length_fn(ab, 4)))


@pytest.fixture
def removal_length_file(tmp_path, ab3):
    fn = length_of_fn(letter_remove_g_fn(ab3, 5, "a"))
    return write(tmp_path, "lg.json", function_to_json(fn))


def test_eval(capsys, ofo_file):
    code, out, err = run(capsys, "eval", "--input", ofo_file, "aab")
    assert code == 0
    assert json.loads(out) == {"value": "ab"}
    assert "eval" in err


def test_eval_empty_string(capsys, ofo_file):
    code, out, _ = run(capsys, "eval", "--input", ofo_file, "")
    assert code == 0
    assert json.loads(out) == {"value": ""}


def test_eval_requires_one_input(capsys):
    code, _, err = run(capsys, "eval", "a")
    assert code == 2
    assert "exactly one --input" in err


def test_check_assoc_holds(capsys, ofo_file):
    code, out, err = run(capsys, "check", "assoc", "--input", ofo_file)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "holds"
    assert report["skipped"] == 0
    assert "assoc: holds" in err


def test_check_preassoc_fails_with_witness(capsys, removal_length_file):
    code, out, _ = run(capsys, "check", "preassoc",
                       "--input", removal_length_file, "--bound", "5")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fails"
    assert report["witness"] == {
        "bindings": {"y": "", "y2": "b", "x": "", "z": "b"},
        "lhs": {"token": 1},
        "rhs": {"token": 2},
    }


def test_check_rigidity_vacuous(capsys, tmp_path, ab):
    path = write(tmp_path, "sort.json", function_to_json(sort_fn(ab, 4)))
    code, out, _ = run(capsys, "check", "rigidity",
                       "--input", path, "--bound", "4")
    assert code == 3
    assert json.loads(out)["verdict"] == "vacuous"


def test_check_bounded_requires_m(capsys, ofo_file):
    code, _, err = run(capsys, "check", "bounded", "--input", ofo_file)
    assert code == 2
    assert "--m" in err


def test_check_bound_above_table(capsys, tmp_path, ab):
    path = write(tmp_path, "sort.json", function_to_json(sort_fn(ab, 4)))
    code, _, err = run(capsys, "check", "assoc", "--input", path)
    assert code == 2
    assert "bound" in err


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--input",
                       str(tmp_path / "absent.json"), "a")
    assert code == 2
    assert "error" in err


def test_directory_as_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--input", str(tmp_path), "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_input_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"alphabet": ["\xe9"]}'.encode("latin-1"))
    code, out, err = run(capsys, "eval", "--input", str(path), "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_directory_as_output_file(capsys, tmp_path, ofo_file):
    code, out, err = run(capsys, "check", "assoc", "--input", ofo_file,
                         "--bound", "3", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_input_file(capsys, tmp_path):
    path = write(tmp_path, "bad.json", "{nope")
    code, _, err = run(capsys, "eval", "--input", path, "a")
    assert code == 2


def test_extend_then_check(capsys, tmp_path, ab, first_letter_spec):
    spec_path = write(tmp_path, "spec.json", partial_to_json(first_letter_spec))
    grown_path = str(tmp_path / "grown.json")
    code, out, err = run(capsys, "extend", "--input", spec_path,
                         "--bound", "4", "--output", grown_path)
    assert code == 0
    assert "extended to bound 4" in err
    assert (tmp_path / "grown.json").read_text() == out

    code, out, _ = run(capsys, "check", "assoc",
                       "--input", grown_path, "--bound", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def test_extend_rejects_bad_spec(capsys, tmp_path, ab):
    swap = partial_spec(ab, 1, [
        "", {"a": "b", "b": "a"}, {s: s[0] for s in ("aa", "ab", "ba", "bb")},
    ])
    path = write(tmp_path, "swap.json", partial_to_json(swap))
    code, out, _ = run(capsys, "extend", "--input", path, "--bound", "4")
    assert code == 1
    obj = json.loads(out)
    assert sorted(obj) == ["error", "reports"]
    assert sorted(obj["reports"]) == ["a", "b", "c"]


def test_factorize_clean(capsys, length_file):
    code, out, err = run(capsys, "factorize", "--input", length_file,
                         "--bound", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["g"][1] == [{"token": 1}, "a"]
    assert "source-preassociative: holds" in err


def test_factorize_dirty(capsys, removal_length_file):
    code, out, _ = run(capsys, "factorize", "--input", removal_length_file,
                       "--bound", "5")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["source-preassociative"]["verdict"] == "fails"


def test_alpha_check(capsys, tmp_path):
    good = write(tmp_path, "good.json", [0, 1, 4, 5, 4, 5])
    code, out, _ = run(capsys, "alpha", "check", "--input", good)
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"

    bad = write(tmp_path, "bad.json", [1, 2, 3, 4, 5, 6, 6])
    code, out, _ = run(capsys, "alpha", "check", "--input", bad)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fails"
    assert report["witness"]["bindings"] == {"n": "0"}


def test_alpha_check_rejects_non_integers(capsys, tmp_path):
    path = write(tmp_path, "odd.json", {"hello": 1})
    code, _, err = run(capsys, "alpha", "check", "--input", path)
    assert code == 2
    assert "array of integers" in err


def test_alpha_classify(capsys, tmp_path):
    path = write(tmp_path, "vals.json", [0, 1, 4, 5, 4, 5, 4])
    code, out, _ = run(capsys, "alpha", "classify", "--input", path)
    assert code == 0
    assert json.loads(out) == {"kind": "structured", "n1": 2, "ell": 2,
                               "values": [0, 1, 4, 5]}


def test_alpha_classify_rejection(capsys, tmp_path):
    path = write(tmp_path, "per.json", [0, 1, 1, 3])
    code, out, _ = run(capsys, "alpha", "classify", "--input", path)
    assert code == 1
    assert json.loads(out)["rejected"] == "periodicity"


def test_alpha_classify_short_horizon(capsys, tmp_path):
    path = write(tmp_path, "short.json", [0, 2])
    code, out, err = run(capsys, "alpha", "classify", "--input", path)
    assert code == 3
    assert "error" in json.loads(out)
    assert "inconclusive" in err


def test_alpha_synth(capsys, tmp_path):
    good = write(tmp_path, "syn.json", {"n1": 2, "ell": 2,
                                        "window": [0, 1, 4, 5]})
    code, out, _ = run(capsys, "alpha", "synth", "--input", good)
    assert code == 0
    assert json.loads(out)["values"] == [0, 1, 4, 5]

    bad = write(tmp_path, "synbad.json", {"n1": 2, "ell": 2,
                                          "window": [0, 1, 4, 6]})
    code, out, _ = run(capsys, "alpha", "synth", "--input", bad)
    assert code == 1
    assert json.loads(out)["rejected"] == "window-residue"


def test_alpha_minimize(capsys, tmp_path):
    path = write(tmp_path, "mini.json", {
        "values": [0, 1, 4, 5, 4, 5, 4, 5],
        "witnesses": [[2, 2], [4, 4]],
    })
    code, out, _ = run(capsys, "alpha", "minimize", "--input", path)
    assert code == 0
    assert json.loads(out) == {"start": 2, "period": 2}


def test_alpha_minimize_bad_witness(capsys, tmp_path):
    path = write(tmp_path, "minibad.json", {
        "values": [0, 1, 4, 5, 4, 5, 4, 5],
        "witnesses": [[2, 3]],
    })
    code, _, err = run(capsys, "alpha", "minimize", "--input", path)
    assert code == 2
    assert "(2, 3)" in err


def test_theta_class(capsys):
    code, out, _ = run(capsys, "theta", "class", "ab", "--alphabet", "ab",
                       "--x0", "a", "--x1", "b", "--m-exp", "0",
                       "--bound", "2")
    assert code == 0
    assert json.loads(out) == {"members": ["aa", "ab", "ba", "bb"],
                               "truncated": False}


def test_theta_class_truncated(capsys):
    code, out, _ = run(capsys, "theta", "class", "bb", "--alphabet", "ab",
                       "--x0", "aa", "--x1", "b", "--m-exp", "0",
                       "--bound", "2")
    assert code == 3
    assert json.loads(out) == {"members": ["bb"], "truncated": True}


def test_theta_class_needs_string(capsys):
    code, _, err = run(capsys, "theta", "class", "--alphabet", "ab",
                       "--x0", "a", "--x1", "b")
    assert code == 2
    assert "string" in err


def test_theta_rep(capsys):
    code, out, _ = run(capsys, "theta", "rep", "--alphabet", "ab",
                       "--x0", "a", "--x1", "b", "--m-exp", "1",
                       "--bound", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["function"]["kind"] == "table"
    assert len(obj["function"]["entries"]) == 15


def test_theta_chain(capsys):
    code, out, err = run(capsys, "theta", "chain", "--alphabet", "ab",
                         "--x0", "a", "--x1", "b", "--m-exp", "3",
                         "--bound", "6")
    assert code == 0
    assert json.loads(out) == {"chain": [
        {"m": 1, "relation": "strictly-below", "separating": ["aa", "bb"]},
        {"m": 2, "relation": "strictly-below",
         "separating": ["aaaa", "bbbb"]},
    ]}
    assert "strictly-below" in err


def test_theta_chain_builds_no_identities(capsys, monkeypatch):
    built = []

    def counting(alphabet, bound, spec):
        built.append(spec.m)
        return theta_rep_fn(alphabet, bound, spec)

    monkeypatch.setattr(quotient, "theta_rep_fn", counting)
    code, out, err = run(capsys, "theta", "chain", "--alphabet", "ab",
                         "--x0", "a", "--x1", "b", "--bound", "3",
                         "--m-exp", "20000")
    assert code == 0
    assert built == [1, 2]
    rows = json.loads(out)["chain"]
    assert len(rows) == 19999
    assert rows[0] == {"m": 1, "relation": "strictly-below", "separating": ["aa", "bb"]}
    assert all(r == {"m": r["m"], "relation": "equivalent", "separating": None}
               for r in rows[1:])
    assert err.startswith("F^1 strictly-below F^2; F^2 equivalent F^3; ")


def test_compare(capsys, tmp_path, ab, length_file):
    sort_path = write(tmp_path, "sort.json", function_to_json(sort_fn(ab, 4)))
    code, out, _ = run(capsys, "compare", "--input", length_file,
                       "--input", sort_path, "--bound", "4")
    assert code == 0
    assert json.loads(out) == {
        "relation": "strictly-below",
        "first_below_second": True,
        "second_below_first": False,
        "separating": ["a", "b"],
    }


def test_compare_needs_two_inputs(capsys, length_file):
    code, _, err = run(capsys, "compare", "--input", length_file)
    assert code == 2
    assert "two --input" in err


def test_stdout_is_deterministic(capsys, ofo_file):
    argv = ("check", "assoc", "--input", ofo_file)
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_jobs_do_not_change_output(capsys, tmp_path, ab, ofo_file):
    _, serial, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                       "--jobs", "1")
    _, parallel, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                         "--jobs", "2")
    assert serial == parallel

    entries = dict(ofo_fn(ab, 5).value_map(5))
    entries["abaab"] = "a"
    late = write(tmp_path, "late.json", function_to_json(table_fn(ab, 5, entries)))
    outputs = [run(capsys, "check", prop, "--input", late, "--bound", "5",
                   "--jobs", jobs)
               for prop in ("assoc", "assoc-reduced") for jobs in ("1", "2")]
    assert all(code == 1 for code, _, _ in outputs)
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert json.loads(outputs[0][1])["checked"] == 544


def test_output_file_matches_stdout(capsys, tmp_path, ofo_file):
    report_path = tmp_path / "report.json"
    _, out, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                    "--output", str(report_path))
    assert report_path.read_text() == out


def test_streamed_output_file_matches_stdout(tmp_path, first_letter_spec):
    """A report of many write batches: the file and stdout get its bytes."""
    spec_path = write(tmp_path, "spec.json", partial_to_json(first_letter_spec))
    out_path = tmp_path / "grown.json"
    env = dict(os.environ, PYTHONPATH=str(Path(strfn.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "strfn", "extend", "--input", spec_path,
         "--bound", "12", "--output", str(out_path)],
        env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    expected = to_text(function_to_json(extend(first_letter_spec, 12))).encode()
    assert done.stdout == out_path.read_bytes() == expected


def test_streamed_theta_rep_output_file_matches_stdout(capsys, tmp_path, ab):
    """The rows are read once from the table, and the file and stdout both
    get its bytes."""
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "theta", "rep", "--alphabet", "ab", "--x0", "ab",
                       "--x1", "b", "--m-exp", "1", "--bound", "11", "--output", str(path))
    assert code == 0
    expected = to_text(function_to_json(theta_rep_fn(ab, 11, ThetaSpec("ab", "b", 1))))
    assert out == path.read_text() == expected


def test_extend_writes_its_table_without_a_copy(tmp_path, monkeypatch, first_letter_spec):
    """The rows stream from the table, so writing it takes little more
    memory than the table itself (a list of its rows took about 0.8x more)."""
    spec_path = write(tmp_path, "spec.json", partial_to_json(first_letter_spec))
    extend(first_letter_spec, 6)  # first-call set-up stays out of both figures
    tracemalloc.start()
    try:
        fn = extend(first_letter_spec, 14)
        table = tracemalloc.get_traced_memory()[0]
        del fn
        tracemalloc.stop()
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            assert main(["extend", "--input", spec_path, "--bound", "14"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * table


def test_factorize_output_file_matches_stdout(capsys, tmp_path, ab):
    """H's rows are read once, and the file and stdout both get the
    report's bytes."""
    spec_path = write(tmp_path, "len.json", function_to_json(length_fn(ab, 11)))
    path = tmp_path / "fact.json"
    code, out, _ = run(capsys, "factorize", "--input", spec_path, "--bound", "11",
                       "--output", str(path))
    assert code == 0
    expected = to_text(factorization_to_json(factorize(length_fn(ab, 11), 11)))
    assert out == path.read_text() == expected


def test_factorize_writes_its_tables_without_a_copy(tmp_path, monkeypatch, ab):
    """H's rows stream from its table, so writing the report takes little
    more memory than the factorization itself (a list of them took about
    0.6x more at L=13)."""
    spec_path = write(tmp_path, "len.json", function_to_json(length_fn(ab, 13)))
    factorize(length_fn(ab, 6), 6)  # first-call set-up stays out of both figures
    tracemalloc.start()
    try:
        fact = factorize(length_fn(ab, 13), 13)
        held = tracemalloc.get_traced_memory()[0]
        del fact
        tracemalloc.stop()
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            assert main(["factorize", "--input", spec_path, "--bound", "13"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * held


def _spec(function):
    return {"alphabet": ["a", "b"], "bound": 2, "function": function}


def _ofo_spec(params):
    return _spec({"kind": "builtin", "name": "ofo", "params": params})


def _table_spec(last_entry, codomain="string"):
    entries = [[s, s] for s in ("", "a", "aa", "ab", "ba", "bb")] + [last_entry]
    return _spec({"kind": "table", "codomain": codomain, "entries": entries})


def _parts_spec(first_pair):
    return {"alphabet": ["a", "b"], "m": 1, "parts": {
        "0": "", "1": [first_pair, ["b", "b"]],
        "2": [[s, s[0]] for s in ("aa", "ab", "ba", "bb")]}}


def _profile_spec(psi=([0, ""], [1, "a"], [4, "aaaa"]), **fields):
    alpha = {"kind": "structured", "n1": 2, "ell": 2, "values": [0, 1, 4, 5], **fields}
    return _spec({"kind": "builtin", "name": "length_based", "params": {
        "alpha": alpha, "psi": list(psi)}})


_DOMAIN_2 = ("", "a", "b", "aa", "ab", "ba", "bb")


_CHECK = ["check", "standard", "--bound", "2"]
_EXTEND = ["extend", "--bound", "3"]


@pytest.mark.parametrize("argv, spec", [
    (["check", "standard", "--bound", "-1"], _ofo_spec({})),
    (["theta", "class", "a", "--alphabet", "ab", "--x0", "a", "--x1", "a"], None),
    (["theta", "chain", "--alphabet", "ab", "--x0", "a", "--x1", "b",
      "--m-exp", "-3"], None),
    (["alpha", "synth"], {"n1": None}),
    (["check", "standard"], {"alphabet": ["a", "b"], "bound": 2, "function": {
        "kind": "builtin", "name": "sort", "params": {"order": 5}}}),
    (["check", "standard"], _ofo_spec([1])),
    (["eval", "ac"], _ofo_spec({})),
    (_CHECK, _spec({"kind": "builtin", "name": "letter_remove",
                    "params": {"letter": [1]}})),
    (_CHECK, _ofo_spec({"bogus": 1})),
    (_CHECK, _spec({"kind": "builtin", "name": "table", "params": {
        "entries": {"": {"token": 1}}}})),
    (_CHECK, _table_spec([["b"], "b"])),
    (_CHECK, _table_spec(["b", "b"], codomain="foo")),
    (_CHECK, _table_spec(["b", "b"], codomain="token")),
    (_CHECK, _table_spec(["b", {"token": 1}])),
    (_EXTEND, _parts_spec(["a"])),
    (_EXTEND, _parts_spec(5)),
    (_EXTEND, _parts_spec(["a", 5])),
    (_EXTEND, _parts_spec([["a"], "a"])),
    (_CHECK, _profile_spec(n1="x")),
    (_CHECK, _profile_spec(values=5)),
    (_CHECK, _profile_spec(values=[0, 1, 4])),
    (["check", "assoc", "--bound", "2", "--jobs", "0"], _ofo_spec({})),
    (["check", "assoc", "--bound", "2", "--jobs", "-5"], _ofo_spec({})),
    (["check", "standard", "--bound", "1"], {**_ofo_spec({}), "bound": True}),
    (_CHECK, _spec({"kind": "table", "codomain": "token", "entries":
                    [[s, {"token": 1}] for s in _DOMAIN_2[:-1]] + [["bb", {"token": True}]]})),
    (_EXTEND, {**_parts_spec(["a", "a"]), "m": True}),
    (_CHECK, _profile_spec(values=[0, True, 4, 5])),
    (_CHECK, _profile_spec(psi=([0, ""], [True, "a"], [4, "aaaa"]))),
    (_CHECK, _profile_spec(psi=([0, ""], "1a", [4, "aaaa"]))),
    (_CHECK, _profile_spec(psi=([0, ""], ["1", "a"], [4, "aaaa"]))),
    (["alpha", "check"], [0, True, 4, 5, 4, 5]),
    (["alpha", "minimize"], {"values": [0, 4, 5, 4, 5, 4, 5], "witnesses": [[True, 2]]}),
    (_CHECK, _spec({"kind": "table", "entries":
                    [[s, s] for s in _DOMAIN_2] + [["zzz", "a"], ["abab", "b"]]})),
    (["theta", "class", "aa", "--alphabet", "ab", "--x0", "c", "--x1", "a"], None),
    (_CHECK, _spec({"kind": "table", "entries": [[s, s] for s in _DOMAIN_2] + [["a", "a"]]})),
    (_EXTEND, {"alphabet": ["a", "b"], "m": 0, "parts": {
        "0": "", "1": [["a", ""], ["b", ""], ["a", ""]]}}),
    (_CHECK, _profile_spec(psi=([0, ""], [1, "a"], [1, "b"], [4, "aaaa"]))),
    (_EXTEND, {"alphabet": ["a", "b"], "m": 0, "parts": {
        "0": "", "1": [["a", ""], ["b", ""]], "7": "garbage", "x": 1}}),
    (["check", "assoc", "--bound", "2"], "[" * 200_000 + "]" * 200_000),
    (["check", "assoc", "--bound", "2"], "1" * 5000),
    (["alpha", "check"], "[" + "9" * 5000 + "]"),
], ids=["negative-bound", "equal-blocks", "negative-exponent", "null-synth",
        "sort-order-not-letters", "params-not-object", "eval-foreign-letter",
        "letter-not-a-string", "unknown-param", "builtin-table-name",
        "table-input-not-a-string", "table-codomain-unknown",
        "string-in-token-table", "token-in-string-table",
        "parts-pair-too-short", "parts-pair-not-a-list", "parts-output-not-a-string",
        "parts-input-not-a-string", "profile-n1-not-a-count",
        "profile-values-not-an-array", "profile-window-wrong-length",
        "jobs-zero", "jobs-negative", "bound-true", "token-true", "m-true",
        "profile-window-bool", "psi-index-bool", "psi-entry-a-string",
        "psi-index-a-string", "alpha-values-bool", "minimize-witness-bool",
        "table-entry-outside-domain", "theta-foreign-block", "table-input-repeated",
        "parts-input-repeated", "psi-index-repeated", "parts-unknown-arity",
        "json-nested-too-deep", "json-int-too-long", "alpha-int-too-long"])
def test_input_errors_exit_2_with_one_line(tmp_path, argv, spec):
    if spec is not None:
        argv = argv + ["--input", write(tmp_path, "spec.json", spec)]
    env = dict(os.environ, PYTHONPATH=str(Path(strfn.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "strfn", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def _builtin_spec(letters, bound, name, **params):
    return {"alphabet": list(letters), "bound": bound,
            "function": {"kind": "builtin", "name": name, "params": params}}


_TOKEN_TABLE = {"alphabet": ["a", "b"], "bound": 1, "function": {
    "kind": "table", "codomain": "token",
    "entries": [["", {"token": 0}], ["a", {"token": 1}], ["b", {"token": 1}]]}}
_FIRST_LETTER = {"alphabet": ["a", "b"], "m": 1, "parts": {
    "0": "", "1": [["a", "a"], ["b", "b"]],
    "2": [["aa", "a"], ["ab", "a"], ["ba", "b"], ["bb", "b"]]}}

# Stands for the path of a valid first input, so the fuzzed one is second.
_FIRST = "<first input>"

# (argv, valid input); every run stays at bound <= 3 on at most 3 letters.
_VALID_INPUTS = [
    (_CHECK, _builtin_spec("ab", 2, "ofo")),
    (["check", "assoc", "--bound", "2"],
     _builtin_spec("ab", 2, "sort", order=["b", "a"])),
    (["eval", "ab"], _builtin_spec("ab", 2, "letter_remove", letter="a")),
    (["check", "idempotent", "--bound", "2"],
     _builtin_spec("ab|", 2, "separator_insert", bar="|")),
    (["eval", "ab"], _builtin_spec("ab", 2, "constant", value={"token": 3})),
    (["check", "preassoc", "--bound", "2"], _builtin_spec(
        "ab", 2, "length_of", inner={"kind": "builtin", "name": "letter_remove_g",
                                     "params": {"letter": "a"}})),
    (_CHECK, _builtin_spec(
        "ab", 2, "length_based",
        alpha={"kind": "structured", "n1": 2, "ell": 2, "values": [0, 1, 4, 5]},
        psi=[[0, ""], [1, "a"], [4, "aaaa"]])),
    (["check", "preassoc", "--bound", "1"], _TOKEN_TABLE),
    (_EXTEND, _FIRST_LETTER),
    (["alpha", "synth"], {"n1": 2, "ell": 2, "window": [0, 1, 4, 5]}),
    (["alpha", "minimize"], {"values": [0, 1, 4, 5, 4, 5], "witnesses": [[2, 2]]}),
    (["alpha", "check"], [0, 1, 4, 5, 4, 5, 4]),
    (["alpha", "classify"], [0, 1, 4, 5, 4, 5, 4]),
    (["compare", "--bound", "2", "--input", _FIRST], _builtin_spec("ab", 2, "length")),
]
_KEYS = ["token", "kind", "name", "n1", "values", "a", "alphabet", "bound", "function",
         "params", "entries", "codomain", "m", "parts", "1", "ell", "window", "witnesses"]


def _random_json(rng, depth=0):
    pick = rng.randrange(6 if depth < 2 else 4)
    if pick == 0:
        return rng.choice([None, True, False])
    if pick == 1:
        return rng.randint(-2, 4)
    if pick in (2, 3):
        return rng.choice(["", "a", "b", "ab", "ba", "c", "|", "token",
                           "string", "structured", "identity", "ofo"])
    if pick == 4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {rng.choice(_KEYS): _random_json(rng, depth + 1)
            for _ in range(rng.randrange(3))}


def _paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(obj, rng):
    """A copy of ``obj`` with one node replaced, deleted, or given a new child."""
    box = [json.loads(json.dumps(obj))]
    path = (0,) + rng.choice(list(_paths(box[0])))
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    node, op = parent[path[-1]], rng.choice(("replace", "delete", "add"))
    if op == "delete" and len(path) > 1:
        del parent[path[-1]]
    elif op == "add" and isinstance(node, dict):
        node[rng.choice(_KEYS)] = _random_json(rng, 1)
    elif op == "add" and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1), _random_json(rng, 1))
    else:
        parent[path[-1]] = _random_json(rng)
    return box[0]


def _exit_code(argv, what):
    """``main``'s exit code, usage errors included; any exception fails the test."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:
        pytest.fail(f"{what}: {argv} raised {exc!r}")


def test_fuzzed_specs_exit_with_a_code_and_one_error_line(capsys, tmp_path):
    rng = random.Random(20141)
    path = tmp_path / "fuzz.json"
    first = write(tmp_path, "first.json", _builtin_spec("ab", 2, "ofo"))
    for case in range(400):
        argv, valid = rng.choice(_VALID_INPUTS)
        argv = [first if arg == _FIRST else arg for arg in argv]
        spec = _mutated(valid, rng)
        path.write_text(json.dumps(spec))
        code = _exit_code(argv + ["--input", str(path)], f"case {case} on {spec!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (case, argv, spec)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, spec, err)


def _theta_chain_ab(bound, x0, x1, last):
    return quotient.theta_chain(Alphabet(("a", "b")), bound, x0, x1, last)


def _build_builtin_ab(name, params):
    return build_builtin(name, Alphabet(("a", "b")), 2, params)


# Each function that checks a value a spec or the command line hands it
# straight through, with valid arguments to mutate.  An alphabet is not
# JSON, so the calls that take one fix it.
_API_CALLS = [
    (synthesize_alpha, (2, 2, [0, 1, 4, 5])),
    (check_alpha_equations, ([0, 1, 4, 5, 4, 5, 4],)),
    (classify_alpha, ([0, 1, 4, 5, 4, 5, 4],)),
    (minimal_period, ([0, 1, 4, 5, 4, 5], [[2, 2], [2, 4]])),
    (psi_table, ([[0, ""], [1, "a"], [4, "aaaa"]],)),
    (ThetaSpec, ("a", "b", 1)),
    (_theta_chain_ab, (3, "a", "b", 2)),
    (_build_builtin_ab, ("letter_remove", {"letter": "a"})),
    (sweep_alpha_tables, (1, 1)),
]


def test_fuzzed_api_arguments_raise_only_strfn_errors():
    assert issubclass(MalformedSpecError, StrfnError)
    assert issubclass(MalformedSpecError, ValueError)
    rng = random.Random(20143)
    outcomes = set()
    for case in range(1000):
        fn, valid = rng.choice(_API_CALLS)
        args = list(valid)
        i = rng.randrange(len(args))
        args[i] = _mutated(args[i], rng) if rng.random() < 0.8 else _random_json(rng)
        try:
            fn(*args)
            outcomes.add("result")
        except StrfnError:
            outcomes.add("error")
        except Exception as exc:
            pytest.fail(f"case {case}: {fn.__name__}{tuple(args)!r} raised {exc!r}")
    assert outcomes == {"result", "error"}


@pytest.mark.parametrize("call", [
    lambda: quotient.theta_chain(Alphabet(("a", "b")), 3, "", "", 2),
    lambda: quotient.theta_chain(Alphabet(("a", "b")), 1, "aa", "aa", 2),
    lambda: quotient.theta_chain(Alphabet(("a", "b")), "3", "a", "b", 2),
    lambda: build_builtin("ofo", Alphabet(("a",)), 2, 5),
    lambda: build_builtin(["ofo"], Alphabet(("a",)), 2),
    lambda: sweep_alpha_tables("x", 1),
    lambda: build_builtin("ofo", Alphabet(("a", "b")), -1),
    lambda: build_builtin("ofo", Alphabet(("a", "b")), "x"),
    lambda: build_builtin("ofo", Alphabet(("a", "b")), True),
    lambda: theta_rep_fn(Alphabet(("a", "b")), "x", ThetaSpec("a", "b", 1)),
    lambda: check_associative_full(ofo_fn(Alphabet(("a", "b")), 3), "3"),
    lambda: check_associative_full(ofo_fn(Alphabet(("a", "b")), 3), True),
    lambda: sweep_alpha_tables(1, 1, jobs="x"),
    lambda: sweep_alpha_tables(1, 1, jobs=None),
], ids=["theta-empty-blocks", "theta-equal-blocks", "theta-str-bound", "builtin-int-params",
        "builtin-list-name", "sweep-str-horizon", "builtin-negative-bound", "builtin-str-bound",
        "builtin-bool-bound", "theta-rep-str-bound", "check-str-level", "check-bool-level",
        "sweep-str-jobs", "sweep-none-jobs"])
def test_bad_api_arguments_raise_malformed_spec_errors(call):
    with pytest.raises(MalformedSpecError):
        call()


_THETA_VALUES = ["", "a", "b", "c", "|", "aa", "ab", "ba", "bb", "abc", "cab", "a|",
                 "aab", "abab", "-a", "--x0"]


def test_fuzzed_theta_arguments_exit_with_a_code_and_one_error_line(capsys):
    rng = random.Random(20142)
    for case in range(300):
        values = {"string": "ab", "--alphabet": "ab", "--x0": "a", "--x1": "b"}
        for key in rng.sample(sorted(values), rng.randint(1, 2)):
            values[key] = rng.choice(_THETA_VALUES)
        action = rng.choice(["class", "rep", "chain"])
        # chain prints one row per m, so only class and rep take huge exponents.
        m_exp = rng.randrange(3) if action == "chain" else rng.choice(
            [0, 1, 2, 3, 40, 2**40])
        argv = ["theta", action, values.pop("string"),
                "--bound", "3", "--m-exp", str(m_exp)]
        for option, value in values.items():
            argv += [option, value]
        code = _exit_code(argv, f"case {case}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (case, argv)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, argv, err)
