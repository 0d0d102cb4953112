"""End-to-end runs of the command-line front door.

Each test invokes ``main`` with an argv list and asserts on the exit
code, the JSON written to stdout, and (occasionally) the one-line
summary on stderr.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strfn
from strfn import (
    Alphabet,
    length_fn,
    length_of_fn,
    letter_remove_g_fn,
    ofo_fn,
    partial_spec,
    sort_fn,
)
from strfn.cli import main
from strfn.specio import function_to_json, partial_to_json, to_text


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


def test_jobs_do_not_change_output(capsys, ofo_file):
    _, serial, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                       "--jobs", "1")
    _, parallel, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                         "--jobs", "2")
    assert serial == parallel


def test_output_file_matches_stdout(capsys, tmp_path, ofo_file):
    report_path = tmp_path / "report.json"
    _, out, _ = run(capsys, "check", "assoc", "--input", ofo_file,
                    "--output", str(report_path))
    assert report_path.read_text() == out


def _ofo_spec(params):
    return {"alphabet": ["a", "b"], "bound": 2,
            "function": {"kind": "builtin", "name": "ofo", "params": params}}


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
], ids=["negative-bound", "equal-blocks", "negative-exponent", "null-synth",
        "sort-order-not-letters", "params-not-object", "eval-foreign-letter"])
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
