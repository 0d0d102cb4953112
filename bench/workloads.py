"""Seeded workload generator: spec files plus the jobs that use them.

``build(workload, seed, out_dir, toy)`` writes every input spec of one
workload into ``out_dir`` and returns its fixed batch of jobs.  The seed
only relabels letters or moves a perturbation among positions of equal
cost, so any seed gives the same job mix at a similar cost.  Each job
carries the exit code and the output shape its input was built to
produce; ``Job.verify`` checks a run against them.

This module is benchmark-owned and independent of strfn: expected
verdicts come from how each input was constructed, not from the program
under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("holds-scan", "fails-witness", "construct")
# size(full, small) picks a job size: full scale, or small for smoke runs.
Size = Callable[[int, int], int]


@dataclass
class Job:
    """One decision job: a strfn CLI call, or an API call through job.py."""

    name: str
    kind: str  # "cli" or "api"
    args: list[str]
    rc: int
    check: Callable[[Any], str | None]
    specs: tuple[str, ...] = ()

    def verify(self, rc: int, stdout: bytes) -> str | None:
        """None when the run matches what the input was built to give."""
        if rc != self.rc:
            return f"exit code {rc}, expected {self.rc}"
        try:
            obj = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
        return self.check(obj)


def _strings(letters: str, max_len: int, min_len: int = 0):
    for k in range(min_len, max_len + 1):
        for combo in itertools.product(letters, repeat=k):
            yield "".join(combo)


def _ofo(s: str) -> str:
    return "".join(dict.fromkeys(s))


def _builtin(name: str, **params: Any) -> dict[str, Any]:
    return {"kind": "builtin", "name": name, "params": params}


def _write(out_dir: Path, name: str, obj: Any) -> str:
    path = out_dir / name
    path.write_text(json.dumps(obj))
    return str(path)


def _fn_spec(out_dir: Path, name: str, letters: str, bound: int, fn: Any) -> str:
    return _write(out_dir, name,
                  {"alphabet": list(letters), "bound": bound, "function": fn})


def _verdict(expected: str) -> Callable[[Any], str | None]:
    """A single report with the given verdict (exit code 3 marks skips)."""
    def check(obj: Any) -> str | None:
        if obj.get("verdict") != expected:
            return f"verdict {obj.get('verdict')!r}, expected {expected!r}"
        return None
    return check


def _all_hold(names: tuple[str, ...]) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        got = {k: obj.get(k, {}).get("verdict") for k in names}
        if set(got.values()) != {"holds"}:
            return f"verdicts {got}, expected all 'holds'"
        return None
    return check


def _table(obj: Any) -> dict[str, Any]:
    return {s: v for s, v in obj["function"]["entries"]}


# ---------------------------------------------------------------------------
# holds-scan: laws that hold on small builtin specs


def _holds_scan(rng: random.Random, d: Path, size: Size) -> list[Job]:
    ab = "".join(rng.sample("ab", 2))
    abc = "".join(rng.sample("abc", 3))
    ab_bar = "".join(rng.sample("ab|", 3))
    removed = rng.choice(ab)

    jobs = []
    # The same scan serially and with a pool of 2, to show what the pool pays.
    pooled = size(12, 6)
    ofo_ab = _fn_spec(d, "ofo-ab.json", ab, pooled, _builtin("ofo"))
    jobs.append(Job("assoc-ofo-ab", "cli",
                    ["check", "assoc", "--input", ofo_ab, "--bound", str(pooled)],
                    0, _verdict("holds"), (ofo_ab,)))
    level = size(8, 4)
    spec = _fn_spec(d, "ofo-abc.json", abc, level, _builtin("ofo"))
    jobs.append(Job("assoc-ofo-abc", "cli",
                    ["check", "assoc", "--input", spec, "--bound", str(level)],
                    0, _verdict("holds"), (spec,)))
    level = size(9, 5)
    spec = _fn_spec(d, "length.json", ab, level, _builtin("length"))
    jobs.append(Job("preassoc-length", "cli",
                    ["check", "preassoc", "--input", spec, "--bound", str(level)],
                    0, _verdict("holds"), (spec,)))
    # Holds only relative to the evaluated instances: skips, exit code 3.
    level = size(10, 5)
    spec = _fn_spec(d, "letter-remove-g.json", ab, level,
                    _builtin("letter_remove_g", letter=removed))
    jobs.append(Job("preassoc-letter-remove-g", "cli",
                    ["check", "preassoc", "--input", spec, "--bound", str(level)],
                    3, _verdict("holds"), (spec,)))
    # separator_insert lengthens its input, so no length-non-increasing
    # shortcut applies: the full scan has to run.
    level = size(8, 4)
    spec = _fn_spec(d, "separator-insert.json", ab_bar, level,
                    _builtin("separator_insert", bar="|"))
    jobs.append(Job("assoc-separator-insert", "cli",
                    ["check", "assoc", "--input", spec, "--bound", str(level)],
                    3, _verdict("holds"), (spec,)))
    level = size(10, 5)
    spec = _fn_spec(d, "ofo-equiv.json", ab, level, _builtin("ofo"))
    jobs.append(Job("equiv-defs-ofo", "cli",
                    ["check", "equiv-defs", "--input", spec, "--bound", str(level)],
                    0, _all_hold(("i", "ii", "iii", "iv")), (spec,)))
    jobs.append(Job("assoc-ofo-jobs2", "cli",
                    ["check", "assoc", "--input", ofo_ab, "--bound", str(pooled),
                     "--jobs", "2"],
                    0, _verdict("holds"), (ofo_ab,)))
    return jobs


# ---------------------------------------------------------------------------
# fails-witness: the checkers' failure path, early exit and witness search


def _witness_pair(expected: set[str], context_len: int) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        err = _verdict("fails")(obj)
        if err:
            return err
        b = obj["witness"]["bindings"]
        if {b["y"], b["y2"]} != expected or len(b["x"] + b["z"]) != context_len:
            return f"witness {b} does not separate the merged pair"
        return None
    return check


def _witness_at(target: str) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        err = _verdict("fails")(obj)
        if err:
            return err
        b = obj["witness"]["bindings"]
        if b["x"] + b["y"] + b["z"] != target:
            return f"witness {b} is not at the perturbed string {target!r}"
        return None
    return check


def _fails_witness(rng: random.Random, d: Path, size: Size) -> list[Job]:
    ab = "".join(rng.sample("ab", 2))
    first = ab[0]
    jobs = []

    # An injective token table except that u and v share a token.  Every
    # witness is x u z against x v z with |xz| = 1, so the search walks
    # all strings shorter than 2L - 1.  u starts with first^3, so the
    # first witness comes no later than first.u.v, within the first
    # sixteenth of the strings of length 2L - 1: the cost hardly depends
    # on the seed.
    level = size(7, 4)
    tail = level - 1 - 3
    u = first * 3 + "".join(rng.choice(ab) for _ in range(tail))
    v = u
    while v == u:
        v = "".join(rng.choice(ab) for _ in range(level - 1))
    domain = list(_strings(ab, level))
    token = {s: i for i, s in enumerate(domain)}
    token[v] = token[u]
    spec = _fn_spec(d, "merged-tokens.json", ab, level, {
        "kind": "table", "codomain": "token",
        "entries": [[s, {"token": token[s]}] for s in domain],
    })
    jobs.append(Job("preassoc-merged-tokens", "cli",
                    ["check", "preassoc", "--input", spec, "--bound", str(level)],
                    1, _witness_pair({u, v}, 1), (spec,)))

    # ofo as a table with one entry among the last strings of length L
    # changed.  The scan meets no failure before that string, so the
    # failure is found late; the table is about 190 KB of JSON.
    level = size(12, 6)
    domain = list(_strings(ab, level))
    table = {s: _ofo(s) for s in domain}
    last = [s for s in domain[-32:] if len(table[s]) == 2]
    target = rng.choice(last)
    table[target] = target[0]
    spec = _fn_spec(d, "perturbed-ofo.json", ab, level, {
        "kind": "table", "codomain": "string",
        "entries": [[s, table[s]] for s in domain],
    })
    jobs.append(Job("assoc-perturbed-ofo", "cli",
                    ["check", "assoc", "--input", spec, "--bound", str(level)],
                    1, _witness_at(target), (spec,)))

    # Early failures: the first kernel pair already breaks preassociativity.
    level = size(8, 4)
    spec = _fn_spec(d, "length-of-ofo.json", ab, level,
                    _builtin("length_of", inner=_builtin("ofo")))
    jobs.append(Job("preassoc-length-of-ofo", "cli",
                    ["check", "preassoc", "--input", spec, "--bound", str(level)],
                    1, _verdict("fails"), (spec,)))
    spec = _fn_spec(d, "length-of-letter-remove-g.json", ab, level,
                    _builtin("length_of", inner=_builtin(
                        "letter_remove_g", letter=rng.choice(ab))))
    jobs.append(Job("preassoc-length-of-letter-remove-g", "cli",
                    ["check", "preassoc", "--input", spec, "--bound", str(level)],
                    1, _verdict("fails"), (spec,)))
    return jobs


# ---------------------------------------------------------------------------
# construct: the paper's constructions and their serialized outputs


def _one_bounded(rule: str, absorbing: str) -> Callable[[str], str]:
    """Closed forms of three associative 1-bounded functions."""
    if rule == "first":
        return lambda s: s[:1]
    if rule == "last":
        return lambda s: s[-1:]
    return lambda s: (absorbing if absorbing in s else s[:1])


def _extension_of(fn: Callable[[str], str], count: int) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        table = _table(obj)
        if len(table) != count:
            return f"{len(table)} entries, expected {count}"
        bad = next((s for s, v in table.items() if v != fn(s)), None)
        if bad is not None:
            return f"extension differs from the closed form at {bad!r}"
        return None
    return check


def _factorization(preassoc: str, classes: int | None) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        got = obj["checks"]["source-preassociative"]["verdict"]
        if got != preassoc:
            return f"source-preassociative {got!r}, expected {preassoc!r}"
        if classes is not None and len(obj["g"]) != classes:
            return f"{len(obj['g'])} kernel classes, expected {classes}"
        return None
    return check


def _chain(links: int) -> Callable[[Any], str | None]:
    # The representatives of growing block length form a strictly
    # increasing chain in the kernel order.
    def check(obj: Any) -> str | None:
        rel = [row["relation"] for row in obj["chain"]]
        if rel != ["strictly-below"] * links:
            return f"chain relations {rel}, expected strictly-below x{links}"
        return None
    return check


def _representatives(count: int) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        table = _table(obj)
        if len(table) != count:
            return f"{len(table)} entries, expected {count}"
        bad = next((s for s, v in table.items()
                    if len(v) != len(s) or table[v] != v), None)
        if bad is not None:
            return f"representative of {bad!r} is not a fixed point of its length"
        return None
    return check


def _classified(n1: int, ell: int, window: list[int]) -> Callable[[Any], str | None]:
    expected = {"kind": "structured", "n1": n1, "ell": ell, "values": window}

    def check(obj: Any) -> str | None:
        return None if obj == expected else f"classified {obj}, expected {expected}"
    return check


def _relation(expected: str) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        got = obj.get("relation")
        return None if got == expected else f"relation {got!r}, expected {expected!r}"
    return check


def _sweep(total: int) -> Callable[[Any], str | None]:
    def check(obj: Any) -> str | None:
        if obj["total"] != total or obj["mismatches"]:
            return f"sweep total {obj['total']} (expected {total}), " \
                   f"{len(obj['mismatches'])} mismatches"
        return None
    return check


def _construct(rng: random.Random, d: Path, size: Size) -> list[Job]:
    ab = "".join(rng.sample("ab", 2))
    jobs = []

    level = size(9, 4)
    spec = _fn_spec(d, "length.json", ab, level, _builtin("length"))
    jobs.append(Job("factorize-length", "cli",
                    ["factorize", "--input", spec, "--bound", str(level)],
                    0, _factorization("holds", level + 1), (spec,)))
    spec = _fn_spec(d, "length-of-ofo.json", ab, level,
                    _builtin("length_of", inner=_builtin("ofo")))
    jobs.append(Job("factorize-length-of-ofo", "cli",
                    ["factorize", "--input", spec, "--bound", str(level)],
                    1, _factorization("fails", None), (spec,)))

    # A valid 1-bounded package (arities 0..2) of a known associative
    # function; its extension must equal the closed form everywhere.
    rule = rng.choice(("first", "last", "absorbing"))
    fn = _one_bounded(rule, rng.choice(ab))
    partial = _write(d, "partial.json", {
        "alphabet": list(ab), "m": 1,
        "parts": {"0": "", "1": [[c, fn(c)] for c in ab],
                  "2": [[s, fn(s)] for s in _strings(ab, 2, 2)]},
    })
    level = size(14, 5)
    jobs.append(Job("extend-one-bounded", "cli",
                    ["extend", "--input", partial, "--bound", str(level)],
                    0, _extension_of(fn, 2 ** (level + 1) - 1)))

    x0, x1 = ab
    m_exp = 3
    level = size(9, 6)
    jobs.append(Job("theta-chain", "cli",
                    ["theta", "chain", "--alphabet", ab, "--x0", x0, "--x1", x1,
                     "--m-exp", str(m_exp), "--bound", str(level)],
                    0, _chain(m_exp - 1)))
    level = size(12, 5)
    jobs.append(Job("theta-rep", "cli",
                    ["theta", "rep", "--alphabet", ab, "--x0", x0, "--x1", x1,
                     "--m-exp", str(m_exp), "--bound", str(level)],
                    0, _representatives(2 ** (level + 1) - 1)))

    # A structured length profile: identity below n1, then a window of
    # period ell whose entries jump by whole periods.  The first window
    # entry moves by exactly ell, so classification recovers (n1, ell).
    n1, ell = rng.randrange(6, 9), 5
    window = list(range(n1)) + [n1 + ell] + [
        n + ell * rng.randrange(0, 3) for n in range(n1 + 1, n1 + ell)
    ]
    horizon = size(480, 40)
    values = [window[n] if n < n1 + ell else window[n1 + (n - n1) % ell]
              for n in range(horizon + 1)]
    profile = _write(d, "profile.json", values)
    jobs.append(Job("alpha-check", "cli",
                    ["alpha", "check", "--input", profile],
                    0, _verdict("holds")))
    jobs.append(Job("alpha-classify", "cli",
                    ["alpha", "classify", "--input", profile],
                    0, _classified(n1, ell, window)))

    # ofo's kernel refines that of |ofo|, and not the other way round.
    level = size(12, 5)
    first = _fn_spec(d, "compare-ofo.json", ab, level, _builtin("ofo"))
    second = _fn_spec(d, "compare-length-of-ofo.json", ab, level,
                      _builtin("length_of", inner=_builtin("ofo")))
    jobs.append(Job("compare-ofo", "cli",
                    ["compare", "--input", first, "--input", second,
                     "--bound", str(level)],
                    0, _relation("strictly-above"), (first, second)))

    horizon, max_value = size(5, 3), size(5, 3)
    jobs.append(Job("sweep-alpha-api", "api",
                    ["sweep", str(horizon), str(max_value), "2"],
                    0, _sweep((max_value + 1) ** (horizon + 1))))
    return jobs


_GENERATORS = {
    "holds-scan": _holds_scan,
    "fails-witness": _fails_witness,
    "construct": _construct,
}


def build(workload: str, seed: int, out_dir: Path, toy: bool = False) -> list[Job]:
    """Write the workload's specs for ``seed`` into ``out_dir``; return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, Path(out_dir),
                               lambda full, small: small if toy else full)
