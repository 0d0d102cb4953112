"""Unique associative extension of low-arity data.

An m-bounded associative function is pinned down by its behaviour on
strings of at most m + 1 letters.  This module validates a package of
such low-arity tables (:class:`PartialSpec`) against the three
compatibility conditions that make extension possible, and then grows
the unique associative function on X^<=L from them by the fold
G(yz) = G(G(y)z).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .checkers import (
    FAILS,
    VACUOUS,
    CheckReport,
    Witness,
    _finish,
    check_associative_full,
    check_m_bounded,
)
from .core import STRING, Alphabet, BoundedFn, TableDef, enumerate_strings, table_fn
from .errors import ConditionsFailedError, MalformedSpecError, PreconditionError

Part = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PartialSpec:
    """Total tables for arities 0..m+1, every output at most m letters."""

    alphabet: Alphabet
    m: int
    parts: tuple[Part, ...]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise MalformedSpecError(f"bound must be nonnegative, got {self.m}")
        if len(self.parts) != self.m + 2:
            raise MalformedSpecError(
                f"need parts for arities 0..{self.m + 1}, got {len(self.parts)} tables"
            )
        for k, part in enumerate(self.parts):
            keys = [s for s, _ in part]
            expected = list(enumerate_strings(self.alphabet, k, min_len=k))
            if sorted(keys) != sorted(expected):
                raise MalformedSpecError(
                    f"arity-{k} table must cover exactly the {len(expected)} "
                    f"strings of length {k}"
                )
            for s, out in part:
                self.alphabet.validate(out)
                if len(out) > self.m:
                    raise MalformedSpecError(
                        f"output {out!r} at arity {k} exceeds the bound {self.m}"
                    )

    @cached_property
    def _maps(self) -> tuple[dict[str, str], ...]:
        return tuple(dict(part) for part in self.parts)

    def value_at(self, s: str) -> str:
        """Evaluate via the stored parts; arity must be at most m + 1."""
        if len(s) >= len(self.parts):
            raise MalformedSpecError(
                f"arity {len(s)} exceeds the stored tables (max {self.m + 1})"
            )
        return self._maps[len(s)][s]


def partial_spec(
    alphabet: Alphabet,
    m: int,
    parts: Sequence[Mapping[str, str] | str],
) -> PartialSpec:
    """Convenience constructor; the arity-0 part may be given as a bare value."""
    packed: list[Part] = []
    for k, part in enumerate(parts):
        if isinstance(part, str):
            if k != 0:
                raise MalformedSpecError(
                    f"bare string only allowed for arity 0, not {k}"
                )
            part = {"": part}
        packed.append(tuple(sorted(part.items())))
    return PartialSpec(alphabet, m, tuple(packed))


def verify_conditions(spec: PartialSpec) -> dict[str, CheckReport]:
    """Check the three extension conditions, one report each.

    (a) every stored output is a fixed point of the low-arity data;
    (b) appending the empty-string value to a letter does not change it;
    (c) the two one-step folds agree on strings of at most m + 2 letters,
        with the outer sides ranging over single letters *and* the empty
        string.  Restricting the sides to letters is too weak: the spec
        with F(a) = ε and F(aa) = b satisfies the letter-only instances
        yet admits no associative extension, because F(aa) = F(aF(a))
        = F(a) is forced.  The empty-side instances pin the stored
        tables to the fold itself.
    All evaluations stay inside the stored tables because outputs have
    at most m letters.
    """
    low = spec.value_at

    reports: dict[str, CheckReport] = {}

    witness = None
    checked = 0
    for k in range(spec.m + 2):
        for x, v in spec.parts[k]:
            checked += 1
            if low(v) != v:
                witness = Witness((("k", str(k)), ("x", x)), low(v), v)
                break
        if witness:
            break
    reports["a"] = _finish(
        witness, checked, 0, detail="stored output is not a fixed point" if witness else None
    )

    witness = None
    checked = 0
    empty_val = low("")
    for x in spec.alphabet.letters:
        checked += 1
        if low(x) != low(x + empty_val):
            witness = Witness((("x", x),), low(x), low(x + empty_val))
            break
    reports["b"] = _finish(
        witness, checked, 0,
        detail="appending the empty-string value changes a letter" if witness else None,
    )

    witness = None
    checked = 0
    sides = ("",) + spec.alphabet.letters
    for y, x, z in itertools.product(enumerate_strings(spec.alphabet, spec.m), sides, sides):
        checked += 1
        lhs = low(low(x + y) + z)
        rhs = low(x + low(y + z))
        if lhs != rhs:
            witness = Witness((("x", x), ("y", y), ("z", z)), lhs, rhs)
            break
    reports["c"] = _finish(
        witness, checked, 0,
        detail="one-step folds disagree" if witness else None,
    )
    return reports


def recursion_extension(spec: PartialSpec, level: int) -> BoundedFn:
    """Grow the fold G(yz) = G(G(y)z) to X^<=level without validating.

    The raw construction: on an invalid spec the result is some function
    extending the parts, not necessarily associative.  Use extend() for
    the gated version.
    """
    if level < spec.m + 2:
        raise PreconditionError(
            f"extension level {level} must be at least m + 2 = {spec.m + 2}"
        )
    # One table, filled in length-lex order: the stored parts are already
    # validated, and every fold reads a shorter, already filled string.
    entries: dict[str, str] = {}
    for s in enumerate_strings(spec.alphabet, level):
        if len(s) <= spec.m + 1:
            entries[s] = spec.value_at(s)
            continue
        folded = entries[s[:-1]] + s[-1]
        if folded not in entries:
            raise MalformedSpecError(
                f"fold {folded!r} of {s!r} leaves the stored arities; "
                f"outputs must have at most m = {spec.m} letters"
            )
        entries[s] = entries[folded]
    return BoundedFn(spec.alphabet, level, TableDef(STRING, entries))


def extend(spec: PartialSpec, level: int) -> BoundedFn:
    """Validate the spec and grow its unique associative extension."""
    reports = verify_conditions(spec)
    failing = sorted(name for name, r in reports.items() if r.verdict == FAILS)
    if failing:
        raise ConditionsFailedError(
            f"extension conditions {', '.join(failing)} failed", reports
        )
    return recursion_extension(spec, level)


def check_determination(
    fn: BoundedFn, other: BoundedFn, m: int, level: int
) -> CheckReport:
    """Two associative m-bounded functions agreeing up to arity m+1 agree everywhere.

    Preconditions (associativity, boundedness) are verified first and a
    failure is raised as PreconditionError carrying the reports.  When
    the low-arity parts differ the claim does not apply: VACUOUS.
    """
    f_vals = fn.domain(level).vals
    g_vals = other.domain(level).vals
    gates = {
        "first associative": check_associative_full(fn, level),
        "first m-bounded": check_m_bounded(fn, m, level),
        "second associative": check_associative_full(other, level),
        "second m-bounded": check_m_bounded(other, m, level),
    }
    bad = {name: r for name, r in gates.items() if r.verdict == FAILS}
    if bad:
        raise PreconditionError(
            "determination preconditions failed: " + ", ".join(sorted(bad)), bad
        )

    # Length-lex order puts every low-arity string before the rest, so one
    # pass first compares the parts of arity <= m + 1, then everything else.
    checked = 0
    for s, a in f_vals.items():
        b = g_vals[s]
        if len(s) <= m + 1:
            if a != b:
                return CheckReport(
                    VACUOUS, Witness((("x", s),), a, b), 0, 0,
                    detail="low-arity parts differ; determination does not apply",
                )
            continue
        checked += 1
        if a != b:
            return CheckReport(
                FAILS, Witness((("x", s),), a, b), checked, 0,
                detail="functions agree at low arity but split here",
            )
    return _finish(None, checked, 0)


def identity_patch(fn: BoundedFn, k: int, m: int, level: int) -> BoundedFn:
    """Replace the parts of arity <= k with the identity; stays associative.

    Requires k <= m and an associative, m-bounded input up to level.
    """
    if k > m:
        raise PreconditionError(f"patch arity {k} exceeds the bound m = {m}")
    gates = {
        "associative": check_associative_full(fn, level),
        "m-bounded": check_m_bounded(fn, m, level),
    }
    bad = {name: r for name, r in gates.items() if r.verdict == FAILS}
    if bad:
        raise PreconditionError(
            "patch preconditions failed: " + ", ".join(sorted(bad)), bad
        )
    entries = {
        s: (s if len(s) <= k else v) for s, v in fn.value_map(level).items()
    }
    return table_fn(fn.alphabet, level, entries)


def enumerate_partial_specs(alphabet: Alphabet, m: int) -> Iterator[PartialSpec]:
    """Every m-bounded spec over the alphabet, in lexicographic table order."""
    outputs = list(enumerate_strings(alphabet, m))
    keys: list[str] = []
    arity_of: list[tuple[int, int]] = []
    start = 0
    for k in range(m + 2):
        level_keys = list(enumerate_strings(alphabet, k, min_len=k))
        keys.extend(level_keys)
        arity_of.append((start, start + len(level_keys)))
        start += len(level_keys)
    for assignment in itertools.product(outputs, repeat=len(keys)):
        parts = tuple(
            tuple(zip(keys[lo:hi], assignment[lo:hi]))
            for lo, hi in arity_of
        )
        yield PartialSpec(alphabet, m, parts)
