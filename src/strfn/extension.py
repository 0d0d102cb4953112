"""Unique associative extension of low-arity data.

An m-bounded associative function is pinned down by its behaviour on
strings of at most m + 1 letters.  This module holds such low-arity
tables (:class:`VariadicParts`), validates a :class:`PartialSpec` against
the three compatibility conditions that make extension possible, and
grows the unique associative function on X^<=L by the fold G(yz) = G(G(y)z).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from .core import (
    STRING, Alphabet, BoundedFn, Record, Value, _total_table, count_strings,
    enumerate_strings,
)
from .errors import ConditionsFailedError, MalformedSpecError, PreconditionError
from .reports import FAILS, VACUOUS, CheckReport, Witness, _scan

Part = dict[str, Value]


class VariadicParts(Record):
    """Low-arity tables F_0..F_{m+1}, any codomain, total per arity; m is derived.

    ``parts[k]`` maps each string of length k to its value.
    """

    __slots__ = _fields = ("alphabet", "parts")

    def __init__(self, alphabet: Alphabet, parts: tuple[Part, ...]) -> None:
        self.alphabet = alphabet
        self.parts = parts
        self._validate()

    def _validate(self) -> None:
        if len(self.parts) < 2:
            raise MalformedSpecError("need tables for arities 0 and 1 at least")
        for k, part in enumerate(self.parts):
            expected = set(enumerate_strings(self.alphabet, k, min_len=k))
            if part.keys() != expected:
                raise MalformedSpecError(
                    f"arity-{k} table must cover exactly the {len(expected)} "
                    f"strings of length {k}"
                )

    @property
    def m(self) -> int:
        return len(self.parts) - 2

    def value_at(self, s: str) -> Value:
        """Evaluate via the stored parts; arity must be at most m + 1."""
        if len(s) >= len(self.parts):
            raise MalformedSpecError(
                f"arity {len(s)} exceeds the stored tables (max {self.m + 1})"
            )
        try:
            return self.parts[len(s)][s]
        except KeyError:
            raise MalformedSpecError(f"no entry for {s!r}")


class PartialSpec(VariadicParts):
    """Tables whose every output is a string of at most m letters, so that
    a stored output plus one letter is again a key of the tables."""

    __slots__ = ()

    def _validate(self) -> None:
        super()._validate()
        for k, part in enumerate(self.parts):
            for out in part.values():
                if not isinstance(out, str):
                    raise MalformedSpecError(
                        f"output {out!r} at arity {k} is not a string"
                    )
                self.alphabet.validate(out)
                if len(out) > self.m:
                    raise MalformedSpecError(
                        f"output {out!r} at arity {k} exceeds the bound {self.m}"
                    )


def _pack(parts: Sequence[Mapping[str, Value] | Value]) -> tuple[Part, ...]:
    """One dict per arity, keys sorted; the arity-0 part may be a bare value."""
    packed = []
    for k, part in enumerate(parts):
        if not isinstance(part, Mapping):
            if k != 0:
                raise MalformedSpecError(
                    f"bare value only allowed for arity 0, not {k}"
                )
            part = {"": part}
        packed.append(dict(sorted(part.items())))
    return tuple(packed)


def variadic_parts(
    alphabet: Alphabet, parts: Sequence[Mapping[str, Value] | Value]
) -> VariadicParts:
    """Constructor accepting dicts per arity; arity 0 may be a bare value."""
    return VariadicParts(alphabet, _pack(parts))


def partial_spec(
    alphabet: Alphabet,
    m: int,
    parts: Sequence[Mapping[str, str] | str],
) -> PartialSpec:
    """Convenience constructor; the arity-0 part may be given as a bare value."""
    packed = _pack(parts)
    if m < 0:
        raise MalformedSpecError(f"bound must be nonnegative, got {m}")
    if len(packed) != m + 2:
        raise MalformedSpecError(
            f"need parts for arities 0..{m + 1}, got {len(packed)} tables"
        )
    return PartialSpec(alphabet, packed)


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
    reports["a"] = _scan(
        (None if low(v) == v else Witness((("k", str(k)), ("x", x)), low(v), v)
         for k in range(spec.m + 2) for x, v in spec.parts[k].items()),
        "stored output is not a fixed point",
    )
    empty = low("")
    reports["b"] = _scan(
        (None if low(x) == low(x + empty) else Witness((("x", x),), low(x), low(x + empty))
         for x in spec.alphabet.letters),
        "appending the empty-string value changes a letter",
    )
    sides = ("",) + spec.alphabet.letters
    folds = ((x, y, z, low(low(x + y) + z), low(x + low(y + z))) for y, x, z in
             itertools.product(enumerate_strings(spec.alphabet, spec.m), sides, sides))
    reports["c"] = _scan(
        (None if lhs == rhs else Witness((("x", x), ("y", y), ("z", z)), lhs, rhs)
         for x, y, z, lhs, rhs in folds),
        "one-step folds disagree",
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
    # X^(n+1) in length-lex order is each string of X^n in order followed
    # by each letter in turn, so a string's prefix is the one it grew from.
    letters = spec.alphabet.letters
    entries: dict[str, str] = {s: spec.value_at(s)
                               for s in enumerate_strings(spec.alphabet, spec.m + 1)}
    strings = [s for s in entries if len(s) == spec.m + 1]
    for _ in range(spec.m + 2, level + 1):
        grown = []
        for prefix in strings:
            head = entries[prefix]
            for a in letters:
                s = prefix + a
                folded = head + a
                if folded not in entries:
                    raise MalformedSpecError(
                        f"fold {folded!r} of {s!r} leaves the stored arities; "
                        f"outputs must have at most m = {spec.m} letters"
                    )
                entries[s] = entries[folded]
                grown.append(s)
        strings = grown
    return _total_table(spec.alphabet, level, STRING, entries)


def extend(spec: PartialSpec, level: int) -> BoundedFn:
    """Validate the spec and grow its unique associative extension."""
    reports = verify_conditions(spec)
    failing = sorted(name for name, r in reports.items() if r.verdict == FAILS)
    if failing:
        raise ConditionsFailedError(
            f"extension conditions {', '.join(failing)} failed", reports
        )
    return recursion_extension(spec, level)


def _require_gates(what: str, gates: dict[str, CheckReport]) -> None:
    """Raise PreconditionError naming the failing gates, with their reports."""
    bad = {name: r for name, r in gates.items() if r.verdict == FAILS}
    if bad:
        raise PreconditionError(
            f"{what} preconditions failed: " + ", ".join(sorted(bad)), bad
        )


def check_determination(
    fn: BoundedFn, other: BoundedFn, m: int, level: int
) -> CheckReport:
    """Two associative m-bounded functions agreeing up to arity m+1 agree everywhere.

    Preconditions (associativity, boundedness) are verified first and a
    failure is raised as PreconditionError carrying the reports.  When
    the low-arity parts differ the claim does not apply: VACUOUS.
    """
    from .checkers import check_associative_full, check_m_bounded

    if fn.alphabet != other.alphabet:
        raise PreconditionError("determination check requires a common alphabet")
    f_vals = fn.domain(level).vals
    g_vals = other.domain(level).vals
    _require_gates("determination", {
        "first associative": check_associative_full(fn, level),
        "first m-bounded": check_m_bounded(fn, m, level),
        "second associative": check_associative_full(other, level),
        "second m-bounded": check_m_bounded(other, m, level),
    })

    # Length-lex order puts every low-arity string first: the parts of
    # arity <= m + 1 are compared, then everything else is counted.
    strings = fn.domain(level).strings
    cut = count_strings(fn.alphabet, min(m + 1, level))
    for s in strings[:cut]:
        if f_vals[s] != g_vals[s]:
            return CheckReport(
                VACUOUS, Witness((("x", s),), f_vals[s], g_vals[s]), 0, 0,
                detail="low-arity parts differ; determination does not apply",
            )
    return _scan(
        (None if f_vals[s] == g_vals[s] else Witness((("x", s),), f_vals[s], g_vals[s])
         for s in strings[cut:]),
        "functions agree at low arity but split here",
    )


def identity_patch(fn: BoundedFn, k: int, m: int, level: int) -> BoundedFn:
    """Replace the parts of arity <= k with the identity; stays associative.

    Requires k <= m and an associative, m-bounded input up to level.  The
    patched entries are read off the checked domain in length-lex order, so
    the result is its own domain at ``level``.
    """
    from .checkers import check_associative_full, check_m_bounded

    if k > m:
        raise PreconditionError(f"patch arity {k} exceeds the bound m = {m}")
    _require_gates("patch", {
        "associative": check_associative_full(fn, level),
        "m-bounded": check_m_bounded(fn, m, level),
    })
    entries = {
        s: (s if len(s) <= k else v) for s, v in fn.value_map(level).items()
    }
    return _total_table(fn.alphabet, level, STRING, entries)


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
            dict(zip(keys[lo:hi], assignment[lo:hi]))
            for lo, hi in arity_of
        )
        yield PartialSpec(alphabet, parts)
