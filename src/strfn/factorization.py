"""Quasi-inverses and the inner/outer factorization F = f . H.

Every preassociative function splits as an injective relabeling f
applied to an associative string-valued core H = g . F, where g picks
one preimage for each value of F.  On a bounded domain the choice of g
can be made canonical: the length-lex smallest preimage, which is
automatically length-optimized.  This module builds that g, the
factorization, and the two condition bundles that govern when low-arity
data determines the whole function.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING

from .checkers import (
    _require_m,
    check_associative_full,
    check_m_determined_range,
    check_preassociative,
    check_standard,
)
from .core import STRING, BoundedFn, Record, Value, _total_table, enumerate_strings
from .errors import PreconditionError, QuasiInverseError
from .reports import SKIPPED, CheckReport, Witness, _finish, _scan

if TYPE_CHECKING:
    from .extension import VariadicParts


def kernel_classes(fn: BoundedFn, level: int) -> list[list[str]]:
    """Partition X^<=level by equal value, classes led by their smallest member."""
    return [list(members) for members in fn.domain(level).classes.values()]


class QuasiInverse(Record):
    """One chosen preimage per attained value: the length-lex smallest.

    ``entries`` maps each attained value to that preimage, in the order
    of the kernel classes (first seen in length-lex order).  The choice
    is length-optimized — |g(y)| is the least length at which y is
    attained on the bounded domain (an over-estimate only if the true
    minimal preimage lies beyond the bound).
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[Value, str]) -> None:
        self.entries = entries

    def apply(self, y: Value) -> str:
        try:
            return self.entries[y]
        except KeyError:
            raise QuasiInverseError(f"value {y!r} is not attained on the bounded domain")

    def __contains__(self, y: Value) -> bool:
        return y in self.entries


def quasi_inverse(fn: BoundedFn, level: int) -> QuasiInverse:
    """The kernel-class leaders of fn on X^<=level, keyed by value."""
    classes = fn.domain(level).classes
    return QuasiInverse({v: members[0] for v, members in classes.items()})


class Factorization(Record):
    """F = f . H with H = g . F associative exactly when F is preassociative."""

    # No __slots__: the instance __dict__ holds the lazily built _outer map,
    # which no CLI command reads; building it eagerly took 0.7 ms at 8191 classes.
    _fields = ("source", "g", "h", "f", "checks")
    __hash__ = None

    def __init__(self, source: BoundedFn, g: QuasiInverse, h: BoundedFn,
                 f: tuple[tuple[str, Value], ...], checks: dict[str, CheckReport]) -> None:
        self.source = source
        self.g = g
        self.h = h
        self.f = f
        self.checks = checks

    @property
    def clean(self) -> bool:
        """True when every attached verdict is non-failing."""
        return all(r.ok for r in self.checks.values())

    @cached_property
    def _outer(self) -> dict[str, Value]:
        return dict(self.f)

    def outer(self, s: str) -> Value:
        try:
            return self._outer[s]
        except KeyError:
            raise QuasiInverseError(f"{s!r} is not in the range of the inner function")


def factorize(fn: BoundedFn, level: int) -> Factorization:
    """Split fn into an associative core and an injective relabeling.

    Never raises on a non-preassociative input — the attached checks
    record that the core fails associativity instead, which is exactly
    the diagnostic the equivalence predicts.

    H sends each string to its class leader and f sends the leader to the
    class value.  Each leader is a member of its class, so F(leader) is
    that value: f . H = F and H . H = H by construction.  The empty string
    is the length-lex least string, so it leads its own class and
    H(empty) = g(F(empty)) = empty: a standard F has a standard core.
    H never lengthens a string (a leader is no longer than any member of
    its class), so "inner-associative" takes the one-letter pass of the
    associativity check for either verdict; a failing core scans only its
    witness string.  H is read off the evaluated domain in length-lex
    order, so its table is its own domain.
    """
    vals = fn.domain(level).vals
    g = quasi_inverse(fn, level)
    leader = g.entries
    f = tuple((s, v) for v, s in leader.items())
    inner = _total_table(fn.alphabet, level, STRING, {s: leader[v] for s, v in vals.items()})

    checks = {
        "source-preassociative": check_preassociative(fn, level),
        "inner-associative": check_associative_full(inner, level),
        "source-standard": check_standard(fn, level),
        "inner-standard": check_standard(inner, level),
    }
    return Factorization(fn, g, inner, f, checks)


def check_quasi_inverse_conditions(
    fn: BoundedFn, m: int, level: int
) -> dict[str, CheckReport]:
    """The four-part test for recovering F from arities <= m + 1.

    range: every value of the (m+1)-ary part already appears at arity <= m;
    a:     appending H(empty) to a letter changes nothing;
    b:     folding the first two letters through H commutes with folding
           the last two, on strings of at most m + 2 letters;
    c:     F(yz) = F(H(y)z) whenever |yz| <= level.
    H is g . F for the canonical quasi-inverse g.  Instances whose folded
    argument leaves the bounded domain are counted as skipped.  (a) holds
    for every F, with one instance per letter: H(empty) is always empty,
    because the empty string leads its own kernel class, so each instance
    compares F(x) with itself.
    """
    _require_m(m)
    dom = fn.domain(level)
    if m + 1 > level:
        raise PreconditionError(
            f"need level >= m + 1 = {m + 1} to read the (m+1)-ary part, got {level}"
        )
    vals = dom.vals
    g = quasi_inverse(fn, level)

    def h(s: str) -> str:
        return g.apply(vals[s])

    reports: dict[str, CheckReport] = {}

    low = {vals[s] for s in enumerate_strings(fn.alphabet, m)}
    reports["range"] = _scan(
        (None if vals[x] in low else Witness((("x", x),), vals[x], None)
         for x in enumerate_strings(fn.alphabet, m + 1, m + 1)),
        "value not attained at arity <= m",
    )
    reports["a"] = _finish(None, len(fn.alphabet), 0)
    letters = fn.alphabet.letters
    folds = ((x, y, z, h(x + y) + z, x + h(y + z)) for y, x, z in
             itertools.product(enumerate_strings(fn.alphabet, m), letters, letters))
    reports["b"] = _scan(
        SKIPPED if len(left) > level or len(right) > level
        else None if vals[left] == vals[right]
        else Witness((("x", x), ("y", y), ("z", z)), vals[left], vals[right])
        for x, y, z, left, right in folds
    )
    reports["c"] = _scan(
        None if v == vals[h(w[:i]) + w[i:]]
        else Witness((("y", w[:i]), ("z", w[i:])), v, vals[h(w[:i]) + w[i:]])
        for w, v in vals.items() for i in range(len(w) + 1)
    )
    return reports


def check_bounded_retraction(
    fn: BoundedFn, m: int, level: int
) -> dict[str, CheckReport]:
    """m-determined range <=> an m-bounded H with F = F . H.

    Reports: "range" always; when it does not fail, also "h-bounded"
    (|H(x)| <= m), "retraction" (F = F . H pointwise), and "partition" (on
    each block H^{-1}(X^k) the function coincides with its k-ary part
    after H).  Once "range" holds, the other three cannot fail, so each
    holds with one instance per string: every value is attained at arity
    <= m, so each class leader, the length-lex least member and H's image,
    has at most m letters; and F(H(x)) = F(leader) = F(x).  The partition
    tests the retraction's equation, with the block sizes in its detail.
    """
    reports = {"range": check_m_determined_range(fn, m, level)}
    if not reports["range"].ok:
        return reports

    dom = fn.domain(level)
    reports["h-bounded"] = reports["retraction"] = _finish(None, len(dom.vals), 0)
    blocks = Counter()
    for members in dom.classes.values():
        blocks[len(members[0])] += len(members)
    sizes = ", ".join(f"{k}: {blocks[k]}" for k in sorted(blocks))
    reports["partition"] = _finish(None, len(dom.vals), 0, f"block sizes {{{sizes}}}")
    return reports


def recursive_eval(parts: VariadicParts, g: QuasiInverse, x: str) -> Value:
    """Evaluate at any arity by folding through the quasi-inverse.

    Strings of at most m + 1 letters are direct lookups; longer ones fold
    left: the value so far is pulled back through g to a short string,
    the next letter is appended, and the parts are consulted again.
    """
    parts.alphabet.validate(x)
    top = parts.m + 1
    if len(x) <= top:
        return parts.value_at(x)
    value = parts.value_at(x[:top])
    for letter in x[top:]:
        pulled = g.apply(value)
        if len(pulled) + 1 > top:
            raise QuasiInverseError(
                f"pulled-back string {pulled!r} plus one letter exceeds "
                f"arity {top}; the quasi-inverse is not short enough"
            )
        value = parts.value_at(pulled + letter)
    return value
