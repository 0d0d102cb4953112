"""Block-substitution equivalence, canonical representatives, kernel order.

Fix two distinct nonempty strings and an exponent index m.  Two strings
are equivalent when one can be turned into the other by repeatedly
replacing a single occurrence of the first string's 2^m-th power with
the second's, or back.  Picking the length-lex least member of each
class yields an idempotent, class-constant representative function —
and as m grows these functions form a strictly increasing chain in the
kernel quasiorder computed by :func:`preceq`.
"""

from __future__ import annotations

from collections import deque

from .core import (
    STRING, Alphabet, BoundedFn, Record, Value, _is_count, _total_table, enumerate_strings,
)
from .errors import MalformedSpecError, OutOfDomainError, PreconditionError


class ThetaSpec(Record):
    """Substitution data: swap x0^(2^m) with x1^(2^m)."""

    __slots__ = _fields = ("x0", "x1", "m")

    def __init__(self, x0: str, x1: str, m: int = 0) -> None:
        if not (isinstance(x0, str) and isinstance(x1, str) and x0 and x1):
            raise MalformedSpecError("substitution strings must be nonempty strings")
        if x0 == x1:
            raise MalformedSpecError("substitution strings must be distinct")
        if not _is_count(m):
            raise MalformedSpecError(f"exponent index must be a nonnegative int, got {m!r}")
        self.x0 = x0
        self.x1 = x1
        self.m = m

    @property
    def blocks(self) -> tuple[str, str]:
        reps = 2**self.m
        return (self.x0 * reps, self.x1 * reps)


class ThetaClass(Record):
    """A closure result: members in length-lex order, truncation flagged.

    ``truncated`` is True when some rewrite left the bounded domain, so
    the true (unbounded) class has members beyond these.
    """

    __slots__ = _fields = ("members", "truncated")

    def __init__(self, members: tuple[str, ...], truncated: bool) -> None:
        self.members = members
        self.truncated = truncated

    @property
    def rep(self) -> str:
        return self.members[0]

    def __contains__(self, s: str) -> bool:
        return s in self.members

    def __len__(self) -> int:
        return len(self.members)


def _occurrence_rewrites(s: str, old: str, new: str) -> list[str]:
    out = []
    start = 0
    while True:
        i = s.find(old, start)
        if i < 0:
            return out
        out.append(s[:i] + new + s[i + len(old):])
        start = i + 1


def _blocks(spec: ThetaSpec, level: int) -> tuple[str, str]:
    # A block longer than the level never occurs in X^{<=level}, and swapping
    # it in always leaves the domain; a stand-in of level + 1 letters does the
    # same, so 2^m is computed only when it is at most the level.
    reps = 2**spec.m if spec.m < level.bit_length() else level + 1
    return (spec.x0 * reps)[: level + 1], (spec.x1 * reps)[: level + 1]


def _closure(x: str, spec: ThetaSpec, level: int) -> tuple[set[str], bool]:
    block0, block1 = _blocks(spec, level)
    seen = {x}
    queue = deque([x])
    truncated = False
    while queue:
        cur = queue.popleft()
        for old, new in ((block0, block1), (block1, block0)):
            for nxt in _occurrence_rewrites(cur, old, new):
                if len(nxt) > level:
                    truncated = True
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen, truncated


def theta_class(x: str, spec: ThetaSpec, level: int, alphabet: Alphabet) -> ThetaClass:
    """Close {x} under single-occurrence block swaps, breadth first; length-lex members."""
    if len(x) > level:
        raise OutOfDomainError(f"|{x!r}| exceeds the bound {level}")
    for s in (x, spec.x0, spec.x1):
        alphabet.validate(s)
    members, truncated = _closure(x, spec, level)
    return ThetaClass(tuple(sorted(members, key=alphabet.length_lex_key)), truncated)


def canonical_rep(x: str, spec: ThetaSpec, level: int, alphabet: Alphabet) -> str:
    """The length-lex least member of x's class: the value of F^m at x."""
    return theta_class(x, spec, level, alphabet).rep


def theta_rep_fn(alphabet: Alphabet, bound: int, spec: ThetaSpec) -> BoundedFn:
    """The canonical-representative function F^m, as a table on X^{<=bound}.

    Every string starts labelled with itself.  One length-lex pass runs
    the BFS only from a string that holds a block and is still its own
    label, and labels the whole class with that string.  Swaps are
    reversible, so the bounded classes partition the domain, and a string
    keeps its own label when reached iff no earlier string shares its
    class.  A string with neither block is a class of its own: no swap
    applies to it, and none leads to it, since the swap back would need a
    block.  The labels fill a dict keyed in length-lex order, which is
    the table and its domain at the bound.
    """
    alphabet.validate(spec.x0)
    alphabet.validate(spec.x1)
    if not _is_count(bound):
        raise MalformedSpecError(f"bound must be a nonnegative int, got {bound!r}")
    block0, block1 = _blocks(spec, bound)
    entries = {s: s for s in enumerate_strings(alphabet, bound)}
    for s, rep in entries.items():  # only values change, so the loop is safe
        if rep == s and (block0 in s or block1 in s):
            members, _ = _closure(s, spec, bound)
            entries.update(dict.fromkeys(members, s))
    return _total_table(alphabet, bound, STRING, entries)


EQUIVALENT = "equivalent"
STRICTLY_BELOW = "strictly-below"
STRICTLY_ABOVE = "strictly-above"
INCOMPARABLE = "incomparable"


class KernelComparison(Record):
    """Outcome of comparing two kernels on the bounded domain.

    ``first_below_second`` means the second function's kernel refines the
    first's (knowing the second's value pins down the first's).  The
    separating pair, when present, is of strings identified by one
    function but distinguished by the other.
    """

    __slots__ = _fields = ("relation", "first_below_second", "second_below_first",
                           "separating")

    def __init__(self, relation: str, first_below_second: bool, second_below_first: bool,
                 separating: tuple[str, str] | None) -> None:
        self.relation = relation
        self.first_below_second = first_below_second
        self.second_below_first = second_below_first
        self.separating = separating


def theta_chain(alphabet: Alphabet, bound: int, x0: str, x1: str,
                last: int) -> list[tuple[int, KernelComparison]]:
    """Compare F^m with F^(m+1) on X^{<=bound}, for m = 1, ..., ``last``.

    From the least m* with a block longer than the bound, no swap stays in
    the domain and F^m is the identity, so F^m is built only for m <= m*,
    and each pair from m* on is equivalent.  Each F^m is built once; only
    the pair being compared is kept alive.
    """
    ThetaSpec(x0, x1)  # the blocks' checks, before their lengths divide the bound
    alphabet.validate(x0)
    alphabet.validate(x1)
    if not (_is_count(bound) and _is_count(last)):
        raise MalformedSpecError(
            f"bound and last must be nonnegative ints, got {bound!r} and {last!r}")
    identity_from = (bound // max(len(x0), len(x1))).bit_length()
    rows = []
    hi = None
    for m in range(1, last + 1):
        if m >= identity_from:
            rows.append((m, KernelComparison(EQUIVALENT, True, True, None)))
            continue
        lo = hi or theta_rep_fn(alphabet, bound, ThetaSpec(x0, x1, m))
        hi = theta_rep_fn(alphabet, bound, ThetaSpec(x0, x1, m + 1))
        rows.append((m, preceq(lo, hi, bound)))
    return rows


def _constant_on_classes(
    grouper: dict[str, Value], checker: dict[str, Value]
) -> tuple[str, str] | None:
    """First pair (length-lex by class leader) grouped together but split."""
    leaders: dict[Value, str] = {}
    for s, g in grouper.items():
        if g not in leaders:
            leaders[g] = s
        elif checker[leaders[g]] != checker[s]:
            return (leaders[g], s)
    return None


def preceq(fn: BoundedFn, other: BoundedFn, level: int) -> KernelComparison:
    """Compare kernels: fn is below other when other's kernel is finer."""
    if fn.alphabet != other.alphabet:
        raise PreconditionError("kernel comparison requires a common alphabet")
    f_vals = fn.domain(level).vals
    g_vals = other.domain(level).vals

    not_f_below = _constant_on_classes(g_vals, f_vals)
    not_g_below = _constant_on_classes(f_vals, g_vals)
    f_below, g_below = not_f_below is None, not_g_below is None
    if f_below and g_below:
        return KernelComparison(EQUIVALENT, True, True, None)
    if f_below:
        return KernelComparison(STRICTLY_BELOW, True, False, not_g_below)
    if g_below:
        return KernelComparison(STRICTLY_ABOVE, False, True, not_f_below)
    return KernelComparison(INCOMPARABLE, False, False, not_f_below)
