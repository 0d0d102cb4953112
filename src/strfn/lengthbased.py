"""Length-profile analysis: functions that only look at string length.

A *length profile* is a map alpha: N -> N recorded as a finite table
``values[0..N]`` over its horizon N.  Associative functions that depend
on input length only are exactly the compositions ``psi . alpha . len``
where ``|psi(n)| = n`` and alpha satisfies the pair of equations checked
by :func:`check_alpha_equations`:

- alpha(alpha(n)) = alpha(n)
- alpha(n) = alpha(n') implies alpha(n+k) = alpha(n'+k)

The shift equation is checked per value class: each later occurrence
of a value is compared, in one slice, with the value's first occurrence.
A failing table is reported as the pairwise scan would: idempotence by
n, then pairs n < n2 of equal entries, then shifts k.

Such profiles have a rigid shape, captured by :class:`AlphaFn`: either
the identity, or an initial identity segment of length ``n1`` followed
by an eventually periodic tail of period ``ell`` whose first window
satisfies ``alpha(n) >= n`` and ``alpha(n) = n (mod ell)``.
:func:`classify_alpha` recovers that shape from a raw table or rejects.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import (
    STRING, TOKEN, Alphabet, BoundedFn, Domain, Record, Token, Value, _is_count, _is_int,
)
from .errors import (
    InsufficientHorizonError, MalformedSpecError, MissingEntryError, PreconditionError,
    UnevaluableError, WitnessError,
)

# reports, checkers, builtins and forkmap are imported by the functions
# that use them, so classifying profiles compiles none of them.
if TYPE_CHECKING:
    from .reports import CheckReport

IDENTITY = "identity"
STRUCTURED = "structured"


class AlphaFn(Record):
    """A classified length profile, evaluable at every n >= 0.

    ``values`` stores the window [0, n1 + ell); beyond it the profile
    repeats with period ``ell``.  The identity kind ignores the fields.
    """

    __slots__ = _fields = ("kind", "n1", "ell", "values")

    def __init__(self, kind: str, n1: int = 0, ell: int = 1,
                 values: tuple[int, ...] = ()) -> None:
        self.kind = kind
        self.n1 = n1
        self.ell = ell
        self.values = values

    @property
    def standard(self) -> bool:
        """True when alpha(n) = 0 holds for n = 0 only."""
        return self.kind == IDENTITY or self.n1 > 0


def identity_alpha() -> AlphaFn:
    return AlphaFn(IDENTITY)


class AlphaRejection(Record):
    """Why a table or window is not a valid profile of the rigid shape."""

    __slots__ = _fields = ("condition", "message")

    def __init__(self, condition: str, message: str) -> None:
        self.condition = condition
        self.message = message


def eval_alpha(alpha: AlphaFn, n: int) -> int:
    if n < 0:
        raise ValueError(f"profile argument must be nonnegative, got {n}")
    if alpha.kind == IDENTITY:
        return n
    window = alpha.n1 + alpha.ell
    if n < window:
        return alpha.values[n]
    return alpha.values[alpha.n1 + (n - alpha.n1) % alpha.ell]


def _validate_table(values: Sequence[int]) -> None:
    if not isinstance(values, Sequence) or not values:
        raise MalformedSpecError("profile table must be a nonempty array of integers >= 0")
    for n, v in enumerate(values):
        if not _is_count(v):
            raise MalformedSpecError(f"profile table entry {n} must be a nonnegative int")


def _equations_hold(values: Sequence[int]) -> bool:
    """Both profile equations, on a table with no entry above its horizon.

    The shift equation is tested per value class: each later member m of
    a class with first member f must have ``values[f+1 : f+size-m] ==
    values[m+1:]``.  That suffices: for members f <= n < n2, the compares
    (f, n) and (f, n2) cover every shift k < size - n2, so alpha(n+k) =
    alpha(f+k) = alpha(n2+k).  The converse is the equation at (f, m).
    """
    size = len(values)
    first: dict[int, int] = {}
    for m, v in enumerate(values):
        if values[v] != v:
            return False
        f = first.setdefault(v, m)
        if f != m and values[f + 1 : f + size - m] != values[m + 1 :]:
            return False
    return True


def check_alpha_equations(values: Sequence[int]) -> CheckReport:
    """Check the two profile equations on the table's horizon.

    ``checked`` counts as the pairwise scan: one per entry for idempotence,
    then size-1-n2 shifts per pair n < n2 of equal entries.  A holding
    table (:func:`_equations_hold`) is counted in closed form.  A failing
    one is walked in the scan's order (n, then n2, then k) with one slice
    compare per pair, and only the first mismatching pair shift by shift.

    Raises UnevaluableError when some entry exceeds the horizon, since
    alpha(alpha(n)) would then be unreadable.
    """
    from .reports import Witness, _finish

    _validate_table(values)
    size = len(values)
    members: dict[int, list[int]] = {}
    checked = size
    for n, v in enumerate(values):
        if v >= size:
            raise UnevaluableError(f"entry alpha({n}) = {v} exceeds horizon {size - 1}")
        earlier = members.setdefault(v, [])
        checked += len(earlier) * (size - 1 - n)
        earlier.append(n)
    if _equations_hold(values):
        return _finish(None, checked, 0)
    for n, v in enumerate(values):
        if values[v] != v:
            witness = Witness((("n", str(n)),), Token(values[v]), Token(v))
            return _finish(witness, n + 1, 0, "alpha(alpha(n)) != alpha(n)")
    checked = size
    for n, v in enumerate(values):
        cls = members[v]
        for n2 in cls[cls.index(n) + 1 :]:
            if values[n + 1 : n + size - n2] == values[n2 + 1 :]:
                checked += size - 1 - n2
                continue
            k = next(k for k in range(1, size - n2) if values[n + k] != values[n2 + k])
            witness = Witness((("n", str(n)), ("n2", str(n2)), ("k", str(k))),
                              Token(values[n + k]), Token(values[n2 + k]))
            return _finish(witness, checked + k, 0, "equal values fail to shift together")
    return _finish(None, checked, 0)


def _window_rejection(values: Sequence[int], n1: int, ell: int) -> AlphaRejection | None:
    """Rejection for the first n in [n1, n1 + ell) with alpha(n) < n or off n mod ell."""
    for n in range(n1, n1 + ell):
        v = values[n]
        if v < n:
            return AlphaRejection("window-growth", f"alpha({n}) = {v} < {n} inside the window")
        if (v - n) % ell != 0:
            return _residue_rejection(values, n, ell)
    return None


def _residue_rejection(values: Sequence[int], n: int, ell: int) -> AlphaRejection:
    return AlphaRejection("window-residue",
                          f"alpha({n}) = {values[n]} is not congruent to {n} mod {ell}")


def _verify_period(values: Sequence[int], start: int, period: int) -> tuple[int, int] | None:
    """First (n, n + period) with n >= start and alpha(n) != alpha(n + period), or None.

    One slice compare decides; the break is walked only when it fails.
    """
    stop = max(start, len(values) - period)
    if values[start:stop] == values[start + period :]:
        return None
    for n in range(start, stop):
        if values[n] != values[n + period]:
            return (n, n + period)


def classify_alpha(values: Sequence[int]) -> AlphaFn | AlphaRejection:
    """Recover the rigid shape of a profile table, or reject.

    The threshold is the least index touched by any disagreement with the
    identity (on either side), and the candidate period is the smallest
    jump ``|alpha(n) - n|``.  Raises InsufficientHorizonError when the
    table is too short to confirm one full period past the threshold.
    """
    _validate_table(values)
    return _classify(values)


def _shape(values: Sequence[int]) -> tuple[int, int, bool]:
    """The verdict of :func:`classify_alpha` on a valid table: (n, ell, accepted).

    ``ell`` is 0 for the identity.  ``n`` is the threshold n1, except for
    a table rejected by its window: there ``n`` is the first window entry
    off its residue, where :func:`_classify` explains the rejection.

    One pass over the table finds the threshold n1, the least of
    min(n, alpha(n)) over the moved n (those with alpha(n) != n), and the
    period ell, the least jump |alpha(n) - n|.  The first moved n0 sets
    both.  A later moved n has n > n0 >= n1, so it can lower n1 only
    through alpha(n).

    Only the residue is tested in the window [n1, n1 + ell): no n there
    has alpha(n) < n.  Such an n is moved, so alpha(n) >= n1, and it would
    jump by n - alpha(n) <= n - n1 < ell, below the least jump.  The
    period is then one slice compare.  Raises InsufficientHorizonError.
    """
    it = enumerate(values)
    for n, v in it:
        if v != n:
            n1, ell = min(n, v), abs(v - n)
            break
    else:
        return 0, 0, True
    for n, v in it:
        if v != n:
            if v < n1:
                n1 = v
            if abs(v - n) < ell:
                ell = abs(v - n)

    horizon = len(values) - 1
    if horizon < n1 + 2 * ell:
        raise InsufficientHorizonError(n1, ell, horizon)
    for n in range(n1, n1 + ell):
        if (values[n] - n) % ell:
            return n, ell, False
    return n1, ell, values[n1:-ell] == values[n1 + ell :]


def _classify(values: Sequence[int]) -> AlphaFn | AlphaRejection:
    """:func:`classify_alpha` on a table already known to be valid.

    The verdict comes from :func:`_shape`.  A rejection is explained at
    the window entry it returns when that entry is off its residue (no
    window entry grows, so this is the first failure
    :func:`_window_rejection` would report), else by the first period
    break from n1, which :func:`_verify_period` finds.
    """
    n, ell, accepted = _shape(values)
    if not ell:
        return identity_alpha()
    if accepted:
        return AlphaFn(STRUCTURED, n, ell, tuple(values[: n + ell]))
    if (values[n] - n) % ell:
        return _residue_rejection(values, n, ell)
    n, n2 = _verify_period(values, n, ell)
    return AlphaRejection(
        "periodicity", f"alpha({n}) = {values[n]} but alpha({n2}) = {values[n2]}"
    )


def synthesize_alpha(n1: int, ell: int, window: Sequence[int]) -> AlphaFn | AlphaRejection:
    """Build a structured profile from its window, validating the shape."""
    if not _is_count(n1):
        raise MalformedSpecError(f"threshold must be a nonnegative int, got {n1!r}")
    if not _is_count(ell) or ell < 1:
        raise MalformedSpecError(f"period must be a positive int, got {ell!r}")
    _validate_table(window)
    if len(window) != n1 + ell:
        raise MalformedSpecError(f"window must have {n1 + ell} entries, got {len(window)}")
    for n in range(n1):
        if window[n] != n:
            return AlphaRejection(
                "identity-prefix", f"alpha({n}) = {window[n]} != {n} below the threshold"
            )
    if rejection := _window_rejection(window, n1, ell):
        return rejection
    return AlphaFn(STRUCTURED, n1, ell, tuple(window))


def minimal_period(
    values: Sequence[int], witnesses: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Combine periodicity witnesses into (min threshold, gcd of periods).

    Every supplied witness is verified against the table first, and so is
    the combined witness; a table whose horizon is too short to support
    the gcd combination is reported as a WitnessError rather than
    silently accepted.
    """
    _validate_table(values)
    if not isinstance(witnesses, Sequence) or not witnesses:
        raise MalformedSpecError("at least one periodicity witness is required")
    for w in witnesses:
        if not (isinstance(w, Sequence) and len(w) == 2 and _is_count(w[0])
                and _is_int(w[1]) and w[1] > 0):
            raise WitnessError(f"malformed witness {w!r}")
        start, period = w
        broke = _verify_period(values, start, period)
        if broke is not None:
            raise WitnessError(
                f"witness ({start}, {period}) fails: "
                f"alpha({broke[0]}) != alpha({broke[1]})"
            )
    start = min(w[0] for w in witnesses)
    period = math.gcd(*(w[1] for w in witnesses))
    broke = _verify_period(values, start, period)
    if broke is not None:
        raise WitnessError(
            f"combined witness ({start}, {period}) fails on this horizon: "
            f"alpha({broke[0]}) != alpha({broke[1]})"
        )
    return (start, period)


# ---------------------------------------------------------------------------
# composing and decomposing length-based functions


class PsiTable(Record):
    """Partial map n -> string with |psi(n)| = n, held as pairs sorted by n."""

    __slots__ = ("entries", "_map")
    _fields = ("entries",)

    def __init__(self, entries: Sequence[tuple[int, str]]) -> None:
        if not isinstance(entries, Sequence):
            raise MalformedSpecError("psi table must be an array of [n, string] pairs")
        mapping: dict[int, str] = {}
        for pair in entries:
            if not (isinstance(pair, Sequence) and len(pair) == 2
                    and _is_int(pair[0]) and isinstance(pair[1], str)):
                raise MalformedSpecError(f"psi entry {pair!r} must be an [n, string] pair")
            n, s = pair
            if len(s) != n:
                raise MalformedSpecError(f"psi({n}) = {s!r} must have length {n}")
            if n in mapping:
                raise MalformedSpecError(f"psi has more than one entry for {n}")
            mapping[n] = s
        self.entries = tuple(sorted(mapping.items()))
        self._map = mapping

    def apply(self, n: int) -> str:
        try:
            return self._map[n]
        except KeyError:
            raise MissingEntryError(f"psi has no entry for {n}")


def psi_table(pairs: Mapping[int, str] | Sequence[tuple[int, str]]) -> PsiTable:
    return PsiTable(tuple(pairs.items()) if isinstance(pairs, Mapping) else pairs)


def _psi_alpha_length(alpha: AlphaFn, psi: PsiTable, s: str) -> str:
    """Closed form psi(alpha(|x|)); associative whenever alpha classifies."""
    return psi.apply(eval_alpha(alpha, len(s)))


def compose_length_based(
    alphabet: Alphabet, bound: int, alpha: AlphaFn, psi: PsiTable
) -> BoundedFn:
    """Build psi(alpha(|x|)) as a bounded function, validating coverage."""
    from .builtins import BuiltinDef

    for k in range(bound + 1):
        out = psi.apply(eval_alpha(alpha, k))
        alphabet.validate(out)
    return BoundedFn(alphabet, bound,
                     BuiltinDef("length_based", _psi_alpha_length, alpha=alpha, psi=psi))


class LengthBasedRejection(Record):
    __slots__ = _fields = ("reason", "message")

    def __init__(self, reason: str, message: str) -> None:
        self.reason = reason
        self.message = message


def _constant_per_length(
    dom: Domain, key: Callable[[Value], object], detail: str | None
) -> CheckReport:
    """Verify key(F(x)) is the same for all x of each length in the domain."""
    from .reports import Witness, _scan

    vals = dom.vals

    def outcomes():
        for _, same_length in itertools.groupby(vals, len):
            first = next(same_length)
            for s in same_length:
                same = key(vals[s]) == key(vals[first])
                yield None if same else Witness((("x", first), ("y", s)), vals[first], vals[s])

    return _scan(outcomes(), detail)


def check_length_based(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(x) depends on |x| only (any codomain)."""
    return _constant_per_length(
        fn.domain(level), lambda v: v, "same length, different values"
    )


def check_weakly_length_based(fn: BoundedFn, level: int) -> CheckReport:
    """Verify |F(x)| depends on |x| only (string-valued functions)."""
    from .checkers import _require_string_valued

    dom = fn.domain(level)
    _require_string_valued(fn, "weak length-basedness check")
    return _constant_per_length(dom, len, "same length, different output lengths")


def decompose_length_based(
    fn: BoundedFn, level: int
) -> tuple[AlphaFn, PsiTable] | LengthBasedRejection:
    """Split a length-based string function into its alpha and psi parts.

    Rejects when the function is not length-based, when equal profile
    values would force an inconsistent psi, or when the recovered profile
    table does not classify.  InsufficientHorizonError propagates.
    """
    from .checkers import _require_string_valued

    dom = fn.domain(level)
    _require_string_valued(fn, "length-based decomposition")
    report = _constant_per_length(dom, lambda v: v, None)
    if not report.ok:
        (_, x), (_, y) = report.witness.bindings
        return LengthBasedRejection(
            "not-length-based",
            f"F({x!r}) = {report.witness.lhs!r} but F({y!r}) = {report.witness.rhs!r}",
        )
    # Each length's first string in length-lex order repeats the first letter.
    per_length = [dom.vals[fn.alphabet.letters[0] * k] for k in range(level + 1)]

    table = [len(v) for v in per_length]
    psi_entries: dict[int, str] = {}
    for k, v in enumerate(per_length):
        n = table[k]
        if n in psi_entries and psi_entries[n] != v:
            return LengthBasedRejection(
                "inconsistent-psi",
                f"profile value {n} maps to both {psi_entries[n]!r} and {v!r}",
            )
        psi_entries[n] = v

    shape = classify_alpha(table)
    if isinstance(shape, AlphaRejection):
        return LengthBasedRejection(
            "profile-" + shape.condition, shape.message
        )
    return shape, psi_table(psi_entries)


class RelabeledLengthDef(Record):
    """Closed form f(mu(|x|)) with f injective on the reachable strings."""

    __slots__ = _fields = ("mu", "relabel", "codomain")

    def __init__(self, mu: dict[int, str], relabel: dict[str, Value], codomain: str) -> None:
        self.mu = mu
        self.relabel = relabel
        self.codomain = codomain

    def apply(self, s: str) -> Value:
        mu, relabel = self.mu, self.relabel
        if len(s) not in mu:
            raise MissingEntryError(f"mu has no entry for length {len(s)}")
        out = mu[len(s)]
        if out not in relabel:
            raise MissingEntryError(f"relabeling has no entry for {out!r}")
        return relabel[out]


def compose_preassoc_length_based(
    alphabet: Alphabet,
    bound: int,
    mu: Mapping[int, str],
    relabel: Mapping[str, Value],
) -> BoundedFn:
    """Build f(mu(|x|)), the general length-based preassociative form.

    Requires |mu(n)| to classify as a valid profile on 0..bound and the
    relabeling to be injective on the strings mu actually produces.
    """
    table = []
    for n in range(bound + 1):
        if n not in mu:
            raise MissingEntryError(f"mu has no entry for length {n}")
        alphabet.validate(mu[n])
        table.append(len(mu[n]))
    shape = classify_alpha(table)
    if isinstance(shape, AlphaRejection):
        raise PreconditionError(f"|mu(n)| is not a valid profile: {shape.message}")

    reachable = {mu[n] for n in range(bound + 1)}
    seen: dict[Value, str] = {}
    kinds = set()
    for s in sorted(reachable):
        if s not in relabel:
            raise MissingEntryError(f"relabeling has no entry for {s!r}")
        v = relabel[s]
        if isinstance(v, str):
            alphabet.validate(v)
        elif not isinstance(v, Token):
            raise MalformedSpecError(f"relabeling value {v!r} for {s!r} is not a string or Token")
        kinds.add(STRING if isinstance(v, str) else TOKEN)
        if v in seen and seen[v] != s:
            raise PreconditionError(f"relabeling is not injective: {seen[v]!r} and {s!r} "
                                    f"both map to {v!r}")
        seen[v] = s
    if len(kinds) > 1:
        raise PreconditionError("relabeling mixes string and token values")
    codomain = kinds.pop() if kinds else TOKEN

    mu_entries = {n: mu[n] for n in range(bound + 1)}
    relabel_entries = {s: relabel[s] for s in sorted(reachable)}
    return BoundedFn(alphabet, bound, RelabeledLengthDef(mu_entries, relabel_entries, codomain))


# ---------------------------------------------------------------------------
# exhaustive sweep: equations vs classification


class AlphaSweep(Record):
    __slots__ = _fields = ("total", "equations_hold", "accepted", "rejected", "insufficient",
                           "mismatches")
    __hash__ = None

    def __init__(self, total: int = 0, equations_hold: int = 0, accepted: int = 0,
                 rejected: int = 0, insufficient: int = 0,
                 mismatches: list[tuple[int, ...]] | None = None) -> None:
        self.total = total
        self.equations_hold = equations_hold
        self.accepted = accepted
        self.rejected = rejected
        self.insufficient = insufficient
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def agree(self) -> bool:
        return not self.mismatches


def _sweep_chunk(prefix: int, horizon: int, max_value: int) -> AlphaSweep:
    equations_hold = accepted = insufficient = 0
    mismatches = []
    above = max_value > horizon  # else no entry can exceed the horizon
    for values in itertools.product((prefix,), *[range(max_value + 1)] * horizon):
        try:
            ok = _shape(values)[2]
        except InsufficientHorizonError:
            insufficient += 1
            continue
        if above and max(values) > horizon:
            insufficient += 1
            continue
        holds = _equations_hold(values)
        equations_hold += holds
        accepted += ok
        if ok != holds:
            mismatches.append(values)
    total = (max_value + 1) ** horizon
    return AlphaSweep(total, equations_hold, accepted, total - insufficient - accepted,
                      insufficient, mismatches)


def sweep_alpha_tables(horizon: int, max_value: int, jobs: int = 1) -> AlphaSweep:
    """Compare the profile equations with classify_alpha over all tables.

    Enumerates every table of length horizon+1 with entries 0..max_value.
    A table is counted under ``insufficient``, and left out of the
    comparison, when classify_alpha raises InsufficientHorizonError or an
    entry exceeds the horizon (possible when max_value > horizon), where
    the equations cannot be evaluated.  Deterministic for any worker count.
    """
    if not _is_count(horizon):
        raise MalformedSpecError(f"horizon must be a nonnegative int, got {horizon!r}")
    if not _is_count(max_value):
        raise MalformedSpecError(f"max_value must be a nonnegative int, got {max_value!r}")
    if not (_is_int(jobs) and jobs > 0):
        raise MalformedSpecError(f"jobs must be a positive int, got {jobs!r}")
    from .forkmap import starmap

    chunks = starmap(
        _sweep_chunk, [(p, horizon, max_value) for p in range(max_value + 1)], jobs
    )
    total = AlphaSweep()
    for chunk in chunks:
        total.total += chunk.total
        total.equations_hold += chunk.equations_hold
        total.accepted += chunk.accepted
        total.rejected += chunk.rejected
        total.insufficient += chunk.insufficient
        total.mismatches += chunk.mismatches
    return total
