"""Alphabets, bounded string domains, and function carriers.

Strings are plain Python ``str`` values and the empty string is the unit
of concatenation.  An :class:`Alphabet` fixes the letter set together
with the letter order used for sorting, lexicographic comparison, and
length-lex enumeration.  Variadic string functions are carried by
:class:`BoundedFn`: a definition (closed form or lookup table) evaluated
on every string up to a length bound.

All checkers in this package quantify over the bounded domain
``X^0 ∪ ... ∪ X^L`` in *length-lex* order: shorter strings first, ties
broken letter by letter in alphabet order.  Everything downstream leans
on :func:`enumerate_strings` producing exactly that order, and reads the
function's values there from one :class:`Domain` per level.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterator, Mapping, Union

from .errors import AlphabetError, MalformedSpecError, MissingEntryError, OutOfDomainError

STRING = "string"
TOKEN = "token"


class Record:
    """Equality, hash and repr read off the per-class field names ``_fields``.

    Two instances are equal when they are of the same class, subclasses
    apart, and their fields are equal; ``hash`` is the hash of the field
    tuple and ``repr`` is ``Name(field=value, ...)``.  Each subclass
    declares ``__slots__`` and sets its fields in ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Token:
    """Opaque codomain value, compared by equality only.

    Tokens let a table or builtin map strings into an abstract value set
    (numbers, labels) that is disjoint from every string codomain.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: int | str) -> None:
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.payload,))

    def __repr__(self) -> str:
        return f"Token({self.payload!r})"


Value = Union[str, Token]


class Alphabet(Record):
    """A finite, totally ordered set of single-character letters."""

    __slots__ = ("letters", "_index")
    _fields = ("letters",)

    def __init__(self, letters: tuple[str, ...]) -> None:
        if not letters:
            raise AlphabetError("alphabet must contain at least one letter")
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise AlphabetError(f"letters must be single characters, got {ch!r}")
        if len(set(letters)) != len(letters):
            raise AlphabetError("alphabet letters must be distinct")
        self.letters = letters
        self._index = {ch: i for i, ch in enumerate(letters)}

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, ch: str) -> int:
        try:
            return self._index[ch]
        except KeyError:
            raise AlphabetError(f"letter {ch!r} is not in alphabet {self.letters}")

    def validate(self, s: str) -> str:
        """Return ``s`` unchanged, raising if it uses foreign letters."""
        for ch in s:
            if ch not in self._index:
                raise AlphabetError(
                    f"string {s!r} uses letter {ch!r} outside alphabet {self.letters}"
                )
        return s

    def sort_key(self, s: str) -> tuple[int, ...]:
        """Per-letter indices; usable as a lexicographic key."""
        idx = self._index
        return tuple(idx[ch] for ch in s)

    def length_lex_key(self, s: str) -> tuple[int, tuple[int, ...]]:
        """Sort key realizing the length-lex order on strings."""
        return (len(s), self.sort_key(s))


def concat(x: str, y: str, alphabet: Alphabet | None = None) -> str:
    """Concatenate two strings, optionally validating both over ``alphabet``."""
    if alphabet is not None:
        alphabet.validate(x)
        alphabet.validate(y)
    return x + y


def power(x: str, n: int) -> str:
    """The n-th concatenation power of ``x``; ``power(x, 0)`` is the empty string."""
    if n < 0:
        raise ValueError(f"power requires a nonnegative exponent, got {n}")
    return x * n


def enumerate_strings(
    alphabet: Alphabet, max_len: int, min_len: int = 0
) -> Iterator[str]:
    """Yield every string of length min_len..max_len in length-lex order."""
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    letters = alphabet.letters
    for k in range(min_len, max_len + 1):
        for combo in itertools.product(letters, repeat=k):
            yield "".join(combo)


def count_strings(alphabet: Alphabet, max_len: int) -> int:
    """Number of strings in the bounded domain ``X^0 ∪ ... ∪ X^max_len``."""
    n = len(alphabet)
    return sum(n**k for k in range(max_len + 1))


class TableDef(Record):
    """Lookup-table definition, total on the carrier's bounded domain."""

    __slots__ = _fields = ("codomain", "entries")

    def __init__(self, codomain: str, entries: Mapping[str, Value]) -> None:
        self.codomain = codomain
        self.entries = entries

    def apply(self, s: str) -> Value:
        try:
            return self.entries[s]
        except KeyError:
            raise MissingEntryError(f"table has no entry for {s!r}")


class BoundedFn(Record):
    """A variadic string function evaluated on strings up to ``bound``.

    ``definition`` is any object with a ``codomain`` attribute
    ("string" or "token") and an ``apply(s) -> Value`` method; lookup
    tables and the closed-form builtins both satisfy this.
    """

    __slots__ = ("alphabet", "bound", "definition", "_domain")
    _fields = ("alphabet", "bound", "definition")

    def __init__(self, alphabet: Alphabet, bound: int, definition: object) -> None:
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        self.alphabet = alphabet
        self.bound = bound
        self.definition = definition
        # The latest domain built by domain(); freed together with the function.
        self._domain: Domain | None = None

    @property
    def codomain(self) -> str:
        return self.definition.codomain

    @property
    def string_valued(self) -> bool:
        return self.codomain == STRING

    def eval(self, s: str) -> Value:
        if len(s) > self.bound:
            raise OutOfDomainError(
                f"string of length {len(s)} exceeds evaluation bound {self.bound}"
            )
        return self.definition.apply(self.alphabet.validate(s))

    def __call__(self, s: str) -> Value:
        return self.eval(s)

    def domain(self, level: int | None = None) -> Domain:
        """The evaluated domain X^{<=level} (default: the bound).

        Memoized for the most recent level, so the checkers and
        constructions run on one function evaluate each string once.
        """
        level = self.bound if level is None else level
        dom = self._domain
        if dom is None or dom.level != level:
            dom = self._domain = Domain(self, level)
        return dom

    def value_map(self, max_len: int | None = None) -> dict[str, Value]:
        """Evaluate on the whole bounded domain; keys in length-lex order.

        The map is the domain's own: read it, do not mutate it.
        """
        return self.domain(max_len).vals


class Domain:
    """The values of one function on X^{<=level}, each evaluated once.

    ``vals`` is the only thing built eagerly; its keys are in length-lex
    order.  It is given as ``vals`` when the caller already holds it (a
    total table at its bound), else evaluated.  The string list, the
    kernel classes and the context pool are derived from it on first use.
    Everything here is shared by every caller of :meth:`BoundedFn.domain`,
    so callers must not mutate it.
    """

    def __init__(self, fn: BoundedFn, level: int,
                 vals: dict[str, Value] | None = None) -> None:
        if level < 0:
            raise ValueError(f"check bound must be nonnegative, got {level}")
        if level > fn.bound:
            raise OutOfDomainError(
                f"check bound {level} exceeds the function's evaluation bound {fn.bound}"
            )
        self.alphabet = fn.alphabet
        self.level = level
        if vals is None:
            apply = fn.definition.apply
            vals = {s: apply(s) for s in enumerate_strings(fn.alphabet, level)}
        self.vals: dict[str, Value] = vals

    @cached_property
    def strings(self) -> list[str]:
        return list(self.vals)

    def of_length(self, k: int) -> list[str]:
        """The strings of length exactly ``k``, in length-lex order."""
        start = count_strings(self.alphabet, k - 1)
        return self.strings[start:start + len(self.alphabet) ** k]

    @cached_property
    def classes(self) -> dict[Value, list[str]]:
        """Kernel classes keyed by value, in first-seen order.

        Members are in length-lex order, so each class's first member is
        its leader, the length-lex least preimage of the value.
        """
        classes: dict[Value, list[str]] = {}
        for s, v in self.vals.items():
            classes.setdefault(v, []).append(s)
        return classes

    @cached_property
    def context_counts(self) -> list[int]:
        """``cum[b]``, the number of contexts (x, z) with |x| + |z| <= b.

        A string of length t splits into x and z in t + 1 ways, so cum[b] =
        sum over t <= b of (t + 1)·|X|^t; ``cum[level]`` also counts the
        splits (x, y) over every string of the domain.
        """
        k = len(self.alphabet)
        return list(itertools.accumulate((t + 1) * k**t for t in range(self.level + 1)))

    @cached_property
    def contexts(self) -> list[tuple[str, str]]:
        """All context pairs (x, z) with |x|+|z| <= level.

        Ordered by total length, then x in length-lex order, then z, so
        the contexts within a budget b are the prefix ``context_counts[b]``.
        """
        words = [self.of_length(t) for t in range(self.level + 1)]
        return [(x, z) for total in range(self.level + 1) for i in range(total + 1)
                for x in words[i] for z in words[total - i]]


def table_fn(
    alphabet: Alphabet,
    bound: int,
    source: Callable[[str], Value] | Mapping[str, Value],
    codomain: str = STRING,
) -> BoundedFn:
    """Materialize a total lookup table over the bounded domain.

    ``source`` is either a callable evaluated on every string up to
    ``bound`` or a mapping that must cover exactly those strings; string
    outputs are validated against the alphabet.
    """
    if codomain not in (STRING, TOKEN):
        raise MalformedSpecError(f"codomain must be 'string' or 'token', got {codomain!r}")
    entries: dict[str, Value] = {}
    getter = source if callable(source) else source.__getitem__
    for s in enumerate_strings(alphabet, bound):
        try:
            v = getter(s)
        except KeyError:
            raise MissingEntryError(f"table source has no entry for {s!r}")
        if codomain == STRING:
            if not isinstance(v, str):
                raise MalformedSpecError(f"string-valued table produced {v!r} for {s!r}")
            alphabet.validate(v)
        elif not isinstance(v, Token):
            raise MalformedSpecError(f"token-valued table produced {v!r} for {s!r}")
        entries[s] = v
    if not callable(source) and len(source) > len(entries):
        extra = next(s for s in source if s not in entries)
        raise MalformedSpecError(f"table has an entry for {extra!r} outside X^<={bound}")
    return _total_table(alphabet, bound, codomain, entries)


def _total_table(alphabet: Alphabet, bound: int, codomain: str,
                 entries: dict[str, Value]) -> BoundedFn:
    """The table of ``entries``, which holds X^{<=bound} in length-lex order.

    The dict also serves as the function's domain at its bound, so the
    table is neither evaluated nor copied a second time.
    """
    fn = BoundedFn(alphabet, bound, TableDef(codomain, entries))
    fn._domain = Domain(fn, bound, entries)
    return fn
