"""Closed-form example functions: the toolkit's standard fixtures.

Each builtin is a small frozen definition object wrapped in a
:class:`~strfn.core.BoundedFn` by its factory.  Definitions pickle; they
hash only when their params do, so ``length_of`` over a table, whose
entries are a dict, does not.  ``BUILTINS`` registers each one under the
name spec files use for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import STRING, TOKEN, Alphabet, BoundedFn, Token, Value
from .errors import MalformedSpecError, PreconditionError
from .lengthbased import LengthBasedDef, compose_length_based


@dataclass(frozen=True)
class IdentityDef:
    codomain: str = STRING

    def apply(self, s: str) -> str:
        return s


@dataclass(frozen=True)
class SortDef:
    """Stable sort of the letters by the given order."""

    order: tuple[str, ...]
    codomain: str = STRING

    def apply(self, s: str) -> str:
        return "".join(sorted(s, key=self.order.index))


@dataclass(frozen=True)
class LetterRemoveDef:
    """Delete every occurrence of one letter; a monoid endomorphism."""

    letter: str
    codomain: str = STRING

    def apply(self, s: str) -> str:
        return s.replace(self.letter, "")


@dataclass(frozen=True)
class LetterRemoveGDef:
    """Like LetterRemoveDef, except powers of the letter collapse to it.

    Sends every string in {a}* (the empty string included) to "a", and
    anything else to its letter-removed form.  Associative but not
    standard: the value at the empty string is "a".
    """

    letter: str
    codomain: str = STRING

    def apply(self, s: str) -> str:
        if set(s) <= {self.letter}:
            return self.letter
        return s.replace(self.letter, "")


@dataclass(frozen=True)
class OfoDef:
    """Keep only the first occurrence of each letter, in order."""

    codomain: str = STRING

    def apply(self, s: str) -> str:
        return "".join(dict.fromkeys(s))


@dataclass(frozen=True)
class SeparatorInsertDef:
    """Insert the bar letter between adjacent letters when neither is a bar."""

    bar: str
    codomain: str = STRING

    def apply(self, s: str) -> str:
        if not s:
            return s
        out = [s[0]]
        for prev, cur in zip(s, s[1:]):
            if prev != self.bar and cur != self.bar:
                out.append(self.bar)
            out.append(cur)
        return "".join(out)


@dataclass(frozen=True)
class LengthDef:
    codomain: str = TOKEN

    def apply(self, s: str) -> Token:
        return Token(len(s))


@dataclass(frozen=True)
class LengthOfDef:
    """Length of another definition's output: |inner(x)|."""

    inner: object
    codomain: str = TOKEN

    def apply(self, s: str) -> Token:
        return Token(len(self.inner.apply(s)))


@dataclass(frozen=True)
class ConstantDef:
    value: Value

    @property
    def codomain(self) -> str:
        return STRING if isinstance(self.value, str) else TOKEN

    def apply(self, s: str) -> Value:
        return self.value


def identity_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, IdentityDef())


def sort_fn(
    alphabet: Alphabet, bound: int, order: tuple[str, ...] | None = None
) -> BoundedFn:
    """Sort letters by alphabet order, or by an explicit reordering of it."""
    if order is None:
        order = alphabet.letters
    if sorted(order) != sorted(alphabet.letters):
        raise PreconditionError(
            f"sort order {order!r} is not a permutation of the alphabet"
        )
    return BoundedFn(alphabet, bound, SortDef(tuple(order)))


def letter_remove_fn(alphabet: Alphabet, bound: int, letter: str) -> BoundedFn:
    alphabet.index(letter)
    return BoundedFn(alphabet, bound, LetterRemoveDef(letter))


def letter_remove_g_fn(alphabet: Alphabet, bound: int, letter: str) -> BoundedFn:
    alphabet.index(letter)
    return BoundedFn(alphabet, bound, LetterRemoveGDef(letter))


def ofo_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, OfoDef())


def separator_insert_fn(alphabet: Alphabet, bound: int, bar: str) -> BoundedFn:
    alphabet.index(bar)
    return BoundedFn(alphabet, bound, SeparatorInsertDef(bar))


def length_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, LengthDef())


def length_of_fn(inner: BoundedFn) -> BoundedFn:
    """Token-valued |inner(x)|; requires a string-valued inner function."""
    if not inner.string_valued:
        raise PreconditionError("length_of requires a string-valued inner function")
    return BoundedFn(inner.alphabet, inner.bound, LengthOfDef(inner.definition))


def constant_fn(alphabet: Alphabet, bound: int, value: Value) -> BoundedFn:
    if isinstance(value, str):
        alphabet.validate(value)
    return BoundedFn(alphabet, bound, ConstantDef(value))


# Param kinds; specio keeps one JSON codec per kind.
LETTER, ORDER, VALUE, PROFILE, PSI, FUNCTION = (
    "letter", "order", "value", "profile", "psi", "function")


@dataclass(frozen=True)
class Builtin:
    """A spec name's definition class and factory.  ``params`` maps each
    param, which the definition stores under the same attribute name, to
    its kind, in serialized order; the factory defaults the ``optional``."""

    definition: type
    factory: Callable[..., BoundedFn]
    params: Mapping[str, str] = field(default_factory=dict)
    optional: tuple[str, ...] = ()


BUILTINS: dict[str, Builtin] = {
    "identity": Builtin(IdentityDef, identity_fn),
    "sort": Builtin(SortDef, sort_fn, {"order": ORDER}, ("order",)),
    "letter_remove": Builtin(LetterRemoveDef, letter_remove_fn, {"letter": LETTER}),
    "letter_remove_g": Builtin(LetterRemoveGDef, letter_remove_g_fn, {"letter": LETTER}),
    "ofo": Builtin(OfoDef, ofo_fn),
    "separator_insert": Builtin(SeparatorInsertDef, separator_insert_fn, {"bar": LETTER}),
    "length": Builtin(LengthDef, length_fn),
    # The inner function carries its own alphabet and bound.
    "length_of": Builtin(LengthOfDef, lambda alphabet, bound, inner: length_of_fn(inner),
                         {"inner": FUNCTION}),
    "constant": Builtin(ConstantDef, constant_fn, {"value": VALUE}),
    "length_based": Builtin(LengthBasedDef, compose_length_based,
                            {"alpha": PROFILE, "psi": PSI}),
}


def build_builtin(
    name: str, alphabet: Alphabet, bound: int, params: Mapping[str, object] | None = None
) -> BoundedFn:
    """Construct a builtin by its registry name, as used in spec files."""
    entry = BUILTINS.get(name)
    if entry is None:
        raise MalformedSpecError(f"unknown builtin {name!r}")
    params = dict(params or {})
    for key in params:
        if key not in entry.params:
            raise MalformedSpecError(f"builtin {name!r} has no parameter {key!r}")
    for key in entry.params:
        if key not in params and key not in entry.optional:
            raise MalformedSpecError(f"builtin {name!r} is missing parameter {key!r}")
    return entry.factory(alphabet, bound, **params)
