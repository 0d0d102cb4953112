"""Closed-form example functions: the toolkit's standard fixtures.

Every builtin is one :class:`BuiltinDef`: its registry name, its params,
and a module-level closed form with those params bound.  Its factory
validates the params and wraps it in a :class:`~strfn.core.BoundedFn`.
A definition pickles, equals another with the same name and params, and
hashes when its params do; ``length_of`` over a table, whose entries
are a dict, does not.  ``BUILTINS`` registers each factory under the
name spec files use for it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping

from .core import STRING, TOKEN, Alphabet, BoundedFn, Token, Value
from .errors import MalformedSpecError, PreconditionError

if TYPE_CHECKING:
    from .lengthbased import AlphaFn, PsiTable


class BuiltinDef:
    """A builtin's definition: ``apply(s)`` is ``closed_form(*params.values(), s)``.

    ``name`` and ``params`` are what a spec file holds, so the params are
    given in the closed form's order, which is also the registry's.
    """

    __slots__ = ("name", "params", "codomain", "apply")

    def __init__(self, name: str, closed_form: Callable[..., Value],
                 codomain: str = STRING, **params: object) -> None:
        self.name = name
        self.params = params
        self.codomain = codomain
        self.apply = partial(closed_form, *params.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BuiltinDef):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, *self.params.items()))

    def __repr__(self) -> str:
        return f"BuiltinDef({self.name!r}, {self.params!r})"


def _identity(s: str) -> str:
    return s


def _sort(order: tuple[str, ...], s: str) -> str:
    """Stable sort of the letters by the given order."""
    return "".join(sorted(s, key=order.index))


def _letter_remove(letter: str, s: str) -> str:
    """Delete every occurrence of one letter; a monoid endomorphism."""
    return s.replace(letter, "")


def _letter_remove_g(letter: str, s: str) -> str:
    """Like ``_letter_remove``, except powers of the letter collapse to it.

    Sends every string in {a}* (the empty string included) to "a", and
    anything else to its letter-removed form.  Associative but not
    standard: the value at the empty string is "a".
    """
    if set(s) <= {letter}:
        return letter
    return s.replace(letter, "")


def _ofo(s: str) -> str:
    """Keep only the first occurrence of each letter, in order."""
    return "".join(dict.fromkeys(s))


def _separator_insert(bar: str, s: str) -> str:
    """Insert the bar letter between adjacent letters when neither is a bar."""
    if not s:
        return s
    out = [s[0]]
    for prev, cur in zip(s, s[1:]):
        if prev != bar and cur != bar:
            out.append(bar)
        out.append(cur)
    return "".join(out)


def _length(s: str) -> Token:
    return Token(len(s))


def _inner_length(inner: object, s: str) -> Token:
    """Length of another definition's output: |inner(x)|."""
    return Token(len(inner.apply(s)))


def _constant(value: Value, s: str) -> Value:
    return value


def identity_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, BuiltinDef("identity", _identity))


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
    return BoundedFn(alphabet, bound, BuiltinDef("sort", _sort, order=tuple(order)))


def letter_remove_fn(alphabet: Alphabet, bound: int, letter: str) -> BoundedFn:
    alphabet.index(letter)
    return BoundedFn(alphabet, bound, BuiltinDef("letter_remove", _letter_remove,
                                                 letter=letter))


def letter_remove_g_fn(alphabet: Alphabet, bound: int, letter: str) -> BoundedFn:
    alphabet.index(letter)
    return BoundedFn(alphabet, bound, BuiltinDef("letter_remove_g", _letter_remove_g,
                                                 letter=letter))


def ofo_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, BuiltinDef("ofo", _ofo))


def separator_insert_fn(alphabet: Alphabet, bound: int, bar: str) -> BoundedFn:
    alphabet.index(bar)
    return BoundedFn(alphabet, bound, BuiltinDef("separator_insert", _separator_insert,
                                                 bar=bar))


def length_fn(alphabet: Alphabet, bound: int) -> BoundedFn:
    return BoundedFn(alphabet, bound, BuiltinDef("length", _length, TOKEN))


def length_of_fn(inner: BoundedFn) -> BoundedFn:
    """Token-valued |inner(x)|; requires a string-valued inner function."""
    if not inner.string_valued:
        raise PreconditionError("length_of requires a string-valued inner function")
    return BoundedFn(inner.alphabet, inner.bound,
                     BuiltinDef("length_of", _inner_length, TOKEN, inner=inner.definition))


def constant_fn(alphabet: Alphabet, bound: int, value: Value) -> BoundedFn:
    if isinstance(value, str):
        alphabet.validate(value)
    elif not isinstance(value, Token):
        raise MalformedSpecError(f"constant value {value!r} is not a string or Token")
    codomain = STRING if isinstance(value, str) else TOKEN
    return BoundedFn(alphabet, bound, BuiltinDef("constant", _constant, codomain, value=value))


def _length_of(alphabet: Alphabet, bound: int, inner: BoundedFn) -> BoundedFn:
    """``length_of_fn``, for an inner function over ``alphabet`` and ``bound``."""
    if inner.alphabet != alphabet or inner.bound != bound:
        raise PreconditionError(
            f"length_of over {alphabet.letters} to bound {bound} got an inner function "
            f"over {inner.alphabet.letters} to bound {inner.bound}"
        )
    return length_of_fn(inner)


def _length_based(alphabet: Alphabet, bound: int, alpha: AlphaFn, psi: PsiTable) -> BoundedFn:
    """``compose_length_based``; its layer loads when one is built."""
    from .lengthbased import compose_length_based

    return compose_length_based(alphabet, bound, alpha, psi)


# Param kinds; specio keeps one JSON codec per kind.
LETTER, ORDER, VALUE, PROFILE, PSI, FUNCTION = (
    "letter", "order", "value", "profile", "psi", "function")


def _is_order(v: object) -> bool:
    return v is None or (isinstance(v, (tuple, list, str))
                         and all(isinstance(c, str) for c in v))


def _is_profile(v: object) -> bool:
    from .lengthbased import AlphaFn

    return isinstance(v, AlphaFn)


def _is_psi(v: object) -> bool:
    from .lengthbased import PsiTable

    return isinstance(v, PsiTable)


# What an API param of each kind must be; the factory checks its value.
# The two length-profile kinds load their layer, which their factory needs.
_KIND_TYPES: dict[str, tuple[str, Callable[[object], bool]]] = {
    LETTER: ("a letter", lambda v: isinstance(v, str)),
    ORDER: ("a sequence of letters or None", _is_order),
    VALUE: ("a string or Token", lambda v: isinstance(v, (str, Token))),
    PROFILE: ("an AlphaFn", _is_profile),
    PSI: ("a PsiTable", _is_psi),
    FUNCTION: ("a BoundedFn", lambda v: isinstance(v, BoundedFn)),
}


class Builtin:
    """A spec name's factory.  ``params`` maps each param, which the
    definition holds under the same key, to its kind, in serialized
    order; the factory defaults the ``optional``."""

    __slots__ = ("factory", "params", "optional")

    def __init__(self, factory: Callable[..., BoundedFn],
                 params: Mapping[str, str] | None = None,
                 optional: tuple[str, ...] = ()) -> None:
        self.factory = factory
        self.params = params or {}
        self.optional = optional


BUILTINS: dict[str, Builtin] = {
    "identity": Builtin(identity_fn),
    "sort": Builtin(sort_fn, {"order": ORDER}, ("order",)),
    "letter_remove": Builtin(letter_remove_fn, {"letter": LETTER}),
    "letter_remove_g": Builtin(letter_remove_g_fn, {"letter": LETTER}),
    "ofo": Builtin(ofo_fn),
    "separator_insert": Builtin(separator_insert_fn, {"bar": LETTER}),
    "length": Builtin(length_fn),
    "length_of": Builtin(_length_of, {"inner": FUNCTION}),
    "constant": Builtin(constant_fn, {"value": VALUE}),
    "length_based": Builtin(_length_based, {"alpha": PROFILE, "psi": PSI}),
}


def build_builtin(
    name: str, alphabet: Alphabet, bound: int, params: Mapping[str, object] | None = None
) -> BoundedFn:
    """Construct a builtin by its registry name, as used in spec files.

    Raises MalformedSpecError for an unknown name, a missing or unknown
    param, or a param whose type does not fit its kind.
    """
    entry = BUILTINS.get(name)
    if entry is None:
        raise MalformedSpecError(f"unknown builtin {name!r}")
    params = dict(params or {})
    for key, value in params.items():
        if key not in entry.params:
            raise MalformedSpecError(f"builtin {name!r} has no parameter {key!r}")
        what, accepts = _KIND_TYPES[entry.params[key]]
        if not accepts(value):
            raise MalformedSpecError(f"builtin {name!r} parameter {key!r} must be {what}, "
                                     f"got {type(value).__name__}")
    for key in entry.params:
        if key not in params and key not in entry.optional:
            raise MalformedSpecError(f"builtin {name!r} is missing parameter {key!r}")
    return entry.factory(alphabet, bound, **params)
