"""JSON load/dump for functions, low-arity data, profiles, and reports.

File shapes:

- function spec: ``{"alphabet": [...], "bound": N, "function": {...}}``
  where the function object is ``{"kind": "builtin", "name": ..., "params":
  {...}}`` or ``{"kind": "table", "codomain": "string"|"token",
  "entries": [[input, output], ...]}``.
- builtins and their params: ``identity``, ``ofo``, ``length`` (none);
  ``sort`` (optional ``order``, every letter once, default the alphabet
  order); ``letter_remove``, ``letter_remove_g`` (``letter``);
  ``separator_insert`` (``bar`` letter); ``constant`` (``value``);
  ``length_of`` (``inner``, a string-valued function object);
  ``length_based`` (``alpha`` profile, ``psi`` table).  Missing and
  unknown params are rejected.
- token values: ``{"token": <int or string>}``; strings are plain text.
- low-arity package: ``{"alphabet": [...], "m": m, "parts": {"0": "...",
  "1": [[in, out], ...], ...}}``.
- profile: ``{"kind": "identity"}`` or ``{"kind": "structured", "n1": ...,
  "ell": ..., "values": [...]}``; psi tables are ``[[n, "..."], ...]``.

Dictionaries are built in deterministic order, so serialized output is
byte-stable without key sorting (which would scramble witness bindings).
The text is that of ``json.dumps(obj, indent=2)`` and a newline, built by
:mod:`strfn.jsontext`; ``write_to_json`` writes it a piece at a time, so
a long table is never held as one string, and ``function_to_json(fn,
streamed=True)`` hands it a table's rows straight from the table, so
they are never held as a list either.

On the input side a table is held once too: the loader builds one dict
from the rows, and when they list X^{<=L} in length-lex order (as every
table strfn writes does), that dict becomes the table and its domain.
Rows in any other order are reordered into a new dict, with the errors
``table_fn`` gives.

The codecs check JSON shape only where no layer can: the fields that
pick a decoder, a table's rows, token payloads, and the bound and ``m``,
which the loaders use before any layer sees them.  Every other value
goes to the layer that uses it as it was parsed, and that layer raises
:class:`MalformedSpecError` when it does not fit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Mapping

from . import jsontext
from .builtins import (
    BUILTINS, FUNCTION, LETTER, ORDER, PROFILE, PSI, VALUE, BuiltinDef, build_builtin,
)
from .core import (
    STRING, Alphabet, BoundedFn, TableDef, Token, Value, _canonical, _is_count, _is_int,
    _total_table, table_fn,
)
from .errors import MalformedSpecError

# The constructions' layers load inside the codecs that need them, so a
# command reading a function spec loads none of them.
if TYPE_CHECKING:
    from .extension import PartialSpec
    from .factorization import Factorization
    from .lengthbased import AlphaFn, PsiTable
    from .quotient import ThetaClass
    from .reports import CheckReport, Witness


def value_to_json(v: Value) -> Any:
    if isinstance(v, str):
        return v
    return {"token": v.payload}


def value_from_json(obj: Any) -> Value:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict) and set(obj) == {"token"}:  # json gives only dicts
        payload = obj["token"]
        if not (_is_int(payload) or isinstance(payload, str)):
            raise MalformedSpecError(f"token payload must be int or string: {obj!r}")
        return Token(payload)
    raise MalformedSpecError(f"not a value: {obj!r}")


def alphabet_to_json(alphabet: Alphabet) -> list[str]:
    return list(alphabet.letters)


def alphabet_from_json(obj: Any) -> Alphabet:
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise MalformedSpecError("alphabet must be an array of letters")
    return Alphabet(tuple(obj))


def alpha_to_json(alpha: AlphaFn) -> dict[str, Any]:
    from .lengthbased import IDENTITY, STRUCTURED

    if alpha.kind == IDENTITY:
        return {"kind": IDENTITY}
    return {
        "kind": STRUCTURED,
        "n1": alpha.n1,
        "ell": alpha.ell,
        "values": list(alpha.values),
    }


def alpha_from_json(obj: Any) -> AlphaFn:
    from .lengthbased import IDENTITY, STRUCTURED, AlphaFn, identity_alpha, synthesize_alpha

    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise MalformedSpecError(f"not a profile: {obj!r}")
    if obj["kind"] == IDENTITY:
        return identity_alpha()
    if obj["kind"] == STRUCTURED:
        made = synthesize_alpha(obj.get("n1"), obj.get("ell"), obj.get("values"))
        if isinstance(made, AlphaFn):
            return made
        raise MalformedSpecError(f"invalid profile: {made.message}")
    raise MalformedSpecError(f"unknown profile kind {obj['kind']!r}")


def psi_to_json(psi: PsiTable) -> list[list[Any]]:
    return [[n, s] for n, s in psi.entries]


def psi_from_json(obj: Any) -> PsiTable:
    from .lengthbased import psi_table

    return psi_table(obj)


def _parsed(obj: Any) -> Any:
    """A value as JSON parsed it, for the layer that uses it to check."""
    return obj


def _pairs_from_json(
    obj: Any, what: str, decode: Callable[[Any], Value]
) -> dict[str, Value]:
    """Map each ``[input string, output]`` pair; ``decode`` reads the output."""
    if not isinstance(obj, list):
        raise MalformedSpecError(f"{what} needs an array of [input, output] pairs")
    mapping = {}
    for pair in obj:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise MalformedSpecError(f"bad {what} entry: {pair!r}")
        if pair[0] in mapping:
            raise MalformedSpecError(f"{what} repeats the input {pair[0]!r}")
        mapping[pair[0]] = decode(pair[1])
    return mapping


def _table_to_json(codomain: str, entries: Mapping[str, Value],
                   streamed: bool = False) -> dict[str, Any]:
    # One row encoder: (input, output) tuples, listed unless streamed.
    rows = (iter(entries.items()) if codomain == STRING  # values are str
            else ((s, value_to_json(v)) for s, v in entries.items()))
    return {"kind": "table", "codomain": codomain,
            "entries": rows if streamed else list(map(list, rows))}


def _definition_to_json(definition: object, streamed: bool = False) -> dict[str, Any] | None:
    """The function object for a recognized definition, else None."""
    if isinstance(definition, TableDef):
        return _table_to_json(definition.codomain, definition.entries, streamed)
    if not isinstance(definition, BuiltinDef):
        return None
    params = {}
    for key, kind in BUILTINS[definition.name].params.items():
        params[key] = _PARAM_CODECS[kind][0](definition.params[key])
        if params[key] is None:
            return None
    return {"kind": "builtin", "name": definition.name, "params": params}


def function_to_json(fn: BoundedFn, *, streamed: bool = False) -> dict[str, Any]:
    """Serialize; unrecognized closed forms are materialized as tables.

    A table's entries are ``[input, output]`` lists.  With ``streamed``
    they are an iterator of ``(input, output)`` tuples over the table
    instead, which ``write_to_json`` reads once: the same text, and no
    list of rows is built.
    """
    obj = _definition_to_json(fn.definition, streamed)
    if obj is None:
        obj = _table_to_json(fn.codomain, fn.value_map(), streamed)
    return {
        "alphabet": alphabet_to_json(fn.alphabet),
        "bound": fn.bound,
        "function": obj,
    }


def _function_from_object(
    obj: Any, alphabet: Alphabet, bound: int
) -> BoundedFn:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise MalformedSpecError("function object needs a 'kind' field")
    kind = obj["kind"]
    if kind == "table":
        entries = _pairs_from_json(obj.get("entries"), "table", value_from_json)
        codomain = obj.get("codomain", STRING)
        if _canonical(alphabet, bound, entries, codomain):  # the dict becomes the table
            return _total_table(alphabet, bound, codomain, entries)
        return table_fn(alphabet, bound, entries, codomain)
    if kind == "builtin":
        name = obj.get("name")
        if not isinstance(name, str):
            raise MalformedSpecError("builtin function needs a 'name' field")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise MalformedSpecError(f"builtin 'params' must be an object: {params!r}")
        # build_builtin rejects unknown names and params; they pass undecoded.
        kinds = BUILTINS[name].params if name in BUILTINS else {}
        decoded = dict(params)
        for key, kind in kinds.items():
            if key in params:
                decode = _PARAM_CODECS[kind][1]
                decoded[key] = (decode(params[key], alphabet, bound) if kind == FUNCTION
                                else decode(params[key]))
        return build_builtin(name, alphabet, bound, decoded)
    raise MalformedSpecError(f"unknown function kind {kind!r}")


# One JSON codec per builtin param kind: (encode, decode).  Only the
# function decoder takes the enclosing spec's alphabet and bound.
_PARAM_CODECS: dict[str, tuple[Callable[..., Any], Callable[..., Any]]] = {
    LETTER: (str, _parsed),
    ORDER: (list, _parsed),
    VALUE: (value_to_json, value_from_json),
    PROFILE: (alpha_to_json, alpha_from_json),
    PSI: (psi_to_json, psi_from_json),
    FUNCTION: (_definition_to_json, _function_from_object),
}


def function_from_json(obj: Any) -> BoundedFn:
    if not isinstance(obj, Mapping):
        raise MalformedSpecError("function spec must be a JSON object")
    for field in ("alphabet", "bound", "function"):
        if field not in obj:
            raise MalformedSpecError(f"function spec is missing {field!r}")
    alphabet = alphabet_from_json(obj["alphabet"])
    bound = obj["bound"]
    if not _is_count(bound):
        raise MalformedSpecError(f"bound must be a nonnegative integer: {bound!r}")
    return _function_from_object(obj["function"], alphabet, bound)


def load_function(path: str | Path) -> BoundedFn:
    return function_from_json(_read(path))


def partial_to_json(spec: PartialSpec) -> dict[str, Any]:
    parts: dict[str, Any] = {}
    for k, part in enumerate(spec.parts):
        if k == 0:
            parts["0"] = part[""]
        else:
            parts[str(k)] = [[s, out] for s, out in part.items()]
    return {
        "alphabet": alphabet_to_json(spec.alphabet),
        "m": spec.m,
        "parts": parts,
    }


def partial_from_json(obj: Any) -> PartialSpec:
    if not isinstance(obj, Mapping):
        raise MalformedSpecError("low-arity package must be a JSON object")
    for field in ("alphabet", "m", "parts"):
        if field not in obj:
            raise MalformedSpecError(f"low-arity package is missing {field!r}")
    alphabet = alphabet_from_json(obj["alphabet"])
    m = obj["m"]
    if not _is_count(m):
        raise MalformedSpecError(f"m must be a nonnegative integer: {m!r}")
    raw = obj["parts"]
    if not isinstance(raw, Mapping):
        raise MalformedSpecError("'parts' must map arity to table")
    parts: list[Mapping[str, str] | str] = []
    for k in range(m + 2):
        if str(k) not in raw:
            raise MalformedSpecError(f"'parts' is missing arity {k}")
        entry = raw[str(k)]
        parts.append(entry if isinstance(entry, str) else
                     _pairs_from_json(entry, f"arity-{k} table", _parsed))
    if len(raw) != m + 2:  # every arity is present, so some other key is too
        extra = sorted(set(raw) - {str(k) for k in range(m + 2)})
        raise MalformedSpecError(f"'parts' keys must be arities 0..{m + 1}, got {extra!r}")
    from .extension import partial_spec

    return partial_spec(alphabet, m, parts)


def load_partial(path: str | Path) -> PartialSpec:
    return partial_from_json(_read(path))


def witness_to_json(w: Witness) -> dict[str, Any]:
    out: dict[str, Any] = {"bindings": {name: val for name, val in w.bindings}}
    if w.lhs is not None:
        out["lhs"] = value_to_json(w.lhs)
    if w.rhs is not None:
        out["rhs"] = value_to_json(w.rhs)
    return out


def report_to_json(r: CheckReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "verdict": r.verdict,
        "checked": r.checked,
        "skipped": r.skipped,
        "incomplete": r.incomplete,
    }
    if r.detail is not None:
        out["detail"] = r.detail
    if r.witness is not None:
        out["witness"] = witness_to_json(r.witness)
    return out


def reports_to_json(reports: Mapping[str, CheckReport]) -> dict[str, Any]:
    return {name: report_to_json(rep) for name, rep in reports.items()}


def factorization_to_json(fact: Factorization, *, streamed: bool = False) -> dict[str, Any]:
    """``H``'s rows are an iterator with ``streamed``, as in
    :func:`function_to_json`; ``g`` and ``f`` hold a row per value."""
    return {
        "g": [[value_to_json(v), s] for v, s in fact.g.entries.items()],
        "H": function_to_json(fact.h, streamed=streamed),
        "f": [[s, value_to_json(v)] for s, v in fact.f],
        "checks": reports_to_json(fact.checks),
    }


def theta_class_to_json(cls: ThetaClass) -> dict[str, Any]:
    return {"members": list(cls.members), "truncated": cls.truncated}


def to_text(obj: Any) -> str:
    """The report text: ``json.dumps(obj, indent=2)`` and a newline."""
    return "".join(jsontext.chunks(obj)) + "\n"


def write_to_json(obj: Any, *files: IO[str]) -> None:
    """Write ``to_text(obj)`` to each file, one piece at a time.

    A long array goes out ``jsontext.ROWS`` rows per write, so the text
    is never held whole.  An iterator in ``obj`` is read once, each piece
    going to every file.
    """
    for piece in jsontext.chunks(obj):
        for f in files:
            f.write(piece)
    for f in files:
        f.write("\n")


def _read(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedSpecError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return json.loads(text)
    # Besides JSONDecodeError, a ValueError is an integer past the interpreter's
    # digit limit, and a RecursionError an array or object nested too deep.
    except (RecursionError, ValueError) as exc:
        raise MalformedSpecError(f"{path}: not valid JSON ({exc})") from None
