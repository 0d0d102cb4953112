"""JSON load/dump for functions, low-arity data, profiles, and reports.

File shapes:

- function spec: ``{"alphabet": [...], "bound": N, "function": {...}}``
  where the function object is ``{"kind": "builtin", "name": ..., "params":
  {...}}`` or ``{"kind": "table", "codomain": "string"|"token",
  "entries": [[input, output], ...]}``.
- token values: ``{"token": <int or string>}``; strings are plain text.
- low-arity package: ``{"alphabet": [...], "m": m, "parts": {"0": "...",
  "1": [[in, out], ...], ...}}``.
- profile: ``{"kind": "identity"}`` or ``{"kind": "structured", "n1": ...,
  "ell": ..., "values": [...]}``; psi tables are ``[[n, "..."], ...]``.

Dictionaries are built in deterministic order, so serialized output is
byte-stable without key sorting (which would scramble witness bindings).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .builtins import (
    ConstantDef,
    IdentityDef,
    LengthDef,
    LengthOfDef,
    LetterRemoveDef,
    LetterRemoveGDef,
    OfoDef,
    SeparatorInsertDef,
    SortDef,
    build_builtin,
)
from .checkers import CheckReport, Witness
from .core import STRING, Alphabet, BoundedFn, TableDef, Token, Value, table_fn
from .errors import MalformedSpecError
from .extension import PartialSpec, partial_spec
from .factorization import Factorization
from .lengthbased import (
    IDENTITY,
    STRUCTURED,
    AlphaFn,
    LengthBasedDef,
    PsiTable,
    identity_alpha,
    psi_table,
    synthesize_alpha,
)
from .quotient import ThetaClass


def value_to_json(v: Value) -> Any:
    if isinstance(v, str):
        return v
    return {"token": v.payload}


def value_from_json(obj: Any) -> Value:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, Mapping) and set(obj) == {"token"}:
        payload = obj["token"]
        if not isinstance(payload, (int, str)):
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
    if alpha.kind == IDENTITY:
        return {"kind": IDENTITY}
    return {
        "kind": STRUCTURED,
        "n1": alpha.n1,
        "ell": alpha.ell,
        "values": list(alpha.values),
    }


def alpha_from_json(obj: Any) -> AlphaFn:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise MalformedSpecError(f"not a profile: {obj!r}")
    if obj["kind"] == IDENTITY:
        return identity_alpha()
    if obj["kind"] == STRUCTURED:
        try:
            made = synthesize_alpha(obj["n1"], obj["ell"], list(obj["values"]))
        except KeyError as exc:
            raise MalformedSpecError(f"profile missing field {exc.args[0]!r}") from None
        if isinstance(made, AlphaFn):
            return made
        raise MalformedSpecError(f"invalid profile: {made.message}")
    raise MalformedSpecError(f"unknown profile kind {obj['kind']!r}")


def psi_to_json(psi: PsiTable) -> list[list[Any]]:
    return [[n, s] for n, s in psi.entries]


def psi_from_json(obj: Any) -> PsiTable:
    if not isinstance(obj, list):
        raise MalformedSpecError("psi table must be an array of [n, string] pairs")
    try:
        return psi_table([(int(n), s) for n, s in obj])
    except (TypeError, ValueError) as exc:
        raise MalformedSpecError(f"bad psi table: {exc}") from None


def _definition_to_json(definition: object) -> dict[str, Any] | None:
    """The function object for a recognized definition, else None."""
    if isinstance(definition, IdentityDef):
        return {"kind": "builtin", "name": "identity", "params": {}}
    if isinstance(definition, SortDef):
        return {"kind": "builtin", "name": "sort",
                "params": {"order": list(definition.order)}}
    if isinstance(definition, LetterRemoveDef):
        return {"kind": "builtin", "name": "letter_remove",
                "params": {"letter": definition.letter}}
    if isinstance(definition, LetterRemoveGDef):
        return {"kind": "builtin", "name": "letter_remove_g",
                "params": {"letter": definition.letter}}
    if isinstance(definition, OfoDef):
        return {"kind": "builtin", "name": "ofo", "params": {}}
    if isinstance(definition, SeparatorInsertDef):
        return {"kind": "builtin", "name": "separator_insert",
                "params": {"bar": definition.bar}}
    if isinstance(definition, LengthDef):
        return {"kind": "builtin", "name": "length", "params": {}}
    if isinstance(definition, LengthOfDef):
        inner = _definition_to_json(definition.inner)
        if inner is None:
            return None
        return {"kind": "builtin", "name": "length_of", "params": {"inner": inner}}
    if isinstance(definition, ConstantDef):
        return {"kind": "builtin", "name": "constant",
                "params": {"value": value_to_json(definition.value)}}
    if isinstance(definition, LengthBasedDef):
        return {"kind": "builtin", "name": "length_based",
                "params": {"alpha": alpha_to_json(definition.alpha),
                           "psi": psi_to_json(definition.psi)}}
    if isinstance(definition, TableDef):
        return {
            "kind": "table",
            "codomain": definition.codomain,
            "entries": [[s, value_to_json(v)]
                        for s, v in definition.entries.items()],
        }
    return None


def function_to_json(fn: BoundedFn) -> dict[str, Any]:
    """Serialize; unrecognized closed forms are materialized as tables."""
    obj = _definition_to_json(fn.definition)
    if obj is None:
        obj = {
            "kind": "table",
            "codomain": fn.codomain,
            "entries": [[s, value_to_json(v)] for s, v in fn.value_map().items()],
        }
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
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise MalformedSpecError("table function needs an 'entries' array")
        mapping = {}
        for pair in entries:
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedSpecError(f"bad table entry: {pair!r}")
            mapping[pair[0]] = value_from_json(pair[1])
        return table_fn(alphabet, bound, mapping, obj.get("codomain", STRING))
    if kind == "builtin":
        name = obj.get("name")
        if not isinstance(name, str):
            raise MalformedSpecError("builtin function needs a 'name' field")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise MalformedSpecError(f"builtin 'params' must be an object: {params!r}")
        params = dict(params)
        order = params.get("order") if name == "sort" else None
        if order is not None and not (
            isinstance(order, (list, str)) and all(isinstance(c, str) for c in order)
        ):
            raise MalformedSpecError(f"sort 'order' must be an array of letters: {order!r}")
        if name == "length_of":
            params["inner"] = _function_from_object(
                params.get("inner"), alphabet, bound
            )
        if name == "length_based":
            params["alpha"] = alpha_from_json(params.get("alpha"))
            params["psi"] = psi_from_json(params.get("psi"))
        if name == "constant":
            params["value"] = value_from_json(params.get("value"))
        return build_builtin(name, alphabet, bound, params)
    raise MalformedSpecError(f"unknown function kind {kind!r}")


def function_from_json(obj: Any) -> BoundedFn:
    if not isinstance(obj, Mapping):
        raise MalformedSpecError("function spec must be a JSON object")
    for field in ("alphabet", "bound", "function"):
        if field not in obj:
            raise MalformedSpecError(f"function spec is missing {field!r}")
    alphabet = alphabet_from_json(obj["alphabet"])
    bound = obj["bound"]
    if not isinstance(bound, int) or bound < 0:
        raise MalformedSpecError(f"bound must be a nonnegative integer: {bound!r}")
    return _function_from_object(obj["function"], alphabet, bound)


def load_function(path: str | Path) -> BoundedFn:
    return function_from_json(_read(path))


def partial_to_json(spec: PartialSpec) -> dict[str, Any]:
    parts: dict[str, Any] = {}
    for k, part in enumerate(spec.parts):
        if k == 0:
            parts["0"] = part[0][1]
        else:
            parts[str(k)] = [[s, out] for s, out in part]
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
    if not isinstance(m, int) or m < 0:
        raise MalformedSpecError(f"m must be a nonnegative integer: {m!r}")
    raw = obj["parts"]
    if not isinstance(raw, Mapping):
        raise MalformedSpecError("'parts' must map arity to table")
    parts: list[Mapping[str, str] | str] = []
    for k in range(m + 2):
        if str(k) not in raw:
            raise MalformedSpecError(f"'parts' is missing arity {k}")
        entry = raw[str(k)]
        if isinstance(entry, str):
            parts.append(entry)
        elif isinstance(entry, list):
            parts.append({pair[0]: pair[1] for pair in entry})
        else:
            raise MalformedSpecError(f"bad arity-{k} table: {entry!r}")
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


def factorization_to_json(fact: Factorization) -> dict[str, Any]:
    return {
        "g": [[value_to_json(v), s] for v, s in fact.g.entries],
        "H": function_to_json(fact.h),
        "f": [[s, value_to_json(v)] for s, v in fact.f],
        "checks": reports_to_json(fact.checks),
    }


def theta_class_to_json(cls: ThetaClass) -> dict[str, Any]:
    return {"members": list(cls.members), "truncated": cls.truncated}


def to_text(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _read(path: str | Path) -> Any:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSpecError(f"{path}: not valid JSON ({exc})") from None
