"""strfn: a bounded-domain algebra toolkit for variadic string functions.

Strings over a finite ordered alphabet, functions on the bounded domain
X^<=L, and exhaustive checkers for the laws that matter there:
associativity, preassociativity, standardness, boundedness — plus the
constructions those laws admit (unique low-arity extension, quasi-inverse
factorization, length-profile analysis, block-substitution quotients).

Names load on first use (PEP 562): ``import strfn`` imports no
submodule, and reading ``strfn.extend`` or ``strfn.extension`` imports
``strfn.extension`` then.  So a program, and each ``strfn`` command,
loads only the layers it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "core": (
        "Alphabet", "Token", "Value", "BoundedFn", "TableDef", "STRING", "TOKEN",
        "concat", "power", "enumerate_strings", "count_strings", "table_fn",
    ),
    "reports": ("HOLDS", "FAILS", "VACUOUS", "CheckReport", "Witness"),
    "checkers": (
        "check_associative_full", "check_associative_reduced",
        "check_preassociative", "check_standard", "check_idempotent",
        "check_m_bounded", "check_m_determined_range",
        "check_equivalent_definitions", "check_injective_rigidity",
        "find_absorbed_string",
    ),
    "builtins": (
        "identity_fn", "sort_fn", "letter_remove_fn", "letter_remove_g_fn",
        "ofo_fn", "separator_insert_fn", "length_fn", "length_of_fn",
        "constant_fn", "build_builtin",
    ),
    "extension": (
        "PartialSpec", "partial_spec", "verify_conditions", "extend",
        "recursion_extension", "check_determination", "identity_patch",
        "enumerate_partial_specs", "VariadicParts", "variadic_parts",
    ),
    "factorization": (
        "QuasiInverse", "quasi_inverse", "kernel_classes", "Factorization",
        "factorize", "check_quasi_inverse_conditions", "check_bounded_retraction",
        "recursive_eval",
    ),
    "lengthbased": (
        "AlphaFn", "AlphaRejection", "AlphaSweep", "PsiTable",
        "identity_alpha", "eval_alpha", "check_alpha_equations",
        "classify_alpha", "synthesize_alpha", "minimal_period", "psi_table",
        "compose_length_based", "decompose_length_based",
        "LengthBasedRejection", "check_length_based",
        "check_weakly_length_based", "compose_preassoc_length_based",
        "sweep_alpha_tables",
    ),
    "quotient": (
        "ThetaSpec", "ThetaClass", "theta_class", "canonical_rep",
        "theta_rep_fn", "KernelComparison", "preceq",
        "EQUIVALENT", "STRICTLY_BELOW", "STRICTLY_ABOVE", "INCOMPARABLE",
    ),
    "errors": (
        "StrfnError", "AlphabetError", "OutOfDomainError", "MissingEntryError",
        "MalformedSpecError", "PreconditionError", "ConditionsFailedError",
        "NotApplicableError", "UnevaluableError", "InsufficientHorizonError",
        "QuasiInverseError", "WitnessError", "WorkerError",
    ),
}
# The layer each CLI command runs.  ``python -m strfn`` imports it before
# the CLI (see ``__main__``), and ``cli`` imports it from here.
_COMMAND_LAYERS = {
    "check": "checkers", "extend": "extension", "factorize": "factorization",
    "alpha": "lengthbased", "theta": "quotient", "compare": "quotient",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str) -> object:
    """Import a public name's submodule, or a submodule, on first use."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
