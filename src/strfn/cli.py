"""Command-line front door: deterministic JSON reports over spec files.

Exit codes: 0 = property holds / construction succeeded; 1 = property
fails (the report carries a witness); 2 = input or usage error; 3 =
inconclusive — a vacuous verdict, a truncated/skipped-incomplete scan,
or a horizon too short to decide.  Reports go to standard output as
JSON; a one-line human summary goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING, Any, Mapping, NoReturn

# No layer is imported here: ``python -m strfn`` imports the command's
# layer before this module (see ``__main__``), and a handler imports it
# through ``_layer``.
from . import _COMMAND_LAYERS
from .core import Alphabet, count_strings
from .errors import (
    ConditionsFailedError,
    InsufficientHorizonError,
    StrfnError,
    UnevaluableError,
)
from .specio import (
    _is_count,
    _is_int,
    _read,
    alpha_to_json,
    factorization_to_json,
    function_to_json,
    load_function,
    load_partial,
    report_to_json,
    reports_to_json,
    structured_alpha_from_json,
    theta_class_to_json,
    to_text,
    value_to_json,
    write_to_json,
)

if TYPE_CHECKING:
    from .reports import CheckReport

DEFAULT_BOUND = 6


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one ``error:`` line, like every input error."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {self.prog}: {message}\n")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="strfn", description="bounded-domain algebra of string functions"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, inputs: bool = True) -> None:
        if inputs:
            p.add_argument("--input", action="append", default=[],
                           help="input spec file (JSON)")
        p.add_argument("--bound", type=_nonnegative, default=DEFAULT_BOUND,
                       help="domain bound L (default 6)")
        p.add_argument("--output", help="also write the JSON report to this file")

    p = sub.add_parser("eval", help="evaluate a function at one string")
    common(p)
    p.add_argument("string", help="input string (empty string allowed)")

    p = sub.add_parser("check", help="run one property checker")
    common(p)
    p.add_argument("property", choices=list(_CHECKS))
    p.add_argument("--m", type=_nonnegative, help="output-length bound for bounded/range")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted for compatibility; has no effect")

    p = sub.add_parser("extend", help="grow a low-arity package to X^<=L")
    common(p)

    p = sub.add_parser("factorize", help="split into relabeling . associative core")
    common(p)

    p = sub.add_parser("alpha", help="length-profile analysis")
    p.add_argument("action", choices=["check", "classify", "synth", "minimize"])
    common(p)

    p = sub.add_parser("theta", help="block-substitution classes and chain")
    p.add_argument("action", choices=["class", "rep", "chain"])
    p.add_argument("string", nargs="?", help="input string for 'class'")
    common(p, inputs=False)
    p.add_argument("--alphabet", required=True,
                   help="alphabet letters in order, e.g. 'ab'")
    p.add_argument("--x0", required=True)
    p.add_argument("--x1", required=True)
    p.add_argument("--m-exp", type=_nonnegative, default=1, dest="m_exp",
                   help="exponent index m (block length 2^m)")

    p = sub.add_parser("compare", help="kernel quasiorder of two functions")
    common(p)
    return top


def _one_input(args: argparse.Namespace) -> str:
    if len(args.input) != 1:
        raise StrfnError(f"expected exactly one --input, got {len(args.input)}")
    return args.input[0]


def _report_exit(report: CheckReport) -> int:
    from .reports import FAILS, VACUOUS

    if report.verdict == FAILS:
        return 1
    if report.verdict == VACUOUS or report.skipped > 0:
        return 3
    return 0


def _reports_exit(reports: Mapping[str, CheckReport]) -> int:
    codes = {_report_exit(r) for r in reports.values()}
    if 1 in codes:
        return 1
    if 3 in codes:
        return 3
    return 0


def _emit(obj: Any, args: argparse.Namespace, summary: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as out:
            write_to_json(obj, out, sys.stdout)
    else:
        write_to_json(obj, sys.stdout)
    sys.stderr.write(summary + "\n")


def _summarize(name: str, report: CheckReport) -> str:
    line = f"{name}: {report.verdict} (checked {report.checked}, skipped {report.skipped})"
    if report.detail:
        line += f" — {report.detail}"
    return line


# Each handler imports the layers it uses, and calls them through the
# module, so a run loads only its command's layers and a function
# rebound on a layer is the one that runs.
def _layer(args: argparse.Namespace) -> Any:
    """The module of the layer that runs ``args.command``."""
    return importlib.import_module(f".{_COMMAND_LAYERS[args.command]}", __package__)


def _run_eval(args: argparse.Namespace) -> int:
    fn = load_function(_one_input(args))
    value = fn.eval(args.string)
    _emit({"value": value_to_json(value)}, args, f"eval({args.string!r}) done")
    return 0


def _required_m(args: argparse.Namespace) -> int:
    if args.m is None:
        raise StrfnError(f"check {args.property} requires --m")
    return args.m


# The checker behind each property, by layer and name.  "bounded" and
# "range" take --m.
_CHECKS: dict[str, tuple[str, str]] = {
    "assoc": ("checkers", "check_associative_full"),
    "assoc-reduced": ("checkers", "check_associative_reduced"),
    "preassoc": ("checkers", "check_preassociative"),
    "standard": ("checkers", "check_standard"),
    "idempotent": ("checkers", "check_idempotent"),
    "bounded": ("checkers", "check_m_bounded"),
    "range": ("checkers", "check_m_determined_range"),
    "equiv-defs": ("checkers", "check_equivalent_definitions"),
    "rigidity": ("checkers", "check_injective_rigidity"),
    "weakly-length": ("lengthbased", "check_weakly_length_based"),
    "length": ("lengthbased", "check_length_based"),
}


def _run_check(args: argparse.Namespace) -> int:
    layer, name = _CHECKS[args.property]
    fn = load_function(_one_input(args))
    check = getattr(importlib.import_module(f".{layer}", __package__), name)
    if args.property in ("bounded", "range"):
        result = check(fn, _required_m(args), args.bound)
    else:
        result = check(fn, args.bound)
    if isinstance(result, Mapping):
        _emit(reports_to_json(result), args,
              "; ".join(_summarize(k, r) for k, r in result.items()))
        return _reports_exit(result)
    _emit(report_to_json(result), args, _summarize(args.property, result))
    return _report_exit(result)


def _run_extend(args: argparse.Namespace) -> int:
    extension = _layer(args)
    spec = load_partial(_one_input(args))
    # No name holds the grown table, so it is freed before serializing.
    _emit(function_to_json(extension.extend(spec, args.bound)), args,
          f"extended to bound {args.bound} "
          f"({count_strings(spec.alphabet, args.bound)} entries)")
    return 0


def _run_factorize(args: argparse.Namespace) -> int:
    factorization = _layer(args)
    fn = load_function(_one_input(args))
    fact = factorization.factorize(fn, args.bound)
    _emit(factorization_to_json(fact), args,
          "; ".join(_summarize(k, r) for k, r in fact.checks.items()))
    return _reports_exit({
        k: fact.checks[k] for k in ("source-preassociative", "inner-associative")
    })


def _alpha_values(obj: Any) -> list[int]:
    if isinstance(obj, Mapping):
        obj = obj.get("values")
    if not isinstance(obj, list) or not obj or not all(map(_is_count, obj)):
        raise StrfnError("profile input must be a nonempty array of integers "
                         ">= 0 (or an object with a 'values' array)")
    return obj


def _run_alpha(args: argparse.Namespace) -> int:
    lengthbased = _layer(args)
    data = _read(_one_input(args))
    fields = data if isinstance(data, Mapping) else {}
    if args.action == "check":
        report = lengthbased.check_alpha_equations(_alpha_values(data))
        _emit(report_to_json(report), args, _summarize("alpha equations", report))
        return _report_exit(report)
    if args.action in ("classify", "synth"):
        if args.action == "classify":
            made = lengthbased.classify_alpha(_alpha_values(data))
        else:
            made = structured_alpha_from_json(
                fields.get("n1"), fields.get("ell"), fields.get("window"))
        if isinstance(made, lengthbased.AlphaRejection):
            _emit({"rejected": made.condition, "message": made.message},
                  args, f"rejected: {made.message}")
            return 1
        _emit(alpha_to_json(made), args,
              f"classified: {made.kind}" if args.action == "classify" else "synthesized")
        return 0
    witnesses = fields.get("witnesses")
    if not (isinstance(witnesses, list) and witnesses and all(
            isinstance(w, list) and len(w) == 2 and all(map(_is_int, w))
            for w in witnesses)):
        raise StrfnError("minimize input must be {values, witnesses}, with "
                         "witnesses a nonempty array of [start, period] pairs")
    start, period = lengthbased.minimal_period(
        _alpha_values(data), [tuple(w) for w in witnesses]
    )
    _emit({"start": start, "period": period}, args,
          f"minimal combined witness ({start}, {period})")
    return 0


def _run_theta(args: argparse.Namespace) -> int:
    quotient = _layer(args)
    alphabet = Alphabet(tuple(args.alphabet))
    if not args.x0 or not args.x1 or args.x0 == args.x1:
        raise StrfnError("--x0 and --x1 must be distinct nonempty strings")
    spec = quotient.ThetaSpec(args.x0, args.x1, args.m_exp)
    if args.action == "class":
        if args.string is None:
            raise StrfnError("theta class needs a string argument")
        cls = quotient.theta_class(args.string, spec, args.bound, alphabet)
        _emit(theta_class_to_json(cls), args,
              f"class of {args.string!r}: {len(cls)} members"
              + (" (truncated)" if cls.truncated else ""))
        return 3 if cls.truncated else 0
    if args.action == "rep":
        # No name holds the function, so its evaluated domain is freed
        # before the table is serialized.
        _emit(function_to_json(quotient.theta_rep_fn(alphabet, args.bound, spec)),
              args, f"representative table up to bound {args.bound}")
        return 0
    alphabet.validate(args.x0)
    alphabet.validate(args.x1)
    # From the least m* with a block longer than the bound, no swap stays in
    # the domain and F^m is the identity, so F^m is built only for m <= m*.
    identity_from = (args.bound // max(len(args.x0), len(args.x1))).bit_length()
    rows = []
    hi = None
    for m in range(1, max(args.m_exp, 2)):
        if m >= identity_from:
            rows.append({"m": m, "relation": quotient.EQUIVALENT, "separating": None})
            continue
        # Each F^m is built once; only the pair being compared is kept alive.
        lo = hi or quotient.theta_rep_fn(
            alphabet, args.bound, quotient.ThetaSpec(args.x0, args.x1, m))
        hi = quotient.theta_rep_fn(
            alphabet, args.bound, quotient.ThetaSpec(args.x0, args.x1, m + 1))
        cmp = quotient.preceq(lo, hi, args.bound)
        rows.append({
            "m": m,
            "relation": cmp.relation,
            "separating": list(cmp.separating) if cmp.separating else None,
        })
    _emit({"chain": rows}, args,
          "; ".join(f"F^{r['m']} {r['relation']} F^{r['m'] + 1}" for r in rows))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    quotient = _layer(args)
    if len(args.input) != 2:
        raise StrfnError("compare needs exactly two --input files")
    first = load_function(args.input[0])
    second = load_function(args.input[1])
    cmp = quotient.preceq(first, second, args.bound)
    _emit({
        "relation": cmp.relation,
        "first_below_second": cmp.first_below_second,
        "second_below_first": cmp.second_below_first,
        "separating": list(cmp.separating) if cmp.separating else None,
    }, args, f"kernel comparison: {cmp.relation}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    runners = {
        "eval": _run_eval,
        "check": _run_check,
        "extend": _run_extend,
        "factorize": _run_factorize,
        "alpha": _run_alpha,
        "theta": _run_theta,
        "compare": _run_compare,
    }
    try:
        return runners[args.command](args)
    except ConditionsFailedError as exc:
        sys.stdout.write(to_text({
            "error": str(exc), "reports": reports_to_json(exc.reports),
        }))
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (InsufficientHorizonError, UnevaluableError) as exc:
        sys.stdout.write(to_text({"error": str(exc)}))
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 3
    except (StrfnError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
