"""Run one benchmark job in this process, optionally traced or counted.

    python bench/job.py [--spans FILE | --count FILE] cli <strfn CLI args>
    python bench/job.py [--spans FILE | --count FILE] api sweep H MAX JOBS

``cli`` runs ``strfn.cli.main`` on the arguments, so the public API is
called in the CLI's own order: load, compute, ``*_to_json``, ``to_text``.
``api sweep`` calls ``sweep_alpha_tables``, which has no CLI entry
point, and prints its tallies with ``to_text``.  Stdout carries the
job's output bytes and the exit code is the job's, in every mode.

``--spans`` wraps the public functions of the traced layers and writes
one span per call that crosses into a layer (layer, name, start, end,
parent, result summary) to FILE when the job ends.  Calls inside a layer
run unwrapped, so hot inner loops pay almost nothing.

``--count`` runs the job again with each loaded function's definition
wrapped to count ``apply`` calls, after one separately timed
``value_map`` pass per loaded function, and writes the counts to FILE.
No span is timed in this mode.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from typing import Any

LAYERS = ("specio", "core", "checkers", "factorization", "extension",
          "quotient", "lengthbased")
# The CLI reads profile files through this private specio loader.
EXTRA = {"specio": ("_read",)}


class Tracer:
    """Spans at layer boundaries, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.stack: list[int] = []

    def wrap(self, layer: str, name: str, fn: Any) -> Any:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and spans[stack[-1]]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"layer": layer, "name": name,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_summary(layer, name, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a strfn module binds it."""
        importlib.import_module("strfn.cli")
        originals: dict[int, tuple[str, str]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"strfn.{layer}")
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in EXTRA.get(layer, ())
                if (public and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    originals[id(obj)] = (layer, name)
        wrappers: dict[int, Any] = {}
        modules = [m for key, m in sys.modules.items()
                   if key == "strfn" or key.startswith("strfn.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(*originals[id(obj)], obj)
                    setattr(mod, attr, wrappers[id(obj)])


def _summary(layer: str, name: str, result: Any) -> dict[str, Any]:
    """Counts carried by a span: checker reports and factorization classes."""
    if layer == "checkers":
        reports = result if isinstance(result, dict) else {"": result}
        verdicts = {r.verdict for r in reports.values()}
        return {
            "verdict": "fails" if "fails" in verdicts else "holds",
            "checked": sum(r.checked for r in reports.values()),
            "skipped": sum(r.skipped for r in reports.values()),
        }
    if name == "factorize":
        return {"classes": len(result.g.entries)}
    return {}


class CountingDef:
    """A definition that counts its ``apply`` calls and defers to ``inner``."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.evals = 0

    @property
    def codomain(self) -> str:
        return self.inner.codomain

    def apply(self, s: str) -> Any:
        self.evals += 1
        return self.inner.apply(s)


def _bound_arg(argv: list[str]) -> int | None:
    return int(argv[argv.index("--bound") + 1]) if "--bound" in argv else None


def _run(kind: str, argv: list[str]) -> tuple[int, str]:
    """Run the job; return its exit code and stdout text."""
    from strfn import cli, specio
    from strfn.lengthbased import sweep_alpha_tables

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if kind == "cli":
            code = cli.main(argv)
        else:
            action, horizon, max_value, jobs = argv
            if action != "sweep":
                raise SystemExit(f"unknown api job {action!r}")
            tally = sweep_alpha_tables(int(horizon), int(max_value), jobs=int(jobs))
            sys.stdout.write(specio.to_text({
                "total": tally.total,
                "equations_hold": tally.equations_hold,
                "accepted": tally.accepted,
                "rejected": tally.rejected,
                "insufficient": tally.insufficient,
                "mismatches": [list(m) for m in tally.mismatches],
            }))
            code = 0
    return code, out.getvalue()


def _count(kind: str, argv: list[str]) -> tuple[int, str, dict[str, Any]]:
    """Re-run a CLI job on counting definitions; time one value_map pass each."""
    from strfn import cli
    from strfn.core import BoundedFn, count_strings

    counted: list[CountingDef] = []
    stats = {"value_map_s": 0.0, "domain_strings": 0, "evals": 0}
    level = _bound_arg(argv)
    load = cli.load_function

    def counting_load(path: str) -> BoundedFn:
        fn = load(path)
        limit = fn.bound if level is None else level
        start = time.perf_counter()
        fn.value_map(limit)
        stats["value_map_s"] += time.perf_counter() - start
        stats["domain_strings"] += count_strings(fn.alphabet, limit)
        wrapped = CountingDef(fn.definition)
        counted.append(wrapped)
        return BoundedFn(fn.alphabet, fn.bound, wrapped)

    if kind == "cli":
        cli.load_function = counting_load
    code, text = _run(kind, argv)
    stats["evals"] = sum(c.evals for c in counted)
    return code, text, stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", help="write layer spans to this file")
    mode.add_argument("--count", help="write evaluation counts to this file")
    parser.add_argument("kind", choices=("cli", "api"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.count:
        code, text, stats = _count(args.kind, args.argv)
        with open(args.count, "w") as fh:
            json.dump(stats, fh)
    elif args.spans:
        tracer = Tracer()
        tracer.install()
        code, text = _run(args.kind, args.argv)
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        code, text = _run(args.kind, args.argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
