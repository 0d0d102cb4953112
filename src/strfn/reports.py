"""Check reports: the verdicts, the witness record and the counting rule.

Every law checker and every construction condition returns a
:class:`CheckReport`.  It lives here, apart from the law checkers in
``checkers``, so that a layer that only builds reports (``extension``'s
conditions, ``lengthbased``'s profile equations) loads no checker.

:func:`_scan` is the one statement of the counting rule: an instance is
checked when it is evaluated, skipped when it would leave the bound, and
the scan stops at the first failing instance, which it counts as
checked.  The hot kernels in ``checkers`` and
``lengthbased.check_alpha_equations`` count by hand with the same rule
and end in :func:`_finish`.
"""

from __future__ import annotations

from typing import Iterable

from .core import Record, Value

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


class Witness(Record):
    """An instantiated counterexample: variable bindings plus both sides."""

    __slots__ = _fields = ("bindings", "lhs", "rhs")

    def __init__(self, bindings: tuple[tuple[str, str], ...],
                 lhs: Value | None = None, rhs: Value | None = None) -> None:
        self.bindings = bindings
        self.lhs = lhs
        self.rhs = rhs

    def binding(self, name: str) -> str:
        return dict(self.bindings)[name]


class CheckReport(Record):
    __slots__ = _fields = ("verdict", "witness", "checked", "skipped", "detail")

    def __init__(self, verdict: str, witness: Witness | None, checked: int, skipped: int,
                 detail: str | None = None) -> None:
        self.verdict = verdict
        self.witness = witness
        self.checked = checked
        self.skipped = skipped
        self.detail = detail

    @property
    def ok(self) -> bool:
        """True unless a counterexample was found."""
        return self.verdict != FAILS

    @property
    def incomplete(self) -> bool:
        return self.skipped > 0


def _finish(witness: Witness | None, checked: int, skipped: int,
            detail: str | None = None) -> CheckReport:
    if witness is not None:
        return CheckReport(FAILS, witness, checked, skipped, detail)
    if checked == 0:
        return CheckReport(VACUOUS, None, checked, skipped, detail)
    return CheckReport(HOLDS, None, checked, skipped, detail)


# An outcome of _scan: the instance leaves the bound and is not evaluated.
SKIPPED = object()


def _scan(outcomes: Iterable[Witness | object | None],
          detail: str | None = None) -> CheckReport:
    """The report of a scan that stops at its first failing instance.

    ``outcomes`` yields one item per instance, in enumeration order: None
    when the instance holds, ``SKIPPED`` when it leaves the bound, or the
    failure's :class:`Witness`.  The scan stops at the first witness;
    ``checked`` counts the instances evaluated, that failure included, and
    ``skipped`` the skips before it.  The verdict is ``fails`` with the
    witness and ``detail``, else ``vacuous`` when nothing was checked, else
    ``holds``; ``detail`` is attached only on failure.
    """
    seen = skipped = 0
    for seen, outcome in enumerate(outcomes, 1):
        if outcome is SKIPPED:
            skipped += 1
        elif outcome is not None:
            return CheckReport(FAILS, outcome, seen - skipped, skipped, detail)
    return _finish(None, seen - skipped, skipped)
