"""Exhaustive law checkers over bounded string domains.

Every checker quantifies its law over the bounded domain ``X^{<=L}`` and
returns a :class:`CheckReport` with one of three verdicts:

- ``"holds"``  -- no counterexample among the evaluable instances;
- ``"fails"``  -- a counterexample was found and is reported as a witness;
- ``"vacuous"`` -- the quantified instance space is empty (or nothing in
  it could be evaluated within the bound).

Instances whose evaluation would need a string longer than ``L`` are
counted in ``skipped`` and the report is flagged ``incomplete``; a
``holds`` verdict is then relative to the instances actually evaluated.

Witness determinism: the reported counterexample is the first failure in
the enumeration order of the quantified tuple -- length-lex order on the
concatenation of the tuple's components, ties broken by split position.
On failure the counters cover the instances examined before the scan
terminated, which is likewise deterministic.  The report records and
``reports._scan``, the one statement of that counting rule, live in
``strfn.reports``; the checkers here and the conditions of
``extension``, ``factorization`` and ``lengthbased`` report through it.
The hot kernels count by hand with the same rule and end in
``reports._finish``: ``_assoc_scan``, ``_preassoc_scan`` and
``lengthbased.check_alpha_equations`` (``_preassoc_witness`` only
searches).  The preassociativity check is the one exception: its
counters come from its scan over kernel-class pairs up to the first
failure it meets, while its witness is the least failing instance over
the same pairs, found by walking the total length |x y y2 z| upward.

The shape of F picks one associativity decider (:func:`_run_assoc`),
shared by the full and reduced checks and by (i) and (ii) of the
equivalent definitions:

- an F that never lengthens a string takes
  :func:`_assoc_by_one_letter_splits` for either verdict.  No instance
  is skipped, so one pass finds the first length at which a string fails
  a one-letter split; the failing strings of that length lead to the
  least failing string, and only that string's splits are scanned for
  the witness.  With no failure, the law holds and the counters are
  closed form.
- any other F takes the congruence decider (:func:`_assoc_by_congruence`),
  which proves the law in closed form when F(v) = v for every value v
  with |v| <= L and the kernel is a congruence (:func:`_is_congruence`),
  and else the scan (:func:`_assoc_scan`), which gives the counters and
  the witness.

Preassociativity holds in closed form whenever the kernel is a
congruence, and is scanned otherwise.  The equivalent definitions read
(ii) off (i); (iii) and (iv) are closed form when (i) holds with no
skips, and scanned otherwise.  Every path gives the scan's report.

Every checker reads its values from ``fn.domain(level)``, which also
enforces ``0 <= level <= fn.bound``.
"""

from __future__ import annotations

import itertools

from .core import BoundedFn, Value, count_strings
from .errors import NotApplicableError, PreconditionError
# The report records are re-exported: a report pickled when they lived
# here still loads, and ``strfn.checkers.CheckReport`` stays one class.
from .reports import (  # noqa: F401
    FAILS, HOLDS, SKIPPED, VACUOUS, CheckReport, Witness, _finish, _scan,
)


def _require_string_valued(fn: BoundedFn, op: str) -> None:
    if not fn.string_valued:
        raise PreconditionError(f"{op} applies to string-valued functions only")


def _never_lengthens(vals) -> bool:
    return all(len(v) <= len(s) for s, v in vals.items())


# ---------------------------------------------------------------------------
# congruence deciders


def _is_congruence(dom) -> bool:
    """True when F's kernel is closed under one-letter contexts on X^{<=L}.

    Each string m with |m| < L is compared with its class leader, the
    first string of its value, under every letter a: F(am) = F(a lead)
    and F(ma) = F(lead a).  The leader is no longer than m, so both sides
    lie in the domain.  Stops at the first mismatch.  This is exactly
    preassociativity on the bounded domain; :func:`check_preassociative`
    has the proof.
    """
    vals, level, letters = dom.vals, dom.level, dom.alphabet.letters
    leaders: dict[Value, str] = {}
    for m, v in vals.items():
        if len(m) >= level:
            break  # strings are in length-lex order
        lead = leaders.setdefault(v, m)
        if lead != m:
            for a in letters:
                if vals[a + m] != vals[a + lead] or vals[m + a] != vals[lead + a]:
                    return False
    return True


def _assoc_by_congruence(dom, cap: int) -> CheckReport | None:
    """The associativity report in closed form, or None when it cannot decide.

    Only an F that lengthens some string reaches it (:func:`_run_assoc`).
    Decides when F(v) = v for every value v with |v| <= L and the kernel
    is a congruence (:func:`_is_congruence`); the full check has
    ``cap`` = L, the reduced one ``cap`` = 1 (contexts with |xz| <= 1).

    Proof sketch.  A checked instance (x, y, z) has |x F(y) z| <= L, so
    v = F(y) fits, F(v) = v puts y and v in one kernel class, and bounded
    preassociativity gives F(xyz) = F(x v z), both sides within L.  An F
    that fails either test is left to the scan, which finds the witness
    or proves the law.

    Counters, per string y: the contexts with |x| + |z| <= b number
    cum[b], so y enters cum[min(cap, L - |y|)] instances and is checked
    in cum[min(cap, L - max(|y|, |F(y)|))] of them (none when
    |F(y)| > L); the rest are skipped.
    """
    vals, level = dom.vals, dom.level
    if not (all(len(v) > level or vals[v] == v for v in vals.values())
            and _is_congruence(dom)):
        return None
    cum = dom.context_counts
    checked = entered = 0
    for y, v in vals.items():
        entered += cum[min(cap, level - len(y))]
        budget = level - max(len(y), len(v))
        if budget >= 0:
            checked += cum[min(cap, budget)]
    return _finish(None, checked, entered - checked)


# ---------------------------------------------------------------------------
# associativity


def _assoc_scan(strings, vals, level, reduced):
    """Scan the splits of each string in ``strings``, in order.

    Every split (x, y, z) of w, or with ``reduced`` only those with
    |xz| <= 1.  Returns the first failure (or None), the counters up to it
    and the number of strings entered, the failing one included.  An F
    that lengthens passes the whole domain; the one-letter pass passes one
    string.
    """
    checked = 0
    skipped = 0
    for entered, w in enumerate(strings, 1):
        n = len(w)
        lhs = vals[w]
        if reduced:
            if n == 0:
                splits = ((0, 0),)
            else:
                splits = ((0, n - 1), (0, n), (1, n))
        else:
            splits = ((i, j) for i in range(n + 1) for j in range(i, n + 1))
        for i, j in splits:
            y = w[i:j]
            v = vals[y]
            if i + len(v) + (n - j) > level:
                skipped += 1
                continue
            checked += 1
            rhs = vals[w[:i] + v + w[j:]]
            if lhs != rhs:
                witness = Witness(
                    (("x", w[:i]), ("y", y), ("z", w[j:])), lhs, rhs
                )
                return witness, checked, skipped, entered
    return None, checked, skipped, len(strings)


def _assoc_by_one_letter_splits(dom, reduced: bool) -> tuple[CheckReport, int]:
    """The associativity report of an F that never lengthens a string, and
    the number of strings the scan enters.

    Proof sketch.  No instance leaves the bound, so none is skipped, and
    F(empty) = empty passes the one split of the empty string.  Let every
    string shorter than n pass every split, and let w, |w| = n, pass its
    one-letter splits (0, n-1), (0, n) and (1, n).  Take a split (x, y, z)
    of w with x = a x', and u = x F(y) z, so |u| <= n.  The shorter x'yz
    passes (x', y, z), so F(w) = F(a F(x'yz)) = F(a F(x' F(y) z)).  If
    |u| < n, u passes its split (a, x' F(y) z, empty), which says F(u) is
    that same value; if |u| = n, that split is u's (1, n).  So w passes
    (x, y, z) unless |F(y)| = |y| and u fails (1, n).  With x = empty and
    z = z'b the same holds with (0, n-1) in place of (1, n).  By induction
    on n:

    - the first failing length n is that of the first string that fails a
      one-letter split, found in one pass; with none, the law holds and
      every split is checked;
    - at length n, w fails exactly when it fails a one-letter split, or
      some split with |F(y)| = |y| sends it to a u that fails (1, n) when
      x is not empty, (0, n-1) when it is.

    So each failing w is a failing u whose substring s = F(y), |s| < n, is
    put back as y.  Only the least same-length preimage y != s of each s
    is needed: y = s gives u itself, and a larger y gives a larger w.  The
    span (1, n) of a u failing (1, n) is never looked up: s = u[1:] would
    be a value of a shorter string, so F(s) = s, and then F(u[0] F(s)) =
    F(u), against the failure.  The span (0, n-1) of a u failing (0, n-1)
    is the mirror case.  The witness is the first failing split of the
    least such string, scanned alone.  The reduced check scans exactly
    the one split of the empty string and the one-letter splits of every
    other string, so its witness string is the first one to fail a
    one-letter split.  Each string of length t before the witness string
    counts its splits as checked: (t+1)(t+2)/2 of them, or 3 (1 for t = 0)
    when reduced.
    """
    vals, alphabet, level = dom.vals, dom.alphabet, dom.level
    n, first = level, None  # the first string failing a one-letter split
    left, right = [], []  # the strings of length n failing (1, n), (0, n-1)
    for w, v in itertools.islice(vals.items(), 1, None):
        if len(w) > n:
            break
        fails_left = vals[w[0] + vals[w[1:]]] != v
        fails_right = vals[vals[w[:-1]] + w[-1]] != v
        if fails_left or fails_right or vals[v] != v:
            if first is None:
                n, first = len(w), w
            if fails_left:
                left.append(w)
            if fails_right:
                right.append(w)
    k = len(alphabet)
    # per string of length t
    splits = [3 if reduced and t else (t + 1) * (t + 2) // 2 for t in range(level + 1)]
    if first is None:
        return _finish(None, sum(k**t * c for t, c in enumerate(splits)), 0), len(vals)
    shorter = count_strings(alphabet, n - 1)
    w = first
    if not reduced:
        preimage: dict[str, str] = {}  # s -> the least y != s, |y| = |s|, F(y) = s
        for y, v in itertools.islice(vals.items(), shorter):
            if len(v) == len(y) and v != y:
                preimage.setdefault(v, y)
        spans = itertools.chain(
            ((u, i, j) for u in left for i in range(1, n) for j in range(i + 1, n + (i > 1))),
            ((u, 0, j) for u in right for j in range(1, n - 1)),
        )
        w = min(itertools.chain((first,), (u[:i] + preimage[u[i:j]] + u[j:]
                                           for u, i, j in spans if u[i:j] in preimage)),
                key=alphabet.sort_key)
    rank = 0  # of w among the strings of length n
    for d in alphabet.sort_key(w):
        rank = rank * k + d
    before = sum(k**t * splits[t] for t in range(n)) + rank * splits[n]
    witness, checked, skipped, _ = _assoc_scan([w], vals, level, reduced)
    return _finish(witness, before + checked, skipped), shorter + rank + 1


def _run_assoc(fn: BoundedFn, level: int, reduced: bool) -> tuple[CheckReport, int]:
    """The associativity report and the number of strings its scan enters.

    The shape of F picks the one decider that runs: an F that never
    lengthens a string takes :func:`_assoc_by_one_letter_splits` for
    either verdict; any other F takes :func:`_assoc_by_congruence`, and
    the scan when that cannot decide.
    """
    dom = fn.domain(level)
    _require_string_valued(fn, "associativity check")
    if _never_lengthens(dom.vals):
        return _assoc_by_one_letter_splits(dom, reduced)
    decided = _assoc_by_congruence(dom, 1 if reduced else level)
    if decided is not None:
        return decided, len(dom.vals)
    witness, checked, skipped, entered = _assoc_scan(dom.strings, dom.vals, level, reduced)
    return _finish(witness, checked, skipped), entered


def check_associative_full(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(xyz) = F(x F(y) z) over every split of every string in X^{<=level}.

    Instances where the inner value makes |x F(y) z| exceed the bound are
    skipped and counted.
    """
    return _run_assoc(fn, level, False)[0]


def check_associative_reduced(fn: BoundedFn, level: int) -> CheckReport:
    """Like the full check but restricted to contexts with |xz| <= 1.

    For m-bounded functions this restriction is decisive; for anything
    else a ``holds`` verdict with skips is advisory only.
    """
    return _run_assoc(fn, level, True)[0]


# ---------------------------------------------------------------------------
# preassociativity


def _preassoc_witness(dom):
    """The least failing preassociativity instance, found by total length.

    Instances (x, y, y2, z) are ordered by length-lex on w = x+y+y2+z, then
    by the split positions |x|, |x|+|y|, |x|+|y|+|y2|.  A failing instance
    pairs y != y2 of one kernel class with a context of total length c that
    both sides fit, c + max(|y|, |y2|) <= L, so it is exactly one tuple
    (w, i, j, k) of that order, with |w| = n = |y| + |y2| + c.  Shorter w
    come first, so the least failing tuple lies at the least n that has a
    failing instance; within that n it is the least by (w letter by letter,
    |x|, |y|, |y2|).  Class members are grouped into runs of one length, so
    a big class is expanded only into the length pairs that reach n, never
    into all its pairs at once.
    """
    vals, level = dom.vals, dom.level
    contexts, cum = dom.contexts, dom.context_counts
    runs = [[(p, list(ys)) for p, ys in itertools.groupby(members, len)]
            for members in dom.classes.values() if len(members) > 1]
    for n in range(2 * level + 1):
        failing = []
        for groups in runs:
            for (p, ys), (q, y2s) in itertools.product(groups, repeat=2):
                c = n - p - q
                if c < 0 or c + max(p, q) > level:
                    continue
                for x, z in contexts[cum[c - 1] if c else 0:cum[c]]:
                    for y in ys:
                        left = vals[x + y + z]
                        failing.extend((x, y, y2, z) for y2 in y2s
                                       if y2 != y and vals[x + y2 + z] != left)
        if failing:
            key = dom.alphabet.sort_key
            x, y, y2, z = min(failing, key=lambda t: (
                key("".join(t)), len(t[0]), len(t[1]), len(t[2])))
            return Witness((("y", y), ("y2", y2), ("x", x), ("z", z)),
                           vals[x + y + z], vals[x + y2 + z])


def _preassoc_scan(dom) -> CheckReport:
    """Each unordered pair within a kernel class against every context.

    Contexts where only the shorter side fits are counted as skipped.
    Stops at the first failing instance and reports the least failing
    instance as the witness.
    """
    vals, level = dom.vals, dom.level
    contexts, cum = dom.contexts, dom.context_counts

    checked = 0
    skipped = 0
    for members in dom.classes.values():
        for y, y2 in itertools.combinations(members, 2):
            # Members are in length-lex order, so |y| <= |y2| <= level.
            both = cum[level - len(y2)]
            skipped += cum[level - len(y)] - both
            for x, z in contexts[:both]:
                checked += 1
                if vals[x + y + z] != vals[x + y2 + z]:
                    witness = _preassoc_witness(dom)
                    return CheckReport(FAILS, witness, checked, skipped)
    return _finish(None, checked, skipped)


def check_preassociative(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(y) = F(y') implies F(xyz) = F(xy'z) on the bounded domain.

    X^{<=level} is partitioned into kernel classes by value; each unordered
    pair within a class is tested once against every context (x, z) for
    which both sides stay within the bound.  Contexts where only the
    shorter side fits are counted as skipped.  Any codomain is accepted.

    When the kernel is a congruence (:func:`_is_congruence`) the law holds
    and the counters are read off the classes.  Proof sketch: the
    one-letter test is a set of instances of the law.  Conversely, take
    y ~ y2 with |xyz|, |x y2 z| <= L and induct on |x| + |z|.  If x = x'a,
    then |y|, |y2| < L, so ay ~ a lead ~ a y2 by the test, and
    (x', ay, a y2, z) is an instance with a shorter context and the same
    two sides (z = z'a likewise).  Every intermediate string a lead is no
    longer than ay, so no step leaves the domain.  Counters: with members
    m_0..m_{n-1} and c_p = cum[L - |m_p|], the pair (m_p, m_q), p < q, is
    checked on c_q contexts and skipped on c_p - c_q, which sums to
    checked = Σ p·c_p and skipped = Σ (n - 1 - 2p)·c_p per class.  One
    pass over the domain counts both from two counters per class: when
    m_q arrives, its pairs with m_0..m_{q-1} add q·c_q checked and
    Σ_{p<q} c_p - q·c_q skipped.

    Otherwise the pair scan runs.  On failure, ``checked`` and ``skipped``
    count the pair scan up to the first failing instance it meets, while
    the witness is the canonical first failure in length-lex order on
    x+y+y2+z: the least failing instance over the same kernel-class pairs,
    found by walking the total length |x y y2 z| upward.  The two need not
    be the same instance.
    """
    dom = fn.domain(level)
    if not _is_congruence(dom):
        return _preassoc_scan(dom)
    cum = dom.context_counts
    seen: dict[Value, list[int]] = {}  # per class: members so far, their Σ c_p
    checked = skipped = 0
    for m, v in dom.vals.items():
        c = cum[level - len(m)]
        counts = seen.setdefault(v, [0, 0])
        q, total = counts
        checked += q * c
        skipped += total - q * c
        counts[0], counts[1] = q + 1, total + c
    return _finish(None, checked, skipped)


# ---------------------------------------------------------------------------
# pointwise properties


def check_standard(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(x) = F(empty) only for x = empty."""
    dom = fn.domain(level)
    vals = dom.vals
    base = vals[""]
    return _scan(None if vals[s] != base else Witness((("x", s),), vals[s], base)
                 for s in dom.strings[1:])


def check_idempotent(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(F(x)) = F(x); skips x whose value is longer than the bound."""
    vals = fn.domain(level).vals
    _require_string_valued(fn, "idempotence check")
    return _scan(
        SKIPPED if len(v) > level
        else None if vals[v] == v
        else Witness((("x", s),), vals[v], v)
        for s, v in vals.items()
    )


def check_m_bounded(fn: BoundedFn, m: int, level: int) -> CheckReport:
    """Verify |F(x)| <= m on the bounded domain."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    vals = fn.domain(level).vals
    _require_string_valued(fn, "boundedness check")
    report = _scan(None if len(v) <= m else Witness((("x", s),), v, None)
                   for s, v in vals.items())
    if report.ok:
        return report
    return CheckReport(FAILS, report.witness, report.checked, report.skipped,
                       f"|F(x)| = {len(report.witness.lhs)} exceeds m = {m}")


def check_m_determined_range(fn: BoundedFn, m: int, level: int) -> CheckReport:
    """Verify every value on X^{<=level} is already attained on X^{<=m}."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > level:
        raise PreconditionError(f"m = {m} exceeds the check bound {level}")
    dom = fn.domain(level)
    vals = dom.vals
    cut = count_strings(fn.alphabet, m)
    low = {vals[s] for s in dom.strings[:cut]}
    return _scan((None if vals[s] in low else Witness((("x", s),), vals[s], None)
                  for s in dom.strings[cut:]),
                 detail=f"value not attained at arity <= {m}")


# ---------------------------------------------------------------------------
# equivalent formulations of associativity


def check_equivalent_definitions(fn: BoundedFn, level: int) -> dict[str, CheckReport]:
    """Check the four equivalent formulations for unit-preserving functions.

    Requires F(empty) = empty; returns one report per formulation:

    - "i":   F(xyz) = F(x F(y) z)
    - "ii":  any two decompositions of the same string agree
    - "iii": F(F(xy) z) = F(x F(yz))
    - "iv":  F(xy) = F(F(x) F(y))

    (i) is the full associativity check, by its one decider
    (:func:`_run_assoc`), and (ii) is read off it on every path.  (ii)
    compares every split of w with the first one not skipped.  As
    F(empty) = empty, that is x = y = empty, with value F(w), so each
    comparison is the one (i) makes at that split.  Hence (ii) fails at
    (i)'s instance with the same sides (bindings x = y = empty, z = w, and
    (i)'s x, y, z as x2, y2, z2), skips the same instances and checks one
    fewer per string entered.

    When (i) holds with no skips, F never lengthens a string (a y with
    |F(y)| > |y| is skipped at the split (empty, y, z), |yz| = L), and
    (iii) and (iv) hold with no skips: each is an instance of (i), or two
    chained, on strings no longer than the one checked.  (iii) then checks
    every split (x, y, z), as (i) does, and (iv) every split (x, y).
    Otherwise both are scanned: (iii) skips an instance when F(xy) z or
    x F(yz) leaves the bound, two values together, so a lengthening F has
    no per-string count of its skips.
    """
    dom = fn.domain(level)
    _require_string_valued(fn, "equivalent-definitions check")
    if dom.vals[""] != "":
        raise PreconditionError(
            "equivalent-definitions check requires F(empty) = empty"
        )
    full, entered = _run_assoc(fn, level, False)
    split = full.witness
    if split is not None:
        x, y, z = (v for _, v in split.bindings)
        split = Witness((("x", ""), ("y", ""), ("z", x + y + z), ("x2", x), ("y2", y),
                         ("z2", z)), split.lhs, split.rhs)
    if full.ok and not full.skipped:
        iii, iv = full, _finish(None, dom.context_counts[-1], 0)
    else:
        iii, iv = _scan(_assoc_iii(dom)), _scan(_assoc_iv(dom))
    return {"i": full, "ii": _finish(split, full.checked - entered, full.skipped),
            "iii": iii, "iv": iv}


def _assoc_iii(dom):
    """(iii): F(F(xy) z) = F(x F(yz)), one outcome per split (x, y, z)."""
    vals, level = dom.vals, dom.level
    for w in dom.strings:
        n = len(w)
        for i in range(n + 1):
            for j in range(i, n + 1):
                u, v = vals[w[:j]], vals[w[i:]]
                if len(u) + (n - j) > level or i + len(v) > level:
                    yield SKIPPED
                    continue
                left, right = vals[u + w[j:]], vals[w[:i] + v]
                yield None if left == right else Witness(
                    (("x", w[:i]), ("y", w[i:j]), ("z", w[j:])), left, right)


def _assoc_iv(dom):
    """(iv): F(xy) = F(F(x) F(y)), one outcome per split (x, y)."""
    vals, level = dom.vals, dom.level
    for w in dom.strings:
        for i in range(len(w) + 1):
            u, v = vals[w[:i]], vals[w[i:]]
            yield (SKIPPED if len(u) + len(v) > level
                   else None if vals[w] == vals[u + v]
                   else Witness((("x", w[:i]), ("y", w[i:])), vals[w], vals[u + v]))


# ---------------------------------------------------------------------------
# rigidity and absorption


def check_injective_rigidity(fn: BoundedFn, level: int) -> CheckReport:
    """If F is injective and idempotent on the domain, verify F = id.

    Vacuous (with the disqualifying pair in the witness) when F is not
    injective or not idempotent there.  The pair is the first string, in
    length-lex order, that shares its value with an earlier one, and the
    leader of its kernel class.
    """
    dom = fn.domain(level)
    vals = dom.vals
    _require_string_valued(fn, "rigidity check")

    shared = [members for members in dom.classes.values() if len(members) > 1]
    if shared:
        x, y = min(shared, key=lambda m: dom.alphabet.length_lex_key(m[1]))[:2]
        return CheckReport(VACUOUS, Witness((("x", x), ("y", y)), vals[x], vals[x]),
                           0, 0, detail="not injective on the domain")

    idempotent = check_idempotent(fn, level)
    skipped = idempotent.skipped
    if idempotent.verdict == FAILS:
        return CheckReport(VACUOUS, idempotent.witness, 0, skipped,
                           detail="not idempotent on the domain")

    report = _scan(None if v == s else Witness((("x", s),), v, s) for s, v in vals.items())
    return CheckReport(report.verdict, report.witness, report.checked, skipped, report.detail)


def find_absorbed_string(fn: BoundedFn, level: int) -> str | None:
    """Search for a nonempty string whose insertion anywhere never changes F.

    Candidates are the kernel-mates of the empty string, tried in
    length-lex order; each must verify F(xz) = F(x a z) for every context
    with |x a z| <= level.  Returns None when no candidate verifies.
    Raises NotApplicableError when F is standard on the domain.
    """
    dom = fn.domain(level)
    vals = dom.vals
    mates = dom.classes[vals[""]][1:]
    if not mates:
        raise NotApplicableError(
            "function is standard on the bounded domain; nothing is absorbed"
        )
    contexts, cum = dom.contexts, dom.context_counts
    for a in mates:
        if all(vals[x + z] == vals[x + a + z]
               for x, z in contexts[: cum[level - len(a)]]):
            return a
    return None
