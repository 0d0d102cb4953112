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
``reports._finish``: ``_assoc_scan``, :func:`check_preassociative` and
``lengthbased.check_alpha_equations``.  The preassociativity check is the
one exception: its counters are those of the scan over kernel-class
pairs up to the first failure that scan meets, while its witness is the
least failing instance over the same pairs.  Both come from one walk
over each string and the leader of its kernel class (:func:`_parting`).

Associativity is one law with a cap on the context size |x| + |z|: the
full check has cap L and the reduced one cap 1.  The splits within a cap
are defined once (:func:`_splits`).  The shape of F picks one decider
(:func:`_run_assoc`), shared by both checks and by (i) and (ii) of the
equivalent definitions:

- an F that never lengthens a string takes
  :func:`_assoc_by_one_letter_splits`: one pass finds the first length
  at which a string fails a one-letter split, and only the least failing
  string of that length is scanned; with none, the counters are closed
  form.
- any other F takes :func:`_assoc_by_congruence`, closed form when F(v) =
  v for every value v with |v| <= L and the kernel is a congruence, and
  else the scan (:func:`_assoc_scan`).

Preassociativity holds in closed form exactly when the kernel is a
congruence; otherwise its report is read off the leader pairs that part,
and so is :func:`find_absorbed_string`.  The equivalent definitions read
(ii) off (i); (iii) and (iv) are closed form when (i) holds with no
skips, and scanned otherwise.  Every path gives the scan's report.

Every checker reads its values from ``fn.domain(level)``, which also
enforces ``0 <= level <= fn.bound``.
"""

from __future__ import annotations

import itertools

from .core import BoundedFn, Value, _is_count, count_strings
from .errors import MalformedSpecError, NotApplicableError, PreconditionError
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


def _splits(level: int, cap: int) -> list[list[tuple[int, int]]]:
    """``splits[n]``, the splits (i, j) of a string w of length n <= level
    into x = w[:i], y = w[i:j] and z = w[j:] with |x| + |z| <= cap, in scan
    order: by i, then by j.  There are (m+1)(m+2)/2 of them, m = min(cap, n).
    """
    return [[(i, j) for i in range(min(cap, n) + 1) for j in range(max(i, n - cap + i), n + 1)]
            for n in range(level + 1)]


def _position(alphabet, w: str) -> int:
    """The number of strings before w in length-lex order."""
    rank = 0
    for d in alphabet.sort_key(w):
        rank = rank * len(alphabet) + d
    return count_strings(alphabet, len(w) - 1) + rank


def _assoc_scan(strings, vals, level, cap):
    """Scan the splits within ``cap`` of each string in ``strings``, in
    order; return the first failure (or None) and the counters up to it.
    An F that lengthens passes the whole domain, the one-letter pass one
    string."""
    checked = skipped = 0
    splits = _splits(level, cap)
    for w in strings:
        n = len(w)
        lhs = vals[w]
        for i, j in splits[n]:
            y = w[i:j]
            v = vals[y]
            if i + len(v) + (n - j) > level:
                skipped += 1
                continue
            checked += 1
            rhs = vals[w[:i] + v + w[j:]]
            if lhs != rhs:
                return Witness((("x", w[:i]), ("y", y), ("z", w[j:])), lhs, rhs), checked, skipped
    return None, checked, skipped


def _assoc_by_one_letter_splits(dom, cap: int) -> CheckReport:
    """The associativity report of an F that never lengthens a string.

    Proof sketch, for cap >= 1 (cap = 0 only at L = 0).  No instance
    leaves the bound, so none is skipped, and F(empty) = empty passes the
    one split of the empty string.  Let every string shorter than n pass
    every split, and let w, |w| = n, pass its one-letter splits (0, n-1),
    (0, n) and (1, n).  Take a split (x, y, z) of w with x = a x', and
    u = x F(y) z, so |u| <= n.  The shorter x'yz passes (x', y, z), so
    F(w) = F(a F(x'yz)) = F(a F(x' F(y) z)).  If |u| < n, u passes its
    split (a, x' F(y) z, empty), which says F(u) is that same value; if
    |u| = n, that split is u's (1, n).  So w passes (x, y, z) unless
    |F(y)| = |y| and u fails (1, n).  With x = empty and z = z'b the same
    holds with (0, n-1) in place of (1, n).  By induction on n:

    - the first failing length n is that of the first string that fails a
      one-letter split, found in one pass; with none, the law holds and
      every split is checked;
    - at length n, w fails exactly when it fails a one-letter split, or
      some split with |F(y)| = |y| sends it to a u that fails (1, n) when
      x is not empty, (0, n-1) when it is.

    So each failing w is a failing u whose substring s = F(y), |s| < n, is
    put back as y at a split within the cap.  Only the least same-length
    preimage y != s of each s is needed: y = s gives u itself, and a
    larger y gives a larger w.  The span (1, n) of a u failing (1, n) is
    never looked up: s = u[1:] would be a value of a shorter string, so
    F(s) = s, and then F(u[0] F(s)) = F(u), against the failure.  The
    span (0, n-1) of a u failing (0, n-1) is the mirror case.  With cap 1
    there is no other split, so the witness string is the first one to
    fail a one-letter split.  The witness is the first failing split of
    the least failing string, scanned alone.  Each string of length t
    before it counts its (m+1)(m+2)/2 splits, m = min(cap, t), as checked.
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
    counts = [(min(cap, t) + 1) * (min(cap, t) + 2) // 2 for t in range(level + 1)]
    if first is None:
        return _finish(None, sum(k**t * c for t, c in enumerate(counts)), 0)
    shorter = count_strings(alphabet, n - 1)
    w = first
    if cap > 1:
        preimage: dict[str, str] = {}  # s -> the least y != s, |y| = |s|, F(y) = s
        for y, v in itertools.islice(vals.items(), shorter):
            if len(v) == len(y) and v != y:
                preimage.setdefault(v, y)
        spans = [(i, j) for i, j in _splits(n, cap)[n] if i + n - j > 1]  # beyond one letter
        w = min(itertools.chain((first,), (u[:i] + preimage[u[i:j]] + u[j:]
                                           for i, j in spans for u in (left if i else right)
                                           if u[i:j] in preimage)),
                key=alphabet.sort_key)
    rank = _position(alphabet, w) - shorter  # of w among the strings of length n
    before = sum(k**t * counts[t] for t in range(n)) + rank * counts[n]
    witness, checked, skipped = _assoc_scan([w], vals, level, cap)
    return _finish(witness, before + checked, skipped)


def _run_assoc(fn: BoundedFn, level: int, cap: int) -> CheckReport:
    """The associativity report over the contexts with |x| + |z| <= ``cap``.

    The shape of F picks the one decider that runs: an F that never
    lengthens a string takes :func:`_assoc_by_one_letter_splits` for
    either verdict; any other F takes :func:`_assoc_by_congruence`, and
    the scan when that cannot decide.
    """
    dom = fn.domain(level)
    _require_string_valued(fn, "associativity check")
    if _never_lengthens(dom.vals):
        return _assoc_by_one_letter_splits(dom, cap)
    decided = _assoc_by_congruence(dom, cap)
    if decided is not None:
        return decided
    return _finish(*_assoc_scan(dom.vals, dom.vals, level, cap))


def check_associative_full(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(xyz) = F(x F(y) z) over every split of every string in X^{<=level}.

    Instances where the inner value makes |x F(y) z| exceed the bound are
    skipped and counted.
    """
    return _run_assoc(fn, level, level)


def check_associative_reduced(fn: BoundedFn, level: int) -> CheckReport:
    """Like the full check but with the cap 1: contexts with |xz| <= 1.

    For m-bounded functions this restriction is decisive; for anything
    else a ``holds`` verdict with skips is advisory only.
    """
    return _run_assoc(fn, level, 1)


# ---------------------------------------------------------------------------
# preassociativity


def _parting(dom, y: str, lead: str, budget: int) -> tuple[int, int] | None:
    """The first context (x, z) with |x| + |z| <= ``budget`` at which
    F(x y z) != F(x lead z), as (its size, its position), or None.

    Contexts come by size, then by |x|, then x and z in length-lex order;
    the position counts those before it.  A negative budget admits none.
    """
    vals, words, cum = dom.vals, dom.words, dom.context_counts
    for size in range(budget + 1):
        for t in range(size + 1):
            xs, zs = words[t], words[size - t]
            for x in xs:
                xy, xl = x + y, x + lead
                for z in zs:
                    if vals[xy + z] != vals[xl + z]:
                        before = (cum[size - 1] if size else 0) + t * len(words[size])
                        return size, before + xs.index(x) * len(zs) + zs.index(z)
    return None


def check_preassociative(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(y) = F(y') implies F(xyz) = F(xy'z) on the bounded domain.

    Each unordered pair of one kernel class is an instance under every
    context (x, z) that both sides fit; contexts where only the shorter
    side fits are skipped.  Any codomain is accepted.  The report is the
    pair scan's: classes in leader order, pairs (m_p, m_q), p < q, of the
    members m_0 < m_1 < ... in length-lex order, contexts in the order of
    :func:`_parting`, up to the first failing instance.  One walk over the
    classes gives it, visiting each non-leader y with its leader m = m_0.

    Verdict.  The law holds exactly when the kernel is a congruence
    (:func:`_is_congruence`), so no context is searched when it holds.
    Proof sketch: the one-letter test is a set of instances of the law.
    Conversely, take y ~ y2 with |xyz|, |x y2 z| <= L and induct on
    |x| + |z|.  If x = x'a, then |y|, |y2| < L, so ay ~ a lead ~ a y2 by
    the test, and (x', ay, a y2, z) has a shorter context and the same two
    sides (z = z'a likewise); a lead is no longer than ay, so no step
    leaves the domain.

    Counters.  With c_p = cum[L - |m_p|], the pair (m_p, m_q) is checked
    on c_q contexts and skipped on c_p - c_q, so a holding class adds
    q·c_q checked and Σ_{p<q} c_p - q·c_q skipped as m_q arrives.  A class
    fails exactly when some member parts from m_0 within its own budget
    (:func:`_parting`): if every member agrees with m_0 up to its budget,
    any two agree up to the longer one's.  The scan takes the pairs
    (m_0, m_q) first, so it first fails at (m_0, m_q), q the first parting
    member of the first failing class.  The classes before it count in
    closed form; then each (m_0, m_p), p < q, adds c_p checked and
    c_0 - c_p skipped, and (m_0, m_q) adds c_0 - c_q skipped and its
    contexts up to the parting one checked.

    Witness.  The least failing instance, in length-lex order on x y y2 z
    and then by |x|, |y|, |y2|, contains the leader.  Exchange argument:
    if (x, y, y2, z) fails with neither y nor y2 the leader m, F(xmz)
    differs from F(xyz) or from F(x y2 z).  In the first case (x, y, m, z)
    fails and fits, since |m| <= |y2|; it is no longer, and at equal
    length m precedes y2.  The second gives (x, m, y2, z) likewise.  So
    with c*(y) the size of y's first parting context, the witness has
    total length n* = min |y| + |m| + c*(y) and is the least failing
    (x, y, m, z) or (x, m, y, z) among the y that reach n*, over their
    contexts of size c*(y).  Once some y reaches n*, each later search
    stops at size n* - |y| - |m|.  The cap is exact: a y that parts only
    beyond it has |y| + |m| + c*(y) above n*, which only falls.  Once the
    counters are known, the walk leaves a class at its first y with
    |y| + |m| > n*, and stops at the first leader with 2|m| > n*: members
    and leaders come in length-lex order, so no later y reaches n*.
    """
    dom = fn.domain(level)
    holds = _is_congruence(dom)
    cum = dom.context_counts
    checked = skipped = 0  # over the pairs walked so far, in closed form
    counted = None  # the pair scan's (checked, skipped), once it fails
    best, reach = 2 * level + 1, []  # n*, and (y, m, c*(y)) of the y reaching it
    for members in dom.classes.values():
        lead = members[0]
        if counted is not None and 2 * len(lead) > best:
            break
        c0 = total = cum[level - len(lead)]  # total: Σ c_p over the members so far
        before = checked, skipped  # over the classes before this one
        for q, y in enumerate(members[1:], 1):
            if counted is not None and len(y) + len(lead) > best:
                break
            c = cum[level - len(y)]
            if not holds:
                part = _parting(dom, y, lead, min(level - len(y), best - len(y) - len(lead)))
                if part is not None:
                    size, i = part
                    if size + len(y) + len(lead) < best:
                        best, reach = size + len(y) + len(lead), []
                    reach.append((y, lead, size))
                    if counted is None:  # (m_0, m_p) for p < q, then (m_0, m_q) to i
                        counted = (before[0] + total - c0 + i + 1,
                                   before[1] + (q + 1) * c0 - total - c)
            checked += q * c
            skipped += total - q * c
            total += c
    if counted is None:
        return _finish(None, checked, skipped)
    return CheckReport(FAILS, _least_failing(dom, reach), *counted)


def _least_failing(dom, reach) -> Witness:
    """The witness of :func:`check_preassociative`: the least failing
    (x, y, m, z) or (x, m, y, z) over the contexts of size c*(y) of each
    (y, m, c*(y)) in ``reach``."""
    vals, words = dom.vals, dom.words
    failing = []
    for y, lead, size in reach:
        for t in range(size + 1):
            for x in words[t]:
                for z in words[size - t]:
                    if vals[x + y + z] != vals[x + lead + z]:
                        failing += [(x, y, lead, z), (x, lead, y, z)]
    key = dom.alphabet.sort_key
    x, y, y2, z = min(failing, key=lambda t: (key("".join(t)), len(t[0]), len(t[1]), len(t[2])))
    return Witness((("y", y), ("y2", y2), ("x", x), ("z", z)), vals[x + y + z], vals[x + y2 + z])


# ---------------------------------------------------------------------------
# pointwise properties


def check_standard(fn: BoundedFn, level: int) -> CheckReport:
    """Verify F(x) = F(empty) only for x = empty."""
    vals = fn.domain(level).vals
    base = vals[""]
    return _scan(None if vals[s] != base else Witness((("x", s),), vals[s], base)
                 for s in itertools.islice(vals, 1, None))


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


def _require_m(m: object) -> None:
    if not _is_count(m):
        raise MalformedSpecError(f"m must be a nonnegative int, got {m!r}")


def check_m_bounded(fn: BoundedFn, m: int, level: int) -> CheckReport:
    """Verify |F(x)| <= m on the bounded domain."""
    _require_m(m)
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
    _require_m(m)
    if m > level:
        raise PreconditionError(f"m = {m} exceeds the check bound {level}")
    vals = fn.domain(level).vals
    cut = count_strings(fn.alphabet, m)
    low = {vals[s] for s in itertools.islice(vals, cut)}
    return _scan((None if vals[s] in low else Witness((("x", s),), vals[s], None)
                  for s in itertools.islice(vals, cut, None)),
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

    (i) is the full associativity check, with cap L, by its one decider
    (:func:`_run_assoc`), and (ii) is read off it on every path.  (ii)
    compares every split of w with the first one not skipped.  As
    F(empty) = empty, that is x = y = empty, with value F(w), so each
    comparison is the one (i) makes at that split.  Hence (ii) fails at
    (i)'s instance with the same sides (bindings x = y = empty, z = w, and
    (i)'s x, y, z as x2, y2, z2), skips the same instances and checks one
    fewer per string (i)'s scan enters: every string when (i) holds, else
    the strings up to and including (i)'s failing string x y z in
    length-lex order, which its position gives.

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
    full = _run_assoc(fn, level, level)
    split, entered = full.witness, len(dom.vals)
    if split is not None:
        x, y, z = (v for _, v in split.bindings)
        entered = _position(dom.alphabet, x + y + z) + 1
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
    splits = _splits(level, level)
    for w in vals:
        n = len(w)
        for i, j in splits[n]:
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
    for w in vals:
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

    Candidates are the kernel-mates a of the empty string, tried in
    length-lex order; each must verify F(xz) = F(x a z) for every context
    with |x a z| <= level.  Returns the first that does, or None when none
    does.  Raises NotApplicableError when F is standard on the domain.

    This reads the leader pairs of :func:`check_preassociative`: the empty
    string leads its class, and a mate a is absorbed exactly when it never
    parts from that leader within its budget L - |a| (:func:`_parting`).
    """
    dom = fn.domain(level)
    mates = dom.classes[dom.vals[""]][1:]
    if not mates:
        raise NotApplicableError(
            "function is standard on the bounded domain; nothing is absorbed"
        )
    return next((a for a in mates if _parting(dom, a, "", level - len(a)) is None), None)
