"""Brute-force oracles used to cross-check the library's verdicts.

Everything here recomputes properties straight from their definitions with
nested loops and no shared bookkeeping, so a bug in the checkers cannot hide
behind the same bug in the tests.
"""

from __future__ import annotations

import functools
import itertools

from strfn import (
    FAILS, HOLDS, VACUOUS, AlphaFn, AlphaRejection, AlphaSweep, BoundedFn, CheckReport,
    InsufficientHorizonError, NotApplicableError, Token, UnevaluableError, Witness,
    enumerate_strings, eval_alpha, identity_alpha,
)
from strfn import lengthbased
from strfn.builtins import BuiltinDef


def _finish(witness, checked: int, skipped: int) -> CheckReport:
    """The report of a scan that stopped at ``witness``, or ran through."""
    verdict = FAILS if witness is not None else HOLDS if checked else VACUOUS
    return CheckReport(verdict, witness, checked, skipped)


def oracle_associative(fn: BoundedFn, level: int) -> tuple[bool, int]:
    """Scan every split of every string; return (holds, skipped)."""
    ok = True
    skipped = 0
    for x in enumerate_strings(fn.alphabet, level):
        for y in enumerate_strings(fn.alphabet, level - len(x)):
            for z in enumerate_strings(fn.alphabet, level - len(x) - len(y)):
                inner = fn.eval(y)
                if len(x) + len(inner) + len(z) > level:
                    skipped += 1
                    continue
                if fn.eval(x + y + z) != fn.eval(x + inner + z):
                    ok = False
    return ok, skipped


def oracle_associative_reduced(fn: BoundedFn, level: int) -> tuple[bool, int]:
    """Same scan restricted to splits with at most one outer letter."""
    ok = True
    skipped = 0
    for x in enumerate_strings(fn.alphabet, level):
        for y in enumerate_strings(fn.alphabet, level - len(x)):
            for z in enumerate_strings(fn.alphabet, level - len(x) - len(y)):
                if len(x) + len(z) > 1:
                    continue
                inner = fn.eval(y)
                if len(x) + len(inner) + len(z) > level:
                    skipped += 1
                    continue
                if fn.eval(x + y + z) != fn.eval(x + inner + z):
                    ok = False
    return ok, skipped


def oracle_preassociative(fn: BoundedFn, level: int) -> tuple[bool, int]:
    """Check F(y) = F(y') implies F(xyz) = F(xy'z), straight from the definition."""
    ok = True
    skipped = 0
    strings = list(enumerate_strings(fn.alphabet, level))
    for y in strings:
        for y2 in strings:
            if fn.eval(y) != fn.eval(y2):
                continue
            for x in enumerate_strings(fn.alphabet, level):
                for z in enumerate_strings(fn.alphabet, level - len(x)):
                    long = max(len(y), len(y2))
                    if len(x) + len(z) + long > level:
                        if len(x) + len(z) + min(len(y), len(y2)) <= level:
                            skipped += 1
                        continue
                    if fn.eval(x + y + z) != fn.eval(x + y2 + z):
                        ok = False
    return ok, skipped


def oracle_preassoc_first_witness(alphabet, vals, level):
    """Locate the canonical first witness by direct enumeration.

    Tuples (x, y, y2, z) are ordered by length-lex on x+y+y2+z, then by
    split position.  Only called once a failure is known to exist, so the
    scan terminates early.
    """
    letters = alphabet.letters
    for n in range(2 * level + 1):
        for combo in itertools.product(letters, repeat=n):
            w = "".join(combo)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    y = w[i:j]
                    if n - (j - i) > level:
                        # |x y2 z| too long regardless of k; larger j only shrinks it
                        continue
                    for k in range(j, n + 1):
                        if n - (k - j) > level:
                            continue
                        y2 = w[j:k]
                        if y == y2:
                            continue
                        if vals[y] != vals[y2]:
                            continue
                        left = vals[w[:i] + y + w[k:]]
                        right = vals[w[:i] + y2 + w[k:]]
                        if left != right:
                            return Witness(
                                (("y", y), ("y2", y2), ("x", w[:i]), ("z", w[k:])),
                                left,
                                right,
                            )
    return None


@functools.lru_cache(maxsize=None)
def oracle_contexts(alphabet, level) -> tuple[tuple[str, str], ...]:
    """Every context (x, z) with |x| + |z| <= level, in the order the
    preassociativity check searches them: by size |x| + |z|, then by |x|,
    then x and z in length-lex order.
    """
    strings = list(enumerate_strings(alphabet, level))
    key = alphabet.length_lex_key
    return tuple(sorted(((x, z) for x in strings for z in strings if len(x) + len(z) <= level),
                        key=lambda c: (len(c[0]) + len(c[1]), key(c[0]), key(c[1]))))


def oracle_preassoc_witness(dom):
    """The least failing preassociativity instance, found by total length.

    Instances (x, y, y2, z) are ordered by length-lex on w = x+y+y2+z, then
    by the split positions |x|, |x|+|y|, |x|+|y|+|y2|.  A failing instance
    pairs y != y2 of one kernel class with a context of total length c that
    both sides fit, c + max(|y|, |y2|) <= L, so it is exactly one tuple
    (w, i, j, k) of that order, with |w| = n = |y| + |y2| + c.  Shorter w
    come first, so the least failing tuple lies at the least n that has a
    failing instance; within that n it is the least by (w letter by letter,
    |x|, |y|, |y2|).  Every pair of class members is tried, one length
    pair at a time.
    """
    vals, level = dom.vals, dom.level
    contexts, cum = oracle_contexts(dom.alphabet, level), dom.context_counts
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
    return None


def oracle_preassoc_scan(dom) -> CheckReport:
    """``check_preassociative``'s report by the quadratic pair scan.

    Each unordered pair within a kernel class, classes in leader order and
    pairs in ``itertools.combinations`` order, against every context both
    sides fit, stopping at the first failing instance.  Contexts where
    only the shorter side fits are counted as skipped.  The witness is
    :func:`oracle_preassoc_witness`'s.
    """
    vals, level = dom.vals, dom.level
    contexts, cum = oracle_contexts(dom.alphabet, level), dom.context_counts
    checked = skipped = 0
    for members in dom.classes.values():
        for y, y2 in itertools.combinations(members, 2):
            # Members are in length-lex order, so |y| <= |y2| <= level.
            both = cum[level - len(y2)]
            skipped += cum[level - len(y)] - both
            for x, z in contexts[:both]:
                checked += 1
                if vals[x + y + z] != vals[x + y2 + z]:
                    return CheckReport(FAILS, oracle_preassoc_witness(dom), checked, skipped)
    return _finish(None, checked, skipped)


def oracle_absorbed_string(fn: BoundedFn, level: int) -> str | None:
    """``find_absorbed_string`` straight from the definition.

    Every nonempty a with F(a) = F(empty), in length-lex order, against
    every x and z of X^{<=level} with |x a z| <= level.  Raises
    NotApplicableError when no nonempty string shares F(empty).
    """
    strings = list(enumerate_strings(fn.alphabet, level))
    mates = [a for a in strings[1:] if fn.eval(a) == fn.eval("")]
    if not mates:
        raise NotApplicableError("no nonempty string shares the value of the empty string")
    for a in mates:
        if all(fn.eval(x + z) == fn.eval(x + a + z)
               for x in strings for z in strings if len(x + a + z) <= level):
            return a
    return None


def oracle_decompositions_agree(fn: BoundedFn, level: int) -> CheckReport:
    """Definition (ii): every decomposition of a string gives the same value.

    Per string, the first split whose inner evaluation stays within the
    bound is the reference; every later such split is compared with it.
    Returns the report ``check_equivalent_definitions`` gives for "ii".
    """
    checked = skipped = 0
    for w in enumerate_strings(fn.alphabet, level):
        n = len(w)
        first = None
        for i in range(n + 1):
            for j in range(i, n + 1):
                v = fn.eval(w[i:j])
                if i + len(v) + (n - j) > level:
                    skipped += 1
                    continue
                out = fn.eval(w[:i] + v + w[j:])
                if first is None:
                    first = ((w[:i], w[i:j], w[j:]), out)
                    continue
                checked += 1
                if out != first[1]:
                    (x1, y1, z1) = first[0]
                    witness = Witness(
                        (
                            ("x", x1), ("y", y1), ("z", z1),
                            ("x2", w[:i]), ("y2", w[i:j]), ("z2", w[j:]),
                        ),
                        first[1],
                        out,
                    )
                    return CheckReport(FAILS, witness, checked, skipped)
    return CheckReport(HOLDS if checked else VACUOUS, None, checked, skipped)


def oracle_assoc_scan(dom, cap: int) -> tuple[CheckReport, int]:
    """Associativity over the contexts with |x| + |z| <= ``cap``, by scan.

    Every string w in length-lex order, every split (x, y, z) of w by |x|
    and then by |x y|, stopping at the first failing instance.  Returns
    the report and the number of strings entered, the failing one
    included.
    """
    vals, level = dom.vals, dom.level
    checked = skipped = entered = 0
    for w in vals:
        entered += 1
        n = len(w)
        for i in range(n + 1):
            for j in range(i, n + 1):
                x, y, z = w[:i], w[i:j], w[j:]
                if len(x) + len(z) > cap:
                    continue
                inner = vals[y]
                if len(x) + len(inner) + len(z) > level:
                    skipped += 1
                    continue
                checked += 1
                if vals[w] != vals[x + inner + z]:
                    witness = Witness((("x", x), ("y", y), ("z", z)), vals[w], vals[x + inner + z])
                    return _finish(witness, checked, skipped), entered
    return _finish(None, checked, skipped), entered


def oracle_equiv_scan(dom) -> dict[str, CheckReport]:
    """The four equivalent definitions by scanning the whole domain.

    (i) is the associativity scan and (ii) is read off it; (iii) and (iv)
    are counted by hand, loop by loop.  Returns the reports
    ``check_equivalent_definitions`` gives.
    """
    strings, vals, level = list(dom.vals), dom.vals, dom.level
    full, entered = oracle_assoc_scan(dom, level)
    split = None
    if full.witness is not None:
        x, y, z = (v for _, v in full.witness.bindings)
        split = Witness((("x", ""), ("y", ""), ("z", x + y + z), ("x2", x), ("y2", y),
                         ("z2", z)), full.witness.lhs, full.witness.rhs)
    return {
        "i": full,
        "ii": _finish(split, full.checked - entered, full.skipped),
        "iii": _oracle_iii(strings, vals, level),
        "iv": _oracle_iv(strings, vals, level),
    }


def _oracle_iii(strings, vals, level) -> CheckReport:
    """(iii): F(F(xy) z) = F(x F(yz))."""
    checked = skipped = 0
    for w in strings:
        n = len(w)
        for i in range(n + 1):
            for j in range(i, n + 1):
                u = vals[w[:j]]
                v = vals[w[i:]]
                if len(u) + (n - j) > level or i + len(v) > level:
                    skipped += 1
                    continue
                checked += 1
                left = vals[u + w[j:]]
                right = vals[w[:i] + v]
                if left != right:
                    witness = Witness(
                        (("x", w[:i]), ("y", w[i:j]), ("z", w[j:])), left, right
                    )
                    return _finish(witness, checked, skipped)
    return _finish(None, checked, skipped)


def _oracle_iv(strings, vals, level) -> CheckReport:
    """(iv): F(xy) = F(F(x) F(y))."""
    checked = skipped = 0
    for w in strings:
        n = len(w)
        for i in range(n + 1):
            u = vals[w[:i]]
            v = vals[w[i:]]
            if len(u) + len(v) > level:
                skipped += 1
                continue
            checked += 1
            if vals[w] != vals[u + v]:
                witness = Witness(
                    (("x", w[:i]), ("y", w[i:])), vals[w], vals[u + v]
                )
                return _finish(witness, checked, skipped)
    return _finish(None, checked, skipped)


def oracle_alpha_equations(values) -> CheckReport:
    """The report of ``check_alpha_equations`` by the pairwise scan.

    Idempotence entry by entry, then every pair n < n2 of equal entries at
    every shift k, in that order.  O(h^3).
    """
    horizon = len(values) - 1
    for n, v in enumerate(values):
        if v > horizon:
            raise UnevaluableError(
                f"entry alpha({n}) = {v} exceeds horizon {horizon}"
            )

    checked = 0
    for n, v in enumerate(values):
        checked += 1
        if values[v] != v:
            return CheckReport(
                FAILS,
                Witness((("n", str(n)),), Token(values[v]), Token(v)),
                checked,
                0,
                detail="alpha(alpha(n)) != alpha(n)",
            )

    for n in range(len(values)):
        for n2 in range(n + 1, len(values)):
            if values[n] != values[n2]:
                continue
            for k in range(1, len(values) - n2):
                checked += 1
                if values[n + k] != values[n2 + k]:
                    return CheckReport(
                        FAILS,
                        Witness(
                            (("n", str(n)), ("n2", str(n2)), ("k", str(k))),
                            Token(values[n + k]),
                            Token(values[n2 + k]),
                        ),
                        checked,
                        0,
                        detail="equal values fail to shift together",
                    )
    return CheckReport(HOLDS if checked else VACUOUS, None, checked, 0)


def _separator_insert(bar: str, s: str) -> str:
    if not s:
        return s
    out = [s[0]]
    for prev, cur in zip(s, s[1:]):
        if prev != bar and cur != bar:
            out.append(bar)
        out.append(cur)
    return "".join(out)


# Each builtin's closed form, keyed by its registry name: f(params, s).
_CLOSED_FORMS = {
    "identity": lambda p, s: s,
    "sort": lambda p, s: "".join(sorted(s, key=p["order"].index)),
    "letter_remove": lambda p, s: s.replace(p["letter"], ""),
    "letter_remove_g": lambda p, s: (p["letter"] if set(s) <= {p["letter"]}
                                     else s.replace(p["letter"], "")),
    "ofo": lambda p, s: "".join(dict.fromkeys(s)),
    "separator_insert": lambda p, s: _separator_insert(p["bar"], s),
    "length": lambda p, s: Token(len(s)),
    "length_of": lambda p, s: Token(len(oracle_builtin(p["inner"])(s))),
    "constant": lambda p, s: p["value"],
    "length_based": lambda p, s: p["psi"].apply(eval_alpha(p["alpha"], len(s))),
}


def oracle_builtin(definition):
    """A builtin definition's closed form as a function of the string,
    from its name and params alone; any other definition's ``apply``."""
    if not isinstance(definition, BuiltinDef):
        return definition.apply
    return functools.partial(_CLOSED_FORMS[definition.name], definition.params)


def oracle_standard(fn: BoundedFn, level: int) -> bool:
    base = fn.eval("")
    return all(
        fn.eval(s) != base for s in enumerate_strings(fn.alphabet, level, min_len=1)
    )


def witness_values(fn: BoundedFn, witness, names: tuple[str, ...]) -> list[str]:
    """Pull the named bindings out of a witness, in order."""
    return [witness.binding(name) for name in names]


def random_string_table(alphabet, bound, rng, out_max=1):
    """A random table mapping X^{<=bound} to short strings (out_max letters)."""
    from strfn import table_fn

    outputs = list(enumerate_strings(alphabet, out_max))
    entries = {s: rng.choice(outputs) for s in enumerate_strings(alphabet, bound)}
    return table_fn(alphabet, bound, entries)


def random_token_table(alphabet, bound, rng, pool):
    """A random table mapping X^{<=bound} into a fixed pool of tokens."""
    from strfn import table_fn

    entries = {s: rng.choice(pool) for s in enumerate_strings(alphabet, bound)}
    return table_fn(alphabet, bound, entries, codomain="token")


def oracle_block_classes(alphabet, level, block0, block1):
    """Block-swap classes of X^{<=level} by a naive fixpoint over rewrite pairs.

    Lists every pair of domain strings related by swapping one occurrence
    of a block, then lowers each string's label to the least label of its
    pair partners until nothing changes.  Returns a dict from each string
    to (its class members in length-lex order, truncated), where the class
    is truncated when some member has a swap leaving the domain.
    """
    strings = list(enumerate_strings(alphabet, level))
    position = {s: i for i, s in enumerate(strings)}
    pairs, escaping = [], set()
    for s in strings:
        for old, new in ((block0, block1), (block1, block0)):
            for i in range(len(s) - len(old) + 1):
                if s[i:i + len(old)] == old:
                    t = s[:i] + new + s[i + len(old):]
                    if len(t) > level:
                        escaping.add(s)
                    else:
                        pairs.append((s, t))
    label = {s: s for s in strings}
    changed = True
    while changed:
        changed = False
        for s, t in pairs:
            least = min(label[s], label[t], key=position.__getitem__)
            for u in (s, t):
                if label[u] != least:
                    label[u] = least
                    changed = True
    members: dict[str, list[str]] = {}
    for s in strings:
        members.setdefault(label[s], []).append(s)
    truncated = {label[s] for s in escaping}
    return {s: (tuple(members[label[s]]), label[s] in truncated) for s in strings}


def transformation_table(alphabet, bound, rng, points, token=False):
    """A table through a random monoid morphism into the maps of ``points``.

    Each letter acts as a random map of range(points); a string acts as
    the composite of its letters' maps, so equal actions form a congruence
    and the table is preassociative.  String-valued, it sends each string
    to the length-lex least string of the same action (never longer, and
    idempotent), so it is also associative; token-valued, it sends it to
    the action itself, whose classes mix lengths.
    """
    from strfn import Token, table_fn

    maps = {a: [rng.randrange(points) for _ in range(points)] for a in alphabet.letters}
    action = {"": tuple(range(points))}
    least, entries = {}, {}
    for s in enumerate_strings(alphabet, bound):
        if s:
            action[s] = tuple(maps[s[-1]][i] for i in action[s[:-1]])
        entries[s] = Token(action[s]) if token else least.setdefault(action[s], s)
    return table_fn(alphabet, bound, entries, codomain="token" if token else "string")


def oracle_classify(values):
    """``classify_alpha`` on a valid table, by separate passes over the moved n.

    Lists the moved n (alpha(n) != n), takes the threshold and the period
    from them in two more passes, and walks the periodicity entry by entry.
    """
    horizon = len(values) - 1
    moved = [n for n, v in enumerate(values) if v != n]
    if not moved:
        return identity_alpha()
    n1 = min(min(moved), min(values[n] for n in moved))
    ell = min(abs(values[n] - n) for n in moved)
    if horizon < n1 + 2 * ell:
        raise InsufficientHorizonError(n1, ell, horizon)
    for n in range(n1, n1 + ell):
        v = values[n]
        if v < n:
            return AlphaRejection("window-growth", f"alpha({n}) = {v} < {n} inside the window")
        if (v - n) % ell != 0:
            return AlphaRejection("window-residue",
                                  f"alpha({n}) = {v} is not congruent to {n} mod {ell}")
    for n in range(n1, len(values) - ell):
        if values[n] != values[n + ell]:
            return AlphaRejection(
                "periodicity", f"alpha({n}) = {values[n]} but alpha({n + ell}) = {values[n + ell]}"
            )
    return AlphaFn("structured", n1, ell, tuple(values[: n1 + ell]))


def oracle_sweep(horizon, max_value):
    """``sweep_alpha_tables`` by running both deciders on every table in turn.

    The deciders are read from ``lengthbased`` at each call, so a test
    that replaces one there replaces it here too.
    """
    equations_hold = accepted = insufficient = 0
    mismatches = []
    for values in itertools.product(range(max_value + 1), repeat=horizon + 1):
        try:
            ok = lengthbased._shape(values)[2]
        except InsufficientHorizonError:
            insufficient += 1
            continue
        if max(values) > horizon:
            insufficient += 1
            continue
        holds = lengthbased._equations_hold(values)
        equations_hold += holds
        accepted += ok
        if ok != holds:
            mismatches.append(values)
    total = (max_value + 1) ** (horizon + 1)
    return AlphaSweep(total, equations_hold, accepted, total - insufficient - accepted,
                      insufficient, mismatches)


def oracle_period_break(values, start, period):
    """First (n, n + period), n >= start, with unequal entries, walked one by one."""
    for n in range(start, len(values) - period):
        if values[n] != values[n + period]:
            return (n, n + period)
    return None


def oracle_theta_reps(alphabet, level, block0, block1):
    """Each string of X^{<=level} to its class's length-lex least member.

    Runs a BFS of single-occurrence block swaps from every string, with
    no labels shared between strings.
    """
    strings = list(enumerate_strings(alphabet, level))
    position = {s: i for i, s in enumerate(strings)}
    reps = {}
    for x in strings:
        seen, queue = {x}, [x]
        for cur in queue:
            for old, new in ((block0, block1), (block1, block0)):
                for i in range(len(cur) - len(old) + 1):
                    if cur[i:i + len(old)] == old:
                        t = cur[:i] + new + cur[i + len(old):]
                        if len(t) <= level and t not in seen:
                            seen.add(t)
                            queue.append(t)
        reps[x] = min(seen, key=position.__getitem__)
    return reps
