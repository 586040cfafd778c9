"""Builtin structure constructors and the named catalog.

Constructors produce sum tables (chains, Boolean algebras, integer-vector
intervals, horizontal sums, the pasted orthoalgebra fixture) or relational
algebras directly (group algebras).  ``construct_catalog`` assembles the
named registry the CLI exposes.
"""

from __future__ import annotations

import itertools

from .algebra import EffectAlgebraTable, RelFA, SumTable, relabel_table


def chain(n: int) -> EffectAlgebraTable:
    """Total order 0 < 1 < ... < n with truncated addition."""
    if n < 1:
        raise ValueError("chain(n) needs n >= 1")
    els = tuple(str(i) for i in range(n + 1))
    sums = {(str(i), str(j)): str(i + j)
            for i in range(n + 1) for j in range(n + 1) if i + j <= n}
    return EffectAlgebraTable(f"chain({n})", els, "0", str(n), sums)


_ATOM_LETTERS = "abcdef"


def boolean(k: int) -> EffectAlgebraTable:
    """Boolean algebra 2^k; elements named by their atom letters."""
    if not 1 <= k <= len(_ATOM_LETTERS):
        raise ValueError(f"boolean(k) needs 1 <= k <= {len(_ATOM_LETTERS)}")
    letters = _ATOM_LETTERS[:k]

    def name(s: frozenset[str]) -> str:
        if not s:
            return "0"
        if len(s) == k:
            return "1"
        return "".join(c for c in letters if c in s)

    subsets = [frozenset(c) for r in range(k + 1)
               for c in itertools.combinations(letters, r)]
    els = tuple(name(s) for s in subsets)
    sums = {}
    for s in subsets:
        for t in subsets:
            if not (s & t):
                sums[(name(s), name(t))] = name(s | t)
    return EffectAlgebraTable(f"boolean({k})", els, "0", "1", sums)


def zk_interval(u: tuple[int, ...]) -> EffectAlgebraTable:
    """Interval [0, u] in Z^k with coordinatewise truncated addition."""
    if not u or any(c < 0 for c in u) or all(c == 0 for c in u):
        raise ValueError("zk_interval needs a nonzero nonnegative bound vector")

    def name(v: tuple[int, ...]) -> str:
        return "(" + ",".join(str(c) for c in v) + ")"

    ranges = [range(c + 1) for c in u]
    vecs = list(itertools.product(*ranges))
    els = tuple(name(v) for v in vecs)
    sums = {}
    for v in vecs:
        for w in vecs:
            s = tuple(a + b for a, b in zip(v, w))
            if all(a <= b for a, b in zip(s, u)):
                sums[(name(v), name(w))] = name(s)
    label = ",".join(str(c) for c in u)
    return EffectAlgebraTable(f"zk_interval({label})", els, name(tuple(0 for _ in u)), name(u), sums)


def group_algebra(name: str, elements: tuple[str, ...], op) -> RelFA:
    """Relational algebra of a finite group: total single-valued mu, the
    identity as unit and counit, delta the flipped multiplication graph."""
    identity = None
    for e in elements:
        if all(op(e, x) == x and op(x, e) == x for x in elements):
            identity = e
            break
    if identity is None:
        raise ValueError(f"{name}: no identity element")
    mu = frozenset((x, y, op(x, y)) for x in elements for y in elements)
    delta = frozenset((op(x, y), x, y) for x in elements for y in elements)
    return RelFA(
        name=name,
        elements=elements,
        mu=mu,
        eta=frozenset({identity}),
        delta=delta,
        epsilon=frozenset({identity}),
        notes=("group algebra: mu is the total multiplication graph, delta its flip",),
    )


def cyclic_group_algebra(n: int) -> RelFA:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    els = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    idx = {x: i for i, x in enumerate(els)}
    return group_algebra(f"group_algebra(Z/{n})", els,
                         lambda x, y: els[(idx[x] + idx[y]) % n])


def klein_group_algebra() -> RelFA:
    els = ("e", "x", "y", "xy")
    idx = {v: i for i, v in enumerate(els)}
    return group_algebra("group_algebra(V4)", els,
                         lambda a, b: els[idx[a] ^ idx[b]])


def horizontal_sum(t1: SumTable, t2: SumTable, name: str | None = None) -> EffectAlgebraTable:
    """Glue two sum tables at shared bottom and top; middles stay disjoint
    and cross sums are undefined."""
    if t1.zero != t2.zero or t1.one != t2.one:
        raise ValueError("horizontal sum needs matching zero and one names")
    mid1 = set(t1.elements) - {t1.zero, t1.one}
    mid2 = set(t2.elements) - {t2.zero, t2.one}
    clash = mid1 & mid2
    if clash:
        raise ValueError(f"horizontal sum name clash: {sorted(clash)}")
    els = (t1.zero,) + tuple(x for x in t1.elements if x in mid1) \
        + tuple(x for x in t2.elements if x in mid2) + (t1.one,)
    sums = dict(t1.sums)
    sums.update(t2.sums)
    return EffectAlgebraTable(name or f"horizontal_sum({t1.name},{t2.name})",
                              els, t1.zero, t1.one, sums)


def _prefixed_copy(t: SumTable, prefix: str) -> SumTable:
    mapping = {x: (x if x in (t.zero, t.one) else prefix + x) for x in t.elements}
    mapping[t.zero] = "0"
    mapping[t.one] = "1"
    return relabel_table(t, mapping)


def wright_triangle() -> EffectAlgebraTable:
    """Three 8-element Boolean blocks pasted in a cycle.

    Blocks on atoms {a,b,c}, {c,d,e}, {e,f,a}; each two-atom join inside a
    block is the supplement of the remaining atom, written as the matching
    capital letter.  An orthoalgebra whose pairs of orthogonal atoms need not
    have joins.
    """
    blocks = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a")]
    els = ("0", "a", "b", "c", "d", "e", "f", "A", "B", "C", "D", "E", "F", "1")

    def block_name(block: tuple[str, str, str], s: frozenset[str]) -> str:
        if not s:
            return "0"
        if len(s) == 1:
            return next(iter(s))
        if len(s) == 3:
            return "1"
        missing = next(x for x in block if x not in s)
        return missing.upper()

    sums: dict[tuple[str, str], str] = {}
    for block in blocks:
        subsets = [frozenset(c) for r in range(4)
                   for c in itertools.combinations(block, r)]
        for s in subsets:
            for t in subsets:
                if not (s & t):
                    key = (block_name(block, s), block_name(block, t))
                    val = block_name(block, s | t)
                    if key in sums and sums[key] != val:
                        raise ValueError(f"pasting conflict at {key}")
                    sums[key] = val
    return EffectAlgebraTable("wright-triangle", els, "0", "1", sums)


def construct_catalog() -> dict[str, object]:
    """Named registry of builtin structures, in stable order."""
    entries: dict[str, object] = {}
    for n in range(1, 6):
        t = chain(n)
        entries[t.name] = t
    for k in range(1, 4):
        t = boolean(k)
        entries[t.name] = t
    for u in ((2, 1), (1, 1, 1)):
        t = zk_interval(u)
        entries[t.name] = t
    for n in range(2, 6):
        g = cyclic_group_algebra(n)
        entries[g.name] = g
    hs1 = horizontal_sum(_prefixed_copy(chain(2), "p"), _prefixed_copy(chain(2), "q"),
                         "horizontal_sum(chain(2),chain(2))")
    entries[hs1.name] = hs1
    hs2 = horizontal_sum(_prefixed_copy(boolean(2), "p"), _prefixed_copy(chain(3), "q"),
                         "horizontal_sum(boolean(2),chain(3))")
    entries[hs2.name] = hs2
    w = wright_triangle()
    entries[w.name] = w
    return entries
