"""Exhaustive enumeration of small algebras up to isomorphism.

Sum tables are searched directly: the bottom row and column are forced by
neutrality, sums against the top are forced undefined for nonzero arguments,
and only the interior cells are free.  Candidate values exclude the bottom
and both arguments, since a sum equal to one of its arguments forces the
other to be zero.  Branches are cut on duplicated supplements and on
associativity conflicts, defined or undefined, among the triples that read
the cell just decided: the table before it had none, so no other triple can
hold one.  Every surviving leaf is still passed through the full validator,
which remains the authority.  Representatives are the lexicographically
least relabelings under permutations fixing bottom and top.

Relational structures are searched exhaustively only at very small sizes,
with the comultiplication transported through the rotation of the
multiplication.  A multiplication and unit that fail the monoid checks are
skipped before any counit is tried, since the Frobenius validator starts
with those checks.  Larger relational test material comes from a deterministic
candidate stream: known-good structures together with all of their
single-step mutations that still present a well-formed complex.

Sum tables and sum-preserving maps are searched by one depth-first search
routine (``algebra._depth_first``), classes are least relabelings
(``_least_relabeling``), and relational candidates are built in one place
(``_assemble_candidate``).  The exhaustive kinds share one size check, with
the bound picked by kind, and the candidate stream lists the bases of each
size once, one per signature, before it mutates them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, permutations, product

from .algebra import (
    EffectAlgebraTable,
    PseudoEffectAlgebraTable,
    RelFA,
    SumTable,
    _depth_first,
    _transport_delta,
    to_relfa,
    validate,
)
from .catalog import cyclic_group_algebra, klein_group_algebra
from .nerve import nerve, rotations

TABLE_BOUND = 5
RELATIONAL_BOUND = 2
CANDIDATE_BOUND = 4

KINDS = (
    "effect-algebra",
    "pseudo-effect-algebra",
    "frobenius",
    "frobenius-candidates",
)

# Each table kind's class and the name prefix of its representatives.
_TABLES = {cls.kind: (cls, prefix) for cls, prefix in
           ((EffectAlgebraTable, "ea"), (PseudoEffectAlgebraTable, "pea"))}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_OPEN = object()


def _carrier(n: int) -> tuple[str, ...]:
    """Carrier names for a size-n table: bottom, letters, top."""
    if n == 1:
        return ("0",)
    return ("0",) + tuple(_LETTERS[: n - 2]) + ("1",)


# ---------------------------------------------------------------------------
# Sum table search


def _assoc_clash(T: dict, n: int, i: int, j: int) -> bool:
    """True when a triple (a, b, c) reading the fresh cell (i, j) in one of
    its four lookups decides both association orders and they disagree, in
    definedness or in value.  The table had no conflict before the cell was
    decided, so only these triples can have one now."""
    triples = [(i, j, c) for c in range(n)] + [(a, i, j) for a in range(n)]
    triples += [(a, b, j) for (a, b), v in T.items() if v == i]
    triples += [(i, b, c) for (b, c), v in T.items() if v == j]
    for a, b, c in triples:
        ab, bc = T.get((a, b), _OPEN), T.get((b, c), _OPEN)
        left = ab if ab is _OPEN or ab is None else T.get((ab, c), _OPEN)
        right = bc if bc is _OPEN or bc is None else T.get((a, bc), _OPEN)
        if left is not _OPEN and right is not _OPEN and left != right:
            return True
    return False


def _supplement_clash(T: dict, n: int, i: int, j: int) -> bool:
    """True when the fresh top-valued cell (i, j) duplicates a supplement."""
    top = n - 1
    if any(T.get((i, c)) == top for c in range(n) if c != j):
        return True
    if any(T.get((r, j)) == top for r in range(n) if r != i):
        return True
    return False


def _forced_cells(n: int) -> dict:
    T: dict = {}
    for k in range(n):
        T[(0, k)] = k
        T[(k, 0)] = k
    top = n - 1
    for k in range(1, n):
        T[(top, k)] = None
        T[(k, top)] = None
    return T


def _least_relabeling(n: int, movable, encode) -> tuple:
    """The least ``encode(m)`` over the relabelings m of 0..n-1, dicts from
    old to new label, that permute only the labels in ``movable``."""
    identity = {k: k for k in range(n)}
    return min(encode(identity | dict(zip(movable, perm))) for perm in permutations(movable))


def _canonical_table(T: dict, n: int) -> tuple:
    """Lexicographically least row-major flattening over relabelings that
    fix bottom and top.  Undefined cells flatten to the sentinel n."""
    def encode(m: dict) -> tuple:
        flat = [0] * (n * n)
        for (r, c), v in T.items():
            flat[m[r] * n + m[c]] = n if v is None else m[v]
        return tuple(flat)

    return _least_relabeling(n, range(1, n - 1), encode)


def _table_from_form(n: int, form: tuple, kind: str, index: int) -> SumTable:
    names = _carrier(n)
    sums = {}
    for r in range(n):
        for c in range(n):
            v = form[r * n + c]
            if v < n:
                sums[(names[r], names[c])] = names[v]
    cls, prefix = _TABLES[kind]
    return cls(f"{prefix}{n}_{index}", names, names[0], names[-1], sums)


@lru_cache(maxsize=None)
def _table_forms(n: int, kind: str) -> tuple[tuple, ...]:
    cls = _TABLES[kind][0]
    commutative = kind == "effect-algebra"
    mids = range(1, n - 1)
    if commutative:
        cells = [(i, j) for i in mids for j in mids if i <= j]
    else:
        cells = [(i, j) for i in mids for j in mids]
    names = _carrier(n)
    found: dict[tuple, None] = {}
    T = _forced_cells(n)

    def options(k: int) -> list:
        return [None] + [v for v in range(1, n) if v not in cells[k]]

    def place(k: int, v) -> bool:
        i, j = cells[k]
        mirrored = commutative and i != j
        T[(i, j)] = v
        if mirrored:
            T[(j, i)] = v
        if v == n - 1 and (_supplement_clash(T, n, i, j)
                           or mirrored and _supplement_clash(T, n, j, i)):
            return False
        return not (_assoc_clash(T, n, i, j) or mirrored and _assoc_clash(T, n, j, i))

    def clear(k: int) -> None:
        i, j = cells[k]
        del T[(i, j)]
        if commutative and i != j:
            del T[(j, i)]

    for _ in _depth_first(len(cells), options, place, clear):
        sums = {(names[a], names[b]): names[v] for (a, b), v in T.items() if v is not None}
        candidate = cls("candidate", names, names[0], names[-1], sums)
        if validate(kind, candidate).passed:
            found.setdefault(_canonical_table(T, n), None)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Relational structures


def _relfa_canonical(A: RelFA) -> tuple:
    """The least ``(n, mu, eta, delta, eps)`` form of A over its relabelings."""
    n = len(A.elements)

    def encode(m: dict) -> tuple:
        r = {e: m[k] for k, e in enumerate(A.elements)}
        return (
            n,
            tuple(sorted((r[x], r[y], r[z]) for x, y, z in A.mu)),
            tuple(sorted(r[u] for u in A.eta)),
            tuple(sorted((r[z], r[x], r[y]) for z, x, y in A.delta)),
            tuple(sorted(r[u] for u in A.epsilon)),
        )

    return _least_relabeling(n, range(n), encode)


def _relfa_from_form(form: tuple, index: int) -> RelFA:
    n, mu, eta, delta, eps = form
    els = tuple(f"x{k}" for k in range(n))
    return RelFA(
        f"frob{n}_{index}",
        els,
        frozenset((els[a], els[b], els[c]) for a, b, c in mu),
        frozenset(els[k] for k in eta),
        frozenset((els[a], els[b], els[c]) for a, b, c in delta),
        frozenset(els[k] for k in eps),
    )


def _assemble_candidate(elements, mu, eta, eps, name: str) -> RelFA | None:
    """A relational candidate, for the exhaustive search and the stream
    alike: units must be idempotent and the data must present a complex
    with one absorbing unit on each side of every element.  The
    comultiplication is always the transported one, empty when the complex
    has no rotation."""
    if any((u, u, u) not in mu for u in eta):
        return None
    probe = RelFA("probe", elements, mu, eta, frozenset(), eps)
    try:
        C = nerve(probe)
    except ValueError:
        return None
    try:
        _, beta = rotations(C)
    except ValueError:
        return RelFA(name, elements, mu, eta, frozenset(), eps)
    return RelFA(name, elements, mu, eta, _transport_delta(elements, beta, C.triangles), eps)


@lru_cache(maxsize=None)
def _relational_forms(n: int) -> tuple[tuple, ...]:
    els = tuple(f"x{k}" for k in range(n))
    relations = [frozenset(compress(product(els, repeat=3), bits))
                 for bits in product((0, 1), repeat=n ** 3)]
    units = [frozenset(compress(els, bits)) for bits in product((0, 1), repeat=n)]
    found: dict[tuple, None] = {}
    for mu, eta in product(relations, units):
        # validate("frobenius") starts with these monoid checks on (mu, eta),
        # and they make every unit idempotent, as ``_assemble_candidate`` asks.
        if not validate("rel-monoid", RelFA("monoid", els, mu, eta, frozenset(),
                                            frozenset())).passed:
            continue
        for eps in units:
            candidate = _assemble_candidate(els, mu, eta, eps, "candidate")
            if candidate is not None and validate("frobenius", candidate).passed:
                found.setdefault(_relfa_canonical(candidate), None)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Candidate stream


def _mutations(base: RelFA) -> list[RelFA]:
    els, mu, eta, eps = base.elements, base.mu, base.eta, base.epsilon
    variants = ([(f"+mu:{','.join(t)}", mu | {t}, eta, eps)
                 for t in sorted(product(els, repeat=3)) if t not in mu]
                + [(f"-mu:{','.join(t)}", mu - {t}, eta, eps) for t in sorted(mu)]
                + [(f"~eta:{u}", mu, eta ^ {u}, eps) for u in els]
                + [(f"~eps:{u}", mu, eta, eps ^ {u}) for u in els])
    return [c for suffix, m, h, e in variants
            if (c := _assemble_candidate(els, m, h, e, base.name + suffix)) is not None]


@lru_cache(maxsize=None)
def _candidate_stream(limit: int) -> tuple[RelFA, ...]:
    out: list[RelFA] = []
    seen: set[tuple] = set()

    def add(c: RelFA) -> None:
        sig = c.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(c)

    for m in range(1, limit + 1):
        bases = [to_relfa(t) for kind in _TABLES for t in enumerate_small(m, kind)]
        bases += [cyclic_group_algebra(m)] if m >= 2 else []
        bases += [klein_group_algebra()] if m == 4 else []
        bases += enumerate_small(m, "frobenius") if m <= RELATIONAL_BOUND else []
        # Every effect algebra class is also a pseudo effect algebra class:
        # one base per signature keeps its mutations from being built twice.
        unique: dict[tuple, RelFA] = {}
        for b in bases:
            unique.setdefault(b.signature(), b)
        for b in unique.values():
            add(b)
            for mut in _mutations(b):
                add(mut)
    return tuple(out)


# ---------------------------------------------------------------------------
# Entry point


def enumerate_small(size: int, kind: str) -> list:
    """All structures of the given kind and size, one per isomorphism
    class, in a deterministic order.  The kind ``frobenius-candidates``
    instead returns the mutation stream over all sizes up to ``size``."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    if kind == "frobenius-candidates":
        if size > CANDIDATE_BOUND:
            raise ValueError(
                f"the candidate stream is generated only up to size "
                f"{CANDIDATE_BOUND}; got {size}")
        return list(_candidate_stream(size))
    bound = RELATIONAL_BOUND if kind == "frobenius" else TABLE_BOUND
    if size > bound:
        raise ValueError(f"{kind} enumeration is exhaustive only up to size {bound}; got {size}")
    if kind == "frobenius":
        return [_relfa_from_form(f, k) for k, f in enumerate(_relational_forms(size))]
    forms = _table_forms(size, kind)
    return [_table_from_form(size, f, kind, k) for k, f in enumerate(forms)]
