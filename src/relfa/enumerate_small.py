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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .algebra import (
    EffectAlgebraTable,
    PseudoEffectAlgebraTable,
    RelFA,
    SumTable,
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


def _canonical_table(T: dict, n: int) -> tuple:
    """Lexicographically least row-major flattening over relabelings that
    fix bottom and top.  Undefined cells flatten to the sentinel n."""
    mids = list(range(1, n - 1))
    best = None
    for perm in permutations(mids):
        m = {0: 0}
        if n > 1:
            m[n - 1] = n - 1
        for old, new in zip(mids, perm):
            m[old] = new
        inv = {v: k for k, v in m.items()}
        flat = []
        for r in range(n):
            for c in range(n):
                v = T[(inv[r], inv[c])]
                flat.append(n if v is None else m[v])
        form = tuple(flat)
        if best is None or form < best:
            best = form
    return best


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

    def leaf(T: dict) -> None:
        sums = {
            (names[a], names[b]): names[v]
            for (a, b), v in T.items()
            if v is not None
        }
        candidate = cls("candidate", names, names[0], names[-1], sums)
        if validate(kind, candidate).passed:
            found.setdefault(_canonical_table(T, n), None)

    def fits(i: int, j: int, v, mirrored: bool) -> bool:
        T[(i, j)] = v
        if mirrored:
            T[(j, i)] = v
        if v == n - 1 and (_supplement_clash(T, n, i, j)
                           or mirrored and _supplement_clash(T, n, j, i)):
            return False
        return not (_assoc_clash(T, n, i, j) or mirrored and _assoc_clash(T, n, j, i))

    # One explicit stack of option iterators, one per filled cell: a
    # recursive closure would be a reference cycle left to the collector.
    T = _forced_cells(n)
    stack: list = []
    while True:
        if len(stack) == len(cells):
            leaf(T)
        else:
            i, j = cells[len(stack)]
            stack.append(iter([None] + [v for v in range(1, n) if v != i and v != j]))
        while stack:
            i, j = cells[len(stack) - 1]
            mirrored = commutative and i != j
            for v in stack[-1]:
                if fits(i, j, v, mirrored):
                    break
            else:
                del T[(i, j)]
                if mirrored:
                    del T[(j, i)]
                stack.pop()
                continue
            break
        else:
            break
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Relational structures


def transported_delta(elements, mu, eta, epsilon) -> frozenset:
    """The comultiplication carried over from the multiplication by the
    right rotation of the associated complex.  Empty when the complex does
    not determine the rotation."""
    probe = RelFA("probe", tuple(elements), frozenset(mu), frozenset(eta),
                  frozenset(), frozenset(epsilon))
    try:
        C = nerve(probe)
    except ValueError:
        return frozenset()
    return _rotated_delta(elements, C)


def _rotated_delta(elements, C) -> frozenset:
    """``transported_delta`` from the probe's complex C."""
    try:
        _, beta = rotations(C)
    except ValueError:
        return frozenset()
    return _transport_delta(elements, beta, C.triangles)


def _relfa_canonical(A: RelFA) -> tuple:
    n = len(A.elements)
    idx = {e: k for k, e in enumerate(A.elements)}
    best = None
    for perm in permutations(range(n)):
        m = {e: perm[idx[e]] for e in A.elements}
        form = (
            n,
            tuple(sorted((m[x], m[y], m[z]) for x, y, z in A.mu)),
            tuple(sorted(m[u] for u in A.eta)),
            tuple(sorted((m[z], m[x], m[y]) for z, x, y in A.delta)),
            tuple(sorted(m[u] for u in A.epsilon)),
        )
        if best is None or form < best:
            best = form
    return best


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


@lru_cache(maxsize=None)
def _relational_forms(n: int) -> tuple[tuple, ...]:
    els = tuple(f"x{k}" for k in range(n))
    triples = [(a, b, c) for a in els for b in els for c in els]
    subsets = [()]
    for t in triples:
        subsets = [s for s in subsets] + [s + (t,) for s in subsets]
    unit_choices = [()]
    for e in els:
        unit_choices = [s for s in unit_choices] + [s + (e,) for s in unit_choices]
    found: dict[tuple, None] = {}
    for mu_set, eta_set in product(subsets, unit_choices):
        mu, eta = frozenset(mu_set), frozenset(eta_set)
        # validate("frobenius") starts with these monoid checks on (mu, eta).
        if not validate("rel-monoid", RelFA("monoid", els, mu, eta, frozenset(),
                                            frozenset())).passed:
            continue
        for eps_set in unit_choices:
            eps = frozenset(eps_set)
            delta = transported_delta(els, mu, eta, eps)
            candidate = RelFA("candidate", els, mu, eta, delta, eps)
            if validate("frobenius", candidate).passed:
                found.setdefault(_relfa_canonical(candidate), None)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Candidate stream


def _assemble_candidate(elements, mu, eta, eps, name: str) -> RelFA | None:
    """A stream entry: units must be idempotent and the data must present a
    complex with one absorbing unit on each side of every element.  The
    comultiplication is always the transported one."""
    mu = frozenset(mu)
    eta = frozenset(eta)
    eps = frozenset(eps)
    if any((u, u, u) not in mu for u in eta):
        return None
    probe = RelFA("probe", tuple(elements), mu, eta, frozenset(), eps)
    try:
        C = nerve(probe)
    except ValueError:
        return None
    return RelFA(name, tuple(elements), mu, eta, _rotated_delta(elements, C), eps)


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
        bases: dict[tuple, RelFA] = {}

        def base(c: RelFA) -> None:
            bases.setdefault(c.signature(), c)

        for t in enumerate_small(m, "effect-algebra"):
            base(to_relfa(t))
        for t in enumerate_small(m, "pseudo-effect-algebra"):
            base(to_relfa(t))
        if m >= 2:
            base(cyclic_group_algebra(m))
        if m == 4:
            base(klein_group_algebra())
        if m <= RELATIONAL_BOUND:
            for c in enumerate_small(m, "frobenius"):
                base(c)
        for b in bases.values():
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
    if kind in _TABLES:
        if size > TABLE_BOUND:
            raise ValueError(
                f"{kind} enumeration is exhaustive only up to size "
                f"{TABLE_BOUND}; got {size}")
        forms = _table_forms(size, kind)
        return [_table_from_form(size, f, kind, k) for k, f in enumerate(forms)]
    if kind == "frobenius":
        if size > RELATIONAL_BOUND:
            raise ValueError(
                f"frobenius enumeration is exhaustive only up to size "
                f"{RELATIONAL_BOUND}; got {size}")
        return [_relfa_from_form(f, k) for k, f in enumerate(_relational_forms(size))]
    if size > CANDIDATE_BOUND:
        raise ValueError(
            f"the candidate stream is generated only up to size "
            f"{CANDIDATE_BOUND}; got {size}")
    return list(_candidate_stream(size))
