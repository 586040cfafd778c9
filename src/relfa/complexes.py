"""Edge-marked simplicial complexes truncated at dimension 2.

A ``TruncatedEpsilonComplex`` stores vertices, directed edges with one
identity loop per vertex, a set of triangles given by face triples
``(d0, d1, d2)`` (``d2`` the first leg, ``d0`` the second, ``d1`` the
composite), and a set of marked edges.  Simplices above dimension 2 are
implicit: an n-simplex is an edge assignment on the full n-simplex shape all
of whose triangles are present.  Degenerate triangles are added
automatically, so constructors only list the interesting ones.

The module also provides one morphism search, which extends a morphism out
of a subcomplex and enumerates morphisms as extensions of the empty one,
products, the standard shape inclusions (horns, marked horns, boundaries, the
associativity and braiding shapes, pushout products), absolute and relative
lifting verdicts in exists and unique modes, and an exact morphism counting
engine used to decide determined lifting problems by fiber counting.

Every search runs in one order, the key order (``ComplexMorphism.key``):
the domain's cells in declared order, their images by name.  Both forms of
a lifting report name the same first failing boundary, the first in key
order, and since a target's declared order never enters the search, no
report of ``fa lift`` depends on the order in which its input declares its
elements.

Set-up is built once where its lifetime belongs: named shapes and simplices
once per process; the face index, count input tables and exact counts (keyed
by domain signature) once per target object (``_target_index``); count
plans once per domain signature and kind of target (one vertex or not),
search plans once per domain signature.  Pinned counts are not kept.
"""

from __future__ import annotations

import collections
import functools
import operator
from dataclasses import dataclass

from .algebra import InvariantError


@dataclass(frozen=True)
class TruncatedEpsilonComplex:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    identity: dict[str, str]
    triangles: frozenset[tuple[str, str, str]]
    marked: frozenset[str]

    def nonidentity_edges(self) -> tuple[str, ...]:
        return self._nonidentity_edges

    @functools.cached_property
    def _nonidentity_edges(self) -> tuple[str, ...]:
        ids = set(self.identity.values())
        return tuple(e for e in self.edges if e not in ids)

    @functools.cached_property
    def _target_index(self) -> _TargetIndex:
        return _TargetIndex(self)

    @functools.cached_property
    def _signature(self) -> tuple:
        return (self.vertices, self.edges, tuple(self.src.items()),
                tuple(self.tgt.items()), tuple(self.identity.items()),
                self.triangles, self.marked)

    def signature(self) -> tuple:
        """Hashable identity of the complex: everything but its name, built
        once per object."""
        return self._signature

    def is_degenerate_triangle(self, t: tuple[str, str, str]) -> bool:
        d0, d1, d2 = t
        if d0 == d1 and d2 == self.identity[self.src[d0]]:
            return True
        if d1 == d2 and d0 == self.identity[self.tgt[d1]]:
            return True
        return False

    def nondegenerate_triangles(self) -> list[tuple[str, str, str]]:
        return sorted(t for t in self.triangles if not self.is_degenerate_triangle(t))


def _from_signature(signature: tuple) -> TruncatedEpsilonComplex:
    """The nameless complex with this ``signature()``: the one decoder of
    the signatures that key the compiled plans."""
    vertices, edges, src, tgt, identity, triangles, marked = signature
    return TruncatedEpsilonComplex("", vertices, edges, dict(src), dict(tgt),
                                   dict(identity), triangles, marked)


def make_complex(name, vertices, edges, src, tgt, identity, triangles, marked) -> TruncatedEpsilonComplex:
    """Build a complex, checking well-formedness and adding degenerate
    triangles for every edge."""
    vertices = tuple(vertices)
    edges = tuple(edges)
    vset, eset = set(vertices), set(edges)
    if len(vset) != len(vertices) or len(eset) != len(edges):
        raise ValueError(f"{name}: duplicate vertex or edge ids")
    for e in edges:
        if src[e] not in vset or tgt[e] not in vset:
            raise ValueError(f"{name}: edge {e!r} has endpoints outside the vertex set")
    for v in vertices:
        i = identity.get(v)
        if i is None or i not in eset or src[i] != v or tgt[i] != v:
            raise ValueError(f"{name}: vertex {v!r} lacks a well-formed identity edge")
    tris = set()
    for t in triangles:
        d0, d1, d2 = t
        if any(e not in eset for e in t):
            raise ValueError(f"{name}: triangle {t!r} references unknown edge")
        if not (src[d2] == src[d1] and tgt[d2] == src[d0]
                and tgt[d0] == tgt[d1]):
            raise ValueError(f"{name}: triangle {t!r} has incompatible endpoints")
        tris.add((d0, d1, d2))
    for e in edges:
        tris.add((e, e, identity[src[e]]))
        tris.add((identity[tgt[e]], e, e))
    for m in marked:
        if m not in eset:
            raise ValueError(f"{name}: marked id {m!r} is not an edge")
    return TruncatedEpsilonComplex(
        name=name,
        vertices=vertices,
        edges=edges,
        src={e: src[e] for e in edges},
        tgt={e: tgt[e] for e in edges},
        identity={v: identity[v] for v in vertices},
        triangles=frozenset(tris),
        marked=frozenset(marked),
    )


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class ComplexMorphism:
    domain: TruncatedEpsilonComplex
    codomain: TruncatedEpsilonComplex
    vertex_map: dict[str, str]
    edge_map: dict[str, str]

    def key(self) -> tuple:
        """Image tuple over the domain's vertices and non-identity edges."""
        return tuple(self.vertex_map[v] for v in self.domain.vertices) + \
            tuple(self.edge_map[e] for e in self.domain.nonidentity_edges())

    def check(self) -> None:
        X, Y = self.domain, self.codomain
        for cells, images in ((X.vertices, self.vertex_map), (X.edges, self.edge_map)):
            for c in cells:
                if c not in images:
                    raise ValueError(f"{c!r} has no image")
        yvertices = set(Y.vertices)
        for v in X.vertices:
            if self.vertex_map[v] not in yvertices:
                raise ValueError(f"vertex image {self.vertex_map[v]!r} missing")
        for e in X.edges:
            fe = self.edge_map[e]
            if Y.src.get(fe) != self.vertex_map[X.src[e]] or \
                    Y.tgt.get(fe) != self.vertex_map[X.tgt[e]]:
                raise ValueError(f"edge {e!r} endpoints not preserved")
        for v in X.vertices:
            if self.edge_map[X.identity[v]] != Y.identity[self.vertex_map[v]]:
                raise ValueError(f"identity of {v!r} not preserved")
        for t in X.triangles:
            im = tuple(self.edge_map[x] for x in t)
            if im not in Y.triangles:
                raise ValueError(f"triangle {t!r} maps to non-triangle {im!r}")
        for m in X.marked:
            if self.edge_map[m] not in Y.marked:
                raise ValueError(f"marked edge {m!r} maps to unmarked edge")


class _TargetIndex:
    """Lookup tables for a codomain used by the morphism search and counts.

    ``d0_of[(d1, d2)]`` lists every edge completing the faces ``d1, d2`` to a
    triangle, and likewise ``d1_of[(d0, d2)]`` and ``d2_of[(d0, d1)]``.
    Every such list, every ``by_endpoints`` list, ``vertices`` and
    ``marked_id_vertices`` (the vertices with a marked identity) are in
    name order, so the morphism search tries candidates in key order
    whatever order the target declares its cells in.  ``functional[slot]``
    says whether the ``d{slot}_of`` table has at most one entry per key.
    ``marked_endpoints`` holds the endpoint pairs of marked edges.
    ``one_vertex`` says whether the target has exactly one vertex, which
    picks the count plans (``_count_plan``) run against it.
    ``counts`` keeps each exact count into the target (``count_homs``),
    keyed by the domain's ``signature()``.  It copies the fields it reads
    and holds no reference to its target, so a target caching its index
    forms no reference cycle."""

    def __init__(self, Y: TruncatedEpsilonComplex):
        self.vertices, self.edges, self.identity = sorted(Y.vertices), Y.edges, Y.identity
        self.src, self.tgt, self.triangles, self.marked = Y.src, Y.tgt, Y.triangles, Y.marked
        self.by_endpoints: dict[tuple[str, str], list[str]] = {}
        for e in sorted(Y.edges):
            self.by_endpoints.setdefault((Y.src[e], Y.tgt[e]), []).append(e)
        self.marked_endpoints = {(Y.src[e], Y.tgt[e]) for e in Y.marked}
        self.marked_id_vertices = [w for w in self.vertices if Y.identity[w] in Y.marked]
        self.one_vertex = len(self.vertices) == 1
        self.d0_of: dict[tuple[str, str], list[str]] = {}
        self.d1_of: dict[tuple[str, str], list[str]] = {}
        self.d2_of: dict[tuple[str, str], list[str]] = {}
        for d0, d1, d2 in sorted(Y.triangles):
            self.d1_of.setdefault((d0, d2), []).append(d1)
            self.d0_of.setdefault((d1, d2), []).append(d0)
            self.d2_of.setdefault((d0, d1), []).append(d2)
        self.functional = tuple(all(len(v) <= 1 for v in table.values())
                                for table in (self.d0_of, self.d1_of, self.d2_of))
        self._input_tables: dict[tuple, dict[tuple, int]] = {}
        self.counts: dict[tuple, int] = {}

    def input_tables(self, kinds: tuple) -> list[dict[tuple, int]]:
        """The count input table (``_input_table``) of each kind, built once."""
        for kind in kinds:
            if kind not in self._input_tables:
                self._input_tables[kind] = _input_table(kind, self)
        return [self._input_tables[kind] for kind in kinds]


def _search_plan(X: TruncatedEpsilonComplex, order: list[str]) -> list[tuple]:
    """Per edge of ``order``: its endpoints, whether it is marked, the face
    table lookup that yields its candidates, the remaining triangles it
    closes, and its look-ahead checks.

    Only X's non-degenerate triangles enter the plan.  A degenerate triangle
    (e, e, id) or (id, e, e) holds for every candidate of e: the candidate
    has the images of e's endpoints, and ``make_complex`` gives the target
    the degenerate triangles of all its edges.  Its only edge of ``order``,
    if any, fills two slots, so it is never a lookup or a look-ahead check.

    An edge closes the triangles whose other edges come earlier in ``order``
    or are outside it (identities and known edges).  The first of them (in
    sorted order) in which the edge fills exactly one slot is the lookup
    ``(slot, other, other)``: the images of the two other faces select the
    candidates from the target's ``d{slot}_of`` table.  An edge with no such
    triangle takes its candidates from ``by_endpoints``.

    Look-ahead is forward checking (Haralick and Elliott 1980): an edge that
    leaves a triangle with one open face, filling one slot and later in
    ``order``, checks ``(slot, other, other, marked)``: the ``d{slot}_of``
    table must have an entry for the images of the other two faces, a marked
    one if the open face is marked.  Such an entry has the open face's
    endpoint images, since the target's triangles have compatible faces."""
    pos = {e: i for i, e in enumerate(order)}
    closers: dict[str, list[tuple[str, str, str]]] = {e: [] for e in order}
    ahead: dict[str, list[tuple]] = {e: [] for e in order}
    for t in X.nondegenerate_triangles():
        nonid = sorted((x for x in set(t) if x in pos), key=pos.__getitem__)
        if nonid:
            closers[nonid[-1]].append(t)
        if len(nonid) > 1 and t.count(nonid[-1]) == 1:
            slot = t.index(nonid[-1])
            ahead[nonid[-2]].append((slot, *t[:slot], *t[slot + 1:], t[slot] in X.marked))
    plan = []
    for e in order:
        first = next((t for t in closers[e] if t.count(e) == 1), None)
        lookup = None if first is None else \
            (first.index(e),) + tuple(x for x in first if x != e)
        checks = [t for t in closers[e] if t != first]
        plan.append((e, X.src[e], X.tgt[e], e in X.marked, lookup, checks, ahead[e]))
    return plan


# Compiled plans kept: count plans by domain signature and kind of target,
# search plans by pair.
_COUNT_PLANS = 256


@functools.lru_cache(maxsize=_COUNT_PLANS)
def _extension_plan(csig: tuple, dsig: tuple) -> tuple:
    """The target-free part of ``_extender`` for C and D with these
    signatures: the edge steps, the triangles of C outside D with every edge
    in D, the edges of D marked only in C, and per vertex of C outside D
    ``(vertex, identity, identity marked, [(source, target, marked)])`` for
    the edge steps whose endpoints that vertex completes.  The edge steps
    follow the declared order of C's non-identity edges."""
    C, D = _from_signature(csig), _from_signature(dsig)
    known = frozenset(D.edges)
    plan = _search_plan(C, [e for e in C.nonidentity_edges() if e not in known])
    ready = sorted(t for t in C.triangles
                   if t not in D.triangles and all(x in known for x in t))
    newly_marked = [e for e in D.edges if e in C.marked and e not in D.marked]
    dvertices = set(D.vertices)
    new_vertices = [v for v in C.vertices if v not in dvertices]
    step_of = dict.fromkeys(D.vertices, -1) | {v: i for i, v in enumerate(new_vertices)}
    vsteps = [(v, C.identity[v], C.identity[v] in C.marked, []) for v in new_vertices]
    for _, s, t, marked, _, _, _ in plan:
        if max(step_of[s], step_of[t]) >= 0:
            vsteps[max(step_of[s], step_of[t])][3].append((s, t, marked))
    return plan, ready, newly_marked, vsteps


def _extender(C: TruncatedEpsilonComplex, D: TruncatedEpsilonComplex,
              index: _TargetIndex):
    """The one morphism search.  Returns the generator function
    ``extensions(vmap, emap)`` yielding every extension along the subcomplex
    D of C of the morphism D -> Y with those vertex and edge images, where Y
    is the target of ``index``.

    What depends on C and D alone is compiled once per pair of signatures
    (``_extension_plan``); a call binds it to the target's candidate lists.
    Edges of D marked only in C, and triangles of C outside D with every
    edge in D, are checked once up front.  The search then keeps one
    explicit stack of candidate iterators.  Vertices of C
    outside D come first, in C's order: each tries Y's vertices (those with
    a marked identity if its own is marked) and keeps an image only if
    every non-identity edge of C outside D with both endpoints now assigned
    has a candidate, marked if the edge is, between the images.  The other
    non-identity edges follow with forward checking: an edge that completes
    a triangle takes its candidates from the target's face table for the
    images of the triangle's other two faces (they have the edge's endpoint
    images, since ``make_complex`` admits only triangles with compatible
    faces), is then tested against the other triangles it closes, and runs
    its look-ahead checks (``_search_plan``).  A pruned prefix has no
    extensions.

    There is one search order, the key order: the edges follow C's declared
    order and the target's index lists every candidate by name, so the
    extensions come in ``ComplexMorphism.key`` order, whatever order the
    target declares its cells in.  Each extension is yielded as the pair
    ``(vmap, emap)`` of dicts the search goes on updating: copy them to
    keep them."""
    plan, ready, newly_marked, vplan = _extension_plan(C.signature(), D.signature())
    by_endpoints = index.by_endpoints
    vsteps = [(v, iv, index.marked_id_vertices if id_marked else index.vertices,
               [(s, t, index.marked_endpoints if marked else by_endpoints)
                for s, t, marked in edges])
              for v, iv, id_marked, edges in vplan]
    nv, depth = len(vsteps), len(vsteps) + len(plan)
    tables = (index.d0_of, index.d1_of, index.d2_of)
    ytris, ymarked, yidentity = index.triangles, index.marked, index.identity

    def extensions(vmap: dict[str, str], emap: dict[str, str]):
        if any(emap[e] not in ymarked for e in newly_marked) or \
                any((emap[a], emap[b], emap[c]) not in ytris for a, b, c in ready):
            return
        vmap, emap = dict(vmap), dict(emap)
        stack: list = []
        while True:
            if len(stack) < nv:
                stack.append(iter(vsteps[len(stack)][2]))
            elif len(stack) < depth:
                _, s, t, marked, lookup, _, _ = plan[len(stack) - nv]
                if lookup is None:
                    vals = by_endpoints.get((vmap[s], vmap[t]), ())
                else:
                    slot, a, b = lookup
                    vals = tables[slot].get((emap[a], emap[b]), ())
                if marked:
                    vals = [y for y in vals if y in ymarked]
                stack.append(iter(vals))
            else:
                yield vmap, emap
            while stack:
                if len(stack) <= nv:
                    v, iv, _, edges = vsteps[len(stack) - 1]
                    for w in stack[-1]:
                        vmap[v] = w
                        for s, t, pairs in edges:
                            if (vmap[s], vmap[t]) not in pairs:
                                break
                        else:
                            emap[iv] = yidentity[w]
                            break
                    else:
                        stack.pop()
                        continue
                    break
                e, _, _, _, _, checks, ahead = plan[len(stack) - nv - 1]
                for val in stack[-1]:
                    emap[e] = val
                    for tri in checks:
                        if (emap[tri[0]], emap[tri[1]], emap[tri[2]]) not in ytris:
                            break
                    else:
                        for slot, a, b, marked in ahead:
                            vals = tables[slot].get((emap[a], emap[b]))
                            if not vals or marked and ymarked.isdisjoint(vals):
                                break
                        else:
                            break
                else:
                    stack.pop()
                    continue
                break
            else:
                break

    return extensions


_EMPTY = make_complex("empty", (), (), {}, {}, {}, (), ())


def hom_maps_iter(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex):
    """Yield every morphism X -> Y in ``ComplexMorphism.key`` order, which
    depends on X's declared order and on the names of Y's cells, not on
    Y's declared order: the extensions of the empty morphism along the
    empty subcomplex of X, found by the one morphism search ``_extender``.
    Its plan is compiled once per signature of X, and Y builds its face
    index once (``_target_index``)."""
    for vmap, emap in _extender(X, _EMPTY, Y._target_index)({}, {}):
        yield ComplexMorphism(X, Y, dict(vmap), dict(emap))


def hom_maps(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> list[ComplexMorphism]:
    """All morphisms X -> Y, sorted by image tuple (``hom_maps_iter``)."""
    return list(hom_maps_iter(X, Y))


# ---------------------------------------------------------------------------
# Exact morphism counting by bucket elimination


def _picker(positions: list[int]):
    """The function taking a tuple to the tuple of its entries at
    ``positions``: a slice when they are consecutive."""
    if not positions:
        return operator.itemgetter(slice(0, 0))
    if positions == list(range(positions[0], positions[-1] + 1)):
        return operator.itemgetter(slice(positions[0], positions[-1] + 1))
    return operator.itemgetter(*positions)


@functools.lru_cache(maxsize=_COUNT_PLANS)
def _count_plan(signature: tuple, one_vertex: bool = False) -> tuple:
    """Compile the count of the morphisms out of the complex with this
    ``signature()``, read back by ``_from_signature`` as in
    ``_extension_plan``, into a target with one vertex or into any target:
    the factors, the elimination order and every join depend on the domain
    and on that flag alone.

    Into any target, the variables are the vertices and non-identity edges
    of the domain.  Into a target with one vertex every vertex goes to it,
    so only the non-identity edges are variables: a triangle's identity
    slots become a filter (the slot's image is an identity) instead of a
    column, and a vertex with a marked identity a factor over no variables,
    read as the number of the target's vertices with a marked identity.

    Returns ``(kinds, inputs, steps, holders)``: the kinds of input table
    the plan reads, the kind of each input factor (the factors the steps
    compute follow them), one step ``(first, joins, keep)`` per variable,
    and for each variable the ``(factor, position)`` of every input factor
    that holds it.  A bucket of one factor sums the variable out of factor
    ``first``, keeping the entries at ``keep``.  Otherwise ``first`` is
    joined in turn with each factor of ``joins``, given as ``(factor,
    shared_left, shared_right, rest, head)`` (see ``_join``), and the
    ``head`` of the last join leaves the variable out."""
    X = _from_signature(signature)
    src, tgt, identity, marked = X.src, X.tgt, X.identity, X.marked
    idvert = {e: v for v, e in identity.items()}
    evars = [("E", e) for e in X.nonidentity_edges()]
    on_edges = {("V", src[e]) for _, e in evars} | {("V", tgt[e]) for _, e in evars}

    kinds: dict[tuple, int] = {}
    scopes: list[tuple] = []
    inputs: list[int] = []

    def add(scope, kind):
        scopes.append(scope)
        inputs.append(kinds.setdefault(kind, len(kinds)))

    for v in X.vertices:
        if one_vertex:
            if identity[v] in marked:
                add((), ("vertex", True))
        elif ("V", v) not in on_edges or identity[v] in marked:
            add((("V", v),), ("vertex", identity[v] in marked))
    for var in evars:
        e = var[1]
        if one_vertex:
            add((var,), ("image", e in marked))
        elif src[e] == tgt[e]:
            add((var, ("V", src[e])), ("loop", e in marked))
        else:
            add((var, ("V", src[e]), ("V", tgt[e])), ("edge", e in marked))
    for tri in X.nondegenerate_triangles():
        slot_vars = [("V", idvert[x]) if x in idvert else ("E", x) for x in tri]
        if one_vertex:
            slot_vars = [None if v[0] == "V" else v for v in slot_vars]
        scope = tuple(v for v in dict.fromkeys(slot_vars) if v is not None)
        add(scope, ("triangle", tuple(v[0] for v in scope),
                    tuple(None if v is None else scope.index(v) for v in slot_vars)))

    variables = evars if one_vertex else [("V", v) for v in X.vertices] + evars
    factors_of: dict[tuple, set[int]] = {var: set() for var in variables}
    holders: dict[tuple, list] = {var: [] for var in factors_of}
    neighbours: dict[tuple, set[tuple]] = {var: set() for var in factors_of}
    for fid, scope in enumerate(scopes):
        for pos, v in enumerate(scope):
            factors_of[v].add(fid)
            holders[v].append((fid, pos))
            neighbours[v].update(scope)
    for var, near in neighbours.items():
        near.discard(var)

    steps = []
    while factors_of:
        var = min(factors_of, key=lambda v: (len(neighbours[v]), v))
        bucket = sorted(factors_of.pop(var))
        near = neighbours.pop(var)
        for fid in bucket:
            for v in scopes[fid]:
                if v != var:
                    factors_of[v].discard(fid)
        # The bucket's factors give way to one over ``near``, so each
        # variable of ``near`` gains the others as neighbours and loses var.
        for v in near:
            neighbours[v] |= near
            neighbours[v] -= {v, var}
        first, acc, joins = bucket[0], scopes[bucket[0]], []
        for n, fid in enumerate(bucket[1:], 2):
            right = scopes[fid]
            shared = [v for v in acc if v in right]
            rest = tuple(v for v in right if v not in acc)
            head = [i for i, v in enumerate(acc) if v != var or n < len(bucket)]
            joins.append((fid, operator.itemgetter(*[acc.index(v) for v in shared]),
                          operator.itemgetter(*[right.index(v) for v in shared]),
                          _picker([right.index(v) for v in rest]), _picker(head)))
            acc = tuple(acc[i] for i in head) + rest
        if joins:
            steps.append((first, tuple(joins), None))
        else:
            keep = [i for i, v in enumerate(acc) if v != var]
            acc = tuple(acc[i] for i in keep)
            steps.append((first, (), _picker(keep)))
        for v in acc:
            factors_of[v].add(len(scopes))
        scopes.append(acc)
    return tuple(kinds), tuple(inputs), tuple(steps), holders


def _input_table(kind: tuple, Y) -> dict[tuple, int]:
    """The 0/1 table of one kind of input factor over the target Y, a
    complex or its ``_TargetIndex``.  The kinds of the plans into a target
    with one vertex (``_count_plan``) have no vertex columns: ``image``
    lists the image edges alone, and a triangle slot numbered None holds
    only an identity."""
    if kind[0] == "vertex":
        return {(w,): 1 for w in Y.vertices if not kind[1] or Y.identity[w] in Y.marked}
    if kind[0] != "triangle":
        allowed = [ye for ye in Y.edges if not kind[1] or ye in Y.marked]
        if kind[0] == "image":
            return {(ye,): 1 for ye in allowed}
        if kind[0] == "loop":
            return {(ye, Y.src[ye]): 1 for ye in allowed if Y.src[ye] == Y.tgt[ye]}
        return {(ye, Y.src[ye], Y.tgt[ye]): 1 for ye in allowed}
    _, scope_kinds, slots = kind
    table: dict[tuple, int] = {}
    for ytri in Y.triangles:
        vals: list = [None] * len(scope_kinds)
        for slot, yval in zip(slots, ytri):
            if slot is None or scope_kinds[slot] == "V":
                yv = Y.src[yval]
                if Y.identity.get(yv) != yval:
                    break
                if slot is None:
                    continue
                yval = yv
            if vals[slot] is None:
                vals[slot] = yval
            elif vals[slot] != yval:
                break
        else:
            table[tuple(vals)] = 1
    return table


def _join(left: dict, right: dict, shared_left, shared_right, rest, head) -> dict:
    """The join of two factor tables: entries that agree on the shared
    variables give the key ``head(left key) + rest(right key)`` and the
    product of their counts, and the counts of equal keys add up."""
    index: collections.defaultdict = collections.defaultdict(list)
    for k2, c2 in right.items():
        index[shared_right(k2)].append((rest(k2), c2))
    out: dict[tuple, int] = {}
    get = out.get
    for k1, c1 in left.items():
        matches = index.get(shared_left(k1))
        if matches:
            h = head(k1)
            for tail, c2 in matches:
                key = h + tail
                out[key] = get(key, 0) + c1 * c2
    return out


def count_homs(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> int:
    """Number of morphisms X -> Y by bucket elimination (Dechter 1999) over
    the triangle constraint graph.  Agrees with len(hom_maps(X, Y)) and
    stays feasible when enumeration would not.

    The plan depends on X and on whether Y has one vertex
    (``_TargetIndex.one_vertex``), and is compiled once per pair of
    ``signature()`` and that flag; ``_count_plan`` keeps the last
    ``_COUNT_PLANS``.  Its variables are the vertices and
    ``nonidentity_edges()`` of X, or into a target with one vertex, where
    every vertex has the same image, the non-identity edges alone.  Its
    factors are one per non-identity edge (image edge and endpoints, or the
    image edge alone, marked if the edge is), one per triangle of
    ``nondegenerate_triangles()``, and one per vertex that is on no
    non-identity edge or whose identity is marked (into a target with one
    vertex, only the second kind, a factor over no variables).  Degenerate
    triangles (``is_degenerate_triangle``) need no factor: ``make_complex``
    gives every complex the degenerate triangles of all its edges, and its
    endpoint check admits no triangle (y, y, id_w) or (id_w, y, y) with any
    other w, so they hold exactly when the edge factors do; the morphism
    search leaves them out of its plans for the same reason
    (``_search_plan``).  The elimination order
    repeatedly takes the variable whose factors span the fewest other
    variables, its neighbours (ties to the least); each variable's
    neighbours are kept up to date as the buckets are eliminated.  It is
    the order a factor for every vertex and triangle would give, since the
    variables of each factor left out lie within a kept one's.  The plan
    also holds each bucket and the picker positions of each join.

    The plan reads one input table per kind of factor, built once per target
    object by its ``_target_index``, so that triangles with the same pattern
    of repeated and identity slots share one.  The last join of each bucket sums the
    variable out as it goes, so the product table of a bucket is never
    built.  The count is kept on the same index, keyed by X's signature, so
    each domain is counted once per target object; the pinned counts of
    ``_search_unfillable`` run their plans and are not kept."""
    index, signature = Y._target_index, X.signature()
    count = index.counts.get(signature)
    if count is None:
        plan = _count_plan(signature, index.one_vertex)
        count = index.counts[signature] = _run_count_plan(plan, index.input_tables(plan[0]), {})
    return count


def _run_count_plan(plan: tuple, tables: list, pins: dict) -> int:
    """Run a compiled count plan over its input tables, one per kind as
    ``_input_table`` fills them in, counting the morphisms that agree with
    ``pins``: a dict from variables, ``("V", vertex)`` or ``("E", edge)``,
    to their images.  Every input factor that holds a pinned variable keeps
    only the entries with that image.  A plan into a target with one vertex
    holds no vertex variable: a pin on one is forced, and skipped."""
    _, inputs, steps, holders = plan
    slots: list = [tables[k] for k in inputs]
    for var, image in pins.items():
        for fid, pos in holders.get(var, ()):
            slots[fid] = {k: c for k, c in slots[fid].items() if k[pos] == image}
    for first, joins, keep in steps:
        acc = slots[first]
        slots[first] = None
        if not joins:
            out: dict[tuple, int] = {}
            for k, c in acc.items():
                key = keep(k)
                out[key] = out.get(key, 0) + c
            acc = out
        for fid, shared_left, shared_right, rest, head in joins:
            acc = _join(acc, slots[fid], shared_left, shared_right, rest, head)
            slots[fid] = None
        slots.append(acc)
    total = 1
    for table in slots:
        if table is not None:
            total *= sum(table.values())
    return total


# ---------------------------------------------------------------------------
# Standard shapes


@functools.lru_cache
def simplex(n: int, marked_top: bool = False) -> TruncatedEpsilonComplex:
    """The n-simplex, top edge marked if ``marked_top``; built once, shared."""
    if not 0 <= n <= 3:
        raise ValueError("simplex dimension must be between 0 and 3")
    vertices = [str(i) for i in range(n + 1)]
    edges, src, tgt = [], {}, {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            e = f"{i}{j}"
            edges.append(e)
            src[e], tgt[e] = str(i), str(j)
    identity = {str(i): f"{i}{i}" for i in range(n + 1)}
    triangles = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                triangles.append((f"{j}{k}", f"{i}{k}", f"{i}{j}"))
    marked = {f"0{n}"} if marked_top and n >= 1 else set()
    name = f"sigma{n}" if marked_top else f"delta{n}"
    return make_complex(name, vertices, edges, src, tgt, identity, triangles, marked)


def subcomplex_on_faces(C: TruncatedEpsilonComplex, faces, name: str) -> TruncatedEpsilonComplex:
    """Subcomplex spanned by a list of vertex subsets of a thin complex,
    keeping whatever marking survives."""
    faces = [frozenset(f) for f in faces]
    vkeep = [v for v in C.vertices if any(v in f for f in faces)]
    ekeep = [e for e in C.edges if any(C.src[e] in f and C.tgt[e] in f for f in faces)]
    eset = set(ekeep)
    tkeep = [t for t in C.triangles
             if any(all(x in eset for x in t) and
                    all(C.src[x] in f and C.tgt[x] in f for x in t)
                    for f in faces)]
    return make_complex(
        name, vkeep, ekeep, C.src, C.tgt,
        {v: C.identity[v] for v in vkeep},
        tkeep, C.marked & eset)


def union_subcomplexes(C: TruncatedEpsilonComplex, parts, name: str) -> TruncatedEpsilonComplex:
    vkeep = [v for v in C.vertices if any(v in set(p.vertices) for p in parts)]
    ekeep = [e for e in C.edges if any(e in set(p.edges) for p in parts)]
    tris = set()
    marked = set()
    for p in parts:
        tris |= p.triangles
        marked |= p.marked
    return make_complex(
        name, vkeep, ekeep, C.src, C.tgt,
        {v: C.identity[v] for v in vkeep},
        tris, marked)


@dataclass(frozen=True)
class ShapeInclusion:
    """A literal subcomplex inclusion: domain ids are a subset of codomain
    ids with identical incidence data."""

    name: str
    domain: TruncatedEpsilonComplex
    codomain: TruncatedEpsilonComplex

    def __post_init__(self):
        C, D = self.codomain, self.domain
        if not set(D.vertices) <= set(C.vertices) or not set(D.edges) <= set(C.edges):
            raise ValueError(f"{self.name}: domain not a subcomplex")
        for e in D.edges:
            if D.src[e] != C.src[e] or D.tgt[e] != C.tgt[e]:
                raise ValueError(f"{self.name}: incidence mismatch at {e!r}")
        if not D.triangles <= C.triangles or not D.marked <= C.marked:
            raise ValueError(f"{self.name}: domain data not contained in codomain")


def _faces_of(n: int, omit: set[int]) -> list[frozenset[str]]:
    return [frozenset(str(j) for j in range(n + 1) if j != i)
            for i in range(n + 1) if i not in omit]


def _face_shape(name: str, n: int, faces, dom_name: str,
                marked_top: bool = False) -> ShapeInclusion:
    """The inclusion, named ``name``, of the subcomplex of simplex(n)
    spanned by ``faces`` (vertex-label sets), whose domain is named
    ``dom_name``; ``marked_top`` marks the simplex's top edge."""
    cod = simplex(n, marked_top=marked_top)
    return ShapeInclusion(name, subcomplex_on_faces(cod, faces, dom_name), cod)


def horn(n: int, i: int) -> ShapeInclusion:
    if not 0 <= i <= n or n < 1:
        raise ValueError(f"horn-{n}-{i}: horns need n >= 1 and 0 <= i <= n")
    return _face_shape(f"horn-{n}-{i}", n, _faces_of(n, {i}), f"horn{n}_{i}_dom")


def marked_horn(n: int, i: int) -> ShapeInclusion:
    """The marked outer horns: i must be 0 or n."""
    if i not in (0, n):
        raise ValueError("marked horns exist only at the outer indices")
    return _face_shape(f"ehorn-{n}-{i}", n, _faces_of(n, {i}), f"ehorn{n}_{i}_dom",
                       marked_top=True)


def boundary(n: int) -> ShapeInclusion:
    return _face_shape(f"boundary-{n}", n, _faces_of(n, set()), f"boundary{n}_dom")


def assoc_shape(which: str) -> ShapeInclusion:
    if which == "02":
        faces = [frozenset({"1", "2", "3"}), frozenset({"0", "1", "3"})]
    elif which == "13":
        faces = [frozenset({"0", "2", "3"}), frozenset({"0", "1", "2"})]
    else:
        raise ValueError("assoc shape is 02 or 13")
    return _face_shape(f"assoc-{which}", 3, faces, f"assoc{which}_dom")


def mark_edge_shape() -> ShapeInclusion:
    return ShapeInclusion("mark-edge", simplex(1), simplex(1, marked_top=True))


def wedge_shape() -> ShapeInclusion:
    return _face_shape("wedge-02-1", 2, [frozenset({"0", "2"}), frozenset({"1"})],
                       "wedge02_1_dom")


def vertex_in_edge_shape(i: int) -> ShapeInclusion:
    if i not in (0, 1):
        raise ValueError(f"vertex-{i}-in-edge: an edge has vertices 0 and 1")
    return _face_shape(f"vertex-{i}-in-edge", 1, [frozenset({str(i)})], f"vertex{i}_dom")


def braiding_square() -> TruncatedEpsilonComplex:
    vertices = ("v0", "v1")
    edges = ("i0", "i1", "a1", "a2", "b", "d")
    src = {"i0": "v0", "i1": "v1", "a1": "v0", "a2": "v1", "b": "v0", "d": "v0"}
    tgt = {"i0": "v0", "i1": "v1", "a1": "v0", "a2": "v1", "b": "v1", "d": "v1"}
    identity = {"v0": "i0", "v1": "i1"}
    triangles = [("b", "d", "a1"), ("a2", "d", "b")]
    return make_complex("braiding_square", vertices, edges, src, tgt, identity, triangles, ())


def braiding_shape(side: str) -> ShapeInclusion:
    cod = braiding_square()
    keep_edge = "a1" if side == "left" else "a2"
    tri = ("b", "d", "a1") if side == "left" else ("a2", "d", "b")
    edges = [e for e in cod.edges if e in ("i0", "i1", "b", "d", keep_edge)]
    dom = make_complex(
        f"braiding_{side}_dom", cod.vertices, edges, cod.src, cod.tgt,
        cod.identity, [tri], ())
    return ShapeInclusion(f"braiding-{side}", dom, cod)


# ---------------------------------------------------------------------------
# Products and pushout products


def product(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> TruncatedEpsilonComplex:
    def pid(a, b):
        return f"{a}|{b}"

    vertices = [pid(u, v) for u in X.vertices for v in Y.vertices]
    edges, src, tgt = [], {}, {}
    for e in X.edges:
        for f in Y.edges:
            k = pid(e, f)
            edges.append(k)
            src[k] = pid(X.src[e], Y.src[f])
            tgt[k] = pid(X.tgt[e], Y.tgt[f])
    identity = {pid(u, v): pid(X.identity[u], Y.identity[v])
                for u in X.vertices for v in Y.vertices}
    triangles = [(pid(s[0], t[0]), pid(s[1], t[1]), pid(s[2], t[2]))
                 for s in X.triangles for t in Y.triangles]
    marked = [pid(e, f) for e in X.marked for f in Y.marked]
    return make_complex(f"({X.name}x{Y.name})", vertices, edges,
                        src, tgt, identity, triangles, marked)


def box_inclusion(f: ShapeInclusion, g: ShapeInclusion) -> ShapeInclusion:
    cod = product(f.codomain, g.codomain)
    p1 = product(f.domain, g.codomain)
    p2 = product(f.codomain, g.domain)
    dom = union_subcomplexes(cod, [p1, p2], f"box({f.name},{g.name})_dom")
    return ShapeInclusion(f"box({f.name},{g.name})", dom, cod)


# ---------------------------------------------------------------------------
# Shape registry


@functools.lru_cache
def shape_from_name(name: str) -> ShapeInclusion:
    """Resolve a shape name, including nested box(...) expressions; the
    last 128 shapes are kept and shared, so treat them as read-only."""
    if name.startswith("box(") and name.endswith(")"):
        inner = name[4:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return box_inclusion(shape_from_name(inner[:i]),
                                     shape_from_name(inner[i + 1:]))
        raise ValueError(f"malformed box shape name {name!r}")
    if name not in _NAMED_SHAPES:
        raise ValueError(f"unknown shape name {name!r}")
    make, args = _NAMED_SHAPES[name]
    return make(*args)


_NAMED_SHAPES = {
    **{f"horn-{n}-{i}": (horn, (n, i)) for n in (1, 2, 3) for i in range(n + 1)},
    **{f"ehorn-{n}-{i}": (marked_horn, (n, i)) for n in (1, 2, 3) for i in (0, n)},
    **{f"boundary-{n}": (boundary, (n,)) for n in range(4)},
    **{f"assoc-{w}": (assoc_shape, (w,)) for w in ("02", "13")},
    "mark-edge": (mark_edge_shape, ()), "wedge-02-1": (wedge_shape, ()),
    **{f"vertex-{i}-in-edge": (vertex_in_edge_shape, (i,)) for i in (0, 1)},
    **{f"braiding-{side}": (braiding_shape, (side,)) for side in ("left", "right")},
}
SHAPE_NAMES = tuple(_NAMED_SHAPES)


# ---------------------------------------------------------------------------
# Lifting


@dataclass(frozen=True)
class LiftingReport:
    shape: str
    mode: str
    method: str
    passed: bool
    boundaries: int
    failures: tuple[dict, ...]
    detail: str = ""

    def to_dict(self) -> dict:
        return {**vars(self), "failures": list(self.failures)}


_ENUMERATION_LIMIT = 20000
# The enumeration route stops testing boundaries after this many failures.
_MAX_FAILURES = 3


def _determined_missing_edges(shape: ShapeInclusion, index: _TargetIndex) -> bool:
    """True when every codomain edge missing from the domain is forced, for
    any extension, through a chain of triangles functional in the target.
    Under that condition restriction of morphisms is injective."""
    C, D = shape.codomain, shape.domain
    if set(C.vertices) != set(D.vertices):
        return False
    known, grown = set(D.edges), True
    while grown and not known.issuperset(C.edges):
        grown = False
        for t in C.triangles - D.triangles:
            for slot, e in enumerate(t):
                if e not in known and index.functional[slot] and \
                        all(x in known for x in t[:slot] + t[slot + 1:]):
                    known.add(e)
                    grown = True
    return known.issuperset(C.edges)


def check_lifting(shape: ShapeInclusion, X: TruncatedEpsilonComplex,
                  mode: str = "exists",
                  over: ComplexMorphism | None = None) -> LiftingReport:
    """Decide the lifting property of X, or of a map ``over`` out of X,
    against a shape inclusion.

    exists mode asks every boundary morphism to extend; unique mode asks for
    exactly one extension.  The report's ``method`` names its form, not the
    engine that decided it.  Both forms give the number of boundary
    morphisms as ``boundaries``.  An ``enumeration`` report lists every
    failing boundary, up to ``_MAX_FAILURES`` and in key order, with its
    number of extensions, and has an empty detail.  A
    ``count-comparison`` report gives both counts in its detail and, when
    it fails, one failing boundary, found by descending on pinned counts
    (``_search_unfillable``).  Both forms name the same first failure: the
    failing boundary that comes first in key order.  So every failing
    report has a witness, and since key order follows the shape's declared
    cells and the names of X's cells, no report depends on the order in
    which X declares them.

    When the missing edges of the shape are forced through triangles
    functional in X (``_determined_missing_edges``), restriction of
    morphisms is injective, so every boundary has 0 or 1 extensions: only
    then are the exact morphism counts computed.  Equal counts then mean
    that every boundary extends exactly once, so the counts decide a pass,
    in enumeration form while the larger count is at most
    ``_ENUMERATION_LIMIT``.  Above that limit the counts decide either way
    (count-comparison form).  Every other problem, a failing determined
    one included, scans the boundaries lazily in key order (``_extender``)
    and counts the extensions of each with the one morphism search; in
    exists mode the count stops at the first extension, since a failure
    there always has 0.  The scan stops testing at the
    ``_MAX_FAILURES``-th failure and takes its boundary count from
    ``count_homs``, or from the count it has if it is determined.  No
    boundary list is built or sorted.

    Relative to a map p: X -> Y (``over``), a square is a boundary u with an
    extension w of p∘u, and its lifts are the extensions of u that p maps
    to w; the absolute problem is the one over the terminal complex.  It is
    decided in enumeration form, failures first in (u, w) key order with w
    as ``over``, and ``boundaries`` counts the squares.
    """
    if mode not in ("exists", "unique"):
        raise ValueError("mode must be exists or unique")
    if over is not None:
        if over.domain is not X:
            raise ValueError(f"{shape.name}: lifting over a map out of "
                             f"{over.domain.name}, not out of {X.name}")
        return _relative_lifting(shape, over, mode)
    index = X._target_index
    C, D = shape.codomain, shape.domain

    determined = _determined_missing_edges(shape, index)
    if determined:
        cod_count = count_homs(C, X)
        dom_count = count_homs(D, X)
        if max(cod_count, dom_count) > _ENUMERATION_LIMIT:
            passed = cod_count == dom_count
            failures = () if passed else \
                (_search_unfillable(shape, X, index, dom_count, cod_count),)
            detail = (f"{dom_count} boundary morphisms, {cod_count} total morphisms; "
                      "restriction is injective, so equality decides the verdict")
            return LiftingReport(shape.name, mode, "count-comparison", passed,
                                 dom_count, failures, detail)
        if cod_count == dom_count:
            return LiftingReport(shape.name, mode, "enumeration", True, dom_count, ())

    extensions = _extender(C, D, index)
    exists = mode == "exists"
    failures_list: list[dict] = []
    boundaries = 0
    for vmap, emap in _extender(D, _EMPTY, index)({}, {}):
        boundaries += 1
        n = 0
        for _ in extensions(vmap, emap):
            n += 1
            if exists:
                break
        if (n == 0) if exists else (n != 1):
            failures_list.append({"boundary": _describe_morphism(D, vmap, emap),
                                  "extensions": n})
            if len(failures_list) == _MAX_FAILURES:
                boundaries = dom_count if determined else count_homs(D, X)
                break
    return LiftingReport(shape.name, mode, "enumeration", not failures_list,
                         boundaries, tuple(failures_list))


def _relative_lifting(shape: ShapeInclusion, p: ComplexMorphism, mode: str) -> LiftingReport:
    """The relative problem of ``check_lifting``, scanned to the end."""
    C, D = shape.codomain, shape.domain
    index, pv, pe = p.domain._target_index, p.vertex_map, p.edge_map
    # The squares over one boundary differ only on the cells of C outside D.
    cv = [v for v in C.vertices if v not in D.vertices]
    ce = [e for e in C.nonidentity_edges() if e not in D.edges]
    lifts = _extender(C, D, index)
    extend_base = _extender(C, D, p.codomain._target_index)
    failures: list[dict] = []
    squares = fillers = 0
    for vmap, emap in _extender(D, _EMPTY, index)({}, {}):
        images: dict[tuple, int] = {}
        for vm, em in lifts(vmap, emap):
            w = tuple(pv[vm[v]] for v in cv) + tuple(pe[em[e]] for e in ce)
            images[w] = images.get(w, 0) + 1
        fillers += sum(images.values())
        pvmap = {v: pv[x] for v, x in vmap.items()}
        pemap = {e: pe[y] for e, y in emap.items()}
        for wv, we in extend_base(pvmap, pemap):
            w = tuple(wv[v] for v in cv) + tuple(we[e] for e in ce)
            squares += 1
            n = images.get(w, 0)
            if (n == 0 if mode == "exists" else n != 1) and len(failures) < _MAX_FAILURES:
                failures.append({"boundary": _describe_morphism(D, vmap, emap), "extensions": n,
                                 "over": _describe_morphism(C, wv, we)})
    return LiftingReport(shape.name, mode, "enumeration", not failures, squares,
                         tuple(failures), f"{squares} squares, {fillers} candidate fillers")


def _describe_morphism(D: TruncatedEpsilonComplex, vmap: dict, emap: dict) -> dict:
    return {
        "vertices": {v: vmap[v] for v in D.vertices},
        "edges": {e: emap[e] for e in D.nonidentity_edges()},
    }


# The witness search counts its way down while more boundary morphisms than
# this extend the assignment it has reached, then scans them.
_SCAN_BELOW = 1000


def _spanned(D: TruncatedEpsilonComplex, variables: list) -> TruncatedEpsilonComplex:
    """The subcomplex of D spanned by some of its count variables: their
    vertices with identities, their edges, and every triangle and marking
    of D on those edges."""
    vertices = [v for kind, v in variables if kind == "V"]
    edges = {D.identity[v] for v in vertices} | {e for kind, e in variables if kind == "E"}
    return make_complex(
        f"{D.name}[:{len(variables)}]", vertices, [e for e in D.edges if e in edges],
        D.src, D.tgt, {v: D.identity[v] for v in vertices},
        [t for t in D.triangles if edges.issuperset(t)], D.marked & edges)


def _search_unfillable(shape: ShapeInclusion, X: TruncatedEpsilonComplex,
                       index: _TargetIndex, dom_count: int, cod_count: int) -> dict:
    """The first boundary morphism in key order with no extension, on a
    determined problem whose ``dom_count`` boundary morphisms outnumber its
    ``cod_count`` morphisms: the witness the enumeration form of
    ``check_lifting`` lists first.

    Restriction is injective, so of the boundary morphisms that agree with
    an assignment p of some domain variables, count(D|p) - count(C|p) have
    no extension (pinned counts, ``_run_count_plan``, of the plans that
    ``count_homs`` picks for X: into a target with one vertex they have no
    vertex variables, and vertex pins are skipped).  The search assigns
    the variables in key order: D's vertices, then its non-identity edges,
    each in declared order.  The images a variable can take are those the
    one morphism search tries, by name, extending the assignment along the
    subcomplexes the variables span (``_spanned``).  The search takes the
    first image whose difference is positive, so the witness is the first
    unfillable boundary in key order.  The last image gets the counts
    the others leave, uncounted, so a variable with one image costs
    nothing.  Once at most ``_SCAN_BELOW`` boundary morphisms agree with
    the assignment, or every variable is pinned, they are scanned in
    order; a scan that finds no witness means a pinned count was wrong."""
    C, D = shape.codomain, shape.domain
    variables = [("V", v) for v in D.vertices] + [("E", e) for e in D.nonidentity_edges()]
    plans = (_count_plan(D.signature(), index.one_vertex),
             _count_plan(C.signature(), index.one_vertex))
    tables = [index.input_tables(plan[0]) for plan in plans]
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    pins: dict[tuple, str] = {}
    prefix = _EMPTY
    while dom_count > _SCAN_BELOW and len(pins) < len(variables):
        kind, name = var = variables[len(pins)]
        grown = _spanned(D, variables[:len(pins) + 1])
        images = [((vm if kind == "V" else em)[name], dict(vm), dict(em))
                  for vm, em in _extender(grown, prefix, index)(vmap, emap)]
        for n, (image, vm, em) in enumerate(images, 1):
            pins[var] = image
            if n < len(images):
                dom = _run_count_plan(plans[0], tables[0], pins)
                cod = _run_count_plan(plans[1], tables[1], pins) if dom else 0
            else:
                dom, cod = dom_count, cod_count
            if dom > cod:
                break
            dom_count -= dom
            cod_count -= cod
        else:
            raise InvariantError(f"{shape.name} against {X.name}: the counts differ "
                                 f"but no image of {name} leaves an unfillable boundary")
        dom_count, cod_count, vmap, emap, prefix = dom, cod, vm, em, grown
    extensions = _extender(C, D, index)
    for vm, em in _extender(D, prefix, index)(vmap, emap):
        if next(extensions(vm, em), None) is None:
            return {"boundary": _describe_morphism(D, vm, em), "extensions": 0}
    raise InvariantError(f"{shape.name} against {X.name}: the counts differ "
                         "but every boundary morphism extends")
