"""Edge-marked simplicial complexes truncated at dimension 2.

A ``TruncatedEpsilonComplex`` stores vertices, directed edges with one
identity loop per vertex, a set of triangles given by face triples
``(d0, d1, d2)`` (``d2`` the first leg, ``d0`` the second, ``d1`` the
composite), and a set of marked edges.  Simplices above dimension 2 are
implicit: an n-simplex is an edge assignment on the full n-simplex shape all
of whose triangles are present.  Degenerate triangles are added
automatically, so constructors only list the interesting ones.

The module also provides morphism enumeration between complexes, products,
the standard shape inclusions (horns, marked horns, boundaries, the
associativity and braiding shapes, pushout products), lifting verdicts in
exists and unique modes, and an exact morphism counting engine used to decide
large lifting problems by fiber counting.
"""

from __future__ import annotations

import functools
import itertools
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

    def is_identity(self, e: str) -> bool:
        return self.identity.get(self.src[e]) == e and self.src[e] == self.tgt[e]

    def is_degenerate_triangle(self, t: tuple[str, str, str]) -> bool:
        d0, d1, d2 = t
        if d0 == d1 and d2 == self.identity[self.src[d0]]:
            return True
        if d1 == d2 and d0 == self.identity[self.tgt[d1]]:
            return True
        return False

    def nondegenerate_triangles(self) -> list[tuple[str, str, str]]:
        return sorted(t for t in self.triangles if not self.is_degenerate_triangle(t))

    def variables(self) -> tuple[str, ...]:
        """Vertices then non-identity edges, in declared order.  The free
        data of a morphism out of this complex."""
        return self.vertices + self.nonidentity_edges()

    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "triangles": len(self.triangles),
            "nondegenerate_triangles": len(self.nondegenerate_triangles()),
            "marked": len(self.marked),
        }


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

    def key(self, of: TruncatedEpsilonComplex | None = None) -> tuple:
        """Image tuple over a complex's variables (default: the domain)."""
        c = of if of is not None else self.domain
        return tuple(self.vertex_map[v] for v in c.vertices) + \
            tuple(self.edge_map[e] for e in c.nonidentity_edges())

    def check(self) -> None:
        X, Y = self.domain, self.codomain
        for v in X.vertices:
            if self.vertex_map[v] not in set(Y.vertices):
                raise ValueError(f"vertex image {self.vertex_map[v]!r} missing")
        for e in X.edges:
            fe = self.edge_map[e]
            if Y.src[fe] != self.vertex_map[X.src[e]] or Y.tgt[fe] != self.vertex_map[X.tgt[e]]:
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

    def compose(self, other: "ComplexMorphism") -> "ComplexMorphism":
        """self after other."""
        if other.codomain is not self.domain and other.codomain.name != self.domain.name:
            raise ValueError("composition mismatch")
        return ComplexMorphism(
            other.domain, self.codomain,
            {v: self.vertex_map[w] for v, w in other.vertex_map.items()},
            {e: self.edge_map[f] for e, f in other.edge_map.items()},
        )


class _TargetIndex:
    """Lookup tables for a codomain used by the morphism search.

    ``d0_of[(d1, d2)]`` lists every edge completing the faces ``d1, d2`` to a
    triangle, and likewise ``d1_of[(d0, d2)]`` and ``d2_of[(d0, d1)]``; each
    list is in declared edge order, as is every ``by_endpoints`` list."""

    def __init__(self, Y: TruncatedEpsilonComplex):
        self.Y = Y
        self.by_endpoints: dict[tuple[str, str], list[str]] = {}
        for e in Y.edges:
            self.by_endpoints.setdefault((Y.src[e], Y.tgt[e]), []).append(e)
        self.d0_of: dict[tuple[str, str], list[str]] = {}
        self.d1_of: dict[tuple[str, str], list[str]] = {}
        self.d2_of: dict[tuple[str, str], list[str]] = {}
        pos = {e: i for i, e in enumerate(Y.edges)}
        for d0, d1, d2 in sorted(Y.triangles, key=lambda t: (pos[t[0]], pos[t[1]], pos[t[2]])):
            self.d1_of.setdefault((d0, d2), []).append(d1)
            self.d0_of.setdefault((d1, d2), []).append(d0)
            self.d2_of.setdefault((d0, d1), []).append(d2)

    def slot_functional(self, slot: int) -> bool:
        table = (self.d0_of, self.d1_of, self.d2_of)[slot]
        return all(len(v) <= 1 for v in table.values())


def _edge_order(X: TruncatedEpsilonComplex) -> list[str]:
    """Static assignment order for non-identity edges, greedily preferring
    edges that close triangles with earlier edges (ties go to the edge
    declared first)."""
    remaining = list(X.nonidentity_edges())
    ids = set(X.identity.values())
    open_edges = {t: set(t) - ids for t in X.triangles}
    tris_of: dict[str, list[tuple[str, str, str]]] = {e: [] for e in remaining}
    score = dict.fromkeys(remaining, 0)
    for t, rest in open_edges.items():
        for e in rest:
            tris_of[e].append(t)
        if len(rest) == 1:
            score[next(iter(rest))] += 1
    order: list[str] = []
    while remaining:
        best = max(remaining, key=score.__getitem__)
        order.append(best)
        remaining.remove(best)
        for t in tris_of[best]:
            rest = open_edges[t]
            rest.discard(best)
            if len(rest) == 1:
                score[next(iter(rest))] += 1
    return order


def _search_plan(X: TruncatedEpsilonComplex, order: list[str]) -> list[tuple]:
    """Per edge of ``order``: its endpoints, whether it is marked, the face
    table lookup that yields its candidates, and the remaining triangles it
    closes.

    An edge closes the triangles whose other edges come earlier in ``order``
    or are identities.  The first of them (in sorted order) in which the
    edge fills exactly one slot is the lookup ``(slot, other, other)``: the
    images of the two other faces select the candidates from the target's
    ``d{slot}_of`` table.  An edge with no such triangle takes its
    candidates from ``by_endpoints``."""
    pos = {e: i for i, e in enumerate(order)}
    closers: dict[str, list[tuple[str, str, str]]] = {e: [] for e in order}
    for t in sorted(X.triangles):
        nonid = [x for x in t if x in pos]
        if nonid:
            closers[max(nonid, key=pos.__getitem__)].append(t)
    plan = []
    for e in order:
        first = next((t for t in closers[e] if t.count(e) == 1), None)
        lookup = None if first is None else \
            (first.index(e),) + tuple(x for x in first if x != e)
        checks = [t for t in closers[e] if t != first]
        plan.append((e, X.src[e], X.tgt[e], e in X.marked, lookup, checks))
    return plan


def hom_maps_iter(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex):
    """Yield every morphism X -> Y, in a deterministic search order.

    Vertices are assigned in every combination, then the non-identity edges
    one at a time in ``_edge_order`` with forward checking: an edge that
    completes a triangle takes its candidates from the target's face table
    for the images of the triangle's other two faces, not from every edge
    with the right endpoints, and is then tested against the other
    triangles it closes.  Candidates are tried in the target's declared edge
    order, so the sequence is that of a plain backtracking search over
    ``by_endpoints``.  The search keeps an explicit stack of candidate
    iterators rather than nesting generators."""
    index = _TargetIndex(Y)
    plan = _search_plan(X, _edge_order(X))
    tables = (index.d0_of, index.d1_of, index.d2_of)
    by_endpoints = index.by_endpoints
    ysrc, ytgt, ytris, ymarked = Y.src, Y.tgt, Y.triangles, Y.marked
    marked_ids = [X.identity[v] for v in X.vertices if X.identity[v] in X.marked]

    def candidates(i: int, vmap: dict[str, str], emap: dict[str, str]):
        _, s, t, marked, lookup, _ = plan[i]
        vs, vt = vmap[s], vmap[t]
        if lookup is None:
            vals = by_endpoints.get((vs, vt), ())
        else:
            slot, a, b = lookup
            vals = [y for y in tables[slot].get((emap[a], emap[b]), ())
                    if ysrc[y] == vs and ytgt[y] == vt]
        if marked:
            vals = [y for y in vals if y in ymarked]
        return iter(vals)

    depth = len(plan)
    for images in itertools.product(Y.vertices, repeat=len(X.vertices)):
        vmap = dict(zip(X.vertices, images))
        emap = {X.identity[v]: Y.identity[w] for v, w in vmap.items()}
        if any(emap[iv] not in ymarked for iv in marked_ids):
            continue
        if not depth:
            yield ComplexMorphism(X, Y, vmap, emap)
            continue
        stack = [candidates(0, vmap, emap)]
        while stack:
            i = len(stack) - 1
            e, checks = plan[i][0], plan[i][5]
            for val in stack[i]:
                emap[e] = val
                for t in checks:
                    if (emap[t[0]], emap[t[1]], emap[t[2]]) not in ytris:
                        break
                else:
                    break
            else:
                stack.pop()
                continue
            if i + 1 == depth:
                yield ComplexMorphism(X, Y, dict(vmap), dict(emap))
            else:
                stack.append(candidates(i + 1, vmap, emap))


def hom_maps(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> list[ComplexMorphism]:
    """All morphisms X -> Y, sorted by image tuple."""
    out = list(hom_maps_iter(X, Y))
    out.sort(key=lambda f: f.key())
    return out


# ---------------------------------------------------------------------------
# Exact morphism counting by factor elimination


def _picker(positions: list[int]):
    """The function taking a tuple to the tuple of its entries at
    ``positions``."""
    if len(positions) == 1:
        (i,) = positions
        return lambda k: (k[i],)
    return operator.itemgetter(*positions) if positions else (lambda k: ())


def count_homs(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> int:
    """Number of morphisms X -> Y, computed by variable elimination over the
    triangle constraint graph.  Agrees with len(hom_maps(X, Y)) and stays
    feasible when enumeration would not."""
    vvars = [("V", v) for v in X.vertices]
    evars = [("E", e) for e in X.nonidentity_edges()]
    factors: list[tuple[tuple, dict[tuple, int]]] = []

    for _, v in vvars:
        factors.append(((("V", v),), {(w,): 1 for w in Y.vertices}))

    for _, e in evars:
        s, t = X.src[e], X.tgt[e]
        allowed = [ye for ye in Y.edges if e not in X.marked or ye in Y.marked]
        if s == t:
            table = {(ye, Y.src[ye]): 1 for ye in allowed
                     if Y.src[ye] == Y.tgt[ye]}
            factors.append(((("E", e), ("V", s)), table))
        else:
            table = {(ye, Y.src[ye], Y.tgt[ye]): 1 for ye in allowed}
            factors.append(((("E", e), ("V", s), ("V", t)), table))

    idvert = {e: v for v, e in X.identity.items()}
    for tri in sorted(X.triangles):
        slot_vars = []
        for x in tri:
            if x in idvert:
                slot_vars.append(("V", idvert[x]))
            else:
                slot_vars.append(("E", x))
        scope = tuple(dict.fromkeys(slot_vars))
        if not scope:
            continue
        table: dict[tuple, int] = {}
        for ytri in Y.triangles:
            need: dict[tuple, str] = {}
            ok = True
            for var, x, yval in zip(slot_vars, tri, ytri):
                if var[0] == "V":
                    yv = Y.src[yval]
                    if Y.identity.get(yv) != yval:
                        ok = False
                        break
                    yval = yv
                if need.setdefault(var, yval) != yval:
                    ok = False
                    break
            if ok:
                table[tuple(need[v] for v in scope)] = 1
        factors.append((scope, table))

    def join(f1, f2):
        s1, t1 = f1
        s2, t2 = f2
        shared = [v for v in s1 if v in s2]
        rest2 = [v for v in s2 if v not in s1]
        shared1 = _picker([s1.index(v) for v in shared])
        shared2 = _picker([s2.index(v) for v in shared])
        pick_rest2 = _picker([s2.index(v) for v in rest2])
        idx2: dict[tuple, list[tuple[tuple, int]]] = {}
        for k2, c2 in t2.items():
            idx2.setdefault(shared2(k2), []).append((pick_rest2(k2), c2))
        out: dict[tuple, int] = {}
        for k1, c1 in t1.items():
            for rk, c2 in idx2.get(shared1(k1), ()):
                key = k1 + rk
                out[key] = out.get(key, 0) + c1 * c2
        return s1 + tuple(rest2), out

    def sum_out(f, var):
        scope, table = f
        i = scope.index(var)
        new_scope = scope[:i] + scope[i + 1:]
        out: dict[tuple, int] = {}
        for k, c in table.items():
            nk = k[:i] + k[i + 1:]
            out[nk] = out.get(nk, 0) + c
        return new_scope, out

    # Factors by creation number, and the factors each variable occurs in.
    live = dict(enumerate(factors))
    factors_of: dict[tuple, set[int]] = {v: set() for v in vvars + evars}
    for fid, (scope, _) in live.items():
        for v in scope:
            factors_of[v].add(fid)

    def scope_after(var):
        s = set()
        for fid in factors_of[var]:
            s.update(live[fid][0])
        s.discard(var)
        return len(s)

    variables = set(vvars) | set(evars)
    next_id = len(live)
    while variables:
        var = min(variables, key=lambda v: (scope_after(v), v))
        bucket = sorted(factors_of.pop(var))
        for fid in bucket:
            for v in live[fid][0]:
                if v != var:
                    factors_of[v].discard(fid)
        merged = live.pop(bucket[0])
        for fid in bucket[1:]:
            merged = join(merged, live.pop(fid))
        live[next_id] = sum_out(merged, var)
        for v in live[next_id][0]:
            factors_of[v].add(next_id)
        next_id += 1
        variables.discard(var)

    total = 1
    for _, table in live.values():
        total *= sum(table.values())
    return total


# ---------------------------------------------------------------------------
# Standard shapes


def simplex(n: int, marked_top: bool = False, name: str | None = None) -> TruncatedEpsilonComplex:
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
    default = (f"sigma{n}" if marked_top else f"delta{n}")
    return make_complex(name or default, vertices, edges, src, tgt, identity, triangles, marked)


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


def horn(n: int, i: int) -> ShapeInclusion:
    cod = simplex(n)
    dom = subcomplex_on_faces(cod, _faces_of(n, {i}), f"horn{n}_{i}_dom")
    return ShapeInclusion(f"horn-{n}-{i}", dom, cod)


def marked_horn(n: int, i: int) -> ShapeInclusion:
    """The marked outer horns: i must be 0 or n."""
    if i not in (0, n):
        raise ValueError("marked horns exist only at the outer indices")
    cod = simplex(n, marked_top=True)
    dom = subcomplex_on_faces(cod, _faces_of(n, {i}), f"ehorn{n}_{i}_dom")
    return ShapeInclusion(f"ehorn-{n}-{i}", dom, cod)


def boundary(n: int) -> ShapeInclusion:
    cod = simplex(n)
    if n == 0:
        dom = make_complex("boundary0_dom", (), (), {}, {}, {}, (), ())
    else:
        dom = subcomplex_on_faces(cod, _faces_of(n, set()), f"boundary{n}_dom")
    return ShapeInclusion(f"boundary-{n}", dom, cod)


def assoc_shape(which: str) -> ShapeInclusion:
    cod = simplex(3)
    if which == "02":
        faces = [frozenset({"1", "2", "3"}), frozenset({"0", "1", "3"})]
    elif which == "13":
        faces = [frozenset({"0", "2", "3"}), frozenset({"0", "1", "2"})]
    else:
        raise ValueError("assoc shape is 02 or 13")
    dom = subcomplex_on_faces(cod, faces, f"assoc{which}_dom")
    return ShapeInclusion(f"assoc-{which}", dom, cod)


def mark_edge_shape() -> ShapeInclusion:
    return ShapeInclusion("mark-edge", simplex(1), simplex(1, marked_top=True))


def wedge_shape() -> ShapeInclusion:
    cod = simplex(2)
    dom = subcomplex_on_faces(cod, [frozenset({"0", "2"}), frozenset({"1"})], "wedge02_1_dom")
    return ShapeInclusion("wedge-02-1", dom, cod)


def vertex_in_edge_shape(i: int) -> ShapeInclusion:
    cod = simplex(1)
    dom = subcomplex_on_faces(cod, [frozenset({str(i)})], f"vertex{i}_dom")
    return ShapeInclusion(f"vertex-{i}-in-edge", dom, cod)


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


def product(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex,
            name: str | None = None) -> TruncatedEpsilonComplex:
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
    return make_complex(name or f"({X.name}x{Y.name})", vertices, edges,
                        src, tgt, identity, triangles, marked)


def box_inclusion(f: ShapeInclusion, g: ShapeInclusion) -> ShapeInclusion:
    cod = product(f.codomain, g.codomain)
    p1 = product(f.domain, g.codomain)
    p2 = product(f.codomain, g.domain)
    dom = union_subcomplexes(cod, [p1, p2], f"box({f.name},{g.name})_dom")
    return ShapeInclusion(f"box({f.name},{g.name})", dom, cod)


# ---------------------------------------------------------------------------
# Shape registry


def shape_from_name(name: str) -> ShapeInclusion:
    """Resolve a shape name, including nested box(...) expressions."""
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
    parts = name.split("-")
    if parts[0] == "horn" and len(parts) == 3:
        return horn(int(parts[1]), int(parts[2]))
    if parts[0] == "ehorn" and len(parts) == 3:
        return marked_horn(int(parts[1]), int(parts[2]))
    if parts[0] == "boundary" and len(parts) == 2:
        return boundary(int(parts[1]))
    if parts[0] == "assoc" and len(parts) == 2:
        return assoc_shape(parts[1])
    if name == "mark-edge":
        return mark_edge_shape()
    if name == "wedge-02-1":
        return wedge_shape()
    if parts[0] == "vertex" and len(parts) == 4:
        return vertex_in_edge_shape(int(parts[1]))
    if parts[0] == "braiding" and len(parts) == 2:
        return braiding_shape(parts[1])
    raise ValueError(f"unknown shape name {name!r}")


SHAPE_NAMES = (
    "horn-1-0", "horn-1-1", "horn-2-0", "horn-2-1", "horn-2-2",
    "horn-3-0", "horn-3-1", "horn-3-2", "horn-3-3",
    "ehorn-1-0", "ehorn-1-1", "ehorn-2-0", "ehorn-2-2", "ehorn-3-0", "ehorn-3-3",
    "boundary-0", "boundary-1", "boundary-2", "boundary-3",
    "assoc-02", "assoc-13", "mark-edge", "wedge-02-1",
    "vertex-0-in-edge", "vertex-1-in-edge",
    "braiding-left", "braiding-right",
)


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
        return {
            "shape": self.shape,
            "mode": self.mode,
            "method": self.method,
            "passed": self.passed,
            "boundaries": self.boundaries,
            "failures": list(self.failures),
            "detail": self.detail,
        }


_ENUMERATION_LIMIT = 20000
# The enumeration route stops scanning boundaries after this many failures.
_MAX_FAILURES = 3


def _determined_missing_edges(shape: ShapeInclusion, index: _TargetIndex) -> bool:
    """True when every codomain edge missing from the domain is forced, for
    any extension, through a chain of triangles functional in the target.
    Under that condition restriction of morphisms is injective."""
    C, D = shape.codomain, shape.domain
    if set(C.vertices) != set(D.vertices):
        return False
    known = set(D.edges)
    missing = [e for e in C.edges if e not in known]
    fn = [index.slot_functional(s) for s in range(3)]
    changed = True
    while missing and changed:
        changed = False
        for t in C.triangles:
            if t in D.triangles:
                continue
            for slot in range(3):
                e = t[slot]
                others = [t[s] for s in range(3) if s != slot]
                if e not in known and all(o in known for o in others) and fn[slot]:
                    known.add(e)
                    missing = [m for m in missing if m != e]
                    changed = True
    return not missing


def check_lifting(shape: ShapeInclusion, X: TruncatedEpsilonComplex,
                  mode: str = "exists") -> LiftingReport:
    """Decide the lifting property of X against a shape inclusion.

    exists mode asks every boundary morphism to extend; unique mode asks for
    exactly one extension.  When the missing edges of the shape are forced
    through triangles functional in X (``_determined_missing_edges``),
    restriction of morphisms is injective, so every boundary has 0 or 1
    extensions: only then are the exact morphism counts computed.  Large
    determined problems are decided by comparing them, with a lazy search
    for an unfillable boundary as witness; small ones enumerate the
    boundaries and ask the forward-checked extension tester about each.
    Problems that are not determined enumerate both sides and count the
    extensions of each boundary by grouping the codomain morphisms by their
    restriction.
    """
    if mode not in ("exists", "unique"):
        raise ValueError("mode must be exists or unique")
    index = _TargetIndex(X)
    C, D = shape.codomain, shape.domain

    if _determined_missing_edges(shape, index):
        cod_count = count_homs(C, X)
        dom_count = count_homs(D, X)
        if max(cod_count, dom_count) > _ENUMERATION_LIMIT:
            passed = cod_count == dom_count
            failures: tuple[dict, ...] = ()
            detail = (f"{dom_count} boundary morphisms, {cod_count} total morphisms; "
                      "restriction is injective, so equality decides the verdict")
            if not passed:
                witness = _search_unfillable(shape, X, index)
                if witness is None:
                    detail += (f"; the witness search stopped after "
                               f"{_WITNESS_SEARCH_LIMIT} boundaries")
                else:
                    failures = (witness,)
            return LiftingReport(shape.name, mode, "count-comparison", passed,
                                 dom_count, failures, detail)
        extends = _extension_tester(shape, X, index)

        def extensions(u: ComplexMorphism) -> int:
            return int(extends(u))
    else:
        groups: dict[tuple, int] = {}
        for l in hom_maps_iter(C, X):
            k = l.key(D)
            groups[k] = groups.get(k, 0) + 1

        def extensions(u: ComplexMorphism) -> int:
            return groups.get(u.key(), 0)

    failures_list: list[dict] = []
    boundaries = hom_maps(D, X)
    for u in boundaries:
        if len(failures_list) >= _MAX_FAILURES:
            break
        n = extensions(u)
        if (n == 0) if mode == "exists" else (n != 1):
            failures_list.append({
                "boundary": _describe_morphism(u),
                "extensions": n,
            })
    passed = not failures_list
    return LiftingReport(shape.name, mode, "enumeration", passed,
                         len(boundaries), tuple(failures_list))


def _describe_morphism(f: ComplexMorphism) -> dict:
    return {
        "vertices": {v: f.vertex_map[v] for v in f.domain.vertices},
        "edges": {e: f.edge_map[e] for e in f.domain.nonidentity_edges()},
    }


_WITNESS_SEARCH_LIMIT = 200000


def _search_unfillable(shape: ShapeInclusion, X: TruncatedEpsilonComplex,
                       index: _TargetIndex) -> dict | None:
    """Look for one boundary morphism with no extension, scanning lazily.
    Returns None when ``_WITNESS_SEARCH_LIMIT`` boundaries all extend."""
    extends = _extension_tester(shape, X, index)
    for count, u in enumerate(hom_maps_iter(shape.domain, X), 1):
        if count > _WITNESS_SEARCH_LIMIT:
            return None
        if not extends(u):
            return {"boundary": _describe_morphism(u), "extensions": 0}
    raise InvariantError(f"{shape.name} against {X.name}: the counts differ "
                         "but every boundary morphism extends")


def _extension_tester(shape: ShapeInclusion, X: TruncatedEpsilonComplex,
                      index: _TargetIndex):
    """Extension existence test for boundary morphisms of a shape whose
    codomain has no vertex outside the domain.

    The edges missing from the domain are assigned in declared order by
    backtracking: each takes its candidates from the edges of X between the
    images of its endpoints (``by_endpoints``), and is tested only against
    the new triangles it closes, precomputed per edge.  New triangles with
    no missing edge, and domain edges marked only in the codomain, are
    checked once up front."""
    C, D = shape.codomain, shape.domain
    dset = set(D.edges)
    missing = [e for e in C.edges if e not in dset]
    pos = {e: i for i, e in enumerate(missing)}
    new_tris = sorted(t for t in C.triangles if t not in D.triangles)
    ready_tris = [t for t in new_tris if not any(x in pos for x in t)]
    newly_marked = [e for e in C.marked if e in dset and e not in D.marked]
    closing: list[list[tuple[str, str, str]]] = [[] for _ in missing]
    for t in new_tris:
        last = max((pos[x] for x in t if x in pos), default=None)
        if last is not None:
            closing[last].append(t)
    by_endpoints, xtris, xmarked = index.by_endpoints, X.triangles, X.marked

    def test(u: ComplexMorphism) -> bool:
        em = dict(u.edge_map)
        if any(em[e] not in xmarked for e in newly_marked):
            return False
        if any((em[t[0]], em[t[1]], em[t[2]]) not in xtris for t in ready_tris):
            return False
        vm = u.vertex_map

        def fill(i: int) -> bool:
            if i == len(missing):
                return True
            e = missing[i]
            marked = e in C.marked
            for val in by_endpoints.get((vm[C.src[e]], vm[C.tgt[e]]), ()):
                if marked and val not in xmarked:
                    continue
                em[e] = val
                if all((em[t[0]], em[t[1]], em[t[2]]) in xtris for t in closing[i]) \
                        and fill(i + 1):
                    return True
            return False

        return fill(0)

    return test
