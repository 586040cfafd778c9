"""Mapping complexes between edge-marked complexes.

The vertices and edges of ``[X, Y]`` are maps out of the prisms
``simplex(n) x X``, each named by the images of its prism faces, and its
triangles are read off its edges.  The module also provides the
partial-monoid morphism calculus describing those levels for nerves of
effect algebras (``pm_morphisms``, ``conjugate``, ``hom_object_ea``), the
mapping theorem checked relation by relation on the relabelled hom object,
the evaluation-map fibration checks, and the enriched composition
morphism."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    CheckResult,
    EffectAlgebraTable,
    InvariantError,
    RelFA,
    SumTable,
    ValidationReport,
    _require,
    derived_order,
    height_order,
    relabel_relfa,
    supplements,
    to_relfa,
    validate,
)
from .catalog import chain
from .complexes import (
    ComplexMorphism,
    ShapeInclusion,
    TruncatedEpsilonComplex,
    boundary,
    check_lifting,
    hom_maps,
    horn,
    make_complex,
    mark_edge_shape,
    product,
    simplex,
)
from .nerve import nerve, nerve_to_algebra, recognize_nerve
from .ortho import is_cancellative


# ---------------------------------------------------------------------------
# Partial-monoid morphisms between sum tables


@dataclass(frozen=True)
class PMMorphism:
    """Map between sum tables preserving bottom and every defined sum.

    The top element need not be preserved."""

    source: SumTable
    target: SumTable
    image: dict[str, str]

    def key(self) -> tuple[str, ...]:
        return tuple(self.image[a] for a in self.source.elements)

    def check(self) -> None:
        if self.image[self.source.zero] != self.target.zero:
            raise ValueError(f"{self.source.name}->{self.target.name}: bottom not preserved")
        for (x, y), z in self.source.sums.items():
            if self.target.sums.get((self.image[x], self.image[y])) != self.image[z]:
                raise ValueError(
                    f"{self.source.name}->{self.target.name}: sum ({x},{y}) not preserved")


def pm_morphisms(E: SumTable, F: SumTable) -> list[PMMorphism]:
    """Every map preserving bottom and all defined sums, sorted by image
    tuple.  Enumeration assigns atoms first and forces every composite
    element from one of its decompositions, checking affected sums as soon
    as all three participants have images."""
    order = height_order(E)
    pos = {a: i for i, a in enumerate(order)}
    decomp: dict[str, tuple[str, str]] = {}
    for (x, y) in sorted(E.sums):
        z = E.sums[(x, y)]
        if z not in decomp and x != z and y != z:
            decomp[z] = (x, y)
    sums_by_latest: dict[str, list[tuple[str, str, str]]] = {a: [] for a in order}
    for (x, y), z in E.sums.items():
        latest = max((x, y, z), key=pos.__getitem__)
        sums_by_latest[latest].append((x, y, z))

    out: list[PMMorphism] = []
    image: dict[str, str] = {}

    def candidates(a: str):
        if a == E.zero:
            return [F.zero]
        if a in decomp:
            forced = F.sums.get((image[decomp[a][0]], image[decomp[a][1]]))
            return [] if forced is None else [forced]
        return F.elements

    def consistent(a: str) -> bool:
        return all(F.sums.get((image[x], image[y])) == image[z]
                   for x, y, z in sums_by_latest[a])

    # One explicit stack of candidate iterators, one per placed element: a
    # recursive closure would be a reference cycle left to the collector.
    stack: list = []
    while True:
        if len(stack) == len(order):
            out.append(PMMorphism(E, F, dict(image)))
        else:
            stack.append(iter(candidates(order[len(stack)])))
        while stack:
            a = order[len(stack) - 1]
            for c in stack[-1]:
                image[a] = c
                if consistent(a):
                    break
            else:
                image.pop(a, None)
                stack.pop()
                continue
            break
        else:
            break
    out.sort(key=lambda h: h.key())
    return out


def conjugate(F: SumTable, f: PMMorphism, b: str) -> PMMorphism:
    """The unique g with b + f(a) = g(a) + b for every a.

    Requires b below the left supplement of f(1); the result is checked to
    preserve bottom and defined sums."""
    f1 = f.image[f.source.one]
    left = supplements(F)[f1][0]
    order = derived_order(F)
    if (b, left) not in order:
        raise ValueError(f"{b!r} is not below the left supplement of f(1)={f1!r}")
    image: dict[str, str] = {}
    for a in f.source.elements:
        val = F.sums.get((b, f.image[a]))
        if val is None:
            raise ValueError(f"b + f({a}) undefined; table is not a pseudo effect algebra")
        sols = [x for x in F.elements if F.sums.get((x, b)) == val]
        if len(sols) != 1:
            raise ValueError(f"conjugation at {a!r} has {len(sols)} solutions")
        image[a] = sols[0]
    g = PMMorphism(f.source, f.target, image)
    g.check()
    return g


# ---------------------------------------------------------------------------
# The mapping complex


# The edges of simplex(1): a cell of [X, Y] is named by the images of the
# prism edges ``ij|x`` at these levels.
_LEVELS = ("00", "01", "11")


def _face(h: ComplexMorphism, level: str, edges) -> tuple[str, ...]:
    """The images under h of the prism edges ``level|x``, x in ``edges``."""
    return tuple(h.edge_map[f"{level}|{x}"] for x in edges)


@dataclass(frozen=True)
class MappingComplex:
    """The complex [X, Y] of maps X -> Y with its cells tied to the
    morphisms representing them.  ``vertex_refs`` sends a vertex to its map
    simplex(0) x X -> Y and ``edge_refs`` an edge to its map out of the
    1-prism simplex(1) x X.  ``vertex_index`` and ``edge_index`` are the
    inverse lookups by face key: a vertex is keyed by the images of its
    ``00|x`` cells and an edge by the triple of its ``00|x``, ``01|x`` and
    ``11|x`` images, for x in ``X.edges`` (identities included)."""

    complex: TruncatedEpsilonComplex
    vertex_refs: dict[str, ComplexMorphism]
    edge_refs: dict[str, ComplexMorphism]
    vertex_index: dict[tuple, str]
    edge_index: dict[tuple, str]


def mapping_complex(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> MappingComplex:
    """The complex of maps X -> Y, one level at a time.

    Levels 0 and 1 are the morphism sets Hom(simplex(n) x X, Y), each cell
    keyed by its faces (see ``MappingComplex``); the keys are injective
    because Y's identity edges are distinct.  An edge keyed (s, a, t) runs
    from the vertex keyed s to the vertex keyed t, the identity of the
    vertex keyed t is the edge keyed (t, t, t), and the edge is marked
    exactly when a sends the marked edges of X to marked edges.  Level 2
    is read off level 1: every vertex and edge of simplex(2) x X lies in one
    of its three 1-prism faces, and the only triangles outside them are
    (12|x0, 02|x1, 01|x2) for the triangles (x0, x1, x2) of X.  So a map out
    of the 2-prism is a triple (d0, d1, d2) of edges with matching endpoints
    whose 01|x images carry every triangle of X to one of Y."""
    vertex_refs = {f"h{i}": h for i, h in enumerate(hom_maps(product(simplex(0), X), Y))}
    edge_refs = {f"e{i}": h for i, h in enumerate(hom_maps(product(simplex(1), X), Y))}
    vid = {_face(h, "00", X.edges): v for v, h in vertex_refs.items()}
    eid = {tuple(_face(h, ij, X.edges) for ij in _LEVELS): e for e, h in edge_refs.items()}
    if len(vid) != len(vertex_refs) or len(eid) != len(edge_refs):
        raise InvariantError("mapping complex: two morphisms share a face key")

    src = {e: vid[s] for (s, _, _), e in eid.items()}
    tgt = {e: vid[t] for (_, _, t), e in eid.items()}
    identity = {v: eid[(t, t, t)] for t, v in vid.items()}
    along = {e: a for (_, a, _), e in eid.items()}
    at = {x: i for i, x in enumerate(X.edges)}
    marked = [e for e, a in along.items() if all(a[at[m]] in Y.marked for m in X.marked)]

    x_triangles = [tuple(at[x] for x in t) for t in X.triangles]
    out, between = {}, {}
    for e in edge_refs:
        out.setdefault(src[e], []).append(e)
        between.setdefault((src[e], tgt[e]), []).append(e)
    ytri, triangles = Y.triangles, []
    for d2 in edge_refs:
        a2 = along[d2]
        for d0 in out[tgt[d2]]:
            a0 = along[d0]
            for d1 in between.get((src[d2], tgt[d0]), ()):
                a1 = along[d1]
                if all((a0[i], a1[j], a2[k]) in ytri for i, j, k in x_triangles):
                    triangles.append((d0, d1, d2))

    C = make_complex(f"[{X.name},{Y.name}]", list(vertex_refs), list(edge_refs),
                     src, tgt, identity, triangles, marked)
    return MappingComplex(C, vertex_refs, edge_refs, vid, eid)


# ---------------------------------------------------------------------------
# The hom object of two effect algebras


def interval_algebra(F: SumTable, top: str) -> EffectAlgebraTable:
    """The effect algebra on [0, top] with the restricted sum."""
    order = derived_order(F)
    carrier = tuple(x for x in F.elements if (x, top) in order)
    inside = set(carrier)
    sums = {(x, y): z for (x, y), z in F.sums.items()
            if x in inside and y in inside and z in inside}
    return EffectAlgebraTable(
        name=f"{F.name}[0,{top}]",
        elements=carrier, zero=F.zero, one=top, sums=sums)


@dataclass(frozen=True)
class HomObjectComponent:
    index: int
    morphism: PMMorphism
    top: str
    carrier: tuple[str, ...]
    prefix: str


@dataclass(frozen=True)
class HomObject:
    algebra: RelFA
    components: tuple[HomObjectComponent, ...] = field(repr=False)


def hom_object_ea(E: SumTable, F: SumTable) -> HomObject:
    """The disjoint union, over all sum-preserving maps h: E -> F, of the
    relational algebra of the interval [0, h(1)'] in F.  Elements are named
    h{i}.{x}; the returned components record which map and interval each
    block came from.  Raises ValueError unless E and F are effect algebras."""
    _require("effect-algebra", "an effect algebra", E, F)
    homs = pm_morphisms(E, F)
    supp = supplements(F)
    elements: list[str] = []
    mu, eta, delta, eps = set(), set(), set(), set()
    comps = []
    for i, h in enumerate(homs):
        top = supp[h.image[E.one]][1]
        block = interval_algebra(F, top)
        if not validate("effect-algebra", block).passed:
            raise InvariantError(f"{block.name} is not an effect algebra")
        prefix = f"h{i}."
        labels = {x: prefix + x for x in block.elements}
        rf = relabel_relfa(to_relfa(block), labels, name=f"component{i}")
        elements.extend(rf.elements)
        mu |= rf.mu
        eta |= rf.eta
        delta |= rf.delta
        eps |= rf.epsilon
        comps.append(HomObjectComponent(i, h, top, block.elements, prefix))
    algebra = RelFA(
        name=f"hom({E.name},{F.name})",
        elements=tuple(elements),
        mu=frozenset(mu), eta=frozenset(eta),
        delta=frozenset(delta), epsilon=frozenset(eps))
    return HomObject(algebra, tuple(comps))


def _explicit_labeling(hob: HomObject, F: SumTable, NE: TruncatedEpsilonComplex,
                       M: MappingComplex) -> dict[str, str] | None:
    """The explicit labeling of the hom object by edges of the mapping
    complex: the element x of the component of h names the edge keyed
    ((h(a))_a, (h(a) + x)_a, (h(a))_a) over the elements a of E, which are
    the edges of NE.  None when no edge has such a key; an undefined sum
    leaves None in the key, which no edge has."""
    labels: dict[str, str] = {}
    for comp in hob.components:
        h = comp.morphism.image
        ends = tuple(h[a] for a in NE.edges)
        for x in comp.carrier:
            shifted = tuple(F.sums.get((h[a], x)) for a in NE.edges)
            edge = M.edge_index.get((ends, shifted, ends))
            if edge is None:
                return None
            labels[comp.prefix + x] = edge
    return labels


def verify_mapping_theorem(E: SumTable, F: SumTable,
                           hob: HomObject | None = None) -> bool:
    """Whether the explicit labeling ``_explicit_labeling`` is an isomorphism
    from the nerve of the hom object onto the mapping complex C of the two
    nerves; no other isomorphism is searched for.  It is one exactly when
    it is a bijection onto C's edges that carries the multiplication, unit
    and counit of the hom object to C's triangles (as ``nerve`` reads
    them), identity edges and marked edges: the degenerate triangles of
    each edge fix its endpoints, and the units fix the vertices.  ``hob``
    is the hom object of E and F, if the caller has built it."""
    hob = hob or hom_object_ea(E, F)
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(NE, NF)
    C = M.complex
    labels = _explicit_labeling(hob, F, NE, M)
    if labels is None or sorted(labels.values()) != sorted(C.edges):
        return False
    G = relabel_relfa(hob.algebra, labels)
    return G.mu == {(d0, d2, d1) for d0, d1, d2 in C.triangles} and \
        G.eta == set(C.identity.values()) and G.epsilon == C.marked


# ---------------------------------------------------------------------------
# The evaluation fibration


FIBRATION_SHAPES: tuple[ShapeInclusion, ...] = (
    horn(1, 0), horn(1, 1),
    horn(2, 0), horn(2, 1), horn(2, 2),
    horn(3, 0), horn(3, 1), horn(3, 2), horn(3, 3),
    boundary(2), boundary(3),
    mark_edge_shape(),
)


def unit_inclusion_map(one: SumTable, E: SumTable,
                       N1: TruncatedEpsilonComplex,
                       NE: TruncatedEpsilonComplex) -> ComplexMorphism:
    """The nerve of the unique bottom-and-top-preserving map out of the
    two-element algebra."""
    f = ComplexMorphism(
        N1, NE,
        {N1.vertices[0]: NE.vertices[0]},
        {one.zero: E.zero, one.one: E.one})
    f.check()
    return f


def restriction_map(ME: MappingComplex, M1: MappingComplex,
                    incl: ComplexMorphism) -> ComplexMorphism:
    """Precomposition with a map of sources, cellwise: the face key of a
    cell's restriction is its face key read along the inclusion."""
    along = [incl.edge_map[x] for x in incl.domain.edges]
    vmap = {v: M1.vertex_index[_face(r, "00", along)] for v, r in ME.vertex_refs.items()}
    emap = {e: M1.edge_index[tuple(_face(r, ij, along) for ij in _LEVELS)]
            for e, r in ME.edge_refs.items()}
    p = ComplexMorphism(ME.complex, M1.complex, vmap, emap)
    p.check()
    return p


def eval_fibration_check(E: SumTable, F: SumTable) -> ValidationReport:
    """Verify that restricting along the initial algebra inclusion makes the
    mapping complex a minimal fibration: unique relative lifts for every
    horn up to dimension 3, for the sphere inclusions in dimensions 2 and 3,
    and for the marked-edge inclusion.  Raises ValueError unless E and F
    are pseudo effect algebras."""
    _require("pseudo-effect-algebra", "a pseudo effect algebra", E, F)
    one = chain(1)
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    N1 = nerve(to_relfa(one))
    ME = mapping_complex(NE, NF)
    M1 = mapping_complex(N1, NF)
    p = restriction_map(ME, M1, unit_inclusion_map(one, E, NE=NE, N1=N1))
    checks = []
    for shape in FIBRATION_SHAPES:
        report = check_lifting(shape, ME.complex, "unique", over=p)
        checks.append(CheckResult(f"{shape.name}:unique-relative-lift", report.passed,
                                  report.failures[0] if report.failures else None,
                                  report.detail))
    notes = (
        f"total complex: {len(ME.complex.vertices)} vertices, {len(ME.complex.edges)} edges",
        f"base complex: {len(M1.complex.vertices)} vertices, {len(M1.complex.edges)} edges",
    )
    return ValidationReport(
        kind="evaluation-fibration",
        name=f"eval({E.name};{F.name})",
        checks=tuple(checks),
        notes=notes)


# ---------------------------------------------------------------------------
# Enriched composition


def enriched_compose(E: SumTable, F: SumTable, G: SumTable) -> ComplexMorphism:
    """The composition morphism [N(F),N(G)] x [N(E),N(F)] -> [N(E),N(G)].

    A pair of cells composes along the diagonal of the indexing simplex:
    at each level ij, the inner cell's ``ij`` face is read through the
    outer cell's ``ij`` face, and the result is the cell with that face key.
    It is returned as a checked morphism of edge-marked complexes."""
    Ne, Nf, Ng = nerve(to_relfa(E)), nerve(to_relfa(F)), nerve(to_relfa(G))
    MFG = mapping_complex(Nf, Ng)
    MEF = mapping_complex(Ne, Nf)
    MEG = mapping_complex(Ne, Ng)
    vmap = {f"{g}|{h}": MEG.vertex_index[_face(gr, "00", _face(hr, "00", Ne.edges))]
            for g, gr in MFG.vertex_refs.items() for h, hr in MEF.vertex_refs.items()}
    emap = {f"{g}|{h}": MEG.edge_index[tuple(_face(gr, ij, _face(hr, ij, Ne.edges))
                                             for ij in _LEVELS)]
            for g, gr in MFG.edge_refs.items() for h, hr in MEF.edge_refs.items()}
    out = ComplexMorphism(product(MFG.complex, MEF.complex), MEG.complex, vmap, emap)
    out.check()
    return out


# ---------------------------------------------------------------------------
# Structural facts about hom complexes of effect algebra nerves


def hom_complex_invariants(E: SumTable, F: SumTable) -> dict:
    """Checks tying the mapping complex of two effect algebra nerves to its
    componentwise description: loops over a vertex are one interval, the
    unique marked loop names the supplement of the image of the top, the
    whole complex is again a nerve of a cancellative algebra, and the
    vertices whose identity loop is marked are exactly the top-preserving
    maps."""
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(NE, NF)
    C = M.complex
    supp = supplements(F)
    order = derived_order(F)
    homs = {h.key(): h for h in pm_morphisms(E, F)}

    loops_are_intervals = True
    marked_is_supplement = True
    for v in C.vertices:
        r = M.vertex_refs[v]
        image = {a: r.edge_map[f"00|{a}"] for a in E.elements}
        if tuple(image[a] for a in E.elements) not in homs:
            loops_are_intervals = False
            break
        top = supp[image[E.one]][1]
        interval = {x for x in F.elements if (x, top) in order}
        loops = [e for e in C.edges if C.src[e] == v and C.tgt[e] == v]
        extracted = [M.edge_refs[e].edge_map[f"01|{E.zero}"] for e in loops]
        if sorted(extracted) != sorted(interval):
            loops_are_intervals = False
        marked_loops = [e for e in loops if e in C.marked]
        if len(marked_loops) != 1 or \
                M.edge_refs[marked_loops[0]].edge_map[f"01|{E.zero}"] != top:
            marked_is_supplement = False

    recognition = recognize_nerve(C)
    rebuilt = nerve_to_algebra(C)
    rebuilt_valid = validate("frobenius", rebuilt)
    cancellative, _ = is_cancellative(rebuilt)

    unit_fixed = sorted(v for v in C.vertices if C.identity[v] in C.marked)
    top_preserving = sorted(
        v for v in C.vertices
        if M.vertex_refs[v].edge_map[f"00|{E.one}"] == F.one)

    return {
        "vertices": len(C.vertices),
        "loops_are_intervals": loops_are_intervals,
        "marked_loop_is_supplement": marked_is_supplement,
        "recognized_as_nerve": recognition.passed,
        "rebuilt_is_frobenius": rebuilt_valid.passed,
        "rebuilt_is_cancellative": cancellative,
        "unit_vertices_are_top_preserving": unit_fixed == top_preserving,
    }
