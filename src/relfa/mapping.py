"""Mapping complexes between edge-marked complexes.

The vertices and edges of ``[X, Y]`` are maps out of the prisms
``simplex(n) x X`` and its triangles are read off its edges.  The module
also provides the partial-monoid morphism calculus describing those levels
for nerves of effect algebras (``pm_morphisms``, ``conjugate``,
``hom_object_ea``), the mapping theorem checked relation by relation on
the relabelled hom object, the evaluation-map fibration checks, and the
enriched composition morphism."""

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
# Simplex and prism bookkeeping


def _simplex_map(m: int, n: int, images: tuple[int, ...]) -> ComplexMorphism:
    """The map of simplices sending vertex i to images[i] (monotone)."""
    dom, cod = simplex(m), simplex(n)
    vmap = {str(i): str(images[i]) for i in range(m + 1)}
    emap = {f"{i}{j}": f"{images[i]}{images[j]}"
            for i in range(m + 1) for j in range(i, m + 1)}
    return ComplexMorphism(dom, cod, vmap, emap)


def _identity(X: TruncatedEpsilonComplex) -> ComplexMorphism:
    return ComplexMorphism(X, X, {v: v for v in X.vertices}, {e: e for e in X.edges})


def _times(phi: ComplexMorphism, psi: ComplexMorphism,
           dom: TruncatedEpsilonComplex, cod: TruncatedEpsilonComplex) -> ComplexMorphism:
    """The product morphism phi x psi, cell by cell, between the products
    dom = phi.domain x psi.domain and cod = phi.codomain x psi.codomain
    (passed in, so that callers holding them build each product once)."""
    vmap = {f"{u}|{x}": f"{phi.vertex_map[u]}|{psi.vertex_map[x]}"
            for u in phi.domain.vertices for x in psi.domain.vertices}
    emap = {f"{a}|{e}": f"{phi.edge_map[a]}|{psi.edge_map[e]}"
            for a in phi.domain.edges for e in psi.domain.edges}
    return ComplexMorphism(dom, cod, vmap, emap)


def _composite_key(h: ComplexMorphism, phi: ComplexMorphism) -> tuple:
    """The ``key()`` of h after phi, read from the two maps' dicts without
    building the composite."""
    vm, em = h.vertex_map, h.edge_map
    return tuple(vm[phi.vertex_map[v]] for v in phi.domain.vertices) + \
        tuple(em[phi.edge_map[e]] for e in phi.domain.nonidentity_edges())


# ---------------------------------------------------------------------------
# The mapping complex


@dataclass(frozen=True)
class MappingComplex:
    """The complex [X, Y] of maps X -> Y with its cells tied to the
    morphisms representing them.  ``vertex_refs`` sends a vertex to its map
    simplex(0) x X -> Y and ``edge_refs`` an edge to its map out of the
    1-prism simplex(1) x X; ``vertex_index`` and ``edge_index`` are the
    inverse lookups, from a morphism's ``key()`` to its cell."""

    complex: TruncatedEpsilonComplex
    vertex_refs: dict[str, ComplexMorphism]
    edge_refs: dict[str, ComplexMorphism]
    vertex_index: dict[tuple, str]
    edge_index: dict[tuple, str]


def mapping_complex(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> MappingComplex:
    """The complex of maps X -> Y, one level at a time.

    Levels 0 and 1 are the morphism sets Hom(simplex(n) x X, Y), with
    endpoints and identities read by the key of the composite with a prism
    map (``_composite_key``; no composite is built); an edge is marked
    exactly when its map sends marked prism edges to marked edges.  Level 2
    is read off level 1: every vertex and edge of simplex(2) x X lies in one
    of its three 1-prism faces, and the only triangles outside them are
    (12|x0, 02|x1, 01|x2) for the triangles (x0, x1, x2) of X.  So a map out
    of the 2-prism is a triple (d0, d1, d2) of edges with matching endpoints
    whose 01|x images carry every triangle of X to one of Y."""
    p0, p1 = product(simplex(0), X), product(simplex(1), X)
    v_homs = hom_maps(p0, Y)
    e_homs = hom_maps(p1, Y)

    vertex_refs = {f"h{i}": h for i, h in enumerate(v_homs)}
    edge_refs = {f"e{i}": h for i, h in enumerate(e_homs)}
    vid = {h.key(): v for v, h in vertex_refs.items()}
    eid = {h.key(): e for e, h in edge_refs.items()}
    if len(vid) != len(v_homs) or len(eid) != len(e_homs):
        raise InvariantError("mapping complex: two morphisms share a key")

    id_X = _identity(X)
    at0 = _times(_simplex_map(0, 1, (0,)), id_X, p0, p1)
    at1 = _times(_simplex_map(0, 1, (1,)), id_X, p0, p1)
    collapse = _times(_simplex_map(1, 0, (0, 0)), id_X, p1, p0)

    src = {e: vid[_composite_key(h, at0)] for e, h in edge_refs.items()}
    tgt = {e: vid[_composite_key(h, at1)] for e, h in edge_refs.items()}
    identity = {v: eid[_composite_key(h, collapse)] for v, h in vertex_refs.items()}
    marked = [e for e, h in edge_refs.items()
              if all(h.edge_map[f"01|{m}"] in Y.marked for m in X.marked)]

    x_triangles = [tuple(map(X.edges.index, t)) for t in X.triangles]
    along = {e: tuple(h.edge_map[f"01|{x}"] for x in X.edges)
             for e, h in edge_refs.items()}
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

    # The marked level must match the morphism count out of the marked
    # 1-prism.  Vertices and edges are one cell per morphism by construction.
    counted = len(hom_maps(product(simplex(1, marked_top=True), X), Y))
    if len(C.marked) != counted:
        raise InvariantError(
            f"{C.name}: {len(C.marked)} marked edges built but {counted} morphisms counted")
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


def _explicit_labeling(hob: HomObject, E: SumTable, F: SumTable,
                       NE: TruncatedEpsilonComplex, NF: TruncatedEpsilonComplex,
                       M: MappingComplex) -> dict[str, str] | None:
    """The explicit labeling of the hom object by edges of the mapping
    complex: the element x of the component of h names the edge whose
    1-prism map sends a to h(a) at both ends and to h(a) + x along the
    prism.  None when such a sum is undefined or no edge has that key."""
    p1 = product(simplex(1), NE)
    unit_e, unit_f = NE.vertices[0], NF.vertices[0]
    ends = {f"0|{unit_e}": unit_f, f"1|{unit_e}": unit_f}
    labels: dict[str, str] = {}
    for comp in hob.components:
        h = comp.morphism.image
        for x in comp.carrier:
            emap: dict[str, str] = {}
            for a in E.elements:
                shifted = F.sums.get((h[a], x))
                if shifted is None:
                    return None
                emap[f"00|{a}"] = emap[f"11|{a}"] = h[a]
                emap[f"01|{a}"] = shifted
            edge = M.edge_index.get(ComplexMorphism(p1, NF, ends, emap).key())
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
    labels = _explicit_labeling(hob, E, F, NE, NF, M)
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
    """Precomposition with a map of sources, cellwise."""
    d0m, d1m = (_times(_identity(S), incl, product(S, incl.domain),
                       product(S, incl.codomain))
                for S in (simplex(0), simplex(1)))
    vmap = {v: M1.vertex_index[_composite_key(r, d0m)] for v, r in ME.vertex_refs.items()}
    emap = {e: M1.edge_index[_composite_key(r, d1m)] for e, r in ME.edge_refs.items()}
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
    the image cell sends a prism cell first through the inner map, then
    reindexes over the same simplex cell through the outer map.  The result
    is returned as a checked morphism of edge-marked complexes."""
    Ne, Nf, Ng = nerve(to_relfa(E)), nerve(to_relfa(F)), nerve(to_relfa(G))
    MFG = mapping_complex(Nf, Ng)
    MEF = mapping_complex(Ne, Nf)
    MEG = mapping_complex(Ne, Ng)
    dom = product(MFG.complex, MEF.complex)
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    levels = (
        (MFG.vertex_refs, MEF.vertex_refs, MEG.vertex_index, vmap,
         ("0",), ("00",)),
        (MFG.edge_refs, MEF.edge_refs, MEG.edge_index, emap,
         ("0", "1"), ("00", "01", "11")),
    )
    for outer_refs, inner_refs, index, cells, vlabels, elabels in levels:
        for g, gr in outer_refs.items():
            for h, hr in inner_refs.items():
                vm = {f"{i}|{x}": gr.vertex_map[f"{i}|{hr.vertex_map[f'{i}|{x}']}"]
                      for i in vlabels for x in Ne.vertices}
                em = {f"{ij}|{e}": gr.edge_map[f"{ij}|{hr.edge_map[f'{ij}|{e}']}"]
                      for ij in elabels for e in Ne.edges}
                cells[f"{g}|{h}"] = index[ComplexMorphism(hr.domain, Ng, vm, em).key()]

    out = ComplexMorphism(dom, MEG.complex, vmap, emap)
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
