"""Mapping complexes between edge-marked complexes.

The edges of ``[X, Y]`` are the maps out of the prism ``simplex(1) x X``,
each kept as the images of its prism faces; its vertices are read off its
identity edges and its triangles off its edges.  The module also provides the
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


@dataclass(frozen=True)
class MappingComplex:
    """The complex [X, Y] of maps X -> Y, each cell kept as its face key: an
    edge is the triple of the images of the prism edges ``00|x``, ``01|x``
    and ``11|x`` under its map out of simplex(1) x X, for x in ``X.edges``
    (identities included), and a vertex is the ``00|x`` images of its
    identity edge.  ``vertex_index`` and ``edge_index`` send keys to cells."""

    complex: TruncatedEpsilonComplex
    vertex_index: dict[tuple, str]
    edge_index: dict[tuple, str]


def mapping_complex(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex) -> MappingComplex:
    """The complex of maps X -> Y, read off one morphism search.

    The edges e0, e1, ... are the morphisms simplex(1) x X -> Y in order,
    each kept as its face key (see ``MappingComplex``); the keys are
    injective because Y's identity edges are distinct.  Every vertex is a
    face of its own identity edge, so the vertices h0, h1, ... are the keys
    s of the edges keyed (s, s, s), in the order of those edges, which is
    the order of the maps out of simplex(0) x X.  An edge keyed (s, a, t)
    runs from the vertex keyed s to the vertex keyed t, and it is marked
    exactly when a sends the marked edges of X to marked edges.  Level 2 is
    read off level 1: every vertex and edge of simplex(2) x X lies in one of
    its three 1-prism faces, and the only triangles outside them are
    (12|x0, 02|x1, 01|x2) for the triangles (x0, x1, x2) of X.  So a map out
    of the 2-prism is a triple (d0, d1, d2) of edges with matching endpoints
    whose 01|x images carry every triangle of X to one of Y."""
    # product lists the prism edges 00|x, then 01|x, then 11|x, in X's order.
    prism, n = product(simplex(1), X), len(X.edges)
    keys = []
    for h in hom_maps(prism, Y):
        images = tuple(h.edge_map[c] for c in prism.edges)
        keys.append((images[:n], images[n:2 * n], images[2 * n:]))
    eid = {key: f"e{i}" for i, key in enumerate(keys)}
    if len(eid) != len(keys):
        raise InvariantError("mapping complex: two morphisms share a face key")
    vid = {s: f"h{i}" for i, s in enumerate(s for s, a, t in eid if s == a == t)}

    src = {e: vid[s] for (s, _, _), e in eid.items()}
    tgt = {e: vid[t] for (_, _, t), e in eid.items()}
    identity = {v: eid[(t, t, t)] for t, v in vid.items()}
    along = {e: a for (_, a, _), e in eid.items()}
    at = {x: i for i, x in enumerate(X.edges)}
    marked = [e for e, a in along.items() if all(a[at[m]] in Y.marked for m in X.marked)]

    x_triangles = [tuple(at[x] for x in t) for t in X.triangles]
    out, between = {}, {}
    for e in along:
        out.setdefault(src[e], []).append(e)
        between.setdefault((src[e], tgt[e]), []).append(e)
    ytri, triangles = Y.triangles, []
    for d2, a2 in along.items():
        for d0 in out[tgt[d2]]:
            a0 = along[d0]
            for d1 in between.get((src[d2], tgt[d0]), ()):
                a1 = along[d1]
                if all((a0[i], a1[j], a2[k]) in ytri for i, j, k in x_triangles):
                    triangles.append((d0, d1, d2))

    C = make_complex(f"[{X.name},{Y.name}]", list(vid.values()), list(along),
                     src, tgt, identity, triangles, marked)
    return MappingComplex(C, vid, eid)


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


def _read(face: tuple, sources, at: dict) -> tuple:
    """A face of a cell of [X, Y] read through a map of sources into X: its
    images of the edges ``sources`` of X, each found at its position ``at``
    in X.edges."""
    return tuple(face[at[x]] for x in sources)


def restriction_map(ME: MappingComplex, M1: MappingComplex,
                    incl: ComplexMorphism) -> ComplexMorphism:
    """Precomposition with a map of sources, cellwise: the face key of a
    cell's restriction is its face key read along the inclusion."""
    along = [incl.edge_map[x] for x in incl.domain.edges]
    at = {x: i for i, x in enumerate(incl.codomain.edges)}
    vmap = {v: M1.vertex_index[_read(s, along, at)] for s, v in ME.vertex_index.items()}
    emap = {e: M1.edge_index[tuple(_read(f, along, at) for f in key)]
            for key, e in ME.edge_index.items()}
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
    at = {b: i for i, b in enumerate(Nf.edges)}
    vmap = {f"{g}|{h}": MEG.vertex_index[_read(gk, hk, at)]
            for gk, g in MFG.vertex_index.items() for hk, h in MEF.vertex_index.items()}
    emap = {f"{g}|{h}": MEG.edge_index[tuple(_read(gf, hf, at) for gf, hf in zip(gk, hk))]
            for gk, g in MFG.edge_index.items() for hk, h in MEF.edge_index.items()}
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
    at = {a: i for i, a in enumerate(NE.edges)}
    # The image of bottom along each edge, read off its 01 face.
    along_zero = {e: a[at[E.zero]] for (_, a, _), e in M.edge_index.items()}

    loops_are_intervals = True
    marked_is_supplement = True
    for s, v in M.vertex_index.items():
        if tuple(s[at[a]] for a in E.elements) not in homs:
            loops_are_intervals = False
            break
        top = supp[s[at[E.one]]][1]
        interval = {x for x in F.elements if (x, top) in order}
        loops = [e for e in C.edges if C.src[e] == v and C.tgt[e] == v]
        extracted = [along_zero[e] for e in loops]
        if sorted(extracted) != sorted(interval):
            loops_are_intervals = False
        marked_loops = [e for e in loops if e in C.marked]
        if len(marked_loops) != 1 or along_zero[marked_loops[0]] != top:
            marked_is_supplement = False

    recognition = recognize_nerve(C)
    rebuilt = nerve_to_algebra(C)
    rebuilt_valid = validate("frobenius", rebuilt)
    cancellative, _ = is_cancellative(rebuilt)

    unit_fixed = sorted(v for v in C.vertices if C.identity[v] in C.marked)
    top_preserving = sorted(v for s, v in M.vertex_index.items() if s[at[E.one]] == F.one)

    return {
        "vertices": len(C.vertices),
        "loops_are_intervals": loops_are_intervals,
        "marked_loop_is_supplement": marked_is_supplement,
        "recognized_as_nerve": recognition.passed,
        "rebuilt_is_frobenius": rebuilt_valid.passed,
        "rebuilt_is_cancellative": cancellative,
        "unit_vertices_are_top_preserving": unit_fixed == top_preserving,
    }
