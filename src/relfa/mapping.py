"""Mapping complexes between edge-marked complexes.

Levels of ``[X, Y]`` are computed as morphism sets out of prism products
``simplex(n) x X``; the module also provides the partial-monoid morphism
calculus used to describe those levels for nerves of effect algebras
(``pm_morphisms``, ``conjugate``, ``hom_object_ea``), the isomorphism
verification between the two descriptions, the evaluation-map fibration
checks, and the enriched composition morphism."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    CheckResult,
    EffectAlgebraTable,
    InvariantError,
    PseudoEffectAlgebraTable,
    RelFA,
    SumTable,
    ValidationReport,
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
    hom_maps,
    hom_maps_iter,
    horn,
    make_complex,
    mark_edge_shape,
    product,
    simplex,
)
from .nerve import nerve


# ---------------------------------------------------------------------------
# Partial-monoid morphisms between sum tables


@dataclass(frozen=True)
class PMMorphism:
    """Map between sum tables preserving bottom and every defined sum.

    The top element need not be preserved."""

    source: SumTable
    target: SumTable
    image: dict[str, str]

    def __call__(self, a: str) -> str:
        return self.image[a]

    def key(self) -> tuple[str, ...]:
        return tuple(self.image[a] for a in self.source.elements)

    def check(self) -> None:
        if self.image[self.source.zero] != self.target.zero:
            raise ValueError(f"{self.source.name}->{self.target.name}: bottom not preserved")
        for (x, y), z in self.source.sums.items():
            if self.target.sums.get((self.image[x], self.image[y])) != self.image[z]:
                raise ValueError(
                    f"{self.source.name}->{self.target.name}: sum ({x},{y}) not preserved")

    def compose(self, other: "PMMorphism") -> "PMMorphism":
        """self after other."""
        if other.target is not self.source and other.target.name != self.source.name:
            raise ValueError("composition mismatch")
        return PMMorphism(other.source, self.target,
                          {a: self.image[b] for a, b in other.image.items()})


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

    def consistent(a: str) -> bool:
        return all(F.sums.get((image[x], image[y])) == image[z]
                   for x, y, z in sums_by_latest[a])

    def place(i: int) -> None:
        if i == len(order):
            out.append(PMMorphism(E, F, dict(image)))
            return
        a = order[i]
        if a == E.zero:
            candidates = [F.zero]
        elif a in decomp:
            x, y = decomp[a]
            forced = F.sums.get((image[x], image[y]))
            candidates = [] if forced is None else [forced]
        else:
            candidates = list(F.elements)
        for c in candidates:
            image[a] = c
            if consistent(a):
                place(i + 1)
            del image[a]

    place(0)
    out.sort(key=lambda h: h.key())
    return out


def conjugate(F: SumTable, f: PMMorphism, b: str) -> PMMorphism:
    """The unique g with b + f(a) = g(a) + b for every a.

    Requires b below the left supplement of f(1); the result is checked to
    preserve bottom and defined sums."""
    kind = ("pseudo-effect-algebra" if isinstance(F, PseudoEffectAlgebraTable)
            else "effect-algebra")
    supp = supplements(F, kind)
    f1 = f.image[f.source.one]
    left = supp[f1][0] if kind == "pseudo-effect-algebra" else supp[f1]
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


def _with_factor(phi: ComplexMorphism, X: TruncatedEpsilonComplex) -> ComplexMorphism:
    """phi x id_X on prism products."""
    dom = product(phi.domain, X)
    cod = product(phi.codomain, X)
    vmap = {f"{u}|{x}": f"{phi.vertex_map[u]}|{x}"
            for u in phi.domain.vertices for x in X.vertices}
    emap = {f"{a}|{e}": f"{phi.edge_map[a]}|{e}"
            for a in phi.domain.edges for e in X.edges}
    return ComplexMorphism(dom, cod, vmap, emap)


def _with_factor_right(S: TruncatedEpsilonComplex, psi: ComplexMorphism) -> ComplexMorphism:
    """id_S x psi on prism products."""
    dom = product(S, psi.domain)
    cod = product(S, psi.codomain)
    vmap = {f"{u}|{x}": f"{u}|{psi.vertex_map[x]}"
            for u in S.vertices for x in psi.domain.vertices}
    emap = {f"{a}|{e}": f"{a}|{psi.edge_map[e]}"
            for a in S.edges for e in psi.domain.edges}
    return ComplexMorphism(dom, cod, vmap, emap)


# ---------------------------------------------------------------------------
# The mapping complex


@dataclass(frozen=True)
class MappingComplex:
    """An edge-marked complex whose cells carry back-references to the
    morphisms representing them: vertices to maps (simplex(0) x source) ->
    target, edges to maps out of the 1-prism, triangles to maps out of the
    2-prism."""

    complex: TruncatedEpsilonComplex
    vertex_refs: dict[str, ComplexMorphism]
    edge_refs: dict[str, ComplexMorphism]
    triangle_refs: dict[tuple[str, str, str], ComplexMorphism]
    source: TruncatedEpsilonComplex
    target: TruncatedEpsilonComplex

    def vertex_index(self) -> dict[tuple, str]:
        return {r.key(): v for v, r in self.vertex_refs.items()}

    def edge_index(self) -> dict[tuple, str]:
        return {r.key(): e for e, r in self.edge_refs.items()}


def mapping_complex(X: TruncatedEpsilonComplex, Y: TruncatedEpsilonComplex,
                    name: str | None = None) -> MappingComplex:
    """The complex of maps X -> Y, one level at a time.

    Level n is the morphism set Hom(simplex(n) x X, Y); faces and identities
    come from composing with the prism maps, and an edge is marked exactly
    when its representing map sends marked prism edges to marked edges."""
    p1 = product(simplex(1), X)
    v_homs = hom_maps(product(simplex(0), X), Y)
    e_homs = hom_maps(p1, Y)
    t_homs = hom_maps(product(simplex(2), X), Y)

    vid = {h.key(): f"h{i}" for i, h in enumerate(v_homs)}
    eid = {h.key(): f"e{i}" for i, h in enumerate(e_homs)}
    if len(vid) != len(v_homs) or len(eid) != len(e_homs):
        raise InvariantError("mapping complex: two morphisms share a key")

    at0 = _with_factor(_simplex_map(0, 1, (0,)), X)
    at1 = _with_factor(_simplex_map(0, 1, (1,)), X)
    collapse = _with_factor(_simplex_map(1, 0, (0, 0)), X)
    prism_faces = [_with_factor(_simplex_map(1, 2, g), X)
                   for g in ((1, 2), (0, 2), (0, 1))]

    src, tgt = {}, {}
    edge_refs = {}
    for h in e_homs:
        e = eid[h.key()]
        edge_refs[e] = h
        src[e] = vid[h.compose(at0).key()]
        tgt[e] = vid[h.compose(at1).key()]

    identity, vertex_refs = {}, {}
    for h in v_homs:
        v = vid[h.key()]
        vertex_refs[v] = h
        identity[v] = eid[h.compose(collapse).key()]

    triangles = []
    triangle_refs = {}
    for h in t_homs:
        t = tuple(eid[h.compose(fm).key()] for fm in prism_faces)
        triangles.append(t)
        triangle_refs[t] = h

    marked = [eid[h.key()] for h in e_homs
              if all(h.edge_map[f"01|{m}"] in Y.marked for m in X.marked)]

    C = make_complex(
        name or f"[{X.name},{Y.name}]",
        [f"h{i}" for i in range(len(v_homs))],
        [f"e{i}" for i in range(len(e_homs))],
        src, tgt, identity, triangles, marked)

    # Level cardinalities must match the morphism counts out of the prisms,
    # including the marked level counted against the marked 1-prism.
    levels = (
        ("vertices", len(C.vertices), len(v_homs)),
        ("edges", len(C.edges), len(e_homs)),
        ("triangles", len(C.triangles), len(t_homs)),
        ("marked edges", len(C.marked),
         len(hom_maps(product(simplex(1, marked_top=True), X), Y))),
    )
    for level, built, counted in levels:
        if built != counted:
            raise InvariantError(
                f"{C.name}: {built} {level} built but {counted} morphisms counted")
    return MappingComplex(C, vertex_refs, edge_refs, triangle_refs, X, Y)


# ---------------------------------------------------------------------------
# The hom object of two effect algebras


def interval_algebra(F: SumTable, top: str, name: str | None = None) -> EffectAlgebraTable:
    """The effect algebra on [0, top] with the restricted sum."""
    order = derived_order(F)
    carrier = tuple(x for x in F.elements if (x, top) in order)
    inside = set(carrier)
    sums = {(x, y): z for (x, y), z in F.sums.items()
            if x in inside and y in inside and z in inside}
    return EffectAlgebraTable(
        name=name or f"{F.name}[0,{top}]",
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
    block came from."""
    homs = pm_morphisms(E, F)
    supp = supplements(F, "effect-algebra")
    elements: list[str] = []
    mu, eta, delta, eps = set(), set(), set(), set()
    comps = []
    for i, h in enumerate(homs):
        top = supp[h.image[E.one]]
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


def _candidate_isomorphism(hob: HomObject, E: SumTable, F: SumTable,
                           NE: TruncatedEpsilonComplex, NF: TruncatedEpsilonComplex,
                           M: MappingComplex) -> ComplexMorphism | None:
    """The explicit labeling: the component of h lands on the vertex induced
    by h, and the loop named by x in [0, h(1)'] lands on the edge whose
    01-prism images are h(a) + x."""
    C = M.complex
    vindex = M.vertex_index()
    eindex = M.edge_index()
    NG = nerve(hob.algebra)
    p0 = product(simplex(0), NE)
    p1 = product(simplex(1), NE)
    unit_e, unit_f = NE.vertices[0], NF.vertices[0]
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    try:
        for comp in hob.components:
            h = comp.morphism.image
            vref = ComplexMorphism(
                p0, NF,
                {f"0|{unit_e}": unit_f},
                {f"00|{a}": h[a] for a in E.elements})
            vmap[comp.prefix + F.zero] = vindex[vref.key()]
            for x in comp.carrier:
                emaps: dict[str, str] = {}
                for a in E.elements:
                    shifted = F.sums.get((h[a], x))
                    if shifted is None:
                        return None
                    emaps[f"00|{a}"] = h[a]
                    emaps[f"11|{a}"] = h[a]
                    emaps[f"01|{a}"] = shifted
                eref = ComplexMorphism(
                    p1, NF,
                    {f"0|{unit_e}": unit_f, f"1|{unit_e}": unit_f},
                    emaps)
                emap[comp.prefix + x] = eindex[eref.key()]
    except KeyError:
        return None
    f = ComplexMorphism(NG, C, vmap, emap)
    try:
        f.check()
    except ValueError:
        return None
    if len(set(vmap.values())) != len(C.vertices):
        return None
    if len(set(emap.values())) != len(C.edges):
        return None
    return f


def _level_counts(C: TruncatedEpsilonComplex) -> tuple[int, int, int, int]:
    return (len(C.vertices), len(C.edges), len(C.triangles), len(C.marked))


def find_isomorphism(A: TruncatedEpsilonComplex,
                     B: TruncatedEpsilonComplex) -> ComplexMorphism | None:
    """First isomorphism of edge-marked complexes A -> B, if any.

    A bijective morphism between complexes with equal level counts is
    automatically invertible: injectivity plus equal triangle and marked
    counts forces the structure to be reflected."""
    if _level_counts(A) != _level_counts(B):
        return None
    nv, ne = len(A.vertices), len(A.edges)
    for f in hom_maps_iter(A, B):
        if len(set(f.vertex_map.values())) == nv and \
                len(set(f.edge_map.values())) == ne:
            return f
    return None


def verify_mapping_theorem(E: SumTable, F: SumTable) -> bool:
    """Whether the mapping complex of the two nerves is isomorphic to the
    nerve of the disjoint union of interval algebras over all
    sum-preserving maps E -> F."""
    hob = hom_object_ea(E, F)
    NG = nerve(hob.algebra)
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(NE, NF)
    if _level_counts(NG) != _level_counts(M.complex):
        return False
    iso = _candidate_isomorphism(hob, E, F, NE, NF, M)
    if iso is None:
        iso = find_isomorphism(NG, M.complex)
    return iso is not None


# ---------------------------------------------------------------------------
# The evaluation fibration


FIBRATION_SHAPES: tuple[ShapeInclusion, ...] = (
    horn(1, 0), horn(1, 1),
    horn(2, 0), horn(2, 1), horn(2, 2),
    horn(3, 0), horn(3, 1), horn(3, 2), horn(3, 3),
    boundary(2), boundary(3),
    mark_edge_shape(),
)


def _images(f: ComplexMorphism) -> tuple:
    return (tuple(sorted(f.vertex_map.items())),
            tuple(sorted(f.edge_map.items())))


def _relative_lifting_check(shape: ShapeInclusion, p: ComplexMorphism) -> CheckResult:
    """Exactly one lift for every commutative square from the shape
    inclusion to p."""
    A, B = shape.domain, shape.codomain
    total, base = p.domain, p.codomain
    us = hom_maps(A, total)
    ws = hom_maps(B, base)
    vs = hom_maps(B, total)

    lifts: dict[tuple, int] = {}
    for v in vs:
        k = (v.key(of=A), p.compose(v).key())
        lifts[k] = lifts.get(k, 0) + 1
    ws_by_restriction: dict[tuple, list[ComplexMorphism]] = {}
    for w in ws:
        ws_by_restriction.setdefault(w.key(of=A), []).append(w)

    squares = 0
    failures: list[tuple] = []
    for u in us:
        pu_key = p.compose(u).key()
        for w in ws_by_restriction.get(pu_key, ()):
            squares += 1
            n = lifts.get((u.key(), w.key()), 0)
            if n != 1 and len(failures) < 3:
                failures.append((n, _images(u), _images(w)))
    return CheckResult(
        name=f"{shape.name}:unique-relative-lift",
        passed=not failures,
        witness=failures[0] if failures else None,
        detail=f"{squares} squares, {len(vs)} candidate fillers")


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
    d0m = _with_factor_right(simplex(0), incl)
    d1m = _with_factor_right(simplex(1), incl)
    vindex = M1.vertex_index()
    eindex = M1.edge_index()
    vmap = {v: vindex[r.compose(d0m).key()] for v, r in ME.vertex_refs.items()}
    emap = {e: eindex[r.compose(d1m).key()] for e, r in ME.edge_refs.items()}
    p = ComplexMorphism(ME.complex, M1.complex, vmap, emap)
    p.check()
    return p


def eval_fibration_check(E: SumTable, F: SumTable) -> ValidationReport:
    """Verify that restricting along the initial algebra inclusion makes the
    mapping complex a minimal fibration: unique relative lifts for every
    horn up to dimension 3, for the sphere inclusions in dimensions 2 and 3,
    and for the marked-edge inclusion."""
    one = chain(1)
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    N1 = nerve(to_relfa(one))
    ME = mapping_complex(NE, NF)
    M1 = mapping_complex(N1, NF)
    p = restriction_map(ME, M1, unit_inclusion_map(one, E, NE=NE, N1=N1))
    checks = tuple(_relative_lifting_check(shape, p) for shape in FIBRATION_SHAPES)
    notes = (
        f"total complex: {len(ME.complex.vertices)} vertices, {len(ME.complex.edges)} edges",
        f"base complex: {len(M1.complex.vertices)} vertices, {len(M1.complex.edges)} edges",
    )
    return ValidationReport(
        kind="evaluation-fibration",
        name=f"eval({E.name};{F.name})",
        checks=checks,
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
    vindex = MEG.vertex_index()
    eindex = MEG.edge_index()

    vmap: dict[str, str] = {}
    for gv, gr in MFG.vertex_refs.items():
        for hv, hr in MEF.vertex_refs.items():
            vm = {f"0|{x}": gr.vertex_map[f"0|{hr.vertex_map[f'0|{x}']}"]
                  for x in Ne.vertices}
            em = {f"00|{e}": gr.edge_map[f"00|{hr.edge_map[f'00|{e}']}"]
                  for e in Ne.edges}
            comp = ComplexMorphism(hr.domain, Ng, vm, em)
            vmap[f"{gv}|{hv}"] = vindex[comp.key()]

    emap: dict[str, str] = {}
    for ge, gr in MFG.edge_refs.items():
        for he, hr in MEF.edge_refs.items():
            vm = {f"{i}|{x}": gr.vertex_map[f"{i}|{hr.vertex_map[f'{i}|{x}']}"]
                  for i in ("0", "1") for x in Ne.vertices}
            em = {f"{ij}|{e}": gr.edge_map[f"{ij}|{hr.edge_map[f'{ij}|{e}']}"]
                  for ij in ("00", "01", "11") for e in Ne.edges}
            comp = ComplexMorphism(hr.domain, Ng, vm, em)
            emap[f"{ge}|{he}"] = eindex[comp.key()]

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
    from .nerve import nerve_to_algebra, recognize_nerve
    from .ortho import is_cancellative

    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(NE, NF)
    C = M.complex
    supp = supplements(F, "effect-algebra")
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
        top = supp[image[E.one]]
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
