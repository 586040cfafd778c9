"""Morphism enumeration, conjugation, mapping complexes, the componentwise
hom object, and the evaluation fibration check."""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import pytest

from relfa import mapping
from relfa.algebra import CheckResult, PseudoEffectAlgebraTable, SumTable, to_relfa, validate
from relfa.catalog import boolean, chain, cyclic_group_algebra, wright_triangle, zk_interval
from relfa.complexes import (
    SHAPE_NAMES,
    ComplexMorphism,
    ShapeInclusion,
    _picker,
    check_lifting,
    hom_maps,
    hom_maps_iter,
    make_complex,
    product,
    shape_from_name,
    simplex,
)
from relfa.enumerate_small import enumerate_small
from relfa.mapping import (
    FIBRATION_SHAPES,
    conjugate,
    enriched_compose,
    eval_fibration_check,
    hom_complex_invariants,
    hom_object_ea,
    interval_algebra,
    mapping_complex,
    pm_morphisms,
    verify_mapping_theorem,
)
from relfa.nerve import nerve
from test_complexes import complex_counts


def test_morphism_counts_are_frozen():
    assert len(pm_morphisms(chain(1), chain(1))) == 2
    assert len(pm_morphisms(chain(1), chain(2))) == 3
    assert len(pm_morphisms(chain(2), chain(2))) == 2
    assert len(pm_morphisms(boolean(2), chain(2))) == 6


def test_morphisms_preserve_bottom_and_sums():
    for h in pm_morphisms(boolean(2), chain(2)):
        h.check()
    keys = [h.key() for h in pm_morphisms(chain(1), chain(2))]
    assert keys == sorted(keys)


def test_pm_morphisms_leaves_no_cyclic_garbage():
    """The placement search holds no reference cycle: a call frees all of
    its state on return, and leaves nothing for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(pm_morphisms(chain(2), boolean(2))) == 1
        gc.collect()
        assert len(gc.garbage) == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_conjugation_by_bottom_is_identity():
    b = boolean(2)
    for h in pm_morphisms(b, b):
        g = conjugate(b, h, b.zero)
        assert g.key() == h.key()


def test_interval_algebra_restriction():
    b = boolean(2)
    block = interval_algebra(b, "a")
    assert set(block.elements) == {"0", "a"}
    assert block.one == "a"
    assert validate("effect-algebra", block).passed


def test_hom_object_components_of_the_two_chain():
    hob = hom_object_ea(chain(1), chain(1))
    assert len(hob.components) == 2
    sizes = sorted(len(c.carrier) for c in hob.components)
    # The bottom map contributes a full interval, the identity a point.
    assert sizes == [1, 2]
    assert validate("frobenius", hob.algebra).passed
    tops = {c.morphism.key(): c.top for c in hob.components}
    assert tops[("0", "0")] == "1"
    assert tops[("0", "1")] == "0"


def test_mapping_complex_counts_for_the_two_chain():
    N = nerve(to_relfa(chain(1)))
    M = mapping_complex(N, N)
    counts = complex_counts(M.complex)
    assert counts["vertices"] == 2
    assert counts["edges"] == 3
    assert counts["marked"] == 2
    assert counts["triangles"] == 4
    assert sorted(M.vertex_index.values()) == sorted(M.complex.vertices)
    assert sorted(M.edge_index.values()) == sorted(M.complex.edges)


def test_mapping_theorem_on_small_pairs():
    assert verify_mapping_theorem(chain(1), chain(1))
    assert verify_mapping_theorem(chain(1), chain(2))
    assert verify_mapping_theorem(chain(2), chain(1))


def test_mapping_theorem_fails_when_the_level_counts_differ(monkeypatch):
    real = mapping.mapping_complex
    monkeypatch.setattr(mapping, "mapping_complex", lambda X, Y: real(X, X))
    assert not verify_mapping_theorem(chain(1), chain(2))


def test_explicit_labeling_rejects_every_broken_input(monkeypatch):
    E, F = chain(1), chain(2)
    hob = hom_object_ea(E, F)
    M = mapping_complex(nerve(to_relfa(E)), nerve(to_relfa(F)))
    C = M.complex

    def variant(vertices=(), loops=(), triangles=C.triangles, marked=C.marked):
        # M over C plus new vertices and new loops at C's first vertex, with
        # the given triangles and marked edges.
        fresh = tuple(f"id-{v}" for v in vertices)
        ends = {**{i: v for i, v in zip(fresh, vertices)},
                **{e: C.vertices[0] for e in loops}}
        return dataclasses.replace(M, complex=make_complex(
            C.name, C.vertices + tuple(vertices), C.edges + fresh + tuple(loops),
            {**C.src, **ends}, {**C.tgt, **ends},
            {**C.identity, **dict(zip(vertices, fresh))}, triangles, marked))

    def verdict(h, target):
        monkeypatch.setattr(mapping, "hom_object_ea", lambda E, F: h)
        monkeypatch.setattr(mapping, "mapping_complex", lambda X, Y: target)
        return verify_mapping_theorem(E, F)

    assert verdict(hob, M)
    # Each component's carrier widened to all of F, so that some h(1) + x
    # is undefined.
    wide = dataclasses.replace(hob, components=tuple(
        dataclasses.replace(c, carrier=F.elements) for c in hob.components))
    # The unit moved onto the elements that are not units.
    moved = dataclasses.replace(hob, algebra=dataclasses.replace(
        hob.algebra, eta=frozenset(hob.algebra.elements) - hob.algebra.eta))
    broken = [
        (wide, M),
        (moved, M),
        (hob, variant(triangles=C.triangles - {C.nondegenerate_triangles()[0]})),
        (hob, variant(vertices=("extra",))),
        (hob, variant(loops=("extra",))),
        (hob, variant(marked=C.marked - {sorted(C.marked)[0]})),
    ]
    for h, target in broken:
        assert not verdict(h, target)


def test_hom_object_rejects_tables_that_are_not_effect_algebras():
    pea = enumerate_small(5, "pseudo-effect-algebra")[4]
    for E, F in ((chain(1), pea), (pea, chain(1))):
        for route in (hom_object_ea, verify_mapping_theorem):
            with pytest.raises(ValueError, match="pea5_4 is not an effect algebra"):
                route(E, F)


def test_fibration_check_rejects_tables_that_are_not_pseudo_effect_algebras(not_a_pea):
    for E, F in ((chain(1), not_a_pea), (not_a_pea, chain(1))):
        with pytest.raises(ValueError, match="not-a-pea is not a pseudo effect algebra: "
                                             "fails associativity, zero-one-law"):
            eval_fibration_check(E, F)
    pea = enumerate_small(5, "pseudo-effect-algebra")[4]
    assert eval_fibration_check(pea, chain(1)).passed


def test_hom_complex_invariants_frozen():
    assert hom_complex_invariants(chain(2), chain(3)) == {
        "vertices": 2,
        "loops_are_intervals": True,
        "marked_loop_is_supplement": True,
        "recognized_as_nerve": True,
        "rebuilt_is_frobenius": True,
        "rebuilt_is_cancellative": True,
        "unit_vertices_are_top_preserving": True,
    }
    inv = hom_complex_invariants(boolean(2), chain(2))
    assert all(v is True for k, v in inv.items() if k != "vertices")
    assert inv["vertices"] == 6


def test_enriched_composition_closes():
    arrow = enriched_compose(chain(1), chain(1), chain(2))
    # Composition maps out of the product of the two mapping complexes and
    # lands in the outer mapping complex.
    assert "x" in arrow.domain.name
    assert arrow.codomain.name == "[nerve(relfa(chain(1))),nerve(relfa(chain(2)))]"
    assert enriched_compose(chain(1), chain(2), chain(2)) is not None


def test_fibration_shape_roster():
    names = [s.name for s in FIBRATION_SHAPES]
    assert names == ["horn-1-0", "horn-1-1", "horn-2-0", "horn-2-1",
                     "horn-2-2", "horn-3-0", "horn-3-1", "horn-3-2",
                     "horn-3-3", "boundary-2", "boundary-3", "mark-edge"]


def test_eval_fibration_check_passes_and_reports():
    report = eval_fibration_check(chain(1), chain(2))
    assert report.kind == "evaluation-fibration"
    assert report.name == "eval(chain(1);chain(2))"
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [f"{s.name}:unique-relative-lift" for s in FIBRATION_SHAPES]


def cyclic_pea(n):
    """The pseudo effect algebra on 0, 1 and atoms a_1..a_n whose only
    nontrivial sums are a_i + a_{i+1} = 1, indices mod n; it is not
    commutative for n >= 3."""
    atoms = "abcdef"[:n]
    sums = {("0", x): x for x in ("0", "1") + tuple(atoms)}
    sums.update({(x, "0"): x for x in ("1",) + tuple(atoms)})
    sums.update({(atoms[i], atoms[(i + 1) % n]): "1" for i in range(n)})
    return PseudoEffectAlgebraTable(f"cyclic_pea({n})", ("0",) + tuple(atoms) + ("1",),
                                    "0", "1", sums)


FIBRATION_PEA_PAIRS = [pair for n in range(3, 7)
                       for pair in ((chain(1), cyclic_pea(n)), (cyclic_pea(n), chain(2)),
                                    (cyclic_pea(n), cyclic_pea(n)))] + [(boolean(3), boolean(3))]


@pytest.mark.parametrize("pair", FIBRATION_PEA_PAIRS,
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_eval_fibration_check_passes_on_pseudo_effect_algebras(pair):
    assert eval_fibration_check(*pair).passed


@pytest.mark.parametrize("n", range(3, 7))
def test_cyclic_pea_is_a_pea_and_not_commutative(n):
    assert validate("pseudo-effect-algebra", cyclic_pea(n)).passed
    report = validate("effect-algebra", cyclic_pea(n))
    assert [c.name for c in report.checks if not c.passed] == ["commutativity"]


ENRICHED_TRIPLES = [(chain(1),) * 3, (chain(1), chain(2), chain(2)),
                    (chain(2), chain(1), boolean(2)), (cyclic_pea(3),) * 3,
                    (chain(1),) + (enumerate_small(5, "pseudo-effect-algebra")[4],) * 2]


@pytest.mark.parametrize("triple", ENRICHED_TRIPLES,
                         ids=lambda triple: "->".join(T.name for T in triple))
def test_enriched_composition_is_composition_of_maps(triple):
    """enriched_compose sends a pair of vertices to the vertex of g after h,
    for the sum-preserving maps g and h they are, and a pair of edges to the
    edge the literal route names: the prism map that sends each prism cell
    first through the inner edge's map, then over the same simplex cell
    through the outer edge's map, looked up by its key()."""
    E, F, G = triple
    Ne, Nf, Ng = (nerve(to_relfa(T)) for T in triple)
    arrow = enriched_compose(E, F, G)
    (fg_vertices, fg_edges), (ef_vertices, ef_edges), (eg_vertices, eg_edges) = (
        _refs(mapping_complex(S, T), prism_cells(S, T)) for S, T in ((Nf, Ng), (Ne, Nf), (Ne, Ng)))

    def maps(vertices, S, T):
        # The sum-preserving map each vertex of [N(S), N(T)] is.
        images = {v: tuple(h.edge_map[f"00|{a}"] for a in S.elements)
                  for v, h in vertices.items()}
        assert sorted(images.values()) == [h.key() for h in pm_morphisms(S, T)]
        return images

    fg, ef, eg = maps(fg_vertices, F, G), maps(ef_vertices, E, F), maps(eg_vertices, E, G)
    at = {b: i for i, b in enumerate(F.elements)}
    for g, gk in fg.items():
        for h, hk in ef.items():
            assert eg[arrow.vertex_map[f"{g}|{h}"]] == tuple(gk[at[b]] for b in hk)

    index = _by_key(eg_edges)
    for g, gr in fg_edges.items():
        for h, hr in ef_edges.items():
            vm = {f"{i}|{x}": gr.vertex_map[f"{i}|{hr.vertex_map[f'{i}|{x}']}"]
                  for i in ("0", "1") for x in Ne.vertices}
            em = {f"{ij}|{e}": gr.edge_map[f"{ij}|{hr.edge_map[f'{ij}|{e}']}"]
                  for ij in ("00", "01", "11") for e in Ne.edges}
            composite = ComplexMorphism(hr.domain, Ng, vm, em)
            composite.check()
            assert arrow.edge_map[f"{g}|{h}"] == index[composite.key()]


def _images(f: ComplexMorphism) -> tuple:
    return (tuple(sorted(f.vertex_map.items())),
            tuple(sorted(f.edge_map.items())))


def _described(f: ComplexMorphism) -> dict:
    """The vertex images and non-identity edge images of f."""
    return {"vertices": {v: f.vertex_map[v] for v in f.domain.vertices},
            "edges": {e: f.edge_map[e] for e in f.domain.nonidentity_edges()}}


def _relative_lifting_check(shape: ShapeInclusion, p: ComplexMorphism,
                            homs: dict) -> CheckResult:
    """Exactly one lift for every commutative square from the shape
    inclusion to p.  ``homs`` maps the signature of a shape codomain to the
    keys of its morphisms into the total complex of p and to its morphisms
    into the base complex with their keys, so that shapes with one codomain
    enumerate and key them once."""
    A, B = shape.domain, shape.codomain
    total, base = p.domain, p.codomain
    key = B.signature()
    if key not in homs:
        homs[key] = ([v.key() for v in hom_maps(B, total)],
                     [(w, w.key()) for w in hom_maps(B, base)])
    v_keys, ws = homs[key]
    # The key of the restriction to A picked out of key(): A's cells are B's.
    vslot = {v: i for i, v in enumerate(B.vertices)}
    eslot = {e: len(vslot) + i for i, e in enumerate(B.nonidentity_edges())}
    restrict = _picker([vslot[v] for v in A.vertices]
                       + [eslot[e] for e in A.nonidentity_edges()])

    # The key of p∘f, read off the key of f through p's cell maps: mapping
    # complexes name vertices h{i} and edges e{i}, so one merged dict does.
    cells = {**p.vertex_map, **p.edge_map}
    lifts: dict[tuple, int] = {}
    for v_key in v_keys:
        k = (restrict(v_key), tuple(cells[c] for c in v_key))
        lifts[k] = lifts.get(k, 0) + 1
    ws_by_restriction: dict[tuple, list[tuple[ComplexMorphism, tuple]]] = {}
    for w, w_key in ws:
        ws_by_restriction.setdefault(restrict(w_key), []).append((w, w_key))

    # The boundary morphisms are scanned as the search yields them; the
    # witness is the failing square first in key order.
    squares = 0
    first: tuple | None = None
    for u in hom_maps_iter(A, total):
        u_key = u.key()
        for w, w_key in ws_by_restriction.get(tuple(cells[c] for c in u_key), ()):
            squares += 1
            square = (u_key, w_key)
            n = lifts.get(square, 0)
            if n != 1 and (first is None or square < first[0]):
                first = (square, {"boundary": _described(u), "extensions": n,
                                  "over": _described(w)})
    return CheckResult(
        name=f"{shape.name}:unique-relative-lift",
        passed=first is None,
        witness=None if first is None else first[1],
        detail=f"{squares} squares, {len(v_keys)} candidate fillers")


def _compose(f: ComplexMorphism, g: ComplexMorphism) -> ComplexMorphism:
    """f after g; the codomain of g must be the domain of f, as an object or
    as an equal structure."""
    if g.codomain is not f.domain and g.codomain.signature() != f.domain.signature():
        raise ValueError("composition mismatch")
    return ComplexMorphism(g.domain, f.codomain,
                           {v: f.vertex_map[w] for v, w in g.vertex_map.items()},
                           {e: f.edge_map[x] for e, x in g.edge_map.items()})


def _simplex_map(m: int, n: int, images: tuple[int, ...]) -> ComplexMorphism:
    """The map of simplices sending vertex i to images[i] (monotone)."""
    dom, cod = simplex(m), simplex(n)
    vmap = {str(i): str(images[i]) for i in range(m + 1)}
    emap = {f"{i}{j}": f"{images[i]}{images[j]}"
            for i in range(m + 1) for j in range(i, m + 1)}
    return ComplexMorphism(dom, cod, vmap, emap)


def _identity(X) -> ComplexMorphism:
    return ComplexMorphism(X, X, {v: v for v in X.vertices}, {e: e for e in X.edges})


def _times(phi: ComplexMorphism, psi: ComplexMorphism, dom, cod) -> ComplexMorphism:
    """The product morphism phi x psi, cell by cell, between the products
    dom = phi.domain x psi.domain and cod = phi.codomain x psi.codomain."""
    vmap = {f"{u}|{x}": f"{phi.vertex_map[u]}|{psi.vertex_map[x]}"
            for u in phi.domain.vertices for x in psi.domain.vertices}
    emap = {f"{a}|{e}": f"{phi.edge_map[a]}|{psi.edge_map[e]}"
            for a in phi.domain.edges for e in psi.domain.edges}
    return ComplexMorphism(dom, cod, vmap, emap)


def _by_key(refs: dict) -> dict:
    """The literal index of a mapping complex level: key() to cell."""
    return {h.key(): c for c, h in refs.items()}


def prism_cells(X, Y) -> tuple[dict, dict]:
    """The vertex and edge levels of [X, Y] by the literal route: the
    morphisms out of simplex(0) x X and out of simplex(1) x X, in hom_maps
    order, each indexed by its face key (the images of its ``00|x`` cells,
    or the triple of its ``00|x``, ``01|x`` and ``11|x`` images, for x in
    X.edges)."""
    def faces(h, levels):
        return tuple(tuple(h.edge_map[f"{ij}|{x}"] for x in X.edges) for ij in levels)

    vertices = hom_maps(product(simplex(0), X), Y)
    edges = hom_maps(product(simplex(1), X), Y)
    by_key = ({faces(h, ("00",))[0]: h for h in vertices},
              {faces(h, ("00", "01", "11")): h for h in edges})
    assert [len(level) for level in by_key] == [len(vertices), len(edges)]
    return by_key


def _refs(M, cells: tuple[dict, dict]) -> tuple[dict, dict]:
    """The literal morphism of each vertex and each edge of M, found by face
    key in ``prism_cells``."""
    vertices, edges = cells
    return ({M.vertex_index[key]: h for key, h in vertices.items()},
            {M.edge_index[key]: h for key, h in edges.items()})


def test_compose_needs_the_codomain_as_object_or_equal_structure():
    vertex = ComplexMorphism(simplex(0), simplex(1), {"0": "0"}, {"00": "00"})
    assert _compose(_identity(simplex(1)), vertex).key() == vertex.key()
    marked = dataclasses.replace(simplex(1, marked_top=True), name=simplex(1).name)
    with pytest.raises(ValueError, match="composition mismatch"):
        _compose(_identity(marked), vertex)


def _from_faces(P, Y, X, faces: dict) -> ComplexMorphism:
    """The checked morphism P -> Y out of a prism P = simplex(n) x X that
    sends ij|x to faces[ij][k] for the k-th edge x of X; each vertex goes to
    the vertex whose identity edge its identity edge goes to."""
    emap = {f"{ij}|{x}": y for ij, images in faces.items() for x, y in zip(X.edges, images)}
    of_identity = {e: u for u, e in Y.identity.items()}
    f = ComplexMorphism(P, Y, {v: of_identity[emap[P.identity[v]]] for v in P.vertices}, emap)
    f.check()
    return f


@pytest.mark.parametrize("pair", [(chain(1), chain(2)), (chain(2), boolean(2)),
                                  (boolean(2), chain(1))],
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_face_keys_name_the_cells_the_composites_name(pair):
    """Every face key of [X, Y] names the cell the literal route names: the
    morphism a vertex_index or edge_index key spells out has the key() of
    that cell's morphism, and the endpoints, identities and restriction
    cells read by face key are the cells named by the key() of the
    composite with the prism face, collapse or restriction map."""
    E, F = pair
    X, Y = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(X, Y)
    C = M.complex
    p0, p1 = (product(simplex(n), X) for n in range(2))
    vertex_refs, edge_refs = _refs(M, prism_cells(X, Y))
    assert sorted(M.vertex_index.values()) == sorted(C.vertices)
    assert sorted(M.edge_index.values()) == sorted(C.edges)
    for key, v in M.vertex_index.items():
        assert _from_faces(p0, Y, X, {"00": key}).key() == vertex_refs[v].key()
    for key, e in M.edge_index.items():
        faces = dict(zip(("00", "01", "11"), key))
        assert _from_faces(p1, Y, X, faces).key() == edge_refs[e].key()

    vid, eid = _by_key(vertex_refs), _by_key(edge_refs)
    id_X = _identity(X)
    at0, at1 = (_times(_simplex_map(0, 1, (i,)), id_X, p0, p1) for i in (0, 1))
    collapse = _times(_simplex_map(1, 0, (0, 0)), id_X, p1, p0)
    for e, h in edge_refs.items():
        assert C.src[e] == vid[_compose(h, at0).key()]
        assert C.tgt[e] == vid[_compose(h, at1).key()]
    for v, h in vertex_refs.items():
        assert C.identity[v] == eid[_compose(h, collapse).key()]

    one = chain(1)
    N1 = nerve(to_relfa(one))
    M1 = mapping_complex(N1, Y)
    base_vertices, base_edges = _refs(M1, prism_cells(N1, Y))
    incl = mapping.unit_inclusion_map(one, E, N1, X)
    p = mapping.restriction_map(M, M1, incl)
    for S, P, refs, base, cells in ((simplex(0), p0, vertex_refs, base_vertices, p.vertex_map),
                                    (simplex(1), p1, edge_refs, base_edges, p.edge_map)):
        phi, index = _times(_identity(S), incl, product(S, N1), P), _by_key(base)
        assert refs
        for c, h in refs.items():
            assert cells[c] == index[_compose(h, phi).key()]


def _restriction_key(f, A):
    """The key of f restricted to the subcomplex A of its domain."""
    return ComplexMorphism(A, f.codomain, f.vertex_map, f.edge_map).key()


def _oracle_relative_lift_witness(shape, p):
    """The failing square first in key order, found by scanning the sorted
    boundary morphisms and, for each, the sorted base morphisms."""
    A, B = shape.domain, shape.codomain
    lifts = Counter((_restriction_key(v, A), _compose(p, v).key())
                    for v in hom_maps(B, p.domain))
    ws = hom_maps(B, p.codomain)
    for u in hom_maps(A, p.domain):
        for w in ws:
            if _restriction_key(w, A) == _compose(p, u).key():
                n = lifts[(u.key(), w.key())]
                if n != 1:
                    return (n, _images(u), _images(w))
    return None


def _evaluation_map(E, F):
    """The restriction map of eval_fibration_check(E, F)."""
    one = chain(1)
    NE, NF, N1 = (nerve(to_relfa(T)) for T in (E, F, one))
    ME, M1 = mapping.mapping_complex(NE, NF), mapping.mapping_complex(N1, NF)
    return mapping.restriction_map(ME, M1, mapping.unit_inclusion_map(one, E, N1, NE))


CRITERION_6_PAIRS = [(E, F) for E in (chain(1), chain(2), boolean(2), chain(3))
                     for F in (chain(1), chain(2), boolean(2), chain(3))
                     if len(E.elements) * len(F.elements) <= 16]


def _nerve(algebra):
    return nerve(to_relfa(algebra) if isinstance(algebra, SumTable) else algebra)


def prism_triangles(X, Y, M) -> tuple[int, set]:
    """The triangle level of M = [X, Y] by the literal route: every morphism
    out of the 2-prism simplex(2) x X, named by the edges (d0, d1, d2) its
    three 1-prism faces restrict to, each found by the key() of the
    composite.  Asserts on the way that the marked edges of M are the
    morphisms out of the marked 1-prism, one edge per morphism.  Returns
    the number of morphisms out of the 2-prism and the set of named
    triangles."""
    p1, p2 = product(simplex(1), X), product(simplex(2), X)
    eid = _by_key(_refs(M, prism_cells(X, Y))[1])
    marked = [eid[h.key()] for h in hom_maps(product(simplex(1, marked_top=True), X), Y)]
    assert len(marked) == len(M.complex.marked) and set(marked) == M.complex.marked
    id_X = _identity(X)
    faces = [_times(_simplex_map(1, 2, g), id_X, p1, p2) for g in ((1, 2), (0, 2), (0, 1))]
    t_homs = hom_maps(p2, Y)
    return len(t_homs), {tuple(eid[_compose(h, fm).key()] for fm in faces) for h in t_homs}


MULTI_VERTEX_FROB2 = next(A for A in enumerate_small(2, "frobenius")
                          if len(_nerve(A).vertices) > 1)
PRISM_ORACLE_PAIRS = CRITERION_6_PAIRS + FIBRATION_PEA_PAIRS + [
    (chain(2), cyclic_group_algebra(3)), (cyclic_group_algebra(3), cyclic_group_algebra(3)),
    (MULTI_VERTEX_FROB2, MULTI_VERTEX_FROB2), (chain(1), MULTI_VERTEX_FROB2),
    (MULTI_VERTEX_FROB2, chain(2)), (chain(1), wright_triangle())]


def prism_names(X, Y) -> tuple[list, list]:
    """The vertices and edges of [X, Y] by the literal route, in order: the
    face key of the i-th morphism out of simplex(0) x X with the name h{i},
    and of the i-th morphism out of simplex(1) x X with the name e{i}."""
    vertices, edges = prism_cells(X, Y)
    return ([(key, f"h{i}") for i, key in enumerate(vertices)],
            [(key, f"e{i}") for i, key in enumerate(edges)])


@pytest.mark.parametrize("pair", PRISM_ORACLE_PAIRS,
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_mapping_vertices_are_the_maps_out_of_the_0_prism(pair):
    """The vertices mapping_complex reads off its identity edges are exactly
    the morphisms out of the 0-prism, in their order and with their names,
    and its edges are the morphisms out of the 1-prism."""
    X, Y = (_nerve(algebra) for algebra in pair)
    M = mapping_complex(X, Y)
    vertices, edges = prism_names(X, Y)
    assert list(M.vertex_index.items()) == vertices
    assert list(M.edge_index.items()) == edges
    assert list(M.complex.vertices) == [v for _, v in vertices]
    assert list(M.complex.edges) == [e for _, e in edges]


@pytest.mark.parametrize("pair", PRISM_ORACLE_PAIRS,
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_mapping_triangles_are_the_maps_out_of_the_2_prism(pair):
    """The triangles mapping_complex reads off its edges are exactly the
    morphisms out of the 2-prism, one triangle per morphism."""
    X, Y = (_nerve(algebra) for algebra in pair)
    M = mapping_complex(X, Y)
    counted, triangles = prism_triangles(X, Y, M)
    assert M.complex.triangles == triangles
    assert len(M.complex.triangles) == counted


def test_mapping_complex_searches_no_2_prism(monkeypatch):
    """mapping_complex enumerates the morphisms out of simplex(1) x X and
    out of no other domain: not the 0-prism, not the 2-prism, not the
    marked 1-prism.  It builds no other product, and eval_fibration_check
    and verify_mapping_theorem build products only inside mapping_complex."""
    domains, inside, outside, depth = [], [], [], [0]
    real_product, real_complex = mapping.product, mapping.mapping_complex

    def hom_spy(X, Y):
        domains.append(X.signature())
        return hom_maps(X, Y)

    def product_spy(X, Y):
        (inside if depth[0] else outside).append((X.name, Y.name))
        return real_product(X, Y)

    def complex_spy(X, Y):
        depth[0] += 1
        try:
            return real_complex(X, Y)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mapping, "hom_maps", hom_spy)
    monkeypatch.setattr(mapping, "product", product_spy)
    monkeypatch.setattr(mapping, "mapping_complex", complex_spy)
    for pair in [(chain(1), chain(2)), (boolean(2), chain(3)),
                 (MULTI_VERTEX_FROB2, MULTI_VERTEX_FROB2)]:
        X, Y = (_nerve(algebra) for algebra in pair)
        domains.clear()
        inside.clear()
        M = mapping.mapping_complex(X, Y)
        assert M.complex.triangles and M.complex.marked
        assert domains == [product(simplex(1), X).signature()]
        assert inside == [(simplex(1).name, X.name)]
    for pair in [(chain(1), chain(2)), (boolean(2), chain(2))]:
        domains.clear()
        assert eval_fibration_check(*pair).passed and verify_mapping_theorem(*pair)
        # Three mapping complexes, one enumeration each, and no other.
        assert len(domains) == 3
        assert outside == []


@pytest.mark.parametrize("pair", CRITERION_6_PAIRS + FIBRATION_PEA_PAIRS,
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_eval_fibration_check_agrees_with_the_relative_oracle(pair):
    """Every check of eval_fibration_check, decided by check_lifting, is the
    CheckResult the hom-set grouping oracle gives: verdict, witness and the
    square and filler counts of its detail."""
    p = _evaluation_map(*pair)
    homs: dict = {}
    want = [_relative_lifting_check(shape, p, homs) for shape in FIBRATION_SHAPES]
    assert list(eval_fibration_check(*pair).checks) == want


@pytest.mark.parametrize("pair", [(chain(1), boolean(2)), (boolean(2), chain(3))],
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_relative_lift_witness_is_the_first_failing_square(pair):
    """On morphisms of nerves that are not fibrations, check_lifting gives
    the failing square first in key order as its first failure, as the
    sorted scan and the hom-set grouping oracle do."""
    total, base = (nerve(to_relfa(algebra)) for algebra in pair)
    failing = 0
    for p in hom_maps(total, base)[:4]:
        homs: dict = {}
        for shape in FIBRATION_SHAPES:
            report = check_lifting(shape, total, "unique", over=p)
            oracle = _relative_lifting_check(shape, p, homs)
            witness = None
            if report.failures:
                first = report.failures[0]
                u, w = (_complete(first[k], S, Y) for k, S, Y in
                        (("boundary", shape.domain, total), ("over", shape.codomain, base)))
                witness = (first["extensions"], _images(u), _images(w))
            assert witness == _oracle_relative_lift_witness(shape, p), shape.name
            assert (report.failures[0] if report.failures else None) == oracle.witness, \
                shape.name
            assert report.passed == oracle.passed == (witness is None)
            assert report.detail == oracle.detail
            failing += not report.passed
    assert failing


def _complete(described, S, Y):
    """The morphism S -> Y a failure describes: its vertex and non-identity
    edge images, with the identity edges they determine."""
    vmap = described["vertices"]
    emap = described["edges"] | {S.identity[v]: Y.identity[x] for v, x in vmap.items()}
    f = ComplexMorphism(S, Y, vmap, emap)
    f.check()
    return f


def _terminal():
    """The terminal complex: one vertex and its identity edge, marked."""
    return make_complex("pt", ("*",), ("id",), {"id": "*"}, {"id": "*"},
                        {"*": "id"}, (), ("id",))


@pytest.mark.parametrize("mode", ["exists", "unique"])
@pytest.mark.parametrize("algebra", [chain(2), boolean(2), zk_interval((2, 1)), chain(3)],
                         ids=lambda algebra: algebra.name)
def test_absolute_lifting_is_relative_lifting_over_the_terminal_complex(algebra, mode):
    """Over the terminal complex a square is a boundary morphism, and its
    lifts are its extensions: the relative report has the absolute verdict,
    boundary count and failing boundaries, on every named shape and a
    pushout-product square."""
    X, pt = nerve(to_relfa(algebra)), _terminal()
    to_pt = ComplexMorphism(X, pt, dict.fromkeys(X.vertices, "*"), dict.fromkeys(X.edges, "id"))
    to_pt.check()
    failing = 0
    for name in SHAPE_NAMES + ("box(horn-2-1,horn-1-0)",):
        shape = shape_from_name(name)
        absolute = check_lifting(shape, X, mode)
        relative = check_lifting(shape, X, mode, over=to_pt)
        assert (relative.passed, relative.boundaries) == \
            (absolute.passed, absolute.boundaries), name
        assert [(f["boundary"], f["extensions"]) for f in relative.failures] == \
            [(f["boundary"], f["extensions"]) for f in absolute.failures], name
        failing += not absolute.passed
    assert failing


def test_relative_lifting_rejects_a_map_out_of_another_complex():
    X, Y = (nerve(to_relfa(algebra)) for algebra in (chain(1), chain(2)))
    p = hom_maps(X, Y)[0]
    with pytest.raises(ValueError, match=r"horn-1-0: lifting over a map out of "
                                         r"nerve\(relfa\(chain\(1\)\)\), not out of"):
        check_lifting(FIBRATION_SHAPES[0], Y, "unique", over=p)
