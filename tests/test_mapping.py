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
    assert set(M.vertex_refs) == set(M.complex.vertices)
    assert set(M.edge_refs) == set(M.complex.edges)


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


def test_compose_needs_the_codomain_as_object_or_equal_structure():
    vertex = ComplexMorphism(simplex(0), simplex(1), {"0": "0"}, {"00": "00"})
    assert _compose(mapping._identity(simplex(1)), vertex).key() == vertex.key()
    marked = dataclasses.replace(simplex(1, marked_top=True), name=simplex(1).name)
    with pytest.raises(ValueError, match="composition mismatch"):
        _compose(mapping._identity(marked), vertex)


@pytest.mark.parametrize("pair", [(chain(1), chain(2)), (chain(2), boolean(2)),
                                  (boolean(2), chain(1))],
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_composite_key_is_the_key_of_the_composite(pair):
    """The face keys mapping_complex and restriction_map read without a
    composite are the keys of the composites, for every morphism out of the
    prisms and every prism face, collapse and restriction map."""
    E, F = pair
    X, Y = nerve(to_relfa(E)), nerve(to_relfa(F))
    p0, p1, p2 = (product(simplex(n), X) for n in range(3))
    id_X = mapping._identity(X)
    faces = [(p1, mapping._times(mapping._simplex_map(0, 1, (i,)), id_X, p0, p1))
             for i in (0, 1)]
    faces.append((p0, mapping._times(mapping._simplex_map(1, 0, (0, 0)), id_X, p1, p0)))
    faces += [(p2, mapping._times(mapping._simplex_map(1, 2, g), id_X, p1, p2))
              for g in ((1, 2), (0, 2), (0, 1))]
    one = chain(1)
    N1 = nerve(to_relfa(one))
    incl = mapping.unit_inclusion_map(one, E, N1, X)
    faces += [(P, mapping._times(mapping._identity(S), incl, product(S, N1), P))
              for S, P in ((simplex(0), p0), (simplex(1), p1))]
    for P, phi in faces:
        homs = hom_maps(P, Y)
        assert homs, P.name
        for h in homs:
            assert mapping._composite_key(h, phi) == _compose(h, phi).key()


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
    three 1-prism faces restrict to.  Returns the number of morphisms and
    the set of named triangles."""
    p1, p2 = product(simplex(1), X), product(simplex(2), X)
    id_X = mapping._identity(X)
    faces = [mapping._times(mapping._simplex_map(1, 2, g), id_X, p1, p2)
             for g in ((1, 2), (0, 2), (0, 1))]
    t_homs = hom_maps(p2, Y)
    return len(t_homs), {tuple(M.edge_index[mapping._composite_key(h, fm)] for fm in faces)
                         for h in t_homs}


MULTI_VERTEX_FROB2 = next(A for A in enumerate_small(2, "frobenius")
                          if len(_nerve(A).vertices) > 1)
PRISM_ORACLE_PAIRS = CRITERION_6_PAIRS + FIBRATION_PEA_PAIRS + [
    (chain(2), cyclic_group_algebra(3)), (cyclic_group_algebra(3), cyclic_group_algebra(3)),
    (MULTI_VERTEX_FROB2, MULTI_VERTEX_FROB2), (chain(1), MULTI_VERTEX_FROB2),
    (MULTI_VERTEX_FROB2, chain(2)), (chain(1), wright_triangle())]


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
    """mapping_complex never enumerates the morphisms out of a 2-prism."""
    domains = []

    def spy(X, Y):
        domains.append(X.signature())
        return hom_maps(X, Y)

    monkeypatch.setattr(mapping, "hom_maps", spy)
    for pair in [(chain(1), chain(2)), (boolean(2), chain(3)),
                 (MULTI_VERTEX_FROB2, MULTI_VERTEX_FROB2)]:
        X, Y = (_nerve(algebra) for algebra in pair)
        domains.clear()
        M = mapping_complex(X, Y)
        assert M.complex.triangles
        assert product(simplex(1), X).signature() in domains
        assert product(simplex(2), X).signature() not in domains


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
