"""Marked 2-truncated complexes: construction invariants, shapes, products,
and the lifting decision procedure."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import relfa
from relfa import complexes
from relfa.algebra import RelFA, to_relfa
from relfa.catalog import (
    boolean,
    chain,
    construct_catalog,
    cyclic_group_algebra,
    wright_triangle,
    zk_interval,
)
from relfa.complexes import (
    SHAPE_NAMES,
    ComplexMorphism,
    boundary,
    box_inclusion,
    braiding_shape,
    braiding_square,
    check_lifting,
    count_homs,
    hom_maps,
    hom_maps_iter,
    horn,
    make_complex,
    marked_horn,
    product,
    shape_from_name,
    simplex,
    subcomplex_on_faces,
    vertex_in_edge_shape,
    wedge_shape,
)
from relfa.enumerate_small import enumerate_small
from relfa.mapping import mapping_complex
from relfa.nerve import RECOGNITION_SHAPES, nerve, rotations


def complex_counts(C) -> dict[str, int]:
    """The number of cells of C at each level."""
    return {
        "vertices": len(C.vertices),
        "edges": len(C.edges),
        "triangles": len(C.triangles),
        "nondegenerate_triangles": len(C.nondegenerate_triangles()),
        "marked": len(C.marked),
    }


def test_simplex_counts_are_frozen():
    assert complex_counts(simplex(0)) == {
        "vertices": 1, "edges": 1, "triangles": 1,
        "nondegenerate_triangles": 0, "marked": 0}
    assert complex_counts(simplex(1)) == {
        "vertices": 2, "edges": 3, "triangles": 4,
        "nondegenerate_triangles": 0, "marked": 0}
    assert complex_counts(simplex(2)) == {
        "vertices": 3, "edges": 6, "triangles": 10,
        "nondegenerate_triangles": 1, "marked": 0}
    assert complex_counts(simplex(1, marked_top=True))["marked"] == 1


def test_make_complex_adds_degenerate_triangles():
    C = simplex(1)
    # Both degenerate fillers of the identity square on each vertex exist.
    for v in C.vertices:
        i = C.identity[v]
        assert (i, i, i) in C.triangles
    e = C.nonidentity_edges()[0]
    assert (e, e, C.identity[C.src[e]]) in C.triangles
    assert (C.identity[C.tgt[e]], e, e) in C.triangles


def test_make_complex_rejects_incompatible_triangles():
    with pytest.raises(ValueError):
        make_complex("bad", ("u", "v"), ("i", "j", "e"),
                     {"i": "u", "j": "v", "e": "u"},
                     {"i": "u", "j": "v", "e": "v"},
                     {"u": "i", "v": "j"},
                     [("e", "e", "e")], ())
    with pytest.raises(ValueError):
        make_complex("bad-mark", ("u",), ("i",), {"i": "u"}, {"i": "u"},
                     {"u": "i"}, (), ("ghost",))


def test_shape_constructors_are_literal_inclusions():
    h = horn(2, 1)
    assert h.name == "horn-2-1"
    assert set(h.domain.edges) <= set(h.codomain.edges)
    b = boundary(2)
    assert len(b.domain.nonidentity_edges()) == 3
    m = marked_horn(2, 0)
    assert m.codomain.marked
    with pytest.raises(ValueError):
        marked_horn(2, 1)
    w = wedge_shape()
    assert w.name == "wedge-02-1"


def test_every_named_shape_resolves():
    for name in SHAPE_NAMES:
        shape = shape_from_name(name)
        assert shape.name == name


def test_box_shape_names_resolve_recursively():
    shape = shape_from_name("box(horn-2-0,boundary-1)")
    direct = box_inclusion(horn(2, 0), boundary(1))
    assert shape.name == direct.name
    assert complex_counts(shape.codomain) == complex_counts(direct.codomain)
    nested = shape_from_name("box(box(horn-2-0,boundary-1),vertex-0-in-edge)")
    assert "box(" in nested.name
    # A name resolves only if it is in SHAPE_NAMES or a box of such names.
    for bad in ("pentagon-3", "horn-2-5", "horn-0-0", "vertex-7-in-edge",
                "braiding-up", "vertex-0-in-box", "boundary-4", "box(horn-2-1,horn-2-5)"):
        with pytest.raises(ValueError):
            shape_from_name(bad)
    for make, args in ((horn, (2, 5)), (horn, (0, 0)), (horn, (2, -1)),
                       (vertex_in_edge_shape, (7,))):
        with pytest.raises(ValueError):
            make(*args)


def test_product_counts():
    P = product(simplex(1), simplex(1))
    assert complex_counts(P) == {
        "vertices": 4, "edges": 9, "triangles": 16,
        "nondegenerate_triangles": 2, "marked": 0}


def test_hom_counting_matches_enumeration():
    assert count_homs(simplex(1), simplex(2)) == 6
    assert count_homs(simplex(2), simplex(2)) == 10
    assert len(hom_maps(simplex(1), simplex(2))) == 6


def test_braiding_square_shapes():
    B = braiding_square()
    assert len(B.vertices) == 2
    left, right = braiding_shape("left"), braiding_shape("right")
    assert left.name == "braiding-left"
    assert set(left.domain.edges) < set(B.edges)
    assert set(right.domain.edges) < set(B.edges)


def test_lifting_positive_and_negative_verdicts():
    # Inner horns fill exactly when every pair composes, so a group algebra
    # nerve satisfies them while a partial sum table does not.
    ok = check_lifting(horn(2, 1), nerve(cyclic_group_algebra(3)),
                       mode="exists")
    assert ok.passed
    assert ok.boundaries > 0
    partial = check_lifting(horn(2, 1), nerve(to_relfa(boolean(2))),
                            mode="exists")
    assert not partial.passed
    bad = check_lifting(boundary(2), nerve(to_relfa(chain(2))), mode="exists")
    assert not bad.passed
    assert bad.boundaries == 27
    assert bad.failures
    failure = bad.failures[0]
    assert set(failure) == {"boundary", "extensions"}
    assert failure["extensions"] == 0
    with pytest.raises(ValueError):
        check_lifting(horn(2, 1), nerve(to_relfa(chain(1))), mode="all")


def test_unique_mode_lifts():
    unique_marked = check_lifting(marked_horn(1, 0),
                                  nerve(to_relfa(chain(2))), mode="unique")
    assert unique_marked.passed
    # Group multiplication is single valued, so inner horn fillers are
    # unique as well as existent.
    unique_inner = check_lifting(horn(2, 1), nerve(cyclic_group_algebra(3)),
                                 mode="unique")
    assert unique_inner.passed


def test_lifting_report_serializes():
    N = nerve(to_relfa(chain(1)))
    report = check_lifting(horn(2, 1), N, mode="exists")
    doc = report.to_dict()
    assert doc["shape"] == "horn-2-1"
    assert doc["mode"] == "exists"
    assert doc["method"] in ("enumeration", "count-comparison")
    assert isinstance(doc["boundaries"], int)


def test_subcomplex_requires_closed_face_sets():
    C = simplex(2)
    faces = [frozenset({"0", "1"}), frozenset({"1", "2"})]
    D = subcomplex_on_faces(C, faces, "spine")
    assert set(D.vertices) == {"0", "1", "2"}
    assert len(D.nonidentity_edges()) == 2


def test_morphism_check_rejects_each_broken_condition():
    def identity_maps(X, Y):
        return ComplexMorphism(X, Y, {v: v for v in X.vertices}, {e: e for e in X.edges})

    Z2 = nerve(cyclic_group_algebra(2))
    (loop,) = Z2.nonidentity_edges()
    cases = [
        (ComplexMorphism(simplex(1), simplex(1), {"0": "0"},
                         {"00": "00", "01": "01", "11": "11"}),
         "'1' has no image"),
        (ComplexMorphism(simplex(1), simplex(1), {"0": "0", "1": "1"}, {"00": "00", "11": "11"}),
         "'01' has no image"),
        (ComplexMorphism(simplex(0), simplex(0), {"0": "9"}, {"00": "00"}),
         "vertex image '9' missing"),
        (ComplexMorphism(simplex(0), simplex(0), {"0": "0"}, {"00": "9"}),
         "edge '00' endpoints not preserved"),
        (ComplexMorphism(simplex(1), simplex(1), {"0": "0", "1": "1"},
                         {"00": "00", "01": "00", "11": "11"}),
         "edge '01' endpoints not preserved"),
        (ComplexMorphism(simplex(0), Z2, {"0": Z2.vertices[0]}, {"00": loop}),
         "identity of '0' not preserved"),
        (identity_maps(simplex(2), boundary(2).domain),
         "triangle ('12', '02', '01') maps to non-triangle ('12', '02', '01')"),
        (identity_maps(simplex(1, marked_top=True), simplex(1)),
         "marked edge '01' maps to unmarked edge"),
    ]
    for f, message in cases:
        with pytest.raises(ValueError) as exc:
            f.check()
        assert str(exc.value) == message
    identity_maps(simplex(2), simplex(2)).check()


# ---------------------------------------------------------------------------
# The forward-checked search against the plain backtracking search


def _oracle_hom_maps_iter(X, Y):
    """Plain backtracking in declared order: every vertex tuple, then X's
    non-identity edges in turn, each trying every edge of Y with the right
    endpoints and testing it against the triangles it closes."""
    by_endpoints = {}
    for e in Y.edges:
        by_endpoints.setdefault((Y.src[e], Y.tgt[e]), []).append(e)
    edge_order = X.nonidentity_edges()
    ids = set(X.identity.values())
    tri_by_last = {e: [] for e in edge_order}
    pos = {e: i for i, e in enumerate(edge_order)}
    for t in X.triangles:
        nonid = [x for x in t if x in pos]
        if nonid:
            tri_by_last[max(nonid, key=lambda x: pos[x])].append(t)

    def assign_edges(i, vmap, emap):
        if i == len(edge_order):
            yield ComplexMorphism(X, Y, dict(vmap), dict(emap))
            return
        e = edge_order[i]
        for val in by_endpoints.get((vmap[X.src[e]], vmap[X.tgt[e]]), []):
            if e in X.marked and val not in Y.marked:
                continue
            emap[e] = val
            if all((emap[t[0]], emap[t[1]], emap[t[2]]) in Y.triangles
                   for t in tri_by_last[e]):
                yield from assign_edges(i + 1, vmap, emap)
        emap.pop(e, None)

    def assign_vertices(j, vmap):
        if j == len(X.vertices):
            emap = {X.identity[v]: Y.identity[vmap[v]] for v in X.vertices}
            if all(emap[iv] in Y.marked for iv in ids if iv in X.marked):
                yield from assign_edges(0, vmap, emap)
            return
        v = X.vertices[j]
        for w in Y.vertices:
            vmap[v] = w
            yield from assign_vertices(j + 1, vmap)
        vmap.pop(v, None)

    yield from assign_vertices(0, {})


def _multivalued_target():
    """One vertex, three non-identity edges declared out of name order, a
    composition relation that is not single valued in any slot, and one
    marked edge."""
    edges = ("i", "z", "x", "y")
    triangles = [(a, b, c) for a in "xyz" for b in "xyz" for c in "xyz"
                 if (ord(a) + ord(b) + 2 * ord(c)) % 3]
    return make_complex("multivalued", ("v",), edges, dict.fromkeys(edges, "v"),
                        dict.fromkeys(edges, "v"), {"v": "i"}, triangles, ("x",))


SMALL_BOXES = ("box(boundary-0,boundary-2)", "box(boundary-1,boundary-1)",
               "box(vertex-0-in-edge,boundary-1)", "box(horn-1-0,horn-2-1)",
               "box(horn-2-1,horn-2-1)", "box(horn-2-0,wedge-02-1)")
ORACLE_TARGETS = (
    ("chain(2)", nerve(to_relfa(chain(2))), SHAPE_NAMES + SMALL_BOXES),
    ("group_algebra(Z/2)", nerve(cyclic_group_algebra(2)), SHAPE_NAMES + SMALL_BOXES),
    ("boolean(2)", nerve(to_relfa(boolean(2))), SHAPE_NAMES + SMALL_BOXES[:2]),
    ("multivalued", _multivalued_target(), SHAPE_NAMES + SMALL_BOXES[:2]),
    # Targets with more than one vertex, so that the search steps through
    # vertex images: 2 vertices and 3 non-loop edges, 1 of them marked and
    # no marked identity; 5 vertices, 1 marked identity and 3 marked
    # non-loop edges.
    ("product", product(simplex(1, marked_top=True), nerve(to_relfa(chain(2)))), SHAPE_NAMES),
    ("[chain(1),pea5_4]", mapping_complex(
        nerve(to_relfa(chain(1))),
        nerve(to_relfa(enumerate_small(5, "pseudo-effect-algebra")[4]))).complex, SHAPE_NAMES),
)


def _images(morphisms):
    return [(tuple(f.vertex_map.items()), tuple(f.edge_map.items()))
            for f in morphisms]


def test_multivalued_target_has_no_functional_face_table():
    index = complexes._TargetIndex(_multivalued_target())
    assert index.functional == (False, False, False)


@pytest.mark.parametrize("target", ORACLE_TARGETS, ids=lambda t: t[0])
def test_hom_maps_iter_yields_the_oracle_sequence(target):
    """The morphism search finds the morphisms out of every shape's domain
    and codomain in key order: the plain backtracking search's morphisms
    sorted by key, on targets with one vertex or several, and with marked
    identities."""
    _, Y, shape_names = target
    for name in shape_names:
        shape = shape_from_name(name)
        for X in (shape.domain, shape.codomain):
            got = _images(hom_maps_iter(X, Y))
            want = sorted(_oracle_hom_maps_iter(X, Y), key=ComplexMorphism.key)
            assert got == _images(want), (name, X.name)
            assert len(got) == count_homs(X, Y), (name, X.name)


@pytest.mark.parametrize("target", ORACLE_TARGETS, ids=lambda t: t[0])
def test_key_order_scan_yields_the_sorted_morphisms(target):
    """The declaration order of the target does not change the search: with
    its vertices and edges declared in reverse, the scan from the empty
    boundary and hom_maps both yield the plain backtracking search's
    morphisms sorted by key, the sequence found on the target as declared."""
    _, Y, shape_names = target
    reverse = make_complex(Y.name, Y.vertices[::-1], Y.edges[::-1], Y.src, Y.tgt,
                           Y.identity, Y.triangles, Y.marked)
    for name in shape_names:
        shape = shape_from_name(name)
        for X in (shape.domain, shape.codomain):
            want = [f.key() for f in hom_maps(X, Y)]
            oracle = sorted(_oracle_hom_maps_iter(X, reverse), key=ComplexMorphism.key)
            assert [f.key() for f in oracle] == want, (name, X.name)
            scan = complexes._extender(X, complexes._EMPTY, reverse._target_index)
            got = [ComplexMorphism(X, reverse, vm, em).key() for vm, em in scan({}, {})]
            assert got == want, (name, X.name)
            assert [f.key() for f in hom_maps(X, reverse)] == want, (name, X.name)


@pytest.mark.parametrize("target", ORACLE_TARGETS, ids=lambda t: t[0])
def test_extender_yields_the_codomain_morphisms_over_each_boundary(target):
    """Per boundary, the extensions the morphism search yields are exactly
    the codomain morphisms restricting to it, on every shape, determined or
    not, including shapes with vertices outside the domain."""
    _, Y, shape_names = target
    index = complexes._TargetIndex(Y)
    kinds = set()
    for name in shape_names:
        shape = shape_from_name(name)
        C, D = shape.codomain, shape.domain
        kinds.add((complexes._determined_missing_edges(shape, index),
                   len(C.vertices) > len(D.vertices)))
        grouped = {}
        for f in hom_maps_iter(C, Y):
            grouped.setdefault(ComplexMorphism(D, Y, f.vertex_map, f.edge_map).key(),
                               []).append(f.key())
        extensions = complexes._extender(C, D, index)
        for u in hom_maps(D, Y):
            got = [ComplexMorphism(C, Y, dict(vm), dict(em)).key()
                   for vm, em in extensions(u.vertex_map, u.edge_map)]
            assert sorted(got) == sorted(grouped.pop(u.key(), [])), (name, u.key())
        assert not grouped, name
    assert {(True, False), (False, False), (False, True)} <= kinds


# sha256 over the JSON of 996 lifting reports, one line each (keys sorted):
# every shape of SHAPE_NAMES against the nerves of the 17 catalog entries in
# name order, in exists then unique mode, then 13 pushout-product squares
# against 6 nerves in exists mode.  Computed when check_lifting still had a
# separate extension tester and grouped the codomain morphisms by
# restriction on problems that are not determined.
LIFTING_REPORTS_SHA256 = "63ab0b836290024549699c529c0377fe0d438c7544034a56e23d63c3bb0ac0a9"
REPORT_SQUARES = tuple(f"box(horn-2-{i},horn-2-{j})" for i in range(3) for j in range(3)) \
    + tuple(f"box(horn-2-{i},wedge-02-1)" for i in range(3)) + ("box(boundary-1,boundary-1)",)
REPORT_SQUARE_TARGETS = ("chain(1)", "boolean(1)", "chain(2)", "group_algebra(Z/2)",
                         "boolean(2)", "group_algebra(Z/3)")


def _report_problems():
    """The 996 lifting problems of the frozen reports, in digest order."""
    nerves = {name: nerve(obj if isinstance(obj, RelFA) else to_relfa(obj))
              for name, obj in construct_catalog().items()}
    problems = [(s, nerves[t], mode) for t in sorted(nerves) for s in SHAPE_NAMES
                for mode in ("exists", "unique")]
    problems += [(s, nerves[t], "exists") for t in REPORT_SQUARE_TARGETS
                 for s in REPORT_SQUARES]
    return problems


def test_lifting_reports_are_frozen():
    problems = _report_problems()
    digest = hashlib.sha256()
    for shape_name, X, mode in problems:
        report = check_lifting(shape_from_name(shape_name), X, mode)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n")
    assert len(problems) == 996
    assert digest.hexdigest() == LIFTING_REPORTS_SHA256


def _enumerated_report(shape, X, mode):
    """The enumeration-form report of a lifting problem, built by counting
    every extension of every boundary morphism."""
    extensions = complexes._extender(shape.codomain, shape.domain,
                                     complexes._TargetIndex(X))
    boundaries = hom_maps(shape.domain, X)
    failures = []
    for u in boundaries:
        n = sum(1 for _ in extensions(u.vertex_map, u.edge_map))
        if (n == 0) if mode == "exists" else (n != 1):
            failures.append({
                "boundary": {"vertices": {v: u.vertex_map[v] for v in u.domain.vertices},
                             "edges": {e: u.edge_map[e]
                                       for e in u.domain.nonidentity_edges()}},
                "extensions": n})
    return complexes.LiftingReport(shape.name, mode, "enumeration", not failures,
                                   len(boundaries), tuple(failures[:3]))


def test_enumeration_reports_match_full_enumeration(monkeypatch):
    """Every problem of the frozen report set that check_lifting answers in
    enumeration form, determined or not, passing ones (decided by the
    counts) included, gets the report that enumerating every boundary
    gives.  check_lifting scans the boundaries lazily: it never calls
    hom_maps."""
    def no_hom_maps(X, Y):
        raise AssertionError("check_lifting called hom_maps")

    monkeypatch.setattr(complexes, "hom_maps", no_hom_maps)
    kinds = set()
    for shape_name, X, mode in _report_problems():
        shape = shape_from_name(shape_name)
        report = check_lifting(shape, X, mode)
        if report.method == "enumeration":
            assert report.to_dict() == _enumerated_report(shape, X, mode).to_dict(), \
                (shape_name, X.name, mode)
            kinds.add((complexes._determined_missing_edges(shape, X._target_index),
                       report.passed))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_count_homs_matches_enumeration_between_small_complexes():
    """Domains that are not shapes: the nerve of Z/2, whose identity edge is
    marked (its unit is a counit), so it maps only to vertices with a
    marked identity; and complexes whose triangles repeat a non-identity
    edge, such as one loop x with the triangle (x, x, x)."""
    Z2 = nerve(cyclic_group_algebra(2))
    assert Z2.identity[Z2.vertices[0]] in Z2.marked
    loop = make_complex("idempotent", ("v",), ("i", "x"), {"i": "v", "x": "v"},
                        {"i": "v", "x": "v"}, {"v": "i"}, [("x", "x", "x")], ())
    small = (Z2, loop, _multivalued_target(), nerve(to_relfa(chain(1))),
             nerve(to_relfa(chain(2))), nerve(cyclic_group_algebra(3)))
    for X in small:
        for Y in small:
            assert count_homs(X, Y) == len(hom_maps(X, Y)), (X.name, Y.name)
    assert count_homs(Z2, nerve(to_relfa(chain(1)))) == 0
    assert count_homs(loop, _multivalued_target()) == 3


def test_count_plan_is_shared_by_equal_signatures():
    """The count plan depends on the structure of the domain, not on its
    name."""
    X = shape_from_name("box(horn-2-1,horn-1-0)").codomain
    twin = make_complex("twin", X.vertices, X.edges, X.src, X.tgt, X.identity,
                        X.triangles, X.marked)
    assert twin.name != X.name and twin.signature() == X.signature()
    assert complexes._count_plan(twin.signature()) is complexes._count_plan(X.signature())
    for Y in (nerve(to_relfa(chain(2))), nerve(cyclic_group_algebra(3))):
        assert count_homs(twin, Y) == count_homs(X, Y) == len(hom_maps(X, Y))


# The domains whose count plans are frozen: every named shape's domain and
# codomain, the pushout-product squares of the lift-pushout benchmark
# workload, and the prisms simplex(n) x N out of which mapping complexes are
# built, for n <= 2.
PLAN_SQUARES = REPORT_SQUARES[:-1] + (
    "box(vertex-0-in-edge,boundary-2)", "box(boundary-0,boundary-2)",
    "box(boundary-1,boundary-1)", "box(boundary-2,boundary-0)",
    "box(boundary-1,boundary-2)", "box(boundary-2,boundary-1)")
PRISM_SOURCES = (chain(1), chain(2), chain(3), boolean(2), zk_interval((2, 1)))
# sha256 of the plan structure of those 67 signatures, computed before each
# variable's neighbours were kept from step to step: the plans for any target,
# with a variable per vertex.
COUNT_PLANS_SHA256 = "1bbe5b2ab9d5b4ca3e36b2663a4273e798a64043fdf54fa63307ed63c55e4035"
# The same for the plans into a target with one vertex, which have edge
# variables alone, computed when those plans were introduced.
ONE_VERTEX_PLANS_SHA256 = "9a6f588319b0daba0c127f0230eac709a5cbb26f66d9a88449db0d8ff3937f6a"


def _prisms(sources, top=2):
    return [product(simplex(n), nerve(to_relfa(E))) for E in sources for n in range(top + 1)]


def _plan_domains():
    shapes = [shape_from_name(name) for name in SHAPE_NAMES + PLAN_SQUARES]
    return [X for s in shapes for X in (s.domain, s.codomain)] + _prisms(PRISM_SOURCES)


def _plan_structure(plan):
    """A compiled count plan as plain data: per step its first factor, the
    factor of each join and the index tuples of every picker, with the
    input kinds and the holders of each variable."""
    def indices(picker):
        return None if picker is None else picker.__reduce__()[1]

    kinds, inputs, steps, holders = plan
    return (kinds, inputs, tuple(
        (first, tuple((fid, *map(indices, pickers)) for fid, *pickers in joins),
         indices(keep))
        for first, joins, keep in steps), tuple(holders.items()))


def _plans_digest(one_vertex):
    structures = [_plan_structure(complexes._count_plan(signature, one_vertex))
                  for signature in dict.fromkeys(X.signature() for X in _plan_domains())]
    assert len(structures) == 67
    return hashlib.sha256(repr(structures).encode()).hexdigest()


def test_count_plans_are_frozen():
    """The compiled count plans stay what they were."""
    assert _plans_digest(False) == COUNT_PLANS_SHA256


def test_one_vertex_count_plans_are_frozen():
    """The count plans into a target with one vertex stay what they were,
    and have edge variables alone."""
    assert _plans_digest(True) == ONE_VERTEX_PLANS_SHA256
    for X in _plan_domains():
        holders = complexes._count_plan(X.signature(), True)[3]
        assert list(holders) == [("E", e) for e in X.nonidentity_edges()], X.name


def test_plans_decode_signatures_in_one_place(monkeypatch):
    """The count plan and the extension plan read their domains back from
    signatures through one decoder, which gives back the complex's
    signature, non-identity edges and non-degenerate triangles on every
    frozen plan domain."""
    for X in _plan_domains():
        Z = complexes._from_signature(X.signature())
        assert Z.signature() == X.signature(), X.name
        assert Z.nonidentity_edges() == X.nonidentity_edges(), X.name
        assert Z.nondegenerate_triangles() == X.nondegenerate_triangles(), X.name
    decoded = []
    decode = complexes._from_signature

    def spy(signature):
        decoded.append(signature)
        return decode(signature)

    monkeypatch.setattr(complexes, "_from_signature", spy)
    _clear_plan_caches()
    shape = shape_from_name("horn-2-1")
    C, D = shape.codomain.signature(), shape.domain.signature()
    complexes._count_plan(C)
    complexes._extension_plan(C, D)
    assert decoded == [C, C, D]


def test_search_plans_name_no_degenerate_triangle():
    """No lookup, check or look-ahead of a search plan rests on a degenerate
    triangle, in the plans of hom_maps_iter and of every shape's extension
    search."""
    shapes = [shape_from_name(name) for name in SHAPE_NAMES + PLAN_SQUARES]
    plans = [(X, complexes._search_plan(X, list(X.nonidentity_edges())))
             for X in _plan_domains()]
    plans += [(s.codomain, complexes._extension_plan(s.codomain.signature(),
                                                     s.domain.signature())[0])
              for s in shapes]

    def filled(slot, a, b, e):
        return (a, b)[:slot] + (e,) + (a, b)[slot:]

    for X, plan in plans:
        later = set()
        for e, _, _, _, lookup, checks, ahead in reversed(plan):
            named = list(checks) + ([] if lookup is None else [filled(*lookup, e)])
            for slot, a, b, _ in ahead:
                # The open face is a later edge of the plan, filling one slot.
                opened = [t for t in (filled(slot, a, b, z) for z in later)
                          if t in X.triangles and t.count(t[slot]) == 1]
                assert opened, (X.name, e)
                named += opened
            assert all(t in X.triangles and not X.is_degenerate_triangle(t)
                       for t in named), (X.name, e)
            later.add(e)


def test_prism_morphisms_pass_the_full_check():
    """The morphisms the search finds out of the prisms of mapping
    complexes satisfy every condition of ComplexMorphism.check, which still
    tests each degenerate triangle.  The 2-prisms of boolean(2) and
    zk_interval(2,1) are left out: their 36200 morphisms take 9 s."""
    for X in _prisms(PRISM_SOURCES[:3]) + _prisms(PRISM_SOURCES[3:], top=1):
        for _, Y, _ in ORACLE_TARGETS:
            n = 0
            for f in hom_maps_iter(X, Y):
                f.check()
                n += 1
            assert n == count_homs(X, Y), (X.name, Y.name)


def test_counts_are_kept_per_target_object(monkeypatch):
    """count_homs runs a plan once per domain structure and target object:
    a repeat, or an equal but distinct domain, runs none, and an equal but
    distinct target counts anew.  The pinned counts of the witness search
    run their plans every time."""
    runs = []
    run = complexes._run_count_plan

    def spy(plan, tables, pins):
        runs.append(dict(pins))
        return run(plan, tables, pins)

    monkeypatch.setattr(complexes, "_run_count_plan", spy)
    N = nerve(to_relfa(chain(2)))
    C = shape_from_name("box(horn-2-1,horn-2-1)").codomain
    n = count_homs(C, N)
    assert runs == [{}]
    assert count_homs(C, N) == n and runs == [{}]
    squares = (product(simplex(2), simplex(2)), product(simplex(2), simplex(2)))
    assert squares[0] is not squares[1] and squares[0].signature() == C.signature()
    assert [count_homs(X, N) for X in squares] == [n, n] and runs == [{}]
    again = nerve(to_relfa(chain(2)))
    assert again is not N and again.signature() == N.signature()
    assert count_homs(C, again) == n and runs == [{}, {}]

    monkeypatch.setattr(complexes, "_ENUMERATION_LIMIT", 0)
    monkeypatch.setattr(complexes, "_SCAN_BELOW", 0)
    shape = shape_from_name("boundary-2")
    first = check_lifting(shape, N, "exists")
    runs.clear()
    report = check_lifting(shape, N, "exists")
    assert report.method == "count-comparison" and report == first
    assert runs and all(runs)


def test_count_plans_follow_the_number_of_target_vertices(monkeypatch):
    """count_homs and the witness search run plans with no vertex variable
    into a nerve with one vertex, and into a target with two vertices the
    plans for any target, with a variable per vertex."""
    plans = []
    run = complexes._run_count_plan

    def spy(plan, tables, pins):
        plans.append(plan)
        return run(plan, tables, pins)

    monkeypatch.setattr(complexes, "_run_count_plan", spy)
    frob2 = next(A for A in enumerate_small(2, "frobenius") if len(nerve(A).vertices) > 1)
    domains = [shape_from_name(name).codomain
               for name in ("horn-2-1", "ehorn-2-0", "box(horn-2-1,horn-1-0)")]
    domains.append(nerve(cyclic_group_algebra(2)))
    for Y in (nerve(cyclic_group_algebra(3)), nerve(frob2)):
        one_vertex = len(Y.vertices) == 1
        plans.clear()
        for X in domains:
            count_homs(X, Y)
        assert len(plans) == len(domains), Y.name
        for X, plan in zip(domains, plans):
            has_vertices = [("V", v) in plan[3] for v in X.vertices]
            assert has_vertices == [not one_vertex] * len(X.vertices), (X.name, Y.name)
            assert _plan_structure(plan) == \
                _plan_structure(complexes._count_plan(X.signature(), one_vertex))
        assert len(Y.vertices) == (1 if one_vertex else 2)

    monkeypatch.setattr(complexes, "_ENUMERATION_LIMIT", 0)
    monkeypatch.setattr(complexes, "_SCAN_BELOW", 0)
    plans.clear()
    report = check_lifting(shape_from_name("boundary-2"), nerve(to_relfa(chain(2))), "exists")
    assert report.method == "count-comparison" and report.failures
    assert len(plans) > 2
    assert not any(var[0] == "V" for plan in plans for var in plan[3])


def test_counting_into_a_one_vertex_nerve_joins_no_vertex_bucket(monkeypatch):
    """Deterministic work: counting the 5^8 morphisms out of
    simplex(2) x simplex(2) into N(Z/5) joins no table above 5^5 entries.
    With a variable per vertex, eliminating a vertex joined its six edges
    into one table of 5^6 entries."""
    sizes = []
    join = complexes._join

    def spy(*args):
        out = join(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(complexes, "_join", spy)
    X = shape_from_name("box(horn-2-0,horn-2-0)").codomain
    assert count_homs(X, nerve(cyclic_group_algebra(5))) == 5 ** 8
    assert sizes and max(sizes) <= 5 ** 5


def _image(f, var):
    kind, name = var
    return (f.vertex_map if kind == "V" else f.edge_map)[name]


def _pinned_count(X, Y, pins, one_vertex=None):
    """The count of X -> Y under ``pins`` by the plan count_homs runs, or by
    the plan for a target with one vertex or not as ``one_vertex`` says."""
    if one_vertex is None:
        one_vertex = Y._target_index.one_vertex
    plan = complexes._count_plan(X.signature(), one_vertex)
    tables = [complexes._input_table(kind, Y) for kind in plan[0]]
    return complexes._run_count_plan(plan, tables, pins)


def _pin_sets(X, Y, rng, homs, pinned_marked):
    """0 to 3 random variables pinned to the images of a random morphism of
    ``homs`` and to random cells of Y, and each marked variable (a marked
    edge, or a vertex with a marked identity) alone at every cell of Y."""
    variables = [("V", v) for v in X.vertices] + [("E", e) for e in X.nonidentity_edges()]
    cells = {"V": Y.vertices, "E": Y.edges}
    pin_sets = []
    for size in range(min(3, len(variables)) + 1):
        chosen = rng.sample(variables, size)
        if homs:
            f = rng.choice(homs)
            pin_sets.append({var: _image(f, var) for var in chosen})
        pin_sets.append({var: rng.choice(cells[var[0]]) for var in chosen})
    for var in variables:
        kind, name = var
        if (X.identity[name] if kind == "V" else name) in X.marked:
            pin_sets += [{var: cell} for cell in cells[kind]]
            pinned_marked.add(kind)
    return pin_sets


def _check_pinned_counts(X, Y, rng, pinned_marked):
    """Pinned counts of X -> Y, by the plan count_homs runs, against the
    morphisms that agree with the pins (``_pin_sets``)."""
    homs = hom_maps(X, Y)
    for pins in _pin_sets(X, Y, rng, homs, pinned_marked):
        expected = sum(all(_image(f, var) == image for var, image in pins.items())
                       for f in homs)
        assert _pinned_count(X, Y, pins) == expected, (X.name, Y.name, pins)


@pytest.mark.parametrize("target", ORACLE_TARGETS, ids=lambda t: t[0])
def test_pinned_counts_match_enumeration_on_shapes(target):
    _, Y, shape_names = target
    rng = random.Random(Y.name)
    pinned_marked = set()
    for name in shape_names:
        shape = shape_from_name(name)
        for X in (shape.domain, shape.codomain):
            _check_pinned_counts(X, Y, rng, pinned_marked)
    assert pinned_marked == {"E"}


def test_pinned_counts_match_enumeration_between_small_complexes():
    """The domains of test_count_homs_matches_enumeration_between_small_complexes,
    among them nerve(Z/2), whose vertex has a marked identity."""
    Z2 = nerve(cyclic_group_algebra(2))
    loop = make_complex("idempotent", ("v",), ("i", "x"), {"i": "v", "x": "v"},
                        {"i": "v", "x": "v"}, {"v": "i"}, [("x", "x", "x")], ())
    small = (Z2, loop, _multivalued_target(), nerve(to_relfa(chain(1))),
             nerve(to_relfa(chain(2))), nerve(cyclic_group_algebra(3)))
    rng = random.Random(0)
    pinned_marked = set()
    for X in small:
        for Y in small:
            _check_pinned_counts(X, Y, rng, pinned_marked)
    assert pinned_marked == {"V", "E"}


def test_one_vertex_plans_count_as_the_vertex_variable_plans():
    """Into a target with one vertex, the plan without vertex variables
    gives the count of the plan with them, which holds on any target:
    unpinned and under the pins of ``_pin_sets``, whose vertex pins the
    plan skips.  The domains are those of the frozen plans and nerve(Z/2),
    whose vertex has a marked identity, so that it maps nowhere into a nerve
    whose identity is unmarked; the targets are the one-vertex oracle
    targets and the catalog nerves.  Of those pairs, the ones with at most
    10^10 edge assignments are checked: every domain meets a target, and
    the larger squares and prisms take up to minutes with vertex
    variables."""
    Z2 = nerve(cyclic_group_algebra(2))
    assert count_homs(Z2, nerve(to_relfa(chain(2)))) == 0
    domains = list({X.signature(): X for X in _plan_domains() + [Z2]}.values())
    targets = {Y.signature(): Y for _, Y, _ in ORACLE_TARGETS if len(Y.vertices) == 1}
    targets |= {Y.signature(): Y for Y in map(_catalog_nerve, sorted(construct_catalog()))}
    rng = random.Random(0)
    pinned_marked = set()
    for Y in targets.values():
        assert Y._target_index.one_vertex, Y.name
        for X in domains:
            if len(Y.edges) ** len(X.nonidentity_edges()) > 10 ** 10:
                continue
            homs = list(itertools.islice(hom_maps_iter(X, Y), 50))
            for pins in [{}] + _pin_sets(X, Y, rng, homs, pinned_marked):
                assert _pinned_count(X, Y, pins, True) == _pinned_count(X, Y, pins, False), \
                    (X.name, Y.name, pins)
    assert pinned_marked == {"V", "E"}


def _first_unfillable(shape, X):
    """The first boundary morphism of hom_maps(D, X) that no morphism out of
    the codomain restricts to."""
    C, D = shape.codomain, shape.domain
    restrictions = {ComplexMorphism(D, X, f.vertex_map, f.edge_map).key()
                    for f in hom_maps_iter(C, X)}
    u = next(u for u in hom_maps(D, X) if u.key() not in restrictions)
    return {"boundary": {"vertices": {v: u.vertex_map[v] for v in D.vertices},
                         "edges": {e: u.edge_map[e] for e in D.nonidentity_edges()}},
            "extensions": 0}


@pytest.mark.parametrize("scan_below", (0, 3))
def test_count_guided_witness_is_the_first_unfillable_boundary(monkeypatch, scan_below):
    """Every failing determined problem of the frozen report set, and the
    shapes that fail on two targets with several vertices, decided by the
    counts and given the witness a plain scan finds: the first failure the
    enumeration form of the same problem lists."""
    monkeypatch.setattr(complexes, "_ENUMERATION_LIMIT", 0)
    monkeypatch.setattr(complexes, "_SCAN_BELOW", scan_below)
    several = (simplex(3),
               mapping_complex(nerve(to_relfa(chain(1))), nerve(to_relfa(chain(2)))).complex)
    problems = _report_problems() + [(name, X, "exists") for X in several
                                     for name in SHAPE_NAMES + SMALL_BOXES]
    witnesses = {}
    for shape_name, X, mode in problems:
        shape = shape_from_name(shape_name)
        if not complexes._determined_missing_edges(shape, complexes._TargetIndex(X)):
            continue
        report = check_lifting(shape, X, mode)
        if not report.passed:
            assert report.method == "count-comparison"
            key = (shape_name, X.name)
            if key not in witnesses:
                witnesses[key] = _first_unfillable(shape, X)
            assert report.failures == (witnesses[key],), (key, mode)
            with monkeypatch.context() as patch:
                patch.setattr(complexes, "_ENUMERATION_LIMIT", float("inf"))
                enumerated = check_lifting(shape, X, mode)
            assert enumerated.method == "enumeration", (key, mode)
            assert enumerated.failures[0] == report.failures[0], (key, mode)
    assert len(witnesses) > 80
    assert {X.name for X in several} <= {name for _, name in witnesses}


# sha256 of `fa --json lift "box(horn-2-1,horn-2-1)" <file>` run in the
# directory holding the file; the certificate's rerun command quotes the
# shape for the shell.  The Wright triangle's report is in count-comparison
# form, so its witness is the first unfillable boundary in key order, the
# first failure of the enumeration form; chain(4)'s is in enumeration form.
FROZEN_LIFT_REPORTS = {
    "wright-triangle.json": (wright_triangle,
                             "b10d1eae9229b4231a81bfd5cf79a470ad3a2c7aa3a1278d26fd59267f995928"),
    "chain4.json": (lambda: chain(4),
                    "249b29e389682becaa03a7eae2d8046056361bccf1cd4f87cd69d3d090b286ac"),
}


@pytest.mark.parametrize("filename", sorted(FROZEN_LIFT_REPORTS))
def test_lift_json_report_bytes_are_frozen(filename, write_structure, tmp_path):
    build, digest = FROZEN_LIFT_REPORTS[filename]
    write_structure(build(), filename)
    env = dict(os.environ, PYTHONPATH=str(Path(relfa.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relfa.cli", "--json", "lift",
         "box(horn-2-1,horn-2-1)", filename],
        capture_output=True, cwd=tmp_path, env=env, check=False)
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def _catalog_nerve(name):
    obj = construct_catalog()[name]
    return nerve(obj if isinstance(obj, RelFA) else to_relfa(obj))


def _clear_plan_caches():
    complexes._extension_plan.cache_clear()
    complexes._count_plan.cache_clear()


CACHE_TARGETS = ("chain(2)", "boolean(2)", "group_algebra(Z/3)", "zk_interval(2,1)",
                 "wright-triangle")


def test_lifting_reports_do_not_depend_on_the_caches():
    """Each recognition shape and a pushout-product square gets the same
    report on a first call with cold plan caches, on a repeat, and on a
    freshly rebuilt equal target with its own index."""
    problems = [(name, mode) for name, mode in RECOGNITION_SHAPES] + \
        [("box(horn-2-1,horn-1-0)", "exists")]
    _clear_plan_caches()
    for target in CACHE_TARGETS:
        X = _catalog_nerve(target)
        for name, mode in problems:
            first = check_lifting(shape_from_name(name), X, mode).to_dict()
            again = check_lifting(shape_from_name(name), X, mode).to_dict()
            rebuilt = _catalog_nerve(target)
            assert rebuilt is not X and rebuilt.signature() == X.signature()
            fresh = check_lifting(shape_from_name(name), rebuilt, mode).to_dict()
            assert first == again == fresh, (target, name, mode)


def test_hom_maps_iter_is_the_same_after_the_plan_cache_is_cleared():
    Y = _catalog_nerve("chain(2)")
    for name in ("ehorn-3-0", "assoc-02", "box(horn-2-1,horn-1-0)"):
        shape = shape_from_name(name)
        for X in (shape.domain, shape.codomain):
            before = _images(hom_maps_iter(X, Y))
            _clear_plan_caches()
            assert _images(hom_maps_iter(X, Y)) == before, (name, X.name)


def test_plans_and_indexes_are_keyed_by_structure_not_by_name():
    """Domains, shapes and targets that share a name but differ in
    triangles or marking each get their own plan, index and verdict, in
    either order."""
    hollow = boundary(2).domain
    flat = make_complex("delta2", hollow.vertices, hollow.edges, hollow.src, hollow.tgt,
                        hollow.identity, hollow.triangles, hollow.marked)
    unmarked = dataclasses.replace(simplex(1), name="sigma1")
    twins = ((simplex(2), flat), (simplex(1, marked_top=True), unmarked))
    Y = _catalog_nerve("chain(2)")
    for real, twin in twins:
        assert real.name == twin.name and real.signature() != twin.signature()
        assert count_homs(real, Y) != count_homs(twin, Y)
        for X in (real, twin, real):
            _clear_plan_caches()
            assert len(list(hom_maps_iter(X, Y))) == count_homs(X, Y), X.signature()
    shapes = ((boundary(2), complexes.ShapeInclusion("boundary-2", hollow, flat)),
              (shape_from_name("mark-edge"),
               complexes.ShapeInclusion("mark-edge", simplex(1), unmarked)))
    for real, twin in shapes:
        for shape in (real, twin, real):
            _clear_plan_caches()
            for mode in ("exists", "unique"):
                assert check_lifting(shape, Y, mode).passed is (shape is twin)
    bare = make_complex(Y.name, Y.vertices, Y.edges, Y.src, Y.tgt, Y.identity,
                        Y.triangles, ())
    for X in (Y, bare, Y):
        assert check_lifting(shape_from_name("ehorn-1-0"), X, "unique").passed is (X is Y)


def test_named_shapes_are_built_once():
    for name in SHAPE_NAMES + ("box(horn-2-1,horn-1-0)",):
        assert shape_from_name(name) is shape_from_name(name)
    assert simplex(2) is simplex(2)


def test_no_reference_cycle_keeps_a_target_alive():
    """A nerve that cached its index through lifting, the morphism search
    and its rotations is freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        N = nerve(to_relfa(chain(2)))
        for name, mode in RECOGNITION_SHAPES:
            check_lifting(shape_from_name(name), N, mode)
        assert hom_maps(shape_from_name("assoc-02").codomain, N)
        rotations(N)
        assert "_target_index" in vars(N)
        ref = weakref.ref(N)
        del N
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
