"""Property tests: invariants that must hold for every input of a family,
not only for frozen examples."""

from __future__ import annotations

import functools
import json
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from relfa import complexes
from relfa.algebra import (
    PseudoEffectAlgebraTable,
    SumTable,
    derived_order,
    relabel_relfa,
    relabel_table,
    to_relfa,
    validate,
)
from relfa.catalog import boolean, chain, construct_catalog, cyclic_group_algebra, wright_triangle
from relfa.complexes import (
    SHAPE_NAMES,
    check_lifting,
    count_homs,
    hom_maps,
    make_complex,
    shape_from_name,
    simplex,
)
from relfa.enumerate_small import enumerate_small
from relfa.homology import full_chain_h1, h1_of_complex, universal_group_presentation
from relfa.mapping import eval_fibration_check, mapping_complex
from relfa.nerve import nerve, recognize_nerve
from relfa.structio import (
    KINDS,
    StructureError,
    parse_structure,
    serialize_structure,
    structure_to_doc,
)
from test_algebra import catalog_algebras, oracle_derived_order, oracle_frobenius
from test_complexes import _enumerated_report, replace
from test_mapping import EVAL_REPORT_PAIRS, _nerve, prism_names, prism_triangles
from test_nerve import _level3_route

PROPERTY_ALGEBRAS = {
    "chain(2)": to_relfa(chain(2)), "chain(3)": to_relfa(chain(3)),
    "boolean(2)": to_relfa(boolean(2)), "group_algebra(Z/3)": cyclic_group_algebra(3),
}
PROPERTY_SHAPES = ("horn-2-1", "ehorn-2-0", "boundary-2", "assoc-02",
                   "mark-edge", "box(boundary-1,boundary-1)")


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_ALGEBRAS)),
       shape_name=st.sampled_from(PROPERTY_SHAPES),
       mode=st.sampled_from(("exists", "unique")),
       seed=st.integers(0, 2**32 - 1))
def test_counts_and_verdicts_survive_relabeling(name, shape_name, mode, seed):
    """Fresh element names and a shuffled declaration order change neither
    the morphism counts nor the lifting verdict, route and boundary count."""
    rng = random.Random(seed)
    A = PROPERTY_ALGEBRAS[name]
    fresh = rng.sample(range(100), len(A.elements))
    B = relabel_relfa(A, {a: f"r{k}" for a, k in zip(A.elements, fresh)})
    shuffled = list(B.elements)
    rng.shuffle(shuffled)
    B = replace(B, elements=tuple(shuffled))
    N, M = nerve(A), nerve(B)
    shape = shape_from_name(shape_name)
    for X in (shape.domain, shape.codomain):
        assert count_homs(X, M) == len(hom_maps(X, M)) == count_homs(X, N)
    before, after = check_lifting(shape, N, mode), check_lifting(shape, M, mode)
    assert (after.passed, after.method, after.boundaries) == \
        (before.passed, before.method, before.boundaries)


CATALOG_ALGEBRAS = catalog_algebras()


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(CATALOG_ALGEBRAS) - 1),
       field=st.sampled_from(("mu", "delta")),
       triple=st.tuples(*[st.integers(0, 13)] * 3))
def test_frobenius_report_matches_oracle_after_one_triple_flip(index, field, triple):
    """Adding or removing one triple of mu or delta keeps the joined
    validator's verdict and witness equal to the literal scan's."""
    A = CATALOG_ALGEBRAS[index]
    t = tuple(A.elements[k % len(A.elements)] for k in triple)
    relation = getattr(A, field)
    B = replace(A, **{field: relation ^ {t}})
    assert validate("frobenius", B).to_dict() == oracle_frobenius(B).to_dict()


CATALOG = construct_catalog()


def _h1_invariants(obj) -> tuple:
    N = nerve(to_relfa(obj) if isinstance(obj, SumTable) else obj)
    direct = (universal_group_presentation(obj).invariants()
              if isinstance(obj, SumTable) else None)
    return h1_of_complex(N).invariants(), full_chain_h1(N).invariants(), direct


def _relabelled(A, seed: int):
    """A catalog entry under fresh element names, with its elements (and
    its defined sums) declared in a shuffled order."""
    rng = random.Random(seed)
    fresh = rng.sample(range(100), len(A.elements))
    mapping = {a: f"r{k}" for a, k in zip(A.elements, fresh)}
    if isinstance(A, SumTable):
        B = relabel_table(A, mapping)
        sums = list(B.sums.items())
        rng.shuffle(sums)
        B = replace(B, sums=dict(sums))
    else:
        B = relabel_relfa(A, mapping)
    shuffled = list(B.elements)
    rng.shuffle(shuffled)
    return replace(B, elements=tuple(shuffled))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1))
def test_h1_invariants_survive_relabeling(name, seed):
    """Fresh element names and a shuffled declaration order of the elements
    (and of the defined sums) change neither nerve route nor the direct
    presentation of the universal group."""
    A = CATALOG[name]
    assert _h1_invariants(_relabelled(A, seed)) == _h1_invariants(A)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1))
def test_counts_survive_relabeling_the_target(name, seed):
    """The compiled morphism count out of every property shape's domain and
    codomain does not change when the target's elements get fresh names
    and a shuffled declaration order."""
    def target(A):
        return nerve(to_relfa(A) if isinstance(A, SumTable) else A)

    N, M = target(CATALOG[name]), target(_relabelled(CATALOG[name], seed))
    for shape_name in PROPERTY_SHAPES:
        shape = shape_from_name(shape_name)
        for X in (shape.domain, shape.codomain):
            assert count_homs(X, M) == count_homs(X, N), (shape_name, X.name)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(n for n, A in CATALOG.items() if isinstance(A, SumTable))),
       seed=st.integers(0, 2**32 - 1))
def test_level_3_route_survives_relabeling(name, seed):
    """Under fresh element names and shuffled declarations, the maps
    simplex(3) -> N(T) are still the triples with (a + b) + c defined, and
    the other bracketing still agrees on every triple."""
    T = _relabelled(CATALOG[name], seed)
    assert _level3_route(T) == (count_homs(simplex(3), nerve(to_relfa(T))), None)


def _relabelled_cells(Y, seed: int):
    """Y with fresh names for its vertices and edges, each declared in a
    shuffled order."""
    rng = random.Random(seed)
    cells = Y.vertices + Y.edges
    r = {c: f"c{k}" for c, k in zip(cells, rng.sample(range(1000), len(cells)))}
    vertices, edges = [r[v] for v in Y.vertices], [r[e] for e in Y.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return make_complex(Y.name, vertices, edges,
                        {r[e]: r[Y.src[e]] for e in Y.edges}, {r[e]: r[Y.tgt[e]] for e in Y.edges},
                        {r[v]: r[Y.identity[v]] for v in Y.vertices},
                        [tuple(r[x] for x in t) for t in Y.triangles], [r[m] for m in Y.marked])


MAPPING_PAIRS = sorted((a, b) for a in CATALOG for b in CATALOG
                       if len(CATALOG[a].elements) * len(CATALOG[b].elements) <= 30)


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from(MAPPING_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_mapping_triangles_match_the_prism_oracle_on_relabelled_targets(pair, seed):
    """Under fresh cell names and a shuffled declaration order of Y, the
    triangles of [X, Y] read off its edges are still the morphisms out of
    the 2-prism, and there are as many as before; its vertices, read off
    its identity edges, are still the morphisms out of the 0-prism, in
    their order and with their names."""
    X, Y = (_nerve(CATALOG[name]) for name in pair)
    Z = _relabelled_cells(Y, seed)
    M = mapping_complex(X, Z)
    counted, triangles = prism_triangles(X, Z, M)
    assert M.complex.triangles == triangles
    assert counted == len(triangles) == len(mapping_complex(X, Y).complex.triangles)
    assert list(M.vertex_index.items()) == prism_names(X, Z)[0]


COUNT_TARGETS = ("chain(2)", "boolean(2)", "group_algebra(Z/3)", "wright-triangle")
COUNT_DOMAINS = tuple(X for shape in map(shape_from_name, SHAPE_NAMES)
                      for X in (shape.domain, shape.codomain)) \
    + (shape_from_name("box(horn-2-0,horn-2-0)").codomain,)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(COUNT_TARGETS), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, len(COUNT_DOMAINS) - 1), min_size=1, max_size=30))
def test_kept_counts_match_fresh_counts(name, seed, picks):
    """Counting a random sequence of shape domains and codomains on one
    relabelled target object, counts kept from earlier calls included,
    gives the count on a fresh copy of the target and the number of
    enumerated morphisms, so no kept count leaks between targets or
    between domains."""
    def target():
        B = _relabelled(CATALOG[name], seed)
        return nerve(to_relfa(B) if isinstance(B, SumTable) else B)

    M = target()
    for k in picks:
        X = COUNT_DOMAINS[k]
        n = count_homs(X, M)
        assert n == count_homs(X, target()), X.name
        if n <= 2000:
            assert n == len(hom_maps(X, M)), X.name


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)),
       form=st.sampled_from(("declared", "relational", "nerve")),
       seed=st.integers(0, 2**32 - 1))
def test_structio_round_trip_is_the_identity(name, form, seed):
    """Serialize, parse and serialize again gives the same text, for a
    relabelled catalog entry as declared (a sum table or a relational
    algebra), as a relational algebra, and as a nerve."""
    B = _relabelled(CATALOG[name], seed)
    relational = to_relfa(B) if isinstance(B, SumTable) else B
    obj = {"declared": B, "relational": relational, "nerve": nerve(relational)}[form]
    text = serialize_structure(obj)
    assert serialize_structure(parse_structure(text)) == text


def _mutate(doc: dict, rng: random.Random) -> None:
    """Replace, delete or append one field of a structure document, one row
    or entry of a field, or one entry of such a row.  New values mix the
    document's names, an unknown name, the kinds and values of other JSON
    types."""
    carrier = doc.get("elements", doc.get("vertices"))
    names = [x for x in carrier if isinstance(x, str)][:3] if isinstance(carrier, list) else []
    pool = [*names, "z", *KINDS, 0, None, [], {}, ["z"], [*names, "z"][:3], names[:1] * 3]
    target = doc
    for _ in range(rng.randint(0, 2)):
        inner = [v for v in (target.values() if isinstance(target, dict) else target)
                 if isinstance(v, (list, dict)) and v]
        if not inner:
            break
        target = rng.choice(inner)
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    action = rng.choice(("replace", "delete", "append")) if keys else "append"
    value = json.loads(json.dumps(rng.choice(pool)))
    if action == "delete":
        del target[rng.choice(keys)]
    elif action == "replace":
        target[rng.choice(keys)] = value
    elif isinstance(target, dict):
        target[rng.choice([*names, "z", "extra"])] = value
    else:
        target.append(value)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)),
       form=st.sampled_from(("declared", "relational", "nerve")),
       seed=st.integers(0, 2**32 - 1))
def test_mutated_documents_parse_or_raise_structure_error(name, form, seed):
    """A catalog document (a sum table or a relational algebra as declared,
    a relational algebra, or a nerve) with one to three random edits either
    parses to a structure whose document reads back unchanged, or raises
    StructureError; no other exception escapes the parser."""
    rng = random.Random(seed)
    A = CATALOG[name]
    relational = to_relfa(A) if isinstance(A, SumTable) else A
    doc = structure_to_doc({"declared": A, "relational": relational,
                            "nerve": nerve(relational)}[form])
    for _ in range(rng.randint(1, 3)):
        _mutate(doc, rng)
    try:
        obj = parse_structure(json.dumps(doc))
    except StructureError:
        return
    text = serialize_structure(obj)
    assert serialize_structure(parse_structure(text)) == text


FROBENIUS_CANDIDATES = enumerate_small(4, "frobenius-candidates")


def _criterion_1(A) -> tuple[bool, bool]:
    """The Frobenius verdict of A and the recognition verdict of its nerve,
    False when the nerve does not build, as criterion 1 reads them."""
    try:
        recognized = recognize_nerve(nerve(A)).passed
    except ValueError:
        recognized = False
    return validate("frobenius", A).passed, recognized


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(FROBENIUS_CANDIDATES) - 1),
       seed=st.integers(0, 2**32 - 1))
def test_criterion_1_survives_relabeling(index, seed):
    """A Frobenius candidate under fresh names in a shuffled order keeps
    both verdicts, and they still agree."""
    A = FROBENIUS_CANDIDATES[index]
    direct, recognized = _criterion_1(_relabelled(A, seed))
    assert direct == recognized
    assert (direct, recognized) == _criterion_1(A)


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, len(EVAL_REPORT_PAIRS) - 1), seed=st.integers(0, 2**32 - 1))
def test_eval_fibration_report_survives_relabeling(index, seed):
    """Fresh element names and a shuffled declaration order of both algebras
    leave the whole evaluation fibration report unchanged: the face-table
    tests that decide it do not depend on the order they read cells in."""
    E, F = EVAL_REPORT_PAIRS[index]
    relabelled = eval_fibration_check(_relabelled(E, seed), _relabelled(F, seed + 1))
    assert relabelled.to_dict() == eval_fibration_check(E, F).to_dict()


# The horn(1,1) square and the three m+n = 2 boundary squares; on these
# targets all four are answered in enumeration form, and fail.
REPORT_SQUARES = ("box(horn-2-1,horn-2-1)", "box(boundary-0,boundary-2)",
                  "box(boundary-1,boundary-1)", "box(boundary-2,boundary-0)")


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(("chain(4)", "chain(2)", "boolean(2)")),
       seed=st.integers(0, 2**32 - 1))
def test_enumeration_reports_match_the_oracle_on_relabelled_targets(name, seed):
    """Fresh names move the first failing boundaries anywhere in key order;
    the lazy key-order scan still reports the failures, and the boundary
    count, that enumerating and sorting every boundary gives."""
    M = nerve(to_relfa(_relabelled(CATALOG[name], seed)))
    for shape_name in REPORT_SQUARES:
        shape = shape_from_name(shape_name)
        report = check_lifting(shape, M)
        assert report.method == "enumeration" and not report.passed, shape_name
        assert report.to_dict() == _enumerated_report(shape, M, "exists").to_dict(), \
            shape_name


REORDER_TABLES = {"wright-triangle": wright_triangle, "chain(4)": lambda: chain(4)}


@functools.cache
def _box_report(name: str, seed: int | None = None) -> dict:
    """The exists report of box(horn-2-1,horn-2-1) against the nerve of a
    table, as declared or, given a seed, with its elements and defined sums
    declared in a shuffled order under the same names."""
    A = REORDER_TABLES[name]()
    if seed is not None:
        rng = random.Random(seed)
        elements, sums = list(A.elements), list(A.sums.items())
        rng.shuffle(elements)
        rng.shuffle(sums)
        A = replace(A, elements=tuple(elements), sums=dict(sums))
    return check_lifting(shape_from_name("box(horn-2-1,horn-2-1)"), nerve(to_relfa(A))).to_dict()


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(REORDER_TABLES)), seed=st.integers(0, 2**32 - 1))
def test_lift_reports_do_not_depend_on_declaration_order(name, seed):
    """A failing pushout-product square keeps its whole report, witness
    included, when the target declares its elements in another order: the
    count-comparison form on the Wright triangle and the enumeration form
    on chain(4)."""
    report = _box_report(name, seed)
    assert report == _box_report(name)
    assert report["method"] == {"wright-triangle": "count-comparison",
                                "chain(4)": "enumeration"}[name]


@settings(max_examples=5, deadline=None)
@given(fresh=st.permutations(range(len(wright_triangle().elements))))
def test_count_comparison_witness_under_fresh_names(fresh):
    """Under fresh names for the Wright triangle, whichever element gets
    the least name, the count-comparison witness of box(horn-2-1,horn-2-1)
    is the first failure of its enumeration form."""
    A = wright_triangle()
    X = nerve(to_relfa(relabel_table(A, {a: f"r{k}" for a, k in zip(A.elements, fresh)})))
    shape = shape_from_name("box(horn-2-1,horn-2-1)")
    report = check_lifting(shape, X)
    assert report.method == "count-comparison" and not report.passed
    with mock.patch.object(complexes, "_ENUMERATION_LIMIT", float("inf")):
        enumerated = check_lifting(shape, X)
    assert enumerated.method == "enumeration"
    assert report.failures == enumerated.failures[:1]


@st.composite
def partial_tables(draw):
    """A sum table on 1 to 5 elements with arbitrary defined sums: it need
    not satisfy any axiom."""
    n = draw(st.integers(1, 5))
    elements = tuple(f"x{i}" for i in range(n))
    cell = st.sampled_from(elements)
    sums = draw(st.dictionaries(st.tuples(cell, cell), cell))
    return PseudoEffectAlgebraTable("partial", elements, elements[0], elements[-1], sums)


@settings(max_examples=100, deadline=None)
@given(t=partial_tables())
def test_derived_order_is_its_definition_on_partial_tables(t):
    """The order read off the sum table is the triple scan's on any table."""
    assert derived_order(t) == oracle_derived_order(t)
