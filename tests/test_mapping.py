"""Morphism enumeration, conjugation, mapping complexes, the componentwise
hom object, and the evaluation fibration check."""

from __future__ import annotations

import dataclasses
import gc
from collections import Counter

import pytest

from relfa import mapping
from relfa.algebra import PseudoEffectAlgebraTable, to_relfa, validate
from relfa.catalog import boolean, chain
from relfa.complexes import hom_maps, make_complex
from relfa.enumerate_small import enumerate_small
from relfa.mapping import (
    FIBRATION_SHAPES,
    _candidate_isomorphism,
    _relative_lifting_check,
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
    counts = M.complex.counts()
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


def test_explicit_labeling_rejects_every_broken_input():
    E, F = chain(1), chain(2)
    hob = hom_object_ea(E, F)
    NE, NF = nerve(to_relfa(E)), nerve(to_relfa(F))
    M = mapping_complex(NE, NF)
    assert _candidate_isomorphism(hob, E, F, NE, NF, M) is not None
    C = M.complex

    def variant(vertices=(), loops=(), triangles=C.triangles):
        # M over C plus new vertices and new loops at C's first vertex, with
        # the given triangles.
        fresh = tuple(f"id-{v}" for v in vertices)
        ends = {**{i: v for i, v in zip(fresh, vertices)},
                **{e: C.vertices[0] for e in loops}}
        return dataclasses.replace(M, complex=make_complex(
            C.name, C.vertices + tuple(vertices), C.edges + fresh + tuple(loops),
            {**C.src, **ends}, {**C.tgt, **ends},
            {**C.identity, **dict(zip(vertices, fresh))}, triangles, C.marked))

    # Each component's carrier widened to all of F, so that some h(1) + x
    # is undefined.
    wide = dataclasses.replace(hob, components=tuple(
        dataclasses.replace(c, carrier=F.elements) for c in hob.components))
    broken = [
        (wide, M),
        (hob, dataclasses.replace(M, vertex_index={})),
        (hob, variant(triangles=C.triangles - {C.nondegenerate_triangles()[0]})),
        (hob, variant(vertices=("extra",))),
        (hob, variant(loops=("extra",))),
    ]
    for h, target in broken:
        assert _candidate_isomorphism(h, E, F, NE, NF, target) is None


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


def _oracle_relative_lift_witness(shape, p):
    """The failing square first in key order, found by scanning the sorted
    boundary morphisms and, for each, the sorted base morphisms."""
    A, B = shape.domain, shape.codomain
    lifts = Counter((v.key(of=A), p.compose(v).key()) for v in hom_maps(B, p.domain))
    ws = hom_maps(B, p.codomain)
    for u in hom_maps(A, p.domain):
        for w in ws:
            if w.key(of=A) == p.compose(u).key():
                n = lifts[(u.key(), w.key())]
                if n != 1:
                    return (n, _sorted_images(u), _sorted_images(w))
    return None


def _sorted_images(f):
    return tuple(sorted(f.vertex_map.items())), tuple(sorted(f.edge_map.items()))


@pytest.mark.parametrize("pair", [(chain(1), boolean(2)), (boolean(2), chain(3))],
                         ids=lambda pair: f"{pair[0].name}->{pair[1].name}")
def test_relative_lift_witness_is_the_first_failing_square(pair):
    """On morphisms of nerves that are not fibrations, the lazy scan of the
    boundary morphisms gives the witness the sorted scan gives."""
    total, base = (nerve(to_relfa(algebra)) for algebra in pair)
    failing = 0
    for p in hom_maps(total, base)[:4]:
        homs: dict = {}
        for shape in FIBRATION_SHAPES:
            check = _relative_lifting_check(shape, p, homs)
            assert check.witness == _oracle_relative_lift_witness(shape, p), shape.name
            assert check.passed == (check.witness is None)
            failing += not check.passed
    assert failing
