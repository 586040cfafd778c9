"""Property tests: invariants that must hold for every input of a family,
not only for frozen examples."""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from relfa.algebra import SumTable, relabel_relfa, relabel_table, to_relfa, validate
from relfa.catalog import boolean, chain, construct_catalog, cyclic_group_algebra
from relfa.complexes import check_lifting, count_homs, hom_maps, shape_from_name
from relfa.homology import full_chain_h1, h1_of_complex, universal_group_presentation
from relfa.nerve import nerve
from test_algebra import catalog_algebras, oracle_frobenius

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
    B = dataclasses.replace(B, elements=tuple(shuffled))
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
    B = dataclasses.replace(A, **{field: relation ^ {t}})
    assert validate("frobenius", B).to_dict() == oracle_frobenius(B).to_dict()


CATALOG = construct_catalog()


def _h1_invariants(obj) -> tuple:
    N = nerve(to_relfa(obj) if isinstance(obj, SumTable) else obj)
    direct = (universal_group_presentation(obj).invariants()
              if isinstance(obj, SumTable) else None)
    return h1_of_complex(N).invariants(), full_chain_h1(N).invariants(), direct


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)), seed=st.integers(0, 2**32 - 1))
def test_h1_invariants_survive_relabeling(name, seed):
    """Fresh element names and a shuffled declaration order of the elements
    (and of the defined sums) change neither nerve route nor the direct
    presentation of the universal group."""
    rng = random.Random(seed)
    A = CATALOG[name]
    fresh = rng.sample(range(100), len(A.elements))
    mapping = {a: f"r{k}" for a, k in zip(A.elements, fresh)}
    if isinstance(A, SumTable):
        B = relabel_table(A, mapping)
        sums = list(B.sums.items())
        rng.shuffle(sums)
        B = dataclasses.replace(B, sums=dict(sums))
    else:
        B = relabel_relfa(A, mapping)
    shuffled = list(B.elements)
    rng.shuffle(shuffled)
    B = dataclasses.replace(B, elements=tuple(shuffled))
    assert _h1_invariants(B) == _h1_invariants(A)
