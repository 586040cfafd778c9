"""Orthogonality relations, the internal lifting relation on elements, and
the classification flags with their order-theoretic cross checks."""

from __future__ import annotations

import re

import pytest

from relfa import ortho
from relfa.algebra import (
    InvariantError,
    RelFA,
    SumTable,
    _require,
    derived_order,
    to_relfa,
    validate,
)
from relfa.catalog import boolean, chain, cyclic_group_algebra, wright_triangle
from relfa.complexes import ComplexMorphism, braiding_shape, check_lifting
from relfa.enumerate_small import enumerate_small
from relfa.nerve import element_endpoints, nerve, rotations
from relfa.ortho import (
    boxslash_relation,
    classify,
    epsilon_boxslash,
    is_cancellative,
    is_commutative,
    perp_relation,
)
from test_mapping import cyclic_pea


# ---------------------------------------------------------------------------
# Oracles that only the tests call: the order-theoretic account of ⊡ with
# the join it reads, the threefold-sum coherence of a table, and the five
# inverse conditions of one element, each checked on the spot.


def join(t: SumTable, a: str, b: str, order=None) -> str | None:
    """Least upper bound of a and b in the derived order, or None if it
    does not exist."""
    order = order if order is not None else derived_order(t)
    ubs = [u for u in t.elements if (a, u) in order and (b, u) in order]
    for u in ubs:
        if all((u, v) in order for v in ubs):
            return u
    return None


def boxslash_order_oracle(E: SumTable) -> frozenset[tuple[str, str]]:
    """Order-theoretic account of ⊡ on an effect algebra: a ⊡ b exactly
    when a ⊕ b is defined and is the join of a and b."""
    order = derived_order(E)
    return frozenset((a, b) for (a, b), s in E.sums.items()
                     if join(E, a, b, order=order) == s)


def coherence_check(E: SumTable) -> tuple[bool, tuple | None]:
    """Whether every pairwise orthogonal triple has a defined threefold sum
    in both association orders.  Returns the verdict and the first failing
    triple."""
    sums = E.sums
    for a in E.elements:
        for b in E.elements:
            if (a, b) not in sums:
                continue
            for c in E.elements:
                if (a, c) not in sums or (b, c) not in sums:
                    continue
                left = sums.get((sums[(a, b)], c))
                right = sums.get((a, sums[(b, c)]))
                if left is None or right is None or left != right:
                    return False, (a, b, c)
    return True, None


def inverse_analysis(F: RelFA, a: str) -> dict:
    """The five inverse conditions for one element: a right inverse through
    a unit, orthogonality to everything composable at the target,
    orthogonality to some counit, and the two ⊡ saturation conditions.
    The first three are equivalent in any Frobenius algebra; all five when
    it is cancellative.  Both claims are verified on the spot: raises
    ValueError unless F is a Frobenius algebra, and InvariantError when the
    routes disagree."""
    _require("frobenius", "a Frobenius algebra", F)
    right_inverse = next(
        (c for c in F.elements if any((a, c, r) in F.mu for r in F.eta)), None)
    src, tgt = element_endpoints(F)
    perp = perp_relation(F)
    perp_all_at_target = all((b, a) in perp for b in F.elements if src[b] == tgt[a])
    epsilon_perp = any((e, a) in perp for e in F.epsilon)
    bx = boxslash_relation(F)
    f_boxslash_a = all((f, a) in bx for f in F.elements)
    epsilon_boxslash_a = all((e, a) in bx for e in F.epsilon)

    first_three = {right_inverse is not None, perp_all_at_target, epsilon_perp}
    if len(first_three) != 1:
        raise InvariantError(
            f"{F.name}: inverse conditions (i)-(iii) disagree at {a!r}")
    if epsilon_boxslash_a and right_inverse is None:
        raise InvariantError(
            f"{F.name}: counit ⊡ saturation without a right inverse at {a!r}")
    cancellative, _ = is_cancellative(F)
    if cancellative:
        if len({right_inverse is not None, f_boxslash_a, epsilon_boxslash_a}) != 1:
            raise InvariantError(
                f"{F.name}: inverse conditions (i)-(v) disagree at {a!r} "
                "despite cancellativity")
    return {
        "element": a,
        "right_inverse": right_inverse,
        "perp_all_at_target": perp_all_at_target,
        "epsilon_perp": epsilon_perp,
        "F_boxslash_a": f_boxslash_a,
        "epsilon_boxslash_a": epsilon_boxslash_a,
        "cancellative": cancellative,
    }


def test_boxslash_matches_the_order_oracle():
    for t in (chain(3), boolean(2), wright_triangle()):
        assert boxslash_relation(to_relfa(t)) == boxslash_order_oracle(t)


def _boxslash_by_definition(F):
    """a ⊡ b read off the quantified definition: for all p, q, d with d in
    mu(q, a) and d in mu(b, p) there is l with p in mu(l, a) and q in
    mu(b, l)."""
    els, mu = F.elements, F.mu
    return frozenset(
        (a, b) for a in els for b in els
        if all(any((l, a, p) in mu and (b, l, q) in mu for l in els)
               for p in els for q in els for d in els
               if (q, a, d) in mu and (b, p, d) in mu))


def test_boxslash_matches_its_definition_beyond_effect_algebras(catalog):
    algebras = list(enumerate_small(4, "frobenius-candidates"))
    algebras += [obj if isinstance(obj, RelFA) else to_relfa(obj)
                 for obj in catalog.values() if len(obj.elements) <= 6]
    for F in algebras:
        assert boxslash_relation(F) == _boxslash_by_definition(F), F.name
    assert len(algebras) > 411


def test_boxslash_on_boolean_square_lists_joinable_pairs():
    b = boolean(2)
    bx = boxslash_relation(to_relfa(b))
    assert ("a", "b") in bx
    assert ("a", "a") not in bx
    for x in b.elements:
        assert ("0", x) in bx


def test_epsilon_boxslash_recovers_the_unit():
    for t in (chain(2), boolean(2)):
        f = to_relfa(t)
        assert set(epsilon_boxslash(f)) == set(f.eta)


def test_perp_contains_boxslash_on_effect_algebras():
    f = to_relfa(wright_triangle())
    assert boxslash_relation(f) <= perp_relation(f)


def test_commutativity_and_cancellativity_witnesses():
    good = to_relfa(boolean(2))
    assert is_commutative(good) == (True, None)
    assert is_cancellative(good) == (True, None)
    twisted = to_relfa(cyclic_pea(3))
    flag, witness = is_commutative(twisted)
    assert not flag
    assert witness is not None


def _sorted_scan_witnesses(F):
    """The commutativity and cancellativity witnesses of a scan of
    sorted(F.mu): a missing mirror; else a pair with two composites, else a
    clash of left or right cancellation."""
    mu = sorted(F.mu)
    commutative = None
    for x, y, z in mu:
        if (y, x, z) not in F.mu:
            commutative = (x, y, z)
            break
    cancellative = None
    composite = {}
    for x, y, z in mu:
        if (x, y) in composite and composite[(x, y)] != z:
            cancellative = (x, y, z, composite[(x, y)])
            break
        composite.setdefault((x, y), z)
    if cancellative is None:
        left, right = {}, {}
        for x, y, z in mu:
            if (x, z) in left and left[(x, z)] != y:
                cancellative = (x, z, y, left[(x, z)])
                break
            left.setdefault((x, z), y)
            if (y, z) in right and right[(y, z)] != x:
                cancellative = (y, z, x, right[(y, z)])
                break
            right.setdefault((y, z), x)
    return commutative, cancellative


def test_witnesses_are_the_first_of_a_sorted_scan():
    failing = 0
    for F in enumerate_small(4, "frobenius-candidates"):
        commutative, cancellative = _sorted_scan_witnesses(F)
        assert is_commutative(F) == (commutative is None, commutative), F.name
        assert is_cancellative(F) == (cancellative is None, cancellative), F.name
        failing += cancellative is not None
    assert failing > 200


def test_classification_of_three_chain():
    flags = classify(to_relfa(chain(2)))
    assert flags.effect_algebra
    assert flags.commutative and flags.cancellative
    assert flags.orthoalgebra is False
    assert flags.orthomodular_poset is False
    assert flags.braided is True
    assert all(flags.cross_checks.values())


def test_classification_of_boolean_square():
    flags = classify(to_relfa(boolean(2)))
    assert flags.effect_algebra
    assert flags.orthoalgebra is True
    assert flags.orthomodular_poset is True
    assert flags.braided is True
    assert all(flags.cross_checks.values())


def test_classification_of_pasted_blocks():
    flags = classify(to_relfa(wright_triangle()))
    assert flags.effect_algebra
    assert flags.orthoalgebra is True
    assert flags.orthomodular_poset is False
    assert flags.braided is True
    assert all(flags.cross_checks.values())
    assert "orthomodular_poset" in flags.witnesses


def test_classification_of_group_algebra():
    flags = classify(cyclic_group_algebra(3))
    assert flags.commutative and flags.cancellative
    assert flags.effect_algebra is False
    assert flags.orthoalgebra is None
    assert flags.orthomodular_poset is None
    assert flags.braided is True
    assert flags.cross_checks["counit_singleton_equivalence"]


def test_classification_of_a_frobenius_algebra_with_two_units():
    """frob2_4 has the units x0 and x1, so eta_singleton fails with both as
    its witness."""
    (F,) = [f for f in enumerate_small(2, "frobenius") if f.name == "frob2_4"]
    flags = classify(F)
    assert flags.eta_singleton is False
    assert flags.witnesses["eta_singleton"] == ["x0", "x1"]
    assert flags.effect_algebra is False


def test_classification_serializes():
    doc = classify(to_relfa(chain(2))).to_dict()
    assert doc["name"] == "relfa(chain(2))"
    assert set(doc) == {
        "name", "commutative", "cancellative", "eta_singleton",
        "epsilon_boxslash_is_eta", "effect_algebra", "orthoalgebra",
        "orthomodular_poset", "braided", "witnesses", "cross_checks"}


def test_coherence_check_frozen_verdicts():
    assert coherence_check(boolean(2)) == (True, None)
    assert coherence_check(chain(2)) == (False, ("1", "1", "1"))
    assert coherence_check(wright_triangle()) == (False, ("a", "c", "e"))


def test_coherence_is_the_orthomodular_poset_flag_on_orthoalgebras(catalog):
    # On an orthoalgebra, coherence and being an orthomodular poset coincide.
    tables = [t for t in catalog.values() if isinstance(t, SumTable)]
    tables += [t for n in range(1, 6) for t in enumerate_small(n, "effect-algebra")]
    verdicts = {}
    for t in tables:
        flags = classify(to_relfa(t))
        if flags.orthoalgebra:
            assert coherence_check(t)[0] == flags.orthomodular_poset, t.name
            verdicts[t.name] = flags.orthomodular_poset
    assert len(verdicts) == 9
    assert [name for name, omp in verdicts.items() if not omp] == ["wright-triangle"]


def test_braided_witness_is_a_boundary_without_a_filler():
    F = next(x for x in enumerate_small(2, "frobenius-candidates")
             if x.name == "relfa(ea2_0)+mu:0,1,0")
    flags = classify(F)
    assert flags.braided is False
    witness = flags.witnesses["braided"]
    assert witness["extensions"] == 0
    N = nerve(F)
    side = "left" if "a1" in witness["boundary"]["edges"] else "right"
    shape = braiding_shape(side)
    vmap = witness["boundary"]["vertices"]
    emap = {shape.domain.identity[v]: N.identity[vmap[v]] for v in vmap}
    emap.update(witness["boundary"]["edges"])
    ComplexMorphism(shape.domain, N, vmap, emap).check()
    assert not check_lifting(shape, N, mode="exists").passed


def test_classify_reports_a_lifting_fault_instead_of_braided_null(monkeypatch):
    """Only a failure to build the nerve reads as braided: null; a
    ValueError from inside the lifting engine propagates."""
    def broken(*args, **kwargs):
        raise ValueError("fault inside the lifting engine")

    assert classify(to_relfa(chain(2))).braided is True
    monkeypatch.setattr(ortho, "check_lifting", broken)
    with pytest.raises(ValueError, match="lifting engine"):
        classify(to_relfa(chain(2)))


def test_inverse_analysis_on_a_group_element():
    result = inverse_analysis(cyclic_group_algebra(3), "g1")
    assert result["element"] == "g1"
    assert result["right_inverse"] == "g2"
    assert result["cancellative"] is True
    assert result["F_boxslash_a"] is True
    assert result["epsilon_boxslash_a"] is True
    assert result["epsilon_perp"] is True
    assert result["perp_all_at_target"] is True


def test_inverse_conditions_agree_on_every_frobenius_algebra(catalog):
    # The candidate stream's Frobenius algebras and the catalog: 41 algebras
    # and 151 elements.  The analysis raises InvariantError on a disagreement.
    candidates = enumerate_small(4, "frobenius-candidates")
    algebras = [F for F in candidates if validate("frobenius", F).passed]
    algebras += [s if isinstance(s, RelFA) else to_relfa(s) for s in catalog.values()]
    assert (len(algebras), sum(len(F.elements) for F in algebras)) == (41, 151)
    for F in algebras:
        for a in F.elements:
            result = inverse_analysis(F, a)
            assert result["perp_all_at_target"] == result["epsilon_perp"] == \
                (result["right_inverse"] is not None)


def test_inverse_analysis_rejects_algebras_that_are_not_frobenius():
    candidate = enumerate_small(2, "frobenius-candidates")[1]
    failing = ", ".join(c.name for c in validate("frobenius", candidate).failing())
    assert failing
    with pytest.raises(ValueError, match=re.escape(f"is not a Frobenius algebra: fails {failing}")):
        inverse_analysis(candidate, candidate.elements[0])


def test_rotations_are_the_supplement():
    alpha, beta = rotations(nerve(to_relfa(chain(2))))
    assert alpha["1"] == "1"
    assert alpha["0"] == "2"
    assert alpha["2"] == "0"
    assert alpha[beta["1"]] == "1"
