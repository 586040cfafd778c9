"""Axiom validators, derived-order utilities, and the translation from sum
tables to relational algebras."""

from __future__ import annotations

import itertools

import pytest

from relfa.algebra import (
    VALIDATE_KINDS,
    CheckResult,
    EffectAlgebraTable,
    RelFA,
    SumTable,
    ValidationReport,
    derived_order,
    height_order,
    relabel_relfa,
    relabel_table,
    supplements,
    to_relfa,
    validate,
)
from relfa.catalog import boolean, chain, construct_catalog
from relfa.enumerate_small import enumerate_small, transported_delta
from relfa.mapping import mapping_complex
from relfa.nerve import _transport_delta, nerve, nerve_to_algebra, rotations
from test_mapping import cyclic_pea
from test_ortho import join


def table(name, elements, zero, one, pairs):
    return EffectAlgebraTable(name, tuple(elements), zero, one,
                              {(a, b): c for a, b, c in pairs})


def test_validate_kinds_are_fixed():
    assert VALIDATE_KINDS == (
        "effect-algebra", "pseudo-effect-algebra", "rel-monoid", "frobenius")
    with pytest.raises(ValueError):
        validate("group", chain(2))


def test_effect_algebra_check_names():
    report = validate("effect-algebra", chain(3))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "commutativity", "associativity", "zero-neutrality",
        "zero-one-law", "unique-supplement"]
    assert report.failing() == ()


def test_pseudo_effect_algebra_check_names():
    report = validate("pseudo-effect-algebra", chain(3))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "associativity", "zero-neutrality", "zero-one-law",
        "unique-supplements", "exchange", "orthogonality-interval"]


def test_commutativity_failure_carries_witness():
    # a + b is defined but b + a is not.
    t = table("one-sided", "0ab1", "0", "1",
              [("0", "0", "0"), ("0", "a", "a"), ("a", "0", "a"),
               ("0", "b", "b"), ("b", "0", "b"), ("0", "1", "1"),
               ("1", "0", "1"), ("a", "b", "1")])
    report = validate("effect-algebra", t)
    assert not report.passed
    commutativity = next(c for c in report.checks if c.name == "commutativity")
    assert not commutativity.passed
    assert commutativity.witness is not None


def test_zero_one_law_rejects_sums_above_top():
    t = table("top-heavy", "01", "0", "1",
              [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"),
               ("1", "1", "1")])
    report = validate("effect-algebra", t)
    law = next(c for c in report.checks if c.name == "zero-one-law")
    assert not law.passed


def test_zero_neutrality_failure_carries_witness():
    # 0 + a is missing, so a is the first element the zero does not fix.
    t = table("lost-zero", "0a1", "0", "1",
              [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"),
               ("a", "0", "a"), ("a", "a", "1")])
    for kind in ("effect-algebra", "pseudo-effect-algebra"):
        check = next(c for c in validate(kind, t).checks if c.name == "zero-neutrality")
        assert (check.passed, check.witness) == (False, ("a",))


def two_supplements():
    return table("two-supplements", "0ab1", "0", "1",
                 [("0", "0", "0"), ("0", "a", "a"), ("a", "0", "a"),
                  ("0", "b", "b"), ("b", "0", "b"), ("0", "1", "1"),
                  ("1", "0", "1"), ("a", "b", "1"), ("b", "a", "1"),
                  ("a", "a", "1")])


def test_unique_supplement_failure():
    t = two_supplements()
    ea = next(c for c in validate("effect-algebra", t).checks if c.name == "unique-supplement")
    assert (ea.passed, ea.witness) == (False, ("a", ("a", "b")))
    pea = next(c for c in validate("pseudo-effect-algebra", t).checks
               if c.name == "unique-supplements")
    assert (pea.passed, pea.witness) == (False, ("a", ("a", "b"), ("a", "b")))


def test_noncommutative_table_fails_ea_but_passes_pea():
    t = cyclic_pea(3)
    assert validate("pseudo-effect-algebra", t).passed
    ea = validate("effect-algebra", t)
    assert not ea.passed
    assert {c.name for c in ea.failing()} == {"commutativity"}


def test_derived_order_and_join_on_boolean_square():
    b = boolean(2)
    order = derived_order(b)
    assert ("0", "a") in order and ("a", "1") in order
    assert ("a", "b") not in order
    assert join(b, "a", "b") == "1"
    assert join(b, "0", "a") == "a"


def oracle_derived_order(t: SumTable) -> frozenset[tuple[str, str]]:
    """The derived order by its definition: a <= b iff a + c = b for some
    c, over every triple of the carrier."""
    return frozenset((a, b) for a in t.elements for b in t.elements
                     if any(t.sums.get((a, c)) == b for c in t.elements))


def test_derived_order_is_its_definition(not_a_pea):
    """The order read off the sum table is the triple scan's, on every
    catalog table, every enumerated table of size <= 5 and a table that is
    not a pseudo effect algebra."""
    tables = [s for s in construct_catalog().values() if isinstance(s, SumTable)]
    tables += [t for kind in ("effect-algebra", "pseudo-effect-algebra")
               for n in range(1, 6) for t in enumerate_small(n, kind)]
    tables.append(not_a_pea)
    for t in tables:
        assert derived_order(t) == oracle_derived_order(t), t.name


def test_supplements_effect_and_pseudo():
    # In an effect algebra both entries are the supplement a'.
    assert supplements(chain(2)) == {"0": ("2", "2"), "1": ("1", "1"), "2": ("0", "0")}
    # c + a = 1 = a + b: a has left supplement c and right supplement b.
    assert supplements(cyclic_pea(3))["a"] == ("c", "b")
    with pytest.raises(ValueError, match="'a' lacks unique supplements"):
        supplements(two_supplements())


def test_atoms_and_height_order():
    h = height_order(boolean(2))
    assert h[0] == "0" and h[-1] == "1"
    assert set(h[1:3]) == {"a", "b"}


def test_to_relfa_on_two_chain_is_frozen():
    f = to_relfa(chain(1))
    assert f.name == "relfa(chain(1))"
    assert f.elements == ("0", "1")
    assert sorted(f.mu) == [("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1")]
    assert sorted(f.eta) == ["0"]
    assert sorted(f.epsilon) == ["1"]
    assert sorted(f.delta) == [("0", "0", "1"), ("0", "1", "0"), ("1", "1", "1")]


def test_to_relfa_composition_order():
    # mu(x, y) holds y-then-x composites: the triple is (later, earlier, sum).
    c = chain(2)
    f = to_relfa(c)
    for (a, b), s in c.sums.items():
        assert (b, a, s) in f.mu


def test_to_relfa_validates_as_frobenius_everywhere():
    for t in (chain(2), chain(3), boolean(2)):
        f = to_relfa(t)
        assert validate("rel-monoid", f).passed
        assert validate("frobenius", f).passed


def test_frobenius_check_names():
    report = validate("frobenius", to_relfa(boolean(2)))
    assert [c.name for c in report.checks] == [
        "unit-existence", "unit-strictness", "associativity",
        "co-unit-existence", "co-unit-strictness", "co-associativity",
        "frobenius-identity"]
    assert report.passed


def test_frobenius_identity_fails_on_mangled_delta():
    f = to_relfa(chain(1))
    broken = RelFA(f.name, f.elements, f.mu, f.eta,
                   frozenset({("0", "0", "0")}), f.epsilon)
    report = validate("frobenius", broken)
    assert not report.passed


def test_relabel_preserves_validation():
    b = boolean(2)
    mapping = {"0": "bot", "a": "x", "b": "y", "1": "top"}
    rb = relabel_table(b, mapping, name="renamed")
    assert rb.name == "renamed"
    assert validate("effect-algebra", rb).passed
    f = relabel_relfa(to_relfa(b), mapping)
    assert validate("frobenius", f).passed


def test_carrier_validation_rejects_unknown_references():
    with pytest.raises(ValueError):
        SumTable("dup", ("0", "0"), "0", "0", {})
    with pytest.raises(ValueError):
        SumTable("no-top", ("0",), "0", "1", {})
    with pytest.raises(ValueError):
        SumTable("ghost", ("0", "1"), "0", "1", {("0", "x"): "1"})
    with pytest.raises(ValueError):
        RelFA("ghost", ("0",), frozenset({("0", "0", "x")}),
              frozenset(), frozenset(), frozenset())


def test_relfa_signature_ignores_name():
    f = to_relfa(chain(1))
    g = RelFA("other", f.elements, f.mu, f.eta, f.delta, f.epsilon)
    assert f.signature() == g.signature()
    assert f.delta_op() == frozenset((x, y, z) for z, x, y in f.delta)


# ---------------------------------------------------------------------------
# Literal scans over carrier powers, kept as oracles for the validators that
# join the relations and for the delta transports that go through preimages.


def oracle_monoid_checks(elements, triples, units, prefix=""):
    pairs = {}
    for x, y, z in triples:
        pairs.setdefault((x, y), set()).add(z)
    checks = []

    witness = None
    for a in elements:
        if not any((a, s, a) in triples for s in units):
            witness = (a, "right")
            break
        if not any((s, a, a) in triples for s in units):
            witness = (a, "left")
            break
    checks.append(CheckResult(
        prefix + "unit-existence", witness is None, witness,
        "every a is absorbed by a unit on each side"))

    witness = None
    for r in sorted(units):
        for x, y, z in sorted(triples):
            if x == r and y != z:
                witness = (r, y, z, "left")
                break
            if y == r and x != z:
                witness = (x, r, z, "right")
                break
        if witness:
            break
    checks.append(CheckResult(
        prefix + "unit-strictness", witness is None, witness,
        "multiplying by a unit relates a only to a itself"))

    witness = None
    for a, b, c in itertools.product(elements, repeat=3):
        left = set()
        for x in pairs.get((a, b), ()):
            left |= pairs.get((x, c), set())
        right = set()
        for y in pairs.get((b, c), ()):
            right |= pairs.get((a, y), set())
        if left != right:
            witness = (a, b, c, sorted(left ^ right)[0])
            break
    checks.append(CheckResult(
        prefix + "associativity", witness is None, witness,
        "mu(mu(a,b),c) and mu(a,mu(b,c)) relate to the same elements"))
    return checks


def oracle_frobenius(f):
    checks = oracle_monoid_checks(f.elements, f.mu, f.eta)
    checks += oracle_monoid_checks(
        f.elements, frozenset((x, y, z) for z, x, y in f.delta), f.epsilon,
        prefix="co-")
    witness = None
    for a, b, c, d in itertools.product(f.elements, repeat=4):
        lhs = any((a, x, c) in f.mu and (b, x, d) in f.delta for x in f.elements)
        rhs = any((a, c, y) in f.delta and (y, b, d) in f.mu for y in f.elements)
        if lhs != rhs:
            witness = (a, b, c, d)
            break
    checks.append(CheckResult(
        "frobenius-identity", witness is None, witness,
        "mu(a,x)=c with delta(b)=(x,d) iff delta(a)=(c,y) with mu(y,b)=d"))
    return ValidationReport("frobenius", f.name, tuple(checks), f.notes)


def oracle_rel_monoid(f):
    return ValidationReport("rel-monoid", f.name,
                            tuple(oracle_monoid_checks(f.elements, f.mu, f.eta)), f.notes)


def oracle_transport(elements, beta, triangles):
    return frozenset((z, x, y) for z, x, y in itertools.product(elements, repeat=3)
                     if (beta[y], beta[z], beta[x]) in triangles)


def assert_matches_oracles(f):
    assert validate("frobenius", f).to_dict() == oracle_frobenius(f).to_dict(), f.name
    assert validate("rel-monoid", f).to_dict() == oracle_rel_monoid(f).to_dict(), f.name


def catalog_algebras():
    return [to_relfa(s) if isinstance(s, SumTable) else s
            for s in construct_catalog().values()]


def test_relational_validators_match_oracles_on_catalog():
    for f in catalog_algebras():
        assert_matches_oracles(f)


def test_relational_validators_match_oracles_on_candidates():
    candidates = enumerate_small(4, "frobenius-candidates")
    assert len(candidates) == 411
    failing = 0
    for f in candidates:
        assert_matches_oracles(f)
        failing += not validate("frobenius", f).passed
    assert failing > 200


@pytest.mark.parametrize("pair", [
    (chain(1), chain(1)), (chain(1), chain(2)), (chain(2), chain(3)),
    (boolean(2), chain(2)), (chain(1), boolean(2))])
def test_relational_validators_match_oracles_on_mapping_complexes(pair):
    E, F = pair
    C = mapping_complex(nerve(to_relfa(E)), nerve(to_relfa(F))).complex
    assert_matches_oracles(nerve_to_algebra(C))


def test_delta_transports_match_triple_loop_on_candidates():
    for f in enumerate_small(4, "frobenius-candidates"):
        probe = RelFA("probe", f.elements, f.mu, f.eta, frozenset(), f.epsilon)
        try:
            N = nerve(probe)
            _, beta = rotations(N)
        except ValueError:
            assert transported_delta(f.elements, f.mu, f.eta, f.epsilon) == frozenset()
            continue
        expected = oracle_transport(N.edges, beta, N.triangles)
        assert transported_delta(f.elements, f.mu, f.eta, f.epsilon) == expected
        assert nerve_to_algebra(N).delta == expected


def test_transport_goes_through_every_preimage():
    # beta need not be injective: every map of a 3-element carrier.
    els = ("a", "b", "c")
    triangle_sets = [frozenset(), {("a", "a", "a")}, {("a", "b", "c"), ("c", "c", "a")},
                     set(itertools.product(els, repeat=3))]
    for images in itertools.product(els, repeat=3):
        beta = dict(zip(els, images))
        for tris in triangle_sets:
            assert _transport_delta(els, beta, tris) == oracle_transport(els, beta, tris)


def test_to_relfa_delta_matches_triple_loop():
    tables = [s for s in construct_catalog().values() if isinstance(s, SumTable)]
    tables += enumerate_small(5, "effect-algebra") + enumerate_small(5, "pseudo-effect-algebra")
    for t in tables:
        right = {a: supp[1] for a, supp in supplements(t).items()}
        expected = frozenset(
            (z, x, y) for z, x, y in itertools.product(t.elements, repeat=3)
            if t.sums.get((right[x], right[y])) == right[z])
        assert to_relfa(t).delta == expected, t.name
