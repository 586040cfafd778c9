"""Nerve construction, recognition by lifting conditions, rotations, and
the algebra-complex round trip."""

from __future__ import annotations

import pytest

from relfa.algebra import RelFA, to_relfa, validate
from relfa.catalog import boolean, chain, cyclic_group_algebra
from relfa.complexes import check_lifting, count_homs, make_complex, shape_from_name, simplex
from relfa.enumerate_small import enumerate_small
from relfa.nerve import (
    RECOGNITION_SHAPES,
    cross_validate,
    element_endpoints,
    marked_edges,
    nerve,
    nerve_to_algebra,
    recognize_nerve,
    rotations,
    unit_vertices,
)


def test_recognition_shape_lists_are_frozen():
    assert RECOGNITION_SHAPES == (
        ("ehorn-1-0", "unique"), ("ehorn-1-1", "unique"),
        ("ehorn-2-0", "unique"), ("ehorn-2-2", "unique"),
        ("ehorn-3-0", "unique"), ("ehorn-3-3", "unique"),
        ("assoc-02", "exists"))


def test_nerve_of_three_chain_is_frozen():
    N = nerve(to_relfa(chain(2)))
    assert len(N.vertices) == 1
    assert len(N.edges) == 3
    assert len(N.triangles) == 6
    assert sorted(N.marked) == ["2"]
    assert N.name == "nerve(relfa(chain(2)))"


def test_triangle_orientation_reads_off_sums():
    c = chain(2)
    N = nerve(to_relfa(c))
    # A sum a + b = s appears as the triangle (later, sum, earlier).
    for (a, b), s in c.sums.items():
        assert (b, s, a) in N.triangles


def test_unit_vertices_require_idempotence():
    f = to_relfa(chain(1))
    assert unit_vertices(f) == ["0"]
    lazy = RelFA("lazy", f.elements, frozenset(t for t in f.mu if t != ("0", "0", "0")),
                 f.eta, f.delta, f.epsilon)
    assert unit_vertices(lazy) == []
    with pytest.raises(ValueError, match="absorbing"):
        element_endpoints(lazy)
    with pytest.raises(ValueError):
        nerve(lazy)


def test_recognition_passes_on_nerves(catalog):
    for name in ("chain(3)", "boolean(2)", "group_algebra(Z/4)",
                 "horizontal_sum(chain(2),chain(2))"):
        obj = catalog[name]
        f = obj if isinstance(obj, RelFA) else to_relfa(obj)
        report = recognize_nerve(nerve(f))
        assert report.passed, name
        assert [c.name for c in report.checks] == [
            f"{s}:{m}" for s, m in RECOGNITION_SHAPES]


def test_recognition_optional_checks_are_reported_separately():
    # The inner horns and the second associativity shape are not recognition
    # conditions: a partial sum table fails horn-2-1 and is still a nerve.
    optional = ("horn-2-1", "horn-3-1", "horn-3-2", "assoc-13")
    N = nerve(to_relfa(boolean(2)))
    report = recognize_nerve(N)
    assert report.passed
    assert report.notes == ()
    assert not check_lifting(shape_from_name("horn-2-1"), N, mode="exists").passed
    G = nerve(cyclic_group_algebra(3))
    assert recognize_nerve(G).passed
    for name in optional:
        assert check_lifting(shape_from_name(name), G, mode="exists").passed, name


def test_recognition_fails_without_markings():
    N = nerve(to_relfa(chain(2)))
    stripped = make_complex("stripped", N.vertices, N.edges, N.src, N.tgt,
                            N.identity, sorted(N.triangles), ())
    report = recognize_nerve(stripped)
    assert not report.passed
    assert any(c.name.startswith("ehorn") for c in report.failing())
    assert report.notes == ("not a nerve",)


def test_recognition_fails_with_a_missing_triangle():
    N = nerve(to_relfa(boolean(2)))
    removable = next(t for t in N.nondegenerate_triangles())
    pruned = make_complex("pruned", N.vertices, N.edges, N.src, N.tgt,
                          N.identity,
                          sorted(t for t in N.triangles if t != removable),
                          sorted(N.marked))
    report = recognize_nerve(pruned)
    assert not report.passed


def test_rotations_are_mutually_inverse_bijections():
    for t in (chain(2), boolean(2)):
        N = nerve(to_relfa(t))
        alpha, beta = rotations(N)
        for e in N.edges:
            assert beta[alpha[e]] == e
            assert alpha[beta[e]] == e
        out, incoming = marked_edges(N)
        assert set(out) == set(N.vertices)
        assert set(incoming) == set(N.vertices)


def test_rotation_transport_is_the_supplement():
    # On an effect algebra nerve the rotation sends each edge to the edge
    # labeled by its supplement, so applying it twice is the identity.
    N = nerve(to_relfa(boolean(2)))
    alpha, beta = rotations(N)
    for e in N.edges:
        assert beta[beta[e]] == e
    assert beta["a"] == "b"
    assert beta["0"] == "1"


def test_round_trip_reproduces_the_algebra():
    for f in (to_relfa(chain(2)), to_relfa(boolean(2)),
              cyclic_group_algebra(3)):
        back = nerve_to_algebra(nerve(f))
        assert back.signature() == f.signature()
        assert validate("frobenius", back).passed


def test_cross_validate_summary_keys():
    result = cross_validate(to_relfa(chain(3)))
    assert result["direct"] is True
    assert result["nerve_built"] is True
    assert result["recognized"] is True
    assert result["rebuilt_valid"] is True
    assert result["round_trip"] is True


def test_cross_validate_reports_unrecognized_complexes():
    f = to_relfa(chain(1))
    broken = RelFA("unmarked", f.elements, f.mu, f.eta, f.delta, frozenset())
    result = cross_validate(broken)
    assert result["direct"] is False
    assert result["round_trip"] is False


def _level3_route(T) -> tuple[int, tuple | None]:
    """The 3-simplices of N(T) read off the sum table T: the number of
    triples (a, b, c) with (a + b) + c defined, and the first triple, in
    carrier order, where a + (b + c) is not that same value (None if there
    is none).  N(T) is read as 2-coskeletal, so a 3-simplex is a map from
    the boundary of simplex(3): a triple with both bracketings defined and
    equal.  On an associative table either bracketing is enough."""
    s = T.sums
    bracketed = {(a, b, c): (s.get((s.get((a, b)), c)), s.get((a, s.get((b, c)))))
                 for a in T.elements for b in T.elements for c in T.elements}
    left = sum(value is not None for value, _ in bracketed.values())
    return left, next((t for t, (x, y) in bracketed.items() if x != y), None)


def _witnessed_products(A) -> tuple[int, int]:
    """The triple products of the relational algebra A with one witness, in
    each bracketing: the (a, b, c, x, z) with x in a.b and z in x.c, and the
    (a, b, c, y, z) with y in b.c and z in a.y."""
    return (sum(ab == x for _, _, ab in A.mu for x, _, _ in A.mu),
            sum(bc == y for _, _, bc in A.mu for _, y, _ in A.mu))


def test_level_3_of_a_nerve_is_read_off_the_sum_table():
    """On every effect and pseudo effect algebra class of size at most 5,
    the maps simplex(3) -> N(T) are the triples with (a + b) + c defined."""
    tables = [T for kind in ("effect-algebra", "pseudo-effect-algebra")
              for n in range(1, 6) for T in enumerate_small(n, kind)]
    assert len(tables) == 21
    for T in tables:
        assert _level3_route(T) == (count_homs(simplex(3), nerve(to_relfa(T))), None), T.name


def test_level_3_route_breaks_on_a_non_associative_table(not_a_pea):
    """Without associativity the bracketings part: 22 triples each way, only
    19 agree, and those 19 are the 3-simplices.  The first triple with one
    bracketing defined is (a, b, 1): (a + b) + 1 = 1 + 1 = a, and b + 1 is
    undefined."""
    assert _level3_route(not_a_pea) == (22, ("a", "b", "1"))
    assert count_homs(simplex(3), nerve(to_relfa(not_a_pea))) == 19


def test_level_3_of_a_relational_nerve_is_the_2_coskeletal_completion():
    """On a multi-valued algebra a 3-simplex of N(A) is a map from the
    boundary of simplex(3), not a triple product in either bracketing:
    frob2_0, where x0.x0 = {x0, x1}, has 15 against 13 witnessed products
    each way.  The other relational classes of size at most 2 agree."""
    counts = {A.name: (*_witnessed_products(A), count_homs(simplex(3), nerve(A)))
              for n in (1, 2) for A in enumerate_small(n, "frobenius")}
    assert counts == {"frob1_0": (1, 1, 1), "frob2_0": (13, 13, 15), "frob2_1": (4, 4, 4),
                      "frob2_2": (8, 8, 8), "frob2_3": (8, 8, 8), "frob2_4": (2, 2, 2)}
