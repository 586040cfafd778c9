"""Integer matrix reduction and first homology of nerves, cross-checked
against the directly presented universal group."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relfa
from relfa.algebra import SumTable, to_relfa
from relfa.catalog import boolean, chain, cyclic_group_algebra
from relfa.complexes import make_complex
from relfa.homology import (
    AbelianGroupPresentation,
    chain_matrices,
    full_chain_h1,
    h1_of_complex,
    h1_universal_group,
    identity_matrix,
    matmul,
    smith_normal_form_full,
    universal_group_presentation,
)
from relfa.nerve import nerve


def test_matrix_helpers():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert matmul([[1, 2]], [[3], [4]]) == [[11]]


def test_smith_normal_form_diagonalizes_with_unimodular_factors():
    M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    D, U, V = smith_normal_form_full(M)
    assert matmul(matmul(U, M), V) == D
    diag = [D[i][i] for i in range(len(D))]
    assert diag == [2, 2, 156]
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0
    off = [D[i][j] for i in range(len(D)) for j in range(len(D[0])) if i != j]
    assert all(v == 0 for v in off)


def _integer_inverse_2x2(A):
    """The inverse of a 2x2 integer matrix of determinant +-1 (adjugate
    times the determinant)."""
    (a, b), (c, d) = A
    det = a * d - b * c
    assert det in (1, -1)
    return [[det * d, -det * b], [-det * c, det * a]]


def test_smith_normal_form_full_tracks_inverses():
    M = [[4, 6], [2, 8]]
    D, U, V = smith_normal_form_full(M)
    n = len(M)
    Uinv, Vinv = _integer_inverse_2x2(U), _integer_inverse_2x2(V)
    assert matmul(U, Uinv) == identity_matrix(n)
    assert matmul(V, Vinv) == identity_matrix(n)
    assert matmul(matmul(U, M), V) == D
    assert [D[0][0], D[1][1]] == [2, 10] and D[0][1] == D[1][0] == 0
    assert matmul(matmul(Uinv, D), Vinv) == M


def _det(A):
    """Exact integer determinant by cofactor expansion along the first row."""
    if not A:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in A[1:]])
               for j, a in enumerate(A[0]) if a)


def _invariant_factors(M):
    """d_k / d_(k-1) for every k with d_k != 0, where d_k is the gcd of all
    k x k minors of M and d_0 = 1; no elimination involved."""
    rows, cols = len(M), len(M[0]) if M else 0
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for I in itertools.combinations(range(rows), k):
            for J in itertools.combinations(range(cols), k):
                d = math.gcd(d, _det([[M[i][j] for j in J] for i in I]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4)))
def test_smith_normal_form_agrees_with_the_minors(M):
    """D is diagonal with non-negative entries each dividing the next,
    U M V = D with det U and det V = +-1, and the nonzero diagonal is the
    list of invariant factors read off the minors of M."""
    D, U, V = smith_normal_form_full(M)
    rows, cols = len(M), len(M[0]) if M else 0
    assert [len(r) for r in D] == [cols] * rows
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diagonal = [D[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diagonal)
    assert all(b == 0 if a == 0 else b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
    assert matmul(matmul(U, M), V) == D
    assert _det(U) in (1, -1) and _det(V) in (1, -1)
    assert [d for d in diagonal if d] == _invariant_factors(M)


def test_presentation_formatting():
    assert AbelianGroupPresentation(0, ()).format() == "0"
    assert AbelianGroupPresentation(1, ()).format() == "Z"
    assert AbelianGroupPresentation(3, ()).format() == "Z^3"
    assert AbelianGroupPresentation(1, (2,)).format() == "Z + Z/2"
    assert AbelianGroupPresentation(0, (4,)).format() == "Z/4"
    assert AbelianGroupPresentation(2, (2,)).invariants() == (2, (2,))


def test_h1_of_chains_is_infinite_cyclic():
    for n in range(1, 6):
        assert h1_universal_group(chain(n)).format() == "Z"


def test_h1_of_boolean_powers_is_free_of_matching_rank():
    assert h1_universal_group(boolean(1)).format() == "Z"
    assert h1_universal_group(boolean(2)).format() == "Z^2"
    assert h1_universal_group(boolean(3)).format() == "Z^3"


def test_h1_of_group_algebras_is_the_group():
    for n in range(2, 6):
        pres = h1_universal_group(cyclic_group_algebra(n))
        assert pres.format() == f"Z/{n}"


def test_h1_frozen_values_on_catalog_entries(catalog):
    """Both nerve routes, and the direct presentation of every sum table,
    on every catalog entry."""
    expected = {
        "chain(1)": "Z", "chain(2)": "Z", "chain(3)": "Z", "chain(4)": "Z",
        "chain(5)": "Z", "boolean(1)": "Z", "boolean(2)": "Z^2",
        "boolean(3)": "Z^3", "zk_interval(2,1)": "Z^2",
        "zk_interval(1,1,1)": "Z^3", "group_algebra(Z/2)": "Z/2",
        "group_algebra(Z/3)": "Z/3", "group_algebra(Z/4)": "Z/4",
        "group_algebra(Z/5)": "Z/5", "wright-triangle": "Z^4",
        "horizontal_sum(chain(2),chain(2))": "Z + Z/2",
        "horizontal_sum(boolean(2),chain(3))": "Z^2",
    }
    assert sorted(catalog) == sorted(expected)
    for name, group in expected.items():
        obj = catalog[name]
        N = nerve(to_relfa(obj) if isinstance(obj, SumTable) else obj)
        assert h1_of_complex(N).format() == group, name
        assert full_chain_h1(N).format() == group, name
        if isinstance(obj, SumTable):
            assert universal_group_presentation(obj).format() == group, name


def test_direct_presentation_matches_nerve_homology(catalog):
    for name, obj in catalog.items():
        if not isinstance(obj, SumTable):
            continue
        nerve_side = h1_universal_group(obj)
        direct = universal_group_presentation(obj)
        assert nerve_side.invariants() == direct.invariants(), name


def test_h1_accepts_complexes_tables_and_relational_algebras():
    t = chain(2)
    via_table = h1_universal_group(t)
    via_relfa = h1_universal_group(to_relfa(t))
    via_complex = h1_universal_group(nerve(to_relfa(t)))
    assert via_table.invariants() == via_relfa.invariants() == via_complex.invariants()
    with pytest.raises(TypeError):
        h1_universal_group("chain(2)")


def test_full_chain_route_agrees():
    for t in (chain(2), boolean(2)):
        N = nerve(to_relfa(t))
        assert full_chain_h1(N).invariants() == h1_of_complex(N).invariants()


def _torsion_complex():
    """Loops a at v and c at w, an edge b from v to w, and one triangle
    (a, iv, a) whose boundary is 2a: rank d1 = 1, rank d2 = 1."""
    src = {"a": "v", "b": "v", "c": "w", "iv": "v", "iw": "w"}
    tgt = {"a": "v", "b": "w", "c": "w", "iv": "v", "iw": "w"}
    return make_complex("torsion", ("v", "w"), ("a", "b", "c", "iv", "iw"),
                        src, tgt, {"v": "iv", "w": "iw"}, [("a", "iv", "a")], ())


def test_h1_with_edge_boundary_rank_and_torsion():
    X = _torsion_complex()
    d1, d2 = chain_matrices(X)
    assert d2 == [[2], [0], [0]]
    D1 = smith_normal_form_full(d1)[0]
    assert [D1[0][0], D1[1][1]] == [1, 0]
    assert h1_of_complex(X).format() == "Z + Z/2"
    assert full_chain_h1(X).format() == "Z + Z/2"


def test_chain_matrices_shapes():
    N = nerve(to_relfa(chain(2)))
    d1, d2 = chain_matrices(N)
    edges = N.nonidentity_edges()
    assert len(d1) == len(N.vertices)
    assert all(len(row) == len(edges) for row in d1)
    assert len(d2) == len(edges)


_BROKEN_INVARIANTS = textwrap.dedent("""
    import sys
    from types import SimpleNamespace

    import relfa.homology as homology
    import relfa.mapping as mapping
    from relfa import InvariantError
    from relfa.algebra import to_relfa
    from relfa.catalog import chain
    from relfa.nerve import nerve

    print("optimize", sys.flags.optimize)
    homology.matmul = lambda A, B: [[1]]
    try:
        homology.smith_normal_form_full([[2]])
    except InvariantError as exc:
        print("homology:", exc)
    # Only the interval blocks fail, so the input check lets chain(1) through.
    mapping.validate = lambda kind, structure: SimpleNamespace(
        passed=structure.name == "chain(1)")
    try:
        mapping.hom_object_ea(chain(1), chain(1))
    except InvariantError as exc:
        print("mapping:", exc)
    # One morphism out of the 1-prism found twice: two edges, one face key.
    search = mapping.hom_maps
    mapping.hom_maps = lambda X, Y: search(X, Y)[:1] * 2
    N = nerve(to_relfa(chain(1)))
    try:
        mapping.mapping_complex(N, N)
    except InvariantError as exc:
        print("mapping:", exc)
""")


def test_invariants_are_checked_under_python_O():
    """The internal invariants raise InvariantError even when python -O
    strips assert statements."""
    env = dict(os.environ, PYTHONPATH=str(Path(relfa.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "homology: Smith normal form: U * M * V differs from D",
        "mapping: chain(1)[0,1] is not an effect algebra",
        "mapping: mapping complex: two morphisms share a face key",
    ]
