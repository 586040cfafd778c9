"""Integer homology of truncated complexes and the universal group.

One rule gives first homology.  For boundary matrices d1 d2 = 0 over n
edges, ker d1 is a direct summand of Z^n, since Z^n / ker d1 embeds in the
free group on the vertices; so H1 = Z^(n - rank d1 - rank d2) plus the
invariant factors of d2 greater than 1 (Munkres 1984, section 11), all read
off exact Smith normal forms.  The chain complex is normalized (non-identity
edges, non-degenerate triangles); the full chain complex goes through the
same rule as a cross-check of the normalization, and so does the universal
group of an effect algebra presented by relations [a] - [a+b] + [b].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import InvariantError, RelFA, SumTable, to_relfa
from .complexes import TruncatedEpsilonComplex
from .nerve import nerve

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Matrix, B: Matrix) -> Matrix:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def smith_normal_form_full(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form D = U M V with U, V unimodular, D diagonal with
    successive divisibility.  Pivots take the least absolute nonzero entry,
    ties resolved in row-major order.  U and V certify the result: the
    product U M V and the divisibility are checked before returning.  The
    rows of A are those of [D | U] and V sits under D's columns, so each
    operation updates each matrix once."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(r) + u for r, u in zip(M, identity_matrix(rows))]
    V = identity_matrix(cols)
    t = 0
    while t < min(rows, cols):
        # The pivot: the least absolute nonzero entry of the block from (t, t).
        pivot, best = None, 0
        for i in range(t, rows):
            row = A[i]
            for j in range(t, cols):
                a = row[j]
                if a and (not best or abs(a) < best):
                    pivot, best = (i, j), abs(a)
        if pivot is None:
            break
        i, j = pivot
        A[t], A[i] = A[i], A[t]
        if j != t:
            for r in itertools.chain(A, V):
                r[t], r[j] = r[j], r[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        top = A[t]
        p = top[t]
        remainder = False
        for i in range(t + 1, rows):
            if A[i][t]:
                c = A[i][t] // p
                A[i] = [a - c * b for a, b in zip(A[i], top)]
                remainder = remainder or A[i][t] != 0
        for j in range(t + 1, cols):
            if top[j]:
                c = top[j] // p
                for r in itertools.chain(A, V):
                    r[j] -= c * r[t]
                remainder = remainder or top[j] != 0
        if remainder:
            continue
        # A row the pivot does not divide is added to row t, and the pivot
        # is picked again.  Every entry is a multiple of 1.
        bad = next((i for i in range(t + 1, rows) if p > 1
                    and any(A[i][j] % p for j in range(t + 1, cols))), None)
        if bad is None:
            t += 1
        else:
            A[t] = [a + b for a, b in zip(top, A[bad])]

    D, U = [r[:cols] for r in A], [r[cols:] for r in A]
    if matmul(matmul(U, M), V) != D:
        raise InvariantError("Smith normal form: U * M * V differs from D")
    for i in range(min(rows, cols) - 1):
        a, b = D[i][i], D[i + 1][i + 1]
        if not (b == 0 or (a != 0 and b % a == 0)):
            raise InvariantError(f"Smith normal form: {a} does not divide {b}")
    return D, U, V


def _boundary_matrices(X: TruncatedEpsilonComplex, edges, triangles
                       ) -> tuple[Matrix, Matrix]:
    """Boundary matrices over the given edges and triangles.  Rows of d1
    are vertices, columns edges; rows of d2 are edges, columns triangles.
    A triangle face outside `edges` contributes zero."""
    verts = {v: i for i, v in enumerate(X.vertices)}
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in X.vertices]
    for j, e in enumerate(edges):
        d1[verts[X.tgt[e]]][j] += 1
        d1[verts[X.src[e]]][j] -= 1
    d2 = [[0] * len(triangles) for _ in edges]
    for j, (f0, f1, f2) in enumerate(triangles):
        for face, sign in ((f0, 1), (f1, -1), (f2, 1)):
            if face in eidx:
                d2[eidx[face]][j] += sign
    if any(any(row) for row in matmul(d1, d2)):
        raise InvariantError(f"{X.name}: d1 * d2 is not zero")
    return d1, d2


def chain_matrices(X: TruncatedEpsilonComplex) -> tuple[Matrix, Matrix]:
    """Boundary matrices of the normalized chain complex: non-identity
    edges and non-degenerate triangles; identity edge faces contribute
    zero."""
    return _boundary_matrices(X, X.nonidentity_edges(),
                              X.nondegenerate_triangles())


@dataclass(frozen=True)
class AbelianGroupPresentation:
    rank: int
    torsion: tuple[int, ...]

    def format(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        return self.rank, self.torsion

    def to_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion),
                "group": self.format()}


def _h1(d1: Matrix, d2: Matrix) -> AbelianGroupPresentation:
    """ker d1 / im d2 for d1 d2 = 0, where n, the number of rows of d2, is
    the number of edges: rank n - rank d1 - rank d2, torsion the invariant
    factors of d2 greater than 1."""

    def nonzero_diagonal(M: Matrix) -> list[int]:
        D = smith_normal_form_full(M)[0]
        return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))
                if D[i][i]]

    factors = nonzero_diagonal(d2)
    rank = len(d2) - len(nonzero_diagonal(d1)) - len(factors)
    return AbelianGroupPresentation(rank, tuple(d for d in factors if d > 1))


def h1_of_complex(X: TruncatedEpsilonComplex) -> AbelianGroupPresentation:
    """First homology of the normalized chain complex."""
    return _h1(*chain_matrices(X))


def h1_universal_group(obj) -> AbelianGroupPresentation:
    """H1 of a complex, or of the nerve of a (pseudo) effect algebra or
    relational algebra.  For an effect algebra this is its universal
    group."""
    if isinstance(obj, TruncatedEpsilonComplex):
        return h1_of_complex(obj)
    if isinstance(obj, SumTable):
        return h1_of_complex(nerve(to_relfa(obj)))
    if isinstance(obj, RelFA):
        return h1_of_complex(nerve(obj))
    raise TypeError(f"cannot compute homology of {type(obj).__name__}")


def universal_group_presentation(E: SumTable) -> AbelianGroupPresentation:
    """The universal group presented directly: one generator per element,
    one relation [a] - [a+b] + [b] per defined sum."""
    idx = {a: i for i, a in enumerate(E.elements)}
    relations = [[0] * len(E.sums) for _ in E.elements]
    for j, ((a, b), c) in enumerate(E.sums.items()):
        relations[idx[a]][j] += 1
        relations[idx[c]][j] -= 1
        relations[idx[b]][j] += 1
    return _h1([], relations)


def full_chain_h1(X: TruncatedEpsilonComplex) -> AbelianGroupPresentation:
    """H1 computed without normalization, keeping identity edges and
    degenerate triangles.  Used to confirm the normalized computation."""
    return _h1(*_boundary_matrices(X, X.edges, sorted(X.triangles)))
