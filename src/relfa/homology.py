"""Integer homology of truncated complexes and the universal group.

The chain complex is normalized: degree one is spanned by non-identity
edges, degree two by non-degenerate triangles.  First homology is computed
from exact Smith normal forms; for an effect algebra the same group arises
from the generators-and-relations presentation [a] - [a+b] + [b], and both
routes are exposed so they can be compared.
"""

from __future__ import annotations

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


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form D = U M V with U, V unimodular, D diagonal with
    successive divisibility.  Pivots take the least absolute nonzero entry,
    ties resolved in row-major order."""
    D, U, V, _, _ = smith_normal_form_full(M)
    return D, U, V


def smith_normal_form_full(M: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix, Matrix]:
    """As smith_normal_form, also returning the inverses of U and V,
    maintained alongside by applying the inverse row and column moves."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [list(r) for r in M]
    U, Uinv = identity_matrix(rows), identity_matrix(rows)
    V, Vinv = identity_matrix(cols), identity_matrix(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(dst, src, c):
        """row dst += c * row src"""
        D[dst] = [a + c * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]
        for r in Uinv:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        for r in D:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]
        Vinv[src] = [a - c * b for a, b in zip(Vinv[src], Vinv[dst])]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = D[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if D[t][t] < 0:
                negate_row(t)
            p = D[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // p))
                    if D[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // p))
                    if D[t][j]:
                        dirty = True
            if not dirty:
                good = True
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if D[i][j] % p:
                            add_row(t, i, 1)
                            good = False
                            break
                    if not good:
                        break
                if good:
                    break
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    a = D[i][j]
                    if a != 0 and (best is None or abs(a) < best):
                        best = abs(a)
                        pivot = (i, j)
        t += 1

    if matmul(matmul(U, M), V) != D:
        raise InvariantError("Smith normal form: U * M * V differs from D")
    for i in range(min(rows, cols) - 1):
        a, b = D[i][i], D[i + 1][i + 1]
        if not (b == 0 or (a != 0 and b % a == 0)):
            raise InvariantError(f"Smith normal form: {a} does not divide {b}")
    return D, U, V, Uinv, Vinv


def chain_matrices(X: TruncatedEpsilonComplex) -> tuple[Matrix, Matrix]:
    """Boundary matrices of the normalized chain complex.  Rows of the
    first are vertices, columns non-identity edges; rows of the second are
    non-identity edges, columns non-degenerate triangles.  Identity edge
    faces contribute zero."""
    verts = {v: i for i, v in enumerate(X.vertices)}
    edges = X.nonidentity_edges()
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in X.vertices]
    for j, e in enumerate(edges):
        d1[verts[X.tgt[e]]][j] += 1
        d1[verts[X.src[e]]][j] -= 1
    tris = X.nondegenerate_triangles()
    d2 = [[0] * len(tris) for _ in edges]
    for j, (f0, f1, f2) in enumerate(tris):
        for face, sign in ((f0, 1), (f1, -1), (f2, 1)):
            if face in eidx:
                d2[eidx[face]][j] += sign
    if any(any(row) for row in matmul(d1, d2)):
        raise InvariantError(f"{X.name}: d1 * d2 is not zero")
    return d1, d2


@dataclass(frozen=True)
class AbelianGroupPresentation:
    rank: int
    torsion: tuple[int, ...]
    generators: tuple[str, ...]
    relations: tuple[tuple[int, ...], ...]

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


def _presentation_from_matrix(B: Matrix, k: int, generators: tuple[str, ...],
                              relations: Matrix) -> AbelianGroupPresentation:
    """Quotient of Z^k by the column span of B (B has k rows)."""
    if k == 0:
        return AbelianGroupPresentation(0, (), generators,
                                        tuple(tuple(r) for r in relations))
    if not B or not B[0]:
        return AbelianGroupPresentation(k, (), generators,
                                        tuple(tuple(r) for r in relations))
    D, _, _ = smith_normal_form(B)
    factors = [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] != 0]
    rank = k - len(factors)
    torsion = tuple(d for d in factors if d > 1)
    return AbelianGroupPresentation(rank, torsion, generators,
                                    tuple(tuple(r) for r in relations))


def h1_of_complex(X: TruncatedEpsilonComplex) -> AbelianGroupPresentation:
    """First homology: kernel of the edge boundary modulo the image of the
    triangle boundary, via two Smith reductions."""
    d1, d2 = chain_matrices(X)
    edges = X.nonidentity_edges()
    n = len(edges)
    if n == 0:
        return AbelianGroupPresentation(0, (), (), ())
    D1, _, _, _, Vinv = smith_normal_form_full(d1)
    r = sum(1 for i in range(min(len(D1), n)) if D1[i][i] != 0)
    k = n - r
    if d2 and d2[0]:
        coords = matmul(Vinv, d2)
        for i in range(r):
            if any(coords[i]):
                raise InvariantError(f"{X.name}: triangle boundary leaves the kernel")
        B = coords[r:]
    else:
        B = [[] for _ in range(k)]
    return _presentation_from_matrix(
        B, k, edges, tuple(tuple(row) for row in d2))


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
    gens = tuple(E.elements)
    idx = {a: i for i, a in enumerate(gens)}
    cols = []
    for (a, b), c in sorted(E.sums.items()):
        col = [0] * len(gens)
        col[idx[a]] += 1
        col[idx[c]] -= 1
        col[idx[b]] += 1
        cols.append(col)
    B = [[col[i] for col in cols] for i in range(len(gens))]
    return _presentation_from_matrix(B, len(gens), gens,
                                     tuple(tuple(r) for r in B))


def full_chain_h1(X: TruncatedEpsilonComplex) -> AbelianGroupPresentation:
    """H1 computed without normalization, keeping identity edges and
    degenerate triangles.  Used to confirm the normalized computation."""
    edges = tuple(X.edges)
    verts = {v: i for i, v in enumerate(X.vertices)}
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in X.vertices]
    for j, e in enumerate(edges):
        d1[verts[X.tgt[e]]][j] += 1
        d1[verts[X.src[e]]][j] -= 1
    tris = sorted(X.triangles)
    d2 = [[0] * len(tris) for _ in edges]
    for j, (f0, f1, f2) in enumerate(tris):
        d2[eidx[f0]][j] += 1
        d2[eidx[f1]][j] -= 1
        d2[eidx[f2]][j] += 1
    n = len(edges)
    if n == 0:
        return AbelianGroupPresentation(0, (), (), ())
    D1, _, _, _, Vinv = smith_normal_form_full(d1)
    r = sum(1 for i in range(min(len(D1), n)) if D1[i][i] != 0)
    k = n - r
    if d2 and d2[0]:
        coords = matmul(Vinv, d2)
        for i in range(r):
            if any(coords[i]):
                raise InvariantError(f"{X.name}: triangle boundary leaves the kernel")
        B = coords[r:]
    else:
        B = [[] for _ in range(k)]
    return _presentation_from_matrix(B, k, edges, tuple(tuple(r) for r in d2))
