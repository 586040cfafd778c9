"""Nerves of relational Frobenius algebras and their recognition.

The nerve of an algebra is an edge-marked complex: vertices are the
idempotent unit elements, every element becomes an edge between its two
absorbing units, counit elements are marked, and triangles record the
multiplication relation.  Recognition goes the other way: a complex is the
nerve of an algebra exactly when the marked outer horn fillers in dimensions
1 to 3 are unique and the associativity shape extends.  From a recognized
complex the algebra is rebuilt, with the comultiplication recovered by
rotating the multiplication through marked fillers.
"""

from __future__ import annotations

from .algebra import CheckResult, RelFA, ValidationReport, _transport_delta, validate
from .complexes import (
    TruncatedEpsilonComplex,
    check_lifting,
    make_complex,
    shape_from_name,
)


def unit_vertices(A: RelFA) -> list[str]:
    """The idempotent unit elements, in carrier order."""
    return [u for u in A.elements if u in A.eta and (u, u, u) in A.mu]


def element_endpoints(A: RelFA) -> tuple[dict[str, str], dict[str, str]]:
    """Source and target of every element: the unique idempotent units
    absorbing it on each side.  Raises if some element has none or many."""
    vertices = unit_vertices(A)
    src, tgt = {}, {}
    for a in A.elements:
        sources = [u for u in vertices if (a, u, a) in A.mu]
        targets = [v for v in vertices if (v, a, a) in A.mu]
        if len(sources) != 1 or len(targets) != 1:
            raise ValueError(
                f"{A.name}: element {a!r} has {len(sources)} absorbing sources "
                f"and {len(targets)} absorbing targets; need exactly one of each")
        src[a], tgt[a] = sources[0], targets[0]
    return src, tgt


def nerve(A: RelFA) -> TruncatedEpsilonComplex:
    """The edge-marked complex of an algebra.  Requires every element to
    absorb a unique pair of idempotent units, which holds for every valid
    algebra considered here."""
    vertices = unit_vertices(A)
    src, tgt = element_endpoints(A)
    identity = {u: u for u in vertices}
    return make_complex(
        f"nerve({A.name})",
        vertices, tuple(A.elements), src, tgt, identity,
        [(x, z, y) for x, y, z in A.mu], frozenset(A.epsilon))


RECOGNITION_SHAPES: tuple[tuple[str, str], ...] = (
    ("ehorn-1-0", "unique"),
    ("ehorn-1-1", "unique"),
    ("ehorn-2-0", "unique"),
    ("ehorn-2-2", "unique"),
    ("ehorn-3-0", "unique"),
    ("ehorn-3-3", "unique"),
    ("assoc-02", "exists"),
)


def recognize_nerve(C: TruncatedEpsilonComplex) -> ValidationReport:
    """Check the lifting conditions that characterize nerves, one check per
    entry of ``RECOGNITION_SHAPES`` in that order; the report carries the
    note "not a nerve" when one fails.  The inner horns and the second
    associativity shape are not conditions: the nerve of a partial sum
    table fails horn-2-1.  Run ``check_lifting`` on them directly."""
    checks = []
    for shape_name, mode in RECOGNITION_SHAPES:
        report = check_lifting(shape_from_name(shape_name), C, mode=mode)
        witness = report.failures[0] if report.failures else None
        checks.append(CheckResult(
            name=f"{shape_name}:{mode}",
            passed=report.passed,
            witness=witness,
            detail=f"{report.boundaries} boundary morphisms checked"))
    notes = () if all(c.passed for c in checks) else ("not a nerve",)
    return ValidationReport(kind="nerve-recognition", name=C.name,
                            checks=tuple(checks), notes=notes)


def marked_edges(C: TruncatedEpsilonComplex) -> tuple[dict[str, str], dict[str, str]]:
    """The unique marked edge out of each vertex and the unique one into
    each vertex.  Raises ValueError at the first vertex with none or several,
    checking every vertex's outgoing edges before any incoming ones."""
    found = []
    for end, direction in ((C.src, "outgoing"), (C.tgt, "incoming")):
        one: dict[str, str] = {}
        for v in C.vertices:
            es = sorted(e for e in C.marked if end[e] == v)
            if len(es) != 1:
                raise ValueError(
                    f"{C.name}: vertex {v!r} has {len(es)} marked {direction} edges")
            one[v] = es[0]
        found.append(one)
    return found[0], found[1]


def rotations(C: TruncatedEpsilonComplex) -> tuple[dict[str, str], dict[str, str]]:
    """The two edge rotations of a recognized complex.

    alpha sends an edge to the unique left factor completing it to a marked
    composite; beta to the unique right factor.  Both are inverse-like
    companions recovered from marked horn fillers.
    """
    mo, mi = marked_edges(C)
    index = C._target_index
    alpha: dict[str, str] = {}
    beta: dict[str, str] = {}
    for a in C.edges:
        ls = index.d2_of.get((a, mi[C.tgt[a]]), [])
        ms = index.d0_of.get((mo[C.src[a]], a), [])
        if len(ls) != 1:
            raise ValueError(f"{C.name}: edge {a!r} has {len(ls)} left rotations")
        if len(ms) != 1:
            raise ValueError(f"{C.name}: edge {a!r} has {len(ms)} right rotations")
        alpha[a] = ls[0]
        beta[a] = ms[0]
    return alpha, beta


def nerve_to_algebra(C: TruncatedEpsilonComplex) -> RelFA:
    """Rebuild the algebra of a recognized complex.  The multiplication
    reads off the triangles; the comultiplication is transported through the
    right rotation."""
    _, beta = rotations(C)
    return RelFA(
        name=f"algebra({C.name})",
        elements=tuple(C.edges),
        mu=frozenset((d0, d2, d1) for d0, d1, d2 in C.triangles),
        eta=frozenset(C.identity.values()),
        delta=_transport_delta(C.edges, beta, C.triangles),
        epsilon=frozenset(C.marked))


def cross_validate(A: RelFA) -> dict:
    """Round trip an algebra through its nerve and back, reporting the
    recognition verdict, the rebuilt algebra's validation, and whether the
    round trip reproduced the original data.  Recognition guarantees the
    unique marked edges and rotations the rebuild reads, so an error there
    is a bug and propagates."""
    result: dict = {"name": A.name}
    direct = validate("frobenius", A)
    result["direct"] = direct.passed
    try:
        N = nerve(A)
    except ValueError as exc:
        result.update(nerve_built=False, recognized=False, round_trip=False,
                      detail=str(exc))
        return result
    result["nerve_built"] = True
    rec = recognize_nerve(N)
    result["recognized"] = rec.passed
    if not rec.passed:
        result["round_trip"] = False
        result["detail"] = "; ".join(c.name for c in rec.failing())
        return result
    B = nerve_to_algebra(N)
    back = validate("frobenius", B)
    result["rebuilt_valid"] = back.passed
    result["round_trip"] = (
        tuple(B.elements) == tuple(A.elements)
        and B.mu == A.mu and B.eta == A.eta
        and B.delta == A.delta and B.epsilon == A.epsilon)
    return result
