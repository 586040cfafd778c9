"""The internal orthogonality relation and classification of algebras.

The relation a ⊡ b internalizes "a and b mesh below every common bound":
whenever d decomposes through a on one side and b on the other, a middle
element must make the two decompositions agree.  For effect algebras it
coincides with "a ⊕ b is defined and equals the join", the independent
oracle that ``tests/test_ortho.py`` keeps, with the join read off the
derived order.  Classification reads off commutativity, cancellation, the
counit condition and unit count, decides the effect algebra
characterization from them, and then the orthoalgebra, orthomodular poset,
and braiding refinements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import RelFA
from .complexes import check_lifting, shape_from_name
from .nerve import nerve


def perp_relation(F: RelFA) -> frozenset[tuple[str, str]]:
    """Pairs (a, b) whose composite exists: some triangle has a as second
    leg and b as first."""
    return frozenset((x, y) for (x, y, z) in F.mu)


def boxslash_relation(F: RelFA) -> frozenset[tuple[str, str]]:
    """The relation a ⊡ b, by exhaustive check of the defining condition:
    for all p, q, d with d in mu(q, a) and d in mu(b, p) there is l with
    p in mu(l, a) and q in mu(b, l).  One pass over the pairs of triples
    sharing a result d collects the violating (a, b); the relation is the
    complement."""
    by_result: dict[str, list[tuple[str, str]]] = {}
    mid_by_yz: dict[tuple[str, str], set[str]] = {}
    mid_by_xz: dict[tuple[str, str], set[str]] = {}
    for (x, y, z) in F.mu:
        by_result.setdefault(z, []).append((x, y))
        mid_by_yz.setdefault((y, z), set()).add(x)
        mid_by_xz.setdefault((x, z), set()).add(y)
    empty: set[str] = set()
    violating = set()
    for pairs in by_result.values():
        for (q, a) in pairs:
            for (b, p) in pairs:
                if (a, b) not in violating and \
                        mid_by_yz.get((a, p), empty).isdisjoint(mid_by_xz.get((b, q), empty)):
                    violating.add((a, b))
    return frozenset((a, b) for a in F.elements for b in F.elements
                     if (a, b) not in violating)


def epsilon_boxslash(F: RelFA, boxslash: frozenset[tuple[str, str]] | None = None) -> list[str]:
    """The set of a with e ⊡ a for every counit e, in carrier order."""
    bx = boxslash if boxslash is not None else boxslash_relation(F)
    return [a for a in F.elements if all((e, a) in bx for e in F.epsilon)]


def is_commutative(F: RelFA) -> tuple[bool, tuple | None]:
    """Every triple's mirror is in mu.  The witness is the first triple of
    ``sorted(F.mu)`` without one, so it does not depend on the hash seed."""
    if all((y, x, z) in F.mu for x, y, z in F.mu):
        return True, None
    return False, next((x, y, z) for x, y, z in sorted(F.mu) if (y, x, z) not in F.mu)


def _cancellation_clash(triples) -> tuple | None:
    """The first clash, in the order of ``triples``, with partiality, and
    failing that with cancellation on either side."""
    by_xy: dict[tuple[str, str], str] = {}
    for (x, y, z) in triples:
        if by_xy.setdefault((x, y), z) != z:
            return (x, y, z, by_xy[(x, y)])
    left: dict[tuple[str, str], str] = {}
    right: dict[tuple[str, str], str] = {}
    for (x, y, z) in triples:
        if left.setdefault((x, z), y) != y:
            return (x, z, y, left[(x, z)])
        if right.setdefault((y, z), x) != x:
            return (y, z, x, right[(y, z)])
    return None


def is_cancellative(F: RelFA) -> tuple[bool, tuple | None]:
    """Partial (at most one composite per pair) plus cancellation on both
    sides.  A passing algebra is scanned once in set order; a failing one
    again in sorted order, so the witness does not depend on the hash seed."""
    if _cancellation_clash(F.mu) is None:
        return True, None
    return False, _cancellation_clash(sorted(F.mu))


@dataclass(frozen=True)
class ClassificationFlags:
    name: str
    commutative: bool
    cancellative: bool
    eta_singleton: bool
    epsilon_boxslash_is_eta: bool
    effect_algebra: bool
    orthoalgebra: bool | None
    orthomodular_poset: bool | None
    braided: bool | None
    witnesses: dict = field(default_factory=dict)
    cross_checks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "cross_checks": dict(self.cross_checks),
                "witnesses": {k: list(v) if isinstance(v, tuple) else v
                              for k, v in self.witnesses.items()}}


def _relational_join(F: RelFA, a: str, b: str) -> str | None:
    """Join in the order derived from the multiplication, if it exists."""
    below: dict[str, set[str]] = {x: set() for x in F.elements}
    for (x, y, z) in F.mu:
        below[z].add(y)
    for x in F.elements:
        below[x].add(x)
    uppers = [d for d in F.elements if a in below[d] and b in below[d]]
    least = [d for d in uppers if all(d in below[u] for u in uppers)]
    return least[0] if len(least) == 1 else None


def classify(F: RelFA) -> ClassificationFlags:
    """Full classification of a relational algebra.  Each flag that has an
    independent order-theoretic characterization is recomputed that way too,
    and the agreement verdicts are recorded alongside the flags."""
    witnesses: dict = {}
    commutative, w = is_commutative(F)
    if w:
        witnesses["commutative"] = w
    cancellative, w = is_cancellative(F)
    if w:
        witnesses["cancellative"] = w
    eta_singleton = len(F.eta) == 1
    if not eta_singleton:
        witnesses["eta_singleton"] = sorted(F.eta)
    bx = boxslash_relation(F)
    eps_bx = epsilon_boxslash(F, bx)
    epsilon_boxslash_is_eta = set(eps_bx) == set(F.eta)
    if not epsilon_boxslash_is_eta:
        diff = sorted(set(eps_bx) ^ set(F.eta))
        witnesses["epsilon_boxslash_is_eta"] = diff
    effect_algebra = commutative and cancellative and eta_singleton and epsilon_boxslash_is_eta

    singleton_condition = all(
        len([a for a in F.elements if (e, a) in bx]) == 1 for e in F.epsilon)
    cross_checks = {
        "counit_singleton_equivalence":
            singleton_condition == (epsilon_boxslash_is_eta and eta_singleton),
    }

    orthoalgebra = orthomodular_poset = None
    if effect_algebra:
        perp = perp_relation(F)
        zero = next(iter(F.eta))
        alpha_graph = set()
        for a in F.elements:
            partners = [l for l in F.elements
                        for e in F.epsilon if (a, l, e) in F.mu]
            if len(partners) == 1:
                alpha_graph.add((a, partners[0]))
        orthoalgebra = alpha_graph <= bx
        if not orthoalgebra:
            witnesses["orthoalgebra"] = sorted(alpha_graph - bx)[0]
        orthomodular_poset = perp == bx
        if not orthomodular_poset:
            witnesses["orthomodular_poset"] = sorted(perp ^ bx)[0]

        oa_order = all(a == zero for a in F.elements if (a, a) in perp)
        omp_order = True
        for (x, y, z) in F.mu:
            if _relational_join(F, y, x) != z:
                omp_order = False
                break
        cross_checks["orthoalgebra_order"] = (orthoalgebra == oa_order)
        cross_checks["orthomodular_poset_order"] = (orthomodular_poset == omp_order)

    braided = None
    try:
        N = nerve(F)
    except ValueError:
        pass
    else:
        left = check_lifting(shape_from_name("braiding-left"), N, mode="exists")
        right = check_lifting(shape_from_name("braiding-right"), N, mode="exists")
        braided = left.passed and right.passed
        if not braided:
            witnesses["braided"] = (left if not left.passed else right).failures[0]

    return ClassificationFlags(
        name=F.name,
        commutative=commutative,
        cancellative=cancellative,
        eta_singleton=eta_singleton,
        epsilon_boxslash_is_eta=epsilon_boxslash_is_eta,
        effect_algebra=effect_algebra,
        orthoalgebra=orthoalgebra,
        orthomodular_poset=orthomodular_poset,
        braided=braided,
        witnesses=witnesses,
        cross_checks=cross_checks)
