"""Exhaustive small-structure enumeration: frozen class counts, soundness
of every emitted structure, isomorph rejection, and the candidate stream."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json

import pytest

from relfa import enumerate_small as es
from relfa.algebra import RelFA, to_relfa, validate
from relfa.catalog import chain
from relfa.enumerate_small import (
    CANDIDATE_BOUND,
    KINDS,
    RELATIONAL_BOUND,
    TABLE_BOUND,
    enumerate_small,
    transported_delta,
)
from relfa.structio import structure_to_doc


def tables_isomorphic(s, t) -> bool:
    """Brute-force oracle: some bijection matching bottoms and tops
    transports every sum of one table exactly onto the other."""
    if len(s.elements) != len(t.elements) or len(s.sums) != len(t.sums):
        return False
    s_mid = [e for e in s.elements if e not in (s.zero, s.one)]
    t_mid = [e for e in t.elements if e not in (t.zero, t.one)]
    if len(s_mid) != len(t_mid):
        return False
    for image in itertools.permutations(t_mid):
        f = {s.zero: t.zero, s.one: t.one}
        f.update(zip(s_mid, image))
        if all(t.sums.get((f[a], f[b])) == f[c] for (a, b), c in s.sums.items()):
            return True
    return False


def test_kind_names_and_bounds():
    assert KINDS == ("effect-algebra", "pseudo-effect-algebra",
                     "frobenius", "frobenius-candidates")
    assert (TABLE_BOUND, RELATIONAL_BOUND, CANDIDATE_BOUND) == (5, 2, 4)


def test_effect_algebra_class_counts():
    counts = [len(enumerate_small(n, "effect-algebra")) for n in range(1, 6)]
    assert counts == [1, 1, 1, 3, 4]


def test_pseudo_effect_algebra_class_counts():
    counts = [len(enumerate_small(n, "pseudo-effect-algebra"))
              for n in range(1, 6)]
    assert counts == [1, 1, 1, 3, 5]


def test_every_enumerated_table_passes_its_validator():
    for n in range(1, 6):
        for t in enumerate_small(n, "effect-algebra"):
            assert validate("effect-algebra", t).passed, t.name
        for t in enumerate_small(n, "pseudo-effect-algebra"):
            assert validate("pseudo-effect-algebra", t).passed, t.name


def test_enumerated_tables_are_pairwise_nonisomorphic():
    for kind in ("effect-algebra", "pseudo-effect-algebra"):
        for n in range(1, 5):
            items = enumerate_small(n, kind)
            for s, t in itertools.combinations(items, 2):
                assert not tables_isomorphic(s, t), (s.name, t.name)


def test_size_two_class_is_the_two_chain():
    (t,) = enumerate_small(2, "effect-algebra")
    assert tables_isomorphic(t, chain(1))


def test_exactly_one_noncommutative_class_at_size_five():
    peas = enumerate_small(5, "pseudo-effect-algebra")
    noncomm = [t for t in peas if not validate("effect-algebra", t).passed]
    assert [t.name for t in noncomm] == ["pea5_4"]
    t = noncomm[0]
    # Three atoms whose supplements run around a cycle: a+b = b+c = c+a = top.
    tops = sorted((a, b) for (a, b), s in t.sums.items()
                  if s == t.one and t.zero not in (a, b))
    assert tops == [("a", "b"), ("b", "c"), ("c", "a")]
    assert validate("pseudo-effect-algebra", t).passed


def test_commutative_classes_embed_in_pseudo_enumeration():
    # Every commutative class appears among the pseudo classes of that size.
    for n in range(1, 6):
        eas = enumerate_small(n, "effect-algebra")
        peas = enumerate_small(n, "pseudo-effect-algebra")
        for t in eas:
            assert any(tables_isomorphic(t, p) for p in peas), t.name


def test_relational_class_counts_and_soundness():
    ones = enumerate_small(1, "frobenius")
    twos = enumerate_small(2, "frobenius")
    assert len(ones) == 1
    assert len(twos) == 5
    for f in ones + twos:
        assert validate("frobenius", f).passed, f.name
        assert f.delta == transported_delta(f.elements, f.mu, f.eta, f.epsilon)


def test_relational_forms_match_the_brute_force_loop():
    """Oracle: every (mu, eta, eps) on n elements with the transported
    comultiplication through the Frobenius validator, with no monoid-first
    pruning."""
    for n in (1, 2):
        els = tuple(f"x{k}" for k in range(n))
        triples = list(itertools.product(els, repeat=3))
        relations = [frozenset(itertools.compress(triples, bits))
                     for bits in itertools.product((0, 1), repeat=len(triples))]
        units = [frozenset(itertools.compress(els, bits))
                 for bits in itertools.product((0, 1), repeat=n)]
        found = set()
        for mu, eta, eps in itertools.product(relations, units, units):
            delta = transported_delta(els, mu, eta, eps)
            candidate = RelFA("candidate", els, mu, eta, delta, eps)
            if validate("frobenius", candidate).passed:
                found.add(es._relfa_canonical(candidate))
        assert es._relational_forms(n) == tuple(sorted(found))


def _full_assoc_conflict(T: dict, n: int) -> bool:
    """Oracle: some triple whose four lookups are all decided has the two
    association orders disagree, in definedness or in value."""
    open_ = object()
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, bc = T.get((a, b), open_), T.get((b, c), open_)
        left = ab if ab is open_ or ab is None else T.get((ab, c), open_)
        right = bc if bc is open_ or bc is None else T.get((a, bc), open_)
        if left is not open_ and right is not open_ and left != right:
            return True
    return False


@pytest.mark.parametrize("kind", ["effect-algebra", "pseudo-effect-algebra"])
def test_incremental_associativity_agrees_with_the_full_scan(monkeypatch, kind):
    """At every node of the table search the check of the triples reading
    the fresh cell (and its mirror) decides as the full n^3 scan does."""
    real = es._assoc_clash
    calls = []

    def recording(T, n, i, j):
        result = real(T, n, i, j)
        calls.append((tuple(sorted(T.items(), key=lambda kv: kv[0])), result))
        return result

    monkeypatch.setattr(es, "_assoc_clash", recording)
    for n in range(1, 6):
        assert not _full_assoc_conflict(es._forced_cells(n), n)
        calls.clear()
        assert es._table_forms.__wrapped__(n, kind) == es._table_forms(n, kind)
        # A mirrored cell is checked by up to two calls on one table.
        nodes: dict = {}
        for state, result in calls:
            nodes[state] = nodes.get(state, False) or result
        for state, clash in nodes.items():
            assert clash == _full_assoc_conflict(dict(state), n), state


def test_table_search_leaves_no_cyclic_garbage():
    """The table search holds no reference cycle: a call frees all of its
    state on return, and leaves nothing for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(es._table_forms.__wrapped__(5, "pseudo-effect-algebra")) == 5
        gc.collect()
        assert len(gc.garbage) == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_transported_delta_reproduces_translation():
    for t in (chain(1), chain(2)):
        f = to_relfa(t)
        assert transported_delta(f.elements, f.mu, f.eta, f.epsilon) == f.delta


def test_candidate_stream_counts():
    stream = enumerate_small(CANDIDATE_BOUND, "frobenius-candidates")
    assert len(stream) == 411
    verdicts = [validate("frobenius", c).passed for c in stream]
    assert verdicts.count(True) == 24
    assert verdicts.count(False) == 387


def test_candidate_stream_is_frozen():
    """Names, structures and order of the size-4 stream, pinned by digest."""
    stream = enumerate_small(4, "frobenius-candidates")
    assert len(stream) == 411
    docs = json.dumps([structure_to_doc(c) for c in stream], sort_keys=True)
    assert hashlib.sha256(docs.encode()).hexdigest() == \
        "a65f74c75173f93b07d1a2451a1d59ae55bb98bb89e5cd9c7af492f0f67df12a"


def test_candidate_stream_is_cumulative_and_deterministic():
    small = enumerate_small(2, "frobenius-candidates")
    large = enumerate_small(3, "frobenius-candidates")
    assert [c.name for c in large][: len(small)] == [c.name for c in small]
    again = enumerate_small(3, "frobenius-candidates")
    assert [c.signature() for c in again] == [c.signature() for c in large]


def test_bounds_are_enforced_with_clear_messages():
    with pytest.raises(ValueError, match="only up to size 5"):
        enumerate_small(6, "effect-algebra")
    with pytest.raises(ValueError, match="only up to size 5"):
        enumerate_small(6, "pseudo-effect-algebra")
    with pytest.raises(ValueError, match="only up to size 2"):
        enumerate_small(3, "frobenius")
    with pytest.raises(ValueError, match="only up to size 4"):
        enumerate_small(5, "frobenius-candidates")
    with pytest.raises(ValueError, match="unknown kind"):
        enumerate_small(2, "monoid")
    with pytest.raises(ValueError, match="positive integer"):
        enumerate_small(0, "effect-algebra")
