"""Exhaustive small-structure enumeration: frozen class counts, soundness
of every emitted structure, isomorph rejection, and the candidate stream."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
from collections import Counter

import pytest

from relfa import enumerate_small as es
from relfa.algebra import RelFA, _depth_first, _transport_delta, to_relfa, validate
from relfa.catalog import chain, wright_triangle
from relfa.enumerate_small import (
    CANDIDATE_BOUND,
    KINDS,
    RELATIONAL_BOUND,
    TABLE_BOUND,
    enumerate_small,
)
from relfa.mapping import pm_morphisms
from relfa.nerve import nerve, rotations
from relfa.structio import structure_to_doc


def transported_delta(elements, mu, eta, epsilon) -> frozenset:
    """Oracle: the comultiplication carried over from the multiplication by
    the right rotation of the probe's complex; empty when the data present
    no complex or the complex has no rotation."""
    probe = RelFA("probe", tuple(elements), frozenset(mu), frozenset(eta),
                  frozenset(), frozenset(epsilon))
    try:
        C = nerve(probe)
        _, beta = rotations(C)
    except ValueError:
        return frozenset()
    return _transport_delta(elements, beta, C.triangles)


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


def table_forms_oracle(n: int, kind: str) -> tuple:
    """Oracle: the sum-table search with no cut on missing supplements, every
    leaf through the validator and every passing leaf's form kept."""
    cls = es._TABLES[kind][0]
    commutative = kind == "effect-algebra"
    mids = range(1, n - 1)
    cells = [(i, j) for i in mids for j in mids if i <= j or not commutative]
    names = es._carrier(n)
    T = es._forced_cells(n)
    found = set()

    def options(k):
        return [None] + [v for v in range(1, n) if v not in cells[k]]

    def place(k, v):
        i, j = cells[k]
        mirrored = commutative and i != j
        T[(i, j)] = v
        if mirrored:
            T[(j, i)] = v
        if v == n - 1 and (es._supplement_clash(T, n, i, j)
                           or mirrored and es._supplement_clash(T, n, j, i)):
            return False
        return not (es._assoc_clash(T, n, i, j) or mirrored and es._assoc_clash(T, n, j, i))

    def clear(k):
        i, j = cells[k]
        del T[(i, j)]
        if commutative and i != j:
            del T[(j, i)]

    for _ in _depth_first(len(cells), options, place, clear):
        sums = {(names[a], names[b]): names[v] for (a, b), v in T.items() if v is not None}
        if validate(kind, cls("candidate", names, names[0], names[-1], sums)).passed:
            found.add(es._canonical_table(T, n))
    return tuple(sorted(found))


@pytest.mark.parametrize("kind, top_size", [("effect-algebra", 6),
                                            ("pseudo-effect-algebra", 5)])
def test_table_forms_match_the_search_without_the_existence_cut(kind, top_size):
    for n in range(1, top_size + 1):
        assert es._table_forms(n, kind) == table_forms_oracle(n, kind), n


def _full_missing_supplement(T: dict, n: int) -> bool:
    """Oracle: some row or column of the table is fully decided and holds
    no top."""
    lines = [[(r, c) for c in range(n)] for r in range(n)]
    lines += [[(r, c) for r in range(n)] for c in range(n)]
    return any(all(cell in T for cell in line) and n - 1 not in [T[cell] for cell in line]
               for line in lines)


@pytest.mark.parametrize("kind", ["effect-algebra", "pseudo-effect-algebra"])
def test_missing_supplement_cut_agrees_with_the_full_scan(monkeypatch, kind):
    """At every node of the table search the check of the row and column
    the fresh cell finishes cuts exactly when a full scan of every row and
    column finds one decided with no top."""
    real = es._supplement_missing
    calls = []

    def recording(T, n, i, j):
        result = real(T, n, i, j)
        calls.append((tuple(sorted(T.items(), key=lambda kv: kv[0])), result))
        return result

    monkeypatch.setattr(es, "_supplement_missing", recording)
    cuts = 0
    for n in range(1, 6):
        assert not _full_missing_supplement(es._forced_cells(n), n)
        calls.clear()
        assert es._table_forms.__wrapped__(n, kind) == es._table_forms(n, kind)
        for state, cut in calls:
            assert cut == _full_missing_supplement(dict(state), n), state
        cuts += sum(cut for _, cut in calls)
    assert cuts > 0


@pytest.mark.parametrize("n, kind, leaves, validations", [
    (5, "effect-algebra", 16, 4),
    (5, "pseudo-effect-algebra", 18, 5),
    (6, "effect-algebra", 142, 10),
    (6, "pseudo-effect-algebra", 168, 13),
])
def test_table_search_work_counts(monkeypatch, n, kind, leaves, validations):
    """Every leaf takes one canonical form, and the validator runs once per
    form: at size 6 one pseudo effect algebra form still fails it."""
    counts = Counter()

    def spy(name, real):
        def counting(*args):
            counts[name] += 1
            return real(*args)
        return counting

    monkeypatch.setattr(es, "_canonical_table", spy("leaves", es._canonical_table))
    monkeypatch.setattr(es, "validate", spy("validations", es.validate))
    es._table_forms.__wrapped__(n, kind)
    assert counts == {"leaves": leaves, "validations": validations}


def test_relational_search_work_counts(monkeypatch):
    """At size 2 only unit-strict multiplications with a nonempty unit set
    reach the monoid check."""
    kinds = Counter()
    real = es.validate

    def counting(kind, obj):
        kinds[kind] += 1
        return real(kind, obj)

    monkeypatch.setattr(es, "validate", counting)
    assert len(es._relational_forms.__wrapped__(2)) == 5
    assert kinds == {"rel-monoid": 68, "frobenius": 36}


def test_size_six_table_classes():
    """The search is ready for size 6 while TABLE_BOUND stays 5: 10
    commutative and 12 pseudo classes, 2 of them non-commutative, each
    passing its validator and no two isomorphic."""
    classes = {kind: [es._table_from_form(6, f, kind, k)
                      for k, f in enumerate(es._table_forms(6, kind))]
               for kind in ("effect-algebra", "pseudo-effect-algebra")}
    assert {kind: len(ts) for kind, ts in classes.items()} == \
        {"effect-algebra": 10, "pseudo-effect-algebra": 12}
    peas = classes["pseudo-effect-algebra"]
    assert sum(not validate("effect-algebra", t).passed for t in peas) == 2
    for kind, tables in classes.items():
        for t in tables:
            assert validate(kind, t).passed, t.name
        for s, t in itertools.combinations(tables, 2):
            assert not tables_isomorphic(s, t), (s.name, t.name)


@pytest.mark.parametrize("search, args, count", [
    (es._table_forms.__wrapped__, (5, "pseudo-effect-algebra"), 5),
    (es._relational_forms.__wrapped__, (2,), 5),
    (pm_morphisms, (wright_triangle(), wright_triangle()), 311),
], ids=["_table_forms", "_relational_forms", "pm_morphisms"])
def test_table_search_leaves_no_cyclic_garbage(search, args, count):
    """No exhaustive search holds a reference cycle: a call frees all of its
    state on return, and leaves nothing for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(search(*args)) == count
        gc.collect()
        assert len(gc.garbage) == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_transported_delta_reproduces_translation():
    for t in (chain(1), chain(2)):
        f = to_relfa(t)
        assert transported_delta(f.elements, f.mu, f.eta, f.epsilon) == f.delta


def test_enumeration_is_frozen():
    """Names, structures and order of every kind up to its bound, the
    candidate stream included, pinned by one digest."""
    digest = hashlib.sha256()
    for kind, bound in (("effect-algebra", 5), ("pseudo-effect-algebra", 5),
                        ("frobenius", 2), ("frobenius-candidates", 4)):
        for n in range(1, bound + 1):
            docs = [structure_to_doc(x) for x in enumerate_small(n, kind)]
            digest.update(json.dumps(docs, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "8024a2c61fc6cfb2e0156668613d479433c742a2dd45991864dc0fb0b7240342"


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
