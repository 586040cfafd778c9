"""The four workloads: seeded inputs, the ops that run on them, and the
frozen verdicts every op is checked against.

An op is one verdict-producing call.  The seed drives a relabeling of the
element names and a shuffle of the declaration order of every input;
verdicts are invariant under both, so the expected verdicts below do not
depend on the seed.  Every set of inputs is fixed here, including the
enumeration bounds, so that a change to the program's own limits does not
change what the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from relfa.algebra import RelFA, SumTable, relabel_relfa, relabel_table, to_relfa
from relfa.catalog import boolean, chain, construct_catalog, wright_triangle, zk_interval
from relfa.complexes import check_lifting, shape_from_name
from relfa.enumerate_small import enumerate_small
from relfa.homology import full_chain_h1, h1_of_complex
from relfa.mapping import (
    eval_fibration_check,
    hom_complex_invariants,
    mapping_complex,
    verify_mapping_theorem,
)
from relfa.nerve import cross_validate, nerve
from relfa.ortho import classify
from relfa.structio import save_structure

# Enumeration bounds of every kind at the time the benchmark was defined.
ENUM_BOUNDS = (("effect-algebra", 5), ("pseudo-effect-algebra", 5),
               ("frobenius", 2), ("frobenius-candidates", 4))

GROUP_ALGEBRAS = frozenset(f"group_algebra(Z/{n})" for n in range(2, 6))


@dataclass(frozen=True)
class Op:
    """One verdict-producing call.  `check` maps the call's result to
    (verdict matches the frozen one, a JSON-ready record of the verdict)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, object]]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    final_check: Callable[[list], list[str]] = lambda records: []


def spread(items: list) -> tuple:
    """The items in one fixed shuffled order, the same for every seed.

    Ops of similar cost are declared next to each other; run in that order
    they would share one slow or fast spell of the shared host, which moves
    a whole cost class and with it the latency percentiles.  Spread over
    the run, their noise averages out instead."""
    items = list(items)
    random.Random(len(items)).shuffle(items)
    return tuple(items)


# ---------------------------------------------------------------------------
# Seeded relabeling and reordering


def _fresh_names(elements, rng: random.Random) -> dict[str, str]:
    picks = rng.sample(range(10 * len(elements) + 10), len(elements))
    return {a: f"x{k}" for a, k in zip(elements, picks)}


def scramble(obj, rng: random.Random):
    """The same structure under fresh element names, with its carrier (and,
    for sum tables, its sum entries) declared in a shuffled order.

    The first and last declared elements keep their places: every carrier
    here is declared bottom (or unit) first and top last, and the lazy
    witness search scans boundaries in declared order.  With the unit first
    the horn(1,1) square on the Wright triangle scans about 2*10^4
    boundaries; with a random element first it stops at the first one.
    """
    names = _fresh_names(obj.elements, rng)
    inner = list(obj.elements[1:-1])
    rng.shuffle(inner)
    order = tuple(names[a] for a in (obj.elements[:1] + tuple(inner)
                                     + obj.elements[1:][-1:]))
    if isinstance(obj, SumTable):
        t = relabel_table(obj, names)
        sums = list(t.sums.items())
        rng.shuffle(sums)
        return type(t)(t.name, order, t.zero, t.one, dict(sums))
    f = relabel_relfa(obj, names)
    return RelFA(f.name, order, f.mu, f.eta, f.delta, f.epsilon, f.notes)


def _relational(obj) -> RelFA:
    return obj if isinstance(obj, RelFA) else to_relfa(obj)


def scrambled_catalog(rng: random.Random) -> dict[str, object]:
    return {name: scramble(obj, rng) for name, obj in construct_catalog().items()}


# ---------------------------------------------------------------------------
# lift-pushout: pushout-product squares of acceptance criterion 7


HORN_SQUARES = tuple(f"box(horn-2-{i},horn-2-{j})" for i in range(3) for j in range(3))
WEDGE_SQUARES = tuple(f"box(horn-2-{i},wedge-02-1)" for i in range(3))
INNER_SQUARE = "box(horn-2-1,horn-2-1)"
CUP = "box(vertex-0-in-edge,boundary-2)"
UNSOUND_BOUNDARY_SQUARES = ("box(boundary-0,boundary-2)", "box(boundary-1,boundary-1)",
                            "box(boundary-2,boundary-0)")
LARGE_BOUNDARY_SQUARES = ("box(boundary-1,boundary-2)", "box(boundary-2,boundary-1)")
# The horn and wedge squares run on these targets, 45-200 ms each.  The two
# 2-element chains form a plateau of 24 ops at about 60 ms with as many ops
# below it as above it, so the median op falls inside the plateau instead of
# on a gap between cost classes, where host noise would move it most.
HORN_TARGETS = ("chain(1)", "boolean(1)", "chain(2)", "group_algebra(Z/2)",
                "boolean(2)")
# The large boundary squares and the cup run on the catalog entries with
# five or six elements, 50-400 ms each.
LARGE_TARGET_SIZES = (5, 6)
# The routes of check_lifting the sweeps reach only on small problems, each
# pair with the route its report must name: enumeration failing on 4*10^3
# boundaries, count comparison passing on 390625, and count comparison
# failing, which always goes on to the lazy witness search.  A failure that
# search leaves without a witness is counted (witnessless_fails), not failed.
ROUTE_PROBES = {
    (INNER_SQUARE, "chain(4)"): "enumeration",
    ("box(horn-2-0,horn-2-0)", "group_algebra(Z/5)"): "count-comparison",
    (INNER_SQUARE, "wright-triangle"): "count-comparison",
}


def lift_pairs() -> list[tuple[str, str]]:
    catalog = construct_catalog()
    large = [t for t, obj in catalog.items() if len(obj.elements) in LARGE_TARGET_SIZES]
    pairs = [(s, t) for s in UNSOUND_BOUNDARY_SQUARES for t in catalog]
    pairs += [(s, t) for s in LARGE_BOUNDARY_SQUARES + (CUP,) for t in large]
    pairs += [(s, t) for s in HORN_SQUARES + WEDGE_SQUARES for t in HORN_TARGETS]
    pairs += list(ROUTE_PROBES)
    return pairs


def expected_lifting(shape: str, target: str) -> tuple[bool, bool]:
    """(passes, a failure must carry a witness), from criterion 7: the
    sound squares pass, the horn(1,1) square passes exactly on the group
    algebras, and the m+n = 2 boundary squares fail everywhere."""
    if shape == INNER_SQUARE:
        return target in GROUP_ALGEBRAS, False
    if shape in UNSOUND_BOUNDARY_SQUARES:
        return False, True
    return True, False


def lift_pushout(seed: int, work: Path) -> Workload:
    rng = random.Random(f"lift-pushout:{seed}")
    nerves = {name: nerve(_relational(obj)) for name, obj in scrambled_catalog(rng).items()}
    pairs = lift_pairs()
    shapes = {s: shape_from_name(s) for s in dict.fromkeys(s for s, _ in pairs)}
    ops = []
    for s, t in pairs:
        passes, needs_witness = expected_lifting(s, t)

        def check(report, passes=passes, needs_witness=needs_witness,
                  route=ROUTE_PROBES.get((s, t))):
            ok = (report.passed == passes
                  and (passes or not needs_witness or bool(report.failures))
                  and route in (None, report.method))
            return ok, report.to_dict()

        ops.append(Op(f"{s} -> {t}",
                      lambda shape=shapes[s], X=nerves[t]: check_lifting(shape, X),
                      check))
    return Workload(spread(ops))


# ---------------------------------------------------------------------------
# recognize-stream: criterion 1 over the candidate stream and the catalog


CANDIDATES = 411 + 17
PASSING_CANDIDATES = 24 + 17


def _cross_check(c: RelFA) -> dict:
    out = cross_validate(c)
    if out["direct"]:
        flags = classify(c)
        out["flags"] = flags.to_dict()
        out["cross_checks_agree"] = all(flags.cross_checks.values())
    return out


def _cross_check_ok(record: dict) -> tuple[bool, dict]:
    ok = record["direct"] == record["recognized"]
    if record["direct"]:
        ok = (ok and record["round_trip"] and record["rebuilt_valid"]
              and record["cross_checks_agree"])
    return ok, record


def _stream_totals(records: list) -> list[str]:
    passing = sum(1 for r in records if isinstance(r, dict) and r.get("direct"))
    problems = []
    if len(records) != CANDIDATES:
        problems.append(f"{len(records)} candidates, expected {CANDIDATES}")
    if passing != PASSING_CANDIDATES:
        problems.append(f"{passing} candidates pass, expected {PASSING_CANDIDATES}")
    return problems


def recognize_stream(seed: int, work: Path) -> Workload:
    rng = random.Random(f"recognize-stream:{seed}")
    for kind, bound in ENUM_BOUNDS:
        for n in range(1, bound + 1):
            enumerate_small(n, kind)
    candidates = list(enumerate_small(4, "frobenius-candidates"))
    candidates += [_relational(obj) for obj in construct_catalog().values()]
    candidates = [scramble(c, rng) for c in candidates]
    ops = tuple(Op(c.name, lambda c=c: _cross_check(c), _cross_check_ok)
                for c in candidates)
    return Workload(spread(ops), _stream_totals)


# ---------------------------------------------------------------------------
# mapping-fibration: mapping complexes built from prism products


MAPPING_ALGEBRAS = {
    "chain(1)": lambda: chain(1), "chain(2)": lambda: chain(2),
    "chain(3)": lambda: chain(3), "boolean(2)": lambda: boolean(2),
    "boolean(3)": lambda: boolean(3), "zk_interval(2,1)": lambda: zk_interval((2, 1)),
    "wright-triangle": wright_triangle,
}
# Every pair of the algebras above other than the Wright triangle whose
# mapping complex has at most 15 edges (the size of the hom object).  Each
# runs under two relabelings, so that the latency percentiles rest on 192
# ops rather than 96.
MAPPING_PAIRS = (
    ("chain(1)", "chain(1)"), ("chain(1)", "chain(2)"), ("chain(1)", "chain(3)"),
    ("chain(1)", "boolean(2)"),
    ("chain(2)", "chain(1)"), ("chain(2)", "chain(2)"), ("chain(2)", "chain(3)"),
    ("chain(2)", "boolean(2)"), ("chain(2)", "boolean(3)"),
    ("chain(2)", "zk_interval(2,1)"),
    ("chain(3)", "chain(1)"), ("chain(3)", "chain(2)"), ("chain(3)", "chain(3)"),
    ("chain(3)", "boolean(2)"), ("chain(3)", "boolean(3)"),
    ("chain(3)", "zk_interval(2,1)"),
    ("boolean(2)", "chain(1)"), ("boolean(2)", "chain(2)"),
    ("boolean(3)", "chain(1)"), ("boolean(3)", "chain(2)"),
    ("zk_interval(2,1)", "chain(1)"), ("zk_interval(2,1)", "chain(2)"),
    ("zk_interval(2,1)", "chain(3)"), ("zk_interval(2,1)", "boolean(2)"),
)
# Run once each: one pair dominated by the fibration check (25 edges) and
# one dominated by recognizing its 57-edge mapping complex.
# boolean(3) -> boolean(3) does not finish in minutes.
HEAVY_PAIRS = (("boolean(3)", "boolean(2)"), ("chain(1)", "wright-triangle"))
RELABELINGS = 2


def _invariants_hold(inv: dict) -> tuple[bool, dict]:
    return all(v for k, v in inv.items() if k != "vertices"), inv


def _h1_routes(E: SumTable, F: SumTable) -> dict:
    M = mapping_complex(nerve(to_relfa(E)), nerve(to_relfa(F))).complex
    return {"normalized": h1_of_complex(M).invariants(),
            "full_chain": full_chain_h1(M).invariants()}


def mapping_fibration(seed: int, work: Path) -> Workload:
    rng = random.Random(f"mapping-fibration:{seed}")
    copies = [{name: scramble(make(), rng) for name, make in MAPPING_ALGEBRAS.items()}
              for _ in range(RELABELINGS)]
    runs = [(pair, k) for pair in MAPPING_PAIRS for k in range(RELABELINGS)]
    runs += [(pair, 0) for pair in HEAVY_PAIRS]
    ops = []
    for (en, fn), k in runs:
        E, F = copies[k][en], copies[k][fn]
        pair = f"{en} -> {fn} #{k}"
        ops += [
            Op(f"fibration {pair}", lambda E=E, F=F: eval_fibration_check(E, F),
               lambda rep: (rep.passed, rep.to_dict())),
            Op(f"theorem {pair}", lambda E=E, F=F: verify_mapping_theorem(E, F),
               lambda iso: (iso is True, iso)),
            Op(f"invariants {pair}", lambda E=E, F=F: hom_complex_invariants(E, F),
               _invariants_hold),
            Op(f"h1 {pair}", lambda E=E, F=F: _h1_routes(E, F),
               lambda r: (r["normalized"] == r["full_chain"], r)),
        ]
    return Workload(spread(ops))


# ---------------------------------------------------------------------------
# fa-session: the command line tool on structure files


# Structure files the session reads, written from the scrambled catalog.
FILE_ENTRIES = ("chain(1)", "chain(2)", "chain(3)", "chain(4)", "boolean(2)",
                "boolean(3)", "zk_interval(2,1)", "zk_interval(1,1,1)",
                "group_algebra(Z/3)", "group_algebra(Z/4)", "group_algebra(Z/5)",
                "horizontal_sum(chain(2),chain(2))", "wright-triangle")
NERVE_FILES = ("chain(2)", "boolean(2)", "group_algebra(Z/3)")


def file_name(entry: str) -> str:
    return "in_" + "".join(ch if ch.isalnum() else "_" for ch in entry) + ".json"


def nerve_file_name(entry: str) -> str:
    return "nerve_" + file_name(entry)[3:]


# (argv after `--json`, expected exit status).  Exit 1 marks a failing
# property, as the tool documents.  Most commands take 100-170 ms; the four
# enumerations, `classify` on the Wright triangle and a few more take up to
# 0.6 s.  There are enough of the common ones that p90 falls among them,
# not on the gap below the slow few.
SESSION: tuple[tuple[tuple[str, ...], int], ...] = (
    (("catalog", "list"), 0),
    (("catalog", "show", "boolean(2)"), 0),
    (("catalog", "export", "wright-triangle", "--out", "export_wright.json"), 0),
    (("validate", file_name("chain(2)")), 0),
    (("validate", file_name("chain(4)")), 0),
    (("validate", file_name("boolean(3)")), 0),
    (("validate", file_name("zk_interval(2,1)")), 0),
    (("validate", file_name("wright-triangle")), 0),
    (("validate", file_name("group_algebra(Z/3)")), 0),
    (("validate", file_name("horizontal_sum(chain(2),chain(2))")), 0),
    (("validate", "--kind", "frobenius", file_name("boolean(2)")), 0),
    (("validate", "--kind", "rel-monoid", file_name("chain(3)")), 0),
    (("validate", nerve_file_name("chain(2)")), 0),
    (("validate", nerve_file_name("boolean(2)")), 0),
    (("validate", nerve_file_name("group_algebra(Z/3)")), 0),
    (("validate", file_name("chain(1)")), 0),
    (("validate", "--kind", "frobenius", file_name("wright-triangle")), 0),
    (("classify", file_name("chain(2)")), 0),
    (("classify", file_name("boolean(2)")), 0),
    (("classify", file_name("boolean(3)")), 0),
    (("classify", file_name("wright-triangle")), 0),
    (("classify", file_name("zk_interval(2,1)")), 0),
    (("classify", file_name("group_algebra(Z/4)")), 0),
    (("classify", file_name("chain(1)")), 0),
    (("classify", file_name("chain(3)")), 0),
    (("classify", file_name("chain(4)")), 0),
    (("classify", file_name("zk_interval(1,1,1)")), 0),
    (("classify", file_name("group_algebra(Z/3)")), 0),
    (("classify", file_name("group_algebra(Z/5)")), 0),
    (("classify", file_name("horizontal_sum(chain(2),chain(2))")), 0),
    (("nerve", file_name("chain(3)"), "--out", "out_nerve_chain3.json"), 0),
    (("nerve", file_name("boolean(2)"), "--out", "out_nerve_boolean2.json"), 0),
    (("nerve", file_name("zk_interval(2,1)"), "--out", "out_nerve_zk21.json"), 0),
    (("nerve", file_name("group_algebra(Z/4)"), "--out", "out_nerve_z4.json"), 0),
    (("homology", file_name("chain(3)")), 0),
    (("homology", file_name("boolean(3)")), 0),
    (("homology", file_name("zk_interval(1,1,1)")), 0),
    (("homology", file_name("wright-triangle")), 0),
    (("homology", file_name("group_algebra(Z/5)")), 0),
    (("homology", file_name("chain(2)")), 0),
    (("homology", file_name("chain(4)")), 0),
    (("homology", file_name("boolean(2)")), 0),
    (("homology", file_name("group_algebra(Z/4)")), 0),
    (("homology", file_name("horizontal_sum(chain(2),chain(2))")), 0),
    (("hom", file_name("chain(1)"), file_name("chain(2)")), 0),
    (("hom", file_name("chain(2)"), file_name("boolean(2)")), 0),
    (("hom", file_name("boolean(2)"), file_name("chain(1)")), 0),
    (("hom", file_name("chain(1)"), file_name("boolean(2)")), 0),
    (("hom", file_name("chain(2)"), file_name("chain(3)")), 0),
    (("hom", file_name("chain(3)"), file_name("chain(2)")), 0),
    (("hom", file_name("boolean(2)"), file_name("boolean(2)")), 0),
    (("kan", file_name("chain(1)"), file_name("chain(1)")), 0),
    (("kan", file_name("chain(1)"), file_name("chain(2)")), 0),
    (("kan", file_name("chain(2)"), file_name("chain(1)")), 0),
    (("kan", file_name("boolean(2)"), file_name("chain(1)")), 0),
    (("lift", "horn-2-0", file_name("chain(2)")), 1),
    (("lift", "horn-2-1", file_name("chain(3)")), 1),
    (("lift", "horn-2-1", file_name("group_algebra(Z/3)")), 0),
    (("lift", "boundary-2", file_name("boolean(2)")), 1),
    (("lift", "ehorn-2-0", file_name("chain(3)"), "--unique"), 0),
    (("lift", "ehorn-3-3", file_name("boolean(2)"), "--unique"), 0),
    (("lift", "horn-2-0", file_name("chain(2)"), "--unique"), 1),
    (("lift", "box(horn-2-0,boundary-1)", file_name("chain(2)")), 0),
    (("lift", "box(horn-2-0,boundary-1)", file_name("chain(3)")), 0),
    (("lift", "horn-2-1", file_name("group_algebra(Z/4)")), 0),
    (("lift", "assoc-02", nerve_file_name("boolean(2)")), 0),
    (("enumerate", "--size", "5", "--kind", "effect-algebra", "--emit", "emit_ea"), 0),
    (("enumerate", "--size", "5", "--kind", "pseudo-effect-algebra", "--emit", "emit_pea"), 0),
    (("enumerate", "--size", "2", "--kind", "frobenius", "--emit", "emit_frob"), 0),
    (("enumerate", "--size", "4", "--kind", "frobenius-candidates", "--emit", "emit_cand"), 0),
)


def fa_session(seed: int, work: Path) -> list[tuple[list[str], int]]:
    """Write the session's input files into `work`; return its commands."""
    rng = random.Random(f"fa-session:{seed}")
    catalog = scrambled_catalog(rng)
    for entry in FILE_ENTRIES:
        save_structure(catalog[entry], str(work / file_name(entry)))
    for entry in NERVE_FILES:
        save_structure(nerve(_relational(catalog[entry])),
                       str(work / nerve_file_name(entry)))
    return [(["--json", *argv], status) for argv, status in spread(SESSION)]


LIBRARY_WORKLOADS = {
    "lift-pushout": lift_pushout,
    "recognize-stream": recognize_stream,
    "mapping-fibration": mapping_fibration,
}
