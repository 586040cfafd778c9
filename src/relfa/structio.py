"""Reading and writing structures as self-describing JSON documents.

One document per structure; its ``kind`` selects the schema:
``effect_algebra`` and ``pseudo_effect_algebra`` carry a sum table of the
matching class, ``relfa`` the four relational pieces, ``complex`` the full
incidence data.  The constructors validate; the parser makes their checks
first, naming the offending location, except the incidence checks of a
complex, which ``make_complex`` reports against the source.  Serialization
is deterministic, so parse followed by serialize is the identity on files
this module wrote."""

from __future__ import annotations

import json

from .algebra import (
    EffectAlgebraTable,
    PseudoEffectAlgebraTable,
    RelFA,
    SumTable,
)
from .complexes import TruncatedEpsilonComplex, make_complex

_TABLE_CLASSES = {
    "effect_algebra": EffectAlgebraTable,
    "pseudo_effect_algebra": PseudoEffectAlgebraTable,
}
KINDS = (*_TABLE_CLASSES, "relfa", "complex")


class StructureError(ValueError):
    """Parse or validation failure with a document location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def _need(doc: dict, key: str, typ, where: str):
    if key not in doc:
        raise StructureError(where, f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, typ):
        raise StructureError(f"{where}.{key}", f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _string_list(doc: dict, key: str, where: str) -> list[str]:
    val = _need(doc, key, list, where)
    for i, x in enumerate(val):
        if not isinstance(x, str):
            raise StructureError(f"{where}.{key}[{i}]", "expected a string")
    return val


def _triples(doc: dict, key: str, where: str,
             universe: set[str] | None = None) -> list[tuple[str, str, str]]:
    """The rows of a list of string triples; with ``universe``, every string
    must name a member of it.  Shapes are checked before members."""
    val = _need(doc, key, list, where)
    out = []
    for i, row in enumerate(val):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise StructureError(f"{where}.{key}[{i}]", "expected a triple of strings")
        out.append((row[0], row[1], row[2]))
    if universe is not None:
        for i, row in enumerate(out):
            for x in row:
                if x not in universe:
                    raise StructureError(f"{where}.{key}[{i}]", f"unknown identifier {x!r}")
    return out


def _check_members(names, universe: set[str], key: str, where: str):
    for i, x in enumerate(names):
        if x not in universe:
            raise StructureError(f"{where}.{key}[{i}]", f"unknown identifier {x!r}")


def parse_structure(text: str, source: str = "input"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{source}:{exc.lineno}:{exc.colno}", exc.msg)
    if not isinstance(doc, dict):
        raise StructureError(source, "top level must be an object")
    kind = _need(doc, "kind", str, source)
    if kind not in KINDS:
        raise StructureError(f"{source}.kind",
                             f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    name = _need(doc, "name", str, source)
    elements_key = "vertices" if kind == "complex" else "elements"
    names = _string_list(doc, elements_key, source)
    universe: set[str] = set()
    for i, x in enumerate(names):
        if x in universe:
            raise StructureError(f"{source}.{elements_key}[{i}]", f"duplicate name {x!r}")
        universe.add(x)

    if kind in _TABLE_CLASSES:
        zero = _need(doc, "zero", str, source)
        one = _need(doc, "one", str, source)
        for key, x in (("zero", zero), ("one", one)):
            if x not in universe:
                raise StructureError(f"{source}.{key}", f"unknown identifier {x!r}")
        sums: dict[tuple[str, str], str] = {}
        for i, (a, b, c) in enumerate(_triples(doc, "sums", source, universe)):
            if (a, b) in sums and sums[(a, b)] != c:
                raise StructureError(
                    f"{source}.sums[{i}]",
                    f"sum of ({a!r}, {b!r}) given twice with different results "
                    f"{sums[(a, b)]!r} and {c!r}")
            sums[(a, b)] = c
        return _TABLE_CLASSES[kind](name=name, elements=tuple(names), zero=zero, one=one, sums=sums)

    if kind == "relfa":
        mu = _triples(doc, "mu", source, universe)
        delta = _triples(doc, "delta", source, universe)
        eta = _string_list(doc, "eta", source)
        _check_members(eta, universe, "eta", source)
        epsilon = _string_list(doc, "epsilon", source)
        _check_members(epsilon, universe, "epsilon", source)
        return RelFA(name=name, elements=tuple(names),
                     mu=frozenset(mu), eta=frozenset(eta),
                     delta=frozenset(delta), epsilon=frozenset(epsilon))

    edges = _need(doc, "edges", list, source)
    edge_ids, src, tgt = [], {}, {}
    for i, row in enumerate(edges):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise StructureError(f"{source}.edges[{i}]", "expected [id, source, target]")
        e, s, t = row
        if e in src:
            raise StructureError(f"{source}.edges[{i}]", f"duplicate edge id {e!r}")
        edge_ids.append(e)
        src[e], tgt[e] = s, t
    identities = _need(doc, "identities", dict, source)
    for v, e in identities.items():
        if not isinstance(e, str):
            raise StructureError(f"{source}.identities.{v}", "expected an edge id")
        if v not in universe:
            raise StructureError(f"{source}.identities.{v}", f"unknown identifier {v!r}")
    triangles = _triples(doc, "triangles", source)
    marked = _string_list(doc, "marked", source)
    try:
        return make_complex(name, names, edge_ids, src, tgt, dict(identities),
                            triangles, marked)
    except ValueError as exc:
        raise StructureError(source, str(exc))


def load_structure(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureError(path, str(exc))
    return parse_structure(text, source=path)


def structure_to_doc(obj) -> dict:
    if isinstance(obj, SumTable):
        kind = next((k for k, cls in _TABLE_CLASSES.items() if isinstance(obj, cls)), None)
        if kind is None:
            raise TypeError("plain SumTable has no serialized kind; use a subclass")
        return {
            "kind": kind,
            "name": obj.name,
            "elements": list(obj.elements),
            "zero": obj.zero,
            "one": obj.one,
            "sums": [[a, b, c] for (a, b), c in sorted(obj.sums.items())],
        }
    if isinstance(obj, RelFA):
        return {
            "kind": "relfa",
            "name": obj.name,
            "elements": list(obj.elements),
            "mu": [list(t) for t in sorted(obj.mu)],
            "eta": sorted(obj.eta),
            "delta": [list(t) for t in sorted(obj.delta)],
            "epsilon": sorted(obj.epsilon),
        }
    if isinstance(obj, TruncatedEpsilonComplex):
        return {
            "kind": "complex",
            "name": obj.name,
            "vertices": list(obj.vertices),
            "edges": [[e, obj.src[e], obj.tgt[e]] for e in obj.edges],
            "identities": {v: obj.identity[v] for v in obj.vertices},
            "triangles": [list(t) for t in sorted(obj.triangles)],
            "marked": sorted(obj.marked),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_structure(obj) -> str:
    return json.dumps(structure_to_doc(obj), indent=2) + "\n"


def save_structure(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_structure(obj))
