"""The structure file format: parsing with located errors, serialization,
and round trips for every kind."""

from __future__ import annotations

import json

import pytest

from relfa.algebra import EffectAlgebraTable, PseudoEffectAlgebraTable, RelFA, to_relfa
from relfa.catalog import boolean, chain, cyclic_group_algebra
from relfa.nerve import nerve
from relfa.structio import (
    KINDS,
    StructureError,
    load_structure,
    parse_structure,
    save_structure,
    serialize_structure,
    structure_to_doc,
)


def test_kind_roster():
    assert KINDS == ("effect_algebra", "pseudo_effect_algebra", "relfa", "complex")


def test_table_round_trip():
    t = boolean(2)
    text = serialize_structure(t)
    back = parse_structure(text)
    assert isinstance(back, EffectAlgebraTable)
    assert back == t


def test_pseudo_table_round_trip():
    t = PseudoEffectAlgebraTable("p", ("0", "1"), "0", "1",
                                 {("0", "0"): "0", ("0", "1"): "1",
                                  ("1", "0"): "1"})
    back = parse_structure(serialize_structure(t))
    assert isinstance(back, PseudoEffectAlgebraTable)
    assert back == t


def test_relational_round_trip():
    f = cyclic_group_algebra(3)
    back = parse_structure(serialize_structure(f))
    assert isinstance(back, RelFA)
    assert back.signature() == f.signature()
    assert back.name == f.name


def test_complex_round_trip():
    N = nerve(to_relfa(chain(2)))
    back = parse_structure(serialize_structure(N))
    assert back.vertices == N.vertices
    assert back.edges == N.edges
    assert back.triangles == N.triangles
    assert back.marked == N.marked
    assert back.identity == N.identity


def test_serialization_is_deterministic():
    t = boolean(2)
    assert serialize_structure(t) == serialize_structure(t)
    doc = structure_to_doc(t)
    assert doc["kind"] == "effect_algebra"
    assert json.loads(serialize_structure(t)) == doc


def test_save_and_load(tmp_path):
    path = tmp_path / "b2.json"
    save_structure(boolean(2), str(path))
    assert load_structure(str(path)) == boolean(2)


def test_load_missing_file_reports_the_path():
    with pytest.raises(StructureError) as err:
        load_structure("/no/such/file.json")
    assert "/no/such/file.json" in str(err.value)


def test_malformed_json_reports_line_and_column():
    with pytest.raises(StructureError) as err:
        parse_structure('{"kind": "effect_algebra",}', source="bad.json")
    assert str(err.value).startswith("bad.json:1:")


def test_missing_fields_are_located():
    with pytest.raises(StructureError, match="missing field 'kind'"):
        parse_structure("{}")
    with pytest.raises(StructureError, match="missing field 'name'"):
        parse_structure('{"kind": "relfa"}')


def test_unknown_kind_is_rejected():
    with pytest.raises(StructureError, match="unknown kind"):
        parse_structure('{"kind": "hopf_algebra", "name": "x"}')


def test_duplicate_elements_are_located():
    doc = {"kind": "effect_algebra", "name": "d", "elements": ["0", "0"],
           "zero": "0", "one": "0", "sums": []}
    with pytest.raises(StructureError, match=r"elements\[1\]"):
        parse_structure(json.dumps(doc))


def test_unknown_identifier_in_sums_is_located():
    doc = {"kind": "effect_algebra", "name": "d", "elements": ["0", "1"],
           "zero": "0", "one": "1",
           "sums": [["0", "0", "0"], ["0", "x", "1"]]}
    with pytest.raises(StructureError, match=r"sums\[1\]"):
        parse_structure(json.dumps(doc))


def test_conflicting_sum_entries_are_rejected():
    doc = {"kind": "effect_algebra", "name": "d", "elements": ["0", "a", "1"],
           "zero": "0", "one": "1",
           "sums": [["0", "a", "a"], ["0", "a", "1"]]}
    with pytest.raises(StructureError, match="twice"):
        parse_structure(json.dumps(doc))


def test_non_object_top_level_is_rejected():
    with pytest.raises(StructureError, match="top level"):
        parse_structure("[1, 2, 3]")


def test_complex_duplicate_edge_ids_are_rejected():
    doc = {"kind": "complex", "name": "d", "vertices": ["v"],
           "edges": [["i", "v", "v"], ["i", "v", "v"]],
           "identities": {"v": "i"}, "triangles": [], "marked": []}
    with pytest.raises(StructureError, match="duplicate edge id"):
        parse_structure(json.dumps(doc))


def test_complex_identities_of_unknown_vertices_are_located():
    doc = {"kind": "complex", "name": "d", "vertices": ["v"],
           "edges": [["i", "v", "v"]],
           "identities": {"v": "i", "ghost": "nope"}, "triangles": [], "marked": []}
    with pytest.raises(StructureError,
                       match=r"^d\.json\.identities\.ghost: unknown identifier 'ghost'$"):
        parse_structure(json.dumps(doc), source="d.json")


def test_structure_to_doc_rejects_foreign_objects():
    with pytest.raises((TypeError, ValueError)):
        structure_to_doc(42)


TABLE_DOC = {"kind": "effect_algebra", "name": "c", "elements": ["0", "1"],
             "zero": "0", "one": "1",
             "sums": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"]]}
RELFA_DOC = {"kind": "relfa", "name": "c", "elements": ["e"],
             "mu": [["e", "e", "e"]], "eta": ["e"],
             "delta": [["e", "e", "e"]], "epsilon": ["e"]}
COMPLEX_DOC = {"kind": "complex", "name": "c", "vertices": ["v"],
               "edges": [["i", "v", "v"]], "identities": {"v": "i"},
               "triangles": [], "marked": []}


@pytest.mark.parametrize("doc, message", [
    ({**TABLE_DOC, "elements": "01"}, "f.json.elements: expected list, got str"),
    ({**TABLE_DOC, "elements": ["0", 1]}, "f.json.elements[1]: expected a string"),
    ({**TABLE_DOC, "zero": "z"}, "f.json.zero: unknown identifier 'z'"),
    ({**TABLE_DOC, "sums": [["0", "0"]]}, "f.json.sums[0]: expected a triple of strings"),
    ({**RELFA_DOC, "eta": ["u"]}, "f.json.eta[0]: unknown identifier 'u'"),
    ({**COMPLEX_DOC, "edges": [["i", "v"]]}, "f.json.edges[0]: expected [id, source, target]"),
    ({**COMPLEX_DOC, "identities": {"v": 1}}, "f.json.identities.v: expected an edge id"),
    ({**COMPLEX_DOC, "edges": [["i", "v", "v"], ["a", "v", "w"]]},
     "f.json: c: edge 'a' has endpoints outside the vertex set"),
    ({**COMPLEX_DOC, "vertices": ["v", "w"]},
     "f.json: c: vertex 'w' lacks a well-formed identity edge"),
    ({**COMPLEX_DOC, "triangles": [["i", "i", "q"]]},
     "f.json: c: triangle ('i', 'i', 'q') references unknown edge"),
    ({**COMPLEX_DOC, "marked": ["q"]}, "f.json: c: marked id 'q' is not an edge"),
    ({**TABLE_DOC, "one": "z"}, "f.json.one: unknown identifier 'z'"),
])
def test_rejections_name_their_location(doc, message):
    """Each kind's field, row and entry checks, and the complex checks that
    only the complex constructor makes, give these exact messages."""
    with pytest.raises(StructureError) as err:
        parse_structure(json.dumps(doc), source="f.json")
    assert str(err.value) == message
