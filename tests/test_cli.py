"""The command line interface, exercised through real subprocesses: exit
codes, report shape, certificates, emitted files, and determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from relfa import __version__
from relfa.catalog import boolean, chain
from relfa.structio import load_structure, save_structure

CLI = [sys.executable, "-m", "relfa.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, check=False)


def run_json(*args, cwd=None):
    proc = run_cli("--json", *args, cwd=cwd)
    report = json.loads(proc.stdout)
    assert report["exit"] == proc.returncode or proc.returncode == 2
    return proc, report


@pytest.fixture()
def chain2_file(write_structure):
    return write_structure(chain(2), "chain2.json")


@pytest.fixture()
def boolean2_file(write_structure):
    return write_structure(boolean(2), "boolean2.json")


def test_validate_passing_table(chain2_file):
    proc, report = run_json("validate", chain2_file)
    assert proc.returncode == 0
    assert report["version"] == __version__
    assert report["results"]["passed"] is True
    assert report["certificates"] == []
    (digest,) = report["inputs"]
    assert digest["path"] == chain2_file
    assert len(digest["sha256"]) == 64


def test_validate_human_output(chain2_file):
    proc = run_cli("validate", chain2_file)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "commutativity: ok" in proc.stdout


def test_validate_failure_attaches_certificate(tmp_path):
    doc = {"kind": "effect_algebra", "name": "broken",
           "elements": ["0", "a", "1"], "zero": "0", "one": "1",
           "sums": [["0", "0", "0"], ["0", "a", "a"], ["a", "0", "a"],
                    ["0", "1", "1"], ["1", "0", "1"], ["a", "a", "1"],
                    ["a", "1", "1"]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc, report = run_json("validate", str(path))
    assert proc.returncode == 1
    (cert,) = report["certificates"]
    assert cert["type"] == "validation"
    assert cert["failed_checks"]


def test_validate_rejects_kind_on_complex_files(tmp_path, chain2_file):
    nerve_path = tmp_path / "nerve.json"
    run_cli("nerve", chain2_file, "--out", str(nerve_path))
    proc = run_cli("validate", str(nerve_path), "--kind", "effect-algebra")
    assert proc.returncode == 2


def test_missing_file_exits_2():
    proc, report = run_json("validate", "/no/such/structure.json")
    assert proc.returncode == 2
    assert "error" in report


def test_internal_error_exits_3(monkeypatch, capsys, chain2_file):
    """A violated invariant is a bug in relfa, not bad input: exit 3."""
    from relfa import InvariantError, cli

    def broken(obj):
        raise InvariantError("d1 * d2 is not zero")

    monkeypatch.setattr(cli, "h1_universal_group", broken)
    assert cli.main(["homology", chain2_file]) == 3
    assert capsys.readouterr().err == "internal error: d1 * d2 is not zero\n"
    assert cli.main(["--json", "homology", chain2_file]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["exit"], report["error"]) == (3, "d1 * d2 is not zero")


def test_classify_reports_flags(boolean2_file):
    proc, report = run_json("classify", boolean2_file)
    assert proc.returncode == 0
    results = report["results"]
    assert results["effect_algebra"] is True
    assert results["orthoalgebra"] is True
    assert results["braided"] is True
    assert all(results["cross_checks"].values())


def test_nerve_writes_a_recognizable_complex(tmp_path, chain2_file):
    out = tmp_path / "nerve.json"
    proc, report = run_json("nerve", chain2_file, "--out", str(out))
    assert proc.returncode == 0
    assert report["results"]["vertices"] == 1
    assert report["results"]["edges"] == 3
    assert report["results"]["triangles"] == 6
    assert report["results"]["recognition"]["passed"] is True
    complex_report = run_json("validate", str(out))[1]
    assert complex_report["results"]["passed"] is True


def test_homology_agrees_between_routes(chain2_file):
    proc, report = run_json("homology", chain2_file)
    assert proc.returncode == 0
    assert report["results"]["h1"]["group"] == "Z"
    assert report["results"]["presentations_agree"] is True


def test_hom_lists_components(write_structure):
    c1 = write_structure(chain(1), "c1.json")
    proc, report = run_json("hom", c1, c1)
    assert proc.returncode == 0
    results = report["results"]
    assert len(results["components"]) == 2
    assert results["elements"] == 3
    assert results["mapping_complex_matches"] is True


def test_kan_passes_on_small_pair(write_structure):
    c1 = write_structure(chain(1), "c1.json")
    c2 = write_structure(chain(2), "c2.json")
    proc, report = run_json("kan", c1, c2)
    assert proc.returncode == 0
    assert report["results"]["passed"] is True


def test_lift_failure_has_a_rerunnable_certificate(chain2_file):
    proc, report = run_json("lift", "boundary-2", chain2_file)
    assert proc.returncode == 1
    (cert,) = report["certificates"]
    assert cert["type"] == "lifting"
    assert cert["rerun"] == f"fa lift boundary-2 {chain2_file}"
    assert cert["failures"]
    rerun_args = cert["rerun"].split()[1:]
    again = run_cli(*rerun_args)
    assert again.returncode == 1


def test_lift_box_shapes_parse(chain2_file):
    proc, report = run_json("lift", "box(horn-2-0,horn-2-1)", chain2_file)
    assert proc.returncode == 0
    assert report["results"]["passed"] is True


def test_lift_unknown_shape_exits_2(chain2_file):
    proc = run_cli("lift", "megahorn-9", chain2_file)
    assert proc.returncode == 2


def test_enumerate_emits_loadable_files(tmp_path):
    out = tmp_path / "emitted"
    proc, report = run_json("enumerate", "--size", "4", "--kind",
                            "effect-algebra", "--emit", str(out))
    assert proc.returncode == 0
    assert report["results"]["count"] == 3
    written = report["results"]["written"]
    assert len(written) == 3
    for path in written:
        structure = load_structure(path)
        assert structure.elements
    verdict = run_json("validate", written[0])[1]
    assert verdict["results"]["passed"] is True


def test_enumerate_rejects_out_of_range_sizes():
    proc = run_cli("enumerate", "--size", "9", "--kind", "effect-algebra")
    assert proc.returncode == 2


def test_catalog_list_show_export(tmp_path):
    proc, report = run_json("catalog", "list")
    assert proc.returncode == 0
    assert report["results"]["count"] == 17
    names = [e["name"] for e in report["results"]["entries"]]
    assert "wright-triangle" in names

    proc, report = run_json("catalog", "show", "boolean(2)")
    assert proc.returncode == 0
    assert report["results"]["structure"]["kind"] == "effect_algebra"

    out = tmp_path / "exported.json"
    proc, report = run_json("catalog", "export", "boolean(2)", "--out", str(out))
    assert proc.returncode == 0
    assert load_structure(str(out)) == boolean(2)

    proc = run_cli("catalog", "show", "octonions")
    assert proc.returncode == 2
    proc = run_cli("catalog", "show")
    assert proc.returncode == 2


def test_catalog_export_then_full_pipeline(tmp_path):
    out = tmp_path / "entry.json"
    run_cli("catalog", "export", "group_algebra(Z/3)", "--out", str(out))
    assert run_cli("validate", str(out)).returncode == 0
    assert run_cli("classify", str(out)).returncode == 0
    assert run_cli("homology", str(out)).returncode == 0


def test_seed_order_sorted_reorders_but_keeps_verdicts(chain2_file):
    plain = run_json("validate", chain2_file)[1]
    sorted_run = run_json("validate", "--seed-order", "sorted", chain2_file)[1]
    assert plain["results"]["passed"] is True
    assert sorted_run["results"]["passed"] is True
    proc = run_cli("validate", "--seed-order", "shuffled", chain2_file)
    assert proc.returncode == 2


def test_json_reports_are_byte_identical(chain2_file):
    outputs = {run_cli("--json", "classify", chain2_file).stdout
               for _ in range(3)}
    assert len(outputs) == 1


def test_help_and_missing_command():
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2
    assert run_cli("conjugate").returncode == 2
