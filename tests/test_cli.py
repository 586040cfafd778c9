"""The command line interface, exercised through real subprocesses: exit
codes, report shape, certificates, emitted files, and determinism."""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relfa
from relfa import __version__
from relfa.algebra import RelFA
from relfa.catalog import boolean, chain, wright_triangle
from relfa.complexes import check_lifting, make_complex, shape_from_name
from relfa.enumerate_small import enumerate_small
from relfa.structio import load_structure, save_structure

CLI = [sys.executable, "-m", "relfa.cli"]


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, env=env, check=False)


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


def test_classify_and_nerve_name_a_rejected_complex_file(tmp_path, chain2_file, capsys):
    from relfa import cli

    nerve_path = str(tmp_path / "nerve.json")
    assert cli.main(["nerve", chain2_file, "--out", nerve_path]) == 0
    capsys.readouterr()
    for command in ("classify", "nerve"):
        assert cli.main([command, nerve_path]) == 2
        assert capsys.readouterr().err == \
            f"error: {nerve_path}: expected an algebra, got a complex\n"


def test_exit_is_one_exactly_when_the_report_carries_a_certificate(
        write_structure, not_a_pea, chain2_file, capsys):
    from relfa import cli

    chain1 = write_structure(chain(1), "chain1.json")
    not_pea = write_structure(not_a_pea, "not-a-pea.json")
    # Its nerve fails the marked 1-horn conditions of recognition.
    candidate = write_structure(enumerate_small(2, "frobenius-candidates")[1],
                                "candidate.json")
    runs = [
        (["validate", chain2_file], 0), (["validate", not_pea], 1),
        (["nerve", chain2_file], 0), (["nerve", candidate], 1),
        (["lift", "ehorn-2-0", chain2_file, "--unique"], 0),
        (["lift", "boundary-2", chain2_file], 1),
        (["classify", chain2_file], 0), (["homology", chain2_file], 0),
        (["hom", chain1, chain2_file], 0), (["kan", chain1, chain2_file], 0),
        (["enumerate", "--size", "2", "--kind", "effect-algebra"], 0),
        (["catalog", "list"], 0),
    ]
    for argv, expected in runs:
        assert cli.main(["--json", *argv]) == expected, argv
        report = json.loads(capsys.readouterr().out)
        assert report["exit"] == expected == (1 if report["certificates"] else 0), argv


@pytest.mark.parametrize("argv", [("catalog", "list"), ("--json", "kan", "{chain1}", "{chain1}"),
                                  ("--json", "kan", "{missing}", "{chain1}")],
                         ids=["catalog-list", "json-kan", "json-error"])
@pytest.mark.parametrize("unbuffered", ["0", "1"])
def test_closed_stdout_exits_2_without_a_traceback(write_structure, argv, unbuffered):
    """A reader that went away before the report was written is an output
    error: status 2, and nothing on stderr, neither a traceback nor the
    interpreter's complaint about the failed flush at exit."""
    chain1 = write_structure(chain(1), "chain1.json")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        missing = str(Path(chain1).with_name("missing.json"))
        proc = subprocess.run(CLI + [a.format(chain1=chain1, missing=missing) for a in argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONUNBUFFERED=unbuffered), check=False)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_missing_file_exits_2():
    proc, report = run_json("validate", "/no/such/structure.json")
    assert proc.returncode == 2
    assert "error" in report


def test_validate_rejects_identities_of_unknown_vertices(tmp_path):
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps({
        "kind": "complex", "name": "ghost", "vertices": ["v"],
        "edges": [["i", "v", "v"]], "identities": {"v": "i", "ghost": "nope"},
        "triangles": [], "marked": []}))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}.identities.ghost: unknown identifier 'ghost'\n"


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


def test_unexpected_exception_exits_3(monkeypatch, capsys, chain2_file):
    """A KeyError inside a command is a bug in relfa, not bad input: exit 3."""
    from relfa import cli

    def broken(obj):
        raise KeyError("x")

    monkeypatch.setattr(cli, "h1_universal_group", broken)
    assert cli.main(["homology", chain2_file]) == 3
    assert capsys.readouterr().err.endswith("internal error: KeyError: 'x'\n")
    assert cli.main(["--json", "homology", chain2_file]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["exit"], report["error"]) == (3, "KeyError: 'x'")


def test_json_keeps_the_failing_boundary_of_a_recognition_check(write_structure):
    """A recognition check's witness is the first failing boundary of its
    lifting report, a dict, and --json writes it whole."""
    C = make_complex("unmarked-loop", ["v"], ["i"], {"i": "v"}, {"i": "v"},
                     {"v": "i"}, [], [])
    proc, report = run_json("validate", write_structure(C, "loop.json"))
    assert proc.returncode == 1
    check = report["results"]["checks"][0]
    assert (check["name"], check["passed"]) == ("ehorn-1-0:unique", False)
    assert check["witness"] == \
        check_lifting(shape_from_name("ehorn-1-0"), C, "unique").failures[0]
    assert report["certificates"][0]["failed_checks"][0] == check


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


def test_hom_builds_the_hom_object_once(monkeypatch, capsys, write_structure):
    from relfa import cli, mapping

    calls = []
    real = mapping.hom_object_ea

    def spy(E, F):
        calls.append((E.name, F.name))
        return real(E, F)

    monkeypatch.setattr(mapping, "hom_object_ea", spy)
    b2 = write_structure(boolean(2), "b2.json")
    assert cli.main(["--json", "hom", b2, b2]) == 0
    assert calls == [("boolean(2)", "boolean(2)")]
    assert json.loads(capsys.readouterr().out)["results"]["mapping_complex_matches"] is True


def test_hom_rejects_tables_that_are_not_effect_algebras(write_structure):
    c1 = write_structure(chain(1), "c1.json")
    pea = write_structure(enumerate_small(5, "pseudo-effect-algebra")[4], "pea.json")
    for source, target in ((c1, pea), (pea, c1)):
        proc = run_cli("hom", source, target)
        assert proc.returncode == 2
        assert proc.stderr == \
            "error: pea5_4 is not an effect algebra: fails commutativity\n"


def test_classify_rejects_inputs_that_are_not_frobenius(write_structure):
    # A failed cross-check on a non-Frobenius input is bad input, not two
    # routes that disagree.
    candidates = {F.name: F for F in enumerate_small(3, "frobenius-candidates")}
    for name in ("frob2_0~eps:x1", "relfa(ea3_0)~eps:a"):
        path = write_structure(candidates[name])
        proc = run_cli("classify", path)
        assert proc.returncode == 2, name
        assert proc.stderr == (f"error: {path}: not a Frobenius algebra, so the "
                               "cross-checks do not apply; fails co-unit-existence\n")
    assert run_cli("classify", write_structure(chain(2))).returncode == 0


def test_kan_passes_on_small_pair(write_structure):
    c1 = write_structure(chain(1), "c1.json")
    c2 = write_structure(chain(2), "c2.json")
    proc, report = run_json("kan", c1, c2)
    assert proc.returncode == 0
    assert report["results"]["passed"] is True


def test_kan_rejects_tables_that_are_not_pseudo_effect_algebras(write_structure, not_a_pea):
    c1 = write_structure(chain(1), "c1.json")
    bad = write_structure(not_a_pea, "bad.json")
    proc = run_cli("kan", bad, c1)
    assert proc.returncode == 2
    assert proc.stderr == ("error: not-a-pea is not a pseudo effect algebra: "
                           "fails associativity, zero-one-law\n")
    pea = write_structure(enumerate_small(5, "pseudo-effect-algebra")[4], "pea.json")
    assert run_cli("kan", pea, c1).returncode == 0


def test_importing_the_cli_leaves_relfa_mapping_unloaded():
    """Only fa hom and fa kan import the mapping module, so the other
    subcommands do not pay for it."""
    code = "import sys, relfa.cli; print('relfa.mapping' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"


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


def test_lift_rerun_command_repeats_the_report(write_structure, tmp_path, monkeypatch):
    """The rerun command of a failing box square parses as a shell command,
    with parentheses in the shape, a space in the path or a file name that
    starts with '-', keeps --seed-order sorted when it was given, and gives
    the same failures; they do not depend on the seed order."""
    path = write_structure(wright_triangle(), "wright triangle.json")
    shutil.copy(path, tmp_path / "-c.json")
    monkeypatch.setenv("PYTHONPATH", str(Path(relfa.__file__).parents[1]))
    failures = []
    for args in ([path], [path, "--seed-order", "sorted"], ["--", "-c.json"]):
        proc, report = run_json("lift", "box(horn-2-1,horn-2-1)", *args, cwd=tmp_path)
        assert proc.returncode == 1
        (cert,) = report["certificates"]
        lexer = shlex.shlex(cert["rerun"], posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        words = list(lexer)
        assert words[:2] == ["fa", "lift"]
        if "--seed-order" in args:
            assert words[-2:] == ["--seed-order", "sorted"]
        else:
            assert "--seed-order" not in words
        again, rerun = run_json(*words[1:], cwd=tmp_path)
        assert again.returncode == 1
        assert rerun["certificates"][0]["failures"] == cert["failures"]
        failures.append(cert["failures"])
    assert failures[0] == failures[1] == failures[2]


def test_lift_box_shapes_parse(chain2_file):
    proc, report = run_json("lift", "box(horn-2-0,horn-2-1)", chain2_file)
    assert proc.returncode == 0
    assert report["results"]["passed"] is True


def test_lift_unknown_shape_exits_2(chain2_file):
    proc = run_cli("lift", "megahorn-9", chain2_file)
    assert proc.returncode == 2
    # A known family with an index out of range is no shape either.
    proc, report = run_json("lift", "horn-2-5", chain2_file)
    assert proc.returncode == report["exit"] == 2
    assert report["error"] == "unknown shape name 'horn-2-5'"


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


def test_seed_order_sorted_reorders_but_keeps_verdicts(chain2_file, capsys):
    from relfa import cli

    def run(*argv):
        status = cli.main(list(argv))
        return status, capsys.readouterr()

    # The global flags go before or after the subcommand, in either form.
    status, plain = run("--json", "validate", chain2_file)
    assert status == 0 and json.loads(plain.out)["results"]["passed"] is True
    assert json.loads(run("validate", "--json", chain2_file)[1].out)["results"] == \
        json.loads(plain.out)["results"]
    sorted_runs = [run(*argv) for argv in (
        ("--json", "--seed-order", "sorted", "validate", chain2_file),
        ("--seed-order=sorted", "validate", "--json", chain2_file),
        ("validate", chain2_file, "--seed-order", "sorted", "--json"),
        ("validate", "--json", "--seed-order=sorted", chain2_file))]
    assert {status for status, _ in sorted_runs} == {0}
    assert len({json.dumps(json.loads(out.out)["results"]) for _, out in sorted_runs}) == 1
    assert json.loads(sorted_runs[0][1].out)["results"]["passed"] is True
    for argv in (("validate", "--seed-order", "shuffled", chain2_file),
                 ("--seed-order=shuffled", "validate", chain2_file),
                 ("validate", chain2_file, "--seed-order")):
        status, captured = run(*argv)
        assert status == 2 and "--seed-order" in captured.err, argv


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "group_algebra(Z/3)",
                                  "horizontal_sum(boolean(2),chain(3))", "pea5_4"])
def test_seed_order_keeps_validate_classify_and_kan_verdicts(catalog, write_structure,
                                                             capsys, name):
    from relfa import cli

    if name == "pea5_4":
        structure = next(t for t in enumerate_small(5, "pseudo-effect-algebra")
                         if t.name == name)
    else:
        structure = catalog[name]
    path = write_structure(structure, "entry.json")
    commands = [["validate", path], ["classify", path]]
    if not isinstance(structure, RelFA):
        commands.append(["kan", write_structure(chain(1), "chain1.json"), path])
    for argv in commands:
        reports = []
        for order in ("declared", "sorted"):
            status = cli.main(["--json", "--seed-order", order, *argv])
            reports.append((status, json.loads(capsys.readouterr().out)["results"]))
        (status, declared), (sorted_status, reordered) = reports
        assert status == sorted_status, argv
        if argv[0] == "classify":
            # The flags and cross-checks; witnesses may name other elements.
            del declared["witnesses"], reordered["witnesses"]
            assert declared == reordered
        elif argv[0] == "kan":
            # Every check with its witness and its "N squares, M candidate
            # fillers" detail, and the notes.
            assert declared == reordered, argv
        else:
            assert [(c["name"], c["passed"]) for c in declared["checks"]] == \
                [(c["name"], c["passed"]) for c in reordered["checks"]], argv


@pytest.mark.parametrize("name", ["chain(3)", "boolean(2)", "group_algebra(Z/3)",
                                  "horizontal_sum(boolean(2),chain(3))"])
def test_seed_order_keeps_nerve_homology_and_hom_reports(catalog, write_structure,
                                                         capsys, name):
    """nerve, homology, and hom against chain(1) in both directions, give
    the same --json results and exit status under both seed orders."""
    from relfa import cli

    structure = catalog[name]
    path = write_structure(structure, "entry.json")
    commands = [["nerve", path], ["homology", path]]
    if not isinstance(structure, RelFA):
        one = write_structure(chain(1), "chain1.json")
        commands += [["hom", one, path], ["hom", path, one]]
    for argv in commands:
        reports = []
        for order in ("declared", "sorted"):
            status = cli.main(["--json", "--seed-order", order, *argv])
            reports.append((status, json.loads(capsys.readouterr().out)["results"]))
        assert reports[0] == reports[1], argv


@pytest.mark.parametrize("name", ["chain(2)", "boolean(2)", "wright-triangle"])
def test_seed_order_keeps_lift_reports(catalog, write_structure, capsys, name):
    """A lifting report depends only on names, in either form: under
    --seed-order sorted its --json results are the same bytes, a
    count-comparison witness included."""
    from relfa import cli

    path = write_structure(catalog[name], "entry.json")
    methods = set()
    for shape in ("horn-2-1", "box(horn-2-1,horn-2-1)", "box(boundary-1,boundary-1)"):
        reports = []
        for order in ("declared", "sorted"):
            status = cli.main(["--json", "--seed-order", order, "lift", shape, path])
            results = json.loads(capsys.readouterr().out)["results"]
            reports.append((status, json.dumps(results, indent=2, sort_keys=True)))
            methods.add(results["method"])
        assert reports[0] == reports[1], shape
    assert "enumeration" in methods
    if name == "wright-triangle":
        assert "count-comparison" in methods


def test_json_reports_are_byte_identical(chain2_file):
    outputs = {run_cli("--json", "classify", chain2_file).stdout
               for _ in range(3)}
    assert len(outputs) == 1


def test_classify_json_does_not_depend_on_the_hash_seed(write_structure):
    candidate = enumerate_small(2, "frobenius-candidates")[5]
    path = write_structure(candidate, "candidate.json")
    outputs = {run_cli("--json", "classify", path,
                       env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
               for seed in ("0", "1")}
    assert len(outputs) == 1
    (stdout,) = outputs
    assert json.loads(stdout)["results"]["witnesses"]["cancellative"] == \
        ["0", "0", "1", "0"]


def test_help_and_missing_command():
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2
    assert run_cli("conjugate").returncode == 2


def test_startup_imports_neither_dataclasses_nor_inspect(write_structure):
    """``fa`` start-up stays light: importing the tool and running a
    fibration check, a failing lift and a small enumeration in one fresh
    interpreter loads neither ``dataclasses`` nor ``inspect``."""
    c1, c2 = write_structure(chain(1), "c1.json"), write_structure(chain(2), "c2.json")
    script = (
        "import contextlib, io, sys\n"
        "from relfa.cli import main\n"
        f"runs = [['kan', {c1!r}, {c2!r}], ['lift', 'boundary-2', {c2!r}],\n"
        "        ['enumerate', '--size', '3', '--kind', 'effect-algebra']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=False)
    assert proc.stdout.split("\n")[-2:] == ["[0, 1, 0] []", ""], proc.stderr


def test_commands_that_read_no_file_do_not_import_hashlib():
    """Only a command that reads a structure file hashes it: ``enumerate``
    and ``catalog list`` in one fresh interpreter leave ``hashlib``
    unloaded."""
    script = (
        "import contextlib, io, sys\n"
        "from relfa.cli import main\n"
        "runs = [['enumerate', '--size', '3', '--kind', 'effect-algebra'],\n"
        "        ['catalog', 'list']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, 'hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=False)
    assert proc.stdout.split("\n")[-2:] == ["[0, 0] False", ""], proc.stderr
