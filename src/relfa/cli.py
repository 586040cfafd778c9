"""Command line workbench.

Dispatches validation, classification, nerve construction, homology,
mapping complexes, fibration checks, lifting properties, enumeration, and
the builtin catalog.  ``main`` builds the one report of a run: the
command echo, the tool version, a digest of every input file, results,
certificates and exit status, and for a command that did not finish the
error, with empty inputs, results and certificates.  With ``--json`` the
report serialization is byte-stable across runs.  Commands take their
parsed arguments alone, and ``_load`` applies ``--seed-order``.  A
failing property attaches a certificate, and a report exits with status 1
exactly when it carries one; a lifting certificate embeds the full failing
boundary assignment and, as ``rerun``, the shell command that repeats the
check: ``fa lift`` with the shape, the file (with ``./`` before a name
that starts with ``-``), ``--unique`` and ``--seed-order`` as given.
Input problems exit with status 2, and a bug in relfa (a violated internal
invariant, or any exception but ValueError and OSError) with status 3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .algebra import VALIDATE_KINDS, InvariantError, RelFA, SumTable, to_relfa, validate
from .catalog import construct_catalog
from .complexes import TruncatedEpsilonComplex, check_lifting, shape_from_name
from .enumerate_small import KINDS as ENUM_KINDS
from .enumerate_small import enumerate_small
from .homology import h1_universal_group, universal_group_presentation
from .nerve import nerve, recognize_nerve
from .ortho import classify
from .structio import (
    StructureError,
    load_structure,
    parse_structure,
    save_structure,
    structure_to_doc,
)

SEED_ORDERS = ("declared", "sorted")


def _digest(path: str) -> str:
    import hashlib  # imported here, so that only commands that read a file pay for it
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load(path: str, order: str):
    """A structure file and its input digest.  Under ``--seed-order sorted``
    the structure is read back from its document with the carrier, and a
    complex's edge rows, sorted."""
    obj = load_structure(path)
    if order == "sorted":
        doc = structure_to_doc(obj)
        carrier = "vertices" if doc["kind"] == "complex" else "elements"
        doc[carrier] = sorted(doc[carrier])
        if "edges" in doc:
            doc["edges"] = sorted(doc["edges"])
        obj = parse_structure(json.dumps(doc))
    return obj, {"path": path, "sha256": _digest(path)}


def _as_relational(obj, path: str):
    if isinstance(obj, SumTable):
        return to_relfa(obj)
    if isinstance(obj, RelFA):
        return obj
    raise StructureError(path, "expected an algebra, got a complex")


def _as_table(obj, path: str) -> SumTable:
    if isinstance(obj, SumTable):
        return obj
    raise StructureError(path, "expected a sum table")


def _load_tables(args):
    """The source and target sum tables of a two-file command, with their
    input digests."""
    eobj, edig = _load(args.source, args.seed_order)
    fobj, fdig = _load(args.target, args.seed_order)
    return _as_table(eobj, args.source), _as_table(fobj, args.target), [edig, fdig]


def _check_lines(checks) -> list[str]:
    out = []
    for c in checks:
        mark = "ok" if c.passed else "FAIL"
        line = f"  {c.name}: {mark}"
        if not c.passed and c.witness is not None:
            line += f" (witness {c.witness})"
        out.append(line)
    return out


def _failure_certificates(rep, cert_type: str, **fields) -> list[dict]:
    """The certificate of a failing check-by-check report; none if it passed."""
    if rep.passed:
        return []
    return [{"type": cert_type, **fields, "structure": rep.name,
             "failed_checks": [c.to_dict() for c in rep.failing()]}]


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._()-]", "_", name)


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args):
    obj, digest = _load(args.file, args.seed_order)
    if isinstance(obj, TruncatedEpsilonComplex):
        if args.kind is not None:
            raise StructureError(args.file,
                                 "--kind applies to algebra files only")
        rep = recognize_nerve(obj)
    else:
        kind = args.kind or obj.kind
        if kind in ("rel-monoid", "frobenius") and isinstance(obj, SumTable):
            obj = to_relfa(obj)
        rep = validate(kind, obj)
    results = rep.to_dict()
    certificates = _failure_certificates(rep, "validation", kind=rep.kind)
    lines = [f"{rep.kind} {rep.name}: {'PASS' if rep.passed else 'FAIL'}"]
    lines += _check_lines(rep.checks)
    return results, certificates, [digest], lines


def cmd_classify(args):
    obj, digest = _load(args.file, args.seed_order)
    algebra = _as_relational(obj, args.file)
    flags = classify(algebra)
    results = flags.to_dict()
    bad_crosses = sorted(k for k, v in flags.cross_checks.items() if not v)
    certificates = []
    if bad_crosses:
        frobenius = validate("frobenius", algebra)
        if not frobenius.passed:
            raise StructureError(args.file, "not a Frobenius algebra, so the cross-checks "
                                 "do not apply; fails "
                                 + ", ".join(c.name for c in frobenius.failing()))
        certificates.append({
            "type": "classification-cross-check",
            "structure": flags.name,
            "failed": bad_crosses,
            "witnesses": results["witnesses"],
        })

    def show(v):
        return "n/a" if v is None else ("yes" if v else "no")

    lines = [f"{flags.name}:"]
    for key in ("commutative", "cancellative", "eta_singleton",
                "epsilon_boxslash_is_eta", "effect_algebra", "orthoalgebra",
                "orthomodular_poset", "braided"):
        line = f"  {key}: {show(results[key])}"
        if key in flags.witnesses:
            line += f" (witness {flags.witnesses[key]})"
        lines.append(line)
    for key in sorted(flags.cross_checks):
        lines.append(f"  cross-check {key}: "
                     f"{'ok' if flags.cross_checks[key] else 'FAIL'}")
    return results, certificates, [digest], lines


def cmd_nerve(args):
    obj, digest = _load(args.file, args.seed_order)
    N = nerve(_as_relational(obj, args.file))
    rep = recognize_nerve(N)
    results = {
        "name": N.name,
        "vertices": len(N.vertices),
        "edges": len(N.edges),
        "triangles": len(N.triangles),
        "marked": sorted(N.marked),
        "recognition": rep.to_dict(),
    }
    lines = [f"{N.name}: {len(N.vertices)} vertices, {len(N.edges)} edges, "
             f"{len(N.triangles)} triangles, {len(N.marked)} marked"]
    lines.append(f"recognized as a nerve: {'PASS' if rep.passed else 'FAIL'}")
    lines += _check_lines(rep.checks)
    if args.out:
        save_structure(N, args.out)
        results["written"] = args.out
        lines.append(f"written to {args.out}")
    certificates = _failure_certificates(rep, "nerve-recognition")
    return results, certificates, [digest], lines


def cmd_homology(args):
    obj, digest = _load(args.file, args.seed_order)
    pres = h1_universal_group(obj)
    results = {"h1": pres.to_dict()}
    certificates = []
    lines = [f"universal group: {pres.format()}"]
    if isinstance(obj, SumTable):
        direct = universal_group_presentation(obj)
        agree = pres.invariants() == direct.invariants()
        results["direct_presentation"] = direct.to_dict()
        results["presentations_agree"] = agree
        lines.append(f"direct presentation: {direct.format()} "
                     f"({'agrees' if agree else 'DISAGREES'})")
        if not agree:
            certificates.append({
                "type": "homology-mismatch",
                "structure": obj.name,
                "nerve_h1": pres.to_dict(),
                "direct": direct.to_dict(),
            })
    return results, certificates, [digest], lines


def cmd_hom(args):
    # imported here, so that only hom and kan pay for it
    from .mapping import hom_object_ea, verify_mapping_theorem
    E, F, inputs = _load_tables(args)
    hob = hom_object_ea(E, F)
    components = [{"index": comp.index,
                   "morphism": {a: comp.morphism.image[a] for a in E.elements},
                   "loop_top": comp.top,
                   "size": len(comp.carrier)} for comp in hob.components]
    iso = verify_mapping_theorem(E, F, hob)
    results = {
        "hom_object": hob.algebra.name,
        "components": components,
        "elements": len(hob.algebra.elements),
        "mapping_complex_matches": iso,
    }
    certificates = []
    if not iso:
        certificates.append({
            "type": "mapping-comparison",
            "source": E.name,
            "target": F.name,
            "components": components,
        })
    lines = [f"hom({E.name},{F.name}): {len(components)} components, "
             f"{len(hob.algebra.elements)} elements"]
    for comp in components:
        image = ", ".join(f"{a}->{comp['morphism'][a]}" for a in E.elements)
        lines.append(f"  component {comp['index']}: {image} "
                     f"(interval of size {comp['size']})")
    lines.append("mapping complex matches the nerve of the hom object: "
                 f"{'PASS' if iso else 'FAIL'}")
    return results, certificates, inputs, lines


def cmd_kan(args):
    from .mapping import eval_fibration_check
    E, F, inputs = _load_tables(args)
    rep = eval_fibration_check(E, F)
    results = rep.to_dict()
    certificates = _failure_certificates(rep, "fibration")
    lines = [f"{rep.name}: {'PASS' if rep.passed else 'FAIL'}"]
    lines += _check_lines(rep.checks)
    lines += [f"  note: {n}" for n in rep.notes]
    return results, certificates, inputs, lines


def cmd_lift(args):
    shape = shape_from_name(args.shape)
    obj, digest = _load(args.file, args.seed_order)
    if isinstance(obj, TruncatedEpsilonComplex):
        C = obj
    else:
        C = nerve(_as_relational(obj, args.file))
    mode = "unique" if args.unique else "exists"
    rep = check_lifting(shape, C, mode=mode)
    results = rep.to_dict()
    results["target"] = C.name
    certificates = []
    if not rep.passed:
        import shlex  # imported here, so that only a failing lift pays for it
        certificates.append({
            "type": "lifting",
            "shape": shape.name,
            "mode": mode,
            "target": {"file": args.file, "name": C.name,
                       "sha256": digest["sha256"]},
            "failures": list(rep.failures),
            "rerun": shlex.join(["fa", "lift", shape.name, os.path.join(os.curdir, args.file)
                                 if args.file.startswith("-") else args.file]
                                + (["--unique"] if args.unique else [])
                                + (["--seed-order", "sorted"]
                                   if args.seed_order == "sorted" else [])),
        })
    lines = [f"{shape.name} against {C.name} ({mode}): "
             f"{'PASS' if rep.passed else 'FAIL'}"]
    lines.append(f"  {rep.boundaries} boundary morphisms ({rep.method})")
    for f in rep.failures:
        lines.append(f"  unfilled boundary: {f['boundary']} "
                     f"with {f['extensions']} extensions")
    return results, certificates, [digest], lines


def cmd_enumerate(args):
    items = enumerate_small(args.size, args.kind)
    names = [x.name for x in items]
    results = {"kind": args.kind, "size": args.size, "count": len(items),
               "names": names}
    lines = [f"{args.kind} size {args.size}: {len(items)} structures"]
    shown = names if len(names) <= 20 else names[:20]
    lines += [f"  {n}" for n in shown]
    if len(names) > len(shown):
        lines.append(f"  ... and {len(names) - len(shown)} more")
    if args.emit:
        out_dir = Path(args.emit)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for k, item in enumerate(items):
            path = out_dir / f"{k:04d}_{_safe_filename(item.name)}.json"
            save_structure(item, str(path))
            written.append(str(path))
        results["written"] = written
        lines.append(f"wrote {len(written)} files to {args.emit}")
    return results, [], [], lines


def cmd_catalog(args):
    store = construct_catalog()
    if args.action == "list":
        entries = []
        for name, obj in store.items():
            entries.append({
                "name": name,
                "kind": structure_to_doc(obj)["kind"],
                "size": len(obj.elements),
            })
        results = {"entries": entries, "count": len(entries)}
        lines = [f"{len(entries)} catalog entries:"]
        lines += [f"  {e['name']} ({e['kind']}, {e['size']} elements)"
                  for e in entries]
        return results, [], [], lines
    if args.name is None:
        raise StructureError("catalog", f"{args.action} needs a name")
    if args.name not in store:
        raise StructureError("catalog", f"unknown name {args.name!r}")
    obj = store[args.name]
    doc = structure_to_doc(obj)
    if args.action == "show":
        results = {"structure": doc}
        lines = [f"{args.name} ({doc['kind']}, {len(obj.elements)} elements)"]
        lines.append(json.dumps(doc, indent=2, sort_keys=True))
        return results, [], [], lines
    path = args.out or f"{_safe_filename(args.name)}.json"
    save_structure(obj, path)
    results = {"written": path, "name": args.name, "kind": doc["kind"]}
    lines = [f"exported {args.name} to {path}"]
    return results, [], [], lines


# ---------------------------------------------------------------------------
# Parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    # The global flags work before or after the subcommand; SUPPRESS keeps a
    # subparser from overwriting them, and main() supplies the defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="print the report as byte-stable JSON")
    common.add_argument("--seed-order", choices=SEED_ORDERS, default=argparse.SUPPRESS,
                        help="identifier order of loaded structures")
    parser = argparse.ArgumentParser(
        prog="fa", parents=[common],
        description="Workbench for finite sum tables, relational algebras, "
                    "and their marked complexes.")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    def sub(name: str, help: str) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help, parents=[common])

    p = sub("validate", help="check the axioms of a structure file")
    p.add_argument("file")
    p.add_argument("--kind", choices=VALIDATE_KINDS)
    p.set_defaults(func=cmd_validate)

    p = sub("classify", help="classification flags of an algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub("nerve", help="build the marked complex of an algebra")
    p.add_argument("file")
    p.add_argument("--out", help="write the complex to this path")
    p.set_defaults(func=cmd_nerve)

    p = sub("homology", help="first homology / universal group")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub("hom", help="mapping structure between two tables")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hom)

    p = sub("kan", help="evaluation fibration check for two tables")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_kan)

    p = sub("lift", help="lifting property of a shape against a structure")
    p.add_argument("shape", help="shape name, e.g. horn-2-1 or "
                                 "box(horn-2-0,boundary-1)")
    p.add_argument("file")
    p.add_argument("--unique", action="store_true",
                   help="require exactly one extension")
    p.set_defaults(func=cmd_lift)

    p = sub("enumerate", help="enumerate small structures")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--kind", required=True, choices=ENUM_KINDS)
    p.add_argument("--emit", help="write each structure to this directory")
    p.set_defaults(func=cmd_enumerate)

    p = sub("catalog", help="builtin structure registry")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", help="export destination path")
    p.set_defaults(func=cmd_catalog)

    return parser


def _emit(lines: list[str]) -> bool:
    """Print the lines to stdout and flush it; False if the reader closed the
    pipe, after pointing stdout at the null device for the flush at exit."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(
            raw, argparse.Namespace(json=False, seed_order="declared"))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    report = {"command": raw, "version": __version__,
              "inputs": [], "results": {}, "certificates": []}
    try:
        report["results"], report["certificates"], report["inputs"], lines = args.func(args)
    except InvariantError as exc:
        report.update(error=str(exc), exit=3)
    except (ValueError, OSError) as exc:
        report.update(error=str(exc), exit=2)
    except Exception as exc:
        import traceback  # imported here, so that only a bug pays for it
        traceback.print_exc()
        report.update(error=f"{type(exc).__name__}: {exc}", exit=3)
    else:
        report["exit"] = 1 if report["certificates"] else 0
    status = report["exit"]
    if args.json:
        lines = [json.dumps(report, indent=2, sort_keys=True)]
    elif "error" in report:
        label = "internal error" if status == 3 else "error"
        print(f"{label}: {report['error']}", file=sys.stderr)
        return status
    else:
        lines += [f"certificate: {json.dumps(cert, sort_keys=True)}"
                  for cert in report["certificates"]]
    # A closed stdout makes a finished command exit 2; an error exits 2 or 3 already.
    return status if _emit(lines) else max(status, 2)


if __name__ == "__main__":
    sys.exit(main())
