"""Command-line interface.

Subcommands: ``compute`` (one quantity on files), ``check`` (one
inequality on files), ``fuzz`` (randomized campaign over the catalog),
``repro`` (bundled worked examples) and ``elliptic`` (discrete energy
space demo).  Every command prints a single JSON document, or a plain
table where ``--format table`` applies.

Exit codes: 0 success / satisfied, 1 violated or failed comparisons,
2 invalid input, 3 membership failure (no metric adjoint / unbounded
form).  The environment variable OPRADIUS_TOL overrides the default
space tolerance.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import elliptic, repro
from .ensembles import EnsembleConfig
from .errors import ConfigError, NotInBA, OpRadiusError, UnboundedForm
from .functionals import (
    a_crawford,
    a_numerical_radius,
    operator_a_norm,
)
from .harness import run_fuzz
from .inequalities import (
    TOL_ABS,
    TOL_REL,
    deserialize_operands,
    evaluate,
    get_entry,
    list_catalog,
)
from .numkernel import load_json, load_matrix, matrix_from_json, matrix_to_json
from .space import DEFAULT_TOL, build_space

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_BAD_INPUT = 2
EXIT_UNBOUNDED = 3


def _default_tol() -> float:
    raw = os.environ.get("OPRADIUS_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"OPRADIUS_TOL={raw!r} is not a number") from None


def _load_space(path: str):
    obj = load_json(path)
    try:
        tol = float(obj.get("tol", _default_tol()))
    except (AttributeError, TypeError):
        raise ValueError(f"{path}: not a matrix object with a numeric tol") from None
    return build_space(matrix_from_json(obj), tol=tol)


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    space = _load_space(args.space)
    T = load_matrix(args.op)
    q = args.quantity
    if q == "norm":
        doc = {"quantity": "norm", "value": operator_a_norm(space, T)}
    elif q == "radius":
        r = a_numerical_radius(space, T)
        doc = {
            "quantity": "radius", "value": r.value,
            "argmax_angle": r.argmax_angle, "gap": r.gap,
            "lo": r.lo, "hi": r.hi,
            "witness": [[float(z.real), float(z.imag)] for z in r.witness],
        }
    elif q == "crawford":
        doc = {"quantity": "crawford", "value": a_crawford(space, T)}
    elif q == "adjoint":
        doc = {"quantity": "adjoint", **matrix_to_json(space.sharp_adjoint(T))}
    elif q == "classify":
        doc = {"quantity": "classify",
               **dataclasses.asdict(space.classify(T))}
    else:  # "compress"; argparse restricts the choices
        doc = {"quantity": "compress", **matrix_to_json(space.compression(T))}
    _emit(doc)
    return EXIT_OK


def cmd_check(args) -> int:
    space = _load_space(args.space)
    entry = get_entry(args.id)
    operands = deserialize_operands(
        entry.operand_kind, [load_matrix(p) for p in args.operands])
    params = {}
    for kv in args.params or []:
        key, _, val = kv.partition("=")
        if not _:
            raise ValueError(f"bad --params item {kv!r}, expected k=v")
        params[key] = float(val)
    report = evaluate(args.id, space, operands, params,
                      tol_abs=args.tol_abs, tol_rel=args.tol_rel)
    _emit(report.to_json())
    if report.status == "Satisfied":
        return EXIT_OK
    if report.status == "Violated":
        return EXIT_VIOLATED
    return EXIT_BAD_INPUT


def _parse_dims(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",") if p]


def cmd_fuzz(args) -> int:
    config = EnsembleConfig(
        dims=_parse_dims(args.dims),
        rank_policy="each" if args.ranks == "all" else "full",
        trials=args.trials,
        master_seed=args.seed,
    )
    entries = None
    if args.entries:
        entries = [e for part in args.entries for e in part.split(",") if e]
    observer = None
    if args.verbose:
        def observer(trial, rep):
            line = {"trial": trial, **rep.to_json()}
            line.pop("operands", None)
            print(json.dumps(line))
    report = run_fuzz(config, entry_filter=entries, observer=observer)
    doc = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    violations_path = args.violations_out
    if violations_path is None and args.out:
        violations_path = args.out + ".violations.jsonl"
    if violations_path:
        with open(violations_path, "w", encoding="utf-8") as fh:
            for rec in report.violations + report.flagged_findings:
                fh.write(json.dumps(rec) + "\n")
    summary = {
        "trials": config.trials,
        "entries": len(doc["entries"]),
        "violations": len(report.violations),
        "flagged_findings": len(report.flagged_findings),
        "duration_seconds": report.duration,
    }
    _emit(summary if args.out else doc)
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_repro(args) -> int:
    result = repro.run_case(args.case)
    if args.format == "json":
        _emit(result.to_json())
    else:
        print(f"case {result.case}")
        for row in result.rows:
            if row.passed is None:
                mark = "NOTE"
            else:
                mark = "PASS" if row.passed else "FAIL"
            exp = "-" if row.expected is None else f"{row.expected:.9g}"
            got = "-" if row.computed is None else f"{row.computed:.9g}"
            print(f"  [{mark}] {row.label}: expected {exp}  computed {got}")
            if row.note:
                print(f"         {row.note}")
        for note in result.notes:
            print(f"  note: {note}")
        print(f"  result: {'ok' if result.ok else 'FAILED comparisons'}")
    return EXIT_OK if result.ok else EXIT_VIOLATED


def cmd_elliptic(args) -> int:
    ns = [int(p) for p in args.n.split(",") if p]
    rows = elliptic.run_demo(ns, potential=args.potential)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
    if args.format == "json":
        _emit(rows)
    else:
        print(f"{'N':>5} {'dim':>7} {'lhs':>12} {'rhs':>12}  satisfied")
        for row in rows:
            print(f"{row['N']:>5} {row['dim']:>7} {row['lhs']:>12.6f} "
                  f"{row['rhs']:>12.6f}  {row['satisfied']}")
    return EXIT_OK if all(r["satisfied"] for r in rows) else EXIT_VIOLATED


def cmd_catalog(args) -> int:
    doc = [
        {"id": e.id, "statement": e.statement, "operands": e.operand_kind,
         "params": list(e.params), "variant": e.variant, "flagged": e.flagged}
        for e in list_catalog()
    ]
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opradius",
        description="semi-Hilbertian operator functionals and inequality "
                    "verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one quantity from files")
    p.add_argument("--space", required=True, help="metric JSON file")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.add_argument("--quantity", required=True,
                   choices=["norm", "radius", "crawford", "adjoint",
                            "classify", "compress"])
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("check", help="evaluate one catalog inequality")
    p.add_argument("--id", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--operands", nargs="*", default=[])
    p.add_argument("--params", nargs="*", default=[], metavar="K=V")
    p.add_argument("--tol-abs", type=float, default=TOL_ABS)
    p.add_argument("--tol-rel", type=float, default=TOL_REL)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fuzz", help="randomized campaign over the catalog")
    p.add_argument("--dims", default="2..6", help="e.g. 2..6 or 2,3,4")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--ranks", choices=["full", "all"], default="all")
    p.add_argument("--entries", nargs="*", default=[])
    p.add_argument("--out", help="write the full report JSON here")
    p.add_argument("--violations-out",
                   help="violations JSONL path (default: <out>.violations.jsonl)")
    p.add_argument("--verbose", action="store_true",
                   help="one JSON line per (trial, entry)")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("repro", help="run a bundled worked example")
    p.add_argument("--case", required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_repro)

    p = sub.add_parser("elliptic", help="energy-space anticommutator demo")
    p.add_argument("--n", default="10,20,40")
    p.add_argument("--out")
    p.add_argument("--potential", choices=["sine", "zero"], default="sine")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_elliptic)

    p = sub.add_parser("catalog", help="list the inequality catalog")
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UnboundedForm, NotInBA) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (OpRadiusError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
