"""Dump and compare the results that a change to opradius must hold fixed.

    PYTHONPATH=src python tools/held_results.py dump OUT.json
    python tools/held_results.py compare A.json B.json

``dump`` imports opradius from the path it is given (so one copy of this
script can measure any checkout) and writes one JSON document with these
sections:

- ``fuzz``: the 1000-trial seed-42 acceptance campaign over dims 2-6 and
  every rank, as ``FuzzReport.to_json()`` without ``duration_seconds``;
- ``repro``: ``opradius repro --case C --format json`` for every case;
- ``compute``: ``opradius compute`` for every quantity on every space and
  operator file in ``data/``, as exit code, stdout and stderr;
- ``elliptic``: ``lhs``, ``rhs`` and ``w_S`` of the demo at N = 10, 20, 40;
- ``large``: radius and Crawford number, each with its ``hi``, of the
  generic r = 128 and r = 129 templates of the benchmark's ``large``
  workload;
- ``crawford``: the Crawford number and its ``hi`` of the compression M of
  each ``pair`` and ``family`` operator of the first 20 kits of the
  seed-42 campaign, and of M + 2 ||M||_2 I, whose numerical range lies
  off 0 (198 pairs).

``compare`` prints, per section, how many floats moved and each move,
largest relative move first, then every other difference (a string, an
integer, a flag, a key or a length), and exits 1 if there is any such
other difference.  Dump both sides with the same numpy build and BLAS
thread settings.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

# opradius is imported inside the dump sections only: compare needs two
# files and no checkout
DATA = Path(__file__).resolve().parents[1] / "data"
QUANTITIES = ("norm", "radius", "crawford", "adjoint", "classify", "compress")
ELLIPTIC_NS = (10, 20, 40)
LARGE_RANKS = (128, 129)
CRAWFORD_KITS = 20


def _campaign():
    from opradius.ensembles import EnsembleConfig

    return EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each",
                          trials=1000, master_seed=42)


def _fuzz() -> dict:
    from opradius.harness import run_fuzz

    doc = run_fuzz(_campaign()).to_json()
    del doc["duration_seconds"]
    return doc


def _repro() -> dict:
    from opradius import repro

    return {case: repro.run_case(case).to_json() for case in sorted(repro.CASES)}


def _compute() -> dict:
    from opradius.cli import main

    out = {}
    for space in sorted(DATA.glob("space_*.json")):
        for op in sorted(DATA.glob("op_*.json")):
            for q in QUANTITIES:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = main(["compute", "--space", str(space),
                                 "--op", str(op), "--quantity", q])
                text = stdout.getvalue()
                out[f"{space.stem}/{op.stem}/{q}"] = {
                    "exit": code,
                    "stdout": json.loads(text) if code == 0 else text,
                    "stderr": stderr.getvalue(),
                }
    return out


def _elliptic() -> dict:
    from opradius.elliptic import run_case

    out = {}
    for N in ELLIPTIC_NS:
        row = run_case(N)
        out[f"N{N}"] = {k: row[k] for k in ("lhs", "rhs", "w_S")}
    return out


def _large() -> dict:
    from opradius.ensembles import random_in_BA, random_space
    from opradius.functionals import _crawford, a_numerical_radius

    out = {}
    for r in LARGE_RANKS:
        rng = np.random.default_rng([0, r])
        space = random_space(r, r, rng)
        T = random_in_BA(space, rng)
        rad = a_numerical_radius(space, T)
        crawford, crawford_hi = _crawford(space.compression(T))
        out[f"r{r}"] = {"radius": rad.value, "radius_hi": rad.hi,
                        "crawford": crawford, "crawford_hi": crawford_hi}
    return out


def _crawford_numbers() -> dict:
    from opradius.functionals import _crawford, spectral_norm
    from opradius.harness import build_kit

    out = {}
    for trial in range(CRAWFORD_KITS):
        kit = build_kit(_campaign(), trial)
        for i, T in enumerate(kit.operands["pair"] + kit.operands["family"]):
            M = kit.space.compression(T)
            shifted = M + 2 * spectral_norm(M) * np.eye(len(M))
            for name, X in (("M", M), ("shifted", shifted)):
                value, hi = _crawford(X)
                out[f"trial{trial}/op{i}/{name}"] = {"value": value, "hi": hi}
    return out


SECTIONS = {"fuzz": _fuzz, "repro": _repro, "compute": _compute,
            "elliptic": _elliptic, "large": _large, "crawford": _crawford_numbers}


def _walk(a, b, path: str, moves: list, other: list) -> None:
    """Append to ``moves`` each ``(relative move, path, a, b)`` of a float
    pair and to ``other`` each other difference."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            moves.append((0.0, path, a, b))
        elif math.isfinite(a) and math.isfinite(b):
            moves.append((abs(a - b) / max(abs(a), abs(b)), path, a, b))
        else:
            other.append(f"{path}: {a!r} -> {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            if k not in a or k not in b:
                other.append(f"{path}/{k}: only in {'B' if k in b else 'A'}")
            else:
                _walk(a[k], b[k], f"{path}/{k}", moves, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: length {len(a)} -> {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", moves, other)
    elif type(a) is not type(b) or a != b:
        other.append(f"{path}: {a!r} -> {b!r}")


def compare(a: dict, b: dict) -> int:
    status = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {'B' if name in b else 'A'}")
            status = 1
            continue
        moves, other = [], []
        _walk(a[name], b[name], name, moves, other)
        moved = sorted((m for m in moves if m[0] > 0), reverse=True)
        print(f"{name}: {len(moved)} of {len(moves)} floats moved"
              + (f", at most {moved[0][0]:.2g} relative" if moved else ""))
        for rel, path, x, y in moved:
            print(f"  {rel:.2g}  {path}: {x!r} -> {y!r}")
        for line in other:
            print(f"  {line}")
        status = status or int(bool(other))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the held results as JSON")
    p.add_argument("out")
    p = sub.add_parser("compare", help="compare two dumps")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args(argv)
    if args.command == "compare":
        with open(args.a) as fa, open(args.b) as fb:
            return compare(json.load(fa), json.load(fb))
    doc = {name: fn() for name, fn in SECTIONS.items()}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
