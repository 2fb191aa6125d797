"""Run one workload in this interpreter and print its result as JSON.

``run.py`` starts this script in a fresh interpreter with the BLAS
thread count pinned.  Every run starts with an untimed warm-up pass on
the inputs of pass 0.  Untraced, it then repeats fixed-size passes for
the rest of the measuring window, each on fresh inputs, and reports the
end-to-end metrics; traced, it times untraced passes on the inputs of
pass 0 for half the window, then two traced passes on the same inputs,
whose exact counts must agree.

    python3 perfbench/worker.py --workload fuzz-small --seed 42 \
        --seconds 55 --trace 0
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import opradius
import opradius.elliptic  # noqa: F401  (the package does not import it)

import spans as tracing
import workloads

OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench_out"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 2
REPLAYS = 3
SPAN_LAYERS = ("functionals.crawford_number", "functionals.sampling_oracle",
               "functionals.spectral_norm", "space.build_space",
               "space.compression", "inequalities.fingerprint_payload")


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for b in tracing.RANK_BUCKETS:
        out += [(f"functionals.numerical_radius.{b}.calls", "count", "lower"),
                (f"functionals.numerical_radius.{b}.self_s", "s", "lower")]
    out += [("numpy.eig.calls", "count", "lower"),
            ("numpy.eig.matrices", "count", "lower")]
    for layer in SPAN_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [("space.resident_bytes", "B", "lower"),
            ("space.membership_residual.calls", "count", "lower"),
            ("inequalities.fingerprint_useful_ratio", "ratio", "higher"),
            ("inequalities.EvalContext.rad_hit_ratio", "ratio", "higher"),
            ("inequalities.EvalContext.nrm_hit_ratio", "ratio", "higher")]
    out += [(f"inequalities.{e.id}.self_s", "s", "lower")
            for e in opradius.inequalities.list_catalog()]
    out += [("ensembles.draw.self_s", "s", "lower"),
            ("harness.build_kit.self_s", "s", "lower"),
            ("harness.run_fuzz.self_s", "s", "lower")]
    out += [(f"elliptic.run_case.N{n}_s", "s", "lower") for n in workloads.ELLIPTIC_NS]
    out += [("elliptic.dirichlet_laplacian.self_s", "s", "lower"),
            ("trace_overhead_ratio", "ratio", "lower")]
    return out


def library_versions() -> dict:
    """numpy, scipy (without importing it) and the BLAS numpy loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"numpy": np.__version__, "scipy": scipy_version,
            "blas_vendor": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def latency_summary(lat_ms: list[float]) -> dict:
    """Median and the highest ladder percentile with >= 10 samples
    beyond it.  Below 20 samples no percentile has that many beyond it,
    and the tail is reported as the median (the maximum of a handful of
    samples would measure the noisiest one, not a tail)."""
    n = len(lat_ms)
    tail_q = next((q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= 10), 50.0)
    return {"p50_ms": workloads.percentile(lat_ms, 50.0),
            "tail_ms": workloads.percentile(lat_ms, tail_q),
            "tail_percentile": tail_q, "samples": n}


class Runner:
    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.ref = workloads.load_reference()[wl.name]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.findings: list[dict] = []     # flagged fuzz findings to replay

    def one_pass(self, inputs, mark=lambda i: None):
        """Time one pass; returns wall seconds, per-op ms and outputs."""
        t0 = time.perf_counter()
        out, stamps = self.wl.run_pass(inputs, mark)
        wall = time.perf_counter() - t0
        return wall, [1e3 * (b - a) for a, b in zip([t0] + stamps[:-1], stamps)], out

    def check(self, inputs, out, lat):
        bad, notes = self.wl.check(inputs, out, self.ref)
        self.attempted += len(lat)
        self.failed += len(bad)
        self.notes += notes
        if isinstance(self.wl, workloads.FuzzSmall):
            seen = {r["fingerprint"] for r in self.findings}
            new = [r for r in self.wl.flagged_findings(out) if r["fingerprint"] not in seen]
            self.findings += new[:REPLAYS - len(self.findings)]

    def passes(self, seconds, at_least, fresh=True):
        """A checked, untimed warm-up pass on the inputs of pass 0, then
        timed passes back to back while the next one should end within
        ``seconds`` of the start (warm-up and checks count).  With
        ``fresh`` timed pass k runs the inputs of pass k (k = 1, 2, ...),
        otherwise every pass runs pass 0's."""
        start = time.perf_counter()
        inputs = self.wl.ops(self.seed, 0)
        _, lat, out = self.one_pass(inputs)
        self.check(inputs, out, lat)
        walls, lats = [], []
        while True:
            inputs = self.wl.ops(self.seed, len(walls) + 1 if fresh else 0)
            wall, lat, out = self.one_pass(inputs)
            self.check(inputs, out, lat)
            walls.append(wall)
            lats += [1e3 * wall] if self.wl.latency_per_pass else lat
            elapsed = time.perf_counter() - start
            if (len(walls) >= at_least
                    and elapsed + statistics.median(walls) > seconds):
                return walls, lats


def traced_pass(runner):
    inputs = runner.wl.ops(runner.seed, 0)
    rec = tracing.Recorder()
    rec.install(opradius)
    try:
        wall, lat, out = runner.one_pass(inputs, mark=lambda i: setattr(rec, "op", i))
    finally:
        rec.uninstall()
    runner.check(inputs, out, lat)
    return rec, wall, out


def layer_metrics(rec, out, wl, overhead):
    calls, self_s, total_s = rec.layer_stats()
    m = {}
    for b in tracing.RANK_BUCKETS:
        name = f"functionals.numerical_radius.{b}"
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    m["numpy.eig.calls"] = rec.counts["numpy.eig.calls"]
    m["numpy.eig.matrices"] = rec.counts["numpy.eig.matrices"]
    for layer in SPAN_LAYERS:
        m[layer + ".calls"] = calls.get(layer, 0)
        m[layer + ".self_s"] = self_s.get(layer, 0.0)
    m["space.resident_bytes"] = rec.resident_bytes
    m["space.membership_residual.calls"] = rec.counts["space.membership_residual.calls"]
    fps = calls.get("inequalities.fingerprint_payload", 0)
    reads = wl.fingerprint_reads(out) if hasattr(wl, "fingerprint_reads") else 0
    m["inequalities.fingerprint_useful_ratio"] = reads / fps if fps else 0.0
    for attr, child in (("rad", "functionals.numerical_radius"),
                        ("nrm", "functionals.spectral_norm")):
        parent = f"inequalities.EvalContext.{attr}"
        n = calls.get(parent, 0)
        misses = rec.parent_names(child)[parent]
        m[f"inequalities.EvalContext.{attr}_hit_ratio"] = (n - misses) / n if n else 0.0
    for e in opradius.inequalities.list_catalog():
        m[f"inequalities.{e.id}.self_s"] = self_s.get(f"inequalities.{e.id}", 0.0)
    for name in ("ensembles.draw", "harness.build_kit", "harness.run_fuzz",
                 "elliptic.dirichlet_laplacian"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for n in workloads.ELLIPTIC_NS:
        m[f"elliptic.run_case.N{n}_s"] = total_s.get(f"elliptic.run_case.N{n}", 0.0)
    m["trace_overhead_ratio"] = overhead
    return m, calls


def exact_counts(rec):
    calls, _, _ = rec.layer_stats()
    return {**calls, **rec.counts, "space.resident_bytes": rec.resident_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](opradius)
    runner = Runner(wl, args.seed)
    details = {}
    if args.trace == 0:
        walls, lats = runner.passes(args.seconds, MIN_PASSES)
        lat = latency_summary(lats)
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "op_p50_ms": (lat["p50_ms"], "ms"),
                   "op_tail_ms": (lat["tail_ms"], "ms")}
        details.update(passes=len(walls), pass_walls_s=walls, latency=lat)
    else:
        walls, _ = runner.passes(args.seconds / 2, 1, fresh=False)
        rec_a, wall_a, out_a = traced_pass(runner)
        rec_b, wall_b, _ = traced_pass(runner)
        counts_a, counts_b = exact_counts(rec_a), exact_counts(rec_b)
        if counts_a != counts_b:
            diff = sorted(k for k in set(counts_a) | set(counts_b)
                          if counts_a.get(k) != counts_b.get(k))
            runner.notes.append(f"traced counts differ between two passes: {diff}")
            runner.failed += 1
        overhead = statistics.median([wall_a, wall_b]) / statistics.median(walls)
        layer, calls = layer_metrics(rec_a, out_a, wl, overhead)
        metrics = {name: (layer[name], unit) for name, unit, _ in per_layer_names()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec_a.write(spans_path)
        details.update(untraced_walls_s=walls, traced_walls_s=[wall_a, wall_b],
                       counts_repeat=counts_a == counts_b, span_calls=calls,
                       spans_file=str(spans_path.relative_to(OUT_DIR.parent)))

    if isinstance(wl, workloads.FuzzSmall):
        bad = wl.replay(runner.findings)
        runner.failed += len(bad)
        runner.notes += [f"replay of flagged finding from trial {t} differs" for t in bad]
        details["replayed_findings"] = len(runner.findings)

    if args.trace == 0:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result = {
        "attempted": runner.attempted,
        "failed": min(runner.failed, runner.attempted),
        "notes": runner.notes[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "environment": library_versions(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
