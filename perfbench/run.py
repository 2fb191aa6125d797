"""opradius benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload fuzz-small --seed 42 --seconds 55 --trace 0

Run from the root of a source checkout (``src/opradius`` must exist).
It runs the workload in a fresh single-process interpreter with the
BLAS thread count pinned (``worker.py``), times ``import opradius`` in
fresh interpreters before and after it (``setup_s``), checks every
output, prints
each metric with its unit and, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (environment, pass times, latency percentile, notes) goes to
``.perfbench_out/`` and is printed as the line before.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Half before the workload and half after it, so that the median spans
# the run: this host's speed drifts by up to 1.6x over tens of seconds.
SETUP_REPEATS = 8
# One BLAS thread: on a shared 2-vCPU machine a second OpenBLAS thread
# sped up only the N = 40 mesh, and made each pass wait for both vCPUs:
# with one other busy process on the machine, 2-thread passes ran 5x slower.
BLAS_THREADS = 1
DEADLINE_S = 170.0


def pinned_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def setup_times(env, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that only ``import opradius``.

    ``wait()`` blocks in ``waitpid``; a wait with a timeout polls in
    steps of up to 50 ms, which would round every time up to a step.
    A timer kills an interpreter that hangs."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import opradius"],
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        out.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return out


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    """Commit, sources and machine; the worker adds library versions."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "caches": caches, "blas_threads_pinned": BLAS_THREADS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "opradius" / "__init__.py").is_file():
        print(f"error: no opradius sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = pinned_env(BLAS_THREADS)
    setups = setup_times(env, SETUP_REPEATS // 2)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": machine(), "setup_runs_s": setups}

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(10.0, DEADLINE_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    setups += setup_times(env, SETUP_REPEATS - SETUP_REPEATS // 2)

    metrics = worker["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = worker["attempted"], worker["failed"]
    info["environment"].update(worker["environment"])
    info.update(worker["details"], notes=worker["notes"],
                fail_ratio=failed / attempted if attempted else 1.0)

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_ratio = {info['fail_ratio']!r} ({failed} of {attempted} ops)")
    for note in worker["notes"]:
        print(f"check failed: {note}")
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
