"""The two benchmark workloads: inputs from a seed, timed ops, checks.

Each workload is a closed loop with one caller: an op starts when the
previous one has returned.  ``ops(seed, k)`` makes the inputs of pass
``k`` (outside timing), so each pass of a run measures fresh draws;
``run_pass(inputs, mark)`` runs one pass at the workload's fixed size
and returns per-op outputs and end timestamps; ``check(...)`` returns
the indices of ops whose outputs are wrong.
Where the ops of a pass differ in size by orders of magnitude
(``latency_per_pass``), latency is taken per pass instead of per op.

Only public functions of ``opradius.space``, ``functionals``,
``inequalities``, ``ensembles``, ``harness`` and ``elliptic`` are called,
always through the module attribute so a traced run sees the call.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 42

FUZZ_TRIALS = 20              # one sweep of the (dim, rank) lattice
MARGIN_ABS, MARGIN_REL = 1e-8, 1e-8

LARGE_RANKS = (128, 129)         # both sides of DENSE_SWEEP_MAX = 128
TEMPLATE_SEED = 0
LARGE_NORM_REL, LARGE_SWEEP_REL = 1e-8, 1e-6
ORACLE_SAMPLES = 2000
ELLIPTIC_NS = (10, 20)           # dims 81 and 361
ELLIPTIC_REL = 1e-9


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    """|a - b| within ``rel`` of ``scale`` (default |b|)."""
    return abs(a - b) <= rel * (abs(b) if scale is None else scale)


def _timed(ops, call, mark):
    """Run ``call`` on each op in order; returns outputs and end stamps.
    An op that raises yields its exception as output."""
    outs, stamps = [], []
    for i, op in enumerate(ops):
        mark(i)
        try:
            outs.append(call(op))
        except Exception as exc:  # counted as a failed op by the checks
            outs.append(exc)
        stamps.append(time.perf_counter())
    return outs, stamps


# ---------------------------------------------------------------------------
# fuzz-small: one op is one trial of a run_fuzz campaign
# ---------------------------------------------------------------------------

class FuzzSmall:
    name = "fuzz-small"
    latency_per_pass = False

    def __init__(self, pkg):
        self.pkg = pkg

    def ops(self, seed, k):
        """Pass 0 is the campaign of ``seed`` itself; later passes get
        master seeds derived from (seed, k)."""
        master = seed if k == 0 else int(
            np.random.SeedSequence([seed, k]).generate_state(1)[0])
        return self.pkg.ensembles.EnsembleConfig(trials=FUZZ_TRIALS,
                                                 master_seed=master)

    def run_pass(self, config, mark):
        """One ``run_fuzz`` campaign; a trial ends at its last evaluation."""
        n_entries = len(self.pkg.inequalities.list_catalog())
        rows, stamps = [], []

        def observer(trial, report):
            rows.append((trial, report.id, report.status, report.margin))
            if len(rows) % n_entries == 0:
                stamps.append(time.perf_counter())
        try:
            report = self.pkg.harness.run_fuzz(config, observer=observer)
        except Exception as exc:
            report = exc
        return {"report": report, "rows": rows}, stamps

    def fingerprint_reads(self, out):
        """Violation records carry the fingerprint; satisfied reports
        never read it."""
        rep = out["report"]
        return len(rep.violations) + len(rep.flagged_findings)

    def check(self, config, out, ref):
        rep, rows = out["report"], out["rows"]
        trials = config.trials
        n_entries = len(self.pkg.inequalities.list_catalog())
        if isinstance(rep, Exception) or len(rows) != trials * n_entries:
            return set(range(trials)), [f"run_fuzz failed: {rep!r}"]
        bad, notes = set(), []
        flagged = {e.id for e in self.pkg.inequalities.list_catalog() if e.flagged}
        for trial, eid, status, _ in rows:
            if status == "Violated" and eid not in flagged:
                bad.add(trial)
                notes.append(f"trial {trial}: proven entry {eid} violated")
        if rep.violations:
            notes.append(f"{len(rep.violations)} non-flagged violation records")
        if config.master_seed == ref["seed"] and trials == ref["trials"]:
            for k, (trial, eid, status, margin) in enumerate(rows):
                want_status = ref["status"][trial][k % n_entries]
                want_margin = ref["margins"][trial][k % n_entries]
                same = status[0] == want_status and (
                    margin is None if want_margin is None else
                    margin is not None and abs(margin - want_margin)
                    <= MARGIN_ABS + MARGIN_REL * abs(want_margin))
                if not same:
                    bad.add(trial)
                    notes.append(f"trial {trial} {eid}: {status} {margin} "
                                 f"!= reference {want_status} {want_margin}")
            got = {k: [v.applicable, v.violations, v.flagged]
                   for k, v in rep.entries.items()}
            if got != ref["entries"]:
                notes.append("per-entry applicable/violation/flagged counts "
                             "differ from the reference")
                bad.update(range(trials))
        return bad, notes

    def flagged_findings(self, out) -> list:
        rep = out["report"]
        return [] if isinstance(rep, Exception) else rep.flagged_findings

    def replay(self, records) -> set:
        """Replay flagged findings; each must reproduce bit-for-bit.
        Returns the trials whose replay differed."""
        bad = set()
        for record in records:
            again = self.pkg.harness.replay(record)
            if (again.status, again.lhs, again.rhs, again.margin,
                    again.fingerprint) != ("Violated", record["lhs"], record["rhs"],
                                           record["margin"], record["fingerprint"]):
                bad.add(record["trial"])
        return bad


def _radius_invariants(T, out) -> list:
    """Checks every radius query must pass, whatever the seed."""
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    sp, norm, rad, craw = out["space"], out["norm"], out["rad"], out["craw"]
    w, tol = rad.value, 1e-9 * max(1.0, out["norm"])
    problems = []
    if not (norm / 2 - tol <= w <= norm + tol):
        problems.append(f"radius {w} outside [||T||/2, ||T||] = [{norm / 2}, {norm}]")
    if craw > w + tol:
        problems.append(f"Crawford {craw} > radius {w}")
    x = rad.witness
    form = abs(sp.a_inner(T @ x, x))
    if abs(form - w) > rad.gap + tol or abs(sp.a_norm(x) - 1.0) > 1e-8:
        problems.append(f"witness gives {form}, radius {w}, gap {rad.gap}")
    return problems


# ---------------------------------------------------------------------------
# large: the energy-space meshes and generic dense operators at r = 128, 129
# ---------------------------------------------------------------------------

class Large:
    """One pass is four ops, in an order the seed permutes:
    ``elliptic.run_case`` at N = 10 and 20 (dims 81 and 361: the dense
    and the block-subspace sweep on the structured demo operator) and a
    one-shot query on a generic dense operator at r = 128 and r = 129
    (both sides of ``DENSE_SWEEP_MAX = 128``): space, seminorm, radius
    with its witness, Crawford number, A-adjoint, classification and a
    sampling-oracle lower bound, with nothing shared between ops.

    The mesh operator is fixed by the demo (5-point Laplacian metric,
    sine potential).  Each generic operator is a seeded random unitary
    similarity and positive scaling of a fixed template draw.  The sweep
    cost depends on the draw (on the spectral gaps for the block path,
    which varied 20x between plain draws at r = 160; on how many grid
    maxima get refined for the dense path, so a unimodular rotation moved
    it by 20%), so fixing the template up to these exact invariances
    keeps the cost seed-independent while every seed still hands the
    program new dense matrices.  The invariances also give the expected
    values: the seminorm, radius and Crawford number all scale by the
    factor."""

    name = "large"
    latency_per_pass = True

    def __init__(self, pkg):
        self.pkg = pkg
        self.templates = {r: self.template(r) for r in LARGE_RANKS}

    def template(self, r):
        ens = self.pkg.ensembles
        rng = np.random.default_rng([TEMPLATE_SEED, r])
        sp0 = ens.random_space(r, r, rng)
        return sp0.metric, ens.random_in_BA(sp0, rng)

    def generic(self, seed, k, r):
        A0, T0 = self.templates[r]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k, r)))
        Z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        V, R = np.linalg.qr(Z)
        V = V * (np.diag(R) / np.abs(np.diag(R)))
        scale = float(np.exp(rng.uniform(-1.0, 1.0)))
        A = V @ A0 @ V.conj().T
        return {"r": r, "scale": scale, "A": (A + A.conj().T) / 2,
                "T": scale * (V @ T0 @ V.conj().T),
                "oracle_seed": int(rng.integers(2**31))}

    def ops(self, seed, k):
        ops = [{"N": N} for N in ELLIPTIC_NS]
        ops += [self.generic(seed, k, r) for r in LARGE_RANKS]
        order = np.random.default_rng([seed, k]).permutation(len(ops))
        return [ops[i] for i in order]

    def _query(self, op):
        if "N" in op:
            return self.pkg.elliptic.run_case(op["N"])
        spc, fun = self.pkg.space, self.pkg.functionals
        sp = spc.build_space(op["A"])
        return {"space": sp, "norm": fun.operator_a_norm(sp, op["T"]),
                "rad": fun.a_numerical_radius(sp, op["T"]),
                "craw": fun.a_crawford(sp, op["T"]),
                "sharp": sp.sharp_adjoint(op["T"]),
                "in_BA": sp.classify(op["T"]).in_BA,
                "oracle": fun.sampling_oracle(sp, op["T"], ORACLE_SAMPLES,
                                              op["oracle_seed"])}

    def run_pass(self, ops, mark):
        return _timed(ops, self._query, mark)

    def check(self, ops, outs, ref):
        bad, notes = set(), []
        for i, (op, out) in enumerate(zip(ops, outs)):
            if "N" in op:
                label, problems = f"N={op['N']}", self._check_mesh(op["N"], out, ref)
            else:
                label, problems = f"r={op['r']}", self._check_generic(op, out, ref)
            if problems:
                bad.add(i)
                notes.append(f"{label}: " + "; ".join(problems))
        return bad, notes

    @staticmethod
    def _check_mesh(N, out, ref) -> list:
        if isinstance(out, Exception):
            return [f"raised {out!r}"]
        want = ref[f"N{N}"]
        problems = [] if out["lhs"] < out["rhs"] else ["lhs >= rhs"]
        return problems + [f"{k} {out[k]} != reference {want[k]}"
                           for k in ("lhs", "rhs", "w_S")
                           if not _close(out[k], want[k], ELLIPTIC_REL)]

    @staticmethod
    def _check_generic(op, out, ref) -> list:
        problems = _radius_invariants(op["T"], out)
        if problems:
            return problems
        want = ref[f"r{op['r']}"]
        c, w = op["scale"], out["rad"].value
        if not _close(out["norm"], c * want["norm"], LARGE_NORM_REL, c * want["norm"]):
            problems.append(f"norm {out['norm']} != {c} * {want['norm']}")
        if not _close(w, c * want["radius"], LARGE_SWEEP_REL, c * want["radius"]):
            problems.append(f"radius {w} != {c} * {want['radius']}")
        if not _close(out["craw"], c * want["crawford"], LARGE_SWEEP_REL,
                      c * want["radius"]):
            problems.append(f"Crawford {out['craw']} != {c} * {want['crawford']}")
        sp, T = out["space"], op["T"]
        scale = 1.0 + np.linalg.norm(sp.metric) * np.linalg.norm(T)
        if np.linalg.norm(sp.metric @ out["sharp"] - T.conj().T @ sp.metric) > 1e-8 * scale:
            problems.append("A T# != T* A")
        if not out["in_BA"]:
            problems.append("classified outside B_A")
        if out["oracle"] > w + 1e-9 * max(1.0, w):
            problems.append(f"oracle {out['oracle']} > radius {w}")
        if out["space"].rank != op["r"]:
            problems.append(f"rank {out['space'].rank} != {op['r']}")
        return problems


WORKLOADS = {cls.name: cls for cls in (FuzzSmall, Large)}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
