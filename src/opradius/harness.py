"""Fuzz campaigns over the inequality catalog.

Each trial builds a random space on the (dim, rank) lattice, draws one
operand kit covering every operand kind, compresses its operators as one
stack, then evaluates the selected catalog entries once each, together
(``inequalities.evaluate_together``: one batch of radii, stacked SVDs).
Proven statements must hold: any violation fails the run.  Flagged
as-printed variants never fail the run; their violations are recorded
as findings and can be replayed bit-for-bit from the serialized record.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import ensembles, inequalities
from .errors import ConfigError, CorruptRecord, OpRadiusError
from .inequalities import EvalContext, MarginReport, PARAM_GRID, evaluate, list_catalog
from .numkernel import matrix_from_json, matrix_to_json
from .space import build_space

FAMILY_SIZES = (2, 3, 4)


@dataclass
class TrialKit:
    """Operands for one trial, drawn unconditionally so the stream does
    not depend on which entries are enabled.  ``operands`` maps every
    operand kind to its list; kinds share array objects (T is the first
    operand of several), which the evaluation context's caches rely on.
    ``params`` is the one parameter dict of the trial: its grid point, the
    family size ``n`` and the scalars ``a``, ``b``; each entry reads the
    names it declares."""

    space: object
    operands: dict         # operand kind -> operand list
    params: dict           # parameter name -> value


def build_kit(config: ensembles.EnsembleConfig, trial: int) -> TrialKit:
    dim, rank = config.trial_case(trial)
    rng = config.trial_rng(trial)
    space = ensembles.random_space(dim, rank, rng)
    n = FAMILY_SIZES[trial % len(FAMILY_SIZES)]
    params = dict(PARAM_GRID[trial % len(PARAM_GRID)])
    T, S, X, Y = (ensembles.random_in_BA(space, rng) for _ in range(4))
    family = [ensembles.random_in_BA(space, rng) for _ in range(n)]
    commuting = ensembles.random_commuting_family(space, n, rng)
    normal_pair = [ensembles.random_a_normal(space, rng) for _ in range(2)]
    triples = [op for _ in range(n)      # flattened (T_j, X_j, S_j)
               for op in (ensembles.random_a_positive(space, rng),
                          ensembles.random_in_BA(space, rng),
                          ensembles.random_a_positive(space, rng))]
    vectors = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
               for _ in range(3)]
    params["n"] = n
    params["a"] = float(rng.exponential(2.0))
    params["b"] = float(rng.exponential(2.0))
    operands = {
        "single": [T], "pair": [T, S], "quad": [T, X, Y, S],
        "family": family, "commuting_pair": commuting[:2],
        "normal_pair": normal_pair, "commuting_family": commuting,
        "positive_triples": triples, "op_vector": [T, vectors[0]],
        "vec_pair": vectors[:2], "vec_triple": vectors, "scalars": [],
    }
    return TrialKit(space=space, operands=operands, params=params)


@dataclass
class EntryAggregate:
    trials: int = 0
    applicable: int = 0
    violations: int = 0
    flagged: bool = False
    min_margin: float | None = None
    mean_margin: float | None = None
    _margin_sum: float = 0.0
    aux_min: dict = field(default_factory=dict)

    def update(self, report: MarginReport):
        self.trials += 1
        if report.status == "Inapplicable":
            return
        self.applicable += 1
        if report.status == "Violated":
            self.violations += 1
        m = report.margin
        self._margin_sum += m
        self.min_margin = m if self.min_margin is None else min(self.min_margin, m)
        self.mean_margin = self._margin_sum / self.applicable
        for k, v in report.aux.items():
            cur = self.aux_min.get(k)
            self.aux_min[k] = float(v) if cur is None else min(cur, float(v))

    def to_json(self) -> dict:
        return {
            "trials": self.trials, "applicable": self.applicable,
            "violations": self.violations, "flagged": self.flagged,
            "min_margin": self.min_margin, "mean_margin": self.mean_margin,
            "aux_min": self.aux_min,
        }


@dataclass
class FuzzReport:
    config: dict
    entries: dict                 # id -> EntryAggregate
    violations: list              # non-flagged violation records
    flagged_findings: list        # violations of flagged entries
    duration: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "tol_abs": inequalities.TOL_ABS,
            "tol_rel": inequalities.TOL_REL,
            "entries": {k: v.to_json() for k, v in sorted(self.entries.items())},
            "violations": self.violations,
            "flagged_findings": self.flagged_findings,
            "duration_seconds": self.duration,
        }


def _violation_record(config, trial, kit, report: MarginReport) -> dict:
    return {
        "entry": report.id,
        "trial": trial,
        "master_seed": config.master_seed,
        "dim": kit.space.dim,
        "rank": kit.space.rank,
        "space": {"metric": matrix_to_json(kit.space.metric),
                  "tol": kit.space.tol},
        "operands": report.operands,
        "params": dict(report.params),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "tol_abs": report.tol_abs,
        "tol_rel": report.tol_rel,
        "fingerprint": report.fingerprint,
    }


def run_fuzz(config: ensembles.EnsembleConfig, entry_filter=None,
             observer=None) -> FuzzReport:
    """Run a fuzz campaign; returns aggregates plus violation records.

    ``entry_filter`` is an optional collection of entry ids;
    ``observer(trial, report)`` is called per evaluation when given.
    """
    catalog = list_catalog()
    if entry_filter is not None:
        wanted = set(entry_filter)
        unknown = wanted - {e.id for e in catalog}
        if unknown:
            raise ConfigError(f"unknown entries: {sorted(unknown)}")
        catalog = [e for e in catalog if e.id in wanted]
    aggregates = {e.id: EntryAggregate(flagged=e.flagged) for e in catalog}
    violations, flagged = [], []
    start = time.perf_counter()
    for trial in range(config.trials):
        kit = build_kit(config, trial)
        ctx = EvalContext(kit.space)
        ctx.compress([T for ops in kit.operands.values() for T in ops])
        reports = inequalities.evaluate_together(ctx, [
            (entry.id, kit.space, kit.operands[entry.operand_kind],
             {k: kit.params[k] for k in entry.params}) for entry in catalog])
        for entry, report in zip(catalog, reports):
            if isinstance(report, Exception):
                raise report
            aggregates[entry.id].update(report)
            if report.status == "Violated":
                record = _violation_record(config, trial, kit, report)
                (flagged if entry.flagged else violations).append(record)
            if observer is not None:
                observer(trial, report)
    duration = time.perf_counter() - start
    return FuzzReport(
        config={"dims": list(config.dims), "rank_policy": config.rank_policy,
                "trials": config.trials, "master_seed": config.master_seed},
        entries=aggregates, violations=violations, flagged_findings=flagged,
        duration=duration,
    )


def replay(record: dict) -> MarginReport:
    """Re-evaluate a stored violation record from its serialized operands.

    The parameters are turned into floats as ``evaluate`` does, then the
    recomputed fingerprint must match the stored one, otherwise the
    record is rejected as corrupt.
    """
    try:
        entry_id = record["entry"]
        space = build_space(matrix_from_json(record["space"]["metric"]),
                            tol=float(record["space"]["tol"]))
        ops = inequalities.deserialize_operands(
            inequalities.get_entry(entry_id).operand_kind,
            [matrix_from_json(o) for o in record["operands"]])
        params = inequalities.float_params(record["params"])
        stored_fp = record["fingerprint"]
        tol_abs = float(record.get("tol_abs", inequalities.TOL_ABS))
        tol_rel = float(record.get("tol_rel", inequalities.TOL_REL))
    except (KeyError, TypeError, ValueError, OpRadiusError) as exc:
        raise CorruptRecord(f"malformed violation record: {exc}") from exc
    fp = inequalities.fingerprint_payload(entry_id, space, ops, params)
    if fp != stored_fp:
        raise CorruptRecord("fingerprint mismatch: record was tampered with")
    try:
        report = evaluate(entry_id, space, ops, params, tol_abs=tol_abs,
                          tol_rel=tol_rel)
    except ConfigError as exc:      # a tolerance or parameter out of range
        raise CorruptRecord(f"malformed violation record: {exc}") from exc
    report.fingerprint = fp     # already hashed: fills the cached property
    return report
