import copy
import json

import pytest

from opradius import (EnsembleConfig, build_space, errors, evaluate,
                      functionals, inequalities, list_catalog, replay,
                      run_fuzz)
from opradius.harness import FAMILY_SIZES, _violation_record, build_kit
from opradius.numkernel import matrix_from_json


def small_config(trials=30, seed=7):
    return EnsembleConfig(dims=[2, 3], rank_policy="each", trials=trials,
                          master_seed=seed)


def test_fuzz_small_campaign_clean():
    report = run_fuzz(small_config())
    assert report.ok
    assert report.violations == []
    for agg in report.entries.values():
        assert agg.trials == 30
        assert agg.applicable + (agg.trials - agg.applicable) == agg.trials


def test_fuzz_zero_trials():
    report = run_fuzz(small_config(trials=0))
    assert report.ok
    assert all(agg.trials == 0 for agg in report.entries.values())


def test_fuzz_deterministic():
    a = run_fuzz(small_config()).to_json()
    b = run_fuzz(small_config()).to_json()
    a.pop("duration_seconds")
    b.pop("duration_seconds")
    assert a == b


def test_fuzz_entry_filter():
    report = run_fuzz(small_config(trials=5), entry_filter=["QA1", "POWER"])
    assert set(report.entries) == {"QA1", "POWER"}
    with pytest.raises(errors.ConfigError, match="unknown entries"):
        run_fuzz(small_config(trials=1), entry_filter=["BOGUS"])


def test_fuzz_filter_does_not_change_draws():
    full = run_fuzz(small_config(trials=10))
    only = run_fuzz(small_config(trials=10), entry_filter=["QA1"])
    assert only.entries["QA1"].to_json() == full.entries["QA1"].to_json()


def test_flagged_entries_never_fail_run(monkeypatch):
    hashed = []
    payload = inequalities.fingerprint_payload

    def counting_payload(entry_id, *args):
        hashed.append(entry_id)
        return payload(entry_id, *args)

    monkeypatch.setattr(inequalities, "fingerprint_payload", counting_payload)
    # enough trials to hit at least one as-printed violation
    cfg = EnsembleConfig(dims=[2, 3, 4], rank_policy="each", trials=120,
                         master_seed=42)
    report = run_fuzz(cfg, entry_filter=["RA1.stated", "TD1.stated",
                                         "RA1.proof", "TD1.proof"])
    assert report.ok                      # flagged findings do not fail
    assert report.flagged_findings        # but they are recorded
    assert all(rec["entry"].endswith(".stated")
               for rec in report.flagged_findings)
    # a fingerprint is hashed once per record and for nothing else
    assert sorted(hashed) == sorted(rec["entry"]
                                    for rec in report.flagged_findings)


def test_replay_roundtrip(monkeypatch):
    cfg = EnsembleConfig(dims=[2, 3, 4], rank_policy="each", trials=120,
                         master_seed=42)
    report = run_fuzz(cfg, entry_filter=["TD1.stated", "RA1.stated"])
    assert report.flagged_findings
    rec = report.flagged_findings[0]
    hashed = []
    payload = inequalities.fingerprint_payload

    def counting_payload(*args):
        hashed.append(args[0])
        return payload(*args)

    monkeypatch.setattr(inequalities, "fingerprint_payload", counting_payload)
    rep = replay(rec)
    assert rep.status == "Violated"
    assert rep.lhs == rec["lhs"] and rep.rhs == rec["rhs"]
    assert rep.fingerprint == rec["fingerprint"]
    assert hashed == [rec["entry"]]     # the verifying hash is reused


def test_kit_covers_every_operand_kind():
    cfg = small_config(trials=6)
    for trial in range(cfg.trials):        # every family size
        kit = build_kit(cfg, trial)
        assert set(kit.operands) == set(inequalities.OPERAND_KINDS)
        for kind, ops in kit.operands.items():
            probe = inequalities.InequalityCatalogEntry(
                id="probe", statement="", operand_kind=kind, evaluator=None)
            inequalities._check_signature(probe, ops)


def test_kit_params_cover_every_entry():
    cfg = small_config(trials=len(FAMILY_SIZES))
    for trial, n in enumerate(FAMILY_SIZES):
        kit = build_kit(cfg, trial)
        assert kit.params["n"] == n == len(kit.operands["family"])
        for entry in list_catalog():
            assert set(entry.params) <= set(kit.params), (entry.id, n)


def test_power_violation_replays_bit_for_bit():
    # a negative absolute tolerance forces a violation of the proven POWER
    # entry; its record must replay with the fingerprint it was signed with
    cfg = small_config(trials=len(FAMILY_SIZES))
    for trial, n in enumerate(FAMILY_SIZES):
        kit = build_kit(cfg, trial)
        rep = evaluate("POWER", kit.space, kit.operands["single"], {"n": n},
                       tol_abs=-1e6)
        assert rep.status == "Violated"
        rec = json.loads(json.dumps(_violation_record(cfg, trial, kit, rep)))
        again = replay(rec)
        assert ((again.status, again.lhs, again.rhs, again.margin,
                 again.fingerprint)
                == (rep.status, rep.lhs, rep.rhs, rep.margin, rep.fingerprint))


def test_replay_rejects_tampering():
    cfg = EnsembleConfig(dims=[2, 3, 4], rank_policy="each", trials=120,
                         master_seed=42)
    report = run_fuzz(cfg, entry_filter=["TD1.stated"])
    rec = copy.deepcopy(report.flagged_findings[0])
    rec["operands"][0]["data"][0][0] += 1e-3
    with pytest.raises(errors.CorruptRecord, match="fingerprint"):
        replay(rec)
    with pytest.raises(errors.CorruptRecord, match="malformed"):
        replay({"entry": "QA1"})
    # QA5 takes an operator and a vector; a record with only the operator
    one_operand = copy.deepcopy(report.flagged_findings[0])
    one_operand["entry"] = "QA5"
    one_operand["operands"] = one_operand["operands"][:1]
    with pytest.raises(errors.CorruptRecord, match="malformed"):
        replay(one_operand)
    unknown = copy.deepcopy(report.flagged_findings[0])
    unknown["entry"] = "BOGUS"
    with pytest.raises(errors.CorruptRecord, match="malformed"):
        replay(unknown)
    for key in ("tol_abs", "tol_rel"):
        for tol in ("loose", float("nan"), float("inf")):
            not_a_number = copy.deepcopy(report.flagged_findings[0])
            not_a_number[key] = tol
            with pytest.raises(errors.CorruptRecord, match="malformed"):
                replay(not_a_number)
    # a metric that is no longer Hermitian: entry (0, 1) moves, (1, 0) not
    skewed = copy.deepcopy(report.flagged_findings[0])
    skewed["space"]["metric"]["data"][1][0] += 1.0
    with pytest.raises(errors.CorruptRecord, match="malformed"):
        replay(skewed)
    # a space tolerance outside [0, 1)
    for tol in (float("nan"), float("inf"), -1.0, 1.5):
        bad_tol = copy.deepcopy(report.flagged_findings[0])
        bad_tol["space"]["tol"] = tol
        with pytest.raises(errors.CorruptRecord, match="malformed"):
            replay(bad_tol)
    # a parameter that is not finite, in a record signed with it
    rec = report.flagged_findings[0]
    space = build_space(matrix_from_json(rec["space"]["metric"]),
                        tol=rec["space"]["tol"])
    ops = [matrix_from_json(o) for o in rec["operands"]]
    for value in (float("nan"), float("inf"), "loose"):
        bad_param = copy.deepcopy(rec)
        bad_param["params"] = {"alpha": value}
        bad_param["fingerprint"] = inequalities.fingerprint_payload(
            rec["entry"], space, ops, bad_param["params"])
        with pytest.raises(errors.CorruptRecord, match="malformed"):
            replay(bad_param)


def test_replay_tolerance_band_flip():
    cfg = EnsembleConfig(dims=[2, 3, 4], rank_policy="each", trials=120,
                         master_seed=42)
    report = run_fuzz(cfg, entry_filter=["TD1.stated"])
    rec = copy.deepcopy(report.flagged_findings[0])
    rec["tol_abs"] = abs(rec["margin"]) * 2  # loosen beyond the violation
    rep = replay(rec)
    assert rep.status == "Satisfied"


def test_report_json_shape():
    doc = run_fuzz(small_config(trials=3)).to_json()
    assert doc["config"]["trials"] == 3
    assert doc["tol_abs"] == 1e-9 and doc["tol_rel"] == 1e-7
    some = next(iter(doc["entries"].values()))
    for key in ("trials", "applicable", "violations", "min_margin",
                "mean_margin", "flagged"):
        assert key in some


def test_observer_sees_every_evaluation():
    seen = []
    run_fuzz(small_config(trials=2), entry_filter=["QA1", "CSTAR"],
             observer=lambda trial, rep: seen.append((trial, rep.id)))
    assert len(seen) == 4
    assert {s[1] for s in seen} == {"QA1", "CSTAR"}


def test_each_trial_solves_its_radii_in_one_kernel_call(monkeypatch):
    # over one sweep of the (dim, rank) lattice, a trial's evaluators ask
    # for all their radii in one round, so none is solved alone; the
    # observer sees each report once, in catalog order, as each entry
    # evaluated alone gives it
    calls, seen = [], []
    radii = functionals._radii

    def counted(mats):
        calls.append(len(mats))
        return radii(mats)

    # the trial's stack reaches _radii through inequalities, a radius
    # solved alone through functionals
    for module in (functionals, inequalities):
        monkeypatch.setattr(module, "_radii", counted)
    cfg = EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each", trials=20,
                         master_seed=42)
    run_fuzz(cfg, observer=lambda trial, report: seen.append((trial, report)))
    assert len(calls) == cfg.trials and min(calls) > 1
    for module in (functionals, inequalities):
        monkeypatch.setattr(module, "_radii", radii)
    catalog = list_catalog()
    assert [(trial, rep.id) for trial, rep in seen] == [
        (trial, entry.id) for trial in range(cfg.trials) for entry in catalog]
    kits = [build_kit(cfg, trial) for trial in range(cfg.trials)]
    for k, (trial, got) in enumerate(seen):
        kit, entry = kits[trial], catalog[k % len(catalog)]
        alone = evaluate(entry.id, kit.space, kit.operands[entry.operand_kind],
                         {name: kit.params[name] for name in entry.params})
        assert got.to_json() == alone.to_json(), entry.id


def test_each_trial_evaluates_each_entry_once(monkeypatch):
    # over one sweep of the (dim, rank) lattice, each entry's evaluator body
    # runs once per trial, and the trial's seminorms take at most two stacked
    # SVDs: one for its first round of requests, one for QA5's second
    from opradius import harness
    trials, norms = [], []
    kit, norm = harness.build_kit, inequalities.spectral_norm

    def started(config, trial):
        trials.append(trial)
        norms.append(0)
        return kit(config, trial)

    def counted_norm(M):
        norms[-1] += M.ndim == 3
        return norm(M)

    def body(entry_id, gen):
        runs.append((trials[-1], entry_id))
        return (yield from gen)

    def counted(entry):
        evaluator = entry.evaluator

        def run(ctx, ops, params):
            out = evaluator(ctx, ops, params)
            if isinstance(out, tuple):
                runs.append((trials[-1], entry.id))
                return out
            return body(entry.id, out)
        return run

    runs = []
    monkeypatch.setattr(harness, "build_kit", started)
    monkeypatch.setattr(inequalities, "spectral_norm", counted_norm)
    catalog = list_catalog()
    for entry in catalog:
        monkeypatch.setattr(entry, "evaluator", counted(entry))
    cfg = EnsembleConfig(dims=[2, 3, 4, 5, 6], rank_policy="each", trials=20,
                         master_seed=42)
    run_fuzz(cfg)
    assert trials == list(range(cfg.trials))
    assert sorted(runs) == sorted((trial, entry.id) for trial in trials
                                  for entry in catalog)
    assert max(norms) <= 2 and min(norms) >= 1
