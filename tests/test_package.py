from pathlib import Path

import opradius

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_export_resolves():
    missing = [name for name in opradius.__all__ if not hasattr(opradius, name)]
    assert missing == []
    assert len(set(opradius.__all__)) == len(opradius.__all__)


def test_benchmark_spans_install_and_uninstall(monkeypatch):
    # the benchmark's span recorder wraps names of the package by
    # attribute; deleting one of them must fail here, not in a traced run
    import opradius.elliptic  # noqa: F401  (install wraps its names too)

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Recorder

    rec = Recorder()
    try:
        rec.install(opradius)
        wrapped = list(rec._originals)
    finally:
        rec.uninstall()
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_traced_fuzz_reports_equal_untraced_ones(monkeypatch):
    # the recorder wraps each catalog evaluator in a plain function: the
    # harness must still know a generator evaluator by what it returns
    import opradius.elliptic  # noqa: F401  (install wraps its names too)

    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Recorder

    def reports():
        seen = []
        opradius.harness.run_fuzz(
            opradius.EnsembleConfig(trials=2, master_seed=42),
            observer=lambda trial, rep: seen.append(rep.to_json()))
        return seen

    untraced = reports()
    rec = Recorder()
    try:
        rec.install(opradius)
        traced = reports()
    finally:
        rec.uninstall()
    assert traced == untraced
    assert len(untraced) == 2 * len(opradius.list_catalog())
    assert rec.layer_stats()[0]["inequalities.QA1"] == 2
