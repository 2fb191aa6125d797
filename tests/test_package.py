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
