import opradius


def test_every_export_resolves():
    missing = [name for name in opradius.__all__ if not hasattr(opradius, name)]
    assert missing == []
    assert len(set(opradius.__all__)) == len(opradius.__all__)
