import olx


def test_every_export_resolves():
    missing = [name for name in olx.__all__ if not hasattr(olx, name)]
    assert not missing


def test_exports_are_unique():
    assert len(olx.__all__) == len(set(olx.__all__))


def test_star_import_in_a_fresh_namespace():
    namespace: dict = {}
    exec("from olx import *", namespace)
    assert set(olx.__all__) <= namespace.keys()
