"""The package's public surface."""

import socpath


def test_every_export_resolves():
    missing = [name for name in socpath.__all__ if not hasattr(socpath, name)]
    assert missing == []
    namespace = {}
    exec("from socpath import *", namespace)
    assert set(socpath.__all__) <= set(namespace)
