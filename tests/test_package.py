"""The package's export list."""

import dlstrata


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from dlstrata import *", namespace)
    assert len(set(dlstrata.__all__)) == len(dlstrata.__all__)
    for name in dlstrata.__all__:
        assert namespace[name] is getattr(dlstrata, name), name
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(dlstrata.__all__)
