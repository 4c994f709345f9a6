import dirac2mm


def test_every_export_resolves():
    missing = [name for name in dirac2mm.__all__ if not hasattr(dirac2mm, name)]
    assert missing == []
    assert len(set(dirac2mm.__all__)) == len(dirac2mm.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from dirac2mm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dirac2mm.__all__)
