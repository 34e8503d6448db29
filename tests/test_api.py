import importlib
import pkgutil

import gatecover

MODULES = sorted(m.name for m in pkgutil.iter_modules(gatecover.__path__))


def test_star_import_of_every_module():
    assert "symmetry" in MODULES
    for name in MODULES:
        namespace = {}
        exec(f"from gatecover.{name} import *", namespace)
        module = importlib.import_module(f"gatecover.{name}")
        for exported in getattr(module, "__all__", ()):
            assert exported in namespace, f"gatecover.{name}.__all__ names {exported}"


def test_package_reexports_resolve():
    reexported = gatecover.__all__
    assert sorted(reexported) == sorted(gatecover._EXPORTS)
    assert len(reexported) > 40
    for name in reexported:
        assert hasattr(gatecover, name), name


def test_star_import_of_the_package_binds_every_reexport():
    namespace = {}
    exec("from gatecover import *", namespace)
    for name in gatecover.__all__:
        assert namespace[name] is getattr(gatecover, name), name
