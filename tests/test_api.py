import ast
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
    with open(gatecover.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reexported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names]
    assert len(reexported) > 40
    for name in reexported:
        assert hasattr(gatecover, name), name
