"""The public surface resolves: every exported name exists, and the
README's library sketch runs as written."""

import ast
import importlib
import os
import pkgutil
import re

import pytest

import cqrnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(cqrnet.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_name_in_all(module):
    namespace = {}
    exec(f"from cqrnet.{module} import *", namespace)
    declared = getattr(importlib.import_module(f"cqrnet.{module}"), "__all__", [])
    assert [name for name in declared if name not in namespace] == []


def test_package_imports_only_declared_names():
    """Each name `cqrnet/__init__.py` imports from a module is in that
    module's `__all__` where it has one, and is bound on the package."""
    tree = ast.parse(open(cqrnet.__file__).read())
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"cqrnet.{module}")
        assert name in getattr(source, "__all__", [name]), (module, name)
        assert getattr(cqrnet, name) is getattr(source, name), (module, name)


def test_readme_library_sketch_runs():
    """The Python blocks of README.md's "Library sketch", in order, in one namespace."""
    readme = open(os.path.join(ROOT, "README.md")).read()
    section = readme.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].r2 > 0.9
