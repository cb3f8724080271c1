"""The size caps: one frozen table of defaults, one lifted table, no globals."""

import ast
import importlib
import pkgutil
from dataclasses import FrozenInstanceError, fields
from pathlib import Path
from types import ModuleType

import pytest

import sternbrocot
from sternbrocot.core import CAPS, UNSAFE_CAPS

MODULES = [
    importlib.import_module(f"sternbrocot.{m.name}")
    for m in pkgutil.iter_modules(sternbrocot.__path__)
]


def _tree(mod):
    return ast.parse(Path(mod.__file__).read_text(), mod.__file__)


def test_unsafe_lifts_every_field():
    for f in fields(CAPS):
        assert getattr(UNSAFE_CAPS, f.name) > getattr(CAPS, f.name), f.name


def test_tables_are_frozen():
    with pytest.raises(FrozenInstanceError):
        CAPS.level = 10 ** 9


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_no_cap_constants(mod):
    names = set()
    for node in ast.walk(_tree(mod)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    # ODOMETER_CAP bounds a domain (digit counts) and raises DomainError
    assert {n for n in names if n.endswith("_CAP")} <= {"ODOMETER_CAP"}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_cap_check_can_be_lifted(mod):
    # a cap checked against a fixed table ignores the caps the caller passes
    for node in ast.walk(_tree(mod)):
        if isinstance(node, ast.Call) and _name(node.func) == "check_cap" and node.args:
            assert _name(node.args[0]) not in ("CAPS", "UNSAFE_CAPS"), ast.unparse(node)


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_no_module_assigns_another_modules_attribute(mod):
    aliases = {n for n, v in vars(mod).items() if isinstance(v, ModuleType)}
    for node in ast.walk(_tree(mod)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets.extend(t.elts)
                elif isinstance(t, ast.Starred):
                    targets.append(t.value)
                elif isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
                    assert t.value.id not in aliases, ast.unparse(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and node.args
              and isinstance(node.args[0], ast.Name)):
            assert node.args[0].id not in aliases, ast.unparse(node)


# Module-level dicts allowed: lookup tables filled at import, and the two
# dicts in trees that stay empty and are kept only because bench/trace.py
# clears them by name.  A memo table elsewhere grows without bound.
DICTS = {"_STEPS", "_REGISTRY", "_STATE_CACHE", "_FLOAT_CACHE"}


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_no_module_level_dicts_but_the_allowed_ones(mod):
    for name, value in vars(mod).items():
        if isinstance(value, dict) and not name.startswith("__"):
            assert name in DICTS, f"{mod.__name__}.{name}"


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_no_unused_imports(mod):
    # a name an import binds and the module never reads, anywhere in it
    tree = _tree(mod)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                assert bound in read, f"{mod.__name__}: {ast.unparse(node)}"
