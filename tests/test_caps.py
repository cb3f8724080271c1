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


# The functions that run Euclid's algorithm: every other continued fraction
# is read from cf_from_rat's list, so a faster Euclid has three places to go.
EUCLID = {"sternbrocot.core.cf_from_rat", "sternbrocot.core._quotient_sum", "sternbrocot.minkowski.rho"}


def test_euclid_runs_only_in_its_owners():
    found = set()
    for mod in MODULES:
        stack = [(mod.__name__, node) for node in _tree(mod).body]
        while stack:
            owner, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}"
            elif isinstance(node, ast.While) and any(
                    isinstance(n, ast.Call) and _name(n.func) == "divmod" for n in ast.walk(node)):
                found.add(owner)
            stack.extend((owner, child) for child in ast.iter_child_nodes(node))
    assert found == EUCLID


def test_cli_imports_numpy_only_inside_functions():
    # cli reaches numpy through trees alone, so making trees lazy in cli
    # is a change to one import line; a function body imports only when it runs
    from sternbrocot import cli

    stack = list(_tree(cli).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "numpy" for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy", ast.unparse(node)
        stack.extend(ast.iter_child_nodes(node))


def test_only_the_entry_point_imports_gc():
    # the collector policy, from import to exit, is __main__.main's alone
    importers = {mod.__name__ for mod in MODULES for node in ast.walk(_tree(mod))
                 if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "gc"}
    assert importers == {"sternbrocot.__main__"}


def test_only_the_package_lists_public_names():
    # sternbrocot._EXPORTS is the one list of public names; a submodule's
    # __all__ would be a second copy to keep in step
    for mod in [sternbrocot, *MODULES]:
        assigns = any(isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
                      for node in ast.walk(_tree(mod)))
        assert assigns == (mod is sternbrocot), mod.__name__


def test_estimators_read_levels_only_as_blocks():
    # every tree estimator streams level_blocks, so none holds a whole level
    from sternbrocot import minkowski

    assert "level" not in _identifiers(_tree(minkowski))


def _identifiers(tree):
    # every name a piece of code reads, imports or looks up as an attribute
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _attributes(tree):
    # every name a piece of code looks up as an attribute, the one way to call a method
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_definition_is_used():
    # a public top-level function or class must be exported, or named by
    # the package outside its own definition, by a demo or by the benchmark;
    # a public method of a package class must be looked up outside its own
    # def by the package, a demo or the benchmark
    root = Path(__file__).resolve().parents[1]
    named = {n for _, names in sternbrocot._EXPORTS for n in names}
    looked_up = set()
    for script in [*root.glob("demos/*.py"), *root.glob("bench/*.py")]:
        tree = ast.parse(script.read_text(), str(script))
        named |= _identifiers(tree)
        looked_up |= _attributes(tree)
    top = [(mod.__name__, node, _identifiers(node)) for mod in MODULES for node in _tree(mod).body]
    unused = [
        f"{mod}.{node.name}" for mod, node, _ in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in named and not any(node.name in ids for _, other, ids in top if other is not node)
    ]
    for mod, cls, _ in top:
        if not isinstance(cls, ast.ClassDef):
            continue
        outside = looked_up.union(*(_attributes(other) for _, other, _ in top if other is not cls))
        unused += [
            f"{mod}.{cls.name}.{meth.name}" for meth in cls.body
            if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_")
            and meth.name not in outside
            and not any(meth.name in _attributes(n) for n in cls.body if n is not meth)
        ]
    assert unused == []
