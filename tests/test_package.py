"""The package namespace: each public name listed once and loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sternbrocot

ROOT = Path(__file__).resolve().parent.parent


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, sternbrocot; "
            "print(sorted(m for m in sys.modules if m.startswith('sternbrocot.') or m == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,loaded,absent", [
    (["--version"], {"cli"},
     {"coding", "minkowski", "accum", "maps", "stochastic", "experiments", "operators", "verify"}),
    (["tree", "--kind", "sb", "--depth", "3"], {"trees"},
     {"coding", "minkowski", "accum", "maps", "stochastic", "experiments", "operators", "verify"}),
    (["qmark", "2/5"], {"minkowski"},
     {"coding", "maps", "stochastic", "experiments", "operators", "rng", "verify"}),
    (["qmark", "3/2^3", "--inverse"], {"minkowski"},
     {"coding", "maps", "stochastic", "experiments", "operators", "rng", "verify"}),
    (["fourier", "--n-max", "1", "--depth", "4", "--iters", "64"], {"maps", "minkowski", "accum"},
     {"coding", "stochastic", "experiments", "operators", "rng", "verify"}),
    (["enumerate", "--map", "R", "--start", "1/0", "--count", "3"], {"maps"},
     {"coding", "stochastic", "experiments", "operators", "rng", "verify"}),
    (["simulate", "--chain", "mc0", "--walks", "2", "--horizon", "3"], {"stochastic"},
     {"coding", "operators", "experiments", "minkowski", "accum", "maps", "verify"}),
    (["verify", "--suite", "core", "--seed", "7"], {"verify", "coding", "trees"},
     {"experiments", "maps", "stochastic", "operators", "minkowski", "accum", "rng"}),
], ids=["version", "tree", "qmark", "qmark-inverse", "fourier", "enumerate", "simulate",
        "verify-core"])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded, absent):
    code = ("import sys; from sternbrocot.cli import run; code = run(sys.argv[1:]); "
            "print(*sorted(m for m in sys.modules if m.startswith('sternbrocot.')), file=sys.stderr); "
            "sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = {m.removeprefix("sternbrocot.") for m in proc.stderr.split()}
    assert loaded <= modules
    assert not absent & modules


WRITERS = {"csv", "json", "fractions", "decimal"}


@pytest.mark.parametrize("argv,loaded", [
    (["--version"], set()),
    (["tree", "--kind", "sb", "--depth", "3"], set()),
    (["tree", "--kind", "sb", "--depth", "3", "--format", "json"], {"json"}),
    (["simulate", "--chain", "mc0", "--walks", "2", "--horizon", "3"], set()),
], ids=["version", "tree-csv", "tree-json", "simulate-csv"])
def test_each_command_loads_only_the_stdlib_writers_it_uses(argv, loaded):
    # -X importtime lists every module the process imports, one a line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "sternbrocot", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    assert "sternbrocot.cli" in modules
    assert WRITERS & modules == loaded


def test_the_console_script_is_the_python_m_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"sternbrocot": "sternbrocot.__main__:main"}


def test_cli_import_loads_numpy():
    # the trees module stays eager in cli, so numpy's import time is part of
    # `import sternbrocot.cli`, where bench/run.py's import_times reads it
    code = "import sys, sternbrocot.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_all_lists_each_name_once():
    assert len(sternbrocot.__all__) == len(set(sternbrocot.__all__))


@pytest.mark.parametrize("module,names", sternbrocot._EXPORTS,
                         ids=[module for module, _ in sternbrocot._EXPORTS])
def test_names_resolve_to_their_home_module(module, names):
    home = importlib.import_module(f"sternbrocot.{module}")
    for name in names:
        assert getattr(sternbrocot, name) is getattr(home, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sternbrocot import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sternbrocot.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sternbrocot.no_such_name


def test_dir_lists_every_public_name():
    assert set(sternbrocot.__all__) <= set(dir(sternbrocot))
