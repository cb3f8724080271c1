"""The process start-up and exit paths: import with the collector off, exit frozen.

These tests start fresh interpreters, so they run the real exit: atexit
handlers, the flush of stdout and stderr, and the frozen heap left to the
OS.  The start-up path imports with the collector off and freezes what
the imports built.  run() itself, which tests and verify call in-process,
must leave the garbage collector as it found it.
"""

import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sternbrocot.cli import run

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def sternbrocot(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "sternbrocot", *argv], env=ENV,
                          capture_output=True, timeout=120, **kwargs)


def test_output_file_bytes_match_the_in_process_run(tmp_path, capsys):
    argv = ["tree", "--kind", "farey", "--permuted", "--depth", "13", "--format", "json"]
    proc = sternbrocot(*argv, "--output", str(tmp_path / "main.json"))
    assert proc.returncode == 0 and proc.stdout == b"" and proc.stderr == b""
    assert run(argv + ["--output", str(tmp_path / "run.json")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "main.json").read_bytes() == (tmp_path / "run.json").read_bytes()


@pytest.mark.parametrize("argv,code", [
    (["qmark", "2/5"], 0),
    (["--version"], 0),
    (["qmark", "2/x"], 1),
    (["tree", "--kind", "sb", "--depth", "0"], 1),
    (["enumerate", "--map", "R", "--start", "1/0", "--count", "3", "--frobnicate"], 1),
], ids=["ok", "version", "usage", "domain", "unknown-flag"])
def test_exit_codes(argv, code):
    proc = sternbrocot(*argv)
    assert proc.returncode == code, proc.stderr
    assert (proc.stderr == b"") == (code == 0)


def test_verify_failure_exits_two():
    code = ("import sys; from sternbrocot import __main__ as entry, verify\n"
            "def bad(r, seed): raise verify.CheckFailure('planted')\n"
            "verify._REGISTRY['core.phi-mediant'] = bad\n"
            "sys.argv[1:] = ['verify', '--suite', 'core.phi-mediant']\n"
            "entry.main()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "FAIL,planted" in proc.stdout and proc.stderr == ""


def test_a_reader_that_leaves_early_gets_exit_zero():
    # level 18 is about 2.6 MB of CSV, far more than a pipe buffers
    proc = subprocess.Popen([sys.executable, "-m", "sternbrocot", "tree", "--kind", "sb",
                             "--depth", "18"], env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"level,index,num,den\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


START_UP = """
import gc, sys

passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info))
import sternbrocot.__main__ as entry

seen = {"imported": (gc.isenabled(), gc.get_freeze_count())}

def at_run(frame, event, arg):
    # the call of cli.run: every import is done and the command starts
    if (event == "call" and frame.f_code.co_name == "run"
            and frame.f_globals["__name__"] == "sternbrocot.cli"):
        sys.setprofile(None)
        cli = sys.modules["sternbrocot.cli"]
        tracked = {id(o) for o in gc.get_objects()}  # frozen objects are not listed
        seen.update(enabled=gc.isenabled(), frozen=gc.get_freeze_count() > 0,
                    passes=len(passes),
                    unfrozen=[id(o) in tracked for o in (cli._Parser, vars(cli),
                                                         vars(sys.modules["numpy"]))])

sys.setprofile(at_run)
sys.argv[1:] = ["--version"]
try:
    entry.main()
except SystemExit as exc:
    seen["code"] = exc.code
print(seen, file=sys.stderr)
"""


def test_start_up_imports_with_the_collector_off_and_freezes_them():
    proc = subprocess.run([sys.executable, "-c", START_UP], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.startswith("sternbrocot "), proc.stderr
    seen = ast.literal_eval(proc.stderr)
    # importing the module, as the package's own tests do, changes nothing
    assert seen["imported"] == (True, 0)
    # no collection ran over the imports, which sit frozen when the command
    # starts with the collector on
    assert seen["passes"] == 0
    assert seen["enabled"] and seen["frozen"]
    assert seen["unfrozen"] == [False, False, False]
    assert seen["code"] == 0


@pytest.mark.parametrize("argv", [
    ["qmark", "2/5"],
    ["tree", "--kind", "sb", "--depth", "3", "--output", "{out}"],
    ["qmark", "2/x"],
], ids=["ok", "output", "error"])
def test_run_leaves_the_collector_alone(argv, tmp_path, capsys):
    argv = [a.replace("{out}", str(tmp_path / "t.csv")) for a in argv]
    enabled = gc.isenabled()
    run(argv)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("argv", [
    ["tree", "--kind", "dyadic", "--depth", "5", "--format", "json"],
    ["enumerate", "--map", "T", "--start", "1/3", "--count", "20"],
    ["qmark", "[0;2,1,1]", "--enclosure"],
    ["fourier", "--n-max", "2", "--depth", "5", "--iters", "100"],
    ["simulate", "--chain", "mc1", "--walks", "5", "--horizon", "7", "--interval", "1/3,1/2",
     "--format", "json"],
    ["verify", "--suite", "core.phi-mediant,cli.verify-coverage"],
    ["verify", "--list"],
], ids=["tree", "enumerate", "qmark", "fourier", "simulate", "verify", "verify-list"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_every_file_the_cli_opens_is_closed(argv, to_file, tmp_path):
    # Under -X dev a file left for the collector to close warns at shutdown,
    # and the error filter makes that warning print to stderr.  A clean run
    # of run(), which does not freeze, shows that main() may skip the
    # shutdown collection without leaving an --output file unclosed.
    if to_file:
        argv = argv + ["--output", str(tmp_path / "out")]
    code = "import sys; from sternbrocot.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", code, *argv], env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (proc.stdout == "") == to_file
