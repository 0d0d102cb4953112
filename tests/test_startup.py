"""What a fresh interpreter loads: each command imports only its layers.

Every test runs a subprocess and asserts which modules it loaded, never
how long that took.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strfn import length_fn, ofo_fn
from strfn.specio import function_to_json, partial_to_json, to_text

SRC = str(Path(__file__).resolve().parents[1] / "src")
# The modules every command loads: the front door, the spec codecs, the
# report writer and what they need to load a function.
BASE = {"strfn", "strfn.cli", "strfn.specio", "strfn.jsontext", "strfn.core",
        "strfn.errors", "strfn.builtins"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


# Runs ``python -m strfn <argv>`` and writes the names in sys.modules at
# exit to the file named by the first argument, in the order in which
# their imports finished.
_PROBE = (
    "import atexit, runpy, sys\n"
    "out = sys.argv.pop(1)\n"
    "atexit.register(lambda: open(out, 'w').write('\\n'.join(sys.modules)))\n"
    "runpy.run_module('strfn', run_name='__main__', alter_sys=True)\n"
)


def _loaded(tmp_path: Path, argv: list[str]) -> tuple[int, list[str]]:
    out = tmp_path / "modules.txt"
    done = _python("-c", _PROBE, str(out), *argv)
    return done.returncode, out.read_text().splitlines()


@pytest.fixture
def specs(tmp_path, ab, first_letter_spec):
    files = {
        "ofo": function_to_json(ofo_fn(ab, 4)),
        "length": function_to_json(length_fn(ab, 4)),
        "partial": partial_to_json(first_letter_spec),
        "profile": [0, 1, 2, 3],
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(to_text(obj))
    return lambda name: str(tmp_path / f"{name}.json")


# Each command's arguments, and exactly the layers it loads beyond BASE.
# A command that returns a check report loads ``reports``; only ``check``
# and ``factorize`` run a law checker.
COMMANDS = {
    "eval": ("eval --input {ofo} ab", set()),
    "check-assoc": ("check assoc --input {ofo} --bound 4", {"checkers", "reports"}),
    "check-assoc-jobs2": ("check assoc --input {ofo} --bound 4 --jobs 2",
                          {"checkers", "reports"}),
    "check-preassoc": ("check preassoc --input {length} --bound 4", {"checkers", "reports"}),
    "extend": ("extend --input {partial} --bound 4", {"extension", "reports"}),
    "factorize": ("factorize --input {length} --bound 4",
                  {"checkers", "factorization", "reports"}),
    "theta-rep": ("theta rep --alphabet ab --x0 a --x1 b --bound 4", {"quotient"}),
    "theta-chain": ("theta chain --alphabet ab --x0 a --x1 b --bound 4 --m-exp 3",
                    {"quotient"}),
    "compare": ("compare --input {ofo} --input {length} --bound 4", {"quotient"}),
    "alpha-check": ("alpha check --input {profile}", {"lengthbased", "reports"}),
    "alpha-classify": ("alpha classify --input {profile}", {"lengthbased"}),
    "check-length": ("check length --input {length} --bound 4",
                     {"checkers", "lengthbased", "reports"}),
}
# Pool modules: no command and no sweep loads them.
POOLS = {"concurrent.futures", "multiprocessing"}
# Standard modules no command needs: ``dataclasses`` loads ``inspect``,
# which loads ``ast``, ``dis`` and ``tokenize``.
UNUSED = {"dataclasses", "inspect"}


def _args(specs, argv: str) -> list[str]:
    return [a.format(ofo=specs("ofo"), length=specs("length"),
                     partial=specs("partial"), profile=specs("profile"))
            for a in argv.split()]


@pytest.mark.parametrize("argv, layers", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_its_layers(tmp_path, specs, argv, layers):
    code, names = _loaded(tmp_path, _args(specs, argv))
    assert code == 0
    own = {f"strfn.{layer}" for layer in layers}
    assert {n for n in names if n.split(".")[0] == "strfn"} == BASE | own
    assert not (POOLS | UNUSED) & set(names)


def test_check_imports_its_layer_before_the_cli(tmp_path, specs):
    # Compiled first, checkers leaves memory that the later imports reuse,
    # so a check run peaks lower (see strfn.__main__).
    code, names = _loaded(tmp_path, _args(specs, COMMANDS["check-assoc"][0]))
    assert code == 0
    assert names.index("strfn.checkers") < names.index("strfn.specio")
    assert names.index("strfn.checkers") < names.index("strfn.cli")


def test_importing_strfn_loads_no_submodule():
    done = _python("-c", (
        "import json, strfn, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'strfn')\n"
        "before = loaded()\n"
        "report = strfn.CheckReport is sys.modules['strfn.reports'].CheckReport\n"
        "with_report = loaded()\n"
        "print(json.dumps([before, report, with_report,\n"
        "                  strfn.checkers is sys.modules['strfn.checkers'], loaded(),\n"
        f"                  sorted({sorted(UNUSED)} & sys.modules.keys())]))\n"
    ))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["strfn"], True, ["strfn", "strfn.core", "strfn.errors", "strfn.reports"],
        True, ["strfn", "strfn.checkers", "strfn.core", "strfn.errors", "strfn.reports"], []]


def test_the_sweep_forks_without_a_pool_module():
    # The sweep runs in-process whatever ``jobs`` says: no fork, no pool.
    done = _python("-c", (
        "import json, os, sys\n"
        "from strfn import sweep_alpha_tables\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "tally = sweep_alpha_tables(3, 3, jobs=2)\n"
        f"pools = sorted({sorted(POOLS)} & sys.modules.keys())\n"
        "print(json.dumps([tally.agree, len(forks), pools]))\n"
    ))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, 0, []]


def test_public_names_resolve_on_first_use():
    done = _python("-c", (
        "import inspect, sys\n"
        "from strfn import *\n"
        "import strfn\n"
        "names = strfn.__all__\n"
        "assert len(names) == len(set(names)) == 97, len(names)\n"
        "assert [n for n in names if n not in globals()] == []\n"
        "assert all(globals()[n] is getattr(strfn, n) for n in names)\n"
        "objs = [getattr(strfn, n) for n in names]\n"
        "assert all(o.__module__.startswith('strfn.') and\n"
        "           getattr(sys.modules[o.__module__], o.__name__) is o\n"
        "           for o in objs if inspect.isfunction(o) or inspect.isclass(o))\n"
        "assert set(names) <= set(dir(strfn))\n"
        "assert strfn.__version__ == '0.1.0'\n"
        "assert not hasattr(strfn, 'no_such_name')\n"
    ))
    assert done.returncode == 0, done.stderr
