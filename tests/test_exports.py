"""Exported names resolve, commands load no numpy, only `flype` imports sympy,
and the flype path builds no sympy expressions."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import linkcensus

MODULES = ["linkcensus"] + [f"linkcensus.{info.name}"
                            for info in pkgutil.iter_modules(linkcensus.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


def test_commands_do_not_load_numpy():
    script = (
        "import contextlib, io, sys\n"
        "from linkcensus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['crosscheck', '--vmax', '2']) == 0\n"
        "    assert cli.main(['constants']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(linkcensus.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


def test_flype_path_builds_no_sympy_expressions():
    # sympy's first Add lazily imports its tensor and combinatorics modules;
    # the flype elimination, root isolation and fold tracking work on Poly
    # objects and integers, so refusing every Add must change no output
    script = (
        "import sys\n"
        "if sys.argv[1] == 'refuse-add':\n"
        "    from sympy.core.add import Add\n"
        "    def refuse(cls, seq):\n"
        "        raise RuntimeError('a sympy Add expression was built')\n"
        "    Add.flatten = classmethod(refuse)\n"
        "from linkcensus import cli\n"
        "for argv in (['series', '--model', 'flype', '--what', 'tangles', '--order', '60'],\n"
        "             ['constants']):\n"
        "    print('exit', cli.main(argv), flush=True)\n"
    )
    src = os.path.dirname(os.path.dirname(linkcensus.__file__))
    runs = [subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src})
            for mode in ("plain", "refuse-add")]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert run.stdout.count("exit 0") == 2, run.stdout[-500:]
    assert runs[1].stdout == runs[0].stdout
    assert runs[1].stderr == runs[0].stderr


def test_only_flype_imports_sympy():
    package = os.path.dirname(linkcensus.__file__)
    importers = set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as handle:
            tree = ast.parse(handle.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                importers.add(filename)
    assert importers == {"flype.py"}
