"""Exported names resolve and are each read somewhere, and so do the names the
benchmark tracer wraps; commands load no numpy, no module imports sympy, and
every command runs with sympy refused."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import linkcensus
from linkcensus import onematrix, oracle
from linkcensus.series import Series

MODULES = ["linkcensus"] + [f"linkcensus.{info.name}"
                            for info in pkgutil.iter_modules(linkcensus.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


def _names_read(path) -> set:
    """Every name a file reads: loaded names, attributes, imported names and
    string constants, except the strings listed in an ``__all__``."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            listed.update(id(item) for item in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed):
            names.add(node.value)
    return names


def test_every_export_is_used():
    # a public name stays only if a command, another module or a check reads it;
    # a definition and its __all__ entry are not reads.  Dunders such as
    # __version__ are metadata for packaging tools, not code, and are exempt.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    read = set()
    for top in ("src", "tests", "perfbench"):
        for folder, _dirs, filenames in os.walk(os.path.join(root, top)):
            for filename in filenames:
                if filename.endswith(".py"):
                    read |= _names_read(os.path.join(folder, filename))
    unused = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(name).__all__
              if export not in read and not export.startswith("__")]
    assert unused == []


def _calls(path) -> list:
    """``(callee, positional count, keyword names)`` for every call in a file.

    The callee is the called name or attribute.  A starred argument counts
    as every position and a ``**`` argument as every keyword (``None``).
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        positional = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                      else len(node.args))
        keywords = {kw.arg for kw in node.keywords}
        out.append((callee, positional, None if None in keywords else keywords))
    return out


def _exported_callables() -> dict:
    """Every exported function, class and classmethod, by the name a call uses."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                found[f"{obj.__module__}.{obj.__name__}"] = (obj.__name__, obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                found[f"{obj.__module__}.{obj.__name__}"] = (obj.__name__, obj)
                for attr, value in vars(obj).items():
                    if isinstance(value, classmethod):
                        found[f"{obj.__module__}.{obj.__name__}.{attr}"] = (
                            attr, getattr(obj, attr))
    return found


def test_every_default_is_passed_somewhere():
    # a parameter whose default no call in the program overrides has one
    # value in use, so it should be a constant.  Tests do not count as
    # callers.  Exported names that nothing in src/ or perfbench/ calls are
    # left to test_every_export_is_used.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    calls = []
    for top in ("src", "perfbench"):
        for folder, _dirs, filenames in os.walk(os.path.join(root, top)):
            for filename in filenames:
                if filename.endswith(".py"):
                    calls += _calls(os.path.join(folder, filename))
    unpassed = []
    for qualified, (callee, fn) in sorted(_exported_callables().items()):
        made = [(positional, keywords) for name, positional, keywords in calls
                if name == callee]
        if not made:
            continue
        params = list(inspect.signature(fn).parameters.values())
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            by_position = param.kind == inspect.Parameter.POSITIONAL_OR_KEYWORD
            if not any(keywords is None or param.name in keywords
                       or (by_position and positional > index)
                       for positional, keywords in made):
                unpassed.append(f"{qualified}({param.name})")
    assert unpassed == []


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names, reads these attributes of the
    # kernel arguments and reads each oracle call's mode off its bound
    # arguments; a rename should fail here, not in a traced benchmark run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"linkcensus.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"linkcensus.{layer}.{name}"
    s = Series.from_coeffs([1, 2, 3], 6)
    args = {"mul": (s, s), "div": (s, s), "sqrt_series": (s,),
            "compose": (s, Series.identity(6)), "newton_solve": (onematrix.reduced_cubic(), 6)}
    for name in tracer.SERIES:
        assert tracer.coeff_ops(name, args[name]) > 0

    def bound(fn, *args, **kwargs):
        # bound as the tracer's wrapper binds an oracle call
        arguments = inspect.signature(fn).bind(*args, **kwargs)
        arguments.apply_defaults()
        return arguments

    marked, closed = oracle.two_point_table, oracle.enumerate_pairings
    calls = {
        "leg2": bound(marked, 3, 2),
        "leg4": bound(marked, 3, 4),
        "gamma": bound(marked, 3, 4, gamma_only=True),
        "twopi": bound(marked, 3, 4, gamma_only=True, twopi=True),
        "closed_all": bound(closed, 3),
        "closed_planar": bound(closed, 3, planar_only=True),
        "mixed": bound(closed, 3, type_counts={"crossing": 2, "tangency": 1}),
    }
    assert {mode: tracer.oracle_mode(call) for mode, call in calls.items()} == {
        mode: mode for mode in calls}


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


def _imported_modules(path) -> set:
    """The module named by every import statement in the file, nested ones too."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_no_module_imports_sympy():
    package = os.path.dirname(linkcensus.__file__)
    importers = set()
    for folder, _dirs, filenames in os.walk(package):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            if any(name.split(".")[0] == "sympy" for name in _imported_modules(path)):
                importers.add(os.path.relpath(path, package))
    assert importers == set()


def test_reference_imports_only_the_series_from_the_package():
    # the reference engines check the package, so they must not borrow from it
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
    borrowed = {name for name in _imported_modules(path) if name.split(".")[0] == "linkcensus"}
    assert borrowed == {"linkcensus.series"}


def test_commands_run_with_sympy_refused():
    # a meta-path finder that refuses sympy: every command must still succeed
    script = (
        "import contextlib, io, sys\n"
        "class RefuseSympy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'sympy':\n"
        "            raise ModuleNotFoundError('sympy is refused')\n"
        "sys.meta_path.insert(0, RefuseSympy())\n"
        "from linkcensus import cli\n"
        "for line in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.main(line.split())\n"
        "    print(rc, line)\n"
        "print('sympy loaded' if 'sympy' in sys.modules else 'sympy not loaded')\n"
    )
    commands = [
        "crosscheck --vmax 2",
        "enumerate --vertices 3 --tangencies 1",
        "series --model on --n 1/2 --order 4",
        "series --model two-color --reduced --order 4",
        "series --model flype --what tangles --order 60",
        "constants",
        "asymptotics --sequence flype-classes --terms 30",
    ]
    src = os.path.dirname(os.path.dirname(linkcensus.__file__))
    result = subprocess.run([sys.executable, "-c", script, *commands], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines == [f"0 {command}" for command in commands] + ["sympy not loaded"]
