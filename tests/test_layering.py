"""Every public function and class of a ``kzsim`` layer module is used by the
program: another line of ``src/kzsim``, a benchmark script or the README
names it.  A name that only tests call belongs under ``tests/``, as an
oracle or a helper."""
import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "kzsim"


def test_public_names_are_used_outside_the_tests():
    layers = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    lines = [line for p in (*layers, *sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md")
             for line in p.read_text().splitlines()]
    unused = []
    for path in layers:
        module = importlib.import_module(f"kzsim.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            used, definition = re.compile(rf"\b{name}\b"), re.compile(rf"\s*(def|class) {name}\b")
            if not any(used.search(line) and not definition.match(line) for line in lines):
                unused.append(f"{module.__name__}.{name}")
    assert not unused


def test_package_root_binds_only_its_version():
    # the layers are imported as submodules; the root re-exports none of them
    root = importlib.import_module("kzsim")
    public = [name for name, obj in vars(root).items()
              if not name.startswith("_") and not inspect.ismodule(obj)]
    assert public == [] and root.__version__


def test_each_exit_path_has_one_exception_type():
    # cli.main reports a refusal by its exit code and stderr prefix alone, so two
    # types on one path are told apart only by tests; IndexOutOfRange adds IndexError
    errors = importlib.import_module("kzsim.errors")
    paths = sorted((obj.exit_code, obj.prefix) for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, errors.KzsimError)
                   and not name.startswith("_") and obj is not errors.IndexOutOfRange)
    assert paths == [(2, "usage error"), (3, "error"), (3, "invalid configuration"),
                     (4, "i/o error")], paths


def test_every_raise_names_a_kzsim_error():
    # cli.main reports only kzsim.errors types; any other exception would end
    # the command in a traceback.  cli's SystemExit is its exit, not a refusal
    errors = importlib.import_module("kzsim.errors")
    named = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.KzsimError)}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name not in named and (path.name, name) != ("cli.py", "SystemExit"):
                    stray.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not stray
