"""The package's public names: each is imported from its home module on
first access, so that `import corefkit` loads no submodule. Only the entry
module imports the command line."""
from __future__ import annotations

import ast
import gc
import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import corefkit
from support import DATA, FRESH_ENV

_NAMES = sorted(set(corefkit.__all__) - {"__version__"})


def _fresh(script: str):
    """What a new interpreter printed as JSON after running script."""
    done = subprocess.run([sys.executable, "-c", script], env=FRESH_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_submodule():
    assert _fresh("import json, sys\n"
                  "import corefkit\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "                        if m.startswith('corefkit.'))))\n"
                  ) == []


def test_star_import_gives_each_home_module_object():
    # in a new interpreter, so that every name goes through __getattr__
    homes = _fresh("import json\n"
                   "from importlib import import_module\n"
                   "from corefkit import *\n"
                   "import corefkit\n"
                   "print(json.dumps({\n"
                   "    name: globals()[name] is getattr(\n"
                   "        import_module(globals()[name].__module__), name)\n"
                   "    for name in corefkit.__all__ if name != '__version__'"
                   "}))\n")
    assert homes == dict.fromkeys(_NAMES, True)


@pytest.mark.parametrize("name", _NAMES)
def test_attribute_is_the_home_module_object(name):
    value = getattr(corefkit, name)
    assert value.__module__.startswith("corefkit.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_public_name():
    assert set(corefkit.__all__) <= set(dir(corefkit))
    assert corefkit.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'corefkit' has no attribute 'x'$"):
        corefkit.x


def test_the_console_script_runs_the_function_python_m_corefkit_runs(
        monkeypatch):
    # Python 3.10 has no tomllib: the one [project.scripts] line, as text
    text = (DATA.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    name, target = scripts.strip().replace('"', "").split(" = ")
    assert name == "corefkit"
    calls = []

    def main():
        calls.append(sys._getframe(1).f_code)  # the function calling main
        return 3
    monkeypatch.setattr("corefkit.cli.main", main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    # each import of corefkit.__main__ binds the main above
    monkeypatch.delitem(sys.modules, "corefkit.__main__", raising=False)
    try:
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("corefkit", run_name="__main__")
        module_name, function_name = target.split(":")
        function = getattr(importlib.import_module(module_name),
                           function_name)
        assert (exit_.value.code, function()) == (3, 3)
    finally:
        sys.modules.pop("corefkit.__main__", None)
    # python -m corefkit and the script each freeze after main returned,
    # in the same function
    assert calls == [function.__code__, "freeze"] * 2


def _imported(path: Path) -> set[str]:
    """The full names of the modules, and of the names from them, that a
    module of the package (which has no subpackage) imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, (
                "corefkit" if node.level else "", node.module)))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_entry_module_imports_the_command_line():
    package = Path(corefkit.__file__).parent
    assert {path.stem for path in package.glob("*.py")
            if "corefkit.cli" in _imported(path)} == {"__main__"}
