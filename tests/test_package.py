"""The package's public names: each is imported from its home module on
first access, so that `import corefkit` loads no submodule."""
from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import corefkit
from support import FRESH_ENV

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
