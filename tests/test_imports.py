"""Every module imports on its own in a fresh interpreter.

``import anttora.<module>`` runs the package ``__init__`` first, whose import
order could hide a cycle; the ``first`` variant imports the module before any
other module of the package, as an empty ``__init__`` would, so a cycle
between two modules fails whichever of them is imported first.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import anttora

MODULES = sorted(m.name for m in pkgutil.iter_modules(anttora.__path__))
PACKAGE_DIR = os.path.dirname(anttora.__file__)

ENTRIES = {
    "package": "import anttora.{module}",
    "first": (
        "import sys, types; pkg = types.ModuleType('anttora'); "
        "pkg.__path__ = [{path!r}]; sys.modules['anttora'] = pkg; "
        "import anttora.{module}"
    ),
}


def test_module_list_is_complete():
    assert {"agent", "engine", "scenario"} <= set(MODULES)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module, entry):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)}
    code = ENTRIES[entry].format(module=module, path=PACKAGE_DIR)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_no_module_loads_dataclasses():
    # a fresh run pays for its imports: dataclasses brings inspect, ast, dis
    # and tokenize, and generates each class it builds with exec
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "static_line.json")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)}
    code = "; ".join(
        [
            "import sys",
            *(f"import anttora.{module}" for module in MODULES),
            f"anttora.scenario.load_scenario({golden!r})",
            "print('dataclasses' in sys.modules)",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
