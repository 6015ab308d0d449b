"""Every name a public module exports in __all__ exists, importing the
package or validating a feeder stays cheap (scipy is imported only where a
solver first needs it), and the library reads feeders as columns."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "voltgame"


@pytest.mark.parametrize("module", ["voltgame", "voltgame.equilibrium"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_are_pinned():
    import voltgame

    assert voltgame.__all__ == [
        "BusData", "ControlSpec", "DegreeDistribution", "Line",
        "OperatingConstants", "PosaReport", "RadialNetwork",
        "SensitivitySet", "SimulationTrace", "build_sensitivity",
        "operating_constants", "posa_report", "random_tree", "validate_tree",
    ]


@pytest.mark.parametrize("statement", [
    "import voltgame",
    "import voltgame.cli",
    # the tree factor stays lazy: validating a feeder builds its traversal only
    "from voltgame.topology import chain_network; chain_network([1.0, 2.0]).traversal",
    # a sweep job's set-up: generate a feeder, write it, hash it
    "from voltgame import netio\n"
    "from voltgame.topology import DegreeDistribution, random_tree\n"
    "net = random_tree(DegreeDistribution({1: .5, 2: .5}, max_depth=15), 42)\n"
    "netio.save_network_json(net)\n"
    "netio.topology_hash(net)",
], ids=["voltgame", "voltgame.cli", "traversal", "setup-path"])
def test_import_loads_no_scipy(statement):
    code = (f"import sys\n{statement}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _names(node):
    """The names an ast node reads, defines or imports."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def test_records_stay_at_the_edge():
    # No module reads bus_arrays, and outside topology and the re-exports of
    # __init__ no module names BusData or Line or reads .buses or .lines.
    found = []
    for path in sorted(SRC.glob("*.py")):
        edge = path.stem in ("topology", "__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _names(node):
                if (name == "bus_arrays"
                        or not edge and name in ("BusData", "Line")
                        or not edge and isinstance(node, ast.Attribute)
                        and name in ("buses", "lines")):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
