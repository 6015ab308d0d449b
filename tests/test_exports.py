"""Every name a public module exports in __all__ exists, and importing the
package or validating a feeder stays cheap: scipy is imported only where a
solver first needs it."""

import importlib
import os
import subprocess
import sys

import pytest


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
