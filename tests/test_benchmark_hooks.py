"""The traced benchmark (``perfbench/run.py --trace 1``) wraps library
functions that ``perfbench/layers.py`` looks up by name.  Renaming or removing
one of them breaks that run with ``AttributeError``; this test notices it
without running a workload."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from cometric import charts, validation

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = ("cli", "charts", "dynamics", "jsonio", "kernels", "landmark", "shapes", "validation")


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every callable bound in a cometric module, every validation suite and
    the chart-definition hook."""
    modules = [(n, m) for n, m in sys.modules.items() if n == "cometric" or n.startswith("cometric.")]
    found = {(n, key): value for n, m in modules for key, value in vars(m).items() if callable(value)}
    found.update({("SUITES", key): value for key, value in validation.SUITES.items()})
    found[("CometricDef", "__post_init__")] = charts.CometricDef.__post_init__
    return found


def test_benchmark_wrappers_install_and_uninstall():
    layers = _load_layers()
    cm = SimpleNamespace(**{m: importlib.import_module(f"cometric.{m}") for m in MODULES})
    before = _bindings()
    patches = layers.install(layers.Tracer(), cm)
    try:
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert {("cometric.dynamics", "shoot"), ("cometric.dynamics", "match"),
                ("cometric.dsl", "differentiate"), ("SUITES", "matching")} <= wrapped
    finally:
        layers.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
