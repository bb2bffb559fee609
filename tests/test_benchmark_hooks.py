"""The benchmark reaches into the library by name: its set-up
(``perfbench/workloads.py``, ``perfbench/run.py``) calls ``cm.<module>.<name>``
with keyword arguments, and the traced run (``perfbench/run.py --trace 1``)
wraps functions that ``perfbench/layers.py`` looks up.  Renaming or removing
one of them breaks the benchmark with ``AttributeError`` or ``TypeError``;
these tests notice it without running a workload."""

import ast
import importlib
import inspect
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from cometric import charts, validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
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


def _library_reads():
    """``(module, name, call)`` for every ``cm.<module>.<name>`` in the
    benchmark's sources; ``call`` is the ``ast.Call`` when it is called."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "cm"):
                yield node.value.attr, node.attr, calls.get(id(node))


def test_benchmark_set_up_reads_resolve():
    """Every library name the benchmark reads exists, and every keyword it
    passes is a parameter of the callee."""
    names, keywords = set(), set()
    for module, name, call in _library_reads():
        target = getattr(importlib.import_module(f"cometric.{module}"), name)
        names.add((module, name))
        if call is None:
            continue
        params = inspect.signature(target).parameters
        for kw in call.keywords:
            if kw.arg is not None:  # ``**mapping`` is not checked
                assert kw.arg in params, f"cm.{module}.{name} takes no keyword {kw.arg!r}"
                keywords.add((name, kw.arg))
    assert {("landmark", "GRAM_COND_LIMIT"), ("shapes", "DiscreteSubmanifold"),
            ("kernels", "kernel_fourier_oracle")} <= names
    assert {("DiscreteSubmanifold", "projectors"), ("kernel_fourier_oracle", "quad_points")} <= keywords
