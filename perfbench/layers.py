"""Per-layer tracing of cometric from outside the program.

The traced run wraps the public functions of each layer (the program is not
changed).  A wrapper is installed at *every* module that binds the function,
found by identity: ``landmark.kernel_value`` and ``shapes.kernel_value`` as
well as ``kernels.kernel_value``, ``validation.landmark_rhs`` as well as
``landmark.geodesic_rhs``.  Each call records a span (name, start, end,
parent span, operation id) in memory; spans are written when the run ends.
A layer's time is its self time: the span minus the spans nested in it.

Recursive ``dsl.evaluate``/``dsl.differentiate`` are wrapped at the outermost
call only: the wrapper calls a copy of the function whose recursive calls
bind to the copy, so the per-node cost of the interpreter is not traced.

Counts are exact.  ``kernels.block_mb`` and ``jsonio.emit_mb`` are computed
output bytes, not measured memory traffic.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ALL = ("match", "large_config", "validate")

# name: (unit, workloads that stress it, end-to-end metrics it should move).
# The end-to-end names are the per-kind timings of the result file.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "kernels.block_calls": ("count", ("large_config", "match"),
                            "landmark/shape_curvature_s, geodesic_s; match_s (call overhead)"),
    "kernels.block_s": ("s", ("large_config", "match"), "landmark/shape_curvature_s, geodesic_s, match_s"),
    "kernels.block_mb": ("MB", ("large_config", "match"), "landmark/shape_curvature_s, geodesic_s"),
    "kernels.block_reuse": ("ratio", ("large_config", "match"), "shape_curvature_s, geodesic_s"),
    "kernels.distinct_calls": ("count", ("match", "large_config"), "match_s, geodesic_s"),
    "kernels.distinct_s": ("s", ("match", "large_config"), "match_s, geodesic_s"),
    "kernels.oracle_s": ("s", ("validate",), "validate_s"),
    "landmark.rhs_calls": ("count", ("match", "large_config"), "match_s, geodesic_s"),
    "landmark.rhs_s": ("s", ("match", "large_config"), "match_s, geodesic_s"),
    "landmark.hamiltonian_s": ("s", ("large_config", "validate"), "geodesic_s, validate_s"),
    "landmark.curvature_s": ("s", ("large_config",), "landmark_curvature_s"),
    "landmark.jet_s": ("s", ("validate",), "validate_s"),
    "shapes.force_stress_calls": ("count", ("large_config",), "shape_curvature_s"),
    "shapes.force_stress_s": ("s", ("large_config",), "shape_curvature_s"),
    "shapes.curvature_s": ("s", ("large_config",), "shape_curvature_s"),
    "shapes.rhs_calls": ("count", ("validate",), "validate_s"),
    "shapes.rhs_s": ("s", ("validate",), "validate_s"),
    "shapes.monitor_s": ("s", ("validate",), "validate_s"),
    "dsl.evaluate_calls": ("count", ("validate",), "validate_s, chart_curvature_s"),
    "dsl.evaluate_s": ("s", ("validate",), "validate_s, chart_curvature_s"),
    "dsl.differentiate_s": ("s", ("validate",), "validate_s, chart_curvature_s"),
    "charts.define_s": ("s", ("validate",), "chart_curvature_s"),
    "charts.jet_s": ("s", ("validate",), "validate_s, chart_curvature_s"),
    "jets.assemble_s": ("s", ("validate",), "validate_s, chart_curvature_s"),
    "curvature.coordinate_s": ("s", ("validate",), "chart_curvature_s, validate_s"),
    "curvature.covariant_s": ("s", ("validate",), "validate_s"),
    "curvature.force_stress_s": ("s", ("validate",), "validate_s"),
    "christoffel.oracle_s": ("s", ("validate",), "validate_s, chart_curvature_s"),
    "christoffel.fd_jet_calls": ("count", ("validate",), "validate_s"),
    "submersion.oneill_s": ("s", ("validate",), "validate_s"),
    "dynamics.integrate_s": ("s", ("large_config", "validate"), "geodesic_s, validate_s"),
    "dynamics.shoot_calls": ("count", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "dynamics.shoot_s": ("s", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "dynamics.match_s": ("s", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "dynamics.sensitivity_integrations": ("count", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "dynamics.match_iterations": ("count", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "dynamics.trial_accept_ratio": ("ratio", ("match", "validate"), "match_s; validate_s (matching suite)"),
    "jsonio.emit_s": ("s", ("large_config",), "geodesic_s"),
    "jsonio.emit_mb": ("MB", ("large_config",), "geodesic_s"),
    "cli.self_s": ("s", ALL, "every per-kind timing"),
    **{f"validation.suite_s.{suite}": ("s", ("validate",), "validate_s") for suite in (
        "kernel_oracle", "christoffel_oracle", "curvature_forms", "constant_curvature", "oneill",
        "landmark_identity", "conservation", "m0_reduction", "refinement", "matching")},
}

# Otherwise ``<span>_s`` is the self time of the spans named ``<span>`` and
# ``<span>_calls`` their number; the command-line span is ``cli.main``.
SPAN_ALIASES = {"cli.self": "cli.main"}
INTEGRATORS = ("dynamics.shoot", "dynamics.match")
RK4_STAGES = 4


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.block_inputs: set = set()
        self.rhs_in: Counter = Counter()   # shoot/match span -> rhs calls nearest inside it
        self.steps: dict[int, int] = {}    # shoot/match span -> steps per integration

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so each call while active records a span named ``name``.

        ``pre(args, kwargs)`` runs before the span opens; ``post(span, args,
        kwargs, result)`` after it closes, so neither is timed as the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer.stack.pop()
            if post is not None:
                post(idx, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")


def _outermost(fn):
    """A copy of recursive ``fn`` whose self-references bind to the copy."""
    scope = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = clone
    return clone


def install(tracer: Tracer, cm) -> list:
    """Wrap every layer function at every binding; returns the patches to undo."""
    kernels, landmark, shapes, dynamics = cm.kernels, cm.landmark, cm.shapes, cm.dynamics
    charts, jsonio, validation = cm.charts, cm.jsonio, cm.validation
    # The package attribute ``cometric.christoffel`` is the re-exported function.
    christoffel = sys.modules["cometric.christoffel"]
    curvature = sys.modules["cometric.curvature"]
    dsl = sys.modules["cometric.dsl"]
    jets = sys.modules["cometric.jets"]
    submersion = sys.modules["cometric.submersion"]

    def block_key(order):
        def pre(args, kwargs):
            r = np.ascontiguousarray(args[1], dtype=float)
            tracer.block_inputs.add((order, args[0], r.shape, hashlib.blake2b(r.data, digest_size=16).digest()))
        return pre

    def block_post(idx, args, kwargs, result):
        tracer.counts["block_bytes"] += np.asarray(result).nbytes

    def rhs_pre(args, kwargs):
        for idx in reversed(tracer.stack):
            if tracer.names[idx] in INTEGRATORS:
                tracer.rhs_in[idx] += 1
                return

    def integrator_post(idx, args, kwargs, result):
        config = args[3] if len(args) > 3 else kwargs["config"]
        tracer.steps[idx] = config.steps

    def match_post(idx, args, kwargs, result):
        integrator_post(idx, args, kwargs, result)
        tracer.counts["match_iterations"] += result.iterations
        tracer.counts["match_accepted"] += len(result.residuals) - 1

    def emit_post(idx, args, kwargs, result):
        tracer.counts["emit_bytes"] += len(result.encode())

    fd_original = christoffel.christoffel_derivative_fd

    def fd_counted(jet_fn, *args, **kwargs):
        def counted(y):
            if tracer.active:
                tracer.counts["fd_jet_calls"] += 1
            return jet_fn(y)
        return fd_original(counted, *args, **kwargs)

    wrap = tracer.span
    wrappers = {
        kernels.kernel_value: wrap("kernels.block", kernels.kernel_value, block_key(0), block_post),
        kernels.kernel_grad: wrap("kernels.block", kernels.kernel_grad, block_key(1), block_post),
        kernels.kernel_hess: wrap("kernels.block", kernels.kernel_hess, block_key(2), block_post),
        kernels.check_distinct: wrap("kernels.distinct", kernels.check_distinct),
        kernels.kernel_fourier_oracle: wrap("kernels.oracle", kernels.kernel_fourier_oracle),
        landmark.geodesic_rhs: wrap("landmark.rhs", landmark.geodesic_rhs, rhs_pre),
        landmark.hamiltonian: wrap("landmark.hamiltonian", landmark.hamiltonian),
        landmark.curvature: wrap("landmark.curvature", landmark.curvature),
        landmark.landmark_cometric_jet: wrap("landmark.jet", landmark.landmark_cometric_jet),
        shapes.force_normal: wrap("shapes.force_stress", shapes.force_normal),
        shapes.stress_normal: wrap("shapes.force_stress", shapes.stress_normal),
        shapes.curvature_terms: wrap("shapes.curvature", shapes.curvature_terms),
        shapes.geodesic_rhs: wrap("shapes.rhs", shapes.geodesic_rhs),
        shapes.rederive_frames: wrap("shapes.monitor", shapes.rederive_frames),
        shapes.normality_defect: wrap("shapes.monitor", shapes.normality_defect),
        shapes.induced_pairing: wrap("shapes.monitor", shapes.induced_pairing),
        dsl.evaluate: wrap("dsl.evaluate", _outermost(dsl.evaluate)),
        dsl.differentiate: wrap("dsl.differentiate", _outermost(dsl.differentiate)),
        charts.cometric_jet: wrap("charts.jet", charts.cometric_jet),
        jets.assemble_jet: wrap("jets.assemble", jets.assemble_jet),
        curvature.numerator_coordinate: wrap("curvature.coordinate", curvature.numerator_coordinate),
        curvature.numerator_covariant: wrap("curvature.covariant", curvature.numerator_covariant),
        curvature.numerator_force_stress: wrap("curvature.force_stress", curvature.numerator_force_stress),
        christoffel.sectional_numerator_oracle: wrap("christoffel.oracle",
                                                     christoffel.sectional_numerator_oracle),
        fd_original: functools.wraps(fd_original)(fd_counted),
        submersion.oneill_check: wrap("submersion.oneill", submersion.oneill_check),
        dynamics.integrate: wrap("dynamics.integrate", dynamics.integrate),
        dynamics.shoot: wrap("dynamics.shoot", dynamics.shoot, post=integrator_post),
        dynamics.match: wrap("dynamics.match", dynamics.match, post=match_post),
        jsonio.dumps: wrap("jsonio.emit", jsonio.dumps, post=emit_post),
        jsonio.trajectory_csv: wrap("jsonio.emit", jsonio.trajectory_csv, post=emit_post),
        cm.cli.main: wrap("cli.main", cm.cli.main),
    }
    for name, suite in validation.SUITES.items():
        wrappers[suite] = wrap(f"validation.suite.{name}", suite)

    patches = []
    modules = [m for n, m in sys.modules.items() if n == "cometric" or n.startswith("cometric.")]
    for holder in [*(vars(m) for m in modules), validation.SUITES]:
        for key, value in list(holder.items()):
            if callable(value) and value in wrappers:
                patches.append((holder, key, value))
                holder[key] = wrappers[value]
    define = charts.CometricDef.__post_init__
    patches.append((charts.CometricDef, "__post_init__", define))
    charts.CometricDef.__post_init__ = wrap("charts.define", define)
    return patches


def uninstall(patches: list) -> None:
    for holder, key, original in reversed(patches):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric of :data:`LAYER_METRICS`, and the reason for each
    that recorded nothing."""
    names = tracer.names
    start = np.asarray(tracer.starts)
    dur = np.asarray(tracer.ends) - start
    parents = np.asarray(tracer.parents, dtype=np.int64)
    nested = np.zeros(len(names))
    inner = parents >= 0
    np.add.at(nested, parents[inner], dur[inner])
    own = dur - nested
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for name, d, o in zip(names, dur.tolist(), own.tolist()):
        self_s[name] += o
        total_s[name] += d
    calls = Counter(names)

    metrics: dict[str, float] = {}
    blocks = calls["kernels.block"]
    metrics["kernels.block_mb"] = tracer.counts["block_bytes"] / 1e6
    metrics["kernels.block_reuse"] = len(tracer.block_inputs) / blocks if blocks else 0.0
    metrics["christoffel.fd_jet_calls"] = tracer.counts["fd_jet_calls"]
    metrics["jsonio.emit_mb"] = tracer.counts["emit_bytes"] / 1e6

    # Integrations, from rhs calls nearest inside shoot and match spans.
    sensitivity = trials = 0
    for idx, rhs in tracer.rhs_in.items():
        if idx not in tracer.steps:  # the call raised; its integrations are not complete
            continue
        per_integration = RK4_STAGES * tracer.steps[idx]
        if names[idx] == "dynamics.shoot":
            sensitivity += rhs // per_integration
        else:  # match: the start and final endpoints plus one per trial step
            trials += rhs // per_integration - 2
    metrics["dynamics.sensitivity_integrations"] = sensitivity
    metrics["dynamics.match_iterations"] = tracer.counts["match_iterations"]
    metrics["dynamics.trial_accept_ratio"] = tracer.counts["match_accepted"] / trials if trials else 0.0
    for suite in [m for m in LAYER_METRICS if m.startswith("validation.suite_s.")]:
        # Suites partition validate_s, so their time is inclusive.
        metrics[suite] = total_s[f"validation.suite.{suite.rsplit('.', 1)[1]}"]

    for name in LAYER_METRICS:
        if name in metrics:
            continue
        base, _, kind = name.rpartition("_")
        span = SPAN_ALIASES.get(base, base)
        metrics[name] = calls[span] if kind == "calls" else self_s[span]
    metrics = {m: metrics[m] for m in LAYER_METRICS if m in metrics}
    idle = {m: "not exercised by this workload" for m, v in metrics.items() if v == 0}
    if not blocks:
        idle["kernels.block_reuse"] = "no kernel blocks were computed"
    if not trials:
        idle["dynamics.trial_accept_ratio"] = "no match trial steps were run"
    return metrics, idle
