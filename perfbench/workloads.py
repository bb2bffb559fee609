"""Seeded inputs, operations and correctness gates for the three workloads.

A workload is built in three steps, all from the seed alone:

* ``prepare`` generates every input (kernel spec, landmark states, shapes,
  chart files) and writes it under a work directory.  The program receives
  only those files, through its command line.
* The returned :class:`Op` list is one *round*: each kind of operation run
  ``Op.repeat`` times in a row.  The repeats give every kind a comparable
  share of the round's time, so a slower kind shows in the round's time
  whichever kind is longest.  The runner repeats rounds in a closed loop
  (one client, each operation starting when the previous one ends).
* Each ``Op.check`` is the untimed correctness gate for one output.  It raises
  :class:`GateFailure`; the runner counts that operation as failed.

Inputs are never re-drawn to avoid a failure: a failing seed is a finding.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# One kernel for every workload: Matern 3/2 in R^3 (curvature grade), unit
# length scale, amplitude normalised so that K(0) = 1.
KERNEL = {"family": "sobolev_bessel", "n": 3, "l": 3, "A": 1.0}
RING_SPACING = 0.35  # large_config ring and circle: neighbour spacing / kernel length

MATCH = {"p": 4, "D": 2, "dt": 1e-2, "T": 1.0, "tol": 1e-10, "momentum_norm": 0.25}
LARGE = {"p": 400, "D": 2, "S": 512, "dt": 1e-2, "T": 0.2, "momentum_sd": 0.5}
CHART = {"p": 5, "D": 2}

MATCH_MAX_ITER = 25
MATCH_P0_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-8
LINEAR_DRIFT_TOL = 1e-10
LANDMARK_ROUTE_TOL = 1e-12
SHAPE_MOTION_TOL = 1e-9
CHART_ORACLE_TOL = 1e-7

TERMS = ("r11", "r12", "r2", "r3", "total")


class GateFailure(Exception):
    """An operation's output failed its correctness gate."""


@dataclass
class Op:
    """One operation: a ``cometric`` command line writing to ``out``."""

    kind: str            # also the name of its timing metric
    argv: list[str]
    out: Path
    check: Callable[[bytes], None]
    repeat: int = 1      # runs of this operation in one round
    digest: Callable[[bytes], bytes] = field(default=lambda data: data)


@dataclass
class Workload:
    ops: list[Op]
    properties: Callable[[], dict]  # stated sizes and input properties, computed after set-up


def kernel_spec(cm) -> dict:
    base = cm.kernels.KernelSpec(**KERNEL, c=1.0)
    k0 = float(cm.kernels.kernel_value(base, np.zeros((1, 1)))[0])
    return dict(KERNEL, c=1.0 / k0)


def jittered_ring(rng: np.random.Generator, p: int, radius: float, jitter: float) -> np.ndarray:
    """``p`` points on a circle, each moved uniformly by up to ``jitter`` per coordinate."""
    theta = 2.0 * np.pi * np.arange(p) / p
    q = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return q + rng.uniform(-jitter, jitter, size=q.shape)


def quarter_turn(a: np.ndarray) -> np.ndarray:
    """The command line's default second coform for D = 2."""
    return np.stack([-a[:, 1], a[:, 0]], axis=1)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _state(q: np.ndarray, mom: np.ndarray) -> dict:
    return {"D": int(q.shape[1]), "q": q.tolist(), "p": mom.tolist()}


def _csv(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def point_properties(cm, spec_obj: dict, pts: np.ndarray) -> dict:
    """Minimum pair separation and kernel Gram condition number of ``pts``."""
    spec = cm.kernels.spec_from_json(spec_obj)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1) + np.diag(np.full(len(pts), np.inf))
    return {
        "count": int(len(pts)),
        "min_separation": float(dist.min()),
        "gram_cond": float(np.linalg.cond(cm.kernels.gram_matrix(spec, pts))),
    }


# --- match --------------------------------------------------------------------

def prepare_match(cm, seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    p, d = MATCH["p"], MATCH["D"]
    spec_obj = kernel_spec(cm)
    q0 = jittered_ring(rng, p, 1.0, 0.1)
    direction = rng.standard_normal((p, d))
    p_true = MATCH["momentum_norm"] * direction / np.linalg.norm(direction)
    metric = cm.landmark.LandmarkMetric(cm.kernels.spec_from_json(spec_obj), p, d)
    config = cm.dynamics.IntegratorConfig(dt=MATCH["dt"], t_final=MATCH["T"])
    q_target = cm.dynamics.shoot(metric, q0, p_true, config).q_final

    spec = _write(work / "spec.json", spec_obj)
    source = _write(work / "source.json", _state(q0, np.zeros_like(q0)))
    target = _write(work / "target.json", _state(q_target, np.zeros_like(q0)))
    out = work / "match.json"

    def check(data: bytes) -> None:
        res = json.loads(data)
        if not res["converged"] or res["iterations"] > MATCH_MAX_ITER:
            raise GateFailure(f"match: converged={res['converged']} after {res['iterations']} iterations")
        err = float(np.abs(np.asarray(res["p0"]) - p_true).max())
        if err > MATCH_P0_TOL:
            raise GateFailure(f"match: p0 misses the ground truth by {err:.3e} (tol {MATCH_P0_TOL:g})")

    argv = ["match", "--spec", spec, "--source", source, "--target", target,
            "--dt", repr(MATCH["dt"]), "--T", repr(MATCH["T"]), "--tol", repr(MATCH["tol"]),
            "--out", str(out)]
    return Workload(
        ops=[Op("match_s", argv, out, check)],
        properties=lambda: {
            "sizes": dict(MATCH, steps=config.steps),
            "source": point_properties(cm, spec_obj, q0),
            "target": point_properties(cm, spec_obj, q_target),
        },
    )


# --- large_config -------------------------------------------------------------

def _breakdown(data: bytes) -> dict:
    return json.loads(data)["breakdown"]


def prepare_large(cm, seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    p, d, s = LARGE["p"], LARGE["D"], LARGE["S"]
    spec_obj = kernel_spec(cm)
    spec = cm.kernels.spec_from_json(spec_obj)

    q = jittered_ring(rng, p, p * RING_SPACING / (2.0 * np.pi), 0.2 * RING_SPACING)
    alpha = LARGE["momentum_sd"] * rng.standard_normal((p, d))

    radius = s * RING_SPACING / (2.0 * np.pi) * rng.uniform(0.9, 1.1)
    center = tuple(rng.uniform(-1.0, 1.0, size=2))
    circle = cm.shapes.make_circle(s, radius=radius, center=center)
    theta = 2.0 * np.pi * np.arange(s) / s
    modes = rng.standard_normal((2, 3))
    k = np.arange(1, 4)
    profile = np.cos(np.outer(theta, k)) @ modes[0] + np.sin(np.outer(theta, k)) @ modes[1]
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    shape_mom = profile[:, None] * normals

    spec_file = _write(work / "spec.json", spec_obj)
    state = _write(work / "ring.json", _state(q, alpha))
    shape = _write(work / "circle.json", cm.shapes.shape_to_json(circle, shape_mom))
    out_lm, out_sh, out_geo = work / "landmark.json", work / "shape.json", work / "geodesic.csv"

    refs: dict = {}

    def landmark_ref() -> dict:
        if "landmark" not in refs:
            br = cm.shapes.curvature_terms(spec, cm.shapes.landmark_shape(q), alpha, quarter_turn(alpha))
            refs["landmark"] = {t: getattr(br, t) for t in TERMS}
        return refs["landmark"]

    def check_landmark(data: bytes) -> None:
        own, ref = _breakdown(data), landmark_ref()
        for t in TERMS:
            gap = abs(own[t] - ref[t])
            if gap > LANDMARK_ROUTE_TOL * (1.0 + abs(own[t])):
                raise GateFailure(f"curvature landmark: {t} differs from the m=0 shape route by {gap:.3e}")

    # The same circle moved by a seeded rigid motion: curvature must not change.
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    shift = rng.uniform(-5.0, 5.0, size=2)

    def shape_ref() -> dict:
        if "shape" not in refs:
            moved = cm.shapes.DiscreteSubmanifold(
                x=circle.x @ rot.T + shift, w=circle.w,
                tangents=circle.tangents @ rot.T,
                projectors=np.einsum("ij,sjk,lk->sil", rot, circle.projectors, rot),
            )
            mom = shape_mom @ rot.T
            br = cm.shapes.curvature_terms(spec, moved, mom, quarter_turn(mom))
            refs["shape"] = {t: getattr(br, t) for t in TERMS}
        return refs["shape"]

    def check_shape(data: bytes) -> None:
        own, ref = _breakdown(data), shape_ref()
        scale = max(abs(ref[t]) for t in TERMS)
        for t in TERMS:
            gap = abs(own[t] - ref[t])
            if gap > SHAPE_MOTION_TOL * scale:
                raise GateFailure(f"curvature shape: {t} changes by {gap:.3e} under a rigid motion")

    def check_geodesic(data: bytes) -> None:
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        ham = rows[:, header.index("H")]
        lin = rows[:, [i for i, c in enumerate(header) if c.startswith("P_")]]
        energy = float(np.abs(ham - ham[0]).max() / abs(ham[0]))
        linear = float(np.abs(lin - lin[0]).max())
        if energy > ENERGY_DRIFT_TOL or linear > LINEAR_DRIFT_TOL:
            raise GateFailure(f"geodesic shoot: energy drift {energy:.3e}, linear drift {linear:.3e}")

    common = ["--spec", spec_file]
    return Workload(
        ops=[
            Op("landmark_curvature_s", ["curvature", "landmark", *common, "--state", state,
                                        "--out", str(out_lm)], out_lm, check_landmark, repeat=12),
            Op("shape_curvature_s", ["curvature", "shape", *common, "--shape", shape,
                                     "--out", str(out_sh)], out_sh, check_shape, repeat=4),
            Op("geodesic_s", ["geodesic", "shoot", *common, "--state", state,
                              "--dt", repr(LARGE["dt"]), "--T", repr(LARGE["T"]),
                              "--out", str(out_geo)], out_geo, check_geodesic),
        ],
        properties=lambda: {
            "sizes": dict(LARGE, steps=round(LARGE["T"] / LARGE["dt"]),
                          hessian_block_mb=p * p * d * d * 8 / 1e6),
            "ring": point_properties(cm, spec_obj, q),
            "circle": dict(point_properties(cm, spec_obj, circle.x), radius=radius),
            "gram_cond_limit": cm.landmark.GRAM_COND_LIMIT,
        },
    )


# --- validate -----------------------------------------------------------------

_SUITE_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL|----)\s+[-\d.]+s\s+(.*)$")


def validate_rows(data: bytes) -> list[tuple[str, str, str]]:
    """(suite, verdict, detail) per table row, the closing summary row last;
    the elapsed column is dropped."""
    rows = []
    for line in data.decode().splitlines():
        m = _SUITE_LINE.match(line)
        if m is None:
            raise GateFailure(f"validate: unreadable table row {line!r}")
        rows.append(m.groups())
    return rows


def prepare_validate(cm, seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    p, d = CHART["p"], CHART["D"]
    spec_obj = kernel_spec(cm)
    defn = cm.charts.landmark_cometric_def(cm.kernels.spec_from_json(spec_obj), p, d)
    chart = _write(work / "chart.json", cm.charts.cometric_to_json(defn))
    q = jittered_ring(rng, p, 1.0, 0.1)
    alpha, beta = rng.standard_normal(p * d), rng.standard_normal(p * d)
    out_gate, out_chart = work / "validate.txt", work / "chart_out.json"
    suites = set(cm.validation.SUITES)

    def check_gate(data: bytes) -> None:
        rows = validate_rows(data)
        names = {name for name, _, _ in rows[:-1]}
        failed = [name for name, verdict, _ in rows[:-1] if verdict != "PASS"]
        if names != suites or failed:
            raise GateFailure(f"validate: suites failed or missing: {sorted(failed or suites - names)}")

    def gate_digest(data: bytes) -> bytes:
        return json.dumps([[name, verdict, detail] for name, verdict, detail in validate_rows(data)]).encode()

    def check_chart(data: bytes) -> None:
        res = json.loads(data)
        total = res["breakdown"]["total"]
        if res["discrepancy"] > CHART_ORACLE_TOL * (1.0 + abs(total)):
            raise GateFailure(f"curvature chart: oracle discrepancy {res['discrepancy']:.3e}")

    return Workload(
        ops=[
            Op("validate_s", ["validate", "--seed", str(seed), "--threads", "1",
                              "--out", str(out_gate)], out_gate, check_gate, digest=gate_digest),
            Op("chart_curvature_s", ["curvature", "chart", "--cometric", chart,
                                     f"--point={_csv(q.reshape(-1))}", f"--alpha={_csv(alpha)}",
                                     f"--beta={_csv(beta)}", "--out", str(out_chart)],
               out_chart, check_chart, repeat=6),
        ],
        properties=lambda: {
            "sizes": dict(CHART, chart_dim=p * d, chart_entries=len(defn.entries),
                          validate_suites=len(suites)),
            "chart_point": point_properties(cm, spec_obj, q),
        },
    )


PREPARE = {"match": prepare_match, "large_config": prepare_large, "validate": prepare_validate}
