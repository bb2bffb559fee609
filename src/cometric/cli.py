"""Command-line interface.

One executable, ``cometric``, exposing the library operations with JSON in
and JSON/CSV out:

* ``kernel eval``          — kernel value/gradient/Hessian at given radii
* ``curvature chart``      — curvature breakdown for a chart cometric
* ``curvature landmark``   — curvature breakdown for a landmark configuration
* ``curvature shape``      — curvature breakdown for a discrete submanifold
* ``geodesic shoot``       — integrate a landmark geodesic, emit CSV
* ``match``                — recover initial momenta for a target configuration
* ``oneill check``         — submersion residuals at random points
* ``shape make``           — generate a discrete shape (circle)
* ``validate``             — run the cross-oracle validation suites

Structured results are printed as JSON (17 significant digits, so values
round-trip exactly); trajectories are CSV.  ``--out`` redirects either to a
file.  Exit codes: 0 success, 1 computation error (message on stderr),
2 usage error.

Identical invocations with identical ``--seed`` produce byte-identical
output; randomness only enters through seeded generators.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import charts, jsonio, shapes, submersion, validation
from .christoffel import sectional_numerator_oracle
from .curvature import numerator_coordinate
from .dynamics import IntegratorConfig, integrate, landmark_system, match
from .errors import ConfigurationError, GeometryError
from .kernels import kernel_grad, kernel_hess, kernel_value, spec_from_json, spec_to_json
from .landmark import LandmarkMetric, curvature as landmark_curvature, state_from_json
from .validation import render_table, run_suites


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_at_least(least: int):
    """Argparse type: an integer no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return parse


def _non_negative(text: str) -> float:
    """Argparse type: a number no smaller than 0 (NaN is not)."""
    try:
        if float(text) >= 0.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out}: {exc}") from exc


def _quarter_turn(a: np.ndarray) -> np.ndarray:
    """Default second coform: per-row quarter turn (roll across rows in 1-D)."""
    if a.shape[1] >= 2:
        b = a.copy()
        b[:, 0], b[:, 1] = -a[:, 1], a[:, 0]
        return b
    return np.roll(a, 1, axis=0)


def _second_coform(beta: np.ndarray | None, alpha: np.ndarray) -> np.ndarray:
    """``--beta`` laid out like ``alpha``; without it, the quarter turn of ``alpha``."""
    if beta is None:
        return _quarter_turn(alpha)
    if beta.size != alpha.size:
        raise ConfigurationError(f"--beta needs {alpha.size} numbers, got {beta.size}")
    return beta.reshape(alpha.shape)


# ---------------------------------------------------------------------------
# Subcommand handlers (argparse namespace -> None, writing via _emit)


def _cmd_kernel_eval(args) -> int:
    spec = spec_from_json(jsonio.load_file(args.spec))
    radii = np.asarray(args.r, dtype=float)
    points = np.zeros((radii.size, spec.n))
    points[:, 0] = radii
    payload = {
        "spec": spec_to_json(spec),
        "radii": radii,
        "values": kernel_value(spec, points),
        "gradients": kernel_grad(spec, points),
        "hessians": kernel_hess(spec, points),
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _load_cometric(token: str) -> charts.CometricDef:
    if token.startswith("catalog:"):
        return charts.catalog_cometric(token[len("catalog:"):])
    return charts.cometric_from_json(jsonio.load_file(token))


def _cmd_curvature_chart(args) -> int:
    defn = _load_cometric(args.cometric)
    x = args.point
    alpha, beta = args.alpha, args.beta
    jet = charts.cometric_jet(defn, x)
    br = numerator_coordinate(jet, alpha, beta)
    oracle = sectional_numerator_oracle(jet, jet.ginv @ alpha, jet.ginv @ beta)
    payload = {
        "point": x,
        "alpha": alpha,
        "beta": beta,
        "breakdown": dataclasses.asdict(br),
        "oracle_numerator": oracle,
        "discrepancy": abs(br.total - oracle),
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _cmd_curvature_landmark(args) -> int:
    spec = spec_from_json(jsonio.load_file(args.spec))
    dim, q, p = state_from_json(jsonio.load_file(args.state))
    metric = LandmarkMetric(spec, q.shape[0], dim)
    alpha = p
    beta = _second_coform(args.beta, alpha)
    br = landmark_curvature(metric, q, alpha, beta)
    payload = {
        "q": q,
        "alpha": alpha,
        "beta": beta,
        "breakdown": dataclasses.asdict(br),
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _cmd_curvature_shape(args) -> int:
    spec = spec_from_json(jsonio.load_file(args.spec))
    shape, mom = shapes.shape_from_json(jsonio.load_file(args.shape))
    if mom is None:
        raise ConfigurationError("shape file carries no momenta to use as the first coform")
    beta = _second_coform(args.beta, mom)
    br = shapes.curvature_terms(spec, shape, mom, beta)
    payload = {
        "samples": shape.samples,
        "alpha": mom,
        "beta": beta,
        "breakdown": dataclasses.asdict(br),
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _cmd_geodesic_shoot(args) -> int:
    spec = spec_from_json(jsonio.load_file(args.spec))
    dim, q0, p0 = state_from_json(jsonio.load_file(args.state))
    metric = LandmarkMetric(spec, q0.shape[0], dim)
    config = IntegratorConfig(dt=args.dt, t_final=args.T)
    ys, report = integrate(landmark_system(metric), np.array((q0, p0)), config)
    csv = jsonio.trajectory_csv(report.t, ys[:, 0], ys[:, 1], report.hamiltonian, report.linear, report.angular)
    _emit(csv, args.out)
    return 0


def _cmd_match(args) -> int:
    spec = spec_from_json(jsonio.load_file(args.spec))
    dim, q0, _ = state_from_json(jsonio.load_file(args.source))
    dim_t, q_target, _ = state_from_json(jsonio.load_file(args.target))
    if dim_t != dim or q_target.shape != q0.shape:
        raise ConfigurationError(
            f"source and target disagree: {q0.shape} in D={dim} vs {q_target.shape} in D={dim_t}"
        )
    metric = LandmarkMetric(spec, q0.shape[0], dim)
    config = IntegratorConfig(dt=args.dt, t_final=args.T)
    result = match(metric, q0, q_target, config, tol=args.tol, max_iter=args.max_iter)
    payload = {
        "p0": result.p0,
        "q_final": result.q_final,
        "residuals": result.residuals,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _cmd_oneill_check(args) -> int:
    case = submersion.catalog_case(args.case)
    rng = np.random.default_rng(args.seed)
    records = []
    worst = 0.0
    for _ in range(args.trials):
        x = submersion.random_point(case, rng)
        alpha = rng.standard_normal(case.base.dim)
        beta = rng.standard_normal(case.base.dim)
        rec = submersion.oneill_check(case, x, alpha, beta)
        worst = max(worst, abs(rec.residual))
        records.append({
            "x": rec.x,
            "y": rec.y,
            "base_numerator": rec.base_numerator,
            "total_numerator": rec.total_numerator,
            "vertical_term": rec.vertical_term,
            "residual": rec.residual,
            "base_sectional": rec.base_sectional,
            "total_sectional": rec.total_sectional,
        })
    # the bracket is always exact; "mode" stays so the output format does not change
    payload = {"case": case.name, "mode": "exact", "records": records, "max_residual": worst}
    _emit(jsonio.dumps(payload), args.out)
    return 0


def _cmd_shape_make(args) -> int:
    center = args.center if args.center is not None else np.zeros(2)
    if center.size != 2:
        raise ConfigurationError(f"circle center needs 2 coordinates, got {center.size}")
    shape = shapes.make_circle(args.samples, radius=args.radius, center=tuple(center))
    _emit(jsonio.dumps(shapes.shape_to_json(shape)), args.out)
    return 0


def _cmd_validate(args) -> int:
    results = run_suites(args.suite or None, seed=args.seed, threads=args.threads, quick=args.quick)
    _emit(render_table(results), args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="cometric",
        description="Geodesics and curvature for kernel cometrics on landmark and shape spaces.",
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="command")

    kernel = groups.add_parser("kernel", help="kernel evaluations").add_subparsers(
        dest="action", required=True, metavar="action")
    ke = kernel.add_parser("eval", parents=[common], help="evaluate a kernel at radii")
    ke.add_argument("--spec", required=True, help="kernel spec JSON file")
    ke.add_argument("--r", required=True, type=_vector, help="comma-separated radii")
    ke.set_defaults(func=_cmd_kernel_eval)

    curv = groups.add_parser("curvature", help="curvature breakdowns").add_subparsers(
        dest="action", required=True, metavar="action")
    cc = curv.add_parser("chart", parents=[common], help="chart cometric curvature")
    cc.add_argument("--cometric", required=True, help="cometric JSON file or catalog:NAME[:ARG]")
    cc.add_argument("--point", required=True, type=_vector, help="chart point, comma-separated")
    cc.add_argument("--alpha", required=True, type=_vector, help="first coform")
    cc.add_argument("--beta", required=True, type=_vector, help="second coform")
    cc.set_defaults(func=_cmd_curvature_chart)
    cl = curv.add_parser("landmark", parents=[common], help="landmark curvature")
    cl.add_argument("--spec", required=True, help="kernel spec JSON file")
    cl.add_argument("--state", required=True, help="landmark state JSON file (q and p; p is the first coform)")
    cl.add_argument("--beta", type=_vector, default=None,
                    help="second coform, flattened; default: quarter turn of p")
    cl.set_defaults(func=_cmd_curvature_landmark)
    cs = curv.add_parser("shape", parents=[common], help="discrete submanifold curvature")
    cs.add_argument("--spec", required=True, help="kernel spec JSON file")
    cs.add_argument("--shape", required=True, help="shape JSON file (momenta are the first coform)")
    cs.add_argument("--beta", type=_vector, default=None,
                    help="second coform, flattened; default: quarter turn of the momenta")
    cs.set_defaults(func=_cmd_curvature_shape)

    geo = groups.add_parser("geodesic", help="geodesic integration").add_subparsers(
        dest="action", required=True, metavar="action")
    gs = geo.add_parser("shoot", parents=[common], help="integrate a landmark geodesic to CSV")
    gs.add_argument("--spec", required=True, help="kernel spec JSON file")
    gs.add_argument("--state", required=True, help="landmark state JSON file")
    gs.add_argument("--dt", type=float, default=1e-3, help="time step (default 1e-3)")
    gs.add_argument("--T", type=float, default=1.0, help="final time (default 1)")
    gs.set_defaults(func=_cmd_geodesic_shoot)

    ma = groups.add_parser("match", parents=[common], help="recover momenta reaching a target")
    ma.add_argument("--spec", required=True, help="kernel spec JSON file")
    ma.add_argument("--source", required=True, help="landmark state JSON file (initial q)")
    ma.add_argument("--target", required=True, help="landmark state JSON file (target q)")
    ma.add_argument("--T", type=float, default=1.0, help="final time (default 1)")
    ma.add_argument("--dt", type=float, default=1e-2, help="time step (default 1e-2)")
    ma.add_argument("--tol", type=_non_negative, default=1e-10, help="endpoint residual tolerance")
    ma.add_argument("--max-iter", type=_int_at_least(1), default=50, help="Gauss-Newton iteration cap")
    ma.set_defaults(func=_cmd_match)

    oneill = groups.add_parser("oneill", help="submersion checks").add_subparsers(
        dest="action", required=True, metavar="action")
    oc = oneill.add_parser("check", parents=[common], help="submersion residuals at random points")
    oc.add_argument("--case", required=True, choices=("flat", "product", "hopf"))
    oc.add_argument("--trials", type=_int_at_least(1), default=10, help="number of random points (default 10)")
    oc.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for the random points (default 0)")
    oc.set_defaults(func=_cmd_oneill_check)

    shp = groups.add_parser("shape", help="shape generation").add_subparsers(
        dest="action", required=True, metavar="action")
    sm = shp.add_parser("make", parents=[common], help="generate a circle as a discrete shape")
    sm.add_argument("--samples", required=True, type=int, help="number of quadrature samples")
    sm.add_argument("--radius", type=float, default=1.0)
    sm.add_argument("--center", type=_vector, default=None, help="center, comma-separated (default 0,0)")
    sm.set_defaults(func=_cmd_shape_make)

    va = groups.add_parser("validate", parents=[common], help="run the validation suites")
    va.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for randomized suites (default 0)")
    va.add_argument("--threads", type=_int_at_least(1), default=1, help="worker threads (default 1)")
    va.add_argument("--quick", action="store_true", help="smaller random suites")
    va.add_argument("--suite", action="append", choices=sorted(validation.SUITES),
                    help="run only this suite (repeatable)")
    va.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
