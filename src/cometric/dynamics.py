"""Hamiltonian integration, shooting and endpoint matching.

Fixed-step integrators (classical RK4 by default, an implicit midpoint rule
for cross-checks) over flattened states, with per-step conservation
monitoring: Hamiltonian, linear momentum, the antisymmetric angular-momentum
components, and — for shapes — the normality defect of the transported
momenta together with a frame-rederivation quality indicator.

All routes step through one checked loop, ``_states``; a failure raises
``DivergenceError`` at the time of the last state that passed.  Shot endpoints
are differentiated by central differences in ``_endpoint_jacobian``, for
``shoot`` and for ``match`` (which never calls ``shoot``): Gauss-Newton with
Levenberg damping.  ``match`` never raises on exhaustion or on a diverging
trial step (rejected like one that does not lower the residual): it reports
``converged=False`` with the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConditioningError, ConfigurationError, DivergenceError
from .landmark import LandmarkMetric, geodesic_rhs, hamiltonian
from .kernels import KernelSpec
from . import shapes as shapes_mod


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    method: str = "rk4"

    def __post_init__(self) -> None:
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if self.t_final <= 0 or not math.isfinite(self.t_final):
            raise ConfigurationError(f"t_final must be positive, got {self.t_final!r}")
        if self.method not in ("rk4", "implicit_midpoint"):
            raise ConfigurationError(f"unknown method {self.method!r} (want 'rk4' or 'implicit_midpoint')")
        n = round(self.t_final / self.dt)
        if n < 1 or abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ConfigurationError(f"t_final={self.t_final} is not an integer multiple of dt={self.dt}")

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass(frozen=True)
class ConservationReport:
    """Time series of the monitored quantities along a trajectory."""

    t: np.ndarray             # (k,)
    hamiltonian: np.ndarray   # (k,)
    linear: np.ndarray        # (k, D)
    angular: np.ndarray       # (k, D(D-1)/2)
    normality: np.ndarray | None = None
    frame_quality: np.ndarray | None = None

    @property
    def energy_drift(self) -> float:
        h0 = self.hamiltonian[0]
        return float(np.abs(self.hamiltonian - h0).max() / max(abs(h0), 1e-300))

    @property
    def linear_drift(self) -> float:
        return float(np.abs(self.linear - self.linear[0]).max())

    @property
    def angular_drift(self) -> float:
        if self.angular.shape[1] == 0:
            return 0.0
        return float(np.abs(self.angular - self.angular[0]).max())

    @property
    def normality_max(self) -> float:
        return 0.0 if self.normality is None else float(self.normality.max())


@dataclass(frozen=True)
class HamiltonianSystem:
    """Flattened autonomous system with an observation hook."""

    rhs: Callable[[np.ndarray], np.ndarray]
    observe: Callable[[np.ndarray], dict]
    size: int


def _angular_components(q: np.ndarray, p: np.ndarray, pairs: tuple, w: np.ndarray | None = None) -> np.ndarray:
    """All ``sum_a w_a (q_a^i p_a^j - q_a^j p_a^i)`` for the i < j in ``pairs``."""
    if w is None:
        mom = np.einsum("ai,aj->ij", q, p)
    else:
        mom = np.einsum("a,ai,aj->ij", w, q, p)
    return mom[pairs] - mom.T[pairs]


def landmark_system(metric: LandmarkMetric) -> HamiltonianSystem:
    p, d = metric.p, metric.D
    pairs = np.triu_indices(d, 1)  # once per system: it costs ten times the gather

    def rhs(y: np.ndarray) -> np.ndarray:
        q = y[: p * d].reshape(p, d)
        mom = y[p * d:].reshape(p, d)
        qdot, pdot = geodesic_rhs(metric, q, mom)
        return np.concatenate([qdot.reshape(-1), pdot.reshape(-1)])

    def observe(y: np.ndarray) -> dict:
        q = y[: p * d].reshape(p, d)
        mom = y[p * d:].reshape(p, d)
        return {
            "H": hamiltonian(metric, q, mom),
            "linear": mom.sum(axis=0),
            "angular": _angular_components(q, mom, pairs),
        }

    return HamiltonianSystem(rhs=rhs, observe=observe, size=2 * p * d)


def shape_system(spec: KernelSpec, shape0: shapes_mod.DiscreteSubmanifold) -> HamiltonianSystem:
    """Horizontal shape geodesics; weights stay frozen at their initial values,
    frames are re-derived from the moving samples for monitoring."""
    s, n = shape0.x.shape
    pairs = np.triu_indices(n, 1)
    w = shape0.w.copy()

    def unpack(y: np.ndarray) -> shapes_mod.DiscreteSubmanifold:
        # distinctness is tested once, by the pair block of geodesic_rhs or induced_pairing
        return shapes_mod._unchecked(y[: s * n].reshape(s, n), w, shape0.tangents, shape0.projectors)

    def rhs(y: np.ndarray) -> np.ndarray:
        shp = unpack(y)
        a = y[s * n:].reshape(s, n)
        xdot, adot = shapes_mod.geodesic_rhs(spec, shp, a)
        return np.concatenate([xdot.reshape(-1), adot.reshape(-1)])

    def observe(y: np.ndarray) -> dict:
        shp = unpack(y)
        a = y[s * n:].reshape(s, n)
        out = {
            "H": 0.5 * shapes_mod.induced_pairing(spec, shp, a, a),
            "linear": np.einsum("s,si->i", w, a),
            "angular": _angular_components(shp.x, a, pairs, w),
        }
        if shape0.m > 0:
            fresh, quality = shapes_mod.rederive_frames(shp)
            out["normality"] = shapes_mod.normality_defect(fresh, a)
            out["frame_quality"] = quality
        return out

    return HamiltonianSystem(rhs=rhs, observe=observe, size=2 * s * n)


def _rk4_step(rhs: Callable, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _implicit_midpoint_step(rhs: Callable, y: np.ndarray, dt: float) -> np.ndarray:
    z = y + dt * rhs(y)  # explicit Euler predictor
    tol = 1e-14 * (1.0 + float(np.abs(y).max()))
    for _ in range(100):
        z_new = y + dt * rhs(0.5 * (y + z))
        delta = float(np.abs(z_new - z).max())
        z = z_new
        if delta <= tol:
            return z
    raise ConditioningError(f"implicit midpoint fixed point did not converge (last delta {delta:.3e})")


MAX_NORM = 1e8  # a state entry beyond this is a blow-up


def _check_state(y: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(y)) or float(np.abs(y).max()) > MAX_NORM:
        raise DivergenceError("trajectory blew up", t)


def _states(rhs: Callable, y0: np.ndarray, config: IntegratorConfig) -> Iterator[np.ndarray]:
    """The one stepping loop: yields each state after ``y0`` before stepping on.
    A failed check reports ``k * dt``, the time of the last state that passed."""
    step = _rk4_step if config.method == "rk4" else _implicit_midpoint_step
    y = y0
    for k in range(config.steps):
        y = step(rhs, y, config.dt)
        _check_state(y, k * config.dt)
        yield y


def _endpoint(rhs: Callable, y0: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    for y in _states(rhs, y0, config):
        pass
    return y


def integrate(system: HamiltonianSystem, y0: np.ndarray, config: IntegratorConfig
              ) -> tuple[np.ndarray, np.ndarray, ConservationReport]:
    """Propagate and record every step.  Returns (times, states, report)."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (system.size,):
        raise ConfigurationError(f"state must have shape ({system.size},), got {y0.shape}")
    ts = np.linspace(0.0, config.t_final, config.steps + 1)
    ys = np.empty((config.steps + 1, system.size))
    ys[0] = y0
    obs = [system.observe(y0)]
    for k, y in enumerate(_states(system.rhs, y0, config), 1):
        ys[k] = y
        obs.append(system.observe(y))
    report = ConservationReport(
        t=ts,
        hamiltonian=np.array([o["H"] for o in obs]),
        linear=np.array([o["linear"] for o in obs]),
        angular=np.array([o["angular"] for o in obs]),
        normality=np.array([o["normality"] for o in obs]) if "normality" in obs[0] else None,
        frame_quality=np.array([o["frame_quality"] for o in obs]) if "frame_quality" in obs[0] else None,
    )
    return ts, ys, report


def _endpoint_jacobian(rhs: Callable, q: np.ndarray, p: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    """``d(q_T)/d(p0)`` of flat ``q``, ``p`` by central differences with step
    ``1e-6 * (1 + max|p0|)``, column ``j`` from shots with ``p[j]`` bumped."""
    nq = q.size
    delta = 1e-6 * (1.0 + float(np.abs(p).max()))
    sens = np.empty((nq, nq))
    for j, bump in enumerate(delta * np.eye(nq)):
        yp = _endpoint(rhs, np.concatenate([q, p + bump]), config)
        ym = _endpoint(rhs, np.concatenate([q, p - bump]), config)
        sens[:, j] = (yp[:nq] - ym[:nq]) / (2.0 * delta)
    return sens


@dataclass(frozen=True)
class ShootResult:
    q_final: np.ndarray
    sensitivity: np.ndarray  # d(flat q_final) / d(flat p0), shape (pD, pD)


def shoot(metric: LandmarkMetric, q0: np.ndarray, p0: np.ndarray, config: IntegratorConfig) -> ShootResult:
    """The endpoint map: the positions reached from ``(q0, p0)`` at ``t_final``,
    and their derivative in the initial momenta by central differences (step
    ``1e-6 * (1 + max|p0|)``).  Nothing is monitored; ``integrate`` records a
    trajectory."""
    rhs = landmark_system(metric).rhs
    q = np.asarray(q0, dtype=float).reshape(-1)
    p = np.asarray(p0, dtype=float).reshape(-1)
    q_final = _endpoint(rhs, np.concatenate([q, p]), config)[: q.size]
    return ShootResult(
        q_final=q_final.reshape(metric.p, metric.D),
        sensitivity=_endpoint_jacobian(rhs, q, p, config),
    )


@dataclass(frozen=True)
class MatchResult:
    p0: np.ndarray
    q_final: np.ndarray
    residuals: list[float]     # ||q_T - target||_2 per iteration (incl. start)
    iterations: int
    converged: bool


def match(
    metric: LandmarkMetric,
    q0: np.ndarray,
    q_target: np.ndarray,
    config: IntegratorConfig,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> MatchResult:
    """Find initial momenta shooting ``q0`` onto ``q_target`` at ``t_final``.

    Gauss-Newton on the endpoint residual with Levenberg damping, starting
    from zero momenta.
    """
    system = landmark_system(metric)
    q0 = np.asarray(q0, dtype=float)
    q_target = np.asarray(q_target, dtype=float)
    if q_target.shape != q0.shape:
        raise ConfigurationError(f"target shape {q_target.shape} does not match source {q0.shape}")
    nq = metric.p * metric.D
    target = q_target.reshape(-1)

    def endpoint(p_flat: np.ndarray) -> np.ndarray:
        return _endpoint(system.rhs, np.concatenate([q0.reshape(-1), p_flat]), config)[:nq]

    p_flat = np.zeros(nq)
    q_end = endpoint(p_flat)
    residuals = [float(np.linalg.norm(q_end - target))]
    lam = 1e-3
    converged = residuals[-1] <= tol
    iterations = 0

    for _ in range(max_iter):
        if converged:
            break
        iterations += 1
        jac = _endpoint_jacobian(system.rhs, q0.reshape(-1), p_flat, config)
        grad = jac.T @ (q_end - target)
        hess = jac.T @ jac
        for _ in range(12):
            try:
                dp = np.linalg.solve(hess + lam * np.eye(nq), -grad)
                q_try = endpoint(p_flat + dp)
            except (np.linalg.LinAlgError, DivergenceError):
                lam *= 10.0
                continue
            residual = float(np.linalg.norm(q_try - target))
            if residual < residuals[-1]:
                p_flat, q_end = p_flat + dp, q_try
                residuals.append(residual)
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        else:  # no trial lowered the residual
            break
        converged = residuals[-1] <= tol

    return MatchResult(
        p0=p_flat.reshape(metric.p, metric.D),
        q_final=q_end.reshape(metric.p, metric.D),
        residuals=residuals,
        iterations=iterations,
        converged=bool(converged),
    )
