"""Hamiltonian integration, shooting and endpoint matching.

Fixed-step classical RK4 over stacked states ``y = (q, p)`` of shape
``(2, *configuration)`` — ``y[0]`` holds positions or samples, ``y[1]`` the
momenta — with per-step conservation monitoring: Hamiltonian, linear
momentum, the antisymmetric angular-momentum components, and — for shapes —
the normality defect of the transported momenta together with a
frame-rederivation quality indicator.

All routes step through one checked loop, ``_states``: it refuses an
initial state beyond ``MAX_NORM`` once, and a later failure raises
``DivergenceError`` at the time of the last state that passed.  Shot endpoints
are differentiated by central differences in ``_endpoint_jacobian``, for
``shoot`` and for ``match`` (which never calls ``shoot``): Gauss-Newton with
Levenberg damping.  The Jacobian's 2·p·D shots step in lockstep as one
batched state through the same loop (the landmark rhs takes leading batch
axes), in chunks of columns under the byte budget ``SHOT_BATCH_BYTES``; each
column keeps the bits of its shots stepped alone.  ``match`` never raises on
exhaustion or on a diverging trial step (rejected like one that does not
lower the residual): it reports ``converged=False`` with the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .jets import require_dense
from .landmark import LandmarkMetric, _pairing, geodesic_rhs
from .kernels import KernelSpec
from . import shapes as shapes_mod


MAX_STEPS = 10**7  # 2 500 times the longest integration of any suite (conservation, 4 000 steps)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigurationError(f"dt must be positive, got {self.dt!r}")
        if self.t_final <= 0 or not math.isfinite(self.t_final):
            raise ConfigurationError(f"t_final must be positive, got {self.t_final!r}")
        ratio = self.t_final / self.dt
        if not ratio < MAX_STEPS + 0.5:  # before round(), which refuses an infinite ratio
            raise ConfigurationError(f"{ratio:.4g} steps (t_final / dt) exceed the limit of {MAX_STEPS:.0e}")
        n = round(ratio)
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
    """Autonomous system on stacked states of ``shape`` ``(2, *configuration)``.
    ``rhs_observe(y)`` is ``rhs(y)`` together with the observation of ``y``
    (H of the momenta on the rhs's velocity, momenta, frame checks), from one pair block."""

    rhs: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, ...]
    rhs_observe: Callable[[np.ndarray], tuple[np.ndarray, dict]]


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
        qdot, pdot = geodesic_rhs(metric, y[0], y[1])
        return np.array((qdot, pdot))  # not np.stack, which costs about four times as much per call

    def rhs_observe(y: np.ndarray) -> tuple[np.ndarray, dict]:
        qdot, pdot = geodesic_rhs(metric, y[0], y[1])
        return np.array((qdot, pdot)), {"H": 0.5 * _pairing(y[1], qdot, None), "linear": y[1].sum(axis=0),
                                        "angular": _angular_components(y[0], y[1], pairs)}

    return HamiltonianSystem(rhs=rhs, shape=(2, p, d), rhs_observe=rhs_observe)


def shape_system(spec: KernelSpec, shape0: shapes_mod.DiscreteSubmanifold) -> HamiltonianSystem:
    """Horizontal shape geodesics; weights stay frozen at their initial values,
    frames are re-derived from the moving samples for monitoring."""
    pairs = np.triu_indices(shape0.n, 1)
    w = shape0.w.copy()

    def unpack(x: np.ndarray) -> shapes_mod.DiscreteSubmanifold:
        # distinctness is tested once, by the pair block of geodesic_rhs
        return shapes_mod._unchecked(x, w, shape0.tangents, shape0.projectors)

    def rhs(y: np.ndarray) -> np.ndarray:
        xdot, adot = shapes_mod.geodesic_rhs(spec, unpack(y[0]), y[1])
        return np.array((xdot, adot))

    def rhs_observe(y: np.ndarray) -> tuple[np.ndarray, dict]:
        shp, a = unpack(y[0]), y[1]
        xdot, adot = shapes_mod.geodesic_rhs(spec, shp, a)
        seen = {"H": 0.5 * _pairing(a, xdot, w), "linear": np.einsum("s,si->i", w, a),
                "angular": _angular_components(shp.x, a, pairs, w)}
        if shape0.m > 0:
            fresh, quality = shapes_mod.rederive_frames(shp)
            seen["normality"] = shapes_mod.normality_defect(fresh, a)
            seen["frame_quality"] = quality
        return np.array((xdot, adot)), seen

    return HamiltonianSystem(rhs=rhs, shape=(2, *shape0.x.shape), rhs_observe=rhs_observe)


def _rk4_step(rhs: Callable, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


MAX_NORM = 1e8  # a state entry beyond this is a blow-up


def _check_state(y: np.ndarray, t: float) -> None:
    if not np.abs(y).max() <= MAX_NORM:  # one reduction; NaN fails it too
        raise DivergenceError("trajectory blew up", t)


def _check_start(y0: np.ndarray) -> None:
    """Refuse an initial state that is not finite, or beyond ``MAX_NORM``,
    before any stage sees it: products of such entries overflow."""
    top = float(np.abs(y0).max())
    if not math.isfinite(top):
        raise ConfigurationError("initial state contains non-finite entries")
    if top > MAX_NORM:
        raise DivergenceError(f"initial state entry {top:.3e} exceeds the blow-up bound {MAX_NORM:.0e}", 0.0)


def _states(rhs: Callable, y0: np.ndarray, config: IntegratorConfig,
            first: Callable) -> Iterator[np.ndarray]:
    """The one stepping loop: checks ``y0`` once, then yields each state after
    it before stepping on.  A failed check reports ``k * dt``, the time of the
    last state that passed.  Each step takes its first stage from ``first``.
    ``y0`` may stack a batch of states on the axis after the first; the check
    of each step then covers the whole batch."""
    _check_start(y0)
    y = y0
    for k in range(config.steps):
        y = _rk4_step(rhs, y, config.dt, first(y))
        _check_state(y, k * config.dt)
        yield y


def _endpoint(rhs: Callable, y0: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    for y in _states(rhs, y0, config, rhs):
        pass
    return y


def integrate(system: HamiltonianSystem, y0: np.ndarray, config: IntegratorConfig
              ) -> tuple[np.ndarray, ConservationReport]:
    """Propagate and record every step.  Returns the states, shape
    ``(steps + 1, *system.shape)``, and the report, whose ``t`` is the time grid.
    Every state is observed by ``system.rhs_observe``: each but the last by the
    first stage of the step that leaves it, the last by one more call whose
    right-hand side is discarded, so ``4 steps + 1`` pair blocks in all."""
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != system.shape:
        raise ConfigurationError(f"state must have shape {system.shape}, got {y0.shape}")
    require_dense(8 * (config.steps + 1) * math.prod(system.shape),
                  f"trajectory of {config.steps + 1} states of shape {system.shape}")
    ys = np.empty((config.steps + 1, *system.shape))
    ys[0] = y0
    obs: list[dict] = []

    def first(y: np.ndarray) -> np.ndarray:
        k1, seen = system.rhs_observe(y)
        obs.append(seen)
        return k1

    for k, y in enumerate(_states(system.rhs, y0, config, first), 1):
        ys[k] = y
    obs.append(system.rhs_observe(ys[-1])[1])
    report = ConservationReport(
        t=np.linspace(0.0, config.t_final, config.steps + 1),
        hamiltonian=np.array([o["H"] for o in obs]),
        linear=np.array([o["linear"] for o in obs]),
        angular=np.array([o["angular"] for o in obs]),
        normality=np.array([o["normality"] for o in obs]) if "normality" in obs[0] else None,
        frame_quality=np.array([o["frame_quality"] for o in obs]) if "frame_quality" in obs[0] else None,
    )
    return ys, report


# Byte budget of the pair storage of one batch of Jacobian shots.  A shot's
# right-hand side holds about D + 8 arrays of p^2 doubles at once while its
# pairs fit in one tile (``kernels.TILE_BYTES``), and a tile's rows of them
# above that.
SHOT_BATCH_BYTES = 2**26


def _endpoint_jacobian(rhs: Callable, y0: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    """``d(flat q_T)/d(flat p0)`` at the stacked state ``y0`` (2, p, D) by
    central differences with step ``1e-6 * (1 + max|p0|)``, column ``j`` from
    the shots with ``y0[1].flat[j]`` bumped up and down.

    The shots of a run of columns step in lockstep as one batch, a state of
    shape (2, 2 * columns, p, D) for ``rhs`` (which must take batches), with
    as many columns as keep the batch's pair storage within
    :data:`SHOT_BATCH_BYTES`; batches go in column order.  Each shot's
    arithmetic is that of a shot alone, so every column is bit for bit the
    one its two shots give alone.  A collision in a shot raises that shot's
    own message; the ``DivergenceError`` of a batch reports the first step at
    which any of its shots fails, which need not be the first failing
    column's."""
    n = y0[1].size
    delta = 1e-6 * (1.0 + float(np.abs(y0[1]).max()))
    p, d = y0.shape[-2:]
    width = max(1, SHOT_BATCH_BYTES // (2 * 8 * p * p * (d + 8)))
    sens = np.empty((n, n))  # C-ordered: match's jac.T @ jac takes its BLAS path from the strides
    for j0 in range(0, n, width):
        cols = np.arange(j0, min(j0 + width, n))
        c = cols.size
        shots = np.repeat(y0[:, None], 2 * c, axis=1)
        bumped = shots[1].reshape(2, c, n)  # [0]: plus shots, [1]: minus shots, one column each
        bumped[0, range(c), cols] += delta
        bumped[1, range(c), cols] -= delta
        end = _endpoint(rhs, shots, config)[0]
        sens[:, j0:j0 + c] = (end[:c] - end[c:]).reshape(c, n).T / (2.0 * delta)
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
    q0, p0 = np.asarray(q0, dtype=float), np.asarray(p0, dtype=float)
    if p0.shape != q0.shape:
        raise ConfigurationError(f"momenta shape {p0.shape} does not match positions {q0.shape}")
    rhs = landmark_system(metric).rhs
    y0 = np.array((q0, p0))
    return ShootResult(
        q_final=_endpoint(rhs, y0, config)[0],
        sensitivity=_endpoint_jacobian(rhs, y0, config),
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
    rhs = landmark_system(metric).rhs
    q0 = np.asarray(q0, dtype=float)
    q_target = np.asarray(q_target, dtype=float)
    if q_target.shape != q0.shape:
        raise ConfigurationError(f"target shape {q_target.shape} does not match source {q0.shape}")

    def endpoint(mom: np.ndarray) -> np.ndarray:
        return _endpoint(rhs, np.array((q0, mom)), config)[0]

    mom = np.zeros_like(q0)
    q_end = endpoint(mom)
    residuals = [float(np.linalg.norm(q_end - q_target))]
    lam = 1e-3
    converged = residuals[-1] <= tol
    iterations = 0

    for _ in range(max_iter):
        if converged:
            break
        iterations += 1
        jac = _endpoint_jacobian(rhs, np.array((q0, mom)), config)
        grad = jac.T @ (q_end - q_target).reshape(-1)
        hess = jac.T @ jac
        for _ in range(12):
            try:
                dp = np.linalg.solve(hess + lam * np.eye(mom.size), -grad).reshape(mom.shape)
                q_try = endpoint(mom + dp)
            except (np.linalg.LinAlgError, DivergenceError):
                lam *= 10.0
                continue
            residual = float(np.linalg.norm(q_try - q_target))
            if residual < residuals[-1]:
                mom, q_end = mom + dp, q_try
                residuals.append(residual)
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        else:  # no trial lowered the residual
            break
        converged = residuals[-1] <= tol

    return MatchResult(
        p0=mom,
        q_final=q_end,
        residuals=residuals,
        iterations=iterations,
        converged=bool(converged),
    )
