"""Symbolic cometrics in a chart: definition objects, jets, and a catalog.

A :class:`CometricDef` stores the upper triangle of ``g^{ij}`` as expression
trees.  Its 2-jet at a point is exact, one :func:`dsl.jet` per entry —
no finite differences anywhere on this path.

The catalog bypasses the parser and builds trees directly:

* ``euclidean(d)``
* ``sphere_stereographic(d, radius)`` — round sphere in the stereographic
  chart, ``g^{ij} = ((R^2+|x|^2)^2 / (4 R^4)) delta^{ij}``, curvature ``1/R^2``
* ``hyperbolic_half_plane()`` — ``g^{ij} = x2^2 delta^{ij}`` on ``x2 > 0``,
  curvature ``-1``
* ``landmark_cometric_def(spec, p, D)`` — the landmark cometric written out
  symbolically (an independent route to the jets that ``landmark`` assembles
  from kernel derivatives)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dsl
from .dsl import Expr, Const, Var, parse
from .errors import ConfigurationError
from .jets import CometricJet, assemble_jet, require_dense_jet
from .jsonio import integer
from .kernels import KernelSpec, _bessel_const, _bessel_order_k, _bessel_poly


@dataclass(frozen=True)
class CometricDef:
    """Symmetric cometric given by expressions for the upper triangle.

    ``entries`` maps 1-based index pairs ``(i, j)`` with ``i <= j`` to
    expression trees; missing off-diagonal entries are zero, missing diagonal
    entries are an error.
    """

    dim: int
    entries: dict[tuple[int, int], Expr]
    name: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"cometric dimension must be >= 1, got {self.dim}")
        for (i, j), e in self.entries.items():
            if not (1 <= i <= j <= self.dim):
                raise ConfigurationError(f"entry index ({i},{j}) outside upper triangle of dim {self.dim}")
            mv = dsl.max_var(e)
            if mv > self.dim:
                raise ConfigurationError(f"entry ({i},{j}) uses x{mv} but the chart has dimension {self.dim}")
        for i in range(1, self.dim + 1):
            if (i, i) not in self.entries:
                raise ConfigurationError(f"diagonal entry ({i},{i}) missing")


def cometric_jet(defn: CometricDef, x: np.ndarray) -> CometricJet:
    """Exact 2-jet of the cometric at ``x`` (one :func:`dsl.jet` per entry),
    refused above :data:`jets.JET_MAX_BYTES`.  An entry whose jet overflows
    is refused by :func:`assemble_jet` as non-finite, without a warning."""
    x = np.asarray(x, dtype=float)
    d = defn.dim
    if x.shape != (d,):
        raise ConfigurationError(f"point has shape {x.shape}, chart dimension is {d}")
    require_dense_jet(d, f"chart jet at d={d}")
    ginv = np.zeros((d, d))
    dginv = np.zeros((d, d, d))
    ddginv = np.zeros((d, d, d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), e in defn.entries.items():
            v, g, h = dsl.jet(e, x)
            ginv[i - 1, j - 1] = ginv[j - 1, i - 1] = v
            dginv[:, i - 1, j - 1] = dginv[:, j - 1, i - 1] = g
            ddginv[:, :, i - 1, j - 1] = ddginv[:, :, j - 1, i - 1] = h
    return assemble_jet(x, ginv, dginv, ddginv)


# --- catalog ----------------------------------------------------------------

def euclidean(d: int) -> CometricDef:
    entries = {(i, i): Const(1.0) for i in range(1, d + 1)}
    return CometricDef(dim=d, entries=entries, name=f"euclidean({d})")


def sphere_stereographic(d: int = 2, radius: float = 1.0) -> CometricDef:
    """Round d-sphere of the given radius, stereographic chart."""
    if not math.isfinite(radius):
        raise ConfigurationError(f"sphere radius must be finite, got {radius!r}")
    if radius <= 0:
        raise ConfigurationError("sphere radius must be positive")
    r2 = radius * radius
    if not 0.0 < 4.0 * r2 * r2 < math.inf:
        raise ConfigurationError(f"sphere radius {radius!r} is out of range: 4 R^4 is not a positive finite float")
    s: Expr = Const(0.0)
    for k in range(1, d + 1):
        s = dsl.add_(s, dsl.pow_(Var(k), 2))
    conf = dsl.div_(dsl.pow_(dsl.add_(Const(r2), s), 2), Const(4.0 * r2 * r2))
    entries: dict[tuple[int, int], Expr] = {(i, i): conf for i in range(1, d + 1)}
    return CometricDef(dim=d, entries=entries, name=f"sphere_stereographic({d}, {radius})")


def hyperbolic_half_plane() -> CometricDef:
    e = dsl.pow_(Var(2), 2)
    return CometricDef(dim=2, entries={(1, 1): e, (2, 2): e}, name="hyperbolic_half_plane")


def _kernel_expr(spec: KernelSpec, vars_a: list[int], vars_b: list[int]) -> Expr:
    """K(q_a - q_b) as an expression tree in the flattened chart variables."""
    rho2: Expr = Const(0.0)
    for va, vb in zip(vars_a, vars_b):
        rho2 = dsl.add_(rho2, dsl.pow_(dsl.sub_(Var(va), Var(vb)), 2))
    k = _bessel_order_k(spec)
    t = dsl.div_(dsl.call_("sqrt", rho2), Const(math.sqrt(spec.A)))
    coeffs = _bessel_poly(k)
    poly: Expr = Const(0.0)
    for jj, cf in enumerate(coeffs):  # cf * t^(k - jj)
        poly = dsl.add_(poly, dsl.mul_(Const(float(cf)), dsl.pow_(t, k - jj)))
    return dsl.mul_(Const(_bessel_const(spec)), dsl.mul_(dsl.call_("exp", dsl.neg_(t)), poly))


def landmark_cometric_def(spec: KernelSpec, p: int, D: int) -> CometricDef:
    """The landmark cometric ``g^{(a,i)(b,j)} = K(q_a-q_b) delta^{ij}`` written
    symbolically over the flattened variables ``x_{(a-1)D+i}``.

    Only valid away from coincident landmarks (the radial ``sqrt`` kink).
    Exists purely as an independent cross-check of the kernel-jet assembly.
    """
    if p < 1 or D < 1:
        raise ConfigurationError("landmark chart needs p >= 1, D >= 1")
    spec.require_curvature_grade()
    k0 = _bessel_const(spec) * float(_bessel_poly(_bessel_order_k(spec))[-1])
    entries: dict[tuple[int, int], Expr] = {}
    for a in range(p):
        for i in range(D):
            ai = a * D + i + 1
            entries[(ai, ai)] = Const(k0)
            for b in range(a + 1, p):
                bj = b * D + i + 1
                vars_a = [a * D + m + 1 for m in range(D)]
                vars_b = [b * D + m + 1 for m in range(D)]
                key = (min(ai, bj), max(ai, bj))
                entries[key] = _kernel_expr(spec, vars_a, vars_b)
    return CometricDef(dim=p * D, entries=entries, name=f"landmark({spec.family}, p={p}, D={D})")


# --- JSON form ---------------------------------------------------------------

def cometric_from_json(obj: dict) -> CometricDef:
    """Read ``{"dim": d, "entries": {"i,j": "expr", ...}}``.

    Lower-triangle keys are mirrored; giving both ``i,j`` and ``j,i`` with
    different expressions is an error, as is a missing diagonal entry.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ConfigurationError("cometric JSON needs 'dim' and 'entries'")
    dim = integer(obj["dim"], "cometric dimension")
    if dim < 1:
        raise ConfigurationError(f"bad cometric dimension {dim!r}")
    raw = obj["entries"]
    if not isinstance(raw, dict):
        raise ConfigurationError("'entries' must be an object")
    entries: dict[tuple[int, int], Expr] = {}
    sources: dict[tuple[int, int], str] = {}
    for key, text in raw.items():
        parts = key.split(",")
        try:
            i, j = (int(q.strip()) for q in parts)
        except ValueError as exc:
            raise ConfigurationError(f"bad entry key {key!r} (want 'i,j')") from exc
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ConfigurationError(f"entry key {key!r} outside 1..{dim}")
        if not isinstance(text, str):
            raise ConfigurationError(f"entry {key!r} must be an expression string")
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) in sources and sources[(lo, hi)] != text:
            raise ConfigurationError(f"entries ({lo},{hi}) and ({hi},{lo}) disagree")
        sources[(lo, hi)] = text
        entries[(lo, hi)] = parse(text)
    return CometricDef(dim=dim, entries=entries, name=str(obj.get("name", "")))


def cometric_to_json(defn: CometricDef) -> dict:
    out: dict = {"dim": defn.dim, "entries": {}}
    if defn.name:
        out["name"] = defn.name
    for (i, j) in sorted(defn.entries):
        out["entries"][f"{i},{j}"] = dsl.to_string(defn.entries[(i, j)])
    return out


CATALOG_NAMES = ("euclidean", "sphere", "hyperbolic")
_CATALOG_FORMS = "know euclidean[:d], sphere[:radius], hyperbolic"


def catalog_cometric(name: str) -> CometricDef:
    """Resolve CLI-style catalog names: ``euclidean:d``, ``sphere``,
    ``sphere:radius``, ``hyperbolic``; a further argument is refused."""
    head, *args = name.split(":")
    if head not in CATALOG_NAMES:
        raise ConfigurationError(f"unknown catalog cometric {name!r} ({_CATALOG_FORMS})")
    if len(args) > (head != "hyperbolic"):
        raise ConfigurationError(f"too many catalog arguments in {name!r} ({_CATALOG_FORMS})")
    try:
        if head == "euclidean":
            return euclidean(int(args[0]) if args else 2)
        if head == "sphere":
            return sphere_stereographic(2, float(args[0]) if args else 1.0)
    except ValueError as exc:
        raise ConfigurationError(f"bad catalog argument in {name!r}: {exc}") from exc
    return hyperbolic_half_plane()
