"""The guarded kernel-Gram solve: blocked Cholesky, condition estimate and
solve, against the eigenvalue rule it replaced.

``_eigvalsh_refuses`` is the earlier body of ``kernels.gram_solve``'s
refusal, kept verbatim as the reference: the 2-norm condition number
``max|eig| / min|eig|`` of the symmetric Gram against ``GRAM_COND_LIMIT``.
The Cholesky rule must refuse at least what it refused.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cometric import kernels, landmark, shapes
from cometric.errors import ConditioningError
from cometric.kernels import GRAM_COND_LIMIT, KernelSpec, gram_solve
from cometric.landmark import LandmarkMetric

SRC = Path(__file__).resolve().parent.parent / "src"


def _eigvalsh_refuses(gram):
    lam = np.abs(np.linalg.eigvalsh(gram))
    cond = float(lam.max() / lam.min()) if lam.min() > 0.0 else np.inf
    return not np.isfinite(cond) or cond > GRAM_COND_LIMIT


def test_gram_limit_is_reexported_by_landmark():
    assert GRAM_COND_LIMIT == 1e12 and landmark.GRAM_COND_LIMIT is GRAM_COND_LIMIT


def test_solves_and_consumes_the_gram():
    """The solution agrees with a dense solve, and the Gram's storage holds
    its Cholesky factor afterwards: it was factored in place."""
    rng = np.random.default_rng(3)
    q = rng.standard_normal((30, 3))
    gram = kernels.gram_matrix(KernelSpec("sobolev_bessel", n=3, l=3), q)
    orig, rhs = gram.copy(), rng.standard_normal((30, 3))
    x = gram_solve(gram, rhs, "kernel Gram")
    assert np.allclose(x, np.linalg.solve(orig, rhs), rtol=1e-9, atol=1e-12)
    assert np.allclose(np.triu(gram), np.linalg.cholesky(orig).T, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("what", ["kernel Gram", "normal-bundle Gram"])
def test_not_positive_definite_is_refused(what):
    """An indefinite matrix fails the factorisation, before any estimate."""
    with pytest.raises(ConditioningError,
                       match=rf"^{what} matrix condition number exceeds 1e\+12: not positive definite$"):
        gram_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), what)


def test_estimated_condition_number_is_refused():
    gram = np.diag([1.0, 1e-13])
    with pytest.raises(ConditioningError, match=r"^kernel Gram matrix condition number 1\.000e\+13 "
                                                r"exceeds 1e\+12 \(1-norm estimate\)$"):
        gram_solve(gram, np.ones(2), "kernel Gram")


def _recorded(module, call):
    """Run ``call`` with ``module.gram_solve`` keeping a copy of each matrix
    it is handed; returns the copies and whether the call was refused."""
    seen = []

    def record(gram, rhs, what):
        seen.append(gram.copy())
        return gram_solve(gram, rhs, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "gram_solve", record)
        try:
            call()
        except ConditioningError:
            return seen, True
    return seen, False


def _near_coincident_circle(p, sep):
    """``make_circle(p)`` with sample 1 moved ``sep`` along sample 0's
    tangent, sample 0's frame copied to it."""
    circle = shapes.make_circle(p)
    x, t, pr = circle.x.copy(), circle.tangents.copy(), circle.projectors.copy()
    x[1] = x[0] + sep * t[0, 0]
    t[1], pr[1] = t[0], pr[0]
    return shapes.DiscreteSubmanifold(x=x, w=circle.w, tangents=t, projectors=pr)


# (n, l) and route: the m = 1 circle lies in R^2, so it needs n = 3.
CASES = [((n, l), route) for n, l in [(1, 2), (3, 3), (3, 8)] for route in ("landmark", "m0", "m1")
         if n > 1 or route != "m1"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=st.sampled_from(CASES), p=st.integers(2, 40), dim=st.integers(1, 3),
       log_sep=st.floats(-9.0, -1.0), seed=st.integers(0, 2**16))
def test_cholesky_rule_refuses_what_the_eigenvalue_rule_refused(case, p, dim, log_sep, seed):
    """Near-coincident configurations (one pair ``10**log_sep`` apart, the
    rest uniform in the unit cube of ``R^D``, ``D <= n``) on the landmark
    route and both shape branches: whatever the eigenvalue rule refuses is
    refused, and an accepted solve is backward stable."""
    (n, l), route = case
    spec = KernelSpec("sobolev_bessel", n=n, l=l)
    rng = np.random.default_rng(seed)
    sep = 10.0**log_sep
    if route == "m1":
        shape = _near_coincident_circle(max(p, 3), sep)
    else:
        q = rng.uniform(0.0, 1.0, (p, min(dim, n)))
        step = rng.standard_normal(q.shape[1])
        q[1] = q[0] + sep * step / np.linalg.norm(step)
        shape = shapes.landmark_shape(q)
    a = shapes.project_normal(shape, rng.standard_normal(shape.x.shape))
    b = shapes.project_normal(shape, rng.standard_normal(shape.x.shape))
    if route == "landmark":
        metric = LandmarkMetric(spec, *shape.x.shape)
        seen, refused = _recorded(landmark, lambda: landmark.curvature(metric, shape.x, a, b))
    else:
        seen, refused = _recorded(shapes, lambda: shapes.curvature_terms(spec, shape, a, b))
    if not seen:  # the bracket field vanishes, as it does for two points: nothing to solve
        return
    if _eigvalsh_refuses(seen[0]):
        assert refused
    elif not refused:
        gram = seen[0]
        rhs = np.random.default_rng(seed + 1).standard_normal(len(gram))
        x = gram_solve(gram.copy(), rhs, "kernel Gram")
        assert np.linalg.norm(gram @ x - rhs) <= 1e-12 * np.linalg.norm(gram, 1) * np.linalg.norm(x)


def _jittered_grid_gram(p, seed=0):
    """The kernel Gram (n = 3, l = 3) of ``p`` points of a grid of spacing 1.5
    in R^3, each moved by up to 0.2: condition number below 10."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(p ** (1 / 3)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)[:p]
    q = 1.5 * grid + rng.uniform(-0.2, 0.2, (p, 3))
    return kernels.gram_matrix(KernelSpec("sobolev_bessel", n=3, l=3), q)


@pytest.mark.parametrize("p", [1, 63, 64, 65, 128, 129, 400])
def test_blocked_factor_and_solve(p):
    """On either side of each block edge, the factor left in the Gram's upper
    triangle is ``np.linalg.cholesky``'s to 1e-13 relative, and the solve meets
    the sweep's backward-stability bound."""
    gram = _jittered_grid_gram(p)
    orig, rhs = gram.copy(), np.random.default_rng(p).standard_normal((p, 2))
    x = gram_solve(gram, rhs, "kernel Gram")
    want = np.linalg.cholesky(orig).T
    assert np.abs(np.triu(gram) - want).max() <= 1e-13 * np.abs(want).max()
    assert np.linalg.norm(orig @ x - rhs) <= 1e-12 * np.linalg.norm(orig, 1) * np.linalg.norm(x)


def test_failure_in_a_later_block_is_refused():
    """A Gram whose first block is positive definite and whose second is not
    is refused with the same message, after the first block was factored."""
    gram = _jittered_grid_gram(100)
    gram[90, 90] = -1.0
    orig = gram.copy()
    with pytest.raises(ConditioningError,
                       match=r"^kernel Gram matrix condition number exceeds 1e\+12: not positive definite$"):
        gram_solve(gram, np.ones(100), "kernel Gram")
    first = np.linalg.cholesky(orig[:64, :64]).T
    assert np.abs(np.triu(gram[:64, :64]) - first).max() <= 1e-13 * np.abs(first).max()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p=st.integers(1, 200), dim=st.integers(1, 3), spread=st.floats(0.05, 2.0), seed=st.integers(0, 2**16))
def test_inverse_norm_estimate_is_a_lower_bound(p, dim, spread, seed):
    """On kernel Grams (n = 3, l = 3) of ``p`` uniform points in a cube of side
    ``spread * p^(1/dim)``, the estimate never exceeds ``|K^-1|_1`` from
    ``np.linalg.inv`` (up to the rounding of both, ``1e-14 cond``) and is
    within a factor 3 of it (worst seen over this sweep: 1.62)."""
    q = np.random.default_rng(seed).uniform(0.0, spread * p ** (1 / dim), (p, dim))
    gram = kernels.gram_matrix(KernelSpec("sobolev_bessel", n=3, l=3), q)
    exact = np.abs(np.linalg.inv(gram)).sum(axis=0).max()
    cond = np.linalg.norm(gram, 1) * exact
    if cond > GRAM_COND_LIMIT:
        return
    u = gram.copy()
    est = kernels._inverse_norm_estimate(u, kernels._cholesky_in_place(u, "kernel Gram"))
    assert exact / 3.0 <= est <= exact * (1.0 + 1e-14 * cond)


FOOTPRINT = """
import json, sys
from pathlib import Path

from cometric import cli, kernels, validation

tmp = Path(sys.argv[1])
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
spec, out = str(tmp / "spec.json"), str(tmp / "out.json")
seen = {"import": scipy()}
assert 0 == cli.main(["kernel", "eval", "--spec", spec, "--r", "0,0.5", "--out", out])
seen["kernel eval"] = scipy()
kernels.kernel_fourier_oracle(kernels.KernelSpec("sobolev_bessel", n=3, l=3), 0.5, quad_points=1000)
seen["oracle"] = scipy()
assert 0 == cli.main(["curvature", "landmark", "--spec", spec, "--state", str(tmp / "state.json"), "--out", out])
seen["curvature landmark"] = scipy()
assert 0 == cli.main(["curvature", "shape", "--spec", spec, "--shape", str(tmp / "shape.json"), "--out", out])
seen["curvature shape"] = scipy()
validation.run_suites(["landmark_identity", "refinement"])
seen["landmark_identity and refinement suites"] = scipy()
print(json.dumps(seen))
"""


def test_scipy_footprint(tmp_path):
    """No scipy module is loaded by the CLI's import, ``kernel eval``, the
    Fourier oracle, ``curvature landmark``, ``curvature shape`` or two suites
    whose curvature calls solve with the kernel Gram.  A fresh process, so
    nothing else has loaded them."""
    (tmp_path / "spec.json").write_text(json.dumps({"family": "sobolev_bessel", "n": 3, "l": 3}))
    q = [[np.cos(t), np.sin(t)] for t in np.linspace(0.0, 6.0, 6)]
    (tmp_path / "state.json").write_text(json.dumps({"D": 2, "q": q, "p": np.ones((6, 2)).tolist()}))
    circle = shapes.make_circle(24)
    (tmp_path / "shape.json").write_text(json.dumps(shapes.shape_to_json(circle, np.cos(3.0 * circle.x) * circle.x)))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, str(tmp_path)], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}, check=True)
    seen = json.loads(out.stdout)
    assert seen == {step: [] for step in seen} and len(seen) == 6
