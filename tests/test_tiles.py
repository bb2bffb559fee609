"""Row-tiled pair reductions: each tiled route against a one-tile run of the
same route, with ``kernels.TILE_BYTES`` patched to set the tile size."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cometric import kernels, landmark, shapes
from cometric.dynamics import landmark_system, shape_system
from cometric.errors import ConfigurationError, DegenerateConfigurationError
from cometric.kernels import KernelSpec, check_distinct, gram_matrix, pair_tiles
from cometric.landmark import LandmarkMetric

SPEC = KernelSpec("sobolev_bessel", n=3, l=3, A=0.7)
ONE_TILE = 2**50  # every configuration here fits in one tile
REL = 1e-12


def _tile_bytes(p: int, rows: int) -> int:
    """The ``TILE_BYTES`` that gives tiles of ``rows`` rows at ``p`` points."""
    return 8 * p * rows


def _ring(p: int, seed: int = 0) -> np.ndarray:
    """``p`` jittered points on a circle, neighbours about 0.3 apart."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(p) / p
    q = (0.3 * p / (2.0 * np.pi)) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return q + rng.uniform(-0.05, 0.05, size=q.shape)


def _quarter_turn(a: np.ndarray) -> np.ndarray:
    return np.stack([-a[..., 1], a[..., 0]], axis=-1)


def _observed(system, x: np.ndarray, a: np.ndarray) -> tuple:
    """The rhs of the state ``(x, a)`` and the H observed with it."""
    rhs, seen = system.rhs_observe(np.array((x, a)))
    return rhs, seen["H"]


def _landmark_routes(p: int) -> dict:
    rng = np.random.default_rng(p)
    metric = LandmarkMetric(SPEC, p, 2)
    q = _ring(p)
    a = 0.5 * rng.standard_normal((p, 2))
    b = _quarter_turn(a)
    qs, moms = np.stack([q, _ring(p, 1)]), np.stack([a, b])
    return {
        "rhs": lambda: landmark.geodesic_rhs(metric, q, a),
        "rhs_energy": lambda: _observed(landmark_system(metric), q, a),
        "rhs_batch": lambda: landmark.geodesic_rhs(metric, qs, moms),
        "hamiltonian": lambda: landmark.hamiltonian(metric, q, a),
        "velocity": lambda: landmark.velocity(metric, q, a),
        "force": lambda: landmark.force(metric, q, a, b),
        "stress": lambda: landmark.stress(metric, q, a, b),
        "curvature": lambda: landmark.curvature(metric, q, a, b),
        "gram": lambda: gram_matrix(SPEC, q),
        "check_distinct": lambda: check_distinct(q, what="points"),
    }


def _shape_routes(p: int) -> dict:
    curve = shapes.closed_curve(_ring(p))
    theta = np.arctan2(curve.x[:, 1], curve.x[:, 0])
    a = np.cos(3.0 * theta)[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    b = shapes.project_normal(curve, np.sin(2.0 * theta)[:, None] * curve.x)
    return {
        "shape_rhs": lambda: _observed(shape_system(SPEC, curve), curve.x, a),
        "pairing": lambda: shapes.induced_pairing(SPEC, curve, a, b),
        "force_normal": lambda: shapes.force_normal(SPEC, curve, a, b),
        "stress_normal": lambda: shapes.stress_normal(SPEC, curve, a, b),
        "shape_curvature": lambda: shapes.curvature_terms(SPEC, curve, a, b),
    }


def _flat(result) -> list[np.ndarray]:
    if dataclasses.is_dataclass(result):
        result = [v for v in dataclasses.astuple(result) if v is not None]
    elif result is None:  # check_distinct: passing is the result
        result = []
    elif not isinstance(result, tuple):
        result = [result]
    return [np.asarray(v, dtype=float) for v in result]


@pytest.mark.parametrize("p, rows", [(37, 5), (37, 4), (129, None), (400, None)])
@pytest.mark.parametrize("route", [*_landmark_routes(2), *_shape_routes(3)])
def test_tiled_routes_agree_with_one_tile(route, p, rows, monkeypatch):
    """To 1e-12 relative to the largest entry of each output: summation order
    is all that moves.  At p = 129 and 400 the shipped tile size is used: at
    129 two tiles of 127 and 2 rows; at 37 with 4 rows the last tile holds
    one row and no column past its square."""
    call = {**_landmark_routes(p), **_shape_routes(p)}[route]
    if rows is not None:
        monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(p, rows))
    tiles = len(list(pair_tiles(SPEC, _ring(p), 0, "points")))
    assert tiles == -(-p // (rows or kernels.TILE_BYTES // (8 * p))) > 1
    tiled = _flat(call())
    monkeypatch.setattr(kernels, "TILE_BYTES", ONE_TILE)
    whole = _flat(call())
    assert len(tiled) == len(whole)
    for got, want in zip(tiled, whole):
        scale = max(float(np.abs(w).max(initial=0.0)) for w in whole)
        assert got.shape == want.shape
        assert float(np.abs(got - want).max(initial=0.0)) <= REL * scale, route


def _upper_tiles(p: int, rows: int, monkeypatch) -> list:
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(p, rows))
    return list(pair_tiles(SPEC, _ring(p), 2, "points"))


def test_tiles_cover_every_row_once_with_the_whole_block_data(monkeypatch):
    """Each tile is the whole block's rows from its first row on, bit for bit."""
    p = 23
    q = _ring(p)
    (whole,) = pair_tiles(SPEC, q, 2, "points")
    tiles = _upper_tiles(p, 4, monkeypatch)
    assert [(t.rows.start, t.rows.stop) for t in tiles] == [(lo, min(lo + 4, p)) for lo in range(0, p, 4)]
    for t in tiles:
        for name in ("value", "g", "h", "diff"):
            assert np.array_equal(getattr(t, name), getattr(whole, name)[t.rows, t.rows.start:])
    low = list(pair_tiles(SPEC, q, 0, "points"))
    assert all(t.g is None and t.h is None for t in low)


def test_upper_tiles_hold_each_unordered_pair_once(monkeypatch):
    """Every unordered pair of two tiles' rows lies past the square of exactly
    one tile.  At p = 400 the shipped tiles build 88 000 of the 160 000
    pair entries."""
    p = 23
    tiles = _upper_tiles(p, 4, monkeypatch)
    past = [(s, u) for t in tiles for s in range(t.rows.start, t.rows.stop) for u in range(t.rows.stop, p)]
    tile_of = [k for k, t in enumerate(tiles) for _ in range(t.rows.start, t.rows.stop)]
    apart = [(s, u) for s in range(p) for u in range(s + 1, p) if tile_of[s] != tile_of[u]]
    assert sorted(past) == apart and len(set(past)) == len(past)
    monkeypatch.undo()
    assert sum(t.value.size for t in pair_tiles(SPEC, _ring(400), 0, "points")) == 88_000


def test_pairs_that_fit_make_one_tile_the_whole_block():
    """Up to p = 128 the shipped tile holds every pair: the one tile is the
    whole block."""
    (one,) = pair_tiles(SPEC, _ring(128), 1, "points")
    assert one.rows == slice(None)
    assert len(list(pair_tiles(SPEC, _ring(129), 1, "points"))) == 2


@pytest.mark.parametrize("p", [3, 200], ids=["one-tile", "row-tiles"])
@pytest.mark.parametrize("route", ["geodesic_rhs", "stress", "curvature"])
def test_input_bad_in_two_ways_gets_one_refusal_whatever_the_tile_count(route, p):
    """Coincident landmarks 0 and 1 and momenta of the wrong width: the
    momenta are refused first, at one tile as in row tiles, since every pass
    checks its pairs only as it meets them."""
    assert (len(kernels.row_slices(p)) > 1) == (p > 128)
    q = _ring(p)
    q[1] = q[0]
    mom = np.ones((p, 3))
    metric = LandmarkMetric(SPEC, p, 2)
    args = (mom,) if route == "geodesic_rhs" else (mom, mom)
    with pytest.raises(ConfigurationError) as info:
        getattr(landmark, route)(metric, q, *args)
    assert str(info.value) == f"momenta must have shape ({p}, 2), got ({p}, 3)"


@pytest.mark.parametrize("first", [30, 3], ids=["same-tile", "across-tiles"])
def test_coincident_pair_in_a_later_tile_keeps_global_indices_and_message(first, monkeypatch):
    """In one tile the pair shows twice, as (3, 33) and (33, 3), at equal
    distances, and the first in row-major order is named; in upper row tiles
    it shows once, in the row of its smaller index, under the same name."""
    p = 37
    q = _ring(p)
    q[33] = q[first] + np.array([1e-13, 0.0])
    mom = np.ones((p, 2))
    metric = LandmarkMetric(SPEC, p, 2)
    monkeypatch.setattr(kernels, "TILE_BYTES", ONE_TILE)
    with pytest.raises(DegenerateConfigurationError) as want:
        check_distinct(q, what="landmarks")
    assert str(want.value).startswith(f"coincident landmarks {first} and 33 (separation ")
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(p, 5))
    batch = np.stack([_ring(p), q])
    for call in (lambda: check_distinct(q, what="landmarks"),
                 lambda: landmark.geodesic_rhs(metric, q, mom),
                 lambda: landmark.geodesic_rhs(metric, batch, np.stack([mom, mom])),
                 lambda: landmark.curvature(metric, q, mom, _quarter_turn(mom))):
        with pytest.raises(DegenerateConfigurationError) as got:
            call()
        assert str(got.value) == str(want.value)


def test_a_pair_is_coincident_by_the_diameter_of_the_whole_configuration(monkeypatch):
    """The widest pair, 2e3 apart, sits in the first tile; the later tiles
    see at most about half of it.  A pair 1.5e-7 apart in the last tile is
    within 1e-10 of the whole diameter, not of the last tile's widest
    distance, and is refused as in one tile; 2.5e-7 apart it passes."""
    p = 20
    q = _ring(p) / 2.0
    q[0], q[1] = [-1e3, 0.0], [1e3, 0.0]
    for gap, refused in ((1.5e-7, True), (2.5e-7, False)):
        q[19] = q[18] + np.array([gap, 0.0])
        for tile_bytes in (ONE_TILE, _tile_bytes(p, 3)):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            if refused:
                with pytest.raises(DegenerateConfigurationError, match="^coincident points 18 and 19 "):
                    check_distinct(q, what="points")
            else:
                check_distinct(q, what="points")


def _verdict(call) -> tuple | None:
    """None when ``call`` passes, else the type and message of its refusal."""
    try:
        call()
    except (ConfigurationError, DegenerateConfigurationError) as exc:
        return type(exc), str(exc)
    return None


def _pass_verdicts(pts: np.ndarray) -> list:
    """The verdicts of ``check_distinct`` and of an order-2 and an order-0
    ``pair_tiles`` pass, each of which checks its tiles as it meets them."""
    return [_verdict(lambda: check_distinct(pts, what="landmarks")),
            _verdict(lambda: list(pair_tiles(SPEC, pts, 2, "landmarks"))),
            _verdict(lambda: list(pair_tiles(SPEC, pts, 0, "landmarks")))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.integers(9, 20), rows=st.integers(3, 5), place=st.sampled_from(["first", "middle", "last"]),
       ratio=st.floats(0.25, 4.0), seed=st.integers(0, 2**16))
def test_coincidence_verdict_does_not_depend_on_tile_size(p, rows, place, ratio, seed):
    """A pair ``ratio * 1e-10 * diameter`` apart, in the first, a middle or
    the last tile of ``rows`` rows: ``check_distinct`` and every pass of
    ``pair_tiles`` give one verdict, error type and message, at one tile and
    in row tiles, alone and as the middle member of a batch of three (a wider
    and a narrower ring beside it).  Below the ratio 1 the pair is refused by
    name, above it every pass passes; pairs up to 4 diameters' worth of the
    tolerance apart make their tile a candidate above one tile."""
    q = _ring(p, seed)
    tile = [range(lo, min(lo + rows, p)) for lo in range(0, p, rows)]
    rows_of = {"first": tile[0], "middle": tile[len(tile) // 2], "last": tile[-1]}[place]
    i, j = (rows_of[0], rows_of[-1]) if len(rows_of) > 1 else (rows_of[0] - 1, rows_of[0])
    q[j] = q[i]
    diameter = float(np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1)).max())
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    q[j] = q[i] + ratio * 1e-10 * diameter * np.array([np.cos(angle), np.sin(angle)])
    batch = np.stack([2.0 * _ring(p, seed + 1), q, 0.5 * _ring(p, seed + 2)])
    want = _verdict(lambda: check_distinct(q, what="landmarks"))
    if abs(ratio - 1.0) > 1e-6:
        assert (want is not None) == (ratio < 1.0)
    if want is not None:
        assert want[0] is DegenerateConfigurationError
        assert want[1].startswith(f"coincident landmarks {i} and {j} (separation ")
    with pytest.MonkeyPatch.context() as patch:
        for tile_bytes in (ONE_TILE, _tile_bytes(p, rows)):
            patch.setattr(kernels, "TILE_BYTES", tile_bytes)
            for pts in (q, batch):
                verdicts = _pass_verdicts(pts)
                assert verdicts == [want] * len(verdicts)


@pytest.mark.parametrize("row, message", [
    ({36: [np.nan, 0.0]}, "^landmarks contain non-finite coordinates$"),
    ({36: [0.0, np.inf]}, "^landmarks contain non-finite coordinates$"),
    ({35: [1e154, 0.0], 36: [-1e154, 0.0]},
     r"^landmarks are too far apart: a pair distance overflows the float range \(largest coordinate 1.000e\+154\)$"),
], ids=["nan", "inf", "overflow"])
def test_bad_row_in_a_later_tile_is_refused_without_a_warning(row, message, monkeypatch):
    """The overflowing pair meets only in the last tile; the suite fails on
    any RuntimeWarning."""
    p = 37
    monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(p, 5))
    q = _ring(p)
    for index, value in row.items():
        q[index] = value
    mom = np.ones((p, 2))
    metric = LandmarkMetric(SPEC, p, 2)
    for call in (lambda: check_distinct(q, what="landmarks"),
                 lambda: landmark.geodesic_rhs(metric, q, mom),
                 lambda: landmark.geodesic_rhs(metric, np.stack([_ring(p), q]), np.stack([mom, mom])),
                 lambda: landmark.stress(metric, q, mom, mom)):
        with pytest.raises(ConfigurationError, match=message) as info:
            call()
        assert not isinstance(info.value, DegenerateConfigurationError)


@pytest.mark.parametrize("p, rows, members", [(37, 5, 3), (400, None, 2)])
def test_batched_tiles_are_each_configuration_alone_bit_for_bit(p, rows, members, monkeypatch):
    """Column sides included; at p = 400 with the shipped tiles."""
    if rows is not None:
        monkeypatch.setattr(kernels, "TILE_BYTES", _tile_bytes(p, rows))
    assert len(kernels.row_slices(p)) > 1
    rng = np.random.default_rng(7)
    q = np.stack([_ring(p, seed) for seed in range(members)])
    mom = rng.standard_normal(q.shape)
    metric = LandmarkMetric(SPEC, p, 2)
    qdot, pdot = landmark.geodesic_rhs(metric, q, mom)
    for k in range(members):
        one_q, one_p = landmark.geodesic_rhs(metric, q[k], mom[k])
        assert np.array_equal(qdot[k], one_q) and np.array_equal(pdot[k], one_p)


def test_large_rhs_holds_no_pair_array_of_every_pair():
    """At p = 3200 one untiled (p, p) array is 82 MB; the tiled rhs, and the
    Hamiltonian from its field values, each peak under 64 MB in all."""
    p = 3200
    q = _ring(p)
    mom = np.random.default_rng(3).standard_normal((p, 2))
    metric = LandmarkMetric(SPEC, p, 2)
    for route in (landmark.geodesic_rhs, landmark.hamiltonian):
        tracemalloc.start()
        try:
            route(metric, q, mom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, route.__name__
