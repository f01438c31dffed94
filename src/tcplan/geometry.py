"""Configuration points, metrics and path evaluators for planner spaces.

A space is a product of factors, each either a unit sphere S^n (points are
ambient unit (n+1)-vectors; a circle is S^1) or a convex piece of R^n
(points are arbitrary real vectors).  Paths are evaluators [0, 1] -> point
built from a handful of combinators, and each combinator builds a bundle:
N paths of one kind from the (N, ambient) rows of their data, one path per
row.  A bundle evaluates an array of T times for all its paths at once,
one (N * T, ambient) array per factor with path n's rows at n * T .. n * T
+ T - 1, and gives every row bit for bit the value its scalar formula
gives that path at that time, whatever N is; a single path is a bundle of
one.  ``config_distances`` measures such rows against each other.  A
bundle also remembers the piece structure (parameter subintervals plus a
constant-speed flag) that all its paths share, so that a verifier can
check speed constancy on geodesic segments without guessing breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

UNIT_TOL = 1e-9
INPUT_UNIT_TOL = 1e-6
_TINY_ANGLE = 1e-9


class InvalidPoint(ValueError):
    """Coordinates do not describe a point of the space."""


class ParityError(ValueError):
    """A tangent-field construction was asked for the wrong sphere parity."""


@dataclass(frozen=True)
class Factor:
    kind: str  # "sphere" or "convex"
    dim: int   # manifold dimension; a sphere factor lives in R^(dim+1)

    @property
    def ambient(self) -> int:
        return self.dim + 1 if self.kind == "sphere" else self.dim


@dataclass(frozen=True)
class Geometry:
    factors: tuple[Factor, ...]

    @property
    def ambient_dim(self) -> int:
        return sum(f.ambient for f in self.factors)


def sphere_geometry(n: int) -> Geometry:
    return Geometry((Factor("sphere", n),))


def convex_geometry(n: int) -> Geometry:
    return Geometry((Factor("convex", n),))


def concat_geometry(a: Geometry, b: Geometry) -> Geometry:
    return Geometry(a.factors + b.factors)


@dataclass(frozen=True)
class ConfigPoint:
    """A point of a product space: one coordinate block per factor."""

    geometry: Geometry
    parts: tuple[np.ndarray, ...]

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate(self.parts) if self.parts else np.zeros(0)

    def __repr__(self):
        coords = ", ".join(f"{v:.6g}" for v in self.flat)
        return f"({coords})"


def make_point(geometry: Geometry, coords, renormalize: bool = False) -> ConfigPoint:
    """Build and validate a point from flat coordinates or per-factor parts.

    Every coordinate must be finite, in every block.  Sphere blocks must
    have unit norm within 1e-9; with ``renormalize`` a norm within 1e-6 of 1
    is projected back to the sphere (the tolerance applied to user-typed
    coordinates) and anything worse is rejected.  A block whose squared norm
    overflows has norm inf.
    """
    if isinstance(coords, (list, tuple)) and coords and isinstance(coords[0], np.ndarray):
        flat = np.concatenate([np.asarray(p, dtype=float) for p in coords])
    else:
        flat = np.asarray(coords, dtype=float)
    if flat.shape != (geometry.ambient_dim,):
        raise InvalidPoint(
            f"expected {geometry.ambient_dim} coordinates, got {flat.shape[0] if flat.ndim == 1 else flat.shape}"
        )
    if not np.isfinite(flat).all():
        raise InvalidPoint("every coordinate must be finite")
    parts = []
    offset = 0
    with np.errstate(over="ignore"):
        for factor in geometry.factors:
            block = flat[offset : offset + factor.ambient].copy()
            offset += factor.ambient
            if factor.kind == "sphere":
                norm = vector_norm(block)
                if renormalize:
                    if abs(norm - 1.0) > INPUT_UNIT_TOL:
                        raise InvalidPoint(
                            f"sphere block {block.tolist()} has norm {norm:.9g}, not within "
                            f"{INPUT_UNIT_TOL} of 1"
                        )
                    block = block / norm
                elif abs(norm - 1.0) > UNIT_TOL:
                    raise InvalidPoint(f"sphere block has norm {norm!r}, expected 1")
            block.setflags(write=False)
            parts.append(block)
    return ConfigPoint(geometry, tuple(parts))


# -- metric -------------------------------------------------------------------

Blocks = tuple[np.ndarray, ...]  # one (T, ambient) array per factor; row k is the k-th point


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D block: what np.linalg.norm computes for
    one, sqrt(v . v), bit for bit, without its dispatch cost."""
    return math.sqrt(v.dot(v))


def factor_distance(factor: Factor, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Geodesic distance on a sphere factor, Euclidean on a convex factor,
    between two points (1-D blocks: a float) or row by row (a 2-D block:
    an (N,) array, either side may be one point): ``chord_distance`` of
    x - y."""
    return chord_distance(factor, x - y)


def chord_distance(factor: Factor, chord: np.ndarray) -> float | np.ndarray:
    """The factor distance spanned by a chord vector x - y, of one pair (a
    1-D block: a float) or row by row (a 2-D block: an (N,) array).  The
    chord from x to -y is x + y: IEEE arithmetic defines x - (-y) as
    exactly that sum.

    Sphere distance goes through the chord's length L, 2*asin(L / 2):
    symmetric configurations then produce bitwise-equal distances, which
    the product planner's argmax tie detection relies on.  A pair's length
    is vector_norm of the chord, written inline; rows get, bit for bit,
    the float a pair gives: lengths through row_norms (vector_norm row by
    row) and math.asin per element (np.arcsin differs in the last bit on
    about 8% of inputs), with ``np.minimum`` clamping as the pair form
    does (a length >= 2 halves to >= 1 exactly) and keeping a NaN, which
    ``min(1.0, nan)`` would read as a half turn.
    """
    if chord.ndim == 1:
        length = math.sqrt(chord.dot(chord))
        if factor.kind != "sphere":
            return length
        return 2.0 * math.asin(1.0 if length >= 2.0 else length / 2.0)
    lengths = row_norms(chord)
    if factor.kind != "sphere":
        return lengths
    half = np.minimum(lengths / 2.0, 1.0)
    return 2.0 * np.array(list(map(math.asin, half.tolist())), dtype=float)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: vector_norm row by row, bit for bit."""
    return np.sqrt(np.vecdot(rows, rows))


def config_distances(geometry: Geometry, xs: Blocks, ys: Blocks) -> np.ndarray:
    """Product distance row by row between two sets of (T, ambient) blocks:
    the root of the sum, in factor order, of the squared factor_distance.

    Each row gets, bit for bit, the float the scalar formulas give its
    points: factor_distance per factor, and the first square taken as the
    sum's start, which 0.0 + d * d equals.
    """
    total = None
    for factor, x, y in zip(geometry.factors, xs, ys):
        d = factor_distance(factor, x, y)
        total = d * d if total is None else total + d * d
    return np.sqrt(total)


def stack_points(points: Sequence[ConfigPoint]) -> Blocks:
    """Points of one geometry as blocks: row k of each block is points[k]."""
    return tuple(np.array(block) for block in zip(*(p.parts for p in points)))


def config_distance(a: ConfigPoint, b: ConfigPoint) -> float:
    """config_distances on the one-row blocks of two points."""
    one_row = lambda point: [part[None] for part in point.parts]
    return float(config_distances(a.geometry, one_row(a), one_row(b))[0])


def random_point(geometry: Geometry, rng: np.random.Generator) -> ConfigPoint:
    """Rotation-invariant sampling: normalized Gaussians on spheres,
    uniform box coordinates on convex factors."""
    parts = []
    for factor in geometry.factors:
        if factor.kind == "sphere":
            v = rng.standard_normal(factor.ambient)
            v /= vector_norm(v)
        else:
            v = rng.uniform(-1.0, 1.0, factor.ambient)
        v.setflags(write=False)
        parts.append(v)
    return ConfigPoint(geometry, tuple(parts))


def random_points(geometry: Geometry, rng: np.random.Generator, count: int) -> Blocks:
    """``count`` random_point calls in turn, bit for bit, as (count,
    ambient) blocks (row k is the k-th point), leaving ``rng`` in the same
    state.

    Where every factor is a sphere, or every factor convex, the points come
    from one draw: a generator's (count, ambient_dim) draw gives the values
    of the sequential calls in C order, and row_norms is vector_norm row by
    row.  Mixed geometries interleave normal and uniform draws, so they
    draw point by point.
    """
    kinds = {factor.kind for factor in geometry.factors}
    if len(kinds) != 1:
        if not count:
            return tuple(np.empty((0, f.ambient)) for f in geometry.factors)
        return stack_points([random_point(geometry, rng) for _ in range(count)])
    shape = (count, geometry.ambient_dim)
    draws = rng.standard_normal(shape) if kinds == {"sphere"} else rng.uniform(-1.0, 1.0, shape)
    blocks, offset = [], 0
    for factor in geometry.factors:
        block = draws[:, offset : offset + factor.ambient]
        offset += factor.ambient
        if factor.kind == "sphere":
            block = block / row_norms(block)[:, None]
        block.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def tangent_perturb(point: ConfigPoint, delta: float, rng: np.random.Generator) -> ConfigPoint:
    """Move each factor by geodesic distance delta in a random tangent direction."""
    parts = []
    for factor, x in zip(point.geometry.factors, point.parts):
        if factor.kind == "sphere":
            v = rng.standard_normal(factor.ambient)
            v -= np.dot(v, x) * x
            norm = vector_norm(v)
            if norm < 1e-12:
                moved = x.copy()
            else:
                v /= norm
                moved = math.cos(delta) * x + math.sin(delta) * v
                moved /= vector_norm(moved)
        else:
            v = rng.standard_normal(factor.ambient)
            norm = vector_norm(v)
            moved = x + (delta / norm) * v if norm > 0 else x.copy()
        moved.setflags(write=False)
        parts.append(moved)
    return ConfigPoint(point.geometry, tuple(parts))


def tangent_perturb_rows(
    geometry: Geometry, xs: Blocks, delta: float, normals: np.ndarray
) -> Blocks:
    """tangent_perturb of N points at once, given the normals it would draw.

    ``xs`` holds the points as (N, ambient) blocks and row k of the (N,
    ambient_dim) array ``normals`` the draws for point k, factor after
    factor: a generator's ``standard_normal((N, ambient_dim))`` draws
    exactly what N tangent_perturb calls draw one by one.  Every row is bit
    for bit the point tangent_perturb returns, with ``np.vecdot`` for its
    np.dot and row_norms for its vector_norm.
    """
    out, offset = [], 0
    for factor, x in zip(geometry.factors, xs):
        v = normals[:, offset : offset + factor.ambient]
        offset += factor.ambient
        with np.errstate(invalid="ignore", divide="ignore"):
            if factor.kind == "sphere":
                v = v - np.vecdot(v, x)[:, None] * x
                norm = row_norms(v)
                moved = math.cos(delta) * x + math.sin(delta) * (v / norm[:, None])
                moved = np.where((norm < 1e-12)[:, None], x, moved / row_norms(moved)[:, None])
            else:
                norm = row_norms(v)
                moved = np.where((norm > 0)[:, None], x + (delta / norm)[:, None] * v, x)
        moved.setflags(write=False)
        out.append(moved)
    return tuple(out)


# -- charts and tangent fields ---------------------------------------------------


def _insert_column(rest: np.ndarray, axis: int, column) -> np.ndarray:
    """``np.insert(rest, axis, column, axis=-1)`` for one value per point,
    without its dispatch cost."""
    out = np.empty(rest.shape[:-1] + (rest.shape[-1] + 1,))
    out[..., :axis] = rest[..., :axis]
    out[..., axis] = column
    out[..., axis + 1 :] = rest[..., axis:]
    return out


def stereo_project(x: np.ndarray, axis: int) -> np.ndarray:
    """Stereographic chart from the pole +e_axis onto its equatorial plane,
    of a point or of each row of an (N, n + 1) array."""
    rest = np.concatenate((x[..., :axis], x[..., axis + 1 :]), axis=-1)
    return rest / (1.0 - x[..., axis, None])


def stereo_unproject(y: np.ndarray, axis: int) -> np.ndarray:
    """Inverse chart, row by row: (T, n) chart points back onto the unit
    sphere minus the pole."""
    r2 = np.vecdot(y, y)
    return _insert_column(2.0 * y, axis, r2 - 1.0) / (r2 + 1.0)[:, None]


def stereo_push(y: np.ndarray, e: np.ndarray, axis: int) -> np.ndarray:
    """Differential of the inverse chart at y applied to the plane vector e,
    at a point or at each row of an (N, n) array.

    Decays like 1/|y|^2, so pushing a constant chart field through yields a
    tangent field on the sphere that vanishes only at the pole.  The
    square (1 + r2) ** 2 is Python's float power per point: numpy's square
    differs from it in the last bit on some inputs.
    """
    r2 = np.vecdot(y, y)
    ye = np.vecdot(y, e)
    square = np.array([(1.0 + r) ** 2 for r in np.ravel(r2).tolist()]).reshape(np.shape(r2))
    plane = np.empty_like(y)
    plane[...] = 2.0 * e
    term1 = _insert_column(plane, axis, 2.0 * ye) / (1.0 + r2)[..., None]
    term2 = _insert_column(2.0 * y, axis, r2 - 1.0) * (2.0 * ye)[..., None] / square[..., None]
    return term1 - term2


def odd_vector_field(x: np.ndarray, n: int) -> np.ndarray:
    """Nowhere-zero unit tangent field on an odd sphere: swap coordinate pairs,
    at a point or at each row of an (N, n + 1) array.

    v(x) = (-x2, x1, -x4, x3, ...); orthogonal to x and of the same norm.
    """
    if n % 2 == 0:
        raise ParityError(f"odd_vector_field needs odd n, got {n}")
    v = np.empty_like(x)
    v[..., 0::2] = -x[..., 1::2]
    v[..., 1::2] = x[..., 0::2]
    return v


def even_vector_field(x: np.ndarray, n: int) -> np.ndarray:
    """Tangent field on an even sphere vanishing exactly at the pole e_(n+1),
    at a point or at each row of an (N, n + 1) array.

    Push the constant chart field e_1 through the inverse stereographic
    chart based at the pole; extend by zero at the pole itself.
    """
    if n % 2 == 1:
        raise ParityError(f"even_vector_field needs even n, got {n}")
    pole_axis = n  # last coordinate
    e = np.zeros(n)
    e[0] = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):  # the pole's own chart point
        field = stereo_push(stereo_project(x, pole_axis), e, pole_axis)
    return np.where((x[..., pole_axis] >= 1.0)[..., None], 0.0, field)


# -- paths --------------------------------------------------------------------

Piece = tuple[float, float, bool]  # (t0, t1, constant_speed)


class PathFn:
    """A bundle of N paths [0, 1] -> ConfigPoint with one declared piece
    structure, which all N paths share.

    ``sample(ts)`` evaluates every path at an array of T times at once and
    returns one (N * T, ambient) array per factor, query-major: row n * T +
    k is path n at ts[k].  A single path is a bundle with N = 1, and
    ``path(t)`` is the first row of ``sample([t])``.
    """

    __slots__ = ("geometry", "_sample", "pieces", "label")

    def __init__(
        self,
        geometry: Geometry,
        sample: Callable[[np.ndarray], Blocks],
        pieces: Sequence[Piece],
        label: str = "path",
    ):
        self.geometry = geometry
        self._sample = sample
        self.pieces = tuple(pieces)
        self.label = label

    def sample(self, ts) -> Blocks:
        return self._sample(np.asarray(ts, dtype=float))

    def __call__(self, t: float) -> ConfigPoint:
        return ConfigPoint(self.geometry, tuple(block[0] for block in self.sample((t,))))

    def __repr__(self):
        return f"<PathFn {self.label}>"


def _query_major(values: np.ndarray) -> np.ndarray:
    """(N, T, ambient) values, path by path, as (N * T, ambient) rows."""
    return values.reshape(-1, values.shape[-1])


def _slerp_rows(a: np.ndarray, b: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Constant-speed shortest arcs between the rows of two (N, ambient)
    arrays of non-antipodal unit vectors, as a function of the (T, 1)
    columns (1 - t, t) giving (N, T, ambient) values.

    The angle comes from atan2 of the rejection norm, which stays accurate
    near antipodal pairs where acos of the dot product loses ~8 digits; it
    is taken per row with math.atan2, as np.arctan2 may differ in the last
    bit.  A row whose angle is below _TINY_ANGLE takes the normalized chord
    instead of the arc.
    """
    dot = np.vecdot(a, b)
    sin_theta = row_norms(a - dot[:, None] * b)
    thetas = [math.atan2(s, d) for s, d in zip(sin_theta.tolist(), dot.tolist())]
    near = [k for k, theta in enumerate(thetas) if theta < _TINY_ANGLE]
    a, b = a[:, None, :], b[:, None, :]

    def chord(s, t):
        v = s * a + t * b
        return v / row_norms(v)[..., None]

    if len(near) == len(thetas):
        return chord
    theta, sin_theta = np.array(thetas)[:, None, None], sin_theta[:, None, None]

    def arc(s, t):
        return (np.sin(s * theta) * a + np.sin(t * theta) * b) / sin_theta

    if not near:
        return arc
    rows = theta < _TINY_ANGLE
    sin_theta[rows] = 1.0  # the chord replaces these rows; keep their arc finite

    def mixed(s, t):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(rows, chord(s, t), arc(s, t))

    return mixed


def geodesic_path(geometry: Geometry, a: Blocks, b: Blocks) -> PathFn:
    """Factor-wise constant-speed geodesics from the rows of ``a`` to those
    of ``b``: shortest arcs on spheres (unique when no factor pair is
    antipodal), straight segments on convex factors."""
    movers = []
    for factor, x, y in zip(geometry.factors, a, b):
        if factor.kind == "sphere":
            movers.append(_slerp_rows(x, y))
        else:
            x, y = x[:, None, :], y[:, None, :]
            movers.append(lambda s, t, x=x, y=y: s * x + t * y)

    def sample(ts):
        t = ts[:, None]
        s = 1.0 - t
        return tuple(_query_major(m(s, t)) for m in movers)

    return PathFn(geometry, sample, ((0.0, 1.0, True),), "geodesic")


def polar_arc_path(geometry: Geometry, b: np.ndarray, unit_tangent: np.ndarray) -> PathFn:
    """Half great circles from -b to b through the tangent directions, one
    per row of the (N, ambient) arrays: t -> -cos(pi t) b + sin(pi t) w.
    Constant speed pi."""
    b, unit_tangent = b[:, None, :], unit_tangent[:, None, :]

    def sample(ts):
        angle = math.pi * ts[:, None]
        return (_query_major(-np.cos(angle) * b + np.sin(angle) * unit_tangent),)

    return PathFn(geometry, sample, ((0.0, 1.0, True),), "polar-arc")


def chart_segment_path(geometry: Geometry, a: np.ndarray, b: np.ndarray, axis: int) -> PathFn:
    """Straight segments in the stereographic chart from pole e_axis between
    the rows of two (N, ambient) arrays, mapped back to the sphere.  Stays
    off the pole; not constant speed."""
    ya = stereo_project(a, axis)[:, None, :]
    yb = stereo_project(b, axis)[:, None, :]

    def sample(ts):
        t = ts[:, None]
        return (stereo_unproject(_query_major((1.0 - t) * ya + t * yb), axis),)

    return PathFn(geometry, sample, ((0.0, 1.0, False),), "chart-segment")


def concat_paths(segments: Sequence[tuple[float, float, PathFn]], label: str = "concat") -> PathFn:
    """Glue bundles of N paths over consecutive parameter windows [(t0, t1,
    path), ...], path n of each bundle into path n of the result.

    Windows must tile [0, 1] in order; each sub-path is reparametrized to
    its window.  A time belongs to the first window whose end lies above
    it, and the last window owns its right endpoint.
    """
    geometry = segments[0][2].geometry
    pieces = []
    for t0, t1, path in segments:
        width = t1 - t0
        for p0, p1, const in path.pieces:
            pieces.append((t0 + p0 * width, t0 + p1 * width, const))
    ends = np.array([math.inf if t1 >= 1.0 else t1 for _, t1, _ in segments[:-1]])

    def sample(ts):
        window = ends.searchsorted(ts, side="right")
        out = None
        for k, (t0, t1, path) in enumerate(segments):
            mask = window == k
            times = ts[mask]
            if not len(times):
                continue
            rows = path.sample((times - t0) / (t1 - t0))
            if out is None:  # N is the rows per time
                count = len(rows[0]) // len(times)
                out = tuple(np.empty((count, len(ts), f.ambient)) for f in geometry.factors)
            for block, part in zip(out, rows):
                block[:, mask] = part.reshape(count, len(times), -1)
        if out is None:  # no times: no rows, whatever N is
            return tuple(np.empty((0, f.ambient)) for f in geometry.factors)
        return tuple(map(_query_major, out))

    return PathFn(geometry, sample, pieces, label)


@lru_cache(maxsize=1024)
def merge_pieces(structures: tuple[tuple[Piece, ...], ...]) -> tuple[Piece, ...]:
    """The piece structure of paths run in parallel, one per structure:
    cut at every piece end of every structure, and constant-speed where
    every structure is.  Merging in one step equals merging pairwise in
    any nesting, since each interval between consecutive cuts lies inside
    one piece of every partial merge.

    Few distinct structures occur (21 over the first 900 seed-1
    plan-products requests), so the merges are memoized in a bounded
    cache, keyed by the tuple of ``PathFn.pieces`` tuples."""
    cuts = sorted({0.0, 1.0} | {t for pieces in structures for t0, t1, _ in pieces for t in (t0, t1)})

    def const_on(pieces, lo, hi):
        return all(const or p1 <= lo or p0 >= hi for p0, p1, const in pieces)

    return tuple(
        (lo, hi, all(const_on(pieces, lo, hi) for pieces in structures))
        for lo, hi in zip(cuts, cuts[1:])
    )


def mapped_path(path: PathFn, fn, geometry: Geometry, label: str = "mapped") -> PathFn:
    """Push a bundle through a coordinate map; speed structure is not preserved.

    ``fn`` maps the bundle's sampled (N * T, ambient) blocks to blocks of
    as many rows on ``geometry``, row for row.
    """
    pieces = tuple((t0, t1, False) for t0, t1, _ in path.pieces)
    return PathFn(geometry, lambda ts: fn(path.sample(ts)), pieces, label)
