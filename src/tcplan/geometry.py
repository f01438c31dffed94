"""Configuration points, metrics and path evaluators for planner spaces.

A space is a product of factors, each either a unit sphere S^n (points are
ambient unit (n+1)-vectors; a circle is S^1) or a convex piece of R^n
(points are arbitrary real vectors).  Paths are evaluators [0, 1] -> point
built from a handful of combinators; each path remembers a piece structure
(parameter subintervals plus a constant-speed flag) so that a verifier can
check speed constancy on geodesic segments without guessing breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def split_point(self, point: "ConfigPoint", left_count: int) -> tuple["ConfigPoint", "ConfigPoint"]:
        left = Geometry(self.factors[:left_count])
        right = Geometry(self.factors[left_count:])
        return (
            ConfigPoint(left, point.parts[:left_count]),
            ConfigPoint(right, point.parts[left_count:]),
        )


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

    Sphere blocks must have unit norm within 1e-9; with ``renormalize`` a
    norm within 1e-6 of 1 is projected back to the sphere (the tolerance
    applied to user-typed coordinates) and anything worse is rejected.
    """
    if isinstance(coords, (list, tuple)) and coords and isinstance(coords[0], np.ndarray):
        flat = np.concatenate([np.asarray(p, dtype=float) for p in coords])
    else:
        flat = np.asarray(coords, dtype=float)
    if flat.shape != (geometry.ambient_dim,):
        raise InvalidPoint(
            f"expected {geometry.ambient_dim} coordinates, got {flat.shape[0] if flat.ndim == 1 else flat.shape}"
        )
    parts = []
    offset = 0
    for factor in geometry.factors:
        block = flat[offset : offset + factor.ambient].copy()
        offset += factor.ambient
        if factor.kind == "sphere":
            norm = float(np.linalg.norm(block))
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


def antipode(point: ConfigPoint) -> ConfigPoint:
    """Factor-wise antipode (sphere factors only)."""
    parts = []
    for factor, part in zip(point.geometry.factors, point.parts):
        if factor.kind != "sphere":
            raise InvalidPoint("antipode needs sphere factors")
        flipped = -part
        flipped.setflags(write=False)
        parts.append(flipped)
    return ConfigPoint(point.geometry, tuple(parts))


# -- metric -------------------------------------------------------------------


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D block: what np.linalg.norm computes for
    one, sqrt(v . v), bit for bit, without its dispatch cost."""
    return math.sqrt(v.dot(v))


def factor_distance(factor: Factor, x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic distance on a sphere factor, Euclidean on a convex factor.

    Sphere distance goes through the chord, 2*asin(|x - y| / 2): symmetric
    configurations then produce bitwise-equal distances, which the product
    planner's argmax tie detection relies on.
    """
    chord = vector_norm(x - y)
    if factor.kind == "sphere":
        return 2.0 * math.asin(min(1.0, chord / 2.0))
    return chord


def config_distance(a: ConfigPoint, b: ConfigPoint) -> float:
    total = 0.0
    for factor, x, y in zip(a.geometry.factors, a.parts, b.parts):
        d = factor_distance(factor, x, y)
        total += d * d
    return math.sqrt(total)


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


# -- charts and tangent fields ---------------------------------------------------


def stereo_project(x: np.ndarray, axis: int) -> np.ndarray:
    """Stereographic chart from the pole +e_axis onto its equatorial plane."""
    return np.delete(x, axis) / (1.0 - x[axis])


def stereo_unproject(y: np.ndarray, axis: int) -> np.ndarray:
    """Inverse chart: R^n back onto the unit sphere minus the pole."""
    r2 = float(np.dot(y, y))
    out = np.insert(2.0 * y, axis, r2 - 1.0)
    return out / (r2 + 1.0)


def stereo_push(y: np.ndarray, e: np.ndarray, axis: int) -> np.ndarray:
    """Differential of the inverse chart at y applied to the plane vector e.

    Decays like 1/|y|^2, so pushing a constant chart field through yields a
    tangent field on the sphere that vanishes only at the pole.
    """
    r2 = float(np.dot(y, y))
    ye = float(np.dot(y, e))
    term1 = np.insert(2.0 * e, axis, 2.0 * ye) / (1.0 + r2)
    term2 = np.insert(2.0 * y, axis, r2 - 1.0) * (2.0 * ye) / (1.0 + r2) ** 2
    return term1 - term2


def odd_vector_field(x: np.ndarray, n: int) -> np.ndarray:
    """Nowhere-zero unit tangent field on an odd sphere: swap coordinate pairs.

    v(x) = (-x2, x1, -x4, x3, ...); orthogonal to x and of the same norm.
    """
    if n % 2 == 0:
        raise ParityError(f"odd_vector_field needs odd n, got {n}")
    v = np.empty_like(x)
    v[0::2] = -x[1::2]
    v[1::2] = x[0::2]
    return v


def even_vector_field(x: np.ndarray, n: int) -> np.ndarray:
    """Tangent field on an even sphere vanishing exactly at the pole e_(n+1).

    Push the constant chart field e_1 through the inverse stereographic
    chart based at the pole; extend by zero at the pole itself.
    """
    if n % 2 == 1:
        raise ParityError(f"even_vector_field needs even n, got {n}")
    pole_axis = n  # last coordinate
    if x[pole_axis] >= 1.0:
        return np.zeros_like(x)
    y = stereo_project(x, pole_axis)
    e = np.zeros(n)
    e[0] = 1.0
    return stereo_push(y, e, pole_axis)


# -- paths --------------------------------------------------------------------

Piece = tuple[float, float, bool]  # (t0, t1, constant_speed)


class PathFn:
    """Evaluator [0, 1] -> ConfigPoint with a declared piece structure."""

    __slots__ = ("_fn", "pieces", "label")

    def __init__(self, fn: Callable[[float], ConfigPoint], pieces: Sequence[Piece], label: str = "path"):
        self._fn = fn
        self.pieces = tuple(pieces)
        self.label = label

    def __call__(self, t: float) -> ConfigPoint:
        return self._fn(t)

    def __repr__(self):
        return f"<PathFn {self.label}>"


def _slerp_part(a: np.ndarray, b: np.ndarray) -> Callable[[float], np.ndarray]:
    """Constant-speed shortest arc between non-antipodal unit vectors.

    The angle comes from atan2 of the rejection norm, which stays accurate
    near antipodal pairs where acos of the dot product loses ~8 digits.
    """
    dot = float(np.dot(a, b))
    sin_theta = float(np.linalg.norm(a - dot * b))
    theta = math.atan2(sin_theta, dot)
    if theta < _TINY_ANGLE:
        def nearly(t, a=a, b=b):
            v = (1.0 - t) * a + t * b
            return v / vector_norm(v)
        return nearly

    def arc(t, a=a, b=b, theta=theta, sin_theta=sin_theta):
        return (math.sin((1.0 - t) * theta) * a + math.sin(t * theta) * b) / sin_theta

    return arc


def geodesic_path(a: ConfigPoint, b: ConfigPoint) -> PathFn:
    """Factor-wise constant-speed geodesic: shortest arcs on spheres (unique
    when no factor pair is antipodal), straight segments on convex factors."""
    geometry = a.geometry
    movers = []
    for factor, x, y in zip(geometry.factors, a.parts, b.parts):
        if factor.kind == "sphere":
            movers.append(_slerp_part(x, y))
        else:
            movers.append(lambda t, x=x, y=y: (1.0 - t) * x + t * y)

    def fn(t):
        return ConfigPoint(geometry, tuple(m(t) for m in movers))

    return PathFn(fn, ((0.0, 1.0, True),), "geodesic")


def polar_arc_path(geometry: Geometry, b: np.ndarray, unit_tangent: np.ndarray) -> PathFn:
    """Half great circle from -b to b through the tangent direction:
    t -> -cos(pi t) b + sin(pi t) w.  Constant speed pi."""

    def fn(t):
        v = -math.cos(math.pi * t) * b + math.sin(math.pi * t) * unit_tangent
        return ConfigPoint(geometry, (v,))

    return PathFn(fn, ((0.0, 1.0, True),), "polar-arc")


def chart_segment_path(geometry: Geometry, a: np.ndarray, b: np.ndarray, axis: int) -> PathFn:
    """Straight segment in the stereographic chart from pole e_axis, mapped
    back to the sphere.  Stays off the pole; not constant speed."""
    ya = stereo_project(a, axis)
    yb = stereo_project(b, axis)

    def fn(t):
        y = (1.0 - t) * ya + t * yb
        return ConfigPoint(geometry, (stereo_unproject(y, axis),))

    return PathFn(fn, ((0.0, 1.0, False),), "chart-segment")


def concat_paths(segments: Sequence[tuple[float, float, PathFn]], label: str = "concat") -> PathFn:
    """Glue paths over consecutive parameter windows [(t0, t1, path), ...].

    Windows must tile [0, 1] in order; each sub-path is reparametrized to
    its window.  The last window owns its right endpoint.
    """
    pieces = []
    for t0, t1, path in segments:
        width = t1 - t0
        for p0, p1, const in path.pieces:
            pieces.append((t0 + p0 * width, t0 + p1 * width, const))

    def fn(t):
        for t0, t1, path in segments:
            if t < t1 or t1 >= 1.0:
                return path((t - t0) / (t1 - t0))
        return segments[-1][2](1.0)

    return PathFn(fn, pieces, label)


def pair_paths(geometry: Geometry, left: PathFn, right: PathFn) -> PathFn:
    """Run two paths in parallel on a product geometry."""
    cuts = sorted({0.0, 1.0} | {t for t0, t1, _ in left.pieces + right.pieces for t in (t0, t1)})

    def const_on(path, lo, hi):
        return all(
            const or p1 <= lo or p0 >= hi for p0, p1, const in path.pieces
        )

    pieces = tuple(
        (lo, hi, const_on(left, lo, hi) and const_on(right, lo, hi))
        for lo, hi in zip(cuts, cuts[1:])
    )

    def fn(t):
        return ConfigPoint(geometry, left(t).parts + right(t).parts)

    return PathFn(fn, pieces, "pair")


def mapped_path(path: PathFn, fn, geometry: Geometry, label: str = "mapped") -> PathFn:
    """Push a path through a coordinate map; speed structure is not preserved."""
    pieces = tuple((t0, t1, False) for t0, t1, _ in path.pieces)
    return PathFn(lambda t: fn(path(t)), pieces, label)
