"""Passage times, reachability sets and limit-shape estimates.

An edge x -> x+y is delta-open when the law at x sends at least one child to
offset y with probability strictly greater than delta.  T(origin, x) is the
minimal number of steps along delta-open edges, computed by BFS truncated to
the l1 ball of a caller-chosen radius; a time t with t * L0 <= radius is
exact, since every path of t steps stays inside that ball.  W(n) =
{x : T <= n} scaled by 1/n approximates the limit shape; R(n) is the set
reached in exactly n steps (parity matters: without an aperiodic site on
the path, R alternates between the even and odd sublattices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .environment import EnvironmentField, check_box_memory
from .lattice import RationalVector, Site, l1_norm

INF = math.inf


class ShapeError(ValueError):
    pass


def _shift(mask: np.ndarray, y: Site) -> np.ndarray:
    """mask translated by +y, zero-filled (out[i+y] = mask[i])."""
    out = np.zeros_like(mask)
    src = []
    dst = []
    for s, yi in zip(mask.shape, y):
        if abs(yi) >= s:
            return out
        if yi >= 0:
            src.append(slice(0, s - yi))
            dst.append(slice(yi, s))
        else:
            src.append(slice(-yi, s))
            dst.append(slice(0, s + yi))
    out[tuple(dst)] = mask[tuple(src)]
    return out


def _ball_mask(shape: tuple[int, ...], center: Sequence[int], radius: int) -> np.ndarray:
    grids = np.meshgrid(
        *[np.abs(np.arange(s) - c) for s, c in zip(shape, center)], indexing="ij"
    )
    return sum(grids) <= radius


def _open_masks(
    env: EnvironmentField, delta: float, lo: Site, hi: Site
) -> tuple[tuple[Site, ...], list[np.ndarray]]:
    """Per-offset boolean grids: True where the edge out of the site is open.

    Raises ShapeError, before anything is allocated, if the BFS box would not
    fit in physical memory.
    """
    check_box_memory(math.prod(h - l + 1 for l, h in zip(lo, hi)), ShapeError,
                     f"a reachability BFS over {lo}..{hi}")
    offsets = env.spec.step_set.sorted_offsets()
    idx = env.law_index_grid(lo, hi)
    law_open = np.array(
        [
            [law.step_mass(y) > delta for y in offsets]
            for law in env.spec.law_support
        ],
        dtype=bool,
    )
    return offsets, [law_open[idx, j] for j in range(len(offsets))]


@dataclass(frozen=True, eq=False)
class PassageTimeMap:
    """Passage times from `origin` on the BFS box origin +- radius.

    `grid[x - origin + radius]` is T(origin, x), and -1 where x was not
    reached (outside the l1 ball of `radius`, or not reached inside it).
    `times` is the same map as a dict from reached site to time, built
    on first access for per-site callers.
    """

    delta: float
    origin: Site
    radius: int
    grid: np.ndarray

    @cached_property
    def times(self) -> dict[Site, int]:
        """Reached site -> T(origin, site), in lexicographic site order."""
        hit = self.grid >= 0
        sites = np.argwhere(hit) + (np.array(self.origin) - self.radius)
        return dict(zip(map(tuple, sites.tolist()), self.grid[hit].tolist()))

    def t(self, x: Site) -> float:
        """T(origin, x); infinity when x was not reached inside the ball."""
        return self.times.get(tuple(x), INF)

    def reached(self, n: int) -> list[Site]:
        """W(n): sites with passage time at most n."""
        return [x for x, t in self.times.items() if t <= n]


def passage_times(
    env: EnvironmentField,
    delta: float,
    radius: int,
    origin: Site | None = None,
) -> PassageTimeMap:
    """BFS passage times from `origin` inside the l1 ball of `radius`.

    The BFS runs on the box origin +- radius, one boolean frontier per
    layer, and its time grid is the map's `grid`.  A path of t steps moves
    at most t * L0 in l1, so every site whose time t has t * L0 <= radius
    gets its exact passage time; larger times are upper bounds, and sites
    reachable only through the outside are missed.
    """
    if radius <= 0:
        raise ShapeError("radius must be positive")
    d = env.spec.dimension
    origin = tuple(origin) if origin is not None else (0,) * d
    lo = tuple(c - radius for c in origin)
    hi = tuple(c + radius for c in origin)
    offsets, open_m = _open_masks(env, delta, lo, hi)
    center = tuple(radius for _ in range(d))
    ball = _ball_mask(tuple(2 * radius + 1 for _ in range(d)), center, radius)

    times = np.full(ball.shape, -1, dtype=np.int64)
    frontier = np.zeros(ball.shape, dtype=bool)
    frontier[center] = True
    times[center] = 0
    t = 0
    while frontier.any():
        t += 1
        nxt = np.zeros_like(frontier)
        for j, y in enumerate(offsets):
            nxt |= _shift(frontier & open_m[j], y)
        nxt &= ball & (times < 0)
        times[nxt] = t
        frontier = nxt
    return PassageTimeMap(delta, origin, radius, times)


def iter_reachable(
    env: EnvironmentField, delta: float, n: int, start: Site
) -> Iterator[set[Site]]:
    """R(0), R(1), ..., R(n): sites reachable in exactly k delta-open steps."""
    if n < 0:
        raise ShapeError("negative step count")
    d = env.spec.dimension
    start = tuple(start)
    l0 = env.spec.step_set.l0_max
    radius = l0 * n
    lo = tuple(c - radius for c in start)
    hi = tuple(c + radius for c in start)
    offsets, open_m = _open_masks(env, delta, lo, hi)
    cur = np.zeros(tuple(2 * radius + 1 for _ in range(d)), dtype=bool)
    center = tuple(radius for _ in range(d))
    cur[center] = True

    def to_sites(mask: np.ndarray) -> set[Site]:
        return {
            tuple(int(i) + l for i, l in zip(idx, lo))
            for idx in zip(*np.nonzero(mask))
        }

    yield to_sites(cur)
    for _ in range(n):
        nxt = np.zeros_like(cur)
        for j, y in enumerate(offsets):
            nxt |= _shift(cur & open_m[j], y)
        cur = nxt
        yield to_sites(cur)


@dataclass(frozen=True)
class NormEstimate:
    a: RationalVector
    k0: int
    samples: tuple[tuple[int, float], ...]
    value: float


def norm_estimate(
    env: EnvironmentField,
    delta: float,
    a: RationalVector,
    n_max: int,
) -> NormEstimate:
    """Finite-n proxy for the passage-time norm along the rational ray a.

    Samples T(0, k0*a*n) / (k0*n) for n = 1..n_max, with k0 the smallest
    positive integer making k0*a integral, from one BFS over the l1 ball
    reaching the ray's last sample point; `value` is the largest-n finite
    sample (math.inf if the ray is never reached inside the ball).
    """
    if a.is_zero():
        raise ShapeError("direction must be nonzero")
    if n_max < 1:
        raise ShapeError("need n_max >= 1")
    k0 = a.denominator
    ptm = passage_times(env, delta, int(math.ceil(float(k0 * n_max * a.l1()))))
    samples: list[tuple[int, float]] = []
    value = INF
    for j in range(1, n_max + 1):
        target = a.site_at(k0 * j)
        t = ptm.t(target)
        if t < INF:
            samples.append((j, t / (k0 * j)))
            value = t / (k0 * j)
    return NormEstimate(a, k0, tuple(samples), value)


@dataclass(frozen=True, eq=False)
class ShapeEstimate:
    """W(n)/n as an (m, d) array in lexicographic order, and its hull."""

    delta: float
    n: int
    normalized_sites: np.ndarray
    hull: tuple[tuple[float, ...], ...]


def _hull_1d(points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    xs = sorted(p[0] for p in points)
    if xs[0] == xs[-1]:
        return [(xs[0],)]
    return [(xs[0],), (xs[-1],)]


def _hull_2d(points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Andrew's monotone chain; vertices in counter-clockwise order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_3d(points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Hull vertices in lexicographic order, flat sets included.

    A coplanar set is hulled in 2-D after dropping a coordinate along
    which the plane's normal is nonzero (an affine map, injective on the
    plane); a collinear set has its two lexicographic extremes.
    """
    pts = sorted(set(points))
    arr = np.asarray(pts)
    diffs = arr[1:] - arr[0]
    if not len(diffs):
        return pts
    normals = np.cross(diffs[0], diffs)
    independent = np.flatnonzero(normals.any(axis=1))
    if not len(independent):
        return [pts[0], pts[-1]]
    normal = normals[independent[0]]
    if not (diffs @ normal).any():
        keep = [i for i in range(3) if i != int(np.flatnonzero(normal)[0])]
        back = {tuple(p[i] for i in keep): p for p in pts}
        return sorted(back[v] for v in _hull_2d(list(back)))
    if len(pts) <= 4:
        return pts
    from scipy.spatial import ConvexHull

    hull = ConvexHull(arr.astype(np.float64))
    return [tuple(float(c) for c in hull.points[v]) for v in sorted(hull.vertices)]


def convex_hull(points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
    if not points:
        raise ShapeError("empty point set")
    d = len(points[0])
    if d == 1:
        return _hull_1d(points)
    if d == 2:
        return _hull_2d(points)
    return _hull_3d(points)


def shape_polytope(ptm: PassageTimeMap, n: int) -> ShapeEstimate:
    """Normalized reachable set W(n)/n with its convex hull.

    W(n) is read off `ptm.grid`; `np.argwhere` lists it in lexicographic
    order, relative to the origin once the radius is subtracted.
    """
    if n > ptm.radius:
        raise ShapeError(f"n={n} exceeds the map radius {ptm.radius}")
    if n == 0:
        pt = tuple(0.0 for _ in ptm.origin)
        return ShapeEstimate(ptm.delta, 0, np.zeros((1, len(pt))), (pt,))
    sites = np.argwhere((ptm.grid >= 0) & (ptm.grid <= n)) - ptm.radius
    # hull on the integer sites: exact arithmetic, no float-collinearity noise
    ends = list(map(tuple, sites[_row_ends(sites)].tolist()))
    hull = tuple(tuple(c / n for c in v) for v in convex_hull(ends))
    return ShapeEstimate(ptm.delta, n, sites / n, hull)


def _row_ends(sites: np.ndarray) -> np.ndarray:
    """Mask of the first and last site of each row of lexicographic sites.

    A row is a run of sites that agree in all but the last coordinate; every
    other site lies between its row's ends, so the ends have the convex hull
    of the whole set, with at most two points per row.
    """
    new_row = (sites[1:, :-1] != sites[:-1, :-1]).any(axis=1)
    return np.r_[True, new_row] | np.r_[new_row, True]


def hausdorff_l1(
    a_points: Iterable[Sequence[float]], b_points: Iterable[Sequence[float]]
) -> float:
    """l1 Hausdorff distance between two finite nonempty point sets."""
    a = np.asarray(list(a_points), dtype=np.float64)
    b = np.asarray(list(b_points), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ShapeError("empty point set")
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]

    def directed(p: np.ndarray, q: np.ndarray) -> float:
        worst = 0.0
        for i in range(0, len(p), 512):
            chunk = p[i : i + 512]
            dist = np.abs(chunk[:, None, :] - q[None, :, :]).sum(axis=2)
            worst = max(worst, float(dist.min(axis=1).max()))
        return worst

    return max(directed(a, b), directed(b, a))
