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


def _moves(shape: tuple[int, ...], offsets: Sequence[Site]
           ) -> list[tuple[int, tuple[slice, ...], tuple[slice, ...]]]:
    """(j, src, dst) per offset y_j that fits the box: box[dst] is box[src]
    moved by +y_j."""
    moves = []
    for j, y in enumerate(offsets):
        if all(abs(yi) < s for s, yi in zip(shape, y)):
            moves.append((
                j,
                tuple(slice(max(0, -c), s - max(0, c)) for s, c in zip(shape, y)),
                tuple(slice(max(0, c), s - max(0, -c)) for s, c in zip(shape, y)),
            ))
    return moves


def _ball_mask(shape: tuple[int, ...], center: Sequence[int], radius: int) -> np.ndarray:
    # the l1 distances as a sum of per-axis distances over an open mesh
    return sum(np.ix_(*[np.abs(np.arange(s) - c)
                        for s, c in zip(shape, center)])) <= radius


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
    moves = _moves(ball.shape, offsets)
    while frontier.any():
        t += 1
        nxt = np.zeros_like(frontier)
        for j, src, dst in moves:
            nxt[dst] |= frontier[src] & open_m[j][src]
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
    moves = _moves(cur.shape, offsets)
    for _ in range(n):
        nxt = np.zeros_like(cur)
        for j, src, dst in moves:
            nxt[dst] |= cur[src] & open_m[j][src]
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


HULL_COORD_MAX = 2 ** 18  # int64 orientation tests stay exact: 48 R^3 < 2^63


def _int_coords(points) -> np.ndarray:
    """Points as an int64 array; ShapeError unless integers within the bound."""
    arr = np.asarray(points)
    if arr.size and np.abs(arr).max() > HULL_COORD_MAX:
        raise ShapeError(f"hull coordinates beyond +-{HULL_COORD_MAX}")
    ints = arr.astype(np.int64)
    if not np.array_equal(ints, arr):
        raise ShapeError("exact hulls need integer coordinates")
    return ints


def _cross(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise cross product, without `np.cross`'s per-call set-up."""
    return (e[..., [1, 2, 0]] * f[..., [2, 0, 1]]
            - e[..., [2, 0, 1]] * f[..., [1, 2, 0]])


def _affine_frame(pts: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Affine hull of distinct sorted integer points, d <= 3.

    Returns (eq, keep): x lies in the affine hull iff eq @ (x - pts[0]) is
    zero, and the projection onto the coordinates `keep` is one-to-one on
    it (a dropped coordinate is one along which a normal is nonzero).
    """
    d = pts.shape[1]
    eye = np.eye(d, dtype=np.int64)
    if len(pts) == 1:
        return eye, []
    diffs = pts[1:] - pts[0]
    u = diffs[0]
    along = [int(np.flatnonzero(u)[0])]
    if d == 1:
        return eye[:0], [0]
    if d == 2:
        w = np.array([-u[1], u[0]])
        return (eye[:0], [0, 1]) if (diffs @ w).any() else (w[None], along)
    crosses = _cross(u, diffs)
    independent = np.flatnonzero(crosses.any(axis=1))
    if not len(independent):
        return _cross(u, eye), along
    w = crosses[independent[0]]
    if (diffs @ w).any():
        return eye[:0], [0, 1, 2]
    return w[None], [i for i in range(3) if i != int(np.flatnonzero(w)[0])]


def _quickhull(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Facets of the hull of full-dimensional integer points in R^3.

    `pts` is int64 within HULL_COORD_MAX, or an object array of Python
    ints, whose exact arithmetic has no bound.

    Quickhull (Barber, Dobkin & Huhdanpaa 1996) with exact predicates:
    each step adds the point farthest above its facet, replaces the facets
    it sees strictly (a coplanar point sees nothing) by a cone over their
    horizon, and hands their outside points to the new facets.  Facets
    live in arrays with an alive mask, so a step is vectorized over the
    facets.  Returns (tri, normals, offsets) of the final facets: point
    indices counter-clockwise seen from outside, and primitive integer
    normals with normals @ x <= offsets on the hull, equality on the facet.
    """
    m = len(pts)
    base = pts[0]
    i1 = int(np.abs(pts - base).sum(axis=1).argmax())
    cross = _cross(pts[i1] - base, pts - base)
    i2 = int(np.abs(cross).sum(axis=1).argmax())
    i3 = int(np.abs((pts - base) @ cross[i2]).argmax())
    if _cross(pts[i1] - base, pts[i2] - base) @ (pts[i3] - base) < 0:
        i1, i2 = i2, i1
    # the positively oriented simplex 0, i1, i2, i3: its four facets,
    # counter-clockwise seen from outside, and the facet across each edge
    # (edge j of a facet runs from its corner j to corner j + 1)
    s0, s1, s2, s3 = simplex = [0, i1, i2, i3]
    # facet arrays with spare rows, doubled when full
    tri, nbr = (np.zeros((64, 3), dtype=np.int64) for _ in range(2))
    normals = np.zeros((64, 3), dtype=pts.dtype)
    offsets = np.zeros(64, dtype=pts.dtype)
    alive = np.zeros(64, dtype=bool)
    tri[:4] = [[s0, s2, s1], [s0, s1, s3], [s1, s2, s3], [s0, s3, s2]]
    nbr[:4] = [[3, 2, 1], [0, 2, 3], [0, 3, 1], [1, 2, 0]]
    count = live = 4

    def plane(new):
        corner = pts[tri[new]]
        normals[new] = _cross(corner[:, 1] - corner[:, 0],
                              corner[:, 2] - corner[:, 0])
        offsets[new] = (normals[new] * corner[:, 0]).sum(axis=1)
        alive[new] = True

    # owner[i] is a facet point i lies strictly above, by height[i] > 0;
    # owner -1 and height 0 once the point is inside or on the hull
    owner = np.full(m, -1, dtype=np.int64)
    height = np.zeros(m, dtype=pts.dtype)

    def assign(cand, facets):
        above = pts[cand] @ normals[facets].T - offsets[facets]
        best = above.argmax(axis=1)
        top = above[np.arange(len(cand)), best]
        owner[cand] = np.where(top > 0, facets[best], -1)
        height[cand] = np.maximum(top, 0)

    plane(np.arange(4))
    rest = np.ones(m, dtype=bool)
    rest[simplex] = False
    assign(np.flatnonzero(rest), np.arange(4))
    start = np.zeros(m, dtype=np.int64)
    while True:
        p = int(height.argmax())  # the farthest point above its own facet
        if height[p] == 0:
            break
        height[p] = 0
        if count > 64 + 2 * live:
            # drop the dead facets, renumbering neighbours and owners
            keep = np.flatnonzero(alive[:count])
            renum = np.zeros(count, dtype=np.int64)
            renum[keep] = np.arange(live)
            nbr[:live] = renum[nbr[keep]]
            for x in (tri, normals, offsets, alive):
                x[:live] = x[keep]
            alive[live:] = False
            owner = np.where(height > 0, renum[owner], -1)
            count = live
        seen = alive[:count] & (normals[:count] @ pts[p] > offsets[:count])
        vis = np.flatnonzero(seen)
        # horizon: the edges of seen facets whose neighbour is not seen
        fi, ei = np.nonzero(~seen[nbr[vis]])
        old = vis[fi]
        a, b = tri[old, ei], tri[old, (ei + 1) % 3]
        across = nbr[old, ei]
        new = np.arange(count, count + len(a))
        while count + len(a) > len(alive):
            tri, nbr, normals, offsets, alive = (
                np.concatenate([x, np.zeros_like(x)])
                for x in (tri, nbr, normals, offsets, alive))
        tri[new, 0], tri[new, 1], tri[new, 2] = a, b, p
        # new facet (a, b, p) borders `across` on ab, the new facet that
        # starts at b on bp, and the one that ends at a on pa
        start[a] = new
        nbr[new, 0] = across
        nbr[new, 1] = start[b]
        nbr[start[b], 2] = new
        nbr[across, (nbr[across] == old[:, None]).argmax(axis=1)] = new
        alive[vis] = False
        plane(new)
        count += len(new)
        live += len(new) - len(vis)
        assign(np.flatnonzero(seen[owner] & (height > 0)), new)
    keep = np.flatnonzero(alive[:count])
    g = np.gcd.reduce(np.abs(normals[keep]), axis=1)
    return tri[keep], normals[keep] // g[:, None], offsets[keep] // g


def _hull_3d(points, wide: bool = False) -> list[tuple[float, ...]]:
    """Hull vertices in lexicographic order, flat sets included.

    Coordinates must be integers of absolute value at most HULL_COORD_MAX
    (ShapeError otherwise); with `wide`, beyond it too, hulled in Python
    ints, which suits a few points.  A full-dimensional set is hulled by
    `_quickhull`; its vertices are the points whose incident facet planes
    span R^3, which leaves out points inside a face or on an edge, as
    Qhull's vertices do.  A coplanar set is hulled in 2-D on the
    coordinates `_affine_frame` keeps (an affine map, injective on the
    plane); a collinear set has its two lexicographic extremes.
    """
    if wide:
        pts = np.array(sorted(set(map(tuple, points))), dtype=object)
        if any(type(c) is not int for c in pts.ravel().tolist()):
            raise ShapeError("exact hulls need integer coordinates")
        ints = pts
    else:
        pts = np.unique(np.asarray(points), axis=0)
        ints = _int_coords(pts)
    _, keep = _affine_frame(ints)
    if len(keep) < 2:
        ids = [0, len(pts) - 1] if len(pts) > 1 else [0]
    elif len(keep) == 2:
        back = {p: i for i, p in enumerate(map(tuple, ints[:, keep].tolist()))}
        ids = sorted(back[v] for v in _hull_2d(list(back)))
    else:
        tri, normals, _ = _quickhull(ints)
        # distinct primitive normals of the facets at each point: a vertex
        # has three or more, a point on an edge two, inside a face one
        planes: dict[tuple, int] = {}
        plane = [planes.setdefault(v, len(planes))
                 for v in map(tuple, normals.tolist())]
        incidence = np.unique(np.column_stack(
            [tri.ravel(), np.repeat(plane, 3)]), axis=0)
        at, count = np.unique(incidence[:, 0], return_counts=True)
        ids = at[count >= 3]
    return list(map(tuple, pts[ids].tolist()))


def hull_inequalities(points) -> tuple[np.ndarray, np.ndarray]:
    """Integer (A, b) with hull(points) = {x : A @ x <= b}, for d <= 3.

    Integer points as for `_hull_3d`.  A flat set contributes each
    equation of its affine hull as two opposite rows, and bounds its hull
    inside that plane or line on the coordinates `_affine_frame` keeps.
    """
    pts = np.unique(_int_coords(points), axis=0)
    d = pts.shape[1]
    eq, keep = _affine_frame(pts)
    if len(keep) == 3:
        _, rows, bounds = _quickhull(pts)
    else:
        flat = pts[:, keep]
        if len(keep) == 2:
            # outward edge normals of the counter-clockwise polygon
            ring = np.array(_hull_2d(list(map(tuple, flat.tolist()))))
            edge = np.roll(ring, -1, axis=0) - ring
            sub = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
            bounds = (sub * ring).sum(axis=1)
        elif len(keep) == 1:
            sub = np.array([[1], [-1]])
            bounds = np.array([flat.max(), -flat.min()])
        else:
            sub = np.zeros((0, 0), dtype=np.int64)
            bounds = np.zeros(0, dtype=np.int64)
        rows = np.zeros((len(sub), d), dtype=np.int64)
        rows[:, keep] = sub
    at = eq @ pts[0]
    return np.concatenate([eq, -eq, rows]), np.concatenate([at, -at, bounds])


def convex_hull(points) -> list[tuple[float, ...]]:
    """Hull vertices of d-tuples or of an (m, d) array, d <= 3."""
    if not len(points):
        raise ShapeError("empty point set")
    d = len(points[0])
    if d < 3 and isinstance(points, np.ndarray):
        points = list(map(tuple, points.tolist()))
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
    hull = tuple(tuple(c / n for c in v)
                 for v in convex_hull(sites[_row_ends(sites)]))
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
