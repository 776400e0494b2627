"""Passage times, reachability sets and limit-shape estimates.

An edge x -> x+y is delta-open when the law at x sends at least one child to
offset y with probability strictly greater than delta.  T(origin, x) is the
minimal number of steps along delta-open edges, computed by BFS truncated to
the l1 ball of a caller-chosen radius; a time t with t * L0 <= radius is
exact, since every path of t steps stays inside that ball.  W(n) =
{x : T <= n}, which `PassageTimeMap.reached(n)` lists, scaled by 1/n
approximates the limit shape; `shape_polytope` gives the hull of W(n)/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .environment import EnvironmentField, _box_axes, check_box_memory
from .lattice import Site

INF = math.inf


class ShapeError(ValueError):
    pass


def _open_moves(
    env: EnvironmentField, delta: float, start: Site, radius: int
) -> list[tuple[tuple[slice, ...], tuple[slice, ...], np.ndarray | None]]:
    """One delta-open step on the box start +- radius: (dst, src, open) per
    offset y that fits the box, where box[dst] is box[src] moved by +y and
    `open` is True where the edge out of box[src] along y is open, or None
    when every law opens y.  The law indices of the box are read only if
    some law closes some offset.

    Raises ShapeError if `start` does not have the environment's dimension
    or, before anything is allocated, if the box would not fit in the
    memory budget of `check_box_memory`.
    """
    d = env.spec.dimension
    if len(start) != d:
        raise ShapeError(f"start {start} has dimension {len(start)}, "
                         f"the environment dimension {d}")
    lo = tuple(c - radius for c in start)
    hi = tuple(c + radius for c in start)
    side = 2 * radius + 1
    check_box_memory(side ** d, ShapeError, f"a reachability BFS over {lo}..{hi}")
    offsets = env.spec.step_set.sorted_offsets()
    law_open = np.array(
        [
            [law.step_mass(y) > delta for y in offsets]
            for law in env.spec.law_support
        ],
        dtype=bool,
    )
    idx = None if law_open.all() else env.law_index_axes(_box_axes(lo, hi))
    moves = []
    for j, y in enumerate(offsets):
        if all(abs(c) < side for c in y):
            src = tuple(slice(max(0, -c), side - max(0, c)) for c in y)
            dst = tuple(slice(max(0, c), side - max(0, -c)) for c in y)
            moves.append((dst, src, None if law_open[:, j].all()
                          else law_open[idx[src], j]))
    return moves


def _advance(frontier: np.ndarray, moves) -> np.ndarray:
    """The sites of the box one open step from `frontier`."""
    nxt = np.zeros_like(frontier)
    for dst, src, open_ in moves:
        nxt[dst] |= frontier[src] if open_ is None else frontier[src] & open_
    return nxt


@dataclass(frozen=True, eq=False)
class PassageTimeMap:
    """Passage times from `origin` on the BFS box origin +- radius.

    `grid[x - origin + radius]` is T(origin, x), and -1 where x was not
    reached (outside the l1 ball of `radius`, or not reached inside it).
    It is int32, int64 only for a box of 2**31 cells or more (a time is
    below the box's cell count).
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
    moves = _open_moves(env, delta, origin, radius)
    center = (radius,) * d
    # the l1 distances as a sum of per-axis distances over an open mesh, in
    # the smallest unsigned dtype that holds d * radius
    dist = np.abs(np.arange(-radius, radius + 1)).astype(
        np.min_scalar_type(d * radius))
    ball = sum(np.ix_(*[dist] * d)) <= radius

    times = np.full(ball.shape, -1, dtype=np.int32
                    if ball.size <= np.iinfo(np.int32).max else np.int64)
    frontier = np.zeros(ball.shape, dtype=bool)
    frontier[center] = True
    times[center] = 0
    t = 0
    while frontier.any():
        t += 1
        frontier = _advance(frontier, moves)
        frontier &= ball & (times < 0)
        times[frontier] = t
    return PassageTimeMap(delta, origin, radius, times)


@dataclass(frozen=True, eq=False)
class ShapeEstimate:
    """The vertices of the convex hull of W(n)/n."""

    delta: float
    n: int
    hull: tuple[tuple[float, ...], ...]


HULL_COORD_MAX = 2 ** 18  # int64 orientation tests stay exact: 48 R^3 < 2^63


def _exact_points(points) -> np.ndarray:
    """The distinct points of an (m, d) array or of d-tuples, d <= 3, in
    lexicographic order, as exact integers.

    They are int64 when every |coordinate| is at most HULL_COORD_MAX, where
    the int64 orientation tests stay exact, and an object array of Python
    ints otherwise.  ShapeError on an empty set or a non-integer coordinate.
    """
    # a list goes through Python ints: numpy would turn ints beyond int64
    # into floats
    arr = points if isinstance(points, np.ndarray) else np.array(points, dtype=object)
    if arr.ndim != 2 or not len(arr) or not 1 <= arr.shape[1] <= 3:
        raise ShapeError("a hull needs a nonempty (m, d) point set, d <= 3")
    if arr.dtype.kind not in "iu":
        flat = arr.ravel().tolist()
        try:
            ints = [int(c) for c in flat]
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != flat:
            raise ShapeError("exact hulls need integer coordinates")
        arr = np.array(ints, dtype=object).reshape(arr.shape)
    arr = arr.astype(np.int64 if np.abs(arr).max() <= HULL_COORD_MAX else object)
    arr = arr[np.lexsort(arr.T[::-1])]
    return arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]


def _hull_2d(pts: np.ndarray) -> list[int]:
    """Andrew's monotone chain on distinct planar integer points that span
    the plane: the ids of the hull's vertices in counter-clockwise order,
    from the lexicographically least.  Python ints, exact at any size."""
    pts = sorted(zip(*pts.T.tolist(), range(len(pts))))  # (x, y, id)

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
    return [p[2] for p in lower[:-1] + upper[:-1]]


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

    `pts` is as `_exact_points` returns it: int64 within HULL_COORD_MAX,
    or an object array of Python ints, whose exact arithmetic has no bound.

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


def _hull(pts: np.ndarray, *, with_ids: bool
          ) -> tuple[list[int] | None, np.ndarray, np.ndarray]:
    """(ids, A, b) of the hull of `_exact_points` output: the ids of its
    vertices, and integer A, b with hull = {x : A @ x <= b}.

    A full-dimensional 3-D set is hulled by `_quickhull`, and its vertex
    ids come from `_facet_vertices` only `with_ids` (None otherwise).
    A polygon (a full 2-D set, or a coplanar 3-D one on the coordinates
    `_affine_frame` keeps, an affine map injective on its plane) is hulled
    by `_hull_2d`: counter-clockwise ids, one row per edge.  A segment has
    its two lexicographic extremes, a point itself.  A flat set's affine
    hull enters A as its equations, each as two opposite rows.
    """
    d = pts.shape[1]
    eq, keep = _affine_frame(pts)
    if len(keep) == 3:
        tri, rows, bounds = _quickhull(pts)
        ids = _facet_vertices(tri, rows) if with_ids else None
    else:
        flat = pts[:, keep]
        if len(keep) == 2:
            ids = _hull_2d(flat)
            # outward edge normals of the counter-clockwise polygon
            edge = flat[np.roll(ids, -1)] - flat[ids]
            sub = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
        elif keep:
            ids = [0, len(pts) - 1]
            sub = np.array([[-1], [1]])
        else:
            ids = [0]
            sub = np.zeros((0, 0), dtype=np.int64)
        rows = np.zeros((len(sub), d), dtype=pts.dtype)
        rows[:, keep] = sub
        bounds = (sub * flat[ids]).sum(axis=1)
    at = eq @ pts[0]
    return ids, np.concatenate([eq, -eq, rows]), np.concatenate([at, -at, bounds])


def _facet_vertices(tri: np.ndarray, rows: np.ndarray) -> list[int]:
    """The ids of the vertices of `_quickhull`'s facets, lexicographic.

    They are the points whose incident facet planes span R^3: the facets
    at a vertex have three or more distinct primitive normals, at a point
    on an edge two, at a point inside a face one.
    """
    planes: dict[tuple, int] = {}
    plane = [planes.setdefault(v, len(planes))
             for v in map(tuple, rows.tolist())]
    incidence = np.unique(np.column_stack(
        [tri.ravel(), np.repeat(plane, 3)]), axis=0)
    point, count = np.unique(incidence[:, 0], return_counts=True)
    return point[count >= 3].tolist()


def convex_hull(points) -> list[tuple[int, ...]]:
    """Hull vertices of an (m, d) array or of d-tuples, d <= 3.

    Coordinates are integers of any size (`_exact_points`).  The vertices
    come as tuples of Python ints: counter-clockwise from the
    lexicographically least for a polygon in d = 2, lexicographic
    otherwise.  Points inside a face or on an edge are not vertices.
    """
    pts = _exact_points(points)
    ids, _, _ = _hull(pts, with_ids=True)
    if pts.shape[1] == 3:
        ids = sorted(ids)
    return list(map(tuple, pts[ids].tolist()))


def hull_inequalities(points) -> tuple[np.ndarray, np.ndarray]:
    """Integer (A, b) with hull(points) = {x : A @ x <= b}, for d <= 3.

    Points as for `convex_hull`.  A and b are int64 within HULL_COORD_MAX
    and Python ints beyond it.  A flat set contributes each equation of
    its affine hull as two opposite rows, and bounds its hull inside that
    plane or line on the coordinates `_affine_frame` keeps.
    """
    _, rows, bounds = _hull(_exact_points(points), with_ids=False)
    return rows, bounds


def shape_polytope(ptm: PassageTimeMap, n: int) -> ShapeEstimate:
    """The convex hull of the normalized reachable set W(n)/n.

    W(n) is read off `ptm.grid`; `np.argwhere` lists it in lexicographic
    order, relative to the origin once the radius is subtracted.
    """
    if not 0 <= n <= ptm.radius:
        raise ShapeError(f"n={n} is outside 0..{ptm.radius}, the map radius")
    if n == 0:
        return ShapeEstimate(ptm.delta, 0, (tuple(0.0 for _ in ptm.origin),))
    sites = np.argwhere((ptm.grid >= 0) & (ptm.grid <= n)) - ptm.radius
    # hull on the integer sites: exact arithmetic, no float-collinearity noise
    hull = tuple(tuple(c / n for c in v)
                 for v in convex_hull(sites[_row_ends(sites)]))
    return ShapeEstimate(ptm.delta, n, hull)


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
