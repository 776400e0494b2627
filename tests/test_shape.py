import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from brwre.environment import (
    Dependence,
    EnvironmentField,
    EnvironmentSpec,
    build_environment,
)
from brwre.lattice import RationalVector, StepSet, l1_norm, unit_vectors
from brwre.shape import (
    HULL_COORD_MAX,
    ShapeError,
    convex_hull,
    hausdorff_l1,
    hull_inequalities,
    passage_times,
    shape_polytope,
)

from _support import (
    function_field,
    homogeneous_env,
    iid_env,
    iter_reachable,
    law_of,
    nearest_neighbour,
    norm_estimate,
    random_env,
    sub,
)


def unit_mass_law(rng, offsets):
    """One child at one offset, the offset drawn with random masses."""
    probs = rng.dirichlet(np.ones(len(offsets)))
    return law_of(*[({y: 1}, float(p)) for y, p in zip(offsets, probs)])


def open_law_1d():
    return law_of(({(1,): 1}, 0.5), ({(-1,): 1}, 0.5))


def open_law_2d():
    return law_of(({(1, 0): 1}, 0.25), ({(-1, 0): 1}, 0.25),
                  ({(0, 1): 1}, 0.25), ({(0, -1): 1}, 0.25))


class TestPassageTimes:
    def test_fully_open_times_are_l1_norm(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 12)
        for x in range(-12, 13):
            assert ptm.t((x,)) == abs(x)

    def test_fully_open_planar(self):
        env = homogeneous_env(open_law_2d(), dimension=2)
        ptm = passage_times(env, 0.1, 8)
        for x in range(-8, 9):
            for y in range(-8, 9):
                if abs(x) + abs(y) <= 8:
                    assert ptm.t((x, y)) == abs(x) + abs(y)

    def test_origin_shift(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 6, origin=(4,))
        assert ptm.t((4,)) == 0
        assert ptm.t((7,)) == 3
        assert ptm.t((11,)) == math.inf  # outside the ball around (4,)

    def test_unreached_site_is_infinite(self):
        right = law_of(({(1,): 1}, 0.9), ({(-1,): 1}, 0.1))
        env = homogeneous_env(right)
        ptm = passage_times(env, 0.5, 10)
        assert ptm.t((3,)) == 3
        assert ptm.t((-1,)) == math.inf

    def test_bounds_when_all_unit_edges_open(self):
        env = random_env(np.random.default_rng(7))
        eps0 = env.conditions.epsilon0
        l0 = env.spec.step_set.l0_max
        ptm = passage_times(env, eps0 / 2, 20)
        for x, t in ptm.times.items():
            r = l1_norm(x)
            assert t >= r / l0 - 1e-12
            assert t <= r

    def test_delta_monotonicity(self):
        env = random_env(np.random.default_rng(8))
        grid = [0.0, 0.05, 0.1, 0.2, 0.4]
        maps = [passage_times(env, d, 15) for d in grid]
        sites = [(x,) for x in range(-15, 16)]
        for lo_m, hi_m in zip(maps, maps[1:]):
            for x in sites:
                assert lo_m.t(x) <= hi_m.t(x)

    def test_triangle_inequality(self):
        env = random_env(np.random.default_rng(9))
        eps0 = env.conditions.epsilon0
        delta = eps0 / 2
        base = passage_times(env, delta, 40)
        rng = np.random.default_rng(10)
        mids = [(int(m),) for m in rng.integers(-10, 11, size=8)]
        for x in mids:
            via = passage_times(env, delta, 20, origin=x)
            for z, tz in via.times.items():
                if l1_norm(z) > 40:
                    continue
                assert base.t(z) <= base.t(x) + tz + 1e-12

    def test_times_within_radius_are_exact(self):
        # a path of t steps moves at most t * L0, so times with t * L0 <= r
        # are the same in a radius-r ball as in a radius-2r ball; the jumps
        # of length 2 make L0 = 2 and delta closes some edges
        step_set = StepSet(tuple(unit_vectors(2)) + ((2, 0), (0, -2)))
        rng = np.random.default_rng(31)
        laws = [unit_mass_law(rng, step_set.offsets) for _ in range(3)]
        env = iid_env(laws, [0.5, 0.3, 0.2], 5, dimension=2,
                      step_set=step_set)
        l0 = step_set.l0_max
        r = 12
        for delta in (0.05, 0.12, 0.2):
            near = passage_times(env, delta, r).times
            far = passage_times(env, delta, 2 * r).times
            exact = {x: t for x, t in far.items() if t * l0 <= r}
            assert {x: t for x, t in near.items() if t * l0 <= r} == exact
            assert len(exact) > 1

    def test_rejects_nonpositive_radius(self):
        env = homogeneous_env(open_law_1d())
        with pytest.raises(ShapeError):
            passage_times(env, 0.1, 0)

    def test_origin_of_wrong_dimension_rejected(self):
        env = homogeneous_env(open_law_1d())
        with pytest.raises(ShapeError, match="dimension 2.*dimension 1"):
            passage_times(env, 0.1, 3, origin=(0, 0))
        with pytest.raises(ShapeError, match="dimension 2.*dimension 1"):
            next(iter_reachable(env, 0.1, 2, (0, 0)))

    def test_iter_reachable_checks_arguments_when_called(self):
        # the bare call raises, before anything is iterated
        env = homogeneous_env(open_law_1d())
        with pytest.raises(ShapeError, match="negative step count"):
            iter_reachable(env, 0.1, -1, (0,))
        with pytest.raises(ShapeError, match="dimension 2.*dimension 1"):
            iter_reachable(env, 0.1, 2, (0, 0))


def open_law_3d():
    return law_of(*[({y: 1}, 1.0 / 6.0)
                    for y in [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                              (0, -1, 0), (0, 0, 1), (0, 0, -1)]])


class TestMemoryPreflight:
    def test_oversized_box_raises_before_allocating(self):
        # a (2 * 10**4 + 1)**3 box: the check must fire before the box is
        # allocated
        env = homogeneous_env(open_law_3d(), dimension=3)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="cell box"):
                passage_times(env, 0.1, 10_000)
            with pytest.raises(ShapeError, match="cell box"):
                next(iter_reachable(env, 0.1, 10_000, (0, 0, 0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBfsMemory:
    def test_block_window_bfs_holds_narrow_grids(self):
        # the d = 3 BFS of the benchmark's `shape` step (horizon 24, block
        # window 1): int32 times, uint8 law indices and a box hashed in
        # slabs trace about 15 B per box cell; int64 ones traced 26 B
        units = nearest_neighbour(3).offsets
        pair = law_of(*[({u: 1, tuple(-c for c in u): 1}, 1 / 3)
                        for u in units if sum(u) > 0])
        hop = law_of(*[({u: 1}, 1 / 6) for u in units])
        spec = EnvironmentSpec(
            dimension=3, step_set=nearest_neighbour(3),
            law_support=(pair, hop), weights=(0.3, 0.7),
            dependence=Dependence("block_window", 1), master_seed=5)
        # a first small call pays the allocations of first use
        passage_times(build_environment(spec), 0.05, 2)
        env, r = build_environment(spec), 24
        tracemalloc.start()
        try:
            ptm = passage_times(env, 0.05, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ptm.grid.dtype == np.int32
        assert int((ptm.grid >= 0).sum()) == l1_ball_size(3, r)
        assert peak < 20 * (2 * r + 1) ** 3


def l1_ball_size(d, r):
    """Number of sites of Z^d with l1 norm at most r."""
    return sum(math.comb(d, k) * math.comb(r, k) * 2 ** k for k in range(d + 1))


class TestReachableSets:
    def test_parity_alternates(self):
        env = homogeneous_env(open_law_1d())
        for n, layer in enumerate(iter_reachable(env, 0.1, 6, (0,))):
            for x in layer:
                assert (x[0] - n) % 2 == 0

    def test_exactly_n_subset_of_w_n(self):
        env = random_env(np.random.default_rng(17))
        delta = env.conditions.epsilon0 / 2
        n = 8
        ptm = passage_times(env, delta, n * env.spec.step_set.l0_max)
        *_, rn = iter_reachable(env, delta, n, (0,))
        wn = set(ptm.reached(n))
        assert rn <= wn

    def test_first_layer_is_start(self):
        env = homogeneous_env(open_law_1d())
        layers = list(iter_reachable(env, 0.1, 0, (2,)))
        assert layers == [{(2,)}]


class TestNormEstimate:
    def test_half_speed_direction(self):
        env = homogeneous_env(open_law_1d())
        est = norm_estimate(env, 0.1, RationalVector.from_fractions(["1/2"]),
                            n_max=10)
        assert est.k0 == 2
        assert est.value == 0.5
        assert [j for j, _ in est.samples] == list(range(1, 11))
        assert all(v == 0.5 for _, v in est.samples)

    def test_unit_direction(self):
        env = homogeneous_env(open_law_1d())
        est = norm_estimate(env, 0.1, RationalVector.from_fractions(["1"]), 5)
        assert est.k0 == 1
        assert est.value == 1.0

    def test_unreachable_ray_is_infinite(self):
        right = law_of(({(1,): 1}, 0.9), ({(-1,): 1}, 0.1))
        env = homogeneous_env(right)
        est = norm_estimate(env, 0.5, RationalVector.from_fractions(["-1"]), 4)
        assert est.value == math.inf
        assert est.samples == ()

    def test_zero_direction_rejected(self):
        env = homogeneous_env(open_law_1d())
        with pytest.raises(ShapeError):
            norm_estimate(env, 0.1, RationalVector.from_fractions(["0"]), 5)


class TestShapePolytope:
    def test_interval_shape(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 10)
        est = shape_polytope(ptm, 10)
        assert est.hull == ((-1.0,), (1.0,))

    def test_planar_shape_is_unit_cross_polytope(self):
        env = homogeneous_env(open_law_2d(), dimension=2)
        n = 12
        ptm = passage_times(env, 0.1, n)
        est = shape_polytope(ptm, n)
        assert set(est.hull) == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                                 (0.0, -1.0)}
        assert hausdorff_l1(est.hull, [(1, 0), (0, 1), (-1, 0), (0, -1)]) == 0

    def test_zero_step_shape(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 5)
        est = shape_polytope(ptm, 0)
        assert est.hull == ((0.0,),)

    def test_n_beyond_radius_rejected(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 5)
        with pytest.raises(ShapeError):
            shape_polytope(ptm, 6)

    def test_negative_n_rejected(self):
        env = homogeneous_env(open_law_1d())
        ptm = passage_times(env, 0.1, 5)
        for n in (-1, -5):
            with pytest.raises(ShapeError):
                shape_polytope(ptm, n)


class TestPassageTimeGrid:
    """`times`, `t`, `reached` and `shape_polytope` agree with `grid`."""

    @staticmethod
    def _map(d):
        rng = np.random.default_rng(70 + d)
        step_set = nearest_neighbour(d)
        laws = [unit_mass_law(rng, step_set.offsets) for _ in range(2)]
        env = iid_env(laws, [0.5, 0.5], int(rng.integers(0, 2**31)),
                      dimension=d)
        radius = {1: 15, 2: 9, 3: 5}[d]
        origin = tuple(int(c) for c in rng.integers(-20, 21, size=d))
        delta = float(rng.uniform(0.2, 0.45))
        return passage_times(env, delta, radius, origin=origin)

    @staticmethod
    def _grid_times(ptm):
        """site -> time from the grid, one cell at a time."""
        out = {}
        for idx in np.ndindex(ptm.grid.shape):
            if ptm.grid[idx] >= 0:
                site = tuple(i - ptm.radius + o for i, o in zip(idx, ptm.origin))
                out[site] = int(ptm.grid[idx])
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_per_site_views_agree_with_grid(self, d):
        ptm = self._map(d)
        r = ptm.radius
        assert ptm.grid.shape == (2 * r + 1,) * d
        assert ptm.grid.dtype == np.int32
        want = self._grid_times(ptm)
        assert 1 < len(want) < (2 * r + 1) ** d
        assert ptm.times == want
        assert list(ptm.times) == sorted(want)
        assert all(type(c) is int for x in ptm.times for c in x)
        assert all(type(t) is int for t in ptm.times.values())
        assert ptm.times[ptm.origin] == 0
        # the box and a shell of sites outside it
        for idx in np.ndindex((2 * r + 3,) * d):
            x = tuple(i - r - 1 + o for i, o in zip(idx, ptm.origin))
            assert ptm.t(x) == want.get(x, math.inf)
        for n in (0, 1, r // 2, r):
            assert ptm.reached(n) == sorted(x for x, t in want.items() if t <= n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shape_polytope_reads_the_grid(self, d):
        ptm = self._map(d)
        ests = {n: shape_polytope(ptm, n) for n in (1, 2, ptm.radius)}
        # the shape path builds no per-site dict
        assert "times" not in vars(ptm)
        for n, est in ests.items():
            want = convex_hull([sub(x, ptm.origin) for x in ptm.reached(n)])
            assert est.hull == tuple(tuple(c / n for c in v) for v in want)
        assert "times" in vars(ptm)

class TestRowEndHull:
    """The hull from each row's end sites equals the hull of all sites."""

    @staticmethod
    def _all_site_hull(ptm, n):
        sites = [sub(x, ptm.origin) for x in ptm.reached(n)]
        return tuple(tuple(c / n for c in v) for v in convex_hull(sites))

    @staticmethod
    def _flat_vertices(sites):
        """Vertices of a collinear or coplanar set, by Qhull in the plane."""
        rel = sites - sites[0]
        _, sv, vt = np.linalg.svd(rel.astype(float))
        rank = int((sv > 1e-9 * sv[0]).sum())
        coords = rel @ vt[:rank].T
        if rank == 1:
            keep = [int(coords.argmin()), int(coords.argmax())]
        else:
            keep = ConvexHull(coords).vertices
        return {tuple(sites[i].tolist()) for i in keep}

    def _check(self, ptm, n):
        est = shape_polytope(ptm, n)
        sites = np.array([sub(x, ptm.origin) for x in ptm.reached(n)])
        if np.linalg.matrix_rank(sites - sites[0]) == sites.shape[1]:
            assert est.hull == self._all_site_hull(ptm, n)
        else:
            # a flat 3-d set: the exact vertices of the plane or segment
            want = {tuple(c / n for c in v) for v in self._flat_vertices(sites)}
            assert set(est.hull) == want == set(self._all_site_hull(ptm, n))

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_reached_sets(self, d):
        rng = np.random.default_rng(60 + d)
        step_set = nearest_neighbour(d)
        for _ in range(6):
            laws = [unit_mass_law(rng, step_set.offsets) for _ in range(2)]
            env = iid_env(laws, [0.6, 0.4], int(rng.integers(0, 2**31)),
                          dimension=d)
            delta = float(rng.uniform(0.05, 0.25))
            n = 9 if d == 2 else 6
            ptm = passage_times(env, delta, n)
            for m in (1, n // 2, n):
                self._check(ptm, m)

    @pytest.mark.parametrize("d", [2, 3])
    def test_walled_environment(self, d):
        # edges out of sites beyond the l-infinity wall close once delta
        # exceeds 0.02, so the reached set stops at a box, not the l1 ball
        inside = law_of(*[({y: 1}, 1.0 / (2 * d)) for y in unit_vectors(d)])
        outside = law_of(*[({y: 1}, p) for y, p in zip(
            unit_vectors(d), [0.02] * (2 * d - 1) + [1.0 - 0.02 * (2 * d - 1)])])
        spec = iid_env([inside, outside], [0.5, 0.5], 0, dimension=d).spec
        env = function_field(
            spec, lambda x: 0 if max(abs(c) for c in x) <= 2 else 1)
        ptm = passage_times(env, 0.05, 8)
        for m in (2, 3, 5, 8):
            self._check(ptm, m)
        est = shape_polytope(ptm, 8)
        assert len(est.hull) > 2 * d  # the wall cuts the cross-polytope


class TestHullAndDistance:
    def test_hull_1d(self):
        assert convex_hull([(0.0,), (2.0,), (1.0,)]) == [(0.0,), (2.0,)]
        assert convex_hull([(3.0,), (3.0,)]) == [(3.0,)]

    def test_hull_2d_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
        hull = convex_hull(pts)
        assert set(hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_hull_2d_collinear(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert set(hull) == {(0, 0), (3, 3)}

    def test_hull_3d_octahedron(self):
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
               (0, 0, 1), (0, 0, -1), (0, 0, 0)]
        hull = convex_hull(pts)
        assert set(hull) == set(pts) - {(0, 0, 0)}

    def test_hull_3d_flat_sets(self):
        # the hexagon of x + y + z = 0 in the unit cube, and its centre
        hexagon = [(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1),
                   (0, 1, -1), (0, -1, 1), (0, 0, 0)]
        assert set(convex_hull(hexagon)) == set(hexagon) - {(0, 0, 0)}
        # four coplanar points, one on the segment of two others
        assert convex_hull([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 2, 0)]) == [
            (0, 0, 0), (0, 2, 0), (2, 2, 0)]
        line = [(i, 2 * i, -i) for i in range(-3, 4)]
        assert convex_hull(line) == [(-3, -6, 3), (3, 6, -3)]
        assert convex_hull([(1, 2, 3), (1, 2, 3)]) == [(1, 2, 3)]

    def test_hull_of_a_thin_shell(self):
        # the 9,626 integer points with 39.5 < |x|_2 <= 40: a hull large
        # enough that quickhull compacts its dead facets (twice)
        axis = np.arange(-40, 41)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        r2 = (cube ** 2).sum(axis=1)
        shell = cube[(r2 > 39.5 ** 2) & (r2 <= 40 ** 2)]
        assert len(shell) == 9626
        hull = convex_hull(shell)
        assert len(hull) == 1422
        assert hull == qhull_vertices(shell)

    def test_hull_empty_rejected(self):
        with pytest.raises(ShapeError):
            convex_hull([])

    def test_hull_3d_needs_bounded_integers(self):
        big = HULL_COORD_MAX
        cube = [(x, y, z) for x in (-big, big) for y in (-big, big)
                for z in (-big, big)]
        assert convex_hull(cube + [(0, 0, 0)]) == sorted(cube)
        apex = (big + 1, 0, 0)
        assert convex_hull(cube + [apex]) == sorted(cube + [apex])
        with pytest.raises(ShapeError, match="integer"):
            convex_hull([(0.5, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])

    def test_hausdorff_known_values(self):
        assert hausdorff_l1([(0, 0)], [(3, 4)]) == 7.0
        assert hausdorff_l1([(0,), (1,)], [(0,), (1,)]) == 0.0
        # one-sided excess picks the farthest unmatched point
        assert hausdorff_l1([(0, 0), (5, 0)], [(0, 0)]) == 5.0

    def test_hausdorff_empty_rejected(self):
        with pytest.raises(ShapeError):
            hausdorff_l1([], [(0, 0)])


def qhull_vertices(pts):
    arr = np.array(sorted(set(map(tuple, np.asarray(pts).tolist()))))
    keep = sorted(ConvexHull(arr.astype(np.float64)).vertices)
    return list(map(tuple, arr[keep].tolist()))


def integer_sets(rng, rounds):
    """Seeded full-dimensional integer sets: uniform in a cube, subsets of a
    cube grid, points on the faces of an octahedron and points on the edges
    of a box (the last three put many points inside faces and on edges)."""
    for _ in range(rounds):
        yield rng.integers(-30, 31, size=(int(rng.integers(5, 150)), 3))
        k = int(rng.integers(2, 6))
        grid = np.stack(np.meshgrid(*[np.arange(k)] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        yield grid[rng.random(len(grid)) < 0.6]
        r, m = int(rng.integers(2, 9)), int(rng.integers(8, 80))
        a = rng.integers(0, r + 1, size=m)
        b = rng.integers(0, r - a + 1)
        signs = rng.choice([-1, 1], size=(m, 3))
        yield signs * np.stack([a, b, r - a - b], axis=1)
        size = rng.integers(1, 7, size=3)
        axis = rng.integers(0, 3, size=m)
        pts = rng.integers(0, 2, size=(m, 3)) * size
        pts[np.arange(m), axis] = rng.integers(0, size[axis] + 1)
        yield pts


def full_dimensional(pts):
    pts = np.asarray(pts)
    return len(pts) > 3 and np.linalg.matrix_rank(pts - pts[0]) == 3


def in_hull_lp(pts, q):
    """q is a convex combination of the points: the LP oracle."""
    pts = np.asarray(pts, dtype=np.float64)
    a_eq = np.vstack([pts.T, np.ones(len(pts))])
    res = linprog(np.zeros(len(pts)), A_eq=a_eq, b_eq=np.r_[q, 1.0],
                  bounds=(0, None), method="highs")
    return res.status == 0


class TestExactHull:
    """The integer Quickhull against Qhull, and its facet inequalities."""

    def test_vertices_match_qhull(self):
        rng = np.random.default_rng(2026)
        checked = 0
        for pts in integer_sets(rng, 30):
            if not full_dimensional(pts):
                continue
            tuples = list(map(tuple, pts.tolist()))
            assert convex_hull(tuples) == qhull_vertices(pts)
            assert convex_hull(pts) == qhull_vertices(pts)
            checked += 1
        assert checked >= 100
        wide = rng.integers(-HULL_COORD_MAX, HULL_COORD_MAX + 1, size=(300, 3))
        assert convex_hull(wide) == qhull_vertices(wide)

    def test_flat_sets_match_planar_qhull(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, v = rng.integers(-3, 4, size=(2, 3))
            if not np.cross(u, v).any():
                continue
            coef = rng.integers(-4, 5, size=(int(rng.integers(3, 40)), 2))
            pts = np.unique(rng.integers(-5, 6, size=3) + coef @ np.stack([u, v]),
                            axis=0)
            if np.linalg.matrix_rank(pts - pts[0]) < 2:
                continue
            assert set(convex_hull(pts)) == \
                TestRowEndHull._flat_vertices(pts)
        line = np.arange(-4, 6)[:, None] * np.array([[2, -1, 3]]) + 1
        assert convex_hull(rng.permutation(line)) == [(-7, 5, -11), (11, -4, 16)]

    def test_inequalities_match_qhull_equations(self):
        rng = np.random.default_rng(11)
        for pts in integer_sets(rng, 8):
            if not full_dimensional(pts):
                continue
            rows, bounds = hull_inequalities(pts)
            eq = ConvexHull(pts.astype(np.float64)).equations
            probes = np.vstack([pts, rng.integers(
                pts.min() - 2, pts.max() + 3, size=(300, 3))])
            exact = (probes @ rows.T <= bounds).all(axis=1)
            qhull = (probes @ eq[:, :3].T + eq[:, 3] <= 1e-9).all(axis=1)
            assert np.array_equal(exact, qhull)
            assert exact[:len(pts)].all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inequalities_of_flat_sets(self, d):
        # single points, segments and (in d = 3) planar polygons, against
        # the LP oracle on probes in and beside their affine hulls
        rng = np.random.default_rng(40 + d)
        for rank in range(d):
            for _ in range(3):
                base = rng.integers(-3, 4, size=d)
                span = rng.integers(-2, 3, size=(rank, d))
                coef = rng.integers(-3, 4, size=(int(rng.integers(1, 12)), rank))
                pts = base + coef @ span
                probes = base + rng.integers(-4, 5, size=(25, rank)) @ span
                probes = np.vstack([probes, probes[:5] + rng.integers(
                    -1, 2, size=(5, d))])
                rows, bounds = hull_inequalities(pts)
                for q in probes:
                    assert (rows @ q <= bounds).all() == in_hull_lp(pts, q)


class TestHullContract:
    """Exact integers of any size in, typed errors for anything else."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inequalities_beyond_the_bound(self, d):
        # {0, 2^19 e_i}: the coordinates exceed HULL_COORD_MAX, so the hull
        # runs in Python ints; probes on and beside its faces
        big = 2 * HULL_COORD_MAX
        pts = np.vstack([np.zeros(d, dtype=np.int64),
                         big * np.eye(d, dtype=np.int64)])
        rows, bounds = hull_inequalities(pts)
        rng = np.random.default_rng(70 + d)
        probes = np.vstack([
            pts,
            rng.integers(-big // 4, big + big // 4, size=(40, d)),
            rng.integers(-2, 3, size=(20, d)),
            big // d + rng.integers(-2, 3, size=(20, d)),
        ])
        for q in probes:
            assert (rows @ q <= bounds).all() == in_hull_lp(pts, q)
        assert sorted(convex_hull(pts)) == sorted(map(tuple, pts.tolist()))

    def test_non_integral_low_dimensions_rejected(self):
        for pts in ([(0.5,), (2.0,)], [(0, 0), (1, 0.25), (0, 1)],
                    np.array([[0.0, 0.0], [1.5, 1.0]])):
            with pytest.raises(ShapeError, match="integer"):
                convex_hull(pts)
            with pytest.raises(ShapeError, match="integer"):
                hull_inequalities(pts)


class TestOpenMoves:
    def test_all_open_laws_read_no_law_indices(self, monkeypatch):
        units = nearest_neighbour(2).offsets
        pair = law_of(*[({u: 1, tuple(-c for c in u): 1}, 0.5)
                        for u in units[::2]])
        env = iid_env([pair, open_law_2d()], [0.4, 0.6], 3, dimension=2)
        calls = []
        orig = EnvironmentField.law_index_axes

        def counting(self, axes):
            calls.append(axes)
            return orig(self, axes)

        monkeypatch.setattr(EnvironmentField, "law_index_axes", counting)
        ptm = passage_times(env, 0.2, 10)
        assert calls == []
        assert np.array_equal(ptm.grid, np.where(
            np.add.outer(*[np.abs(np.arange(-10, 11))] * 2) <= 10,
            np.add.outer(*[np.abs(np.arange(-10, 11))] * 2), -1))
        # at delta 0.3 the uniform hop closes every unit step
        passage_times(env, 0.3, 10)
        assert len(calls) == 1
