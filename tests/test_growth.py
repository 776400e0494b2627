import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from brwre import expectation
from brwre.growth import (
    GrowthError,
    _outside_hull,
    beta_estimate,
    beta_profile,
    classify_by_beta,
)
from brwre.lattice import RationalVector, StepSet
from brwre.shape import _row_ends, convex_hull

from _support import (
    borderline_law,
    doubling_law,
    drift_law,
    grid_1d,
    homogeneous_env,
    iid_env,
    law_of,
    nearest_neighbour,
    random_env,
    total_growth,
)


def rv(*fracs):
    return RationalVector.from_fractions([str(f) for f in fracs])


def binomial_rate(t, x):
    """log m_t(x) / t for the homogeneous unit-mean-per-direction walk."""
    return math.log(math.comb(t, (t + x) // 2)) / t


def doubling_rate(a):
    """ln 2 - I(a): the growth exponent of the doubling law along slope a."""
    return math.log(2.0) - sum((1 + s * a) / 2 * math.log(1 + s * a)
                               for s in (1, -1) if 1 + s * a > 0)


def two_point_rate(a, p):
    """-I(a) of a +-1 step taken to the right with probability p."""
    return -sum((1 + s * a) / 2 * math.log((1 + s * a) / (2 * w))
                for s, w in ((1, p), (-1, 1 - p)) if 1 + s * a > 0)


def random_law_d2(rng):
    """Random d = 2 law: one or two children on each unit vector."""
    units = nearest_neighbour(2).offsets
    probs = rng.dirichlet(np.ones(len(units)))
    return law_of(*[({y: int(rng.integers(1, 3))}, float(p))
                    for y, p in zip(units, probs)])


class TestBetaEstimate:
    @pytest.mark.parametrize("n", [49, 50])
    def test_doubling_law_matches_closed_form(self, n):
        # Lambda_n = log(2 cosh t) at every n, so neither parity nor the
        # local-CLT correction of log m_n(na)/n enters
        env = homogeneous_env(doubling_law())
        prof = beta_profile(env, grid_1d(Fraction(-1), Fraction(1),
                                         Fraction(1, 10)), n)
        for a, est in prof.grid:
            assert not est.minus_infinity
            assert abs(est.value - doubling_rate(a.as_floats()[0])) <= 1e-12

    def test_product_form_d2_matches_closed_form(self):
        # diagonal steps with mu_(s1,s2) = 2 p(s1) q(s2): Lambda splits into
        # ln 2 + Lambda_p(t1) + Lambda_q(t2), and so does its dual
        p, q = 0.7, 0.4
        diag = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
        law = law_of(*[({y: 2}, (p if y[0] > 0 else 1 - p)
                        * (q if y[1] > 0 else 1 - q)) for y in diag])
        steps = StepSet(nearest_neighbour(2).offsets + tuple(diag))
        env = homogeneous_env(law, dimension=2, step_set=steps)
        dirs = [rv(Fraction(i, 4), Fraction(j, 3))
                for i in range(-4, 5) for j in range(-3, 4)]
        for a, est in beta_profile(env, dirs, 15).grid:
            a1, a2 = a.as_floats()
            want = math.log(2.0) + two_point_rate(a1, p) + two_point_rate(a2, q)
            assert abs(est.value - want) <= 1e-12

    def test_origin_matches_central_binomial(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv(0), 50)
        assert not est.minus_infinity
        assert abs(est.value - math.log(2.0)) <= 1e-12
        # the diagnostic point value carries the local-CLT bias
        assert est.point == pytest.approx(binomial_rate(50, 0), abs=1e-12)
        assert est.point < est.value

    def test_half_direction_matches_binomial(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv("1/2"), 12)
        assert abs(est.value - doubling_rate(0.5)) <= 1e-12
        assert est.point == pytest.approx(binomial_rate(12, 6), abs=1e-12)
        # 25/2 is not a site, and odd sites carry no mass at even n
        assert beta_estimate(env, rv("1/2"), 25).point == float("-inf")
        assert beta_estimate(env, rv("1/50"), 50).point == float("-inf")

    def test_boundary_direction_is_zero(self):
        # a=1 counts only the all-right path, expectation 1 at every time
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv(1), 20)
        assert not est.minus_infinity
        assert abs(est.value) <= 1e-12

    def test_unreachable_direction(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv("3/2"), 6)
        assert est.minus_infinity
        assert est.value == float("-inf")

    def test_origin_unreachable_under_one_way_law(self):
        one_way = law_of(({(1,): 1}, 1.0), ({(-1,): 1}, 0.0))
        est = beta_estimate(homogeneous_env(one_way), rv(0), 10)
        assert est.minus_infinity
        assert est.value == float("-inf")

    def test_horizon_positive_required(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(GrowthError):
            beta_estimate(env, rv(0), 0)


class TestBetaProfile:
    def test_profile_matches_single_direction_runs(self):
        env = homogeneous_env(drift_law())
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 2))
        prof = beta_profile(env, dirs, 10)
        for a, est in prof.grid:
            alone = beta_estimate(env, a, 10)
            assert est.value == pytest.approx(alone.value, abs=1e-12)
            assert est.point == alone.point

    def test_sup_beta_is_grid_max(self):
        env = homogeneous_env(drift_law())
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 5))
        prof = beta_profile(env, dirs, 20)
        finite = [e.value for _, e in prof.grid if not e.minus_infinity]
        assert prof.sup_beta == max(finite)

    def test_duplicate_directions_rejected(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(GrowthError):
            beta_profile(env, [rv(0), rv(0)], 5)

    def test_find(self):
        env = homogeneous_env(doubling_law())
        prof = beta_profile(env, [rv(0), rv("1/2")], 6)
        assert prof.find(rv("1/2")).a == rv("1/2")
        with pytest.raises(GrowthError):
            prof.find(rv("1/4"))

    @pytest.mark.parametrize("seed", range(4))
    def test_sup_beta_at_most_total_rate_d1(self, seed):
        # t = 0 gives the total rate, and the minimizer starts there
        env = random_env(np.random.default_rng(seed))
        prof = beta_profile(env, grid_1d(Fraction(-1), Fraction(1),
                                         Fraction(1, 8)), 40)
        assert prof.sup_beta <= prof.total_rate + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_sup_beta_at_most_total_rate_d2(self, seed):
        rng = np.random.default_rng(100 + seed)
        env = iid_env([random_law_d2(rng), random_law_d2(rng)], [0.4, 0.6],
                      int(rng.integers(0, 2**31)), dimension=2)
        dirs = [rv(Fraction(i, 4), Fraction(j, 4))
                for i in range(-4, 5) for j in range(-4, 5)]
        prof = beta_profile(env, dirs, 20)
        assert prof.sup_beta <= prof.total_rate + 1e-12


class TestBHull:
    def test_interior_interval_with_interpolated_ends(self):
        # drift with branching: positive rates near the favoured drift,
        # negative at the extremes, so the zero crossings are interior
        env = homogeneous_env(drift_law())
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 5))
        prof = beta_profile(env, dirs, 30)
        assert prof.b_hull, "expected a nonempty growth region"
        (lo,), (hi,) = prof.b_hull[0], prof.b_hull[-1]
        assert -1.0 < lo < hi < 1.0
        vals = {float(a.as_floats()[0]): e.value for a, e in prof.grid
                if not e.minus_infinity}
        assert vals[0.6] > 0.0  # favoured drift (0.84 - 0.21) / 1.05
        assert vals[1.0] < 0.0 and vals[-1.0] < 0.0

    def test_interpolation_formula(self):
        env = homogeneous_env(drift_law())
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 5))
        prof = beta_profile(env, dirs, 30)
        pairs = sorted(
            (a.as_floats()[0], e.value) for a, e in prof.grid
            if not e.minus_infinity)
        roots = []
        for (x0, v0), (x1, v1) in zip(pairs, pairs[1:]):
            if (v0 < 0.0 <= v1) or (v1 < 0.0 <= v0):
                roots.append(x0 + (x1 - x0) * (0.0 - v0) / (v1 - v0))
        assert prof.b_hull[0][0] == pytest.approx(min(roots))
        assert prof.b_hull[-1][0] == pytest.approx(max(roots))

    def test_unbranched_walk_grows_only_along_its_drift(self):
        # a plain biased walk keeps total mass 1, so sup beta = 0, taken at
        # the drift a = 0.4 alone; every other direction decays
        walk = law_of(({(1,): 1}, 0.7), ({(-1,): 1}, 0.3))
        env = homogeneous_env(walk)
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 5))
        prof = beta_profile(env, dirs, 25)
        assert abs(prof.sup_beta) <= 1e-12
        assert abs(prof.find(rv("2/5")).value) <= 1e-12
        assert all(e.value < -1e-3 for a, e in prof.grid if a != rv("2/5"))
        assert prof.b_hull in ((), ((0.4,),))

    def test_d3_grid_beyond_the_int64_hull_bound(self):
        # kept directions (1/q, 0, 0) for q = 5 ... 17 with (0, 1/3, 0),
        # (0, 0, 1/3) and 0: their common denominator 6,126,120 puts the
        # numerators up to 1,225,224, beyond HULL_COORD_MAX, so the hull
        # runs in Python ints; the points (1/q, 0, 0), q > 5, lie on an edge
        cube = law_of(*[({u: 2}, 1 / 6) for u in nearest_neighbour(3).offsets])
        env = homogeneous_env(cube, dimension=3)
        dirs = [rv(f"1/{q}", 0, 0) for q in (5, 7, 8, 9, 11, 13, 17)]
        dirs += [rv(0, "1/3", 0), rv(0, 0, "1/3"), rv(0, 0, 0)]
        prof = beta_profile(env, dirs, 6)
        assert all(e.value >= 0.0 for _, e in prof.grid)
        assert prof.b_hull == ((0.0, 0.0, 0.0), (0.0, 0.0, 1 / 3),
                               (0.0, 1 / 3, 0.0), (0.2, 0.0, 0.0))

    def test_d2_grid_beyond_the_int64_hull_bound(self):
        # the common denominator of (1/q, 0), (0, 1/3), 0 and (-1/29, -1/31)
        # puts the numerators beyond HULL_COORD_MAX; the polygon comes
        # counter-clockwise from its lexicographically least vertex
        split = law_of(*[({u: 2}, 1 / 4) for u in nearest_neighbour(2).offsets])
        env = homogeneous_env(split, dimension=2)
        dirs = [rv(f"1/{q}", 0) for q in (5, 7, 8, 9, 11, 13, 17, 19, 23)]
        dirs += [rv(0, "1/3"), rv(0, 0), rv("-1/29", "-1/31")]
        prof = beta_profile(env, dirs, 6)
        assert prof.b_hull == ((-1 / 29, -1 / 31), (0.2, 0.0), (0.0, 1 / 3))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_wide_hull_matches_int64_hull(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            pts = rng.integers(-6, 7, size=(int(rng.integers(1, 30)), 3))
            if rng.random() < 0.3:
                pts[:, 2] = pts[:, 0] - 2 * pts[:, 1]
            # scaled past the bound the hull runs in Python ints
            scale = 2 ** 40
            assert convex_hull(pts * scale) == [
                tuple(c * scale for c in v) for v in convex_hull(pts)]


def outside_hull_per_direction(sites, a, n):
    """The per-direction test that `_outside_hull` replaced: n*a is outside
    when adding it to the row ends makes it a hull vertex that is not one
    of the sites."""
    ends = list(map(tuple, (a.denominator * sites[_row_ends(sites)]).tolist()))
    p = tuple(n * c for c in a.numerators)
    return p in convex_hull(ends + [p]) and p not in ends


def direction_grid(d, values):
    return [rv(*c) for c in itertools.product(values, repeat=d)]


class TestOutsideHull:
    """The batched integer test against the per-direction hulls."""

    @pytest.mark.parametrize("d, n", [(2, 7), (2, 8), (3, 5), (3, 6)])
    def test_layers(self, d, n):
        # octahedral layers: 1 and -1 hit vertices, 1/2 edges (and in
        # d = 3 faces at 1/3), n-th fractions land on and next to facets
        rng = np.random.default_rng(90 + d)
        units = nearest_neighbour(d).offsets
        laws = [law_of(*[({y: int(rng.integers(1, 3))}, float(p)) for y, p in
                         zip(units, rng.dirichlet(np.ones(len(units))))])
                for _ in range(2)]
        env = iid_env(laws, [0.5, 0.5], int(rng.integers(0, 2**31)),
                      dimension=d)
        for layer in expectation.iter_layers(env, (0,) * d, n):
            pass
        sites, _ = layer._finite()
        values = ["-1", "-1/2", "-1/3", "0", f"1/{n}", "1/3", "1/2",
                  f"{n - 1}/{n}", "1", f"{n + 1}/{n}"]
        dirs = direction_grid(d, values)
        want = [outside_hull_per_direction(sites, a, n) for a in dirs]
        assert _outside_hull(sites, dirs, n).tolist() == want
        assert 0 < sum(want) < len(dirs)

    def test_walled_layer_with_oblique_facets(self):
        # a cut cross-polytope: sites with x + 2y <= 3 in the l1 ball of 4
        ball = np.array([x for x in itertools.product(range(-4, 5), repeat=3)
                         if sum(map(abs, x)) <= 4 and x[0] + 2 * x[1] <= 3])
        dirs = direction_grid(3, ["-1", "-1/2", "0", "1/4", "1/2", "3/4", "1"])
        want = [outside_hull_per_direction(ball, a, 4) for a in dirs]
        assert _outside_hull(ball, dirs, 4).tolist() == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flat_site_sets(self, d):
        rng = np.random.default_rng(70 + d)
        dirs = direction_grid(d, ["-1", "-1/2", "0", "1/2", "1"])
        for rank in range(d):
            for _ in range(3):
                span = rng.integers(-1, 2, size=(rank, d))
                coef = rng.integers(-2, 3, size=(int(rng.integers(1, 9)), rank))
                sites = np.unique(coef @ span, axis=0)
                want = [outside_hull_per_direction(sites, a, 2) for a in dirs]
                assert _outside_hull(sites, dirs, 2).tolist() == want


class TestClassifier:
    def test_recurrent(self):
        env = homogeneous_env(doubling_law())
        prof = beta_profile(env, [rv(0)], 50)
        assert classify_by_beta(prof) == "recurrent"

    def test_transient(self):
        env = homogeneous_env(drift_law())
        prof = beta_profile(env, [rv(0)], 100)
        assert classify_by_beta(prof) == "transient"

    def test_borderline_is_inconclusive(self):
        # return rate exactly 1: the estimate decays like -log(t)/(2t)
        env = homogeneous_env(borderline_law())
        prof = beta_profile(env, [rv(0)], 300)
        assert classify_by_beta(prof) == "inconclusive"

    def test_never_occupied_origin_is_inconclusive(self):
        one_way = law_of(({(1,): 1}, 1.0), ({(-1,): 1}, 0.0))
        env = homogeneous_env(one_way)
        prof = beta_profile(env, [rv(0)], 10)
        assert classify_by_beta(prof) == "inconclusive"

    def test_requires_origin_on_grid(self):
        env = homogeneous_env(doubling_law())
        prof = beta_profile(env, [rv("1/2")], 5)
        with pytest.raises(GrowthError):
            classify_by_beta(prof)

    def test_tolerance_widens_inconclusive_band(self):
        env = homogeneous_env(drift_law())
        prof = beta_profile(env, [rv(0)], 100)
        assert classify_by_beta(prof, tol=0.5) == "inconclusive"


class TestTotalGrowth:
    def test_doubling_rate_is_log_two(self):
        env = homogeneous_env(doubling_law())
        assert total_growth(env, 150) == pytest.approx(math.log(2.0),
                                                       abs=1e-12)

    def test_gap_against_profile(self):
        env = homogeneous_env(doubling_law())
        prof = beta_profile(env, grid_1d(Fraction(-1), Fraction(1),
                                         Fraction(1, 2)), 40)
        # the profile's pass reads layer 40 of the same DP
        assert prof.total_rate == total_growth(env, 40)
        assert prof.sup_beta > 0.0
        # sup beta = Lambda(0) = ln 2 exactly for a homogeneous law
        assert 0.0 <= prof.total_rate - prof.sup_beta <= 1e-12

    def test_horizon_validation(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(GrowthError):
            total_growth(env, 0)


class TestGrid:
    def test_inclusive_endpoints(self):
        g = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 2))
        assert [a.as_floats()[0] for a in g] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_nonpositive_step_rejected(self):
        for step in (Fraction(0), Fraction(-1, 5)):
            with pytest.raises(GrowthError, match="step"):
                grid_1d(Fraction(-1), Fraction(1), step)

    def test_fractional_steps_exact(self):
        g = grid_1d(Fraction(0), Fraction(1), Fraction(1, 10))
        assert len(g) == 11
        assert g[3] == rv("3/10")
