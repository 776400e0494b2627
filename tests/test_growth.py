import math
from fractions import Fraction

import pytest

from brwre.growth import (
    GrowthError,
    beta_estimate,
    beta_profile,
    classify_by_beta,
    grid_1d,
    total_growth,
)
from brwre.lattice import RationalVector

from _support import (
    borderline_law,
    doubling_law,
    drift_law,
    homogeneous_env,
    law_of,
)


def rv(*fracs):
    return RationalVector.from_fractions([str(f) for f in fracs])


def binomial_rate(t, x):
    """log m_t(x) / t for the homogeneous unit-mean-per-direction walk."""
    return math.log(math.comb(t, (t + x) // 2)) / t


class TestBetaEstimate:
    def test_origin_matches_central_binomial(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv(0), 50)
        assert est.k0 == 2
        assert not est.minus_infinity
        assert est.value == pytest.approx(binomial_rate(100, 0), abs=1e-10)
        for j, v in est.samples:
            assert v == pytest.approx(binomial_rate(2 * j, 0), abs=1e-10)

    def test_half_direction_matches_binomial(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv("1/2"), 12)
        assert est.k0 == 4
        for j, v in est.samples:
            t = 4 * j
            assert v == pytest.approx(binomial_rate(t, t // 2), abs=1e-10)

    def test_boundary_direction_is_exactly_zero(self):
        # a=1 counts only the all-right path, expectation 1 at every time
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv(1), 20)
        assert est.value == 0.0
        assert all(v == 0.0 for _, v in est.samples)

    def test_unreachable_direction(self):
        env = homogeneous_env(doubling_law())
        est = beta_estimate(env, rv("3/2"), 6)
        assert est.minus_infinity
        assert est.samples == ()
        assert est.value == float("-inf")

    def test_horizon_positive_required(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(GrowthError):
            beta_estimate(env, rv(0), 0)


class TestBetaProfile:
    def test_profile_matches_single_direction_runs(self):
        # the shared pass runs to the largest k0*n on the grid, so directions
        # with a smaller k0 pick up extra samples past their standalone horizon
        env = homogeneous_env(drift_law())
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 2))
        prof = beta_profile(env, dirs, 10)
        max_k0 = max(a.even_scale() for a in dirs)
        for a, est in prof.grid:
            alone = beta_estimate(env, a, 10)
            assert est.samples[:len(alone.samples)] == alone.samples
            if a.even_scale() == max_k0:
                assert est.samples == alone.samples
                assert est.value == alone.value

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
        assert prof.find(rv("1/2")).k0 == 4
        with pytest.raises(GrowthError):
            prof.find(rv("1/4"))


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

    def test_empty_region_for_subcritical_drift(self):
        # plain biased walk, no branching: every rate is strictly negative
        walk = law_of(({(1,): 1}, 0.7), ({(-1,): 1}, 0.3))
        env = homogeneous_env(walk)
        dirs = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 5))
        prof = beta_profile(env, dirs, 25)
        assert prof.b_hull == ()
        assert prof.sup_beta < 0.0


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
        # the total grows at least as fast as any single ray
        assert prof.total_rate - prof.sup_beta > 0.0

    def test_horizon_validation(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(GrowthError):
            total_growth(env, 0)


class TestGrid:
    def test_inclusive_endpoints(self):
        g = grid_1d(Fraction(-1), Fraction(1), Fraction(1, 2))
        assert [a.as_floats()[0] for a in g] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_fractional_steps_exact(self):
        g = grid_1d(Fraction(0), Fraction(1), Fraction(1, 10))
        assert len(g) == 11
        assert g[3] == rv("3/10")
