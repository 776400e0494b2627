import dataclasses
import math
import time

import numpy as np
import pytest

from brwre import classify
from brwre.classify import (
    CriterionError,
    transience_criterion,
)

from _support import (
    borderline_law,
    criterion_value_at,
    drift_law,
    law_of,
    mean2_law,
    symmetric06_law,
)


class TestClosedForms:
    def test_drifted_branching_is_transient(self):
        # one-direction means 0.84 and 0.21: the minimum over t of
        # 0.84 e^t + 0.21 e^-t is 2 sqrt(0.84 * 0.21) = 0.84
        res = transience_criterion([drift_law()])
        assert res.verdict == "transient"
        assert res.value == pytest.approx(0.84, abs=1e-6)
        assert res.t_star[0] == pytest.approx(
            0.5 * math.log(0.21 / 0.84), abs=1e-4)

    def test_symmetric_supercritical_is_recurrent(self):
        # means 0.6 both ways: the minimum sits at t=0 with value 1.2
        res = transience_criterion([symmetric06_law()])
        assert res.verdict == "recurrent"
        assert res.value == pytest.approx(1.2, abs=1e-6)
        assert abs(res.t_star[0]) < 1e-3

    def test_borderline_value_is_one(self):
        # means 1.25 and 0.2: 2 sqrt(0.25) = 1 exactly
        res = transience_criterion([borderline_law()])
        assert res.verdict == "boundary"
        assert res.value == pytest.approx(1.0, abs=1e-7)
        assert res.t_star[0] == pytest.approx(0.5 * math.log(0.2 / 1.25),
                                              abs=1e-4)
        assert not res.lambda_one

    def test_symmetric_value_equals_mean_total(self):
        # for symmetric laws the optimum is t=0, so value = mean total
        res = transience_criterion([mean2_law()])
        assert res.verdict == "recurrent"
        assert res.value == pytest.approx(2.0, abs=1e-6)


class TestLambdaOneCase:
    def test_all_means_at_most_one(self):
        walk = law_of(({(1,): 1}, 0.7), ({(-1,): 1}, 0.3))
        res = transience_criterion([walk])
        assert res.lambda_one
        assert res.verdict == "transient"
        assert res.value == pytest.approx(1.0)
        assert res.t_star == (0.0,)

    def test_lambda_one_requires_every_law(self):
        walk = law_of(({(1,): 1}, 0.7), ({(-1,): 1}, 0.3))
        res = transience_criterion([walk, symmetric06_law()])
        assert not res.lambda_one


class TestMultiLaw:
    def test_worst_law_dominates(self):
        # support containing a recurrent law can never satisfy the criterion
        res = transience_criterion([drift_law(), symmetric06_law()])
        assert res.verdict == "recurrent"
        assert res.argmax_law == 1
        assert res.value >= 1.2 - 1e-9

    def test_two_transient_laws(self):
        mirrored = law_of(({(-1,): 1}, 0.74), ({(-1,): 2}, 0.05),
                          ({(1,): 1}, 0.21))
        res = transience_criterion([drift_law(), mirrored])
        # opposite drifts force t toward 0 where both exceed 1
        assert res.verdict == "recurrent"

    def test_kinked_minimum_reports_zero_subgradient(self):
        # the mirrored drifts tie at t = 0 with gradients +0.6 and -0.6: the
        # minimum is a kink whose subdifferential [-0.6, 0.6] holds 0
        mirrored = law_of(({(-1,): 1}, 0.74), ({(-1,): 2}, 0.05),
                          ({(1,): 1}, 0.21))
        res = transience_criterion([drift_law(), mirrored])
        assert res.t_star == (0.0,)
        assert res.gradient_norm <= 1e-9

    def test_identical_laws_match_single(self):
        single = transience_criterion([drift_law()])
        double = transience_criterion([drift_law(), drift_law()])
        assert double.verdict == single.verdict
        assert double.value == pytest.approx(single.value, abs=1e-9)


def _planar_law():
    return law_of(
        ({(1, 0): 1}, 0.32), ({(-1, 0): 1}, 0.02),
        ({(0, 1): 1}, 0.33), ({(0, -1): 2}, 0.165), ({(0, -1): 1}, 0.165))


class TestPlanarClosedForm:
    def test_separable_two_dimensional(self):
        # axis-separable means: min over (t1, t2) factorizes into
        # 2 sqrt(a b) + 2 sqrt(c d) with a,b the x means and c,d the y means
        law = _planar_law()
        # x means: 0.32, 0.02 -> 2 sqrt(0.0064) = 0.16
        # y means: 0.33, 0.495 -> 2 sqrt(0.163350) = 0.808341...
        want = 2 * math.sqrt(0.32 * 0.02) + 2 * math.sqrt(0.33 * 0.495)
        res = transience_criterion([law])
        assert res.verdict == "transient"
        assert res.value == pytest.approx(want, abs=1e-5)
        assert res.t_star[0] == pytest.approx(0.5 * math.log(0.02 / 0.32),
                                              abs=1e-3)


class TestDiagnostics:
    def test_gradient_vanishes_at_interior_minimum(self):
        res = transience_criterion([drift_law()])
        assert res.gradient_norm < 1e-4
        assert not res.on_boundary

    @pytest.mark.parametrize("law", [drift_law(), symmetric06_law(),
                                     borderline_law(), _planar_law()],
                             ids=["drift", "symmetric", "borderline", "planar"])
    def test_single_law_gradient_norm_is_its_gradient(self, law):
        res = transience_criterion([law])
        grads = classify._Phi([law]).laws_at(np.array(res.t_star))[1]
        assert res.gradient_norm == float(np.linalg.norm(grads[0]))

    def test_min_norm_in_hull(self):
        def _hull_norm(points):
            return float(np.linalg.norm(classify._nearest_in_hull(points)))

        # the triangle (1, 1), (-1, 1), (0, 2) is nearest 0 at (0, 1) on an
        # edge; adding (0, -1) puts 0 inside the hull
        tri = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, 2.0]])
        assert _hull_norm(tri) == pytest.approx(1.0, abs=1e-15)
        quad = np.vstack([tri, [[0.0, -1.0]]])
        assert _hull_norm(quad) <= 1e-15
        assert _hull_norm(tri[2:]) == 2.0
        # three collinear rows: the rank-deficient triple changes nothing
        line = np.array([[-1.0, 1.0], [0.5, 1.0], [2.0, 1.0]])
        assert _hull_norm(line) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_matches_reported_minimum(self):
        res = transience_criterion([drift_law()])
        at_min = criterion_value_at([drift_law()], res.t_star)
        assert math.exp(at_min) == pytest.approx(res.value, rel=1e-12)
        # and t=0 reads off the mean total
        at_zero = criterion_value_at([drift_law()], (0.0,))
        assert math.exp(at_zero) == pytest.approx(1.05, abs=1e-12)

    def test_minimum_no_larger_than_probe_points(self):
        law = drift_law()
        res = transience_criterion([law])
        for t in np.linspace(-3, 3, 61):
            assert res.log_value <= criterion_value_at([law], (t,)) + 1e-9

    def test_tolerance_controls_boundary_band(self):
        res = transience_criterion([borderline_law()], tol=1e-12)
        # with an essentially zero band the polished minimum lands on a side
        assert res.verdict in ("transient", "recurrent", "boundary")
        wide = transience_criterion([drift_law()], tol=0.5)
        assert wide.verdict == "boundary"

    def test_as_dict_round_trips_through_json(self):
        import json

        res = transience_criterion([drift_law()])
        doc = json.loads(json.dumps(res.as_dict()))
        assert doc["verdict"] == "transient"
        assert doc["value"] == res.value
        assert doc["lambda_one"] is False
        assert set(doc) == {f.name for f in dataclasses.fields(res)}

    def test_empty_support_rejected(self):
        with pytest.raises((CriterionError, ValueError)):
            transience_criterion([])


def _units(d):
    return [tuple(sign * (i == j) for j in range(d))
            for i in range(d) for sign in (1, -1)]


def _pair_split_law(d):
    # two children, at +e_i and -e_i, with the axis i uniform
    units = _units(d)
    return law_of(*[({units[2 * i]: 1, units[2 * i + 1]: 1}, 1.0 / d)
                    for i in range(d)])


def _random_supports(count, laws_per_support=2, d=2, seed=1):
    """Laws on the 2d unit steps plus one two-child configuration, with
    Dirichlet weights.  With two laws in d = 2 the minima mostly sit on the
    kink where the two laws tie."""
    units = _units(d)
    rng = np.random.default_rng(seed)
    supports = []
    for _ in range(count):
        laws = []
        for _ in range(laws_per_support):
            w = rng.dirichlet(np.ones(2 * d + 1))
            a, b = (units[i] for i in rng.integers(0, 2 * d, size=2))
            pair = {a: 2} if a == b else {a: 1, b: 1}
            laws.append(law_of(
                *[({u: 1}, float(p)) for u, p in zip(units, w[:-1])],
                (pair, float(w[-1]))))
        supports.append(laws)
    return supports


def _nelder_mead_minimum(laws, starts):
    from scipy.optimize import minimize

    def phi(t):
        return criterion_value_at(laws, t)

    best = math.inf
    for start in starts:
        for _ in range(2):  # a restart rebuilds a collapsed simplex
            fit = minimize(phi, start, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-15,
                                    "maxiter": 20000, "maxfev": 40000})
            start = fit.x
            best = min(best, fit.fun)
    return best


class TestKinkedMinima:
    @pytest.mark.parametrize("index", range(40))
    def test_minimum_matches_nelder_mead(self, index):
        # the polish slides along the kink between the laws; stepping along
        # the argmax law's gradient alone stopped at the first kink, up to
        # 0.006 above the minimum on these supports
        laws = _random_supports(40)[index]
        res = transience_criterion(laws)
        best = _nelder_mead_minimum(laws, (np.array(res.t_star), np.zeros(2)))
        assert res.log_value <= best + 1e-9
        assert res.log_value == criterion_value_at(laws, res.t_star)

    @pytest.mark.parametrize("d", [2, 3])
    def test_many_laws_stay_cheap(self, d):
        # a descent step weighs at most d + 1 laws; a hull over every law
        # near the maximum would cost about C(50, d + 1) solves per step
        laws = _random_supports(1, laws_per_support=50, d=d, seed=d)[0]
        start = time.perf_counter()
        res = transience_criterion(laws)
        assert time.perf_counter() - start < 5.0
        best = _nelder_mead_minimum(laws, (np.array(res.t_star), np.zeros(d)))
        assert res.log_value <= best + 1e-9

    def test_repeated_laws_are_one_law(self):
        law = _random_supports(1, laws_per_support=1, d=1)[0][0]
        start = time.perf_counter()
        many = transience_criterion([law] * 300)
        assert time.perf_counter() - start < 5.0
        one = transience_criterion([law])
        assert (many.t_star, many.log_value, many.gradient_norm) == \
            (one.t_star, one.log_value, one.gradient_norm)


def _mixed_planar_laws():
    # 4, 2 and 3 positive-mass offsets: the padded rows hold -inf
    return [
        law_of(({(1, 0): 1}, 0.3), ({(-1, 0): 1}, 0.2),
               ({(0, 1): 1, (0, -1): 1}, 0.5)),
        law_of(({(1, 0): 1, (0, 1): 1}, 1.0)),
        law_of(({(-1, 0): 2}, 0.4), ({(0, 1): 1}, 0.35), ({(0, -1): 3}, 0.25)),
    ]


def _reference_phi(laws, t):
    vals = []
    for law in laws:
        terms = [m * math.exp(sum(c * y for c, y in zip(t, off)))
                 for off, m in law.mean_offspring.items() if m > 0.0]
        vals.append(math.log(math.fsum(terms)))
    return max(vals), int(np.argmax(vals))


class TestBatchedEvaluator:
    def test_matches_fsum_reference(self):
        laws = _mixed_planar_laws()
        phi = classify._Phi(laws)
        assert phi.log_mu.shape == (3, 4)
        assert np.isneginf(phi.log_mu).sum() == 3
        pts = np.random.default_rng(3).uniform(-3.0, 3.0, size=(200, 2))
        per_law = phi._per_law(pts)[0]
        for t, v, w in zip(pts, per_law.max(axis=1), per_law.argmax(axis=1)):
            want, want_law = _reference_phi(laws, t)
            assert abs(v - want) <= 1e-12
            assert criterion_value_at(laws, t) == v
            if w != want_law:  # only a tie to the last bits may reorder
                assert abs(_reference_phi([laws[w]], t)[0] - want) <= 1e-12

    def test_gradient_matches_central_differences(self):
        laws = _mixed_planar_laws()
        phi = classify._Phi(laws)
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        for t in rng.uniform(-2.0, 2.0, size=(60, 2)):
            per_law = sorted(_reference_phi([law], t)[0] for law in laws)
            if per_law[-1] - per_law[-2] < 1e-3:
                continue  # near a kink the gradient is only a subgradient
            values, grads = phi.laws_at(t)
            fd = [(criterion_value_at(laws, t + h * e)
                   - criterion_value_at(laws, t - h * e)) / (2 * h)
                  for e in np.eye(2)]
            assert np.max(np.abs(grads[values.argmax()] - fd)) <= 1e-6
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("with_hop", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_symmetric_minimum_stays_at_origin(self, d, with_hop):
        # Phi(t) >= Phi(0) for symmetric laws, and the gradient at 0 is
        # exactly 0; a log-sum-exp that rounds 1 + rest, or a search that
        # does not start at 0, can end at points an ulp below Phi(0)
        units = _units(d)
        laws = [_pair_split_law(d)]
        if with_hop:
            laws.append(law_of(*[({u: 1}, 1.0 / len(units)) for u in units]))
        res = transience_criterion(laws)
        assert res.t_star == (0.0,) * d
        assert res.log_value == criterion_value_at(laws, (0.0,) * d)
        assert res.gradient_norm == 0.0

    @pytest.mark.parametrize("eps", [1e-8, 1e-20, 1e-50])
    @pytest.mark.parametrize("d", [2, 3])
    def test_flat_transient_direction_reaches_minimum(self, d, eps):
        # means 2r at +e1, eps at -e1 and r at every other unit step: Phi
        # falls ever more slowly towards its minimum at t1 = ln(eps/2r)/2,
        # where a step proportional to the gradient stalls about 1e-5 short;
        # at eps = 1e-50 Phi is flat to rounding well inside the box, and a
        # first step as long as the box carries t to its edge
        r = (1.0 - eps) / (2 * d - 1)
        units = _units(d)
        law = law_of(({units[0]: 2}, r), ({units[1]: 1}, eps),
                     *[({u: 1}, r) for u in units[2:]])
        res = transience_criterion([law])
        want = math.log(2 * math.sqrt(2 * r * eps) + (2 * d - 2) * r)
        assert abs(res.log_value - want) <= 1e-12
        assert res.gradient_norm < 1e-6
        assert not res.on_boundary

    def test_minimum_beyond_the_default_box(self):
        # means 2 at +1 and 1e-100 at -1: Phi(t) = ln(2 e^t + 1e-100 e^-t)
        # has its minimum ln(2 sqrt(2e-100)) = -114.0895 at t = ln(5e-101)/2
        # = -115.48, past |t| <= 64; min over +-e1 of the largest mean is
        # 1e-100, so the box widens to Phi(0) - ln 1e-100 = 230.95
        law = law_of(({(1,): 2}, 1.0 - 1e-100), ({(1,): 2, (-1,): 1}, 1e-100))
        res = transience_criterion([law])
        assert res.log_value == pytest.approx(-114.0895, abs=1e-4)
        assert res.log_value == pytest.approx(
            math.log(2 * math.sqrt(2e-100)), abs=1e-9)
        assert res.t_star[0] == pytest.approx(0.5 * math.log(5e-101),
                                              abs=1e-3)
        assert res.t_star[0] == pytest.approx(-115.48, abs=0.01)
        assert not res.on_boundary
        assert res.verdict == "transient"

    def test_batched_evaluation_count(self, monkeypatch):
        calls = []
        orig = classify._Phi._per_law

        def counting(self, points):
            calls.append(len(points))
            return orig(self, points)

        monkeypatch.setattr(classify._Phi, "_per_law", counting)
        res = transience_criterion([_planar_law()])
        assert res.verdict == "transient"
        # one batch per descent step holding the trial steps of every
        # direction: a few dozen batches, inside the descent's cap, not
        # thousands of scalar calls; the reads at the iterates and at the
        # minimizer are single points, one per step and one more at most
        batches = [c for c in calls if c > 1]
        assert len(batches) <= classify.DESCENT_ITERS
        assert max(batches) >= 32
        singles = [c for c in calls if c <= 1]
        assert set(singles) == {1}
        assert len(singles) <= len(batches) + 2


class TestSpatialClosedForm:
    def test_separable_three_dimensional(self):
        # means a, b on x; c, d on y; e, f on z (0.15 + 2 * 0.1 + 0.1 at -z):
        # the minimum factorizes into 2 sqrt(ab) + 2 sqrt(cd) + 2 sqrt(ef)
        law = law_of(
            ({(1, 0, 0): 1}, 0.30), ({(-1, 0, 0): 1}, 0.05),
            ({(0, 1, 0): 1}, 0.20), ({(0, -1, 0): 1}, 0.10),
            ({(0, 0, 1): 1}, 0.15), ({(0, 0, -1): 2}, 0.10),
            ({(0, 0, -1): 1}, 0.10))
        a, b, c, d, e, f = 0.30, 0.05, 0.20, 0.10, 0.15, 0.30
        want = 2 * math.sqrt(a * b) + 2 * math.sqrt(c * d) + 2 * math.sqrt(e * f)
        res = transience_criterion([law])
        assert res.verdict == "transient"
        assert res.value == pytest.approx(want, abs=1e-6)
        for got, (p, q) in zip(res.t_star, [(a, b), (c, d), (e, f)]):
            assert got == pytest.approx(0.5 * math.log(q / p), abs=1e-3)
        assert res.gradient_norm < 1e-4
