import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from brwre import environment, montecarlo
from brwre.environment import (
    Dependence,
    EnvironmentField,
    EnvironmentSpec,
    build_environment,
)
from brwre.expectation import iter_layers
from brwre.lattice import unit_vectors
from brwre.montecarlo import (
    BitBudgetError,
    InducedWalkState,
    PopulationBatch,
    SamplerStats,
    SimulationError,
    estimate_return_probability,
    induced_kernel,
    induced_walk_step,
    iter_batch,
    realized_local_exponent,
    replica_batches,
    sample_induced_direct,
    step_batch,
)
from brwre.seeding import (
    PURPOSE_DYNAMICS,
    PURPOSE_RETURN_PROBE,
    replica_rng,
)

from _support import (
    counts,
    doubling_law,
    drift_law,
    exact_draws_reference,
    function_field,
    homogeneous_env,
    iid_env,
    law_of,
    long_d1_laws,
    nearest_neighbour,
    random_env,
    sample_binomial,
    sample_multinomial,
)


def _digest(states) -> str:
    return hashlib.sha256(repr([(st.n, sorted(counts(st, 0).items()))
                                for st in states]).encode()).hexdigest()


class TestBinomialSampler:
    def test_edge_cases(self):
        rng = np.random.default_rng(0)
        assert sample_binomial(rng, 0, 0.5) == 0
        assert sample_binomial(rng, 10, 0.0) == 0
        assert sample_binomial(rng, 10, 1.0) == 10

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_binomial(rng, -1, 0.5)
        with pytest.raises(ValueError):
            sample_binomial(rng, 5, 1.5)
        with pytest.raises(ValueError):
            sample_binomial(rng, 5, -0.1)

    def test_result_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = sample_binomial(rng, 7, 0.3)
            assert 0 <= k <= 7
            assert isinstance(k, int)

    def test_exact_path_distribution(self):
        rng = np.random.default_rng(2)
        n, p, reps = 5, 0.3, 20000
        obs = Counter(sample_binomial(rng, n, p) for _ in range(reps))
        expected = [reps * math.comb(n, k) * p**k * (1 - p) ** (n - k)
                    for k in range(n + 1)]
        chi2, pval = sstats.chisquare([obs.get(k, 0) for k in range(n + 1)],
                                      expected)
        assert pval > 1e-3

    def test_normal_path_moments(self):
        rng = np.random.default_rng(3)
        stats = SamplerStats()
        n, p = 10**20, 0.5  # beyond the exact-path width limit
        draws = [sample_binomial(rng, n, p, stats) for _ in range(200)]
        assert stats.normal_draws == 200
        mean, sd = n * p, math.sqrt(n * p * (1 - p))
        z = (sum(draws) / 200 - mean) / (sd / math.sqrt(200))
        assert abs(z) < 4.0
        assert all(isinstance(k, int) for k in draws)

    def test_poisson_path_moments(self):
        rng = np.random.default_rng(4)
        stats = SamplerStats()
        n, p = 10**20, 1e-17  # variance ~1000, far below the normal gate
        draws = [sample_binomial(rng, n, p, stats) for _ in range(400)]
        assert stats.poisson_draws == 400
        lam = n * p
        z = (sum(draws) / 400 - lam) / (math.sqrt(lam) / math.sqrt(400))
        assert abs(z) < 4.0

    def test_flipped_tail(self):
        # p near 1 flips to the complement before sampling
        rng = np.random.default_rng(5)
        n, p = 10**20, 1.0 - 1e-15
        draws = [sample_binomial(rng, n, p) for _ in range(400)]
        missing = [n - k for k in draws]
        lam = n * (1.0 - p)  # the float complement, not the literal 1e-15
        z = (sum(missing) / 400 - lam) / (math.sqrt(lam) / math.sqrt(400))
        assert abs(z) < 4.0

    def test_huge_population_stays_exact_integer(self):
        rng = np.random.default_rng(6)
        n = 10**40
        k = sample_binomial(rng, n, 0.25)
        assert isinstance(k, int)
        assert 0 <= k <= n
        # the draw should sit within 10 standard deviations of the mean
        sd = math.sqrt(n * 0.25 * 0.75)
        assert abs(k - n // 4) < 10 * sd

    def test_stats_path_accounting(self):
        rng = np.random.default_rng(7)
        stats = SamplerStats()
        sample_binomial(rng, 10, 0.5, stats)
        sample_binomial(rng, 10**20, 0.5, stats)
        sample_binomial(rng, 10**20, 1e-17, stats)
        assert stats.exact_draws == 1
        assert stats.normal_draws == 1
        assert stats.poisson_draws == 1
        assert stats.as_dict() == {"exact_draws": 1, "normal_draws": 1,
                                   "poisson_draws": 1}


class _Fixed:
    """A stand-in generator whose normal and Poisson variates are fixed."""

    def __init__(self, z=0.0, poisson=0):
        self.z, self.k = z, poisson

    def standard_normal(self, size):
        return np.full(size, self.z)

    def poisson(self, lam):
        return np.full(len(lam), self.k, dtype=np.int64)


class TestOutOfRangeVariates:
    """The clip to [0, n] is skipped only where it provably does nothing."""

    # mean n q and variance n q (1 - q) both about 1.01e6, just above the
    # normal gate: 1020 standard deviations (about 1.03e6) reach below 0,
    # 998 do not; z * 2**53 fits int64 only for |z| < 1024
    N, Q = 2**62, 1.01e6 / 2**62

    @pytest.mark.parametrize("z, want", [(-1020.0, 0), (-998.0, None)])
    def test_normal_below_zero_is_clipped(self, z, want):
        stats = SamplerStats()
        k = sample_binomial(_Fixed(z=z), self.N, self.Q, stats)
        assert stats.normal_draws == 1
        if want is None:
            # inside the proven range: mean + delta, no clip needed
            sd = math.isqrt(int(self.N * self.Q * (1 - self.Q)))
            assert 0 < k < self.N
            assert abs(k - (self.N * self.Q + z * sd)) <= 2
        else:
            assert k == want

    def test_flipped_normal_is_clipped_to_n(self):
        assert sample_binomial(_Fixed(z=-1020.0), self.N, 1.0 - self.Q) \
            == self.N

    def test_poisson_above_n_is_clipped(self):
        stats = SamplerStats()
        k = sample_binomial(_Fixed(poisson=2**63 - 1), self.N, 1e-17, stats)
        assert stats.poisson_draws == 1
        assert k == self.N

    def test_far_normal_variates_convert_exactly(self):
        # |z| >= 1024 puts z * 2**53 beyond int64: the two tails must still
        # land on opposite sides of the mean floor(n q), q = 0.3 exactly as
        # the float holds it
        n, p = 2**100, 0.3
        up, down = (sample_binomial(_Fixed(z=z), n, p) for z in (5000.0, -5000.0))
        assert up != down
        assert 0 <= down <= n and 0 <= up <= n
        mean = n * Fraction(p).numerator // Fraction(p).denominator
        assert up + down in (2 * mean, 2 * mean - 1)
        # 5000 standard deviations below a mean of about 2.3e7: clipped
        assert sample_binomial(_Fixed(z=-5000.0), self.N, 5e-12) == 0


class TestMultinomialSampler:
    def test_single_category_shortcut(self):
        rng = np.random.default_rng(8)
        assert sample_multinomial(rng, 12, np.array([1.0])) == [12]

    def test_sums_exact(self):
        rng = np.random.default_rng(9)
        probs = np.array([0.2, 0.3, 0.5])
        for n in (0, 1, 7, 10**3, 10**40):
            counts = sample_multinomial(rng, n, probs)
            assert sum(counts) == n
            assert all(isinstance(c, int) and c >= 0 for c in counts)

    def test_marginal_distribution(self):
        rng = np.random.default_rng(10)
        probs = np.array([0.25, 0.75])
        reps = 20000
        firsts = Counter(sample_multinomial(rng, 4, probs)[0]
                         for _ in range(reps))
        expected = [reps * math.comb(4, k) * 0.25**k * 0.75 ** (4 - k)
                    for k in range(5)]
        chi2, pval = sstats.chisquare([firsts.get(k, 0) for k in range(5)],
                                      expected)
        assert pval > 1e-3


class TestPopulationDynamics:
    def test_doubling_is_deterministic(self):
        env = homogeneous_env(doubling_law())
        states = iter_batch(env, (0,), 30, [np.random.default_rng(0)])
        for k, st in enumerate(states):
            assert st.totals[0] == 2**k
            for x in range(-k, k + 1):
                want = math.comb(k, (k + x) // 2) if (k + x) % 2 == 0 else 0
                assert st.count((x,))[0] == want

    def test_totals_never_decrease(self):
        # every configuration has at least one child
        env = random_env(np.random.default_rng(11))
        states = iter_batch(env, (0,), 40, [np.random.default_rng(12)])
        totals = [st.totals[0] for st in states]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[0] == 1

    def test_counts_stay_python_ints(self):
        env = homogeneous_env(doubling_law())
        *_, last = iter_batch(env, (0,), 70, [np.random.default_rng(0)])
        assert last.totals[0] == 2**70  # exceeds any fixed-width integer
        assert type(last.totals[0]) is int
        assert all(type(c) is int for c in counts(last, 0).values())

    def test_generation_indices(self):
        env = random_env(np.random.default_rng(13))
        states = list(iter_batch(env, (2,), 5, [np.random.default_rng(14)]))
        assert [st.n for st in states] == [0, 1, 2, 3, 4, 5]
        assert counts(states[0], 0) == {(2,): 1}

    def test_same_seed_same_trajectory(self):
        env = random_env(np.random.default_rng(15))
        a = iter_batch(env, (0,), 25, [np.random.default_rng(99)])
        b = iter_batch(env, (0,), 25, [np.random.default_rng(99)])
        assert [counts(st, 0) for st in a] == [counts(st, 0) for st in b]

    def test_bit_budget_enforced(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(BitBudgetError):
            list(iter_batch(env, (0,), 40, [np.random.default_rng(0)],
                            bit_budget=16))

    def test_iter_batch_checks_arguments_when_called(self):
        # no next(): the bare call raises, and draws nothing
        env = homogeneous_env(doubling_law())
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="negative horizon"):
            iter_batch(env, (0,), -1, [rng])
        with pytest.raises(ValueError, match="dimension 2.*dimension 1"):
            iter_batch(env, (0, 0), 3, [rng])
        assert rng.bit_generator.state == before


class TestAgainstExpectation:
    def test_sample_mean_matches_solver(self):
        env = random_env(np.random.default_rng(17))
        n, reps = 6, 8000
        sums = Counter()
        sqs = Counter()
        # replica r draws from its own stream, alone or in a batch
        for chunk in replica_batches(env, n, reps):
            *_, last = iter_batch(env, (0,), n, [
                replica_rng(123, r, PURPOSE_DYNAMICS) for r in chunk])
            for r in range(len(chunk)):
                for x, c in counts(last, r).items():
                    sums[x] += c
                    sqs[x] += c * c
        layer = list(iter_layers(env, (0,), n))[-1]
        for x, lv in layer.items():
            m = math.exp(lv)
            if m < 5e-3:
                continue
            mean = sums[x] / reps
            var = max(sqs[x] / reps - mean * mean, 1e-12)
            se = math.sqrt(var / reps)
            assert abs(mean - m) <= 4 * se + 1e-9

    def test_aggregated_step_matches_per_particle_law(self):
        # five walkers at one site: the count sent right is Binomial(5, .3)
        walk = law_of(({(1,): 1}, 0.3), ({(-1,): 1}, 0.7))
        env = homogeneous_env(walk)
        rng = np.random.default_rng(18)
        reps = 20000
        # one replica per draw, all from one stream in replica order
        state0 = PopulationBatch.from_counts(0, [{(0,): 5}] * reps)
        obs = Counter(step_batch(env, state0, [rng] * reps).count((1,)))
        expected = [reps * math.comb(5, k) * 0.3**k * 0.7 ** (5 - k)
                    for k in range(6)]
        chi2, pval = sstats.chisquare([obs.get(k, 0) for k in range(6)],
                                      expected)
        assert pval > 1e-3


class TestBatchedStep:
    """One generation drawn per law over arrays, against per-site references."""

    @staticmethod
    def _straddling():
        # law 0: three atoms, each with two children; law 1: one atom with
        # three.  Even sites take law 0, odd sites law 1.
        pairs = law_of(({(1,): 2}, 0.25), ({(1,): 1, (-1,): 1}, 0.5),
                       ({(-1,): 2}, 0.25))
        triple = law_of(({(-1,): 2, (1,): 1}, 1.0))
        spec = iid_env([pairs, triple], [0.5, 0.5], 0).spec
        env = function_field(spec, lambda x: x[0] % 2)
        sizes = [2**62 - 1, 2**62, 2**62 + 1, 5, 10**30, 3 * 2**70, 1, 2**64]
        state = PopulationBatch.from_counts(
            0, [{(x,): c for x, c in enumerate(sizes)}])
        return env, state

    def test_total_is_exact_across_the_exact_limit(self):
        env, state = self._straddling()
        nxt = step_batch(env, state, [np.random.default_rng(40)])
        want = sum(c * (2 if x[0] % 2 == 0 else 3)
                   for x, c in counts(state, 0).items())
        assert nxt.totals[0] == want
        assert sum(counts(nxt, 0).values()) == want
        assert type(nxt.totals[0]) is int
        assert all(type(c) is int and c > 0 for c in counts(nxt, 0).values())

    def test_stats_match_per_site_accounting(self):
        env, state = self._straddling()
        stats = SamplerStats()
        step_batch(env, state, [np.random.default_rng(41)], stats=stats)
        ref = SamplerStats()
        rng = np.random.default_rng(42)
        for x, c in sorted(counts(state, 0).items()):
            sample_multinomial(rng, c, env.law_at(x).atom_probs, ref)
        assert stats.as_dict() == ref.as_dict()
        # two exact rows of the three-atom law, and two conditionals for
        # each of its two rows at or above 2**62; the one-atom law draws
        # nothing
        assert sum(stats.as_dict().values()) == 2 + 2 * 2

    def test_chain_reaches_poisson_and_flipped_branches(self):
        # the conditional at the middle atom is (1/2 - 1e-15) / (1/2) > 1/2,
        # so it flips to q ~ 2e-15: a Poisson draw for the 2**64 row (half
        # of it remains, still above 2**62), a normal one for the 10**30 row
        rare = law_of(({(1,): 2}, 0.5), ({(1,): 1, (-1,): 1}, 0.5 - 1e-15),
                      ({(-1,): 2}, 1e-15))
        triple = law_of(({(-1,): 2, (1,): 1}, 1.0))
        spec = iid_env([rare, triple], [0.5, 0.5], 0).spec
        env = function_field(spec, lambda x: x[0] % 2)
        sizes = [2**62 - 1, 2**62, 2**64, 5, 10**30, 3 * 2**70, 1, 2**64]
        state = PopulationBatch.from_counts(
            0, [{(x,): c for x, c in enumerate(sizes)}])
        stats = SamplerStats()
        nxt = step_batch(env, state, [np.random.default_rng(46)],
                         stats=stats)
        assert nxt.totals[0] == sum(c * (2 if x % 2 == 0 else 3)
                                    for x, c in enumerate(sizes))
        assert stats.poisson_draws > 0 and stats.normal_draws > 0
        assert stats.as_dict() == {"exact_draws": 2, "normal_draws": 3,
                                   "poisson_draws": 1}
        assert _digest([nxt]) == ("9002e62208012190dbd6b2ecf0e7aa71"
                                  "385221162144ab148b769f8ebf66d575")

    def test_d2_block_window_mean_matches_solver(self):
        # drifted laws keep ~20 sites above the mass cut, so a site past
        # 3 se by chance stays rare; with ~45 sites about one replica seed
        # in four put one there
        def law(axis):
            units = unit_vectors(2)
            probs = ((0.82, 0.04, 0.05, 0.04) if axis == 0
                     else (0.78, 0.04, 0.04, 0.09))
            pair = {units[2 * axis]: 1, units[2 * axis + 1]: 1}
            return law_of(*[({y: 1}, p) for y, p in zip(units, probs)],
                          (pair, 0.05))

        spec = EnvironmentSpec(
            dimension=2, step_set=nearest_neighbour(2),
            law_support=(law(0), law(1)), weights=(0.5, 0.5),
            dependence=Dependence("block_window", 1), master_seed=2024)
        env = build_environment(spec)
        n, batches, batch = 6, 200, 1000
        layer = list(iter_layers(env, (0, 0), n))[-1]
        sites = [x for x, v in layer.items() if math.exp(v) >= 1e-3]
        means = {x: [] for x in sites}
        for b in range(batches):
            rng = replica_rng(77, b, PURPOSE_DYNAMICS)
            state = PopulationBatch.from_counts(0, [{(0, 0): batch}])
            for _ in range(n):
                state = step_batch(env, state, [rng])
            for x in sites:
                means[x].append(state.count(x)[0] / batch)
        assert len(sites) >= 20
        for x in sites:
            arr = np.asarray(means[x])
            se = arr.std(ddof=1) / math.sqrt(batches)
            assert abs(arr.mean() - math.exp(layer.get(x))) <= 3 * se

    def test_no_per_site_law_lookup(self, monkeypatch):
        env = random_env(np.random.default_rng(43))
        calls = []
        orig = EnvironmentField.law_index

        def counting(self, x):
            calls.append(x)
            return orig(self, x)

        monkeypatch.setattr(EnvironmentField, "law_index", counting)
        sizes = {(x,): x + 30 for x in range(-25, 25)}
        state = PopulationBatch.from_counts(0, [sizes])
        nxt = step_batch(env, state, [np.random.default_rng(44)])
        assert nxt.n == 1 and len(counts(state, 0)) == 50
        assert calls == []


class _Recording:
    """A generator that forwards to a real one and keeps the draws of each
    `multinomial` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.multinomials = []

    def multinomial(self, n, pvals):
        out = self.rng.multinomial(n, pvals)
        self.multinomials.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestExactRows:
    """Each replica draws its rows below 2**62 with one multinomial call,
    bitwise what one call per law and replica drew."""

    ONE = law_of(({(-1,): 2, (1,): 1}, 1.0))
    TWO = law_of(({(1,): 2}, 0.3), ({(-1,): 1}, 0.7))
    FOUR = law_of(({(1,): 2}, 0.25), ({(1,): 1, (-1,): 1}, 0.4),
                  ({(-1,): 2}, 0.15), ({(1,): 1}, 0.2))

    @staticmethod
    def _rngs(replicas):
        return [replica_rng(2718, r, PURPOSE_DYNAMICS)
                for r in range(replicas)]

    def test_matches_the_per_law_reference(self):
        # site x takes law x % 3: one, two and four atoms, interleaved, so
        # a replica's (law, site) order is not its site order
        spec = iid_env([self.ONE, self.TWO, self.FOUR], [0.2, 0.3, 0.5],
                       0).spec
        env = function_field(spec, lambda x: x[0] % 3)
        small = [5, 12, 1, 30, 7, 2, 9, 40, 3]
        straddling = [2**62 - 1, 2**62, 2**62 + 1, 5, 10**30, 3 * 2**70, 1,
                      2**64, 17]
        states = [{(x,): c for x, c in enumerate(small)},
                  {(x,): c for x, c in enumerate(straddling)},
                  {(x + 1,): c for x, c in enumerate(straddling[::-1])}]
        batch = PopulationBatch.from_counts(0, states)
        rngs = [_Recording(rng) for rng in self._rngs(3)]
        stats = SamplerStats()
        nxt = step_batch(env, batch, rngs, stats=stats)

        ref_rngs, ref_stats = self._rngs(3), SamplerStats()
        draws = exact_draws_reference(env, batch, ref_rngs, ref_stats)
        laws = env.law_index_axes(batch.sites.T)
        big = np.flatnonzero(batch.values >= 2**62)
        draws[big] = montecarlo._conditional_chain(
            ref_rngs, batch.replica[big], batch.values[big],
            [t[laws[big]] for t in montecarlo._tables(env).chain], ref_stats)

        want = [{} for _ in states]
        for i, ((x,), r) in enumerate(zip(batch.sites.tolist(),
                                          batch.replica.tolist())):
            law = spec.law_support[laws[i]]
            row = draws[i, draws.shape[1] - len(law.atoms):]
            for (cfg, _), k in zip(law.atoms, row):
                for (y,), c in cfg.counts:
                    want[r][(x + y,)] = want[r].get((x + y,), 0) + int(k) * c
        assert [counts(nxt, r) for r in range(3)] == [
            {z: c for z, c in w.items() if c} for w in want]
        exact = batch.values < 2**62
        for r, rng in enumerate(rngs):
            rows = np.flatnonzero(exact & (batch.replica == r))
            rows = rows[np.argsort(laws[rows], kind="stable")]
            (got,) = rng.multinomials
            assert got.tolist() == draws[rows].tolist()
        assert stats == ref_stats
        assert stats.normal_draws > 0
        assert ([rng.rng.bit_generator.state for rng in rngs]
                == [rng.bit_generator.state for rng in ref_rngs])
        assert ([rng.rng.bit_generator.state for rng in rngs]
                != [rng.bit_generator.state for rng in self._rngs(3)])

    def test_one_multinomial_call_per_replica(self):
        spec = iid_env([self.TWO, self.FOUR], [0.5, 0.5], 0).spec
        env = function_field(spec, lambda x: x[0] % 2)
        states = [{(x + r,): x + 1 for x in range(6)} for r in range(3)]
        rngs = [_Recording(rng) for rng in self._rngs(3)]
        step_batch(env, PopulationBatch.from_counts(0, states), rngs)
        assert [len(rng.multinomials) for rng in rngs] == [1, 1, 1]


def _block_window_d2_env():
    units = unit_vectors(2)
    pair = law_of(({units[0]: 1, units[1]: 1}, 0.5),
                  ({units[2]: 1, units[3]: 1}, 0.5))
    single = law_of(*[({y: 1}, 0.25) for y in units])
    return build_environment(EnvironmentSpec(
        dimension=2, step_set=nearest_neighbour(2),
        law_support=(pair, single), weights=(0.3, 0.7),
        dependence=Dependence("block_window", 1), master_seed=2718))


def _same_state(a: PopulationBatch, r: int, b: PopulationBatch) -> bool:
    """Replica r of `a` is the lone replica of `b`."""
    rows = slice(a.bounds[r], a.bounds[r + 1])
    return (a.n == b.n and a.totals[r] == b.totals[0]
            and np.array_equal(a.sites[rows], b.sites)
            and a.values[rows].tolist() == b.values.tolist())


def _d3_env():
    units = unit_vectors(3)
    pair = law_of(({units[0]: 1, units[3]: 1}, 0.5),
                  ({units[2]: 1, units[5]: 1}, 0.5))
    single = law_of(*[({y: 1}, 1.0 / 6) for y in units])
    return iid_env([pair, single], [0.4, 0.6], 2718, dimension=3)


class TestLockstep:
    """Replicas stepped together draw bitwise what each draws alone."""

    ENVS = {
        # counts pass 2**62 around generation 62, per replica
        "d1-iid": (lambda: iid_env(long_d1_laws(), [0.5, 0.5], 5), 90),
        "d2-block-window": (_block_window_d2_env, 25),
        "d3-iid": (_d3_env, 8),
    }

    @pytest.mark.parametrize("replicas", [1, 3, 10])
    @pytest.mark.parametrize("case", sorted(ENVS))
    def test_batch_equals_replicas_alone(self, case, replicas):
        make_env, n = self.ENVS[case]
        env = make_env()
        start = (0,) * env.spec.dimension
        rngs = [replica_rng(2718, r, PURPOSE_DYNAMICS)
                for r in range(replicas)]
        stats = SamplerStats()
        batches = list(iter_batch(env, start, n, rngs, stats=stats))
        alone_stats = SamplerStats()
        alone = [list(iter_batch(env, start, n,
                                 [replica_rng(2718, r, PURPOSE_DYNAMICS)],
                                 stats=alone_stats)) for r in range(replicas)]
        assert len(batches) == n + 1
        assert all(_same_state(a, 0, b) for a, b in zip(batches, alone[0]))
        assert all(_same_state(batches[-1], r, states[-1])
                   for r, states in enumerate(alone))
        assert stats == alone_stats
        if case == "d1-iid" and replicas == 10:
            # the batch mixes int64 and Python-int replicas for a while
            crossings = {next(st.n for st in states if st.totals[0] >= 2**62)
                         for states in alone}
            assert len(crossings) > 1
            assert stats.normal_draws > 0

    def test_poisson_and_flipped_branches(self):
        # the setup of TestBatchedStep's Poisson and flipped-branch test
        rare = law_of(({(1,): 2}, 0.5), ({(1,): 1, (-1,): 1}, 0.5 - 1e-15),
                      ({(-1,): 2}, 1e-15))
        triple = law_of(({(-1,): 2, (1,): 1}, 1.0))
        spec = iid_env([rare, triple], [0.5, 0.5], 0).spec
        env = function_field(spec, lambda x: x[0] % 2)
        sizes = [2**62 - 1, 2**62, 2**64, 5, 10**30, 3 * 2**70, 1, 2**64]
        states = [{(x + r,): c for x, c in enumerate(sizes)} for r in range(3)]
        stats, alone_stats = SamplerStats(), SamplerStats()
        nxt = step_batch(env, PopulationBatch.from_counts(0, states),
                         [np.random.default_rng(46 + r) for r in range(3)],
                         stats=stats)
        for r, st in enumerate(states):
            want = step_batch(env, PopulationBatch.from_counts(0, [st]),
                              [np.random.default_rng(46 + r)],
                              stats=alone_stats)
            assert _same_state(nxt, r, want)
        assert stats == alone_stats
        assert stats.poisson_draws > 0 and stats.normal_draws > 0

    @pytest.mark.parametrize("cap", [None, 1])
    def test_return_probe_draws_what_replicas_draw_alone(self, cap,
                                                         monkeypatch):
        # hits from generation 1 on: replicas leave their batch early
        if cap is not None:
            monkeypatch.setattr(montecarlo, "_BATCH_CELLS", cap)
        env = iid_env([drift_law(), long_d1_laws()[0]], [0.7, 0.3], 9)
        horizon, replicas = 6, 40
        stats = SamplerStats()
        est = estimate_return_probability(env, (0,), horizon, replicas, 2718,
                                          stats=stats)
        alone_stats, hits, first_visits = SamplerStats(), 0, set()
        for r in range(replicas):
            rng = replica_rng(2718, r, PURPOSE_RETURN_PROBE)
            for st in iter_batch(env, (0,), horizon, [rng], stats=alone_stats):
                if st.n and st.count((0,))[0]:
                    hits += 1
                    first_visits.add(st.n)
                    break
        assert est.hits == hits
        assert stats == alone_stats
        # replicas leave at several generations, and some run to the end
        assert len(first_visits) > 1 and min(first_visits) < horizon
        assert 0 < hits < replicas

    def test_batches_respect_the_cell_cap(self, monkeypatch):
        env = iid_env(long_d1_laws(), [0.5, 0.5], 5)
        # one run's box at horizon 20 spans 41 cells
        assert replica_batches(env, 20, 10) == [range(10)]
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 3 * 41 + 40)
        assert replica_batches(env, 20, 10) == [
            range(0, 3), range(3, 6), range(6, 9), range(9, 10)]
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 40)
        assert replica_batches(env, 20, 3) == [range(0, 1), range(1, 2),
                                               range(2, 3)]

    def test_bit_budget_names_the_first_generation_to_exceed_it(self):
        # mean 2 with a rare burst of 11 children: totals spread widely
        env = homogeneous_env(law_of(({(1,): 1}, 0.5), ({(-1,): 1}, 0.4),
                                     ({(1,): 5, (-1,): 6}, 0.1)))
        first = []
        for r in range(6):
            with pytest.raises(BitBudgetError) as alone:
                list(iter_batch(env, (0,), 60,
                                [replica_rng(2718, r, PURPOSE_DYNAMICS)],
                                bit_budget=20))
            first.append(int(str(alone.value).split("generation ")[1]
                             .split(",")[0]))
        # one replica after another, replica 0 would raise first
        assert first[0] > min(first)
        rngs = [replica_rng(2718, r, PURPOSE_DYNAMICS) for r in range(6)]
        with pytest.raises(BitBudgetError,
                           match=f"at generation {min(first)}, budget is 20"):
            for _ in iter_batch(env, (0,), 60, rngs, bit_budget=20):
                pass


class TestGoldenPins:
    """Draws pinned to their values before the array-resident state.

    A change to the population layout or the sampler tables must leave
    every state and every path count bitwise as it is.
    """

    def test_long_d1_run(self):
        # counts pass 2**62 at generation 62, so half the run is normal-path
        env = iid_env(long_d1_laws(), [0.5, 0.5], 5)
        stats = SamplerStats()
        states = list(iter_batch(env, (0,), 120,
                                 [replica_rng(2718, 0, PURPOSE_DYNAMICS)],
                                 stats=stats))
        assert stats.as_dict() == {"exact_draws": 4065, "normal_draws": 8809,
                                   "poisson_draws": 0}
        assert _digest(states) == ("3e360df3d1d78351b6c0045c9f176f5a"
                                   "e55178c50dc96bb995f720e0fcbc1f1a")

    def test_d2_block_window_run(self):
        stats = SamplerStats()
        states = list(iter_batch(_block_window_d2_env(), (0, 0), 40,
                                 [replica_rng(2718, 1, PURPOSE_DYNAMICS)],
                                 stats=stats))
        assert stats.as_dict() == {"exact_draws": 4244, "normal_draws": 0,
                                   "poisson_draws": 0}
        assert _digest(states) == ("b22c09c62f8c6497434d4fc76f05b3d6"
                                   "067710a6d67693128a6243a83203545b")

    def test_return_probe_hits(self):
        env = iid_env([drift_law(), long_d1_laws()[0]], [0.7, 0.3], 9)
        stats = SamplerStats()
        est = estimate_return_probability(env, (0,), 4, 60, 2718, stats=stats)
        assert est.hits == 33
        assert stats.as_dict() == {"exact_draws": 221, "normal_draws": 0,
                                   "poisson_draws": 0}


class TestInducedWalk:
    def test_kernel_rows_sum_to_one(self):
        env = random_env(np.random.default_rng(19))
        for x in range(-10, 11):
            row = induced_kernel(env, (x,))
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0 for p in row.values())

    def test_kernel_splits_equally_across_config_support(self):
        law = law_of(({(1,): 1, (-1,): 2}, 1.0))
        env = homogeneous_env(law)
        row = induced_kernel(env, (0,))
        assert row == {(1,): 0.5, (-1,): 0.5}

    def test_forced_steps_follow_symbol_order(self):
        env = random_env(np.random.default_rng(20))
        units = unit_vectors(1)
        rng = np.random.default_rng(21)
        state = InducedWalkState((0,))
        for _ in range(4000):
            before = state.position
            state = induced_walk_step(env, state, rng)
            if state.forced_flags[-1]:
                j = state.forced_symbols[-1]
                want = units[j - 1]
                got = tuple(b - a for a, b in zip(before, state.position))
                assert got == tuple(want)

    def test_forced_fraction_matches_mass(self):
        env = random_env(np.random.default_rng(22))
        eps_hat = env.conditions.epsilon0 / len(env.spec.step_set.offsets)
        expect = 2 * eps_hat  # 2d * eps_hat with d = 1
        rng = np.random.default_rng(23)
        state = InducedWalkState((0,))
        n = 20000
        for _ in range(n):
            state = induced_walk_step(env, state, rng)
        frac = sum(state.forced_flags) / n
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(frac - expect) < 5 * se

    def test_decomposition_agrees_with_direct_sampler(self):
        env = random_env(np.random.default_rng(24))
        x = (0,)
        n = 100_000
        rng_a = np.random.default_rng(25)
        direct = Counter(sample_induced_direct(env, x, rng_a)
                         for _ in range(n))
        rng_b = np.random.default_rng(26)
        decomposed = Counter()
        for _ in range(n):
            state = InducedWalkState(x)
            state = induced_walk_step(env, state, rng_b)
            step = tuple(b - a for a, b in zip(x, state.position))
            decomposed[step] += 1
        offsets = sorted(set(direct) | set(decomposed))
        table = np.array([[direct.get(y, 0) for y in offsets],
                          [decomposed.get(y, 0) for y in offsets]])
        keep = table.sum(axis=0) > 0
        _, pval, _, _ = sstats.chi2_contingency(table[:, keep])
        assert pval > 1e-3

    def test_rejects_non_elliptic_environment(self):
        one_way = law_of(({(1,): 1}, 1.0))
        env = homogeneous_env(one_way)
        with pytest.raises(SimulationError):
            induced_walk_step(env, InducedWalkState((0,)),
                              np.random.default_rng(0))

    def test_step_count_and_trace_lengths(self):
        env = random_env(np.random.default_rng(27))
        rng = np.random.default_rng(28)
        state = InducedWalkState((3,))
        for _ in range(50):
            state = induced_walk_step(env, state, rng)
        assert state.step_count == 50
        assert len(state.forced_flags) == 50
        assert len(state.forced_symbols) == 50


class TestReturnProbability:
    def test_doubling_returns_by_two_steps(self):
        env = homogeneous_env(doubling_law())
        est = estimate_return_probability(env, (0,), 2, 50, 7)
        assert est.estimate == 1.0
        assert est.hits == 50

    def test_impossible_at_odd_horizon(self):
        env = homogeneous_env(doubling_law())
        est = estimate_return_probability(env, (0,), 1, 50, 7)
        assert est.estimate == 0.0

    def test_deterministic_in_master_seed(self):
        env = random_env(np.random.default_rng(32))
        a = estimate_return_probability(env, (0,), 6, 200, 11)
        b = estimate_return_probability(env, (0,), 6, 200, 11)
        assert a == b

    def test_monotone_in_horizon(self):
        env = random_env(np.random.default_rng(33))
        lo = estimate_return_probability(env, (0,), 2, 300, 13)
        hi = estimate_return_probability(env, (0,), 10, 300, 13)
        assert hi.estimate >= lo.estimate

    def test_interval_clipped_to_unit_range(self):
        env = homogeneous_env(doubling_law())
        est = estimate_return_probability(env, (0,), 2, 50, 7)
        assert est.ci_low <= est.estimate <= est.ci_high <= 1.0
        assert est.ci_low >= 0.0

    def test_validation(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(ValueError):
            estimate_return_probability(env, (0,), 0, 10, 7)
        with pytest.raises(ValueError):
            estimate_return_probability(env, (0,), 5, 0, 7)
        with pytest.raises(ValueError, match="dimension 2.*dimension 1"):
            estimate_return_probability(env, (0, 0), 5, 10, 7)


class TestMemoryBudget:
    """A run reads the memory budget once; each generation's scatter box
    is checked against it."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        orig = environment.memory_budget

        def counting():
            calls.append(1)
            return orig()

        monkeypatch.setattr(environment, "memory_budget", counting)
        monkeypatch.setattr(montecarlo, "memory_budget", counting)
        return calls

    def test_once_per_iter_batch_run(self, reads):
        env = random_env(np.random.default_rng(34))
        rngs = [np.random.default_rng(r) for r in (3, 4)]
        assert len(list(iter_batch(env, (0,), 30, rngs))) == 31
        assert len(reads) == 1

    def test_once_per_return_probability_run(self, reads):
        env = random_env(np.random.default_rng(35))
        estimate_return_probability(env, (0,), 10, 300, 13)
        assert len(reads) == 1

    def test_a_lone_step_reads_it(self, reads):
        env = random_env(np.random.default_rng(36))
        step_batch(env, PopulationBatch.initial((0,), 1),
                   [np.random.default_rng(5)])
        assert len(reads) == 1


class TestRealizedExponent:
    def _fake_runs(self):
        def states(counts_by_n):
            return [PopulationBatch.from_counts(k, [c])
                    for k, c in enumerate(counts_by_n)]

        run_a = states([{(0,): 1}, {(1,): 2}, {(0,): 4}])
        run_b = states([{(0,): 1}, {(-1,): 1}, {(2,): 2}])
        return [run_a, run_b]

    def _counts(self, n, sites):
        return [[states[n].count(x)[0] for x in sites]
                for states in self._fake_runs()]

    def test_mean_and_occupancy(self):
        [stat] = realized_local_exponent(2, [(0,)], self._counts(2, [(0,)]))
        assert stat.n == 2
        assert stat.samples == 1
        assert stat.occupancy == 0.5
        assert stat.mean == pytest.approx(math.log(4) / 2)
        assert stat.ci_low == stat.ci_high == stat.mean

    def test_never_occupied_gives_nan(self):
        [stat] = realized_local_exponent(2, [(9,)], self._counts(2, [(9,)]))
        assert math.isnan(stat.mean)
        assert stat.occupancy == 0.0
        assert stat.samples == 0

    def test_generation_zero_counts_as_zero_rate(self):
        [stat] = realized_local_exponent(0, [(0,)], self._counts(0, [(0,)]))
        assert stat.mean == 0.0
        assert stat.occupancy == 1.0

    def test_two_contributors_yield_interval(self):
        [stat] = realized_local_exponent(1, [(1,)], self._counts(1, [(1,)]))
        assert stat.samples == 1
        both = [self._counts(2, [(0,)])[0]] * 2
        [stat2] = realized_local_exponent(2, [(0,)], both)
        assert stat2.samples == 2
        assert stat2.ci_low == stat2.ci_high == stat2.mean  # zero variance

    def test_counts_row_per_site_required(self):
        # one generation n for every run; a run must give one count per site
        with pytest.raises(ValueError, match="one count per site"):
            realized_local_exponent(2, [(0,), (1,)], [[4, 0], [0]])
        with pytest.raises(ValueError, match="at least one run"):
            realized_local_exponent(2, [(0,)], [])


class TestStreamSeparation:
    def test_purposes_do_not_collide(self):
        a = replica_rng(5, 0, PURPOSE_DYNAMICS)
        b = replica_rng(5, 0, PURPOSE_RETURN_PROBE)
        assert a.random() != b.random()

    def test_replicas_do_not_collide(self):
        a = replica_rng(5, 0, PURPOSE_DYNAMICS)
        b = replica_rng(5, 1, PURPOSE_DYNAMICS)
        assert a.random() != b.random()

    def test_reproducible(self):
        a = replica_rng(5, 3, PURPOSE_DYNAMICS)
        b = replica_rng(5, 3, PURPOSE_DYNAMICS)
        assert a.random() == b.random()
