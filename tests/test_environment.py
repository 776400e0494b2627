import json
import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate, product

import numpy as np
import pytest
from scipy.special import logsumexp

from brwre import environment
from brwre.environment import (
    Dependence,
    EnvironmentError_,
    EnvironmentField,
    EnvironmentSpec,
    OffspringConfig,
    _logsumexp,
    build_environment,
    check_conditions,
    is_delta_aperiodic,
    spec_from_dict,
    spec_to_dict,
)
from brwre.lattice import StepSet
from brwre.seeding import axis_hash

from _support import (
    cell_hash,
    cell_uniform,
    doubling_law,
    drift_law,
    iid_env,
    law_of,
    nearest_neighbour,
)


class TestOffspringConfig:
    def test_from_dict_drops_zeros_and_sorts(self):
        cfg = OffspringConfig.from_dict({(1,): 2, (-1,): 0, (2,): 1})
        assert cfg.counts == (((1,), 2), ((2,), 1))
        assert cfg.total == 3
        assert cfg.count((1,)) == 2
        assert cfg.count((-1,)) == 0

    def test_empty_config_rejected(self):
        with pytest.raises(EnvironmentError_):
            OffspringConfig.from_dict({(1,): 0})

    def test_as_dict_round_trip(self):
        cfg = OffspringConfig.from_dict({(1,): 1, (-1,): 2})
        assert OffspringConfig.from_dict(cfg.as_dict()) == cfg


class TestSiteLaw:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(EnvironmentError_):
            law_of(({(1,): 1}, 0.5), ({(-1,): 1}, 0.4))

    def test_negative_probability_rejected(self):
        with pytest.raises(EnvironmentError_):
            law_of(({(1,): 1}, 1.2), ({(-1,): 1}, -0.2))

    def test_mean_offspring(self):
        law = drift_law()
        mu = law.mean_offspring
        assert mu[(1,)] == pytest.approx(0.84, abs=1e-12)
        assert mu[(-1,)] == pytest.approx(0.21, abs=1e-12)
        assert law.mean_total == pytest.approx(1.05, abs=1e-12)

    def test_step_mass_counts_any_child(self):
        law = law_of(({(1,): 2}, 0.3), ({(1,): 1, (-1,): 1}, 0.3),
                     ({(-1,): 1}, 0.4))
        assert law.step_mass((1,)) == pytest.approx(0.6)
        assert law.step_mass((-1,)) == pytest.approx(0.7)
        assert law.step_mass((5,)) == 0.0

    def test_prob_of(self):
        law = drift_law()
        assert law.prob_of(OffspringConfig.from_dict({(1,): 2})) == \
            pytest.approx(0.05)
        assert law.prob_of(OffspringConfig.from_dict({(1,): 3})) == 0.0

    def test_atom_probs_normalized(self):
        law = law_of(({(1,): 1}, 0.1 + 0.2), ({(-1,): 1}, 0.7))
        assert law.atom_probs.sum() == 1.0


class TestConditions:
    def test_standard_conditions(self):
        env = iid_env([drift_law(), doubling_law()], [0.5, 0.5], 1)
        rep = env.conditions
        assert rep.holds_B  # the doubling law has an atom with 2 children
        assert rep.holds_UE
        # drift law: P(child at -1) = 0.21 is the worst unit-direction mass
        assert rep.epsilon0 == pytest.approx(0.21)
        assert rep.holds_D
        assert rep.D0 == pytest.approx(2.0)
        assert rep.rho == 1

    def test_branching_condition_needs_multi_child_atom(self):
        env = iid_env([law_of(({(1,): 1}, 0.5), ({(-1,): 1}, 0.5))], [1.0], 0)
        assert not env.conditions.holds_B

    def test_ue_fails_when_direction_unreachable(self):
        one_sided = law_of(({(1,): 1}, 1.0))
        rep = check_conditions(iid_env([one_sided], [1.0], 0).spec)
        assert not rep.holds_UE
        assert rep.epsilon0 == 0.0

    def test_even_offset_witness(self):
        ss = StepSet(((1,), (-1,), (2,)))
        law = law_of(({(2,): 1}, 0.25), ({(1,): 1}, 0.4), ({(-1,): 1}, 0.35))
        env = iid_env([law], [1.0], 0, step_set=ss)
        rep = env.conditions
        assert rep.holds_A
        offset, cfg = rep.witness
        assert offset == (2,)
        assert cfg == OffspringConfig.from_dict({(2,): 1})

    def test_no_witness_for_nearest_neighbour_single_children(self):
        env = iid_env([doubling_law()], [1.0], 0)
        assert not env.conditions.holds_A
        assert env.conditions.witness is None

    def test_zero_weight_law_not_charged(self):
        bad = law_of(({(1,): 1}, 1.0))  # would break UE if charged
        env = iid_env([doubling_law(), bad], [1.0, 0.0], 0)
        assert env.conditions.holds_UE

    def test_block_window_rho(self):
        spec = EnvironmentSpec(
            dimension=1, step_set=nearest_neighbour(1),
            law_support=(doubling_law(), drift_law()), weights=(0.5, 0.5),
            dependence=Dependence("block_window", 3), master_seed=5)
        assert check_conditions(spec).rho == 7


class TestFieldRealization:
    def test_deterministic_in_seed(self):
        a = iid_env([doubling_law(), drift_law()], [0.3, 0.7], 42)
        b = iid_env([doubling_law(), drift_law()], [0.3, 0.7], 42)
        c = iid_env([doubling_law(), drift_law()], [0.3, 0.7], 43)
        sites = [(x,) for x in range(-50, 51)]
        ia = [a.law_index(s) for s in sites]
        assert ia == [b.law_index(s) for s in sites]
        assert ia != [c.law_index(s) for s in sites]

    @pytest.mark.parametrize("seed,site,want", [
        (0, (0,), 0.4627342646327526),
        (7, (3, -2), 0.4783091665896938),
        (11, (-5, 4, 9), 0.11968978728910451),
        (2**40 + 3, (123456, -7), 0.9170676179549913),
        (53, (0, 0, 0), 0.44445080737055254),
    ])
    def test_cell_uniform_golden(self, seed, site, want):
        # pinned values: a change to the hash or its tag changes every law
        assert float(cell_uniform(seed, site)) == want
        assert cell_uniform(seed, np.array([site, site]))[1] == want

    def test_scalar_matches_grid_iid(self):
        env = iid_env([doubling_law(), drift_law(), drift_law()],
                      [0.2, 0.5, 0.3], 7)
        grid = env.law_index_grid((-20,), (20,))
        for i, x in enumerate(range(-20, 21)):
            assert env.law_index((x,)) == grid[i]

    def test_scalar_matches_grid_block(self):
        planar = law_of(({(1, 0): 1, (-1, 0): 1}, 0.5), ({(0, 1): 1}, 0.25),
                        ({(0, -1): 1}, 0.25))
        lazy = law_of(({(1, 0): 1}, 0.25), ({(-1, 0): 1}, 0.25),
                      ({(0, 1): 1}, 0.25), ({(0, -1): 1}, 0.25))
        spec = EnvironmentSpec(
            dimension=2, step_set=nearest_neighbour(2),
            law_support=(planar, lazy), weights=(0.5, 0.5),
            dependence=Dependence("block_window", 1), master_seed=9)
        env = build_environment(spec)
        grid = env.law_index_grid((-5, -5), (5, 5))
        for i, x in enumerate(range(-5, 6)):
            for j, y in enumerate(range(-5, 6)):
                assert env.law_index((x, y)) == grid[i, j]

    @pytest.mark.parametrize("site,want", [
        ((0, 0, 0), 0), ((1, -2, 3), 1), ((-7, 0, 5), 0), ((40, -13, -2), 1),
        ((123456, -7, 99), 2), ((-1, -1, -1), 1), ((2, 2, 0), 0),
        ((-5, 8, -8), 0),
    ])
    def test_law_index_golden_block_d3(self, site, want):
        # pinned values of the per-site lookup on a d = 3 block window
        units = nearest_neighbour(3).offsets
        hop = law_of(*[({u: 1}, 1 / 6) for u in units])
        spec = EnvironmentSpec(
            dimension=3, step_set=nearest_neighbour(3),
            law_support=(hop, hop, hop), weights=(0.3, 0.5, 0.2),
            dependence=Dependence("block_window", 1), master_seed=53)
        assert build_environment(spec).law_index(site) == want

    def test_index_memo_is_bounded(self):
        env = iid_env([doubling_law(), drift_law()], [0.5, 0.5], 11)
        bound = environment._INDEX_MEMO_SIZE
        last = bound + 100
        for x in range(last):
            env.law_index((x,))
        assert len(env._index_memo) == bound
        assert (0,) not in env._index_memo  # the oldest went first
        grid = env.law_index_grid((0,), (last - 1,))
        for x in (0, 1, bound // 2, last - 1):
            assert env.law_index((x,)) == grid[x]
        assert len(env._index_memo) <= bound

    def test_weights_respected(self):
        env = iid_env([doubling_law(), drift_law()], [0.8, 0.2], 3)
        grid = env.law_index_grid((0,), (19999,))
        frac = float(np.mean(grid == 0))
        assert abs(frac - 0.8) < 0.02

    def test_from_index_function(self):
        spec = iid_env([doubling_law(), drift_law()], [0.5, 0.5], 0).spec
        env = EnvironmentField.from_index_function(
            spec, lambda x: abs(x[0]) % 2)
        assert env.law_at((0,)) == doubling_law()
        assert env.law_at((3,)) == drift_law()


class TestAperiodicity:
    def test_strictly_above_delta(self):
        law = law_of(({(2,): 1}, 0.25), ({(1,): 1}, 0.4), ({(-1,): 1}, 0.35))
        witness = ((2,), OffspringConfig.from_dict({(2,): 1}))
        assert is_delta_aperiodic(law, 0.2, witness)
        assert not is_delta_aperiodic(law, 0.25, witness)

    def test_rejects_odd_norm_witness(self):
        law = doubling_law()
        witness = ((1,), OffspringConfig.from_dict({(1,): 1, (-1,): 1}))
        with pytest.raises(EnvironmentError_):
            is_delta_aperiodic(law, 0.1, witness)


class TestSpecSerialization:
    def _spec(self):
        return EnvironmentSpec(
            dimension=2, step_set=nearest_neighbour(2),
            law_support=(
                law_of(({(1, 0): 1, (0, -1): 2}, 0.5), ({(-1, 0): 1}, 0.5)),
                law_of(({(0, 1): 1}, 1.0)),
            ),
            weights=(0.25, 0.75),
            dependence=Dependence("block_window", 2),
            master_seed=77)

    def test_round_trip_identity(self):
        spec = self._spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_json_round_trip(self):
        spec = self._spec()
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_unknown_fields_rejected(self):
        doc = spec_to_dict(self._spec())
        doc["surprise"] = 1
        with pytest.raises(EnvironmentError_):
            spec_from_dict(doc)

    def test_unknown_law_fields_rejected(self):
        doc = spec_to_dict(self._spec())
        doc["laws"][0]["extra"] = True
        with pytest.raises(EnvironmentError_):
            spec_from_dict(doc)

    def test_offset_keys_canonical(self):
        doc = spec_to_dict(self._spec())
        keys = set(doc["laws"][0]["atoms"][0]["counts"])
        assert keys == {"(1,0)", "(0,-1)"}


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(EnvironmentError_):
            iid_env([doubling_law(), drift_law()], [0.5, 0.6], 0)

    def test_offsets_must_lie_in_step_set(self):
        law = law_of(({(3,): 1}, 1.0))
        with pytest.raises(EnvironmentError_):
            iid_env([law], [1.0], 0)

    def test_dimension_mismatch(self):
        with pytest.raises(EnvironmentError_):
            EnvironmentSpec(
                dimension=2, step_set=nearest_neighbour(1),
                law_support=(doubling_law(),), weights=(1.0,),
                dependence=Dependence("iid"), master_seed=0)


class TestAxisWiseHash:
    """The box hash mixes one axis at a time over an open mesh; it equals
    the per-site hash of an explicit (..., d) mesh bit for bit."""

    @staticmethod
    def mesh(lo, hi):
        axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @pytest.mark.parametrize("lo,hi", [((-7,), (5,)), ((-4, -9), (3, 2)),
                                       ((-3, -5, -2), (2, 1, 4))])
    def test_open_mesh_matches_stacked_mesh(self, lo, hi):
        axes = environment._box_axes(lo, hi)
        assert (axis_hash(2**63 + 5, axes).tobytes()
                == cell_hash(2**63 + 5, self.mesh(lo, hi)).tobytes())
        for x in (tuple(lo), tuple(hi)):
            assert cell_hash(3, x) == cell_hash(3, np.array([x]))[0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dependence", ["iid", "block_window", "function"])
    def test_law_index_grid_matches_mesh_uniforms(self, d, dependence):
        # "function": a hand-built field, read one site at a time
        units = nearest_neighbour(d).offsets
        hop = law_of(*[({u: 1}, 1 / (2 * d)) for u in units])
        dep = Dependence("block_window", 2) if dependence == "block_window" \
            else Dependence("iid")
        spec = EnvironmentSpec(
            dimension=d, step_set=nearest_neighbour(d),
            law_support=(hop, hop, hop), weights=(0.3, 0.5, 0.2),
            dependence=dep, master_seed=29)
        lo, hi = (-6, -1, -8)[:d], (3, 5, -2)[:d]
        mesh = self.mesh(lo, hi)
        if dependence == "function":
            def fn(x):
                return sum((i + 2) * c for i, c in enumerate(x)) % 3
            env = EnvironmentField.from_index_function(spec, fn)
            want = np.apply_along_axis(lambda x: fn(tuple(x)), -1, mesh)
        else:
            env = build_environment(spec)
            if dependence == "iid":
                u = cell_uniform(29, mesh)
            else:
                u = np.zeros(mesh.shape[:-1])
                for c in env._window_cells:
                    u += cell_uniform(29, mesh + np.array(c))
                u = np.mod(u, 1.0)
            want = np.searchsorted(np.cumsum([0.3, 0.5, 0.2]), u,
                                   side="right")
        assert np.array_equal(env.law_index_grid(lo, hi), want)
        assert np.array_equal(env.law_index_axes(np.moveaxis(mesh, -1, 0)),
                              want)
        # a sheared lattice frame, as the DP's slabs pass it: site
        # (z1 + z2, z1 - z2, ...) over an open mesh of z
        z = [np.arange(-3, 4).reshape(-1, 1), np.arange(-2, 3).reshape(1, -1)]
        if d >= 2:
            axes = [z[0] + z[1], z[0] - z[1], 1 - z[0]][:d]
            sites = np.stack(np.broadcast_arrays(*axes), axis=-1)
            assert np.array_equal(env.law_index_axes(axes),
                                  env.law_index_axes(np.moveaxis(sites, -1, 0)))

    def test_override_reads_axes(self):
        hop = law_of(({(1, 0): 1, (0, 1): 1}, 0.5), ({(-1, 0): 1, (0, -1): 1}, 0.5))
        env = EnvironmentField.from_index_function(
            EnvironmentSpec(dimension=2, step_set=nearest_neighbour(2),
                            law_support=(hop,), weights=(1.0,)),
            lambda x: (x[0] * 3 + x[1]) % 2)
        got = env.law_index_grid((-2, 0), (1, 2))
        assert got.tolist() == [[(x * 3 + y) % 2 for y in range(0, 3)]
                                for x in range(-2, 2)]


class TestGridMemory:
    def test_block_window_box_builds_no_site_mesh(self):
        # the d = 3 BFS box of `brwre shape` at radius 24, window 1: the
        # hash of the padded box stays below its stacked int64 mesh
        units = nearest_neighbour(3).offsets
        hop = law_of(*[({u: 1}, 1 / 6) for u in units])
        spec = EnvironmentSpec(
            dimension=3, step_set=nearest_neighbour(3),
            law_support=(hop, hop), weights=(0.3, 0.7),
            dependence=Dependence("block_window", 1), master_seed=5)
        env = build_environment(spec)
        r = 24
        mesh_bytes = 3 * 8 * (2 * r + 3) ** 3
        tracemalloc.start()
        try:
            env.law_index_grid((-r,) * 3, (r,) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mesh_bytes


class TestNarrowLawIndices:
    """`law_index_grid` returns the smallest unsigned dtype that holds the
    law count, hashing its box in slabs of rows along axis 0."""

    @staticmethod
    def env(d, dependence, laws=3, seed=31):
        units = nearest_neighbour(d).offsets
        hop = law_of(*[({u: 1}, 1 / (2 * d)) for u in units])
        dep = (Dependence("iid") if dependence == "iid"
               else Dependence("block_window", 1))
        return build_environment(EnvironmentSpec(
            dimension=d, step_set=nearest_neighbour(d),
            law_support=(hop,) * laws, weights=(1 / laws,) * laws,
            dependence=dep, master_seed=seed))

    @staticmethod
    def per_cell(env, lo, hi):
        """Law indices from per-cell `cell_uniform` sums, one site at a time.

        The window cells are added in sorted order from 0.0, as the box
        does, and the last law takes every u at or above the others'
        weight."""
        spec = env.spec
        w = spec.dependence.window_radius
        window = sorted(c for c in product(range(-w, w + 1),
                                           repeat=spec.dimension)
                        if sum(map(abs, c)) <= w)
        cum = list(accumulate(spec.weights))
        out = np.empty([h - l + 1 for l, h in zip(lo, hi)], dtype=np.int64)
        for idx in np.ndindex(out.shape):
            x = [l + i for l, i in zip(lo, idx)]
            u = 0.0
            for c in window:
                u += float(cell_uniform(spec.master_seed,
                                        [a + b for a, b in zip(x, c)]))
            out[idx] = min(bisect_right(cum, u % 1.0), len(cum) - 1)
        return out

    @pytest.mark.parametrize("laws,dtype", [(1, np.uint8), (256, np.uint8),
                                            (257, np.uint16), (300, np.uint16)])
    def test_dtype_holds_the_law_count(self, laws, dtype):
        env = self.env(2, "iid", laws)
        lo, hi = (-3, -2), (4, 3)
        got = env.law_index_grid(lo, hi)
        assert got.dtype == dtype
        assert env.law_index_axes([np.array([0, 1]), np.array([0, 2])]).dtype \
            == dtype
        assert np.array_equal(got, self.per_cell(env, lo, hi))
        if laws == 300:
            assert got.max() >= 256

    # boxes of 13, 11 and 7 rows hashed in slabs of 5, 4 and 3 rows, so
    # the last slab is short, and whole
    @pytest.mark.parametrize("d,lo,hi,slab_cells", [
        (1, (-6,), (6,), 5), (2, (-5, -2), (5, 3), 24),
        (3, (-4, -2, -3), (2, 1, 0), 48)])
    @pytest.mark.parametrize("dependence", ["iid", "block_window"])
    @pytest.mark.parametrize("sliced", [True, False])
    def test_slabs_equal_per_cell_sums(self, monkeypatch, d, lo, hi,
                                       slab_cells, dependence, sliced):
        if sliced:
            monkeypatch.setattr(environment, "_SLAB_CELLS", slab_cells)
        env = self.env(d, dependence)
        got = env.law_index_grid(lo, hi)
        assert got.dtype == np.uint8
        assert np.array_equal(got, self.per_cell(env, lo, hi))


class TestKeptBox:
    """`law_index_grid` keeps no box between requests: each call returns
    a fresh array, and an empty box raises inside one asked for before."""

    @staticmethod
    def env(d, kind):
        units = nearest_neighbour(d).offsets
        hop = law_of(*[({u: 1}, 1 / (2 * d)) for u in units])
        spec = EnvironmentSpec(
            dimension=d, step_set=nearest_neighbour(d),
            law_support=(hop,) * 3, weights=(0.3, 0.5, 0.2),
            dependence=(Dependence("block_window", 1) if kind == "window"
                        else Dependence("iid")),
            master_seed=17)
        if kind == "function":
            return EnvironmentField.from_index_function(
                spec, lambda x: sum((i + 2) * c for i, c in enumerate(x)) % 3)
        return build_environment(spec)

    @pytest.mark.parametrize("kind", ["iid", "window", "function"])
    def test_each_request_returns_a_fresh_array(self, kind):
        env = self.env(2, kind)
        whole = env.law_index_grid((-5, -5), (5, 5))
        part = env.law_index_grid((0, -2), (3, 4))
        assert not np.shares_memory(whole, part)
        assert np.array_equal(part, whole[5:9, 3:10])
        part[...] = 0
        assert np.array_equal(env.law_index_grid((0, -2), (3, 4)),
                              whole[5:9, 3:10])

    @pytest.mark.parametrize("kind", ["iid", "window", "function"])
    def test_empty_box_raises_inside_the_kept_box(self, kind):
        env = self.env(2, kind)
        env.law_index_grid((-5, -5), (5, 5))
        with pytest.raises(EnvironmentError_, match="empty box"):
            env.law_index_grid((0, 0), (1, -1))


class TestLogSumExp:
    """The one log-sum-exp of `expected_total`, `_legendre` and `_Phi`."""

    @pytest.mark.parametrize("shape, axis", [
        ((1000,), -1), ((300, 41), 1), ((41, 300), 0), ((20, 3, 17), 2)])
    def test_matches_scipy(self, shape, axis):
        rng = np.random.default_rng(sum(shape))
        expo = rng.normal(scale=50.0, size=shape)
        want = logsumexp(expo, axis=axis)
        got = _logsumexp(expo.copy(), axis=axis)[0]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_tied_maxima(self):
        value, weights, total = _logsumexp(np.array([1.0, 3.0, 3.0, 2.0]))
        rest = math.exp(-2.0) + math.exp(-1.0)
        assert value == math.log1p(rest / 2) + math.log(2) + 3.0
        assert weights.tolist() == [math.exp(-2.0), 1.0, 1.0, math.exp(-1.0)]
        assert total == 2 + rest

    def test_neg_inf_padding_adds_nothing(self):
        # a short law's row in `_Phi` is padded with -inf
        row = np.random.default_rng(3).normal(size=4)
        padded = np.concatenate([row, np.full(3, -np.inf)])
        value, weights, total = _logsumexp(padded[None, :], axis=1)
        want = _logsumexp(row)
        assert (value[0], total[0]) == (want[0], want[2])
        assert weights[0].tolist() == want[1].tolist() + [0.0] * 3

    def test_one_finite_term(self):
        value, weights, total = _logsumexp(np.array([-np.inf, -7.25, -np.inf]))
        assert (value, total) == (-7.25, 1.0)
        assert weights.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 1000])
    def test_equal_terms_give_log_m_plus_max(self, m):
        value, weights, total = _logsumexp(np.full(m, 2.5))
        assert value == math.log(m) + 2.5
        assert total == m and weights.tolist() == [1.0] * m

    def test_weights_overwrite_expo(self):
        expo = np.array([[0.5, -1.0, 2.0], [4.0, 4.0, -3.0]])
        want = np.exp(expo - expo.max(axis=1, keepdims=True))
        _, weights, total = _logsumexp(expo, axis=1)
        assert weights is expo
        assert np.array_equal(expo, want)
        assert np.allclose(total, want.sum(axis=1), rtol=1e-15)
