import csv
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from brwre import environment, expectation
from brwre.expectation import (
    NEG_INF,
    LogMassField,
    SolverError,
    check_anderson_equation,
    expected_total,
    iter_layers,
    read_layer_binary,
    read_layer_csv,
    write_layer_binary,
    write_layer_csv,
)
from brwre.environment import (
    BYTES_PER_BOX_CELL,
    Dependence,
    EnvironmentSpec,
    build_environment,
    check_box_memory,
)
from brwre.lattice import StepSet, add, unit_vectors

from _support import (
    doubling_law,
    drift_law,
    homogeneous_env,
    iid_env,
    law_of,
    mean2_law,
    nearest_neighbour,
    random_env,
    reference_layers,
)


def brute_forward(env, start, n):
    """Reference mass evolution in plain floats (source-site coefficients)."""
    cur = {tuple(start): 1.0}
    for _ in range(n):
        nxt = {}
        for x, m in cur.items():
            for y, w in env.law_at(x).mean_offspring.items():
                z = add(x, y)
                nxt[z] = nxt.get(z, 0.0) + m * w
        cur = nxt
    return cur


def brute_adjoint(env, target, n):
    """Reference adjoint evolution (coefficients attach to the site itself)."""
    offs = env.spec.step_set.offsets
    cur = {tuple(target): 1.0}
    for _ in range(n):
        sources = {tuple(a - b for a, b in zip(z, y)) for z in cur for y in offs}
        nxt = {}
        for x in sources:
            s = sum(
                w * cur.get(add(x, y), 0.0)
                for y, w in env.law_at(x).mean_offspring.items()
            )
            if s > 0.0:
                nxt[x] = s
        cur = nxt
    return cur


def brute_anderson_residual(env, layers):
    """Per-site loop form of the residual that check_anderson_equation takes."""
    offs = env.spec.step_set.sorted_offsets()
    worst = 0.0
    for prev, cur in zip(layers, layers[1:]):
        for x in product(*(range(l, h + 1) for l, h in zip(cur.lo, cur.hi))):
            law = env.law_at(x)
            r = law.mean_total
            u_x = math.exp(prev.get(x))
            u_next = math.exp(cur.get(x))
            lap = sum(law.mean_offspring.get(y, 0.0) / r
                      * (math.exp(prev.get(add(x, y))) - u_x) for y in offs)
            resid = abs(u_next - u_x - r * lap - (r - 1.0) * u_x)
            worst = max(worst, resid / max(1.0, abs(u_x), abs(u_next)))
    return worst


def cube_env(dependence=Dependence("iid")):
    """d = 3 nearest-neighbour environment over two distinct laws."""
    up = law_of(
        ({(1, 0, 0): 1}, 0.2), ({(-1, 0, 0): 1}, 0.2),
        ({(0, 1, 0): 1}, 0.15), ({(0, -1, 0): 1}, 0.15),
        ({(0, 0, 1): 2}, 0.15), ({(0, 0, -1): 1}, 0.15))
    east = law_of(
        ({(1, 0, 0): 1, (-1, 0, 0): 1}, 0.3), ({(0, 1, 0): 1}, 0.2),
        ({(0, -1, 0): 1}, 0.2), ({(0, 0, 1): 1}, 0.15),
        ({(0, 0, -1): 1}, 0.15))
    spec = EnvironmentSpec(
        dimension=3, step_set=nearest_neighbour(3),
        law_support=(up, east), weights=(0.5, 0.5),
        dependence=dependence, master_seed=17)
    return build_environment(spec)


def layer_masses(fld):
    return {x: math.exp(v) for x, v in fld.items()}


def last(env, start, n, **kw):
    return list(iter_layers(env, start, n, **kw))[-1]


class TestAgainstEnumeration:
    def test_forward_matches_path_sums(self):
        env = random_env(np.random.default_rng(11))
        fld = last(env, (0,), 7)
        got = layer_masses(fld)
        want = brute_forward(env, (0,), 7)
        assert set(got) == {x for x, m in want.items() if m > 0.0}
        for x, m in got.items():
            assert m == pytest.approx(want[x], rel=1e-10)

    def test_adjoint_matches_path_sums(self):
        env = random_env(np.random.default_rng(12))
        fld = last(env, (0,), 6, adjoint=True)
        got = layer_masses(fld)
        want = brute_adjoint(env, (0,), 6)
        for x, m in got.items():
            assert m == pytest.approx(want[x], rel=1e-10)

    def test_forward_adjoint_duality(self):
        # expected count at z started from x = adjoint field from z read at x
        env = random_env(np.random.default_rng(13))
        n = 6
        fwd = last(env, (0,), n)
        for z in [(-4,), (-2,), (0,), (2,), (4,), (6,)]:
            adj = last(env, z, n, adjoint=True)
            assert math.exp(fwd.get(z)) == pytest.approx(
                math.exp(adj.get((0,))), rel=1e-10)

    def test_three_dimensional(self):
        law = law_of(
            ({(1, 0, 0): 1}, 0.2), ({(-1, 0, 0): 1}, 0.2),
            ({(0, 1, 0): 1}, 0.15), ({(0, -1, 0): 1}, 0.15),
            ({(0, 0, 1): 2}, 0.15), ({(0, 0, -1): 1}, 0.15))
        env = homogeneous_env(law, dimension=3)
        fld = last(env, (0, 0, 0), 4)
        want = brute_forward(env, (0, 0, 0), 4)
        got = layer_masses(fld)
        assert set(got) == set(want)
        for x, m in got.items():
            assert m == pytest.approx(want[x], rel=1e-10)

    def test_three_dimensional_block_window(self):
        # two laws picked by a radius-1 window: the DP reads the d = 3
        # windowed law_index_grid, the reference reads per-site law_index
        env = cube_env(Dependence("block_window", 1))
        start = (1, -2, 0)
        for fld, n in zip(iter_layers(env, start, 5), range(6)):
            want = brute_forward(env, start, n)
            got = layer_masses(fld)
            assert set(got) == set(want)
            for x, m in got.items():
                assert m == pytest.approx(want[x], rel=1e-10)


class TestHomogeneousClosedForms:
    def test_binomial_masses(self):
        env = homogeneous_env(doubling_law())
        n = 40
        fld = last(env, (0,), n)
        for x in range(-n, n + 1):
            v = fld.get((x,))
            if (n + x) % 2 == 1:
                assert v == float("-inf")
            else:
                assert v == pytest.approx(
                    math.log(math.comb(n, (n + x) // 2)), abs=1e-11)

    def test_total_growth_is_log_mean_total(self):
        env = homogeneous_env(mean2_law())
        n = 120
        fld = last(env, (0,), n)
        assert expected_total(fld) / n == pytest.approx(math.log(2.0), abs=1e-12)

    def test_offset_start(self):
        env = homogeneous_env(doubling_law())
        fld = last(env, (5,), 8)
        assert math.exp(fld.get((5,))) == pytest.approx(math.comb(8, 4))


class TestLayerInvariants:
    def test_supermultiplicative_in_log_space(self):
        env = random_env(np.random.default_rng(21))
        s, t = 5, 4
        big = last(env, (0,), s + t)
        mid = last(env, (0,), s)
        for y, ly in mid.items():
            tail = last(env, y, t)
            for z, lz in tail.items():
                assert big.get(z) >= ly + lz - 1e-9

    def test_support_inside_ball(self):
        env = random_env(np.random.default_rng(22))
        l0 = env.spec.step_set.l0_max
        for fld in iter_layers(env, (3,), 9):
            for x, _ in fld.items():
                assert abs(x[0] - 3) <= l0 * fld.n

    def test_iter_layers_counts_and_indices(self):
        env = random_env(np.random.default_rng(23))
        layers = list(iter_layers(env, (0,), 5))
        assert [f.n for f in layers] == [0, 1, 2, 3, 4, 5]
        assert layers[0].get((0,)) == 0.0
        assert layers[0].support_size() == 1


class TestMemoryPreflight:
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_oversized_box_raises_before_allocating(self, adjoint):
        # a (2 * 10**4 + 1)**3 box: the check must fire before _Tables
        with pytest.raises(SolverError, match="horizon 10000"):
            list(iter_layers(cube_env(), (0, 0, 0), 10_000, adjoint=adjoint))

    def test_adapted_box_runs_where_dense_box_is_refused(self, monkeypatch):
        # memory for half the d = 3 dense box of horizon h: the lattice
        # cells, about a quarter of it, fit
        h = 40
        dense = (2 * h + 1) ** 3
        pages = dense * BYTES_PER_BOX_CELL // 2 // 4096
        monkeypatch.setattr(environment.os, "sysconf",
                            lambda name: 4096 if name == "SC_PAGE_SIZE" else pages)
        with pytest.raises(SolverError, match="cell box"):
            check_box_memory(dense, SolverError, "the dense box")
        env, start = cube_env(Dependence("block_window", 1)), (1, -2, 0)
        layers = iter_layers(env, start, h)
        for n in range(3):
            fld = next(layers)
            assert fld.n == n
            assert layer_masses(fld) == pytest.approx(brute_forward(env, start, n),
                                                      rel=1e-12)
        # at twice the horizon even the lattice cells do not fit
        with pytest.raises(SolverError, match=f"horizon {2 * h}"):
            list(iter_layers(env, start, 2 * h))

    def test_soft_address_space_limit_binds(self):
        # a child process lowers its own soft RLIMIT_AS to half of physical
        # memory before it imports the package; a box that fits physical
        # memory but not the limit is refused, and the message names it
        code = """if True:
            import os, resource
            phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            limit = phys // 2
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            from brwre.environment import BYTES_PER_BOX_CELL, check_box_memory
            check_box_memory(10**6, RuntimeError, "a small box")
            try:
                check_box_memory(limit // BYTES_PER_BOX_CELL + 1,
                                 RuntimeError, "a large box")
            except RuntimeError as exc:
                print(exc)
            """
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("a large box needs")
        assert "the soft RLIMIT_AS is" in out.stdout

    def test_soft_data_limit_binds(self, monkeypatch):
        # 1 GiB of RLIMIT_DATA, RLIMIT_AS unlimited and so ignored
        def getrlimit(which):
            soft = (2**30 if which == resource.RLIMIT_DATA
                    else resource.RLIM_INFINITY)
            return soft, resource.RLIM_INFINITY

        monkeypatch.setattr(resource, "getrlimit", getrlimit)
        fits = 2**30 // BYTES_PER_BOX_CELL
        check_box_memory(fits, SolverError, "a fitting box")
        with pytest.raises(SolverError,
                           match="the soft RLIMIT_DATA is 1.0 GiB"):
            check_box_memory(fits + 1, SolverError, "a larger box")


def _lattice_env(steps, dependence, seed):
    """Three random laws on `steps`, each charging every step."""
    rng = np.random.default_rng(seed)
    laws = []
    for _ in range(3):
        configs = [{y: 1} for y in steps]
        for a, b in rng.choice(len(steps), size=(2, 2)):
            configs.append({steps[a]: 1, steps[b]: 2} if a != b else {steps[a]: 2})
        probs = rng.dirichlet(np.ones(len(configs)))
        laws.append(law_of(*[(c, float(p)) for c, p in zip(configs, probs)]))
    spec = EnvironmentSpec(
        dimension=len(steps[0]), step_set=StepSet(tuple(steps)),
        law_support=tuple(laws), weights=(0.5, 0.3, 0.2),
        dependence=dependence, master_seed=seed)
    return build_environment(spec)


# (step set, start, horizon): nearest-neighbour steps in d = 1, 2, 3 (a
# lattice of index 2), with the origin (the lattice is Z^d), with a (2, 0)
# jump (Z^2, a wider box on one axis) and with a (-2, 1) jump (index 2;
# some lattice cells lie outside the dense box, one on the flat position of
# a cell inside it)
LATTICE_CASES = {
    "parity-d2": (unit_vectors(2) + [(-2, 1)], (-2, 1), 8),
    "nn-d1": (unit_vectors(1), (3,), 24),
    "nn-d2": (unit_vectors(2), (2, -1), 10),
    "nn-d3": (unit_vectors(3), (1, -2, 1), 5),
    "origin-d2": (unit_vectors(2) + [(0, 0)], (-1, 2), 7),
    "jump-d2": (unit_vectors(2) + [(2, 0)], (2, 1), 7),
}


class TestLatticeLayout:
    """Layers on the lattice frame equal the per-site dense-box DP bit for bit."""

    @pytest.mark.parametrize("dependence", ["iid", "block_window"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("case", sorted(LATTICE_CASES))
    def test_layers_match_scalar_reference(self, case, adjoint, dependence):
        steps, start, n = LATTICE_CASES[case]
        dep = Dependence("iid") if dependence == "iid" \
            else Dependence("block_window", 1)
        env = _lattice_env(steps, dep, 7 + len(steps))
        pairs = zip(iter_layers(env, start, n, adjoint=adjoint),
                    reference_layers(env, start, n, adjoint=adjoint))
        for fld, (lo, values) in pairs:
            assert fld.lo == lo
            assert fld.values.shape == values.shape
            assert fld.values.tobytes() == values.tobytes()
            finite = np.isfinite(values)
            sites = [tuple(int(c) + l for c, l in zip(i, lo)) for i in np.argwhere(finite)]
            assert list(fld.items()) == list(zip(sites, values[finite].tolist()))
            assert fld.support_size() == len(sites)
            if sites:
                assert expected_total(fld) == logsumexp(values[finite])
            for idx in product(*(range(-1, s + 1) for s in values.shape)):
                x = tuple(l + i for l, i in zip(lo, idx))
                inside = all(0 <= i < s for i, s in zip(idx, values.shape))
                assert fld.get(x) == (values[idx] if inside else float("-inf"))


def plane_env():
    """d = 2 i.i.d. nearest-neighbour environment over two distinct laws."""
    north = law_of(
        ({(1, 0): 1}, 0.2), ({(-1, 0): 1}, 0.2),
        ({(0, 1): 2}, 0.3), ({(0, -1): 1}, 0.3))
    pair = law_of(
        ({(1, 0): 1, (-1, 0): 1}, 0.4), ({(0, 1): 1}, 0.3),
        ({(0, -1): 1}, 0.3))
    return iid_env([north, pair], [0.5, 0.5], 23, dimension=2)


# (environment, start, horizon) per dimension, each over two distinct laws
ANDERSON_CASES = {
    "d1-random": lambda: (random_env(np.random.default_rng(41)), (0,), 20),
    "d1": lambda: (iid_env([drift_law(), doubling_law()], [0.5, 0.5], 99),
                   (0,), 12),
    "d2-iid": lambda: (plane_env(), (0, 0), 10),
    "d3-window": lambda: (cube_env(Dependence("block_window", 1)),
                          (1, -2, 0), 6),
}


class TestAndersonIdentity:
    @pytest.mark.parametrize("case", sorted(ANDERSON_CASES))
    def test_adjoint_layers_satisfy_identity(self, case):
        env, start, n = ANDERSON_CASES[case]()
        layers = list(iter_layers(env, start, n, adjoint=True))
        assert check_anderson_equation(env, layers) <= 1e-10

    @pytest.mark.parametrize("case", sorted(ANDERSON_CASES))
    def test_forward_layers_violate_identity(self, case):
        # two distinct laws: source-site coefficients break the site-local form
        env, start, n = ANDERSON_CASES[case]()
        fwd = list(iter_layers(env, start, n))
        resid = check_anderson_equation(env, fwd)
        assert resid > 1e-3
        assert resid == pytest.approx(brute_anderson_residual(env, fwd), rel=1e-9)


class TestLayerDumps:
    def test_csv_round_trip(self, tmp_path):
        env = random_env(np.random.default_rng(51))
        fld = last(env, (0,), 9)
        p = tmp_path / "layer.csv"
        write_layer_csv(fld, str(p))
        back = read_layer_csv(str(p))
        assert back == dict(fld.items())

    def test_csv_repr_is_lossless(self, tmp_path):
        env = random_env(np.random.default_rng(52))
        fld = last(env, (0,), 15)
        p = tmp_path / "layer.csv"
        write_layer_csv(fld, str(p))
        for x, v in read_layer_csv(str(p)).items():
            assert v == fld.get(x)

    def test_binary_round_trip_dense(self, tmp_path):
        env = random_env(np.random.default_rng(53))
        fld = last(env, (-2,), 11)
        p = tmp_path / "layer.bin"
        write_layer_binary(fld, str(p))
        back = read_layer_binary(str(p))
        assert back.n == fld.n
        assert back.dimension == fld.dimension
        assert back.lo == fld.lo
        assert np.array_equal(back.values, fld.values)

    def test_binary_round_trip_three_dimensional(self, tmp_path):
        law = law_of(
            ({(1, 0, 0): 1}, 0.4), ({(-1, 0, 0): 1}, 0.2),
            ({(0, 1, 0): 1}, 0.1), ({(0, -1, 0): 1}, 0.1),
            ({(0, 0, 1): 1}, 0.1), ({(0, 0, -1): 1}, 0.1))
        env = homogeneous_env(law, dimension=3)
        fld = last(env, (0, 0, 0), 3)
        p = tmp_path / "layer.bin"
        write_layer_binary(fld, str(p))
        back = read_layer_binary(str(p))
        assert back.n == fld.n
        assert back.lo == fld.lo == (-3, -3, -3)
        assert np.array_equal(back.values, fld.values)
        for x, v in fld.items():
            assert back.get(x) == v
        # odd-parity holes come back as log(0)
        assert back.get((0, 0, 0)) == float("-inf")

    def test_binary_header(self, tmp_path):
        fld = last(homogeneous_env(doubling_law()), (0,), 2)
        p = tmp_path / "layer.bin"
        write_layer_binary(fld, str(p))
        raw = p.read_bytes()
        assert raw[:4] == b"BRWL"
        assert int.from_bytes(raw[4:6], "little") == 1  # version
        assert int.from_bytes(raw[6:8], "little") == 1  # dimension
        assert int.from_bytes(raw[8:16], "little", signed=True) == 2  # layer
        assert len(raw) == 4 + 12 + 8 + 8 + 5 * 8

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:-8],
        lambda raw: raw + bytes(8),
        lambda raw: raw[:6] + (0).to_bytes(2, "little") + raw[8:],
    ], ids=["truncated-payload", "trailing-bytes", "dimension-0"])
    def test_malformed_dump_rejected(self, tmp_path, edit):
        fld = last(homogeneous_env(doubling_law()), (0,), 2)
        p = tmp_path / "layer.bin"
        write_layer_binary(fld, str(p))
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(SolverError):
            read_layer_binary(str(p))

    @pytest.mark.parametrize("text", [
        "",
        "x1,log_mass\r\n0,-0.5\r\n1\r\n",
        "x1,log_mass\r\n0,heavy\r\n",
    ], ids=["empty", "missing-field", "bad-value"])
    def test_malformed_csv_rejected(self, tmp_path, text):
        p = tmp_path / "layer.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(SolverError):
            read_layer_csv(str(p))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(SolverError):
            read_layer_binary(str(p))


class TestFieldBasics:
    def test_delta_layers(self):
        fld = LogMassField.delta((2,))
        assert fld.get((2,)) == 0.0
        assert fld.get((3,)) == float("-inf")
        assert fld.support_size() == 1

    def test_values_is_a_copy(self):
        box = np.array([[-0.5, -np.inf, 2.0], [0.0, 1.5, -np.inf]])
        fld = LogMassField.from_box(4, (-1, 2), box.copy())
        fld.values[:] = 7.0
        for idx in np.ndindex(box.shape):
            assert fld.get((idx[0] - 1, idx[1] + 2)) == box[idx]
        assert np.array_equal(fld.values, box)

    def test_negative_horizon_rejected(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(SolverError):
            list(iter_layers(env, (0,), -1))

    def test_start_of_wrong_dimension_rejected(self):
        env = homogeneous_env(doubling_law())
        with pytest.raises(SolverError, match="dimension 2.*dimension 1"):
            next(iter_layers(env, (0, 0), 2))

    def test_iter_layers_checks_arguments_when_called(self):
        # the bare call raises, before anything is iterated
        env = homogeneous_env(doubling_law())
        with pytest.raises(SolverError, match="negative horizon"):
            iter_layers(env, (0,), -1)
        with pytest.raises(SolverError, match="dimension 2.*dimension 1"):
            iter_layers(env, (0, 0), 2, adjoint=True)

    def test_items_sorted(self):
        env = random_env(np.random.default_rng(61))
        fld = last(env, (0,), 8)
        sites = [x for x, _ in fld.items()]
        assert sites == sorted(sites)


# --- Row-major gather, law-index slabs and reader memory ----------------------


def dense_total(values):
    """`expected_total` on the dense box, as the readers computed it before
    the gather: the finite values in row-major order."""
    flat = values[np.isfinite(values)]
    if flat.size == 0:
        return NEG_INF
    top = flat.max()
    at_top = flat == top
    m = np.float64(np.count_nonzero(at_top))
    flat[at_top] = NEG_INF
    s = np.exp(flat - top).sum()
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + top)


def dense_csv(fld, path):
    """The CSV dump written row by row from the dense box."""
    values = fld.values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(fld.dimension)] + ["log_mass"])
        for idx in np.argwhere(np.isfinite(values)):
            w.writerow([int(i) + l for i, l in zip(idx, fld.lo)]
                       + [repr(float(values[tuple(idx)]))])


def corner_env(d):
    """Mass only moves up: most lattice cells of a layer stay -inf."""
    ups = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return homogeneous_env(law_of(*[({y: 1}, 1.0 / d) for y in ups]),
                           dimension=d)


def gather_cases():
    """(id, layers): every DP frame the readers meet, and a from_box layer
    with -inf entries."""
    for case in sorted(LATTICE_CASES):
        steps, start, n = LATTICE_CASES[case]
        env = _lattice_env(steps, Dependence("iid"), 5 + len(steps))
        for adjoint in (False, True):
            yield (f"{case}-{'adjoint' if adjoint else 'forward'}",
                   lambda env=env, start=start, n=n, adjoint=adjoint:
                   iter_layers(env, start, n, adjoint=adjoint))
    for d in (1, 2, 3):
        yield f"corner-d{d}", lambda d=d: iter_layers(corner_env(d), (0,) * d, 6)
    box = np.random.default_rng(3).normal(size=(5, 4, 3))
    box[box < -0.5] = NEG_INF
    yield "from-box", lambda: [LogMassField.from_box(2, (-1, 4, 0), box)]


GATHER_CASES = dict(gather_cases())


class TestRowMajorGather:
    """The readers' gather equals the dense box `values`, bit for bit."""

    @pytest.mark.parametrize("case", sorted(GATHER_CASES))
    def test_gather_matches_dense_box(self, case, tmp_path):
        holes = 0
        for fld in GATHER_CASES[case]():
            values = fld.values
            finite = np.isfinite(values)
            holes += int((~finite).sum())
            sites, masses = fld._finite()
            assert sites.tolist() == (np.argwhere(finite) + fld.lo).tolist()
            assert masses.tobytes() == values[finite].tobytes()
            assert expected_total(fld) == dense_total(values.copy())
        # the last layer's dumps against the dense-box writers
        write_layer_csv(fld, str(tmp_path / "a.csv"))
        dense_csv(fld, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_layer_binary(fld, str(tmp_path / "a.bin"))
        raw = (tmp_path / "a.bin").read_bytes()
        assert raw[-values.nbytes:] == values.astype("<f8").tobytes()
        assert holes > 0

    def test_binary_chunks_cover_the_box(self, tmp_path, monkeypatch):
        # chunks that split rows, and a last chunk shorter than the rest
        fld = last(corner_env(2), (0, 0), 9)
        monkeypatch.setattr(expectation, "_CHUNK", 7)
        write_layer_binary(fld, str(tmp_path / "a.bin"))
        write_layer_csv(fld, str(tmp_path / "a.csv"))
        assert expected_total(fld) == dense_total(fld.values)
        assert np.array_equal(read_layer_binary(str(tmp_path / "a.bin")).values,
                              fld.values)
        assert read_layer_csv(str(tmp_path / "a.csv")) == dict(fld.items())


def float_slab_layers(env, start, n, adjoint):
    """Layers stepped with float64 log-mu slabs, one per offset, as the DP
    held them before the law-index slabs."""
    tables = expectation._Tables(env, start, n, adjoint)
    slabs = {c: (lo, tables.log_mu[:, idx]) for c, (lo, idx) in tables.slabs.items()}
    fld = LogMassField.delta(start)
    yield fld
    for _ in range(n):
        old = fld.cells
        k = fld.n + 1 if adjoint else fld.n
        m, c = divmod(k, tables.lattice.period)
        slab_lo, slab = slabs[c]
        at = m * tables.kappa - slab_lo
        new = np.full(tuple(s + w for s, w in zip(old.shape, tables.width)), NEG_INF)
        for j, w in enumerate(tables.shifts):
            dst = tuple(slice(a, a + s) for a, s in zip(w, old.shape))
            src = at + w if adjoint else at
            coef = slab[j][tuple(slice(a, a + s) for a, s in zip(src, old.shape))]
            if j == 0:
                np.add(old, coef, out=new[dst])
            else:
                np.logaddexp(new[dst], old + coef, out=new[dst])
        fld = tables.layer(fld.n + 1, new)
        yield fld


class TestLawIndexSlabs:
    @pytest.mark.parametrize("dependence", ["iid", "block_window"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("case", ["nn-d2", "nn-d3", "parity-d2", "jump-d2"])
    def test_compact_slabs_match_float_slabs(self, case, adjoint, dependence):
        steps, start, n = LATTICE_CASES[case]
        dep = Dependence("iid") if dependence == "iid" \
            else Dependence("block_window", 1)
        env = _lattice_env(steps, dep, 11 + len(steps))
        tables = expectation._Tables(env, start, n, adjoint)
        assert all(idx.dtype == np.uint8 for _, idx in tables.slabs.values())
        for a, b in zip(iter_layers(env, start, 2 * n, adjoint=adjoint),
                        float_slab_layers(env, start, 2 * n, adjoint)):
            assert a.cells.tobytes() == b.cells.tobytes()

    def test_slab_dtype_holds_the_law_count(self):
        laws = [law_of(({(1,): 1}, 0.5), ({(-1,): 1}, 0.5))] * 300
        env = iid_env(laws, [1 / 300] * 300, 4)
        tables = expectation._Tables(env, (0,), 5, False)
        assert all(idx.dtype == np.uint16 for _, idx in tables.slabs.values())


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    """Readers and writers hold one permutation of the finite cells and
    fixed-size chunks, not the dense box or one object per row."""

    def test_csv_writer_streams_rows(self, tmp_path):
        split = law_of(({(1, 0): 1, (-1, 0): 1}, 0.5),
                       ({(0, 1): 1, (0, -1): 1}, 0.5))
        *_, fld = iter_layers(homogeneous_env(split, dimension=2), (0, 0), 200,
                              adjoint=True)
        assert fld.support_size() >= 40_000
        peak = traced_peak(write_layer_csv, fld, str(tmp_path / "l.csv"))
        assert peak < 1 << 20, f"peak {peak} B, bound {1 << 20} B"

    def test_d3_readers_stay_below_the_dense_box(self, tmp_path):
        *_, fld = iter_layers(cube_env(Dependence("block_window", 1)),
                              (0, 0, 0), 40)
        dense = 8 * math.prod(fld.shape)
        peak = traced_peak(expected_total, fld)
        assert peak < dense / 2, \
            f"expected_total peak {peak} B, bound {dense / 2:.0f} B"
        peak = traced_peak(write_layer_binary, fld, str(tmp_path / "l.bin"))
        assert peak < dense / 2, \
            f"binary writer peak {peak} B, bound {dense / 2:.0f} B"
