"""End-to-end acceptance checks.

Twelve independent criteria, one test each, covering the growth-exponent
oracles, the transience/recurrence classifier, Monte Carlo versus dynamic
programming agreement, the structural inequality suites, the shape oracle,
the evolution-equation residual, total-population growth, convexity of the
growth profile, and the induced-walk decomposition.

Every test prints a single ``[PASS]``/``[FAIL]`` line carrying the measured
quantity, its tolerance, and the elapsed wall time against the stated
budget (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
All randomness is frozen: seeds below were fixed once and never tuned
against the assertions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from _support import (
    capped_mean_law,
    drift_law,
    grid_1d,
    homogeneous_env,
    iid_env,
    law_of,
    random_env,
    symmetric06_law,
    total_growth,
)
from brwre.classify import transience_criterion
from brwre.expectation import check_anderson_equation, iter_layers
from brwre.growth import (
    beta_estimate,
    beta_profile,
    classify_by_beta,
)
from brwre.lattice import RationalVector, StepSet
from brwre.montecarlo import (
    InducedWalkState,
    PopulationBatch,
    SamplerStats,
    induced_kernel,
    induced_walk_step,
    iter_batch,
    replica_batches,
    sample_induced_direct,
    step_batch,
)
from brwre.seeding import PURPOSE_DYNAMICS, replica_rng
from brwre.shape import hausdorff_l1, passage_times, shape_polytope

LN2 = math.log(2.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _split_env():
    # one child left, one child right, always: mean totals 2, symmetric
    return homogeneous_env(law_of(({(1,): 1, (-1,): 1}, 1.0)))


def _rate_oracle(a: float) -> float:
    """Growth exponent of the symmetric split process along slope a."""
    if a == 0.0:
        return LN2
    return LN2 - ((1 + a) / 2 * math.log(1 + a) + (1 - a) / 2 * math.log(1 - a))


@pytest.fixture(scope="module")
def profile30():
    """Profile over a = 0.1 .. 0.8 for the split process, with its timing.

    Shared between the profile-oracle criterion and the convexity criterion;
    the elapsed time is charged to the former.
    """
    env = _split_env()
    grid = grid_1d(Fraction(1, 10), Fraction(4, 5), Fraction(1, 10))
    t0 = time.perf_counter()
    prof = beta_profile(env, grid, 30)
    return prof, time.perf_counter() - t0


# --- 1: growth exponent at the origin ----------------------------------------


def test_criterion_01_beta_zero_oracle():
    env = _split_env()
    t0 = time.perf_counter()
    est = beta_estimate(env, RationalVector.from_fractions(["0"]), 500)
    dt = time.perf_counter() - t0
    err = abs(est.value - LN2)
    _report(1, "beta zero oracle", err <= 0.01 and dt <= 5.0,
            f"err {err:.2e} (tol 0.01), {dt:.1f}s (budget 5s)")


# --- 2: growth exponent profile ----------------------------------------------


def test_criterion_02_beta_profile_oracle(profile30):
    prof, dt = profile30
    errs = [abs(est.value - _rate_oracle(a.as_floats()[0]))
            for a, est in prof.grid]
    err = max(errs)
    _report(2, "beta profile oracle", err <= 0.03 and dt <= 30.0,
            f"max err {err:.2e} over 8 directions (tol 0.03), "
            f"{dt:.1f}s (budget 30s)")


# --- 3: criterion closed forms ------------------------------------------------


def test_criterion_03_criterion_closed_form():
    t0 = time.perf_counter()
    lop = transience_criterion([drift_law()])
    sym = transience_criterion([symmetric06_law()])
    dt = time.perf_counter() - t0
    ok = (abs(lop.value - 0.84) <= 1e-6 and lop.verdict == "transient"
          and abs(sym.value - 1.2) <= 1e-6 and sym.verdict == "recurrent"
          and dt <= 1.0)
    _report(3, "criterion closed form", ok,
            f"values {lop.value:.8f}/{sym.value:.8f} "
            f"verdicts {lop.verdict}/{sym.verdict}, {dt:.2f}s (budget 1s)")


# --- 4: classifier cross-agreement -------------------------------------------


def _subcritical_law(rng):
    # unit-offspring drift laws: value 2 sqrt(mu+ mu-) < 1 when the product
    # of direction means stays below 1/4
    c = float(rng.uniform(0.05, 0.28))
    b = float(rng.uniform(0.0, 0.08))
    return law_of(({(1,): 1}, 1.0 - b - c), ({(1,): 2}, b), ({(-1,): 1}, c))


def _subcritical_env(rng):
    laws = [_subcritical_law(rng), _subcritical_law(rng)]
    w = float(rng.uniform(0.3, 0.7))
    return iid_env(laws, [w, 1.0 - w], int(rng.integers(0, 2**31)))


def _criterion_04_battery():
    """20 (environment, criterion) pairs, none within 0.05 of the border."""
    rng = np.random.default_rng(815)
    battery = []
    while len(battery) < 20:
        env = _subcritical_env(rng) if len(battery) % 2 else random_env(rng)
        crit = transience_criterion(list(env.spec.law_support))
        if abs(crit.value - 1.0) < 0.05:
            continue
        battery.append((env, crit))
    return battery


def test_criterion_04_classifier_cross_agreement():
    t0 = time.perf_counter()
    battery = _criterion_04_battery()
    origin = RationalVector.from_fractions(["0"])
    agree = 0
    verdicts = set()
    for env, crit in battery:
        verdicts.add(crit.verdict)
        if classify_by_beta(beta_profile(env, [origin], 300)) == crit.verdict:
            agree += 1
    dt = time.perf_counter() - t0
    ok = agree == 20 and verdicts == {"transient", "recurrent"} and dt <= 300.0
    _report(4, "classifier cross-agreement", ok,
            f"{agree}/20 agree, verdicts seen {sorted(verdicts)}, "
            f"{dt:.1f}s (budget 300s)")


def test_quenched_beta_zero_below_criterion():
    # sum_x m_n(x) e^{t.x} <= exp(n Phi(t)) step by step, so Lambda_n <= Phi
    # and beta(0) = inf Lambda_n <= min Phi <= the criterion's log_value
    origin = RationalVector.from_fractions(["0"])
    for env, crit in _criterion_04_battery():
        assert beta_estimate(env, origin, 300).value <= crit.log_value


# --- 5: Monte Carlo / dynamic programming agreement --------------------------


def test_criterion_05_mc_dp_agreement():
    rng = np.random.default_rng(55)
    env = iid_env([capped_mean_law(rng), capped_mean_law(rng)], [0.5, 0.5], 505)
    assert all(law.mean_total <= 1.1 for law in env.spec.law_support)
    n, n_batches, batch = 10, 100, 1000
    t0 = time.perf_counter()
    layer = list(iter_layers(env, (0,), n))[-1]
    # the batches are the replicas of one PopulationBatch, each drawing from
    # its own generator as it would stepped alone
    rngs = [replica_rng(550, b, PURPOSE_DYNAMICS) for b in range(n_batches)]
    state = PopulationBatch.from_counts(0, [{(0,): batch}] * n_batches)
    for _ in range(n):
        state = step_batch(env, state, rngs)
    per_site = {x: [c / batch for c in state.count(x)]
                for x, v in layer.items() if math.exp(v) >= 1e-3}
    worst = 0.0
    for x, means in per_site.items():
        arr = np.asarray(means)
        se = arr.std(ddof=1) / math.sqrt(n_batches)
        worst = max(worst, abs(arr.mean() - math.exp(layer.get(x)))
                    / max(se, 1e-15))
    dt = time.perf_counter() - t0
    ok = worst <= 3.0 and dt <= 120.0
    _report(5, "mc/dp agreement", ok,
            f"worst |z| {worst:.2f} over {len(per_site)} sites "
            f"(tol 3 se), {dt:.1f}s (budget 120s)")


# --- 6: supermultiplicativity -------------------------------------------------


def test_criterion_06_supermultiplicativity():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10):
        env = random_env(rng)
        for _ in range(50):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            lay1 = list(iter_layers(env, (0,), n1))[-1]
            mids = [x for x, _ in lay1.items()]
            z = mids[int(rng.integers(0, len(mids)))]
            lay2 = list(iter_layers(env, z, n2))[-1]
            ys = [y for y, _ in lay2.items()]
            y = ys[int(rng.integers(0, len(ys)))]
            lhs = list(iter_layers(env, (0,), n1 + n2))[-1].get(y)
            if lhs < lay1.get(z) + lay2.get(y) - 1e-9:
                violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt <= 120.0
    _report(6, "supermultiplicativity", ok,
            f"{violations} violations over 500 triples "
            f"(log-slack 1e-9), {dt:.1f}s (budget 120s)")


# --- 7: passage-time suite -----------------------------------------------------


def _open_random_law(rng, floor=0.15):
    # dirichlet mix with both direction masses above the floor, so every
    # nearest-neighbour edge stays open at delta below the floor
    while True:
        w = rng.dirichlet([1.0, 1.0, 1.0])
        if min(w[0] + w[2], w[1] + w[2]) > floor:
            return law_of(({(1,): 1}, float(w[0])),
                          ({(-1,): 1}, float(w[1])),
                          ({(1,): 1, (-1,): 1}, float(w[2])))


def test_criterion_07_passage_time_suite():
    rng = np.random.default_rng(707)
    delta, radius = 0.1, 16
    t0 = time.perf_counter()

    hop_law = law_of(({(2,): 1}, 0.4), ({(1,): 1}, 0.3), ({(-1,): 1}, 0.3))
    hop_steps = StepSet(((1,), (-1,), (2,)))
    envs = [iid_env([_open_random_law(rng), _open_random_law(rng)],
                    [0.5, 0.5], int(rng.integers(0, 2**31)))
            for _ in range(9)]
    envs.append(homogeneous_env(hop_law, step_set=hop_steps))

    sub_violations = 0
    bound_violations = 0
    triples = 0
    for env in envs:
        l0 = env.spec.step_set.l0_max
        m0 = passage_times(env, delta, radius)
        finite = [x for x in m0.times if m0.t(x) * l0 <= radius]
        # restricted times with t * L0 inside the ball equal the true ones
        for x in finite:
            t, r = m0.t(x), abs(x[0])
            if not r / l0 - 1e-12 <= t <= r + 1e-12:
                bound_violations += 1
        maps = {}
        made = 0
        while made < 50:
            z = finite[int(rng.integers(0, len(finite)))]
            if z not in maps:
                maps[z] = passage_times(env, delta, radius, origin=z)
            mz = maps[z]
            cand = [y for y in mz.times
                    if mz.t(y) * l0 <= radius and m0.t(y) * l0 <= radius]
            if not cand:
                continue
            y = cand[int(rng.integers(0, len(cand)))]
            if m0.t(y) > m0.t(z) + mz.t(y) + 1e-12:
                sub_violations += 1
            made += 1
        triples += made

    mono_violations = 0
    grid = (0.02, 0.08, 0.14, 0.2, 0.26)
    mono_maps = [passage_times(envs[0], d, 12) for d in grid]
    for lo, hi in zip(mono_maps, mono_maps[1:]):
        for x in hi.times:
            if hi.t(x) < lo.t(x):
                mono_violations += 1

    dt = time.perf_counter() - t0
    ok = (sub_violations == 0 and bound_violations == 0
          and mono_violations == 0 and triples == 500 and dt <= 60.0)
    _report(7, "passage-time suite", ok,
            f"subadditivity {sub_violations}, bounds {bound_violations}, "
            f"monotonicity {mono_violations} violations over {triples} "
            f"triples, {dt:.1f}s (budget 60s)")


# --- 8: shape oracle -----------------------------------------------------------


def _densify(vertices, per_edge=200):
    out = []
    m = len(vertices)
    for i in range(m):
        a = np.asarray(vertices[i])
        b = np.asarray(vertices[(i + 1) % m])
        for t in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            out.append(tuple(a + t * (b - a)))
    return out


def test_criterion_08_shape_oracle():
    law = law_of(*[({(dx, dy): 1}, 0.25)
                   for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]])
    env = homogeneous_env(law, dimension=2)
    n = 100
    t0 = time.perf_counter()
    ptm = passage_times(env, 0.1, n)
    est = shape_polytope(ptm, n)
    ball = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    dist = hausdorff_l1(_densify(list(est.hull)), _densify(ball))
    dt = time.perf_counter() - t0
    ok = dist <= 2.0 / n and dt <= 30.0
    _report(8, "shape oracle", ok,
            f"hausdorff {dist:.2e} (tol {2.0 / n}), {dt:.1f}s (budget 30s)")


# --- 9: evolution-equation residual -------------------------------------------


def test_criterion_09_anderson_residual():
    t0 = time.perf_counter()
    worst = 0.0
    for env in (homogeneous_env(drift_law()),
                random_env(np.random.default_rng(909))):
        layers = list(iter_layers(env, (0,), 20, adjoint=True))
        worst = max(worst, check_anderson_equation(env, layers))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt <= 10.0
    _report(9, "anderson residual", ok,
            f"max relative residual {worst:.2e} layers 0..20 "
            f"(tol 1e-10), {dt:.1f}s (budget 10s)")


# --- 10: total growth ----------------------------------------------------------


def test_criterion_10_total_growth():
    # mean-total 2 with branching randomness: totals 1 or 3, never 0
    law = law_of(({(1,): 1}, 0.25), ({(-1,): 1}, 0.25),
                 ({(1,): 2, (-1,): 1}, 0.25), ({(-1,): 2, (1,): 1}, 0.25))
    env = homogeneous_env(law)
    n, replicas = 200, 200
    stats = SamplerStats()
    t0 = time.perf_counter()
    dp_err = abs(total_growth(env, n) - LN2)
    hits = 0
    # each replica draws from its own generator, as it would stepped alone
    for batch in replica_batches(env, n, replicas):
        rngs = [replica_rng(4242, i, PURPOSE_DYNAMICS) for i in batch]
        for last in iter_batch(env, (0,), n, rngs, stats=stats):
            pass
        hits += sum(abs(math.log(total) / n - LN2) <= 0.05
                    for total in last.totals)
    dt = time.perf_counter() - t0
    ok = dp_err <= 1e-9 and hits >= 190 and dt <= 180.0
    _report(10, "total growth", ok,
            f"dp err {dp_err:.1e} (tol 1e-9), realized rate within 0.05 in "
            f"{hits}/{replicas} replicas (need 190), sampler draws "
            f"exact/normal/poisson {stats.exact_draws}/{stats.normal_draws}/"
            f"{stats.poisson_draws}, {dt:.1f}s (budget 180s)")


# --- 11: convexity of the growth profile ---------------------------------------


def test_criterion_11_beta_convexity(profile30):
    # the profile's midpoint sits above the chord (its superlevel set is an
    # interval, which is what b_hull relies on); a violation is the amount
    # by which a midpoint falls below the chord
    prof, _ = profile30
    vals = [est.value for _, est in prof.grid]
    worst = 0.0
    triples = 0
    for i in range(len(vals)):
        for k in range(i + 2, len(vals), 2):
            j = (i + k) // 2
            worst = max(worst, (vals[i] + vals[k]) / 2.0 - vals[j])
            triples += 1
    ok = worst <= 0.03 and triples > 0
    _report(11, "beta convexity", ok,
            f"max midpoint violation {worst:.2e} over {triples} grid "
            f"triples (tol 0.03)")


# --- 12: induced-walk decomposition --------------------------------------------


def test_criterion_12_induced_walk_decomposition():
    law_a = law_of(({(1,): 1}, 0.62), ({(-1,): 1}, 0.38))
    law_b = law_of(({(1,): 1}, 0.3), ({(-1,): 1}, 0.45),
                   ({(1,): 1, (-1,): 1}, 0.25))
    env = iid_env([law_a, law_b], [0.5, 0.5], 1212)
    steps = sorted(induced_kernel(env, (0,)))
    n_steps = 10**6
    t0 = time.perf_counter()
    rng_direct = replica_rng(101, 0, PURPOSE_DYNAMICS)
    rng_decomp = replica_rng(101, 1, PURPOSE_DYNAMICS)
    direct = {s: 0 for s in steps}
    for _ in range(n_steps):
        direct[sample_induced_direct(env, (0,), rng_direct)] += 1
    decomp = {s: 0 for s in steps}
    for _ in range(n_steps):
        state = induced_walk_step(env, InducedWalkState.at((0,)), rng_decomp)
        decomp[state.position] += 1
    table = np.asarray([[direct[s] for s in steps],
                        [decomp[s] for s in steps]])
    p = chi2_contingency(table).pvalue
    dt = time.perf_counter() - t0
    ok = p > 0.001 and dt <= 60.0
    _report(12, "induced-walk decomposition", ok,
            f"chi-square p {p:.3f} (need > 0.001) over {n_steps} steps "
            f"per sampler, {dt:.1f}s (budget 60s)")
