"""Shared environment builders and reference solvers for the test suite."""

from __future__ import annotations

from itertools import product

import numpy as np

from brwre.environment import (
    Dependence,
    EnvironmentField,
    EnvironmentSpec,
    OffspringConfig,
    SiteLaw,
    build_environment,
)
from brwre.lattice import StepSet


def law_of(*pairs: tuple[dict, float]) -> SiteLaw:
    return SiteLaw(tuple((OffspringConfig.from_dict(counts), float(p))
                         for counts, p in pairs))


def iid_env(laws, weights, seed, dimension=1, step_set=None) -> EnvironmentField:
    spec = EnvironmentSpec(
        dimension=dimension,
        step_set=step_set or StepSet.nearest_neighbour(dimension),
        law_support=tuple(laws),
        weights=tuple(weights),
        dependence=Dependence("iid"),
        master_seed=seed,
    )
    return build_environment(spec)


def homogeneous_env(law, dimension=1, step_set=None) -> EnvironmentField:
    return iid_env([law], [1.0], 0, dimension, step_set)


# every particle produces one child at +1 and one at -1: the population
# doubles deterministically and eta_n(x) = C(n, (n+x)/2)
def doubling_law() -> SiteLaw:
    return law_of(({(1,): 1, (-1,): 1}, 1.0))


# the two mean-total-2 laws of the long-d1 benchmark workload
def long_d1_laws() -> list[SiteLaw]:
    return [law_of(({(1,): 1}, 0.25), ({(-1,): 1}, 0.25),
                   ({(1,): 2, (-1,): 1}, 0.25), ({(-1,): 2, (1,): 1}, 0.25)),
            law_of(({(1,): 1}, 0.3), ({(-1,): 1}, 0.2),
                   ({(1,): 2, (-1,): 1}, 0.2), ({(-1,): 2, (1,): 1}, 0.3))]


# mean offspring mu_+ = 0.84, mu_- = 0.21, mean total 1.05: the criterion
# minimum is 2*sqrt(0.84*0.21) = 0.84 (transient)
def drift_law() -> SiteLaw:
    return law_of(({(1,): 1}, 0.74), ({(1,): 2}, 0.05), ({(-1,): 1}, 0.21))


# mean offspring mu_+ = mu_- = 0.6: criterion value 2*sqrt(0.36) = 1.2
def symmetric06_law() -> SiteLaw:
    return law_of(({(1,): 1}, 0.4), ({(-1,): 1}, 0.4),
                  ({(1,): 1, (-1,): 1}, 0.2))


# stochastic offspring with mean total exactly 2 and mu_+ = mu_- = 1
def mean2_law() -> SiteLaw:
    return law_of(({(1,): 1, (-1,): 1}, 0.5), ({(1,): 2}, 0.25),
                  ({(-1,): 2}, 0.25))


# criterion minimum exactly 1: mu_+ = 1.25, mu_- = 0.2, 2*sqrt(0.25) = 1
def borderline_law() -> SiteLaw:
    return law_of(({(1,): 2}, 0.45), ({(1,): 1}, 0.35), ({(-1,): 1}, 0.2))


def random_law(rng: np.random.Generator, *, drift: float | None = None) -> SiteLaw:
    """Random d=1 law covering both unit directions (keeps UE standing).

    `drift` scales the probability mass of the minus-direction configs;
    below 1 it pushes the walk right and the criterion value down.
    """
    configs = [{(1,): 1}, {(-1,): 1}]
    for _ in range(int(rng.integers(0, 3))):
        cfg = {}
        for off in ((1,), (-1,)):
            c = int(rng.integers(0, 3))
            if c:
                cfg[off] = c
        if not cfg:
            cfg = {(1,): 1}
        if cfg not in configs:
            configs.append(cfg)
    probs = rng.dirichlet(np.ones(len(configs)) * 2.0)
    if drift is not None:
        probs = probs.copy()
        for i, cfg in enumerate(configs):
            if cfg.get((-1,), 0) >= 1 and cfg.get((1,), 0) == 0:
                probs[i] *= drift
        probs /= probs.sum()
    return law_of(*[(cfg, float(p)) for cfg, p in zip(configs, probs)])


def random_env(rng: np.random.Generator, *, n_laws=2,
               drift: float | None = None) -> EnvironmentField:
    laws = [random_law(rng, drift=drift) for _ in range(n_laws)]
    weights = rng.dirichlet(np.ones(n_laws))
    return iid_env(laws, [float(w) for w in weights],
                   int(rng.integers(0, 2**31)))


def capped_mean_law(rng: np.random.Generator, cap: float = 1.1) -> SiteLaw:
    """Random law with mean total <= cap: unit configs plus one rare pair."""
    p2 = float(rng.uniform(0.0, cap - 1.0))
    p_plus = float(rng.uniform(0.2, 0.8)) * (1.0 - p2)
    p_minus = 1.0 - p2 - p_plus
    return law_of(({(1,): 1}, p_plus), ({(-1,): 1}, p_minus),
                  ({(1,): 1, (-1,): 1}, p2))


def reference_layers(env: EnvironmentField, start, n: int, adjoint: bool = False):
    """Per-site scalar DP over each layer's bounding box: (lo, values) per layer.

    Each cell starts at -inf and takes `np.logaddexp` with the term of every
    offset in sorted order whose source lies in the previous box; forward
    the coefficient is mu_y at the source x - y, adjoint it is mu_y at the
    cell itself, whose source is x + y.  Laws come from per-site
    `law_index` calls.
    """
    offsets = env.spec.step_set.sorted_offsets()
    with np.errstate(divide="ignore"):
        log_mu = np.log(np.array([[law.mean_offspring.get(y, 0.0) for y in offsets]
                                  for law in env.spec.law_support]))
    sign = -1 if adjoint else 1
    moves = [tuple(sign * c for c in y) for y in offsets]
    step_lo = [min(m[i] for m in moves) for i in range(len(start))]
    step_hi = [max(m[i] for m in moves) for i in range(len(start))]
    lo, old = tuple(start), np.zeros((1,) * len(start))
    yield lo, old
    for _ in range(n):
        new_lo = tuple(l + a for l, a in zip(lo, step_lo))
        new = np.full(tuple(s + b - a for s, a, b in zip(old.shape, step_lo, step_hi)),
                      -np.inf)
        for idx in product(*(range(s) for s in new.shape)):
            x = tuple(l + i for l, i in zip(new_lo, idx))
            acc = np.float64(-np.inf)
            for j, m in enumerate(moves):
                src = tuple(c - a - l for c, a, l in zip(x, m, lo))
                if any(i < 0 or i >= s for i, s in zip(src, old.shape)):
                    continue
                at = x if adjoint else tuple(c - a for c, a in zip(x, m))
                acc = np.logaddexp(acc, old[src] + log_mu[env.law_index(at), j])
            new[idx] = acc
        lo, old = new_lo, new
        yield lo, old
