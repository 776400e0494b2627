"""Quenched Monte Carlo: population runs, induced walk, return probability.

Populations are evolved in aggregated form: a state is its occupied sites,
sorted, and their particle counts, int64 while they fit and Python integers
after, and each site resolves all of its particles with one multinomial
draw over its offspring law, so the cost per step follows the number of
occupied sites, not of particles.  A generation stays in array form: the
laws of the occupied sites are hashed from their coordinates with
`law_index_axes`, each law draws its sites below 2**62 with one exact
`rng.multinomial` call, and the sites at or above 2**62, of all laws
together, split into conditional binomials, one batched draw per atom, with
probabilities tabulated per law.  Draws with a count below 2**62 are exact
in distribution with respect to per-particle sampling.  Above 2**62 a
binomial is approximated: by a normal when its variance npq exceeds 1e6
(Berry-Esseen bounds the CDF error by C/sqrt(npq)), by a Poisson otherwise;
means and standard deviations are exact integers.  `SamplerStats` counts
the draws of each path: one per exact multinomial row, one per conditional
binomial.

Independent replicas are stepped together: `step_batch` advances a
`PopulationBatch`, the states of several replicas in one set of arrays,
and runs the law lookup, the big-integer arithmetic, the children and
their scatter once over all of them, while each replica's generator makes
the calls, of the same sizes and in the same order, that it makes when
the replica is stepped alone.  A batched replica's states are therefore
bitwise those of the replica alone, and a lone run is a batch of one.
`replica_batches` caps a batch at `_BATCH_CELLS` scatter cells over the
box at the horizon, so a batch's memory is bounded whatever the replica
count.

A run is a stream: `iter_batch` yields one generation of its replicas at a
time and keeps only the current one, whose counts reach about n bits at up
to 2n + 1 sites per replica, so a caller that reads each generation as it
comes (the CLI's `simulate`) holds one generation per replica of a batch.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .environment import (
    DEFAULT_BIT_BUDGET,
    BitBudgetError,
    EnvironmentField,
    SimulationError,
    check_box_memory,
)
from .lattice import Site, add, unit_vectors
from .seeding import PURPOSE_RETURN_PROBE, replica_rng

# Counts below this fit comfortably in the int64 range numpy samplers accept.
_EXACT_LIMIT = 1 << 62

# The normal approximation to Binomial(n, q) is used only when the variance
# n*q*(1-q) exceeds this; below it the small side is Poisson-approximated.
_NORMAL_VARIANCE_GATE = 10**6


@dataclass
class SamplerStats:
    """Counts of which sampling path produced each primitive draw."""

    exact_draws: int = 0
    normal_draws: int = 0
    poisson_draws: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=1024)
def _q_decomposition(q: float) -> tuple[int, int, int, int]:
    """Exact integer pieces of q reused across draws at the same probability.

    Returns (num, k, c, shift) with q = num * 2**-k exactly (a float's
    denominator is a power of two) and q(1-q) = c * 2**-shift up to one
    float rounding; frexp keeps isqrt on integers at any magnitude of q.
    q(1-q) <= 1/4, so shift >= 55.
    """
    qf = Fraction(q)
    m, e = math.frexp(q * (1.0 - q))
    return (qf.numerator, qf.denominator.bit_length() - 1,
            int(m * (1 << 53)), 53 - e)


_isqrt = np.frompyfunc(math.isqrt, 1, 1)


def _chain_tables(probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Constants of the conditional-binomial chain for each row of `probs`.

    Pass j draws atom j with p = probs[:, j] / (mass left, by sequential
    subtraction; p = 0 where none is left), clipped to [0, 1].  Returns,
    per (row, pass), p, whether the sampler flips it (p > 1/2) and the
    `_q_decomposition` of the small side q = min(p, 1-p).
    """
    rows, passes = probs.shape[0], probs.shape[1] - 1
    cond = np.zeros((rows, passes))
    mass_left = np.ones(rows)
    for j in range(passes):
        np.divide(probs[:, j], mass_left, out=cond[:, j],
                  where=mass_left > 0.0)
        mass_left = mass_left - probs[:, j]
    cond = np.clip(cond, 0.0, 1.0)
    flipped = cond > 0.5
    q = np.where(flipped, 1.0 - cond, cond).tolist()
    dec = np.empty((rows, passes, 4), dtype=object)
    for i, j in np.ndindex(rows, passes):
        dec[i, j] = _q_decomposition(q[i][j])
    return cond, flipped, dec


def _runs(keys: np.ndarray) -> list[slice]:
    """The runs of equal entries of the sorted, nonempty `keys`."""
    if keys[0] == keys[-1]:
        return [slice(0, len(keys))]
    edges = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(keys)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _per_replica(rngs: Sequence[np.random.Generator], rep: np.ndarray,
                 draw) -> np.ndarray:
    """`draw(rng, rows)` for each replica's run of rows, concatenated.

    `rep` is the nondecreasing replica index of the rows and `rows` a slice
    of them; each replica's generator draws for its own rows only, in row
    order, so the draws are those of the replica stepped alone.
    """
    return np.concatenate([draw(rngs[rep[s.start]], s) for s in _runs(rep)])


def _binomials(rngs: Sequence[np.random.Generator], rep: np.ndarray,
               n: np.ndarray, p: np.ndarray, flipped: np.ndarray,
               dec: np.ndarray, stats: SamplerStats) -> np.ndarray:
    """Binomial(n_i, p_i) for an object array n of Python ints, p in [0, 1].

    Row i draws from `rngs[rep[i]]`, `rep` nondecreasing.  The entries of
    a replica with 0 < n < 2**62 and 0 < p < 1 share one exact
    `rng.binomial` call.  Above 2**62 the small side q = min(p, 1-p) takes
    one normal variate per entry when the variance n*q*(1-q), computed as
    an exact integer, exceeds the gate, and one Poisson variate otherwise;
    `flipped` and `dec` come from `_chain_tables`.  Means, variances and
    their square roots stay exact; floats enter only through q and the
    variate.  The draws are clipped to [0, n] unless every |z| < 999 and
    every Poisson variate is below 2**62, which keeps them there: q <= 1/2
    gives var <= mean + 2, so mean + delta >= sqrt(var)(sqrt(var) - |z|)
    - 3 > 0 with var > 1e6, and mean + delta <= n/2 + 500 sqrt(n) <= n.
    """
    out = np.zeros(len(n), dtype=object)
    sure = p == 1.0
    out[sure] = n[sure]
    draw = (p > 0.0) & ~sure
    small = draw & (n < _EXACT_LIMIT)
    if small.any():
        ns, ps = n[small].astype(np.int64), p[small]
        out[small] = _per_replica(rngs, rep[small],
                                  lambda rng, s: rng.binomial(ns[s], ps[s]))
        stats.exact_draws += int(np.count_nonzero(ns))
    big = draw & ~small
    if not big.any():
        return out
    nb, flipped, rb = n[big], flipped[big], rep[big]
    num, k, c, shift = dec[big].T
    var = (nb * c) >> shift
    normal = var > _NORMAL_VARIANCE_GATE
    kb = np.empty(len(nb), dtype=object)
    in_range = True
    if normal.any():
        mean = (nb[normal] * num[normal]) >> k[normal]
        z = _per_replica(rngs, rb[normal],
                         lambda rng, s: rng.standard_normal(s.stop - s.start))
        in_range = np.abs(z).max() < 999.0
        # z * 2**53 truncated toward zero: the int64 cast holds it only
        # while |z| < 1024, so a larger z goes through Python ints
        z = z * float(1 << 53)
        z = (z.astype(np.int64).astype(object) if in_range
             else np.array([int(v) for v in z.tolist()], dtype=object))
        kb[normal] = mean + ((z * _isqrt(var[normal])) >> 53)
        stats.normal_draws += len(mean)
    if not normal.all():
        # small-variance side: n*q is at most ~2e6 here, safe as a float
        poisson = ~normal
        lam = np.array([float(Fraction(x * a, 1 << b)) for x, a, b in
                        zip(nb[poisson], num[poisson], k[poisson])])
        draws = _per_replica(rngs, rb[poisson],
                             lambda rng, s: rng.poisson(lam[s]))
        in_range = in_range and draws.max() < _EXACT_LIMIT
        kb[poisson] = draws
        stats.poisson_draws += len(lam)
    if not in_range:
        kb = np.minimum(np.maximum(kb, 0), nb)
    kb[flipped] = nb[flipped] - kb[flipped]
    out[big] = kb
    return out


def _exact_multinomials(rngs: Sequence[np.random.Generator], rep: np.ndarray,
                        n: np.ndarray, probs: np.ndarray,
                        stats: SamplerStats) -> np.ndarray:
    """Multinomial(n_i, probs) for counts below 2**62: (rows, atoms) int64.

    One `rng.multinomial` call per replica, `rep` as in `_binomials`; a
    one-atom law draws nothing.
    """
    if len(probs) == 1:
        return n[:, None].astype(np.int64)
    stats.exact_draws += len(n)
    ns = n.astype(np.int64)
    return _per_replica(rngs, rep,
                        lambda rng, s: rng.multinomial(ns[s], probs))


def _conditional_chain(rngs: Sequence[np.random.Generator], rep: np.ndarray,
                       n: np.ndarray, chain: tuple,
                       stats: SamplerStats) -> np.ndarray:
    """Multinomial(n_i, probs_i) for any counts, by conditional binomials.

    `chain` holds the `_chain_tables` rows of each count's atom
    probabilities; rows of laws with fewer atoms are padded with leading
    zeros, which draw nothing.  Atom j takes Binomial(remaining, p_j / mass
    left) for every row in one `_binomials` call; the last atom takes the
    remainder.  Returns a (rows, atoms) object array of Python ints.
    """
    cond, flipped, dec = chain
    out = np.zeros((len(n), cond.shape[1] + 1), dtype=object)
    remaining = n.astype(object)
    for j in range(cond.shape[1]):
        out[:, j] = _binomials(rngs, rep, remaining, cond[:, j],
                               flipped[:, j], dec[:, j], stats)
        remaining = remaining - out[:, j]
    out[:, -1] = remaining
    return out


@dataclass(frozen=True, eq=False)
class PopulationBatch:
    """The states of R replicas at one generation, in one set of arrays.

    The rows of `sites` and `values` are in (replica, site) order:
    `replica` holds each row's replica index, nondecreasing, and replica
    r's rows are `bounds[r]:bounds[r + 1]`, its sites in lexicographic
    order.  `values` is int64, or an object array of Python ints once any
    replica needs them.
    """

    n: int
    totals: tuple[int, ...]
    sites: np.ndarray
    values: np.ndarray
    replica: np.ndarray
    bounds: list[int]

    @classmethod
    def initial(cls, start: Site, replicas: int) -> "PopulationBatch":
        """Generation 0 of `replicas` runs, one particle each at `start`."""
        return cls.from_counts(0, [{start: 1}] * replicas)

    @classmethod
    def from_counts(cls, n: int,
                    counts: Sequence[dict[Site, int]]) -> "PopulationBatch":
        """The batch at generation n whose replica r has the positive
        counts `counts[r]`."""
        sites = [sorted(c) for c in counts]
        totals = tuple(sum(c.values()) for c in counts)
        sizes = [len(s) for s in sites]
        return cls(n, totals,
                   np.array([x for s in sites for x in s], dtype=np.int64),
                   np.array([c[x] for c, s in zip(counts, sites) for x in s],
                            dtype=object if any(t >> 63 for t in totals)
                            else np.int64),
                   np.repeat(np.arange(len(counts)), sizes),
                   [0, *accumulate(sizes)])

    def __len__(self) -> int:
        return len(self.totals)

    def count(self, x: Site) -> list[int]:
        """Each replica's particle count at x."""
        at = np.flatnonzero((self.sites == np.asarray(x)).all(axis=1))
        out = [0] * len(self)
        for r, c in zip(self.replica[at].tolist(), self.values[at].tolist()):
            out[r] = c
        return out

    def select(self, keep: Sequence[bool]) -> "PopulationBatch":
        """The batch of the replicas r with keep[r], renumbered in order."""
        keep = np.asarray(keep, dtype=bool)
        rows = keep[self.replica]
        sizes = np.diff(self.bounds)[keep].tolist()
        return PopulationBatch(
            self.n, tuple(t for t, k in zip(self.totals, keep) if k),
            self.sites[rows], self.values[rows],
            (np.cumsum(keep) - 1)[self.replica[rows]], [0, *accumulate(sizes)])


class _Tables:
    """Per-environment sampler tables, built on first use.

    Atom rows are padded with leading zeros to the largest atom count A:
    `chain` holds the `_chain_tables` of the (laws, A) atom probabilities,
    and `terms[law]` the law's nonzero child counts, as (offset column,
    ((atom column, count), ...)) over the sorted step set.  `walk_rows`
    holds the induced-walk tables of each law index the walk has stood
    on.  The law indices themselves come from the environment's
    `law_index_axes`.
    """

    def __init__(self, env: EnvironmentField):
        spec = env.spec
        offsets = spec.step_set.sorted_offsets()
        column = {y: j for j, y in enumerate(offsets)}
        self.offsets = np.array(offsets, dtype=np.int64)
        self.step_lo = self.offsets.min(axis=0)
        self.step_hi = self.offsets.max(axis=0)
        laws = spec.law_support
        self.atoms = max(len(law.atoms) for law in laws)
        probs = np.zeros((len(laws), self.atoms))
        children = np.zeros((len(laws), self.atoms, len(offsets)),
                            dtype=np.int64)
        for i, law in enumerate(laws):
            pad = self.atoms - len(law.atoms)
            probs[i, pad:] = law.atom_probs
            for a, (cfg, _) in enumerate(law.atoms):
                for y, c in cfg.counts:
                    children[i, pad + a, column[y]] = c
        self.terms = [[(j, tuple((a, int(c)) for a, c in enumerate(col) if c))
                       for j, col in enumerate(table.T) if col.any()]
                      for table in children]
        self.max_children = int(children.sum(axis=2).max())
        self.chain = _chain_tables(probs)
        d = spec.dimension
        self.units = unit_vectors(d)
        self.eps_hat = env.conditions.epsilon0 / len(offsets)
        self.forced_mass = 2 * d * self.eps_hat
        self.walk_rows: dict[int, _WalkRow] = {}


_TABLES: "weakref.WeakKeyDictionary[EnvironmentField, _Tables]" = \
    weakref.WeakKeyDictionary()


def _tables(env: EnvironmentField) -> _Tables:
    t = _TABLES.get(env)
    if t is None:
        t = _TABLES[env] = _Tables(env)
    return t


# Most cells the scatter box of one batch of replicas may span: replicas
# times the box of one run at the horizon.  A run whose box alone is larger
# steps one replica per batch.
_BATCH_CELLS = 1 << 18


def replica_batches(env: EnvironmentField, horizon: int,
                    replicas: int) -> list[range]:
    """Consecutive ranges of replica indices to step together up to the
    horizon, each as many as `_BATCH_CELLS` allows, at least one."""
    t = _tables(env)
    box = math.prod((horizon * (t.step_hi - t.step_lo) + 1).tolist())
    size = max(1, _BATCH_CELLS // box)
    return [range(r, min(r + size, replicas))
            for r in range(0, replicas, size)]


def step_batch(env: EnvironmentField, batch: PopulationBatch,
               rngs: Sequence[np.random.Generator], *,
               bit_budget: int = DEFAULT_BIT_BUDGET,
               stats: SamplerStats | None = None) -> PopulationBatch:
    """Advance every replica of the batch one generation, replica r
    drawing from `rngs[r]`.

    The laws of the rows' sites, over all replicas, are hashed with one
    `env.law_index_axes` call.  Each law draws its sites below 2**62 with
    one `rng.multinomial` call per replica; the sites at or above 2**62, of
    every law together, run one conditional-binomial chain over
    `_Tables.chain`, each pass one call per replica and sampling path.
    Each law adds its atoms' draws into children, multiplying only the
    counts above one.  Children are added into a box of (replica, site)
    cells over the next generation's bounding box, one shifted add per
    step offset; its nonzero cells, row-major, are the next batch in
    (replica, site) order.  The arithmetic runs in int64 while every
    total times the largest offspring count is below 2**63.  A replica's
    generator draws the same calls, in the same order and with the same
    sizes, as when it is stepped alone (laws in index order, sites in
    lexicographic order), so a fixed generator state yields a fixed next
    state whatever the batch.  BitBudgetError names the first generation
    at which any replica exceeds the budget.
    """
    stats = stats if stats is not None else SamplerStats()
    tables = _tables(env)
    dtype = object if any(t * tables.max_children >> 63
                          for t in batch.totals) else np.int64
    coords, rep = batch.sites, batch.replica
    n = batch.values.astype(dtype, copy=False)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    shape = (len(batch), *(hi - lo + 1 + tables.step_hi - tables.step_lo
                           ).tolist())
    check_box_memory(math.prod(shape), SimulationError,
                     f"generation {batch.n + 1}")
    laws = env.law_index_axes(coords.T)

    draws = np.zeros((len(n), tables.atoms), dtype=dtype)
    exact = n < _EXACT_LIMIT
    by_law = np.argsort(laws, kind="stable")
    # laws is unsigned (uint8 up to 256 laws); sorted, its differences are
    # >= 0 and cannot wrap
    groups = [by_law[s] for s in _runs(laws[by_law])]
    for rows in groups:
        rows = rows[exact[rows]]
        if len(rows):
            law = env.spec.law_support[laws[rows[0]]]
            draws[rows, tables.atoms - len(law.atoms):] = _exact_multinomials(
                rngs, rep[rows], n[rows], law.atom_probs, stats)
    if not exact.all():
        big = np.flatnonzero(~exact)
        draws[big] = _conditional_chain(
            rngs, rep[big], n[big], [t[laws[big]] for t in tables.chain],
            stats)

    children = np.zeros((len(n), len(tables.offsets)), dtype=dtype)
    for rows in groups:
        own = draws if len(groups) == 1 else draws[rows]
        for j, terms in tables.terms[laws[rows[0]]]:
            col = None
            for a, c in terms:
                term = own[:, a] if c == 1 else own[:, a] * c
                col = term if col is None else col + term
            children[rows, j] = col

    # a site's cell plus an offset's shift is the cell of site + offset
    base = np.ravel_multi_index((rep, *(coords - lo).T), shape)
    shifts = np.ravel_multi_index((0, *(tables.offsets - tables.step_lo).T),
                                  shape)
    box = np.zeros(math.prod(shape), dtype=dtype)
    for j, shift in enumerate(shifts):
        box[base + shift] += children[:, j]
    nz = np.flatnonzero(box)
    values = box[nz]
    replica, *axes = np.unravel_index(nz, shape)
    bounds = np.searchsorted(replica, np.arange(len(batch) + 1)).tolist()
    totals = tuple(np.add.reduceat(values, bounds[:-1]).tolist())
    top = max(totals)
    if top.bit_length() > bit_budget:
        raise BitBudgetError(
            f"population needs {top.bit_length()} bits at generation "
            f"{batch.n + 1}, budget is {bit_budget}")
    return PopulationBatch(
        batch.n + 1, totals, np.stack(axes, axis=1) + (lo + tables.step_lo),
        values, replica, bounds)


def iter_batch(env: EnvironmentField, start: Site, n: int,
               rngs: Sequence[np.random.Generator], *,
               bit_budget: int = DEFAULT_BIT_BUDGET,
               stats: SamplerStats | None = None,
               ) -> Iterator[PopulationBatch]:
    """Evolve one particle at `start` per generator in lockstep, yielding
    the batches of generations 0..n.

    Only the current batch is kept, so a caller that reads each batch as
    it comes holds one generation per replica.  The arguments are checked
    here, when the function is called: ValueError if n is negative or
    `start` does not have the environment's dimension.  Because every
    offspring configuration is nonempty no total ever drops to zero.
    """
    return _generations(env, _checked_start(env, start, n), n, list(rngs),
                        bit_budget, stats)


def _checked_start(env: EnvironmentField, start: Site, n: int) -> Site:
    start = tuple(start)
    if n < 0:
        raise ValueError(f"negative horizon {n}")
    if len(start) != env.spec.dimension:
        raise ValueError(f"start {start} has dimension {len(start)}, the "
                         f"environment dimension {env.spec.dimension}")
    return start


def _generations(env, start, n, rngs, bit_budget, stats):
    batch = PopulationBatch.initial(start, len(rngs))
    yield batch
    for _ in range(n):
        batch = step_batch(env, batch, rngs,
                           bit_budget=bit_budget, stats=stats)
        yield batch


@dataclass(frozen=True)
class LocalExponentStat:
    """Across-run statistics of ln eta_n(x) / n at one (n, x) pair."""

    n: int
    site: Site
    mean: float
    ci_low: float
    ci_high: float
    occupancy: float
    samples: int


def realized_local_exponent(n: int, sites: Sequence[Site],
                            counts: Sequence[Sequence[int]],
                            ) -> list[LocalExponentStat]:
    """Estimate the realized growth exponent ln eta_n(x) / n at each site.

    `counts[r][i]` is run r's particle count at `sites[i]` at generation
    n, so a caller keeps the tracked counts of each run, not its state.
    Only runs with at least one particle at the site contribute; the
    occupancy field records the contributing fraction.  The interval is
    the normal 95% band around the sample mean (degenerate when fewer than
    two runs contribute).
    """
    if not counts:
        raise ValueError("need at least one run")
    if any(len(row) != len(sites) for row in counts):
        raise ValueError("each run needs one count per site")
    out = []
    for i, x in enumerate(sites):
        vals = [math.log(row[i]) / n if n > 0 else 0.0
                for row in counts if row[i] >= 1]
        k = len(vals)
        if k == 0:
            out.append(LocalExponentStat(n, x, math.nan, math.nan,
                                         math.nan, 0.0, 0))
            continue
        mean = sum(vals) / k
        if k >= 2:
            var = sum((v - mean) ** 2 for v in vals) / (k - 1)
            half = 1.96 * math.sqrt(var / k)
        else:
            half = 0.0
        out.append(LocalExponentStat(n, x, mean, mean - half, mean + half,
                                     k / len(counts), k))
    return out


def induced_kernel(env: EnvironmentField, x: Site) -> dict[Site, float]:
    """Transition row of the induced walk at x.

    A configuration with children at m distinct offsets sends the walker
    to each of them with probability 1/m; rows sum to one exactly up to
    rounding.
    """
    law = env.law_at(x)
    row: dict[Site, float] = {}
    for cfg, p in law.atoms:
        support = [y for y, c in cfg.counts if c >= 1]
        share = p / len(support)
        for y in support:
            row[y] = row.get(y, 0.0) + share
    return row


@dataclass(frozen=True)
class _WalkRow:
    """Induced-walk tables of one law: running sums of the kernel row and
    of the residual row left after the forced unit steps."""

    offsets: list[Site]
    cum: list[float]
    residual_cum: list[float]
    residual_total: float
    residual_error: str | None

    @classmethod
    def build(cls, row: dict[Site, float], units: list[Site],
              eps_hat: float) -> "_WalkRow":
        offsets = sorted(row)
        probs, error = [], None
        for y in offsets:
            p = row[y] - eps_hat if y in units else row[y]
            if p < -1e-9 and error is None:
                error = f"residual kernel negative at offset {y}: {p}"
            probs.append(max(0.0, p))
        return cls(offsets, list(accumulate(row[y] for y in offsets)),
                   list(accumulate(probs)), sum(probs), error)

    def pick(self, cum: list[float], u: float) -> Site:
        """The first offset whose running sum exceeds u, else the last."""
        return self.offsets[min(bisect_right(cum, u), len(self.offsets) - 1)]


def _walk_row(env: EnvironmentField, x: Site) -> _WalkRow:
    t = _tables(env)
    i = env.law_index(x)
    row = t.walk_rows.get(i)
    if row is None:
        row = t.walk_rows[i] = _WalkRow.build(induced_kernel(env, x),
                                              t.units, t.eps_hat)
    return row


@dataclass
class InducedWalkState:
    """Mutable trace of an induced walk: position plus forcing history."""

    position: Site
    step_count: int = 0
    forced_flags: list[bool] = field(default_factory=list)
    forced_symbols: list[int] = field(default_factory=list)


def induced_walk_step(env: EnvironmentField, state: InducedWalkState,
                      rng: np.random.Generator) -> InducedWalkState:
    """Advance the induced walk one step via the forcing decomposition.

    With probability 2d * eps where eps = epsilon0 / |step set|, the move
    is a forced unit step whose symbol j in 1..2d follows the unit vector
    ordering +e1, -e1, +e2, ...; otherwise the move is drawn from the
    residual kernel.  The mixture reproduces the induced kernel exactly.
    The kernel and residual rows are built once per law index.
    """
    if not env.conditions.holds_UE:
        raise SimulationError("forcing decomposition needs a uniformly "
                              "elliptic environment")
    t = _tables(env)
    x = state.position
    u = float(rng.random())
    if u < t.forced_mass or t.forced_mass >= 1.0:
        j = min(int(u / t.eps_hat), len(t.units) - 1)
        step = t.units[j]
        state.forced_flags.append(True)
        state.forced_symbols.append(j + 1)
    else:
        row = _walk_row(env, x)
        if row.residual_error is not None:
            raise SimulationError(row.residual_error)
        u2 = float(rng.random()) * row.residual_total
        step = row.pick(row.residual_cum, u2)
        state.forced_flags.append(False)
        state.forced_symbols.append(0)
    state.position = add(x, step)
    state.step_count += 1
    return state


def sample_induced_direct(env: EnvironmentField, x: Site,
                          rng: np.random.Generator) -> Site:
    """Draw one induced-walk step straight from the kernel row.

    Reference sampler for agreement tests against the forcing
    decomposition in induced_walk_step.
    """
    row = _walk_row(env, x)
    return row.pick(row.cum, float(rng.random()))


@dataclass(frozen=True)
class ReturnEstimate:
    """Monte Carlo lower-bound estimate of a return probability."""

    site: Site
    horizon: int
    replicas: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float


def estimate_return_probability(env: EnvironmentField, x: Site,
                                horizon: int, replicas: int,
                                master_seed: int, *,
                                bit_budget: int = DEFAULT_BIT_BUDGET,
                                stats: SamplerStats | None = None,
                                ) -> ReturnEstimate:
    """Estimate P(some particle visits x by the horizon | start at x).

    Each replica runs on its own generator stream derived from the master
    seed, so raising the horizon extends trajectories without resampling
    them and the estimate is monotone in the horizon.  The replicas of a
    `replica_batches` batch are stepped together, and a replica leaves its
    batch at its first visit, so it draws what it would alone.  The
    estimate is a lower bound for the true return probability (it ignores
    returns after the horizon); the interval is the normal 95% band.
    """
    if horizon < 1 or replicas < 1:
        raise ValueError("horizon and replicas must be positive")
    x = _checked_start(env, x, horizon)
    hits = 0
    for batch_replicas in replica_batches(env, horizon, replicas):
        rngs = [replica_rng(master_seed, r, PURPOSE_RETURN_PROBE)
                for r in batch_replicas]
        batch = PopulationBatch.initial(x, len(rngs))
        for _ in range(horizon):  # generation 0 stands on x
            batch = step_batch(env, batch, rngs,
                               bit_budget=bit_budget, stats=stats)
            away = [c == 0 for c in batch.count(x)]
            hits += away.count(False)
            if not any(away):
                break
            batch = batch.select(away)
            rngs = [rng for rng, keep in zip(rngs, away) if keep]
    p_hat = hits / replicas
    half = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / replicas)
    return ReturnEstimate(site=x, horizon=horizon, replicas=replicas,
                          hits=hits, estimate=p_hat,
                          ci_low=max(0.0, p_hat - half),
                          ci_high=min(1.0, p_hat + half))
