"""Random branching environments on Z^d.

A SiteLaw is a finitely supported offspring distribution: each atom is an
offspring configuration v (how many children go to each admissible offset),
and every configuration carries at least one child, so populations never die
out under the unrestricted dynamics.  An EnvironmentField assigns one law
from a finite support to every lattice site through a counter-based hash of
(master_seed, cell), which one method, `law_index_axes`, evaluates.  The
field is lazily evaluable over an infinite lattice, reproducible, and -- in
block-window mode -- finitely dependent by construction: the law at x reads
only the per-cell uniforms in the l1-window of radius w around x, so sites
at l1 distance >= 2w+1 see disjoint cells.

Condition checks (branching, uniform ellipticity, bounded mean offspring,
aperiodicity) are evaluated on the support, not on a realization: they are
almost-sure properties of the field.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import Site, StepSet, l1_norm, unit_vectors
from .seeding import axis_hash, hash_uniform

PROB_TOL = 1e-12

# Peak resident bytes per cell of a box whose law indices are evaluated and
# then worked on by a DP solve or a reachability BFS; a population step
# checks its scatter box against it too.
# Peak RSS above the baseline of an interpreter that has imported the CLI and
# built the environment, d = 3 nearest-neighbour steps: a `brwre solve`
# (layers, `expected_total` of each, writers) took 21.6-33.5 B per lattice
# cell at horizons 60, 90 and 120, i.i.d. and block window, forward and
# adjoint (the uint8 law-index slabs are 1 B of them); `passage_times` at
# radius 30 and 50 took 13.2-15.0 B per box cell, i.i.d. and block window
# (int32 times, uint8 law indices, the box hashed by `law_index_axes` in
# row slabs of `_SLAB_CELLS`).  The constant is the DP's maximum, the
# larger of the two.
BYTES_PER_BOX_CELL = 34

# The cgroup memory limit files `check_box_memory` reads where they exist:
# cgroup v2 ("max" when there is none), then v1.
_CGROUP_LIMIT_FILES = ("/sys/fs/cgroup/memory.max",
                       "/sys/fs/cgroup/memory/memory.limit_in_bytes")

# Most sites `EnvironmentField.law_index` remembers; the oldest goes first.
_INDEX_MEMO_SIZE = 1 << 14

# `law_index_axes` hashes a request in slabs of whole rows along axis 0 of
# about this many cells, so the uint64 hashes and float64 sums of a slab,
# not of the request, are the transient memory of an evaluation.
_SLAB_CELLS = 1 << 15


class EnvironmentError_(ValueError):
    """Invalid environment specification or query."""


# The Monte Carlo errors live here so that the CLI can catch them without
# importing `montecarlo`; `brwre.montecarlo` re-exports both.
class SimulationError(RuntimeError):
    pass


class BitBudgetError(SimulationError):
    """Raised when the total population exceeds the configured bit budget."""


DEFAULT_BIT_BUDGET = 4096


@dataclass(frozen=True)
class OffspringConfig:
    """One offspring configuration v: children per offset, at least one child."""

    counts: tuple[tuple[Site, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for offset, c in self.counts:
            if c < 0:
                raise EnvironmentError_(f"negative child count at {offset}")
            if offset in seen:
                raise EnvironmentError_(f"duplicate offset {offset}")
            seen.add(offset)
        if self.total < 1:
            raise EnvironmentError_("offspring configuration with no children")

    @classmethod
    def from_dict(cls, counts: Mapping[Site, int]) -> "OffspringConfig":
        items = tuple(sorted((tuple(k), int(v)) for k, v in counts.items() if v))
        return cls(items)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def count(self, offset: Site) -> int:
        for o, c in self.counts:
            if o == offset:
                return c
        return 0

    def as_dict(self) -> dict[Site, int]:
        return dict(self.counts)


@dataclass(frozen=True)
class SiteLaw:
    """Offspring law at one site: atoms (configuration, probability)."""

    atoms: tuple[tuple[OffspringConfig, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise EnvironmentError_("law with no atoms")
        total_p = 0.0
        for _, p in self.atoms:
            if not 0.0 <= p <= 1.0:
                raise EnvironmentError_(f"atom probability {p} outside [0,1]")
            total_p += p
        if abs(total_p - 1.0) > PROB_TOL:
            raise EnvironmentError_(f"atom probabilities sum to {total_p}, not 1")

    @cached_property
    def mean_offspring(self) -> dict[Site, float]:
        """mu_y = sum_v w(v) v_y, the mean number of children sent to offset y."""
        mu: dict[Site, float] = {}
        for cfg, p in self.atoms:
            for offset, c in cfg.counts:
                mu[offset] = mu.get(offset, 0.0) + p * c
        return dict(sorted(mu.items()))

    @cached_property
    def mean_total(self) -> float:
        return sum(p * cfg.total for cfg, p in self.atoms)

    @cached_property
    def atom_probs(self) -> np.ndarray:
        """Atom probabilities normalized to sum exactly 1 (sampler input)."""
        p = np.array([p for _, p in self.atoms], dtype=np.float64)
        return p / p.sum()

    def prob_of(self, cfg: OffspringConfig) -> float:
        for a, p in self.atoms:
            if a == cfg:
                return p
        return 0.0

    def step_mass(self, offset: Site) -> float:
        """Probability that at least one child lands on `offset`."""
        return sum(p for cfg, p in self.atoms if cfg.count(offset) >= 1)


@dataclass(frozen=True)
class Dependence:
    mode: str
    window_radius: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("iid", "block_window"):
            raise EnvironmentError_(f"unknown dependence mode {self.mode!r}")
        if self.mode == "block_window" and self.window_radius < 1:
            raise EnvironmentError_("block_window mode needs window_radius >= 1")
        if self.mode == "iid" and self.window_radius not in (0,):
            raise EnvironmentError_("iid mode takes no window_radius")

    @property
    def rho(self) -> int:
        """Declared l1 dependence range: laws at distance >= rho are independent."""
        return 1 if self.mode == "iid" else 2 * self.window_radius + 1


@dataclass(frozen=True)
class EnvironmentSpec:
    dimension: int
    step_set: StepSet
    law_support: tuple[SiteLaw, ...]
    weights: tuple[float, ...]
    dependence: Dependence = Dependence("iid")
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2, 3):
            raise EnvironmentError_(f"dimension {self.dimension} not supported")
        if self.step_set.dimension != self.dimension:
            raise EnvironmentError_("step set dimension mismatch")
        if len(self.law_support) != len(self.weights):
            raise EnvironmentError_("one weight per support law required")
        if not self.law_support:
            raise EnvironmentError_("empty law support")
        if any(w < 0 for w in self.weights):
            raise EnvironmentError_("negative weight")
        if abs(sum(self.weights) - 1.0) > PROB_TOL:
            raise EnvironmentError_(f"weights sum to {sum(self.weights)}, not 1")
        allowed = set(self.step_set.offsets)
        for law in self.law_support:
            for cfg, _ in law.atoms:
                for offset, _ in cfg.counts:
                    if offset not in allowed:
                        raise EnvironmentError_(
                            f"offspring offset {offset} outside the step set"
                        )

    @property
    def rho(self) -> int:
        return self.dependence.rho


@dataclass(frozen=True)
class ConditionReport:
    holds_B: bool
    holds_UE: bool
    epsilon0: float
    holds_D: bool
    D0: float
    holds_A: bool
    witness: tuple[Site, OffspringConfig] | None
    rho: int

    def as_dict(self) -> dict:
        w = None
        if self.witness is not None:
            x, v = self.witness
            w = {"offset": list(x), "counts": {_offset_key(o): c for o, c in v.counts}}
        return {
            "holds_B": self.holds_B,
            "holds_UE": self.holds_UE,
            "epsilon0": self.epsilon0,
            "holds_D": self.holds_D,
            "D0": self.D0,
            "holds_A": self.holds_A,
            "witness": w,
            "rho": self.rho,
        }


@dataclass(frozen=True, eq=False)
class EnvironmentField:
    """Lazily evaluated environment: pure map Site -> SiteLaw.

    `law_index_axes` is the one evaluator of the map, which every other
    query reads, and the one method a hand-built test field overrides.
    The one cache is `_index_memo`, in which `law_index`, whose callers are
    per-site ones (the induced walk, tests), keeps at most
    `_INDEX_MEMO_SIZE` sites, evicting the oldest first.  Every other
    request is hashed afresh, slab by slab, and nothing of it is kept: the
    DP's slabs, the population steps' rows, and the boxes of the BFS and
    `check_anderson_equation`.
    """

    spec: EnvironmentSpec

    @cached_property
    def _cum_weights(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.spec.weights, dtype=np.float64))

    @cached_property
    def _window_cells(self) -> tuple[Site, ...]:
        w = self.spec.dependence.window_radius
        cells = [
            c
            for c in product(range(-w, w + 1), repeat=self.spec.dimension)
            if l1_norm(c) <= w
        ]
        return tuple(sorted(cells))

    @cached_property
    def conditions(self) -> ConditionReport:
        return check_conditions(self.spec)

    @cached_property
    def _index_memo(self) -> dict[Site, int]:
        return {}

    def law_index(self, x: Site) -> int:
        x = tuple(x)
        # memoized: the field is a pure function of the site, and a walk
        # revisits the same sites
        memo = self._index_memo
        hit = memo.get(x)
        if hit is not None:
            return hit
        idx = int(self.law_index_axes(x))
        if len(memo) >= _INDEX_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[x] = idx
        return idx

    def law_at(self, x: Site) -> SiteLaw:
        return self.spec.law_support[self.law_index(x)]

    def law_index_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Law indices at the sites whose i-th coordinates are `axes[i]`.

        The one evaluator of the map.  The axes are integer arrays that
        broadcast together, such as the open mesh of a box or affine
        expressions in lattice coordinates; the result is a fresh array of
        their broadcast shape in the smallest unsigned dtype that holds the
        law count (uint8 up to 256 laws, uint16 up to 65,536), and no
        (..., d) site array is built.  The broadcast shape is hashed in
        slabs of whole rows along axis 0 of about `_SLAB_CELLS` cells; an
        axis that does not vary along axis 0 passes whole.  A cell's index
        does not depend on its slab.  Callers: `law_index` on a site's
        coordinates, the DP on its slabs, the BFS and
        `check_anderson_equation` on the open mesh of a box,
        `montecarlo.step_batch` on its transposed (rows, d) sites.
        """
        axes = [np.asarray(a, dtype=np.int64) for a in axes]
        shape = np.broadcast_shapes(*(a.shape for a in axes))
        rows = max(1, _SLAB_CELLS // (math.prod(shape[1:]) or 1))
        if math.prod(shape[:1]) <= rows:
            return self._hash(axes)
        out = np.empty(shape, dtype=self._index_dtype)
        for r in range(0, shape[0], rows):
            out[r:r + rows] = self._hash(
                [a[r:r + rows] if a.ndim == len(shape) and len(a) > 1 else a
                 for a in axes])
        return out

    def _hash(self, axes: list[np.ndarray]) -> np.ndarray:
        """Law indices at the broadcast sites of `axes`, hashed at once."""
        seed = self.spec.master_seed
        if self.spec.dependence.mode == "iid":
            return self._select(hash_uniform(axis_hash(seed, axes)))
        acc = np.zeros(np.broadcast_shapes(*(a.shape for a in axes)))
        for c in self._window_cells:
            acc += hash_uniform(axis_hash(seed, [a + ci for a, ci in zip(axes, c)]))
        return self._select(np.mod(acc, 1.0, out=acc))

    @cached_property
    def _index_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every law index."""
        return np.min_scalar_type(len(self.spec.law_support) - 1)

    def _select(self, u: np.ndarray) -> np.ndarray:
        # the inverse CDF over all but the last cumulative weight: below
        # that weight it is the plain inverse CDF, and a u at or above it
        # (weights whose sum rounds short of 1) takes the last law; an
        # index past the end would wrap to 0 in the narrow dtype
        return np.searchsorted(self._cum_weights[:-1], u, side="right").astype(
            self._index_dtype)


def _box_axes(lo: Site, hi: Site) -> list[np.ndarray]:
    """The open mesh of the inclusive box [lo, hi]: axis i varies along i."""
    d = len(lo)
    return [np.arange(l, h + 1, dtype=np.int64).reshape(
        [-1 if j == i else 1 for j in range(d)])
        for i, (l, h) in enumerate(zip(lo, hi))]


def _logsumexp(expo: np.ndarray, axis: int = -1) -> tuple[np.ndarray, ...]:
    """ln sum exp(expo) along `axis`: the tilted log-partition that
    `expected_total`, `growth._legendre` and `classify._Phi` read.

    In scipy's `logsumexp` form: with top the maximum and m the number of
    terms equal to it, the other terms' weights exp(expo - top) sum to
    rest, and the value is ln(1 + rest / m) + ln m + top.  Forming
    1 + rest / m would lose a bit, enough for the criterion's search to
    find spurious minima one ulp below a symmetric law's value at t = 0.
    Returns (value, weights, total): the weights, 1 at the maxima, are
    written into `expo`, and total = m + rest.  Each slice along the axis
    needs a finite maximum.
    """
    top = expo.max(axis=axis, keepdims=True)
    at_top = expo == top
    m = at_top.sum(axis=axis)
    expo -= top
    weights = np.exp(expo, out=expo)
    # masked writes: an np.where copy costs about 3x on a large layer
    np.copyto(weights, 0.0, where=at_top)
    rest = weights.sum(axis=axis)
    np.copyto(weights, 1.0, where=at_top)
    value = np.log1p(rest / m) + np.log(m) + top.squeeze(axis)
    return value, weights, m + rest


def check_box_memory(cells: int, error: type[Exception], what: str) -> None:
    """Raise `error` if a working set of `cells` box cells would not fit.

    Call it before evaluating the cells' law indices, so an oversized
    request fails at once with a typed error instead of a MemoryError or
    an out-of-memory kill.  The budget is the least of physical memory,
    the cgroup memory limit and the process's soft RLIMIT_AS and
    RLIMIT_DATA, where they are set.  v1's "unlimited" limit, about 2**63,
    exceeds physical memory and so never binds.
    """
    need = cells * BYTES_PER_BOX_CELL
    limits = []
    try:
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    for path in _CGROUP_LIMIT_FILES:
        try:
            with open(path, "rb") as f:
                text = f.read().strip()
        except OSError:
            continue
        if text.isdigit():
            limits.append((int(text), "the cgroup memory limit"))
    try:
        import resource  # here, not at the top: the CLI's start-up stays lean
        for name in ("RLIMIT_AS", "RLIMIT_DATA"):
            soft = resource.getrlimit(getattr(resource, name))[0]
            if soft != resource.RLIM_INFINITY:
                limits.append((soft, f"the soft {name}"))
    except ImportError:  # no resource module on this platform
        pass
    have, limit = min(limits, default=(need, ""))
    if need > have:
        raise error(
            f"{what} needs a {cells}-cell box, about {need / 2**30:.1f} GiB "
            f"at {BYTES_PER_BOX_CELL} B per cell; {limit} is "
            f"{have / 2**30:.1f} GiB"
        )


def build_environment(spec: EnvironmentSpec) -> EnvironmentField:
    """Realize the random environment described by `spec`."""
    return EnvironmentField(spec)


def check_conditions(spec: EnvironmentSpec) -> ConditionReport:
    """Evaluate the standing conditions on the support of the environment law.

    B: some charged support law has an atom with two or more children.
    UE: eps0 = min over charged laws and signed unit directions e of the
        probability of sending at least one child to e; UE holds iff eps0 > 0.
    D: D0 = max mean total offspring over the support (always finite here).
    A: some charged law has an atom v with v_x >= 1 at an offset x of even
       l1 norm (offset 0, if admissible, counts: ||0|| = 0 is even).
    """
    charged = [
        law for law, w in zip(spec.law_support, spec.weights) if w > 0.0
    ]
    holds_B = any(
        cfg.total >= 2 and p > 0.0 for law in charged for cfg, p in law.atoms
    )
    eps0 = min(
        law.step_mass(e) for law in charged for e in unit_vectors(spec.dimension)
    )
    holds_UE = eps0 > 0.0
    D0 = max(law.mean_total for law in charged)
    witness: tuple[Site, OffspringConfig] | None = None
    for law in charged:
        for cfg, p in law.atoms:
            if p <= 0.0:
                continue
            for offset, c in cfg.counts:
                if c >= 1 and l1_norm(offset) % 2 == 0:
                    witness = (offset, cfg)
                    break
            if witness:
                break
        if witness:
            break
    return ConditionReport(
        holds_B=holds_B,
        holds_UE=holds_UE,
        epsilon0=float(eps0),
        holds_D=True,
        D0=float(D0),
        holds_A=witness is not None,
        witness=witness,
        rho=spec.rho,
    )


def is_delta_aperiodic(
    law: SiteLaw, delta: float, witness: tuple[Site, OffspringConfig]
) -> bool:
    """True iff the law charges the aperiodicity witness strictly above delta.

    The witness must be admissible: an offset of even l1 norm receiving at
    least one child in the configuration.
    """
    x, v = witness
    if l1_norm(x) % 2 != 0 or v.count(tuple(x)) < 1:
        raise EnvironmentError_(f"witness ({x}, {v}) is not an aperiodicity witness")
    return law.prob_of(v) > delta


# --- JSON interchange -------------------------------------------------------
#
# Schema (all fields required unless noted; unknown fields are rejected):
# {
#   "dimension": 1|2|3,
#   "step_set": [[dx, ...], ...],
#   "laws": [{"atoms": [{"counts": {"(1,)": 1, ...}, "p": 0.5}, ...]}, ...],
#   "weights": [w0, ...],
#   "dependence": {"mode": "iid"} | {"mode": "block_window", "window_radius": w},
#   "seed": integer
# }
# Offset keys are the coordinates in parentheses, e.g. "(1,)" in d=1 and
# "(1,0)" in d=2; bare "1" is accepted on input for d=1.


def _offset_key(offset: Site) -> str:
    if len(offset) == 1:
        return f"({offset[0]},)"
    return "(" + ",".join(str(c) for c in offset) + ")"


def _parse_offset_key(key: str, dimension: int) -> Site:
    body = key.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p for p in (s.strip() for s in body.split(",")) if p]
    try:
        offset = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise EnvironmentError_(f"bad offset key {key!r}") from exc
    if len(offset) != dimension:
        raise EnvironmentError_(
            f"offset key {key!r} has {len(offset)} coords, expected {dimension}"
        )
    return offset


def reject_unknown(doc: object, allowed: Iterable[str], where: str,
                   error: type[Exception] = EnvironmentError_) -> None:
    """Raise `error` unless `doc` is a mapping whose keys all lie in `allowed`."""
    if not isinstance(doc, Mapping):
        raise error(f"{where} must be an object, got {doc!r}")
    extra = set(doc) - set(allowed)
    if extra:
        raise error(f"unknown fields in {where}: {sorted(extra)}")


def checked_int(v: object, where: str, error: type[Exception] = EnvironmentError_,
                lo: int | None = None) -> int:
    """`v` itself if it is an int (bools and floats are not) and >= lo."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise error(f"{where} must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise error(f"{where} must be >= {lo}, got {v}")
    return v


def _number(v: object, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EnvironmentError_(f"{where} must be a number, got {v!r}")
    return float(v)


def _field(doc: Mapping, key: str, where: str) -> object:
    if key not in doc:
        raise EnvironmentError_(f"missing field {where}.{key}")
    return doc[key]


def _list(v: object, where: str) -> list:
    if not isinstance(v, list):
        raise EnvironmentError_(f"{where} must be a list, got {v!r}")
    return v


def spec_from_dict(doc: Mapping) -> EnvironmentSpec:
    """Parse the JSON schema above, raising EnvironmentError_ on any defect."""
    w = "environment"
    reject_unknown(
        doc, {"dimension", "step_set", "laws", "weights", "dependence", "seed"}, w
    )
    dimension = checked_int(_field(doc, "dimension", w), f"{w}.dimension")
    offsets = []
    for i, y in enumerate(_list(_field(doc, "step_set", w), f"{w}.step_set")):
        wy = f"{w}.step_set[{i}]"
        offsets.append(tuple(checked_int(c, wy) for c in _list(y, wy)))
    try:
        step_set = StepSet(tuple(offsets))
    except ValueError as exc:
        raise EnvironmentError_(f"{w}.step_set: {exc}") from exc
    weights = tuple(
        _number(x, f"{w}.weights[{i}]")
        for i, x in enumerate(_list(_field(doc, "weights", w), f"{w}.weights"))
    )
    wd = f"{w}.dependence"
    dep_doc = doc.get("dependence", {"mode": "iid"})
    reject_unknown(dep_doc, {"mode", "window_radius"}, wd)
    mode = _field(dep_doc, "mode", wd)
    if not isinstance(mode, str):
        raise EnvironmentError_(f"{wd}.mode must be a string, got {mode!r}")
    radius = checked_int(dep_doc.get("window_radius", 0), f"{wd}.window_radius")
    laws = []
    for i, law_doc in enumerate(_list(_field(doc, "laws", w), f"{w}.laws")):
        wl = f"{w}.laws[{i}]"
        reject_unknown(law_doc, {"atoms"}, wl)
        atoms = []
        atom_docs = _list(_field(law_doc, "atoms", wl), f"{wl}.atoms")
        for j, atom_doc in enumerate(atom_docs):
            wa = f"{wl}.atoms[{j}]"
            reject_unknown(atom_doc, {"counts", "p"}, wa)
            counts_doc = _field(atom_doc, "counts", wa)
            if not isinstance(counts_doc, Mapping):
                raise EnvironmentError_(
                    f"{wa}.counts must be an object, got {counts_doc!r}")
            counts = {
                _parse_offset_key(k, dimension): checked_int(v, f"{wa}.counts[{k!r}]")
                for k, v in counts_doc.items()
            }
            p = _number(_field(atom_doc, "p", wa), f"{wa}.p")
            atoms.append((OffspringConfig.from_dict(counts), p))
        laws.append(SiteLaw(tuple(atoms)))
    return EnvironmentSpec(
        dimension=dimension,
        step_set=step_set,
        law_support=tuple(laws),
        weights=weights,
        dependence=Dependence(mode, radius),
        master_seed=checked_int(doc.get("seed", 0), f"{w}.seed", lo=0),
    )


def spec_to_dict(spec: EnvironmentSpec) -> dict:
    dep: dict = {"mode": spec.dependence.mode}
    if spec.dependence.mode == "block_window":
        dep["window_radius"] = spec.dependence.window_radius
    return {
        "dimension": spec.dimension,
        "step_set": [list(y) for y in spec.step_set.offsets],
        "laws": [
            {
                "atoms": [
                    {
                        "counts": {_offset_key(o): c for o, c in cfg.counts},
                        "p": p,
                    }
                    for cfg, p in law.atoms
                ]
            }
            for law in spec.law_support
        ],
        "weights": list(spec.weights),
        "dependence": dep,
        "seed": spec.master_seed,
    }
