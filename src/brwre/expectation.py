"""Quenched expectation solver.

Computes m_n(x) = E_w eta_n^start(x), the expected number of particles at x
after n steps given the environment realization, by dynamic programming in
log-space: one particle at `start` at time 0; a particle at site s
contributes mean mass mu_y(s) to s+y one step later.  Values are exact path
sums (up to float rounding), no truncation: the layer-n support lies inside
the l1 ball of radius L0*n around the start.

Two evolution directions exist.  The forward direction (default) fixes the
start and tracks where mass goes; coefficients attach to the source site.
The adjoint direction fixes the *target* z and tracks u_n(x) = expected
count at z for a walk started at x; coefficients attach to x itself:

    u_{n+1}(x) = sum_y mu_y(x) u_n(x+y).

Every law factorizes as mu_y(x) = r(x) p(x, y), with r(x) the mean total
offspring and p(x, .) = mu(x) / r(x), and the adjoint layers satisfy the
discrete parabolic Anderson identity

    u_{n+1} - u_n = r * Lap_w u_n + (r - 1) u_n,
    (Lap_w f)(x) = sum_y p(x,y) [f(x+y) - f(x)],

which `check_anderson_equation` verifies; forward layers do not satisfy it
for site-dependent environments (they solve the adjoint identity with the
edge roles reversed).

Every layer, in every dimension, is a dense float array over its bounding
box.  The law indices of the whole horizon's box are evaluated once per
solve, and each step accumulates the shifted contributions in sorted offset
order, so a layer is a deterministic function of the environment and the
start.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import logsumexp

from .environment import EnvironmentField, check_box_memory
from .lattice import Site

NEG_INF = float("-inf")

_BINARY_MAGIC = b"BRWL"
_BINARY_VERSION = 1


class SolverError(ValueError):
    pass


@dataclass(eq=False)
class LogMassField:
    """One DP layer: log of the expected particle count per site.

    `values` is a float array over the inclusive box starting at `lo`;
    sites outside the box, and box entries without mass, are log(0) = -inf.
    """

    n: int
    dimension: int
    lo: Site
    values: np.ndarray

    @property
    def hi(self) -> Site:
        return tuple(l + s - 1 for l, s in zip(self.lo, self.values.shape))

    @classmethod
    def delta(cls, start: Site) -> "LogMassField":
        start = tuple(start)
        return cls(0, len(start), start, np.zeros((1,) * len(start)))

    def get(self, x: Site) -> float:
        idx = tuple(c - l for c, l in zip(x, self.lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.values.shape)):
            return NEG_INF
        return float(self.values[idx])

    def items(self) -> Iterator[tuple[Site, float]]:
        """Finite (site, log-mass) entries in lexicographic site order."""
        mask = self.values > NEG_INF
        for idx, v in zip(np.argwhere(mask).tolist(), self.values[mask].tolist()):
            yield tuple(c + l for c, l in zip(idx, self.lo)), v

    def support_size(self) -> int:
        return int(np.isfinite(self.values).sum())


def expected_total(fld: LogMassField) -> float:
    """log sum_x exp(values): the log expected total population in the layer."""
    flat = fld.values[np.isfinite(fld.values)]
    if flat.size == 0:
        return NEG_INF
    return float(logsumexp(flat))


class _Tables:
    """Per-law log mean-offspring tables over a fixed box, shared across layers."""

    def __init__(self, env: EnvironmentField, lo: Site, hi: Site, adjoint: bool):
        self.offsets = env.spec.step_set.sorted_offsets()
        self.adjoint = adjoint
        # per-axis displacement range of one step: layer boxes grow by it
        lows = [min(y[i] for y in self.offsets) for i in range(len(lo))]
        highs = [max(y[i] for y in self.offsets) for i in range(len(lo))]
        if adjoint:
            lows, highs = [-h for h in highs], [-l for l in lows]
        self.step_lo = tuple(lows)
        self.step_hi = tuple(highs)
        self.lo = lo
        with np.errstate(divide="ignore"):
            self.law_table = np.log(
                np.array(
                    [
                        [law.mean_offspring.get(y, 0.0) for y in self.offsets]
                        for law in env.spec.law_support
                    ],
                    dtype=np.float64,
                )
            )
        self.idx = env.law_index_grid(lo, hi)

    def log_mu(self, j: int, lo: Site, shape: tuple[int, ...]) -> np.ndarray:
        """log mu_{offsets[j]} over the sub-box [lo, lo+shape)."""
        sl = tuple(
            slice(l - tl, l - tl + s) for l, tl, s in zip(lo, self.lo, shape)
        )
        return self.law_table[self.idx[sl], j]


def _step_dense(fld: LogMassField, tables: _Tables) -> LogMassField:
    old = fld.values
    lo_new = tuple(l + a for l, a in zip(fld.lo, tables.step_lo))
    shape_new = tuple(
        s + b - a for s, a, b in zip(old.shape, tables.step_lo, tables.step_hi)
    )
    new = np.full(shape_new, NEG_INF, dtype=np.float64)
    for j, y in enumerate(tables.offsets):
        if tables.adjoint:
            # destination x reads from x + y; coefficient mu_y(x)
            dst_lo = tuple(l - c for l, c in zip(fld.lo, y))
            coef = tables.log_mu(j, dst_lo, old.shape)
        else:
            # destination z reads from z - y; coefficient mu_y(z - y)
            dst_lo = tuple(l + c for l, c in zip(fld.lo, y))
            coef = tables.log_mu(j, fld.lo, old.shape)
        dst = tuple(
            slice(l - ln, l - ln + s) for l, ln, s in zip(dst_lo, lo_new, old.shape)
        )
        np.logaddexp(new[dst], old + coef, out=new[dst])
    return LogMassField(fld.n + 1, fld.dimension, lo_new, new)


def iter_layers(
    env: EnvironmentField,
    start: Site,
    n: int,
    adjoint: bool = False,
) -> Iterator[LogMassField]:
    """Yield layers 0..n one at a time (constant memory in the horizon).

    Every layer lies in the bounding box of {start + n*y : y a step
    offset}, so the horizon alone sizes the solve.  Raises SolverError,
    before any step, if that box would not fit in physical memory.
    """
    if n < 0:
        raise SolverError("negative horizon")
    start = tuple(start)
    fld = LogMassField.delta(start)
    yield fld
    if n == 0:
        return
    offs = env.spec.step_set.sorted_offsets()
    sign = -1 if adjoint else 1
    ends = [tuple(s + sign * n * y[i] for y in offs) for i, s in enumerate(start)]
    lo_full = tuple(min(e) for e in ends)
    hi_full = tuple(max(e) for e in ends)
    check_box_memory(lo_full, hi_full, SolverError, f"horizon {n}")
    tables = _Tables(env, lo_full, hi_full, adjoint)
    for _ in range(n):
        fld = _step_dense(fld, tables)
        yield fld


def solve(
    env: EnvironmentField,
    start: Site,
    n: int,
    adjoint: bool = False,
) -> list[LogMassField]:
    """All layers 0..n.

    Forward (default): layer k at site x is log E_w eta_k^start(x).
    Adjoint: layer k at site x is log E_w eta_k^x(start), the fixed-target
    object evolved by the Anderson-equation dynamics.
    """
    return list(iter_layers(env, start, n, adjoint))


# --- Anderson-equation check -------------------------------------------------


def _mass_on_box(fld: LogMassField, lo: Site, shape: tuple[int, ...]) -> np.ndarray:
    """exp(fld) over the box [lo, lo+shape), zero where the layer has no entry."""
    out = np.zeros(shape)
    src, dst = [], []
    for l, s, fl, fs in zip(lo, shape, fld.lo, fld.values.shape):
        a, b = max(l, fl), min(l + s, fl + fs)
        if a >= b:
            return out
        src.append(slice(a - fl, b - fl))
        dst.append(slice(a - l, b - l))
    out[tuple(dst)] = np.exp(fld.values[tuple(src)])
    return out


def check_anderson_equation(env: EnvironmentField, layers: list[LogMassField]) -> float:
    """Max relative residual of the discrete Anderson identity over the layers.

    `layers` must be adjoint layers of `env` (see module docstring), with
    r = mean total offspring and p = mu / r per law.  The residual at (k, x),
    for x in the box of layer k+1, is
    |u_{k+1}(x) - u_k(x) - r(x)(Lap u_k)(x) - (r(x)-1)u_k(x)| divided by
    max(1, |u_k(x)|, |u_{k+1}(x)|), the scale of the cancelling terms.
    """
    offsets = env.spec.step_set.sorted_offsets()
    laws = env.spec.law_support
    r_table = np.array([law.mean_total for law in laws])
    p_table = np.array(
        [
            [law.mean_offspring.get(y, 0.0) / law.mean_total for y in offsets]
            for law in laws
        ]
    )
    d = len(offsets[0])
    step_lo = tuple(min(y[i] for y in offsets) for i in range(d))
    step_hi = tuple(max(y[i] for y in offsets) for i in range(d))
    max_resid = 0.0
    for prev, cur in zip(layers, layers[1:]):
        shape = cur.values.shape
        # u_k over cur's box grown by one step, so every x + y is in range
        u = _mass_on_box(
            prev,
            tuple(l + a for l, a in zip(cur.lo, step_lo)),
            tuple(s + b - a for s, a, b in zip(shape, step_lo, step_hi)),
        )

        def shifted(y: Site) -> np.ndarray:
            sl = tuple(slice(c - a, c - a + s) for c, a, s in zip(y, step_lo, shape))
            return u[sl]

        u_x = shifted((0,) * d)
        u_next = np.exp(cur.values)
        idx = env.law_index_grid(cur.lo, cur.hi)
        lap = np.zeros(shape)
        for j, y in enumerate(offsets):
            lap += p_table[idx, j] * (shifted(y) - u_x)
        r = r_table[idx]
        resid = np.abs(u_next - u_x - r * lap - (r - 1.0) * u_x)
        scale = np.maximum(np.maximum(np.abs(u_x), np.abs(u_next)), 1.0)
        max_resid = max(max_resid, float((resid / scale).max()))
    return max_resid


# --- Layer dumps --------------------------------------------------------------


def write_layer_csv(fld: LogMassField, path: str) -> None:
    """CSV dump: one row per finite-mass site, coordinates then log mass."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(fld.dimension)] + ["log_mass"])
        for site, v in fld.items():
            w.writerow(list(site) + [repr(v)])


def read_layer_csv(path: str) -> dict[Site, float]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    d = len(head) - 1
    return {
        tuple(int(c) for c in row[:d]): float(row[d]) for row in rows[1:]
    }


def write_layer_binary(fld: LogMassField, path: str) -> None:
    """Compact binary layer dump.

    Header: magic "BRWL", u16 version, u16 dimension, i64 n, d x i64 lower
    box corner, d x u64 box shape; then the layer as little-endian float64
    in row-major order (missing sites hold -inf).
    """
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<HHq", _BINARY_VERSION, fld.dimension, fld.n))
        fh.write(struct.pack(f"<{fld.dimension}q", *fld.lo))
        fh.write(struct.pack(f"<{fld.dimension}Q", *fld.values.shape))
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def read_layer_binary(path: str) -> LogMassField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise SolverError(f"not a layer file: bad magic {magic!r}")
        version, d, n = struct.unpack("<HHq", fh.read(12))
        if version != _BINARY_VERSION:
            raise SolverError(f"unsupported layer format version {version}")
        lo = struct.unpack(f"<{d}q", fh.read(8 * d))
        shape = struct.unpack(f"<{d}Q", fh.read(8 * d))
        count = int(np.prod(shape))
        data = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(np.float64)
    return LogMassField(n, d, tuple(lo), data.reshape(shape))
