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

Layers are stored in the coordinates of the lattice the walk can reach
(`lattice.step_lattice`): after k steps every site lies on
start + k*base + L, L the lattice spanned by the differences of the steps,
and the layer is a float array over the box [0, k*width] of lattice
coordinates.  For nearest-neighbour steps that is (k+1)^d cells where the
bounding box of the sites has (2k+1)^d; when L = Z^d the basis is the
identity and the layer is its bounding box.  Each step adds the shifted
contributions of the offsets in sorted order, as on the bounding box, so
every site sees the same sequence of finite `logaddexp` terms (the first
is a plain sum, exact because logaddexp(-inf, v) = v) and a layer is
bitwise the same as a dense-box evaluation: a deterministic function of
the environment and the start.  The log mean offspring of the sites every
layer reads are tabulated once per solve, one slab per offset and coset of
L, and a layer reads them through shifted slices.

At its boundary a layer is the dense box of its sites (`LogMassField.lo`,
`values`), which the writers, the Anderson check and `expected_total` read.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .environment import EnvironmentField, check_box_memory
from .lattice import Site, StepLattice, step_lattice

NEG_INF = float("-inf")

_BINARY_MAGIC = b"BRWL"
_BINARY_VERSION = 1


class SolverError(ValueError):
    pass


@dataclass(eq=False)
class LogMassField:
    """One DP layer: log of the expected particle count per site.

    `cells[z]` is the log-mass at site `origin + B z`, with B the basis of
    `lattice`.  Publicly the layer is a dense box: `values` is a float
    array over the inclusive box [lo, lo + shape), built on each access
    (and not kept, so a stepping solve holds no dense box), and sites
    outside the box, and box entries without mass, are log(0) = -inf.
    Cells whose sites fall outside the box are always -inf.
    """

    n: int
    cells: np.ndarray
    origin: Site
    lattice: StepLattice
    lo: Site
    shape: tuple[int, ...]

    @classmethod
    def from_box(cls, n: int, lo: Site, values: np.ndarray) -> "LogMassField":
        """A layer given as its dense box: the identity lattice frame."""
        lo = tuple(lo)
        return cls(n, values, lo, StepLattice.identity(len(lo)), lo,
                   values.shape)

    @classmethod
    def delta(cls, start: Site) -> "LogMassField":
        return cls.from_box(0, start, np.zeros((1,) * len(start)))

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def hi(self) -> Site:
        return tuple(l + s - 1 for l, s in zip(self.lo, self.shape))

    @property
    def values(self) -> np.ndarray:
        """The dense box, row-major; cells outside it are dropped.

        Always a new array, so writing into it leaves the layer as it was.
        The box's flat index is affine in the lattice coordinates, so one
        strided view of a padded buffer holds every cell, and the finite
        cells are copied through it.  A cell whose site lies outside the
        box lands in the padding or on another cell's position; it is -inf
        and is not copied.
        """
        cells = self.cells
        strides = [int(np.prod(self.shape[i + 1:])) for i in range(len(self.shape))]
        step = [sum(b * s for b, s in zip(col, strides)) for col in self.lattice.basis]
        first = sum((o - l) * s for o, l, s in zip(self.origin, self.lo, strides))
        reach = [(c - 1) * s for c, s in zip(cells.shape, step)]
        below = max(0, -(first + sum(min(0, r) for r in reach)))
        size = max(int(np.prod(self.shape)), first + sum(max(0, r) for r in reach) + 1)
        buf = np.full(below + size, NEG_INF)
        view = as_strided(buf[below + first:], cells.shape,
                          [s * buf.itemsize for s in step])
        np.copyto(view, cells, where=np.isfinite(cells))
        return buf[below:below + int(np.prod(self.shape))].reshape(self.shape)

    def get(self, x: Site) -> float:
        z = self.lattice.coords([c - o for c, o in zip(x, self.origin)])
        if z is None or any(i < 0 or i >= s for i, s in zip(z, self.cells.shape)):
            return NEG_INF
        return float(self.cells[z])

    def items(self) -> Iterator[tuple[Site, float]]:
        """Finite (site, log-mass) entries in lexicographic site order."""
        sites, values = self._finite()
        return zip(map(tuple, sites.tolist()), values.tolist())

    def _finite(self) -> tuple[np.ndarray, np.ndarray]:
        """The finite entries' sites (m, d) and log masses (m,), as `items`
        orders them: lexicographic in the site."""
        values = self.values
        mask = values > NEG_INF
        sites = np.argwhere(mask) + np.array(self.lo, dtype=np.int64)
        return sites, values[mask]

    def support_size(self) -> int:
        return int(np.isfinite(self.cells).sum())


def expected_total(fld: LogMassField) -> float:
    """log sum_x exp(values): the log expected total population in the layer.

    The finite values are summed in the dense box's row-major order, in
    the form of scipy's `logsumexp`: the maxima are taken out of the sum,
    log1p(sum / m) + log m + max with m the number of maxima.
    """
    values = fld.values
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


class _Tables:
    """Lattice frame and log mean-offspring slabs of one solve.

    Layer k has cells [0, k*width] at sites start + k*base + B z.  Layer
    k = c + q*m (q the lattice period) lies on coset c, and its cell z is
    cell z + m*kappa - lo of `slabs[c] = (lo, slab)`, where q*base =
    B kappa.  The slab of coset c holds one contiguous array per offset,
    over the sites of every layer of that coset that carries coefficients:
    the sources (layers 0..n-1) forward, the destinations (layers 1..n)
    adjoint.
    """

    def __init__(self, env: EnvironmentField, start: Site, n: int, adjoint: bool):
        offsets = env.spec.step_set.sorted_offsets()
        sign = -1 if adjoint else 1
        moves = [tuple(sign * c for c in y) for y in offsets]
        self.adjoint = adjoint
        self.lattice = lat = step_lattice(tuple(moves))
        self.shifts = lat.shifts
        self.width = lat.width
        self.start = start
        # the dense box of layer k is start + k*[step_lo, step_hi]
        self.step_lo = tuple(map(min, zip(*moves)))
        self.step_hi = tuple(map(max, zip(*moves)))
        q = lat.period
        kappa = lat.coords([q * c for c in lat.base])
        self.kappa = np.array(kappa)
        # coset c holds the layers k = c (mod q) in [first, last]; cell 0 of
        # layer k is slab cell (k // q) * kappa, linear in k, so the slab
        # box is spanned by the first and the last of them
        first, last = (1, n) if adjoint else (0, n - 1)
        boxes = {}
        for c in range(q):
            ends = (first + (c - first) % q, last - (last - c) % q)
            if ends[0] <= ends[1]:
                lo = [min(k // q * a for k in ends) for a in kappa]
                hi = [max(k // q * a + k * w for k in ends)
                      for a, w in zip(kappa, self.width)]
                boxes[c] = (lo, hi)
        check_box_memory(sum(math.prod(h - l + 1 for l, h in zip(lo, hi))
                             for lo, hi in boxes.values()),
                         SolverError, f"horizon {n}")
        with np.errstate(divide="ignore"):
            law_table = np.log(
                np.array(
                    [
                        [law.mean_offspring.get(y, 0.0) for y in offsets]
                        for law in env.spec.law_support
                    ],
                    dtype=np.float64,
                )
            )
        basis = np.array(lat.basis, dtype=np.int64)  # rows are B's columns
        self.slabs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for c, (lo, hi) in boxes.items():
            axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
            u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            sites = u @ basis + np.array(self.origin(c))
            del u
            idx = env.law_index_sites(sites)
            del sites
            self.slabs[c] = (np.array(lo), law_table.T[:, idx])

    def origin(self, k: int) -> Site:
        """Site of cell 0 of layer k."""
        return tuple(s + k * b for s, b in zip(self.start, self.lattice.base))

    def layer(self, k: int, cells: np.ndarray) -> LogMassField:
        return LogMassField(
            k, cells, self.origin(k), self.lattice,
            tuple(s + k * a for s, a in zip(self.start, self.step_lo)),
            tuple(k * (b - a) + 1 for a, b in zip(self.step_lo, self.step_hi)),
        )


def _step_dense(fld: LogMassField, tables: _Tables) -> LogMassField:
    old = fld.cells
    # the layer whose sites carry the coefficients mu_y
    k = fld.n + 1 if tables.adjoint else fld.n
    m, c = divmod(k, tables.lattice.period)
    slab_lo, slabs = tables.slabs[c]
    at = m * tables.kappa - slab_lo
    new = np.full(tuple(s + w for s, w in zip(old.shape, tables.width)),
                  NEG_INF, dtype=np.float64)
    for j, w in enumerate(tables.shifts):
        # cell z of the old layer feeds cell z + w of the new one; forward
        # the coefficient sits at the source, adjoint at the destination
        dst = tuple(slice(a, a + s) for a, s in zip(w, old.shape))
        src = at + w if tables.adjoint else at
        coef = slabs[j][tuple(slice(a, a + s) for a, s in zip(src, old.shape))]
        if j == 0:
            # logaddexp(-inf, v) is exactly v: the first term is a plain sum
            np.add(old, coef, out=new[dst])
        else:
            np.logaddexp(new[dst], old + coef, out=new[dst])
    return tables.layer(fld.n + 1, new)


def iter_layers(
    env: EnvironmentField,
    start: Site,
    n: int,
    adjoint: bool = False,
) -> Iterator[LogMassField]:
    """Yield layers 0..n one at a time (constant memory in the horizon).

    The horizon alone sizes the solve: the slabs cover the lattice sites
    of the layers' boxes.  Raises SolverError, before any step, if they
    would not fit in physical memory.
    """
    if n < 0:
        raise SolverError("negative horizon")
    start = tuple(start)
    fld = LogMassField.delta(start)
    yield fld
    if n == 0:
        return
    tables = _Tables(env, start, n, adjoint)
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
    for l, s, fl, fs in zip(lo, shape, fld.lo, fld.shape):
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
        shape = cur.shape
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
    d = fld.dimension
    sites, values = fld._finite()
    # the csv module's dialect: comma-separated, CRLF line ends, and no
    # field here needs quoting
    row = ",".join(["{}"] * d + ["{!r}"]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(d)] + ["log_mass"])
                 + "\r\n")
        fh.write("".join(map(row.format, *sites.T.tolist(), values.tolist())))


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
        fh.write(struct.pack(f"<{fld.dimension}Q", *fld.shape))
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def _read_header(fh, fmt: str) -> tuple:
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) < struct.calcsize(fmt):
        raise SolverError("truncated layer header")
    return struct.unpack(fmt, raw)


def read_layer_binary(path: str) -> LogMassField:
    """Read a `write_layer_binary` dump; a malformed file is a SolverError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise SolverError(f"not a layer file: bad magic {magic!r}")
        version, d, n = _read_header(fh, "<HHq")
        if version != _BINARY_VERSION:
            raise SolverError(f"unsupported layer format version {version}")
        if not 1 <= d <= 3:
            raise SolverError(f"layer dimension {d} is not 1, 2 or 3")
        lo = _read_header(fh, f"<{d}q")
        shape = _read_header(fh, f"<{d}Q")
        payload = fh.read()
    if len(payload) != 8 * math.prod(shape):
        raise SolverError(f"layer payload of {len(payload)} bytes does not "
                          f"hold a box of shape {shape}")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return LogMassField.from_box(n, lo, data.reshape(shape))
