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
the environment and the start.  The law index of every site the layers
read is tabulated once per solve, one slab per coset of L in the smallest
unsigned dtype that holds the law count; a layer reads it through shifted
slices and takes each offset's log mean offspring from the per-law
column, the same float64 values a per-offset float slab would hold.

A layer's public frame is the dense box of its sites (`LogMassField.lo`,
`shape`).  A cell's flat position in the box is affine in its lattice
coordinates, and every reader takes the finite cells through one
permutation, their indices sorted by that position, which is the box's
row-major order; the writers write the CSV rows and the binary box in
fixed-size chunks, and only `values` and the Anderson check build the
dense box.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .environment import (
    EnvironmentField,
    _box_axes,
    _logsumexp,
    check_box_memory,
)
from .lattice import Site, StepLattice, step_lattice

NEG_INF = float("-inf")

_BINARY_MAGIC = b"BRWL"
_BINARY_VERSION = 1

# Rows or box cells a writer writes at a time: its transient memory beyond
# the permutation of the layer's finite cells.
_CHUNK = 1 << 11


class SolverError(ValueError):
    pass


@dataclass(eq=False)
class LogMassField:
    """One DP layer: log of the expected particle count per site.

    `cells[z]` is the log-mass at site `origin + B z`, with B the basis of
    `lattice`.  Publicly the layer lives in the inclusive box
    [lo, lo + shape): sites outside the box, and box entries without
    mass, are log(0) = -inf, and cells whose sites fall outside the box
    are always -inf.  `values` is that box as a float array, built on
    each access and not kept; `items`, `expected_total` and the writers
    take the finite cells in its row-major order instead (`_order`), so
    they hold memory in proportion to the cells, not the box.
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
        The finite cells are taken in `_order` and written at their box
        positions.
        """
        box = np.full(math.prod(self.shape), NEG_INF)
        idx = self._order()
        box[self._box_positions(idx)] = self.cells.take(idx)
        return box.reshape(self.shape)

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
        idx = self._order()
        return np.stack(self._sites(idx), axis=1), self.cells.take(idx)

    def _affine(self, z: Iterable[np.ndarray]) -> np.ndarray:
        """Flat box positions of the cells with lattice coordinates `z`,
        one integer array per axis: first + sum_i step_i z_i."""
        strides = [math.prod(self.shape[i + 1:]) for i in range(len(self.shape))]
        pos = np.int64(sum((o - l) * s for o, l, s
                           in zip(self.origin, self.lo, strides)))
        for col, zi in zip(self.lattice.basis, z):
            pos = pos + sum(b * s for b, s in zip(col, strides)) * zi
        return pos

    def _order(self) -> np.ndarray:
        """Flat indices into `cells` of the finite cells, in row-major box
        order.

        Finite cells lie in the box at distinct sites, so their box
        positions are distinct, and ascending position is row-major site
        order.  The positions come in long ascending runs, which the
        stable sort takes in about half the time of the default one.
        """
        cells = self.cells
        pos = self._affine(_box_axes([0] * cells.ndim,
                                     [s - 1 for s in cells.shape])).ravel()
        finite = np.isfinite(cells).ravel()
        if finite.all():
            return pos.argsort(kind="stable")
        idx = np.flatnonzero(finite)
        # only the finite cells' positions are held through the sort
        pos = pos.take(idx)
        return idx.take(pos.argsort(kind="stable"))

    def _box_positions(self, idx: np.ndarray) -> np.ndarray:
        """Flat box positions of the cells at flat indices `idx`."""
        shape = self.cells.shape
        # one lattice axis at a time: a (d, m) unravel raises the binary
        # writer's peak by a fifth
        return self._affine(idx // math.prod(shape[i + 1:]) % n
                            for i, n in enumerate(shape))

    def _sites(self, idx: np.ndarray) -> list[np.ndarray]:
        """The sites of the cells at flat indices `idx`, one array per axis."""
        return [x + l for x, l in zip(
            np.unravel_index(self._box_positions(idx), self.shape), self.lo)]

    def support_size(self) -> int:
        return int(np.isfinite(self.cells).sum())


def expected_total(fld: LogMassField) -> float:
    """log sum_x exp(values): the log expected total population in the layer.

    The finite values are taken in `_order`, the dense box's row-major
    order, without the box, and summed in that order by
    `environment._logsumexp`.
    """
    flat = fld.cells.take(fld._order())
    return float(_logsumexp(flat)[0]) if flat.size else NEG_INF


class _Tables:
    """Lattice frame and log mean-offspring slabs of one solve.

    Layer k has cells [0, k*width] at sites start + k*base + B z.  Layer
    k = c + q*m (q the lattice period) lies on coset c, and its cell z is
    cell z + m*kappa - lo of `slabs[c] = (lo, slab)`, where q*base =
    B kappa.  The slab of coset c holds the law index of the sites of
    every layer of that coset that carries coefficients: the sources
    (layers 0..n-1) forward, the destinations (layers 1..n) adjoint.
    `log_mu[j]` holds log mu_y of offset j per law.
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
        laws = env.spec.law_support
        with np.errstate(divide="ignore"):
            # log mu_y per offset (rows) and law (columns)
            self.log_mu = np.log(np.array(
                [[law.mean_offspring.get(y, 0.0) for law in laws]
                 for y in offsets], dtype=np.float64))
        self.slabs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for c, (lo, hi) in boxes.items():
            # the slab's sites origin(c) + B u, one broadcast expression per
            # coordinate over the open mesh of u
            u = _box_axes(lo, hi)
            axes = [o + sum(col[j] * ui for col, ui in zip(lat.basis, u)
                            if col[j])
                    for j, o in enumerate(self.origin(c))]
            # law indices come in the smallest unsigned dtype that holds
            # the law count
            self.slabs[c] = (np.array(lo), env.law_index_axes(axes))

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
    slab_lo, slab = tables.slabs[c]
    at = m * tables.kappa - slab_lo
    new = np.full(tuple(s + w for s, w in zip(old.shape, tables.width)),
                  NEG_INF, dtype=np.float64)
    for j, w in enumerate(tables.shifts):
        # cell z of the old layer feeds cell z + w of the new one; forward
        # the coefficient sits at the source, adjoint at the destination
        dst = tuple(slice(a, a + s) for a, s in zip(w, old.shape))
        src = at + w if tables.adjoint else at
        laws = slab[tuple(slice(a, a + s) for a, s in zip(src, old.shape))]
        coef = tables.log_mu[j].take(laws)
        coef += old
        if j == 0:
            # logaddexp(-inf, v) is exactly v: the first term is a plain sum
            new[dst] = coef
        else:
            np.logaddexp(new[dst], coef, out=new[dst])
    return tables.layer(fld.n + 1, new)


def iter_layers(
    env: EnvironmentField,
    start: Site,
    n: int,
    adjoint: bool = False,
) -> Iterator[LogMassField]:
    """Yield layers 0..n one at a time (constant memory in the horizon).

    Forward (default): layer k at site x is log E_w eta_k^start(x).
    Adjoint: layer k at site x is log E_w eta_k^x(start), the fixed-target
    object evolved by the Anderson-equation dynamics.

    The arguments are checked when the function is called: SolverError on
    a negative horizon or a start of the wrong dimension.  The horizon
    alone sizes the solve: the slabs cover the lattice sites of the
    layers' boxes.  Raises SolverError, before any step, if they would not
    fit in the memory budget of `check_box_memory`.
    """
    if n < 0:
        raise SolverError("negative horizon")
    start = tuple(start)
    if len(start) != env.spec.dimension:
        raise SolverError(f"start {start} has dimension {len(start)}, the "
                          f"environment dimension {env.spec.dimension}")
    return _layers(env, start, n, adjoint)


def _layers(env: EnvironmentField, start: Site, n: int,
            adjoint: bool) -> Iterator[LogMassField]:
    fld = LogMassField.delta(start)
    yield fld
    if n == 0:
        return
    tables = _Tables(env, start, n, adjoint)
    for _ in range(n):
        fld = _step_dense(fld, tables)
        yield fld


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
        idx = env.law_index_axes(_box_axes(cur.lo, cur.hi))
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
    """CSV dump: one row per finite-mass site, coordinates then log mass.

    Rows are formatted and written `_CHUNK` at a time, in row-major site
    order.
    """
    d = fld.dimension
    idx = fld._order()
    # the csv module's dialect: comma-separated, CRLF line ends, and no
    # field here needs quoting
    row = ",".join(["{}"] * d + ["{!r}"]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(d)] + ["log_mass"])
                 + "\r\n")
        for i in range(0, idx.size, _CHUNK):
            part = idx[i:i + _CHUNK]
            sites = [x.tolist() for x in fld._sites(part)]
            fh.write("".join(map(row.format, *sites,
                                 fld.cells.take(part).tolist())))


def read_layer_csv(path: str) -> dict[Site, float]:
    """Read a `write_layer_csv` dump; a malformed file is a SolverError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not 2 <= len(rows[0]) <= 4:
        raise SolverError("layer CSV needs a header of 1 to 3 coordinates "
                          "and the log mass")
    d = len(rows[0]) - 1
    if any(len(row) != d + 1 for row in rows[1:]):
        raise SolverError(f"layer CSV row without {d + 1} fields")
    try:
        return {tuple(int(c) for c in row[:d]): float(row[d])
                for row in rows[1:]}
    except ValueError as exc:
        raise SolverError(f"malformed layer CSV row: {exc}") from None


def write_layer_binary(fld: LogMassField, path: str) -> None:
    """Compact binary layer dump.

    Header: magic "BRWL", u16 version, u16 dimension, i64 n, d x i64 lower
    box corner, d x u64 box shape; then the layer as little-endian float64
    in row-major order (missing sites hold -inf), written `_CHUNK` box
    cells at a time.
    """
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<HHq", _BINARY_VERSION, fld.dimension, fld.n))
        fh.write(struct.pack(f"<{fld.dimension}q", *fld.lo))
        fh.write(struct.pack(f"<{fld.dimension}Q", *fld.shape))
        idx = fld._order()
        pos = fld._box_positions(idx)
        size = math.prod(fld.shape)
        buf = np.empty(min(size, _CHUNK), dtype="<f8")
        a = 0
        for start in range(0, size, _CHUNK):
            # the finite cells of this chunk are pos[a:b]
            part = buf[:min(_CHUNK, size - start)]
            part.fill(NEG_INF)
            b = a + int(np.searchsorted(pos[a:], start + _CHUNK))
            part[pos[a:b] - start] = fld.cells.take(idx[a:b])
            fh.write(part)
            a = b


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
