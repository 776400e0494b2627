"""Lattice primitives: sites, step sets, rational directions, l1 geometry.

Sites are plain tuples of ints so they hash and compare naturally; all
modules agree on that representation.  `step_lattice` gives the
coordinates of the sublattice a walk with a given step set can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

Site = tuple[int, ...]


def l1_norm(x: Sequence[int]) -> int:
    return sum(abs(c) for c in x)


def add(x: Site, y: Site) -> Site:
    return tuple(a + b for a, b in zip(x, y))


def unit_vectors(dimension: int) -> list[Site]:
    """The 2d signed unit vectors, ordered +e1, -e1, +e2, -e2, ...

    This ordering is part of the induced-walk contract (forced-symbol j in
    1..2d maps to the j-th entry here).
    """
    out: list[Site] = []
    for i in range(dimension):
        plus = tuple(1 if j == i else 0 for j in range(dimension))
        minus = tuple(-1 if j == i else 0 for j in range(dimension))
        out.append(plus)
        out.append(minus)
    return out


@dataclass(frozen=True)
class StepSet:
    """Finite set of admissible displacements, closed over the model's needs.

    Must contain every signed unit vector (uniform ellipticity talks about
    them); may contain the origin and longer jumps.  `l0_max` is the largest
    l1 norm over the set and bounds one-step spread everywhere downstream.
    """

    offsets: tuple[Site, ...]

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("step set is empty")
        dims = {len(y) for y in self.offsets}
        if len(dims) != 1:
            raise ValueError("step set mixes dimensions")
        d = dims.pop()
        if d not in (1, 2, 3):
            raise ValueError(f"dimension {d} not supported (need 1, 2 or 3)")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("step set has duplicate offsets")
        missing = [e for e in unit_vectors(d) if e not in self.offsets]
        if missing:
            raise ValueError(f"step set lacks unit vectors: {missing}")

    @property
    def dimension(self) -> int:
        return len(self.offsets[0])

    @property
    def l0_max(self) -> int:
        return max(l1_norm(y) for y in self.offsets)

    def sorted_offsets(self) -> tuple[Site, ...]:
        """Offsets in the fixed lexicographic order used by every summation."""
        return tuple(sorted(self.offsets))


@dataclass(frozen=True)
class StepLattice:
    """Coordinates adapted to the lattice a walk with given steps lives on.

    After k steps from `start` the walk stands on start + k*base + L, where
    L is the lattice spanned by the differences of the steps.  `basis`
    holds the columns of a basis B of L; the site start + k*base + B z has
    lattice coordinates z, and a step y moves z by its shift
    B^-1 (y - base), a vector in the per-step box [0, width].  The k-step
    positions therefore fill the box [0, k*width] of z.

    `dual` holds the rows of the integer matrix 2 B^-1 (every step set
    holds the unit vectors +-e_i, so L contains 2 Z^d).  `period` is the
    smallest q >= 1 with q*base in L: layers k and k + q lie on the same
    coset of L, shifted by (q*base) / B.
    """

    basis: tuple[Site, ...]
    dual: tuple[Site, ...]
    base: Site
    shifts: tuple[Site, ...]
    period: int

    @classmethod
    @lru_cache(maxsize=3)
    def identity(cls, dimension: int) -> "StepLattice":
        """The frame of Z^d itself: B = I, no steps."""
        eye = tuple(tuple(int(i == j) for j in range(dimension))
                    for i in range(dimension))
        return cls(eye, tuple(tuple(2 * c for c in r) for r in eye),
                   (0,) * dimension, (), 1)

    @property
    def width(self) -> Site:
        """Per-axis extent of the shifts: one step grows a layer by this."""
        return tuple(max(col) for col in zip(*self.shifts))

    def coords(self, x: Sequence[int]) -> Site | None:
        """B^-1 x, or None when the displacement x is not in the lattice."""
        twice = [sum(a * c for a, c in zip(row, x)) for row in self.dual]
        if any(t % 2 for t in twice):
            return None
        return tuple(t // 2 for t in twice)


@lru_cache(maxsize=32)
def step_lattice(steps: tuple[Site, ...]) -> StepLattice:
    """The lattice frame of a step set, with the smallest per-step box.

    `steps` must hold every signed unit vector.  Among the bases of L the
    one chosen minimizes the number of cells of the per-step box,
    prod(width + 1); ties go to the dual vectors of smallest l1 norm, so
    when L = Z^d with the steps' bounding box as the best box the basis is
    the identity.  Shifts are listed in the order of `steps`.

    A basis of L corresponds to a basis t_1..t_d / 2 of the dual lattice
    (the functionals that are integral on L); the width of axis i is
    (max - min) of t_i . y / 2 over the steps.  Because +-e_i are steps,
    that width is at least |t_i| in every coordinate, so a search over
    t in [-W, W]^d sees every axis of width up to W.  The search widens W
    until it covers the largest width a basis with a smaller box could
    have.
    """
    d = len(steps[0])
    if any(e not in steps for e in unit_vectors(d)):
        raise ValueError("a step lattice needs every signed unit vector")
    y = np.array(steps, dtype=np.int64)
    gens = y[1:] - y[0]
    # classes of the dual lattice modulo Z^d: as many as [Z^d : L]
    parity = np.array(list(product((0, 1), repeat=d)), dtype=np.int64)
    index = int(((parity @ gens.T) % 2 == 0).all(axis=1).sum())
    target = 2**d // index  # |det| of the rows t of a dual basis
    bound = 1
    while True:
        rows, widths = _dual_candidates(y, gens, bound)
        pick = _smallest_box_basis(rows, widths, target, d)
        if pick is not None:
            cells = math.prod(widths[i] + 1 for i in pick)
            need = cells // 2 ** (d - 1) - 1
            if need <= bound:
                break
            bound = need
        else:
            bound *= 2
    dual = np.array(sorted((rows[i] for i in pick), reverse=True),
                    dtype=np.int64)
    basis = np.rint(2 * np.linalg.inv(dual)).astype(np.int64)
    proj = y @ dual.T
    shifts = (proj - proj.min(axis=0)) // 2
    base = y[0] - basis @ shifts[0]
    period = 1 if ((dual @ base) % 2 == 0).all() else 2
    return StepLattice(
        basis=tuple(map(tuple, basis.T.tolist())),
        dual=tuple(map(tuple, dual.tolist())),
        base=tuple(base.tolist()),
        shifts=tuple(map(tuple, shifts.tolist())),
        period=period,
    )


def _dual_candidates(y: np.ndarray, gens: np.ndarray,
                     bound: int) -> tuple[list[Site], list[int]]:
    """Dual vectors t/2 with per-step width <= bound, one of each +-t.

    Sorted by width, then l1 norm, then t in decreasing order.
    """
    d = y.shape[1]
    r = np.arange(-bound, bound + 1)
    t = np.stack(np.meshgrid(*[r] * d, indexing="ij"), axis=-1).reshape(-1, d)
    lead = t[np.arange(len(t)), (t != 0).argmax(axis=1)]
    t = t[lead > 0]
    t = t[((t @ gens.T) % 2 == 0).all(axis=1)]
    proj = t @ y.T
    widths = (proj.max(axis=1) - proj.min(axis=1)) // 2
    keep = widths <= bound
    ranked = sorted(zip(widths[keep].tolist(), map(tuple, t[keep].tolist())),
                    key=lambda wt: (wt[0], sum(map(abs, wt[1])),
                                    tuple(-c for c in wt[1])))
    return [v for _, v in ranked], [w for w, _ in ranked]


def _smallest_box_basis(rows: list[Site], widths: list[int], target: int,
                        d: int) -> list[int] | None:
    """Indices of d rows with |det| = target and the least prod(width + 1).

    `widths` is ascending, so a branch stops once even repeating its
    narrowest remaining row cannot beat the best box found; among equal
    boxes the first in row order wins.
    """
    best: list = [None, math.inf]

    def extend(chosen: list[int], first: int, cells: int) -> None:
        if len(chosen) == d:
            det = round(np.linalg.det(np.array([rows[i] for i in chosen],
                                               dtype=np.float64)))
            if abs(det) == target and cells < best[1]:
                best[:] = [list(chosen), cells]
            return
        for i in range(first, len(rows)):
            if cells * (widths[i] + 1) ** (d - len(chosen)) >= best[1]:
                break
            extend(chosen + [i], i + 1, cells * (widths[i] + 1))

    extend([], 0, 1)
    return best[0]


@dataclass(frozen=True)
class RationalVector:
    """Rational point of R^d as integer numerators over one positive denominator.

    Normalized so gcd(*numerators, denominator) == 1: the denominator is then
    the smallest positive integer k with k*a integral.  Directions for norm
    and growth-exponent estimates are stored this way so that their integer
    scales are exact.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.denominator, *(abs(n) for n in self.numerators)) or 1
        if g != 1:
            object.__setattr__(
                self, "numerators", tuple(n // g for n in self.numerators)
            )
            object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def from_fractions(cls, coords: Iterable[Fraction | int]) -> "RationalVector":
        fracs = [Fraction(c) for c in coords]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return cls(tuple(int(f * den) for f in fracs), den)

    @property
    def dimension(self) -> int:
        return len(self.numerators)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(n / self.denominator for n in self.numerators)

    def is_zero(self) -> bool:
        return all(n == 0 for n in self.numerators)

    def site_at(self, k: int) -> Site:
        """k*a as a lattice site; k*a must be integral in every coordinate."""
        if any((k * n) % self.denominator for n in self.numerators):
            raise ValueError(f"{k}*{self.numerators}/{self.denominator} is not a lattice site")
        return tuple(k * n // self.denominator for n in self.numerators)
