"""Lattice primitives: sites, step sets, rational directions, l1 geometry.

Sites are plain tuples of ints so they hash and compare naturally; all
modules agree on that representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

Site = tuple[int, ...]


def l1_norm(x: Sequence[int]) -> int:
    return sum(abs(c) for c in x)


def add(x: Site, y: Site) -> Site:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Site, y: Site) -> Site:
    return tuple(a - b for a, b in zip(x, y))


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


def l1_ball(dimension: int, radius: int) -> Iterator[Site]:
    """All lattice sites x with ||x||_1 <= radius."""
    if radius < 0:
        return
    for x in product(range(-radius, radius + 1), repeat=dimension):
        if l1_norm(x) <= radius:
            yield x


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

    @classmethod
    def nearest_neighbour(cls, dimension: int) -> "StepSet":
        return cls(tuple(unit_vectors(dimension)))


@dataclass(frozen=True)
class RationalVector:
    """Rational point of R^d as integer numerators over one positive denominator.

    Normalized so gcd(*numerators, denominator) == 1.  Directions for norm and
    growth-exponent estimates are stored this way so that the integer scales
    k0 below are exact.
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

    def l1(self) -> Fraction:
        return Fraction(sum(abs(n) for n in self.numerators), self.denominator)

    def is_zero(self) -> bool:
        return all(n == 0 for n in self.numerators)

    def integer_scale(self) -> int:
        """Smallest positive integer k with k*a integral (lcm of denominators)."""
        return self.denominator

    def even_scale(self) -> int:
        """Smallest positive even integer k with k*a in (2Z)^d.

        Growth-exponent sampling times are multiples of this so that targets
        sit on the even sublattice the walk reaches at even times.
        """
        k = 1
        for n in self.numerators:
            need = 2 * self.denominator // math.gcd(n, 2 * self.denominator)
            k = math.lcm(k, need)
        if k % 2 == 1:
            k *= 2
        return k

    def site_at(self, k: int) -> Site:
        """k*a as a lattice site; k*a must be integral in every coordinate."""
        if any((k * n) % self.denominator for n in self.numerators):
            raise ValueError(f"{k}*{self.numerators}/{self.denominator} is not a lattice site")
        return tuple(k * n // self.denominator for n in self.numerators)
