import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from brwre.lattice import (
    RationalVector,
    StepLattice,
    StepSet,
    add,
    l1_norm,
    step_lattice,
    unit_vectors,
)

from _support import nearest_neighbour, sub


def test_l1_helpers():
    assert l1_norm((3, -4)) == 7
    assert add((1, 2), (-3, 5)) == (-2, 7)
    assert sub((1, 2), (-3, 5)) == (4, -3)


def test_unit_vector_ordering():
    assert unit_vectors(1) == [(1,), (-1,)]
    assert unit_vectors(2) == [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert len(unit_vectors(3)) == 6


class TestStepSet:
    def test_nearest_neighbour(self):
        ss = nearest_neighbour(2)
        assert set(ss.offsets) == set(unit_vectors(2))
        assert ss.l0_max == 1
        assert ss.dimension == 2

    def test_l0_max_with_long_steps(self):
        ss = StepSet(((1,), (-1,), (3,), (-2,)))
        assert ss.l0_max == 3

    def test_requires_all_unit_vectors(self):
        with pytest.raises(ValueError):
            StepSet(((1,), (2,)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            StepSet(((1,), (-1,), (1,)))

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError):
            StepSet(((1,), (-1,), (1, 0)))

    def test_sorted_offsets_stable(self):
        ss = StepSet(((2,), (-1,), (1,)))
        assert ss.sorted_offsets() == ((-1,), (1,), (2,))


class TestRationalVector:
    def test_normalization(self):
        assert RationalVector((2, 4), 6) == RationalVector((1, 2), 3)

    def test_from_fractions(self):
        a = RationalVector.from_fractions([Fraction(1, 2), Fraction(-1, 3)])
        assert a.numerators == (3, -2)
        assert a.denominator == 6

    def test_site_at(self):
        a = RationalVector.from_fractions([Fraction(1, 2), Fraction(-1, 2)])
        assert a.site_at(4) == (2, -2)

    def test_site_at_rejects_fractional(self):
        a = RationalVector.from_fractions([Fraction(1, 2)])
        with pytest.raises(ValueError):
            a.site_at(3)

    def test_site_at_componentwise(self):
        # (1/3, 2/3) at k=3 is fine, k=2 is not, even though sums could fool
        # a naive aggregate check
        a = RationalVector.from_fractions([Fraction(1, 3), Fraction(2, 3)])
        assert a.site_at(3) == (1, 2)
        with pytest.raises(ValueError):
            a.site_at(2)


def _lattice_index(steps):
    """[Z^d : L] as the gcd of the maximal minors of the step differences."""
    diffs = np.array([sub(y, steps[0]) for y in steps[1:]], dtype=float)
    g = 0
    for rows in combinations(range(len(diffs)), diffs.shape[1]):
        g = math.gcd(g, round(np.linalg.det(diffs[list(rows)])))
    return g


STEP_SETS = {
    "nn-d1": unit_vectors(1),
    "nn-d2": unit_vectors(2),
    "nn-d3": unit_vectors(3),
    "origin-d2": unit_vectors(2) + [(0, 0)],
    "origin-d3": unit_vectors(3) + [(0, 0, 0)],
    "jump-d2": unit_vectors(2) + [(2, 0)],
    "diag-d2": unit_vectors(2) + [(1, 1), (-1, -1)],
    "diag-d3": unit_vectors(3) + [(1, 1, 0)],
    "knight-d2": unit_vectors(2) + [(2, 1)],
    "parity-d3": unit_vectors(3) + [(1, 1, 1), (2, -1, 0)],
}


class TestStepLattice:
    @pytest.mark.parametrize("name", sorted(STEP_SETS))
    def test_basis_generates_the_step_lattice(self, name):
        steps = STEP_SETS[name]
        d = len(steps[0])
        lat = step_lattice(tuple(steps))
        basis = np.array(lat.basis, dtype=float).T  # columns b_i
        index = _lattice_index(steps)
        assert abs(round(np.linalg.det(basis))) == index
        # each b_i lies in L: adding it as a step keeps the index
        for b in lat.basis:
            assert _lattice_index(steps + [add(steps[0], b)]) == index
        assert (np.array(lat.dual) @ basis == 2 * np.eye(d)).all()
        for y, w in zip(steps, lat.shifts):
            assert tuple(np.array(lat.base) + basis.astype(int) @ w) == y
            assert all(0 <= c <= m for c, m in zip(w, lat.width))
            assert lat.coords(sub(y, steps[0])) == sub(w, lat.shifts[0])
        assert lat.width == tuple(max(c) for c in zip(*lat.shifts))
        assert min(map(min, zip(*lat.shifts))) == 0
        q = lat.period
        assert lat.coords(tuple(q * c for c in lat.base)) is not None
        assert q == 1 or lat.coords(lat.base) is None

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nearest_neighbour_steps_have_unit_width(self, d):
        lat = step_lattice(tuple(unit_vectors(d)))
        assert lat.width == (1,) * d
        assert lat.period == 2
        assert lat.coords((1,) + (0,) * (d - 1)) is None  # odd sites are off L

    @pytest.mark.parametrize("name", ["origin-d2", "origin-d3", "jump-d2"])
    def test_full_lattice_gets_the_identity(self, name):
        steps = STEP_SETS[name]
        d = len(steps[0])
        lat = step_lattice(tuple(steps))
        assert lat.basis == StepLattice.identity(d).basis
        assert lat.base == tuple(min(c) for c in zip(*steps))
        assert lat.width == tuple(max(c) - min(c) for c in zip(*steps))
        assert lat.period == 1

    @pytest.mark.parametrize("name", sorted(STEP_SETS))
    def test_no_nearby_basis_has_a_smaller_box(self, name):
        # every basis B M with M unimodular, entries in {-1, 0, 1}
        steps = STEP_SETS[name]
        d = len(steps[0])
        lat = step_lattice(tuple(steps))
        m = np.array(list(product((-1, 0, 1), repeat=d * d)),
                     dtype=float).reshape(-1, d, d)
        m = m[np.abs(np.abs(np.linalg.det(m)) - 1) < 1e-9]
        inv = np.linalg.inv(np.array(lat.basis, dtype=float).T @ m)
        coords = inv @ np.array(steps, dtype=float).T  # (bases, d, steps)
        boxes = np.rint(coords.max(axis=2) - coords.min(axis=2) + 1).prod(axis=1)
        assert boxes.min() == math.prod(w + 1 for w in lat.width)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            step_lattice(((1, 0), (-1, 0), (0, 1), (1, 1)))
