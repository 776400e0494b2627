"""Counter-based randomness for environments and Monte Carlo streams.

The environment field needs a pure function (master_seed, cell) -> uniform
that is identical whether evaluated one site at a time or over a whole grid,
so the hash below is written once in numpy uint64 ops and the scalar path
reuses it.  Dynamics draws use numpy Generators derived per (replica,
purpose) through SeedSequence spawn keys; the environment hash and the
dynamics streams never share state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# Mixed into the seed of every cell hash; part of the environment's
# definition, so changing it would change every realized law.
TAG_ENVIRONMENT = 0x45E31B6D02F411D7

# Purpose codes for dynamics streams (SeedSequence spawn keys).
PURPOSE_DYNAMICS = 1
PURPOSE_RETURN_PROBE = 3


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps by design; silence numpy's scalar overflow note
    with np.errstate(over="ignore"):
        z = (z + _GAMMA) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _M1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _M2) & _MASK
        return z ^ (z >> np.uint64(31))


def cell_hash(seed: int, coords: Sequence[int] | np.ndarray) -> np.ndarray:
    """64-bit hash of (seed, TAG_ENVIRONMENT, coords), vectorized over leading axes.

    `coords` is either one site (1-D, length d) or an array (..., d); the
    result drops the last axis.  Scalar and vectorized evaluation agree
    bitwise because both run through this function.
    """
    arr = np.asarray(coords, dtype=np.int64).view(np.uint64)
    h = _mix(np.uint64((seed ^ TAG_ENVIRONMENT) & 0xFFFFFFFFFFFFFFFF))
    h = np.broadcast_to(h, arr.shape[:-1]).copy()
    for i in range(arr.shape[-1]):
        h = _mix(h ^ arr[..., i])
    return h


def cell_uniform(seed: int, coords: Sequence[int] | np.ndarray) -> np.ndarray:
    """Uniform [0,1) variate(s) attached to lattice cell(s)."""
    h = cell_hash(seed, coords)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def replica_rng(master_seed: int, replica: int, purpose: int = PURPOSE_DYNAMICS) -> np.random.Generator:
    """Independent Generator for one (replica, purpose) pair."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(purpose, replica))
    return np.random.Generator(np.random.PCG64(ss))
