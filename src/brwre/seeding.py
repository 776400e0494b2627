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
    """splitmix64's finalizer of z + gamma, in place when z is an array."""
    # uint64 arithmetic wraps by design; silence numpy's scalar overflow note
    with np.errstate(over="ignore"):
        z += _GAMMA
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
        return z


def axis_hash(seed: int, axes: Sequence[np.ndarray]) -> np.ndarray:
    """64-bit hash of (seed, TAG_ENVIRONMENT, coords), one axis at a time.

    `axes[i]` holds the i-th coordinate of the cells, as integer arrays
    that broadcast together; the result has their broadcast shape.  The
    coordinates are mixed in in axis order, so the hash state after i
    coordinates depends on the first i axes only: over a box whose axes
    are open-mesh aranges it is an array of the first i axes' extent, and
    no (..., d) mesh is built.
    """
    h = _mix(np.uint64((seed ^ TAG_ENVIRONMENT) & 0xFFFFFFFFFFFFFFFF))
    for a in axes:
        h = _mix(h ^ np.asarray(a, dtype=np.int64).view(np.uint64))
    return h


def hash_uniform(h: np.ndarray) -> np.ndarray:
    """Uniform [0,1) variates from the top 53 bits of hashes `h` (consumed)."""
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= 2.0 ** -53
    return u


def replica_rng(master_seed: int, replica: int, purpose: int = PURPOSE_DYNAMICS) -> np.random.Generator:
    """Independent Generator for one (replica, purpose) pair."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(purpose, replica))
    return np.random.Generator(np.random.PCG64(ss))
