"""Branching random walks in random environment on the integer lattice.

Quenched expected particle counts, reachable-set shapes, growth exponent
profiles, a recurrence/transience classifier, and exact-count Monte Carlo,
over reproducible hash-based random environments.

The Python API is the submodules: `environment`, `expectation`, `shape`,
`growth`, `classify`, `montecarlo`, `lattice`, `seeding`, `svgplot` and
the `cli` front end.

Importing the package before numpy sets `OPENBLAS_NUM_THREADS` to 1 unless
the caller set it: OpenBLAS sizes its thread pool when numpy is imported,
starting that pool costs every fresh interpreter about 0.13 s of CPU on 2
cores, and the package's matrix products are too small to gain much from
a second thread (a d = 3 `beta` ran 4% faster in wall time on 86% more
CPU).  Export the variable to choose another count.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
del os, sys  # the package exports only __version__

__version__ = "0.1.0"
