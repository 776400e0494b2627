"""Branching random walks in random environment on the integer lattice.

Quenched expected particle counts, reachable-set shapes, growth exponent
profiles, a recurrence/transience classifier, and exact-count Monte Carlo,
over reproducible hash-based random environments.

The Python API is the submodules: `environment`, `expectation`, `shape`,
`growth`, `classify`, `montecarlo`, `lattice`, `seeding`, `svgplot` and
the `cli` front end.
"""

__version__ = "0.1.0"
