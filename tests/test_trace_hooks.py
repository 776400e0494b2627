"""Names the benchmark's span tracer (perfbench/spans.py) wraps by string.

The tracer skips a name it cannot find without an error, so renaming or
deleting one of these would silently drop its per-layer metrics.
"""

from brwre import classify, environment, expectation, growth, montecarlo, shape, svgplot

TRACED = [
    (expectation, "iter_layers"),
    (expectation, "expected_total"),
    (expectation, "write_layer_csv"),
    (expectation, "write_layer_binary"),
    (growth, "beta_profile"),
    (growth, "total_growth"),
    (shape, "passage_times"),
    (shape, "shape_polytope"),
    (classify, "transience_criterion"),
    (montecarlo, "step_population"),
    (montecarlo, "sample_multinomial"),
    (montecarlo, "run"),
    (montecarlo, "estimate_return_probability"),
    (environment, "build_environment"),
    (environment, "EnvironmentField.law_index"),
    (environment, "EnvironmentField.law_index_grid"),
    (svgplot, "render_curve"),
    (svgplot, "render_polygons"),
    (svgplot, "render_interval_sets"),
]


def _defined(owner, dotted: str) -> bool:
    # the tracer reads methods from the class __dict__, so inherited ones miss
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return callable(vars(owner).get(attr))


def test_traced_names_exist():
    missing = [f"{mod.__name__}.{name}" for mod, name in TRACED
               if not _defined(mod, name)]
    assert missing == []
