"""What the benchmark's span tracer (perfbench/spans.py) and its runner
(perfbench/run.py) read of the package.

The tracer skips a name it cannot find without an error, so renaming or
deleting one of these would silently drop its per-layer metrics.  Its
hooks then read attributes and argument positions of what the wrapped
calls take and return, and the runner's set-up probe calls two functions;
losing one of those would crash every traced run instead.
"""

import inspect

from brwre import (
    classify,
    cli,
    environment,
    expectation,
    growth,
    montecarlo,
    shape,
    svgplot,
)

from _support import doubling_law, iid_env

TRACED = [
    (expectation, "iter_layers"),
    (expectation, "expected_total"),
    (expectation, "write_layer_csv"),
    (expectation, "write_layer_binary"),
    (growth, "beta_profile"),
    (shape, "passage_times"),
    (shape, "shape_polytope"),
    (classify, "transience_criterion"),
    (montecarlo, "estimate_return_probability"),
    (environment, "build_environment"),
    (environment, "EnvironmentField.law_index"),
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


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_hooks_read_what_the_calls_return():
    env = iid_env([doubling_law()], [1.0], 3)
    fld = list(expectation.iter_layers(env, (0,), 2))[-1]
    assert fld.values.size >= 1
    assert (fld.lo, fld.hi, fld.n) == ((-2,), (2,), 2)
    assert fld.support_size() >= 1

    ptm = shape.passage_times(env, 0.1, 3)
    assert ptm.origin == (0,) and ptm.radius == 3
    assert max(ptm.times.values()) >= 1
    assert len(shape.shape_polytope(ptm, 2).hull) >= 1


def test_hooks_read_arguments_by_position():
    assert _params(expectation.write_layer_csv)[1] == "path"
    assert _params(expectation.write_layer_binary)[1] == "path"


def test_runner_setup_probe_functions_exist():
    assert callable(cli.load_config)
    assert callable(environment.build_environment)
