"""Span tracing of the brwre layers, installed from outside the package.

The tracer replaces public functions of the package modules with wrappers
that record a span (name, start, end, parent) per call.  Every module of
the package that binds the same function object is patched, so the names
`brwre.cli` imported at load time (`iter_layers`, `passage_times`, ...) are
traced as well as the module attributes that `growth` and `montecarlo`
look up at call time.  `uninstall` restores every binding.

Functions called hundreds of thousands of times per command (the per-site
law lookup and the multinomial draw) are recorded as one aggregate per
(parent span, name): a call count and the summed duration.  Recording each
call would make the trace larger than the work it describes.

Bookkeeping the span wrappers do beyond reading the clock (counting
cells, file sizes) runs inside a `trace.bookkeeping` span, so a span's self
time (its duration minus the time covered by its children) excludes it.
The per-call bookkeeping of the aggregated functions (a dict update, and
for the law lookup a set insert per call) cannot be split off that way and
is charged to the self time of the calling span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import prod

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        # (id, parent, round, name, start, end)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        # (parent, round, name) -> [calls, total_s]
        self.aggregates: dict[tuple[int | None, int, str], list] = \
            defaultdict(lambda: [0, 0.0])
        # (round, name) -> count; work counters measured at the boundaries
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.round = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        # field -> sites queried this round; holding the field keeps its
        # identity unique for the whole round
        self._law_sites: dict[object, set] = {}
        # ids of the expectation.step spans that produced a layer n >= 1
        self.layer_spans: set[int] = set()

    # -- recording --------------------------------------------------------

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._parent()
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.round, name, start, end))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.round, name)] += value

    def new_round(self, index: int) -> None:
        self.round = index

    def end_round(self) -> None:
        """Fold the round's per-field distinct-site sets into a count."""
        self.count("environment.law_index.distinct",
                   sum(len(s) for s in self._law_sites.values()))
        self._law_sites = {}

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brwre"
                                   or mod_name.startswith("brwre.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        self._patched.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def wrap_function(self, module, attr: str, name: str,
                      after=None) -> None:
        """Trace every binding of `module.attr`; `after(result, args,
        kwargs)` records counters inside a bookkeeping span."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
                if after is not None:
                    with tracer.span(BOOKKEEPING):
                        after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = orig
        self._patch_everywhere(orig, wrapper)

    def wrap_aggregate(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            agg = tracer.aggregates[(tracer._parent(), tracer.round, name)]
            agg[0] += 1
            agg[1] += clock() - t0
            return result

        wrapper.__wrapped__ = orig
        self._patch_everywhere(orig, wrapper)

    def _count_layer(self, fld) -> None:
        values = fld.values
        if hasattr(values, "size"):
            box = int(values.size)
        else:
            lo, hi = fld.lo, fld.hi
            box = prod(h - l + 1 for l, h in zip(lo, hi)) if values else 0
        self.count("expectation.box_cells", box)
        self.count("expectation.support_cells", fld.support_size())

    def install(self) -> None:
        from brwre import (classify, environment, expectation, growth,
                           montecarlo, shape, svgplot)

        self._install_environment(environment)
        self._install_expectation(expectation)
        self.wrap_function(growth, "beta_profile", "growth.beta_profile")
        self.wrap_function(growth, "total_growth", "growth.total_growth")
        self._install_shape(shape)
        self.wrap_function(classify, "transience_criterion",
                           "classify.transience_criterion")
        self._install_montecarlo(montecarlo)
        for attr in ("render_curve", "render_polygons",
                     "render_interval_sets"):
            self.wrap_function(svgplot, attr, "svgplot." + attr)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- per-layer hooks ----------------------------------------------------

    def _install_environment(self, environment) -> None:
        tracer = self
        field_cls = environment.EnvironmentField
        self.wrap_function(environment, "build_environment",
                           "environment.build_environment")

        orig_index = field_cls.__dict__.get("law_index")
        if orig_index is not None:
            clock = time.perf_counter

            def law_index(env, x):
                t0 = clock()
                result = orig_index(env, x)
                dt = clock() - t0
                agg = tracer.aggregates[
                    (tracer._parent(), tracer.round, "environment.law_index")]
                agg[0] += 1
                agg[1] += dt
                tracer._law_sites.setdefault(env, set()).add(tuple(x))
                return result

            self._patch_method(field_cls, "law_index", law_index)

        orig_grid = field_cls.__dict__.get("law_index_grid")
        if orig_grid is not None:
            def law_index_grid(env, lo, hi):
                with tracer.span("environment.law_index_grid"):
                    result = orig_grid(env, lo, hi)
                    with tracer.span(BOOKKEEPING):
                        tracer.count("environment.law_index_grid.cells",
                                     int(result.size))
                return result

            self._patch_method(field_cls, "law_index_grid", law_index_grid)

    def _install_expectation(self, expectation) -> None:
        tracer = self
        orig = getattr(expectation, "iter_layers", None)
        if orig is not None:
            def iter_layers(*args, **kwargs):
                # one span per next(): layer 0, then one DP step per layer
                it = orig(*args, **kwargs)
                while True:
                    with tracer.span("expectation.step") as sid:
                        try:
                            fld = next(it)
                        except StopIteration:
                            return
                        with tracer.span(BOOKKEEPING):
                            if fld.n >= 1:
                                tracer.layer_spans.add(sid)
                                tracer._count_layer(fld)
                    yield fld

            iter_layers.__wrapped__ = orig
            self._patch_everywhere(orig, iter_layers)
        self.wrap_function(expectation, "expected_total",
                           "expectation.expected_total")

        def after_write(result, args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            tracer.count("expectation.write_layer.bytes",
                         os.path.getsize(path))

        self.wrap_function(expectation, "write_layer_csv",
                           "expectation.write_layer", after_write)
        self.wrap_function(expectation, "write_layer_binary",
                           "expectation.write_layer", after_write)

    def _install_shape(self, shape) -> None:
        tracer = self

        def after_passage(ptm, args, kwargs):
            d = len(ptm.origin)
            tracer.count("shape.passage_times.box_cells",
                         (2 * ptm.radius + 1) ** d)
            tracer.count("shape.passage_times.reached", len(ptm.times))
            tracer.count("shape.passage_times.bfs_layers",
                         max(ptm.times.values(), default=0))

        def after_polytope(est, args, kwargs):
            tracer.count("shape.hull_vertices", len(est.hull))

        self.wrap_function(shape, "passage_times", "shape.passage_times",
                           after_passage)
        self.wrap_function(shape, "shape_polytope", "shape.shape_polytope",
                           after_polytope)

    def _install_montecarlo(self, montecarlo) -> None:
        tracer = self

        def after_step(state, args, kwargs):
            before = args[1] if len(args) > 1 else kwargs["state"]
            tracer.count("montecarlo.occupied_sites", len(before.counts))

        self.wrap_function(montecarlo, "step_population",
                           "montecarlo.step_population", after_step)
        self.wrap_aggregate(montecarlo, "sample_multinomial",
                            "montecarlo.sample_multinomial")
        self.wrap_function(montecarlo, "run", "montecarlo.run")
        self.wrap_function(montecarlo, "estimate_return_probability",
                           "montecarlo.estimate_return_probability")

    # -- derived per-layer numbers -----------------------------------------

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Calls, total time and self time per span name for one round,
        plus the work counters and DP layers under each growth entry."""
        spans = [s for s in self.spans if s[2] == rnd]
        aggs = [(parent, name, calls, total)
                for (parent, r, name), (calls, total) in self.aggregates.items()
                if r == rnd]
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, name, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        for parent, name, calls, total in aggs:
            if parent is not None:
                covered[parent] += total
        out: dict[str, float] = defaultdict(float)
        for sid, parent, _, name, start, end in spans:
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - covered[sid]
        for parent, name, calls, total in aggs:
            out[name + ".calls"] += calls
            out[name + ".s"] += total
            out[name + ".self_s"] += total
        for (r, name), value in self.counters.items():
            if r == rnd:
                out[name] += value

        names = {s[0]: (s[1], s[3]) for s in spans}

        def under(sid: int, ancestor: str) -> bool:
            while sid is not None:
                sid, name = names[sid]
                if name == ancestor:
                    return True
            return False

        layers = [sid for sid in self.layer_spans if sid in names]
        out["expectation.layers"] = len(layers)
        for entry in ("growth.beta_profile", "growth.total_growth"):
            out[entry + ".layers"] = sum(1 for sid in layers
                                         if under(sid, entry))
        return out

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rnd, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "round": rnd, "name": name,
                    "start": start, "end": end}) + "\n")
            for (parent, rnd, name), (calls, total) in \
                    sorted(self.aggregates.items(), key=str):
                fh.write(json.dumps({
                    "parent": parent, "round": rnd, "name": name,
                    "calls": calls, "total_s": total}) + "\n")
