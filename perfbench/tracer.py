"""Spans and exact counters around branchpoint_lab's public functions.

Nothing inside the package is instrumented: the tracer replaces functions
in the package's module namespaces (and methods on its classes) with timing
wrappers, and restores the originals on `uninstall`.  `from .series import
...` binds a name in every consuming module, so each function is replaced in
every namespace that holds it.  `branchpoint_lab.frequency` is the function,
not the submodule, so modules are fetched with `importlib.import_module`.

A span is (name, layer, start, end, parent span index, op id).  A layer's
self time is the duration of its spans minus the time their child spans
cover; spans of one thread nest, so the covered time is the sum of the
direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (metric name, unit): every per-layer metric the traced run reports
PER_LAYER = (
    ("series.F.calls", "count"),
    ("series.F.points", "count"),
    ("series.F.deriv_points", "count"),
    ("series.F.self_s", "s"),
    ("series.F.us_per_point", "us"),
    ("series.F.ferr_max", "abs"),
    ("series.G.points", "count"),
    ("series.G.self_s", "s"),
    ("series.scalar.calls", "count"),
    ("series.scalar.self_s", "s"),
    ("series.contour.calls", "count"),
    ("series.contour.nodes", "count"),
    ("series.contour.self_s", "s"),
    ("quad.line.calls", "count"),
    ("quad.line.points", "count"),
    ("quad.line.self_s", "s"),
    ("quad.disk.calls", "count"),
    ("quad.disk.points", "count"),
    ("quad.disk.integrand_calls", "count"),
    ("quad.disk.self_s", "s"),
    ("quad.total_s", "s"),
    ("frequency.samples", "count"),
    ("frequency.H_s", "s"),
    ("frequency.D_s", "s"),
    ("frequency.self_s", "s"),
    ("vanishing.log_mass.calls", "count"),
    ("vanishing.log_mass.self_s", "s"),
    ("vanishing.density.points", "count"),
    ("vanishing.density.self_s", "s"),
    ("cantor.build_s", "s"),
    ("cantor.dist.calls", "count"),
    ("cantor.dist.self_s", "s"),
    ("logcomplex.calls", "count"),
    ("logcomplex.self_s", "s"),
    ("cli.eval.rows", "count"),
    ("cli.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

SPAN_FIELDS = ("name", "layer", "start_s", "end_s", "parent", "op")


def _size(x) -> int:
    return int(np.asarray(x).size)


class Tracer:
    """Records spans and counters while installed; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)  # by layer
        self.entered_s: dict[str, float] = defaultdict(float)  # by layer, entries only
        self.total_s: dict[str, float] = defaultdict(float)  # by span name
        self.counts: dict[str, int] = defaultdict(int)
        self.ferr_max = 0.0
        self.op = 0
        self._stack: list[list] = []  # [span index, layer, child time]
        self._patches: list[tuple] = []
        self._pkg = importlib.import_module("branchpoint_lab")
        self._mods = {
            m: importlib.import_module(f"branchpoint_lab.{m}")
            for m in ("cantor", "logcomplex", "series", "_quad", "frequency", "vanishing", "cli")
        }

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[1] != layer:
            self.counts[layer + ".calls"] += 1
        self._stack.append([len(self.spans), layer, 0.0])
        self.spans.append(
            [name, layer, time.perf_counter(), 0.0, parent[0] if parent else -1, self.op]
        )

    def _close(self) -> None:
        idx, layer, child = self._stack.pop()
        rec = self.spans[idx]
        rec[3] = time.perf_counter()
        dur = rec[3] - rec[2]
        self.self_s[layer] += dur - child
        self.total_s[rec[0]] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if not self._stack or self._stack[-1][1] != layer:
            self.entered_s[layer] += dur

    def _traced(self, fn, name, layer, *, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        for ns in (self._pkg, *self._mods.values()):
            for attr, val in list(vars(ns).items()):
                if val is fn:
                    self._patch(ns, attr, new)

    def _wrap_function(self, module: str, attr: str, layer: str, **hooks) -> None:
        fn = getattr(self._mods[module], attr)
        self._patch_everywhere(fn, self._traced(fn, f"{module}.{attr}", layer, **hooks))

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._traced(raw.__func__, f"{cls.__name__}.{attr}", layer))
        else:
            new = self._traced(raw, f"{cls.__name__}.{attr}", layer)
        self._patch(cls, attr, new)

    def _integrand(self, L_fn, quad: str, owner: str):
        """Wrap a quadrature integrand: count its points, span its own work."""
        tracer = self

        def L(zs):
            n = _size(zs)
            tracer.counts[quad + ".points"] += n
            tracer.counts[quad + ".integrand_calls"] += 1
            tracer.counts[owner + ".points"] += n
            tracer._open(owner + ".integrand", owner)
            try:
                return L_fn(zs)
            finally:
                tracer._close()

        return L

    def _wrap_quad(self, module: str, attr: str, quad: str, owner: str) -> None:
        ns = self._mods[module]

        def before(args):
            return (self._integrand(args[0], quad, owner), *args[1:])

        self._patch(ns, attr, self._traced(getattr(ns, attr), f"_quad.{attr}", quad, before=before))

    def install(self) -> None:
        series = self._mods["series"]
        counts = self.counts

        def count_F(args, kwargs, out):
            n = _size(args[2])
            counts["series.F.points"] += n
            if kwargs.get("with_deriv", False):
                counts["series.F.deriv_points"] += n
            if n:
                self.ferr_max = max(self.ferr_max, float(np.max(out[2])))

        def count_G(args, kwargs, out):
            counts["series.G.points"] += _size(args[2])

        self._wrap_function("series", "decay_exponent_many", "series.F", after=count_F)
        for attr in ("log_cosine_product_many", "cosine_product_logderiv_many"):
            self._wrap_function("series", attr, "series.G", after=count_G)
        for attr in ("decay_exponent", "cosine_product", "decay_factor", "branched_product"):
            self._wrap_function("series", attr, "series.scalar")
        self._wrap_function("series", "cauchy_derivatives", "series.contour")

        evaluator = series.function_evaluator

        @functools.wraps(evaluator)
        def counted_evaluator(*args, **kwargs):
            fn = evaluator(*args, **kwargs)

            def node(z):
                counts["series.contour.nodes"] += 1
                return fn(z)

            return node

        self._patch_everywhere(evaluator, counted_evaluator)

        self._wrap_quad("frequency", "log_line_integral", "quad.line", "frequency")
        self._wrap_quad("frequency", "log_disk_integral", "quad.disk", "frequency")
        self._wrap_quad("vanishing", "log_disk_integral", "quad.disk", "vanishing.density")

        def count_sample(args, kwargs, out):
            counts["frequency.samples"] += 1

        self._wrap_function("frequency", "frequency", "frequency", after=count_sample)
        for attr in ("log_boundary_mass", "log_dirichlet_energy"):
            self._wrap_function("frequency", attr, "frequency")
        self._wrap_function("vanishing", "log_mass", "vanishing.log_mass")

        cantor = self._mods["cantor"].CantorSet
        self._wrap_method(cantor, "build", "cantor.build")
        for attr in ("dist_to_set", "dist_to_set_many", "dist_to_boundary_rays",
                     "dist_to_boundary_rays_many"):
            self._wrap_method(cantor, attr, "cantor.dist")

        for attr in ("decay_block", "oscillating_block"):
            self._wrap_function("logcomplex", attr, "logcomplex")
        for attr in ("mul", "to_complex"):
            self._wrap_method(self._mods["logcomplex"].LogComplex, attr, "logcomplex")

        self._wrap_function("cli", "main", "cli")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def metrics(self, traced_run_s: float, overhead_s: float, extra_counts: dict) -> dict:
        c = dict(self.counts)
        c.update(extra_counts)
        s, t, e = self.self_s, self.total_s, self.entered_s
        f_points = c.get("series.F.points", 0)
        values = {
            "series.F.self_s": s["series.F"],
            "series.F.us_per_point": 1e6 * s["series.F"] / f_points if f_points else 0.0,
            "series.F.ferr_max": self.ferr_max,
            "series.G.self_s": s["series.G"],
            "series.scalar.self_s": s["series.scalar"],
            "series.contour.self_s": s["series.contour"],
            "quad.line.self_s": s["quad.line"],
            "quad.disk.self_s": s["quad.disk"],
            "quad.total_s": e["quad.line"] + e["quad.disk"],
            "frequency.H_s": t["frequency.log_boundary_mass"],
            "frequency.D_s": t["frequency.log_dirichlet_energy"],
            "frequency.self_s": s["frequency"],
            "vanishing.log_mass.self_s": s["vanishing.log_mass"],
            "vanishing.density.self_s": s["vanishing.density"],
            "cantor.build_s": s["cantor.build"],
            "cantor.dist.self_s": s["cantor.dist"],
            "logcomplex.self_s": s["logcomplex"],
            "cli.self_s": s["cli"],
            "trace.run_s": traced_run_s,
            "trace.overhead_s": overhead_s,
        }
        return {
            name: {"value": values[name] if name in values else int(c.get(name, 0)), "unit": unit}
            for name, unit in PER_LAYER
        }

    def write(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        spans = [[n, l, a - t0, b - t0, p, o] for n, l, a, b, p, o in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": SPAN_FIELDS, "spans": spans}, fh)
