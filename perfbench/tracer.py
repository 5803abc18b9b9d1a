"""Spans around calls into the public functions of each `ahilb` module.

The tracer patches names from outside the program; `src/` is never edited.
Each wrapper is installed on the name its caller looks up: a function
imported by name into `ahilb.pipeline` or `ahilb.cli` is patched there,
one called through its module or class is patched on that module or class.

A span records name, start, end, parent span and run id.  Spans stay in
memory until `dump` writes them.  The hot kernels (`HOT`, called up to
~10^6 times per run) are aggregated per name, without a span per call; their
time still counts as child time of the enclosing span, so self times add up.
"""

from __future__ import annotations

import json
from time import perf_counter

HOT = frozenset(
    {"charts.degree_on_curve", "cohomology.c2_pairing", "intmat.solve_int", "intmat.hnf"}
)


class Tracer:
    def __init__(self):
        self.run_id = None
        self.spans = []  # (id, name, start, end, parent id, run id)
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self._stack = []  # open frames: [span id, seconds covered by children]
        self._next_id = 0

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        """Trace `fn` as span `name`.

        `before(args)` runs ahead of the call and its value is handed to
        `after(args, kwargs, result, before_value)`, which records counts.
        """
        keep = name not in HOT
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            token = before(args) if before else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                if keep:
                    self.spans.append((span_id, name, start, end, parent, self.run_id))
            if after:
                after(args, kwargs, result, token)
            return result

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))

    def install(self):
        """Wrap every traced function of `ahilb`; call once per process."""
        import ahilb.charts as charts
        import ahilb.cli as cli
        import ahilb.cohomology as cohomology
        import ahilb.fan as fan
        import ahilb.intmat as intmat
        import ahilb.pipeline as pipeline

        P = pipeline
        self._checks_for = pipeline.checks_for
        self.patch(P, "build_group", "group.build")
        self.patch(P, "triangulate", "fan.triangulate", after=self._after_triangulate)
        self.patch(fan, "knockout", "fan.knockout")
        self.patch(fan, "corner_fan", "fan.corner_fan")
        self.patch(P, "ChartSet", "charts.chartset", after=self._after_chartset)
        self.patch(
            charts.ChartSet,
            "degree_on_curve",
            "charts.degree_on_curve",
            before=lambda args: len(args[0]._degree),
            after=self._after_degree,
        )
        self.patch(P, "decorate", "recipe.decorate")
        self.patch(P, "quiver_embedding", "recipe.quiver")
        self.patch(P, "corner_region_characters", "recipe.regions")
        self.patch(P, "champion_identities", "recipe.regions")
        self.patch(P, "derive_relations", "relations.derive", after=self._after_relations)
        self.patch(P, "verify_all_relations", "relations.verify")
        self.patch(P, "build_surfaces", "cohomology.surfaces")
        self.patch(P, "check_bundle_degrees", "cohomology.bundle_degrees")
        self.patch(P, "duality_matrix", "cohomology.duality")
        self.patch(P, "h2_basis_check", "cohomology.h2")
        self.patch(P, "mckay_certificate", "cohomology.certificate")
        self.patch(cohomology.SurfaceCalculus, "c2_pairing", "cohomology.c2_pairing")
        self.patch(intmat, "solve_int", "intmat.solve_int")
        self.patch(intmat, "hnf_transform", "intmat.hnf")
        self.patch(intmat.ZSpan, "insert", "intmat.zspan_insert")
        self.patch(cli, "to_json", "serialize.to_json", after=self._after_text("serialize.json_bytes"))
        self.patch(cli, "triangulation_svg", "render.svg", after=self._after_text("render.svg_bytes"))
        self.patch(cli, "quiver_svg", "render.svg", after=self._after_text("render.svg_bytes"))
        self.patch(cli, "run_pipeline", "pipeline.run", after=self._after_run)
        self.patch(P, "run_pipeline", "pipeline.run", after=self._after_run)
        self.patch(cli, "main", "cli.main")

    # -- counters recorded at the same boundaries as the spans ---------------

    def _after_triangulate(self, args, kwargs, T, _):
        self.count("fan.lines", len(T.lines))
        self.count("fan.regular_triangles", len(T.regular_triangles))

    def _after_chartset(self, args, kwargs, C, _):
        self.count("charts.table_entries", sum(len(g.table) for g in C.agraphs))

    def _after_degree(self, args, kwargs, result, cached_before):
        self.count("charts.degree_calls")
        if len(args[0]._degree) == cached_before:
            self.count("charts.degree_hits")

    def _after_relations(self, args, kwargs, relations, _):
        self.count("relations.count", len(relations))

    def _after_text(self, counter):
        def after(args, kwargs, text, _):
            self.count(counter, len(text.encode("utf-8")))

        return after

    def _after_run(self, args, kwargs, art, _):
        which = kwargs.get("which", args[1] if len(args) > 1 else "all")
        requested = set(self._checks_for(which))
        if which == "all":
            requested.add("certificate")
        for stage, seconds in art.report.timings.items():
            self.count(f"pipeline.stage.{stage}_s", seconds)
            if stage in requested:
                self.count("pipeline.requested_stage_s", seconds)

    # -- output ---------------------------------------------------------------

    def layer_self_times(self):
        out = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def summary(self):
        return {
            "stats": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
            "counts": self.counts,
            "layer_self_s": self.layer_self_times(),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": r}
                        for i, n, s, e, p, r in self.spans
                    ],
                    **self.summary(),
                },
                fh,
            )
