"""Per-layer tracing by wrapping chainfold's functions from outside.

Nothing under src/ knows about tracing.  install() replaces each traced
function in every chainfold module that holds a reference to it (so a
name imported with `from .x import f` is traced too), and uninstall()
puts the originals back.

Three kinds of wrapper:

- spans, at the entry points of each layer.  A span records its name,
  start, end, parent span and job id.  Its self time is its duration
  minus the time covered by the spans it encloses, so the self times of
  the spans in a job add up to the job's time.
- kernel timers, on the geometry kernels called hundreds of thousands
  of times per job.  They keep a call count and the total time spent
  inside, and record no span (that would hold millions in memory), so
  their time also stays part of the enclosing span's self time.
- counters, on one module's reference to a kernel, counting the calls
  made from that module and how many returned something non-empty.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, function)
SPANS = (
    ("polyomino.parse", "polyomino", "parse_grid"),
    ("polyomino.tree", "polyomino", "dual_spanning_tree"),
    ("chain.fold", "chain", "fold_chain"),
    ("chain.dissect", "chain", "dissect_pair"),
    ("figures.verify_exact", "figures", "_verify_exact"),
    ("figures.verify_approx", "figures", "_verify_approx"),
    ("figures.hdj_write", "figures", "save_hdj"),
    ("figures.hdj_read", "figures", "load_hdj"),
    ("equidecompose.chart", "equidecompose", "polygon_to_canonical_chart"),
    ("equidecompose.tri_to_rect", "equidecompose", "triangle_to_rectangle"),
    ("equidecompose.to_width", "equidecompose", "rectangle_to_width"),
    ("equidecompose.overlay", "equidecompose", "overlay_charts"),
    ("equidecompose.verify_chart", "equidecompose", "verify_chart"),
    ("kinematics.sample", "kinematics", "sample_motion"),
    ("render.animation", "render", "render_animation"),
    ("render.chart", "render", "render_chart"),
    ("render.config", "render", "render_config"),
)

# (timer name, module, function)
KERNELS = (
    ("exact_geom.check_simple", "exact_geom", "_check_simple"),
    ("exact_geom.ear_clip", "exact_geom", "_ear_clip"),
    ("numeric.overlap", "numeric", "float_overlap_area"),
)

# (module whose reference is counted, function, calls counter, non-empty counter)
COUNTERS = (
    ("figures", "_bboxes_interiors_overlap", "figures.bbox_tests", None),
    ("figures", "_convex_clip", "figures.clip_calls", "figures.clip_useful"),
    ("numeric", "_convex_clip", "numeric.clip_calls", "numeric.clip_useful"),
    ("equidecompose", "_convex_clip", "equidecompose.clip_calls", "equidecompose.clip_useful"),
    ("kinematics", "float_overlap_area", "kinematics.pair_tests", None),
)


def _den_bits(chart) -> int:
    return max(
        (max(v.x.denominator.bit_length(), v.y.denominator.bit_length())
         for piece in chart.pieces for v in piece.vertices),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.self_s = defaultdict(float)
        self.job_self_s = defaultdict(lambda: defaultdict(float))
        self.kernel_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.den_bits_max = 0
        self._stack = []  # [child seconds, span index] of the open spans
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, hook=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self.job])
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
                own = end - start - frame[0]
                self.self_s[name] += own
                self.job_self_s[self.job][name] += own
                if stack:
                    stack[-1][0] += end - start
            if hook is not None:
                hook_start = perf_counter()
                hook(result)
                if stack:  # bookkeeping is not the caller's work
                    stack[-1][0] += perf_counter() - hook_start
            return result

        return traced

    def kernel(self, name, fn):
        def timed(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.kernel_s[name] += perf_counter() - start
                self.calls[name] += 1

        return timed

    def counter(self, fn, calls, useful):
        counts = self.counts

        def counted(*args):
            result = fn(*args)
            counts[calls] += 1
            if useful is not None and result:
                counts[useful] += 1
            return result

        return counted

    # -- result hooks -----------------------------------------------------

    def _on_chart(self, chart):
        self.counts["equidecompose.chart_pieces"] += len(chart.pieces)
        self.den_bits_max = max(self.den_bits_max, _den_bits(chart))

    def _on_overlay(self, chart):
        self.counts["equidecompose.mutual_pieces"] += len(chart.pieces)
        self.counts["equidecompose.slivers"] += len(chart.sliver_report)

    def _on_samples(self, samples):
        self.counts["kinematics.overlaps_reported"] += sum(len(s.overlaps) for s in samples)

    def _on_svg(self, text):
        self.counts["render.svg_bytes"] += len(text)

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper, only=None):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chainfold" or mod_name.startswith("chainfold.")):
                continue
            if only is not None and mod_name != f"chainfold.{only}":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        hooks = {
            "equidecompose.chart": self._on_chart,
            "equidecompose.overlay": self._on_overlay,
            "kinematics.sample": self._on_samples,
            "render.animation": self._on_svg,
            "render.chart": self._on_svg,
            "render.config": self._on_svg,
        }
        for name, module, attr in SPANS:
            fn = getattr(sys.modules[f"chainfold.{module}"], attr)
            self._rebind(fn, self.span(name, fn, hooks.get(name)))
        for name, module, attr in KERNELS:
            fn = getattr(sys.modules[f"chainfold.{module}"], attr)
            self._rebind(fn, self.kernel(name, fn))
        for module, attr, calls, useful in COUNTERS:
            fn = getattr(sys.modules[f"chainfold.{module}"], attr)
            self._rebind(fn, self.counter(fn, calls, useful), only=module)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}_s"] = (self.self_s[name], "s")
        out["cli.self_s"] = (self.self_s["cli"], "s")
        for name in ("exact_geom.check_simple", "exact_geom.ear_clip", "numeric.overlap"):
            out[f"{name}_s"] = (self.kernel_s[name], "s")
        out["exact_geom.polygon_builds"] = (self.calls["exact_geom.check_simple"], "count")
        out["exact_geom.ear_clip_calls"] = (self.calls["exact_geom.ear_clip"], "count")
        out["numeric.overlap_calls"] = (self.calls["numeric.overlap"], "count")
        for module in ("figures", "numeric", "equidecompose"):
            calls = self.counts[f"{module}.clip_calls"]
            useful = self.counts[f"{module}.clip_useful"]
            out[f"{module}.clip_calls"] = (calls, "count")
            out[f"{module}.clip_useful_ratio"] = (useful / calls if calls else 0.0, "ratio")
        for name in (
            "figures.bbox_tests",
            "equidecompose.chart_pieces",
            "equidecompose.mutual_pieces",
            "equidecompose.slivers",
            "kinematics.pair_tests",
            "kinematics.overlaps_reported",
        ):
            out[name] = (self.counts[name], "count")
        out["equidecompose.den_bits_max"] = (self.den_bits_max, "bits")
        out["render.svg_bytes"] = (self.counts["render.svg_bytes"], "bytes")
        return out
