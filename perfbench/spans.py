"""Spans taken from outside the program.

The tracer replaces a function with a timing wrapper at the module
attribute its caller looks it up through (``cli.slice_centroids`` is the
name ``cmd_shape`` calls; ``shape.fit_ellipse`` the one
``shape_center_fn`` calls) and puts the original back afterwards.  Spans
stay in memory; a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

from earcanal import acoustics, analysis, cli, mesh, shape, synth


def _length(key):
    return lambda result: {key: len(result)}


# (module, attribute, span name, counts taken from the return value)
PASS_TARGETS = [
    (cli, "cmd_shape", "cli.shape", None),
    (cli, "cmd_acoustic", "cli.acoustic", None),
    (cli, "cmd_correlate", "cli.correlate", None),
    (mesh, "_parse_binary_stl", "mesh.parse_binary", lambda m: {"mesh.facets": m.n_triangles}),
    (mesh, "_parse_ascii_stl", "mesh.parse_ascii", lambda m: {"mesh.facets": m.n_triangles}),
    (cli, "triangle_centroids", "mesh.centroids", None),
    (cli, "slice_centroids", "mesh.slice", lambda s: {"mesh.slices": len(s.bins)}),
    (shape, "fit_ellipse", "ellipse.fit", lambda e: {"ellipse.fits": 1}),
    (cli, "shape_center_fn", "shape.track", None),
    (shape, "shape_similarity", "shape.similarity", lambda s: {"shape.pairs": 1}),
    (cli, "shape_similarity_matrix", "shape.matrix", None),
    (cli, "simulate_measurement", "acoustics.simulate", None),
    (cli, "recover_impulse_response", "acoustics.recover", None),
    (acoustics, "trim_pre_rise", "acoustics.trim", None),
    (acoustics, "minimum_phase", "acoustics.min_phase", _length("acoustics.min_phase_points")),
    (acoustics, "butterworth_bandpass", "acoustics.bandpass", _length("acoustics.bandpass_samples")),
    (acoustics, "normalize_power", "acoustics.normalize", None),
    (cli, "response_feature", "acoustics.feature",
     lambda f: {"acoustics.takes": 1, "acoustics.feature_samples": len(f)}),
    (acoustics, "acoustic_similarity", "acoustics.similarity", lambda s: {"acoustics.take_pairs": 1}),
    (cli, "acoustic_similarity_matrix", "acoustics.matrix", None),
    (analysis.SimilarityMatrix, "from_csv", "analysis.read_csv", None),
    (cli, "emit_report", "analysis.report", None),
    (analysis, "regress_all_subjects", "analysis.regress", None),
]

# The generators, at both names set-up code reaches them through.
SETUP_TARGETS = [
    (module, attr, name, None)
    for module in (synth, cli)
    for attr, name in (("generate_canal_mesh", "synth.mesh"), ("generate_plant", "synth.plant"))
]

# failures counted for a span name when its function raises
FAILURE_COUNTS = {"ellipse.fit": "ellipse.fit_failures"}


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # [name, parent index or None, start, end]
        self.counts = Counter()
        self._open = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else None, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name in FAILURE_COUNTS:
                    self.counts[FAILURE_COUNTS[name]] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, name, count))
                else:
                    wrapper = self._wrap(original, name, count)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, _parent, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def totals(self) -> dict:
        """Summed wall time per span name."""
        out = defaultdict(float)
        for name, _parent, start, end in self.spans:
            out[name] += end - start
        return dict(out)


# per-layer metric -> span name.  SELF_METRICS are self times (for the
# cli entries, a command's own reading, decoding and writing);
# WALL_METRICS are whole command spans.
SELF_METRICS = {
    "mesh.parse_binary_s": "mesh.parse_binary",
    "mesh.parse_ascii_s": "mesh.parse_ascii",
    "mesh.centroids_s": "mesh.centroids",
    "mesh.slice_s": "mesh.slice",
    "ellipse.fit_s": "ellipse.fit",
    "shape.track_s": "shape.track",
    "shape.similarity_s": "shape.similarity",
    "shape.matrix_s": "shape.matrix",
    "acoustics.simulate_s": "acoustics.simulate",
    "acoustics.recover_s": "acoustics.recover",
    "acoustics.trim_s": "acoustics.trim",
    "acoustics.min_phase_s": "acoustics.min_phase",
    "acoustics.bandpass_s": "acoustics.bandpass",
    "acoustics.normalize_s": "acoustics.normalize",
    "acoustics.feature_s": "acoustics.feature",
    "acoustics.similarity_s": "acoustics.similarity",
    "acoustics.matrix_s": "acoustics.matrix",
    "analysis.read_csv_s": "analysis.read_csv",
    "analysis.regress_s": "analysis.regress",
    "analysis.report_s": "analysis.report",
    "cli.shape_self_s": "cli.shape",
    "cli.acoustic_self_s": "cli.acoustic",
    "cli.correlate_self_s": "cli.correlate",
}
WALL_METRICS = {"cli.shape_s": "cli.shape", "cli.acoustic_s": "cli.acoustic",
                "cli.correlate_s": "cli.correlate"}
SETUP_METRICS = {"synth.mesh_s": "synth.mesh", "synth.plant_s": "synth.plant"}
COUNT_METRICS = (
    "mesh.facets", "mesh.slices", "ellipse.fits", "ellipse.fit_failures", "shape.pairs",
    "acoustics.takes", "acoustics.min_phase_points", "acoustics.bandpass_samples",
    "acoustics.feature_samples", "acoustics.take_pairs",
)


def _table(values: dict) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def setup_layers(tracer: Tracer) -> dict:
    """synth.* metrics of one traced build."""
    self_s = tracer.self_times()
    return _table({metric: (self_s.get(span, 0.0), "s") for metric, span in SETUP_METRICS.items()})


def pass_layers(passes: list, tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run, per traced pass, and the
    tracing's own cost.

    ``trace.unattributed_s`` is the traced pass time outside every span
    (argument parsing in ``cli.main``), so the self times plus it add up
    to the traced pass time.  ``trace.overhead_s`` is the median traced
    pass minus the median untraced pass."""
    traced = [p["s"] for p in passes if p["kind"] == "traced"]
    untraced = [p["s"] for p in passes if p["kind"] == "timed"]
    n = len(traced)
    self_s, total_s = tracer.self_times(), tracer.totals()
    values = {}
    for metric, span in SELF_METRICS.items():
        values[metric] = (self_s.get(span, 0.0) / n, "s")
    for metric, span in WALL_METRICS.items():
        values[metric] = (total_s.get(span, 0.0) / n, "s")
    for metric in COUNT_METRICS:
        values[metric] = (tracer.counts[metric] / n, "count")
    values["trace.pass_s"] = (statistics.median(traced), "s")
    values["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    values["trace.unattributed_s"] = ((sum(traced) - sum(self_s.values())) / n, "s")
    values["trace.passes"] = (n, "count")
    return _table(values)
