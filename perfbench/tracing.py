"""In-memory span tracer that wraps gneva's module attributes.

A span records its name, start, end, parent span, thread, the unit of work
it belongs to (a predicted scene, a training step, a CLI call) and an
optional count. Spans are only collected while a `Tracer` is installed;
`uninstall` puts every original attribute back. Nothing is written until
the caller asks for the spans at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass

import gneva.cli
import gneva.dataio
import gneva.sampling
import gneva.training
import gneva.trajectory

# (module, attribute the callers look up, span name, counter or None).
# A counter maps the call's result to the count stored on the span.
WRAPPED = [
    (gneva.dataio, "load_scenario", "dataio.load_scenario", None),
    (gneva.cli, "load_scenario", "dataio.load_scenario", None),
    (gneva.dataio, "to_target_frame", "dataio.to_target_frame", None),
    (gneva.cli, "to_target_frame", "dataio.to_target_frame", None),
    (gneva.trajectory, "vectorize", "dataio.vectorize", None),
    (gneva.training, "vectorize", "dataio.vectorize", None),
    (gneva.cli, "vectorize", "dataio.vectorize", None),
    (gneva.cli, "load_spatial_model", "encoders.load_model", None),
    (gneva.cli, "load_trajectory_model", "encoders.load_model", None),
    (gneva.trajectory, "forward_spatial", "encoders.forward_spatial", None),
    (gneva.training, "forward_spatial", "encoders.forward_spatial", None),
    (gneva.cli, "forward_spatial", "encoders.forward_spatial", None),
    (gneva.training, "spatial_scene_loss", "training.spatial_scene_loss", None),
    (gneva.training, "adamw_step", "training.adamw_step", None),
    (gneva.training, "spatial_context_features", "training.context_features", None),
    (gneva.training, "trajectory_forward", "trajectory.trajectory_forward", None),
    (gneva.sampling, "predictive_log_densities", "mixture.predictive_log_densities", len),
    (gneva.trajectory, "scene_region", "sampling.scene_region", None),
    (gneva.cli, "scene_region", "sampling.scene_region", None),
    (gneva.trajectory, "generate_candidates", "sampling.generate_candidates", None),
    (gneva.cli, "generate_candidates", "sampling.generate_candidates", None),
    (gneva.trajectory, "nms_select", "sampling.nms_select", len),
    (gneva.trajectory, "complete_trajectory", "trajectory.complete_trajectory", None),
    (gneva.trajectory, "predict_topk", "trajectory.predict_topk", None),
    (gneva.cli, "predict_topk", "trajectory.predict_topk", None),
    (gneva.trajectory, "predictions_to_world", "trajectory.predictions_to_world", None),
    (gneva.cli, "predictions_to_world", "trajectory.predictions_to_world", None),
    (gneva.trajectory, "save_predictions", "trajectory.save_predictions", None),
    (gneva.cli, "save_predictions", "trajectory.save_predictions", None),
    (gneva.cli, "emit_density_grid", "cli.emit_density_grid", None),
]


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: tuple
    thread: int
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def graph_size(root) -> int:
    """Number of tape nodes reachable from `root` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Collects spans from wrapped gneva functions and from `unit` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        # Spans opened on a thread with no open span (pool workers) join
        # the unit the main thread is in.
        self._fallback: tuple[int | None, tuple] = (None, ("none",))
        self._step = 0

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, unit: tuple | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1].index, stack[-1].unit
        else:
            parent, inherited = self._fallback
        if unit is None:
            unit = inherited
            if unit[0] in ("spatial_step", "traj_step"):
                unit = (unit[0], unit[1], self._step)
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0, parent, unit, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def unit(self, name: str, unit: tuple):
        """A benchmark-level span that starts a new unit of work."""
        span = self._open(name, unit)
        self._fallback = (span.index, unit)
        self._step = 1
        try:
            yield span
        finally:
            self._close(span)
            self._fallback = (None, ("none",))

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.count = counter(result)
            if name == "training.adamw_step":
                tracer._step += 1
            return result

        return wrapper

    def _wrap_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(root):
            # The walk is tracing work; its own span keeps it out of self times.
            walk = tracer._open("trace.graph_walk")
            nodes = graph_size(root)
            tracer._close(walk)
            span = tracer._open("autodiff.backward")
            try:
                fn(root)
            finally:
                tracer._close(span)
            span.count = nodes

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        original = gneva.training.backward
        self._originals.append((gneva.training, "backward", original))
        gneva.training.backward = self._wrap_backward(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


class NullTracer:
    """Stands in for a Tracer in untraced rounds: no wrappers, no spans."""

    def unit(self, name: str, unit: tuple):
        return contextlib.nullcontext()
