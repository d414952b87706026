"""Per-layer metrics from the spans of a traced run.

Times are medians over units of work: per closed-loop scene, per spatial
or trajectory training step, per `gneva predict` or `gneva density` call.
A span's self time is its duration minus the time its child spans cover.
Spans named `trace.*` are the tracer's own work and count for no layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def _median(values: list[float], name: str) -> float:
    if not values:
        raise ValueError(f"the traced rounds produced no {name} spans")
    return statistics.median(values)


def layer_metrics(spans, k: int) -> dict[str, tuple[float, str]]:
    children = defaultdict(list)
    units = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
        units[s.unit].append(s)

    def total_ms(group, name):
        return 1e3 * sum(s.duration for s in group if s.name == name)

    def count(group, name):
        return sum(s.count for s in group if s.name == name)

    def self_ms(span):
        return 1e3 * (span.duration - sum(c.duration for c in children[span.index]))

    per = defaultdict(list)
    roots = {(s.name, s.unit): s for s in spans if s.parent is None}

    for unit, group in units.items():
        kind = unit[0]
        if kind == "scene":
            root = roots[("scene", unit)]
            covered = sum(c.duration for c in children[root.index])
            per["dataio.load_scenario_ms"].append(total_ms(group, "dataio.load_scenario"))
            per["dataio.to_target_frame_ms"].append(total_ms(group, "dataio.to_target_frame"))
            per["dataio.vectorize_ms"].append(total_ms(group, "dataio.vectorize"))
            per["encoders.forward_spatial_scene_ms"].append(total_ms(group, "encoders.forward_spatial"))
            per["mixture.predictive_log_densities_ms"].append(total_ms(group, "mixture.predictive_log_densities"))
            per["mixture.cells_scored"].append(count(group, "mixture.predictive_log_densities"))
            per["sampling.generate_candidates_self_ms"].append(
                sum(self_ms(s) for s in group if s.name == "sampling.generate_candidates")
            )
            per["sampling.nms_select_ms"].append(total_ms(group, "sampling.nms_select"))
            selected = count(group, "sampling.nms_select")
            per["sampling.nms_selected"].append(selected)
            per["sampling.nms_useful_ratio"].append(k / selected)
            per["trajectory.complete_trajectory_ms"].append(total_ms(group, "trajectory.complete_trajectory"))
            per["trajectory.save_predictions_ms"].append(total_ms(group, "trajectory.save_predictions"))
            per["trace.scene_rest_ms"].append(1e3 * (root.duration - covered))
            per["trace.scene_covered_ratio"].append(covered / root.duration)
        elif kind == "batch":
            root = roots[("gneva predict", unit)]
            per["encoders.load_model_ms"].append(total_ms(group, "encoders.load_model"))
            predict_s = sum(s.duration for s in group if s.name == "trajectory.predict_topk")
            per["cli.pool_parallelism"].append(predict_s / root.duration)
        elif kind == "density":
            per["encoders.load_model_ms"].append(total_ms(group, "encoders.load_model"))
            per["cli.density_write_ms"].append(
                sum(self_ms(s) for s in group if s.name == "cli.emit_density_grid")
            )

    for s in spans:
        if s.name == "training.context_features":
            per["training.context_features_ms"].append(1e3 * s.duration)

    for root in spans:
        if root.name == "train_spatial":
            for step in _steps(root, children[root.index]):
                per["encoders.forward_spatial_ms"].append(total_ms(step["spans"], "encoders.forward_spatial"))
                per["training.spatial_scene_loss_ms"].append(total_ms(step["spans"], "training.spatial_scene_loss"))
                per["autodiff.backward_spatial_ms"].append(total_ms(step["spans"], "autodiff.backward"))
                per["autodiff.graph_nodes_per_step"].append(count(step["spans"], "autodiff.backward"))
                per["training.adamw_step_ms"].append(total_ms(step["spans"], "training.adamw_step"))
                per["training.spatial_step_self_ms"].append(1e3 * step["rest"])
                per["trace.step_covered_ratio"].append(step["covered"] / step["traced"])
        elif root.name == "train_trajectory":
            for step in _steps(root, children[root.index]):
                per["autodiff.backward_traj_ms"].append(total_ms(step["spans"], "autodiff.backward"))
                per["trajectory.trajectory_forward_ms"].append(
                    total_ms(step["spans"], "trajectory.trajectory_forward")
                )

    return {name: (_median(per[name], name), unit) for name, unit in LAYER_UNITS.items() if name != "trace.overhead_pct"}


def _steps(root, direct):
    """Split a training call's direct child spans into steps.

    A step ends when its AdamW update ends and starts where the previous
    one ended; the first starts at its first forward pass, after the
    dataset preparation.
    """
    by_step = defaultdict(list)
    for s in direct:
        by_step[s.unit[2]].append(s)
    previous_end = None
    for step in sorted(by_step):
        group = by_step[step]
        updates = [s for s in group if s.name == "training.adamw_step"]
        if not updates:
            continue
        end = updates[-1].end
        if previous_end is None:
            start = min(
                s.start
                for s in group
                if s.name in ("encoders.forward_spatial", "trajectory.trajectory_forward")
            )
        else:
            start = previous_end
        inside = [s for s in group if s.start >= start and s.end <= end]
        tracing = sum(s.duration for s in inside if s.name.startswith("trace."))
        layers = sum(s.duration for s in inside if not s.name.startswith("trace."))
        traced = end - start - tracing
        yield {"spans": inside, "covered": layers, "traced": traced, "rest": traced - layers}
        previous_end = end


# Name and unit of every per-layer metric, in the order they are printed.
LAYER_UNITS = {
    "dataio.load_scenario_ms": "ms",
    "dataio.to_target_frame_ms": "ms",
    "dataio.vectorize_ms": "ms",
    "encoders.load_model_ms": "ms",
    "encoders.forward_spatial_ms": "ms",
    "encoders.forward_spatial_scene_ms": "ms",
    "training.spatial_scene_loss_ms": "ms",
    "autodiff.backward_spatial_ms": "ms",
    "autodiff.backward_traj_ms": "ms",
    "autodiff.graph_nodes_per_step": "count",
    "training.adamw_step_ms": "ms",
    "training.spatial_step_self_ms": "ms",
    "training.context_features_ms": "ms",
    "trajectory.trajectory_forward_ms": "ms",
    "mixture.predictive_log_densities_ms": "ms",
    "mixture.cells_scored": "count",
    "sampling.generate_candidates_self_ms": "ms",
    "sampling.nms_select_ms": "ms",
    "sampling.nms_selected": "count",
    "sampling.nms_useful_ratio": "ratio",
    "trajectory.complete_trajectory_ms": "ms",
    "trajectory.save_predictions_ms": "ms",
    "cli.pool_parallelism": "ratio",
    "cli.density_write_ms": "ms",
    "trace.scene_rest_ms": "ms",
    "trace.scene_covered_ratio": "ratio",
    "trace.step_covered_ratio": "ratio",
    "trace.overhead_pct": "%",
}
