"""Trajectory completion to sampled goals, top-k prediction assembly, and displacement metrics."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParamTape, Var
from .dataio import RigidTransform, Scenario, number_table, read_json_object, vectorize
from .encoders import EncoderConfig, _as_leaves, _mlp, forward_spatial, trajectory_horizon
from .errors import HorizonMismatch, ValidationError
from .sampling import NmsConfig, generate_candidates, nms_select, scene_region


def trajectory_forward(context_feature: Var, goals, params) -> Var:
    """Waypoints (B, T, 2) from [context; goal] through two MLPs; each endpoint pinned to its goal.

    Takes contexts (B, hidden) and goals (B, 2); the head fixes T. A
    `ParamTape` runs on constants, so inference records no graph.
    """
    leaves = _as_leaves(params)
    horizon = trajectory_horizon(leaves)
    goals = np.asarray(goals, dtype=float)
    x = ad.concat([context_feature, Var(goals)], axis=1)
    h = _mlp(leaves, "traj.m1", x)
    out = ad.reshape(_mlp(leaves, "traj.m2", h), (len(goals), horizon, 2))
    # Hard endpoint constraint: the last waypoint is the conditioning goal.
    return ad.concat([ad.narrow(out, 1, 0, horizon - 1), Var(goals[:, None, :])], axis=1)


def complete_trajectory(context_feature: np.ndarray, goals, tape: ParamTape) -> np.ndarray:
    """Inference-time completion in the target frame: contexts (B, hidden) and goals (B, 2) give (B, T, 2)."""
    node = trajectory_forward(Var(np.asarray(context_feature, dtype=float)), goals, tape)
    return node.value.copy()


@dataclass(frozen=True)
class Predictions:
    """One scene's trajectories, most probable goal first: waypoints (k, T, 2) and goal log densities (k,)."""

    waypoints: np.ndarray
    goal_log_probs: np.ndarray

    def __len__(self) -> int:
        return len(self.goal_log_probs)


def predict_topk(
    scenario: Scenario,
    spatial_tape: ParamTape,
    traj_tape: ParamTape,
    nms_cfg: NmsConfig,
    enc_cfg: EncoderConfig,
    spacing: float = 0.5,
) -> Predictions:
    """Full pipeline on a target-frame scenario.

    Encoders emit the mixture posterior and proxy weights, a scored grid of
    candidates is suppressed by NMS until it has k goals, and those are
    completed into trajectories, in NMS order: non-increasing goal log density.
    A head whose T is not the scenario's is refused.
    """
    horizon = trajectory_horizon(traj_tape)
    if scenario.T != horizon:
        raise HorizonMismatch(
            f"scenario {scenario.scenario_id!r} has T={scenario.T}, the trajectory model predicts {horizon} steps"
        )
    vs = vectorize(scenario, enc_cfg)
    fw = forward_spatial(vs, spatial_tape, enc_cfg)
    mix = fw.mixture(scenario.scenario_id)
    weights = fw.weights.value
    region = scene_region(scenario)
    candidates = generate_candidates(mix, weights, region, spacing)
    selected = nms_select(candidates, nms_cfg)
    contexts = np.repeat(fw.context_feature.value, len(selected), axis=0)
    goals = candidates.locations[selected]
    waypoints = complete_trajectory(contexts, goals, traj_tape)
    return Predictions(waypoints, candidates.log_probs[selected])


def predictions_to_world(predictions: Predictions, transform: RigidTransform) -> Predictions:
    """Map target-frame predictions back through the stored projection."""
    world = transform.inverse().apply_points(predictions.waypoints)
    return Predictions(world, predictions.goal_log_probs)


def save_predictions(path, scenario_id: str, predictions: Predictions) -> None:
    doc = {
        "scenario_id": scenario_id,
        "predictions": [
            {"goal_log_prob": log_prob, "waypoints": waypoints}
            for log_prob, waypoints in zip(
                predictions.goal_log_probs.tolist(), predictions.waypoints.tolist()
            )
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_predictions(path) -> tuple[str, Predictions]:
    doc = read_json_object(path, "predictions", ValidationError)
    try:
        scenario_id = str(doc["scenario_id"])
        preds = doc["predictions"]
        waypoints = np.array([number_table(p["waypoints"], lambda i, j: f"prediction {n} waypoint {i}")
                              for n, p in enumerate(preds)])
        log_probs = number_table([[p["goal_log_prob"]] for p in preds], lambda i, j: f"prediction {i} 'goal_log_prob'")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"predictions {path}: malformed field: {exc}") from exc
    if waypoints.ndim != 3 or not len(waypoints) or waypoints.shape[2] != 2:
        raise ValidationError(f"{path}: predictions need waypoints (k, T, 2) with k >= 1, got {waypoints.shape}")
    if not np.isfinite(waypoints).all():
        raise ValidationError(f"{path}: prediction waypoints must be finite")
    return scenario_id, Predictions(waypoints, log_probs.reshape(-1))


MISS_THRESHOLD_M = 2.0  # endpoint miss threshold fixed by the benchmark definition


@dataclass(frozen=True)
class MetricReport:
    made_k: float
    mfde_k: float
    miss_rate_k: float
    k: int
    n_scenarios: int

    @classmethod
    def average(cls, scores, k: int) -> "MetricReport":
        """The mean of per-scenario `(ade, fde)` pairs from `scenario_displacement`."""
        ades, fdes = zip(*scores)
        with np.errstate(over="ignore"):  # a mean beyond float range counts as inf
            return cls(
                made_k=float(np.mean(ades)),
                mfde_k=float(np.mean(fdes)),
                miss_rate_k=float(np.mean([1.0 if fde > MISS_THRESHOLD_M else 0.0 for fde in fdes])),
                k=k,
                n_scenarios=len(scores),
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_text(self) -> str:
        rows = [
            ("metric", f"value (k={self.k}, n={self.n_scenarios})"),
            ("mADE", f"{self.made_k:.4f}"),
            ("mFDE", f"{self.mfde_k:.4f}"),
            ("miss rate", f"{self.miss_rate_k:.4f}"),
        ]
        width = max(len(a) for a, _ in rows)
        return "\n".join(f"{a:<{width}}  {b}" for a, b in rows)


def scenario_displacement(trajectories, ground_truth, k: int) -> tuple[float, float]:
    """One scenario's minADE_k and minFDE_k, each minimised independently over the first k trajectories.

    The scenario needs at least k trajectories, each of the ground truth's
    (T, 2) shape.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(trajectories) < k:
        raise ValidationError(f"need at least k={k} trajectories, got {len(trajectories)}")
    gt = np.asarray(ground_truth, dtype=float)
    for traj in trajectories[:k]:
        if np.shape(traj) != gt.shape:
            raise HorizonMismatch(f"prediction horizon {np.shape(traj)} does not match ground truth {gt.shape}")
    with np.errstate(over="ignore"):  # an error beyond float range counts as inf
        diff = np.asarray(trajectories[:k], dtype=float) - gt
        err = np.hypot(diff[..., 0], diff[..., 1])  # (k, T)
        return float(err.mean(axis=1).min()), float(err[:, -1].min())


def displacement_metrics(predictions, ground_truth, k: int) -> MetricReport:
    """mADE_k, mFDE_k and the 2 m miss rate averaged over scenarios.

    `predictions` holds, per scenario, at least k trajectories of shape
    (T, 2); `ground_truth` the matching (T, 2) future.
    """
    if len(predictions) != len(ground_truth):
        raise ValidationError(f"{len(predictions)} prediction sets vs {len(ground_truth)} ground truths")
    if not predictions:
        raise ValidationError("no scenarios to evaluate")
    return MetricReport.average(
        [scenario_displacement(trajs, gt, k) for trajs, gt in zip(predictions, ground_truth)], k
    )
