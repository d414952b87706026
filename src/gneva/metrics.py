"""Displacement metrics for top-k trajectory predictions."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import HorizonMismatch, ValidationError

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
