"""Displacement metrics for top-k trajectory predictions."""

from __future__ import annotations

import json
from dataclasses import dataclass

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "made_k": self.made_k,
                "mfde_k": self.mfde_k,
                "miss_rate_k": self.miss_rate_k,
                "k": self.k,
                "n_scenarios": self.n_scenarios,
            }
        )

    def to_text(self) -> str:
        rows = [
            ("metric", f"value (k={self.k}, n={self.n_scenarios})"),
            ("mADE", f"{self.made_k:.4f}"),
            ("mFDE", f"{self.mfde_k:.4f}"),
            ("miss rate", f"{self.miss_rate_k:.4f}"),
        ]
        width = max(len(a) for a, _ in rows)
        return "\n".join(f"{a:<{width}}  {b}" for a, b in rows)


def displacement_metrics(predictions, ground_truth, k: int) -> MetricReport:
    """mADE_k, mFDE_k and the 2 m miss rate averaged over scenarios.

    `predictions` holds, per scenario, at least k trajectories of shape
    (T, 2); `ground_truth` the matching (T, 2) future. The minima over the
    first k trajectories are taken independently for ADE and FDE.
    """
    if len(predictions) != len(ground_truth):
        raise ValidationError(
            f"{len(predictions)} prediction sets vs {len(ground_truth)} ground truths"
        )
    if not predictions:
        raise ValidationError("no scenarios to evaluate")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ades, fdes, misses = [], [], []
    with np.errstate(over="ignore"):  # an error beyond float range counts as inf
        for trajs, gt in zip(predictions, ground_truth):
            gt = np.asarray(gt, dtype=float)
            if len(trajs) < k:
                raise ValidationError(f"need at least k={k} trajectories, got {len(trajs)}")
            per_ade, per_fde = [], []
            for traj in list(trajs)[:k]:
                traj = np.asarray(traj, dtype=float)
                if traj.shape != gt.shape:
                    raise HorizonMismatch(
                        f"prediction horizon {traj.shape} does not match ground truth {gt.shape}"
                    )
                err = np.hypot(*(traj - gt).T)
                per_ade.append(float(err.mean()))
                per_fde.append(float(err[-1]))
            ades.append(min(per_ade))
            fdes.append(min(per_fde))
            misses.append(1.0 if min(per_fde) > MISS_THRESHOLD_M else 0.0)
        return MetricReport(
            made_k=float(np.mean(ades)),
            mfde_k=float(np.mean(fdes)),
            miss_rate_k=float(np.mean(misses)),
            k=k,
            n_scenarios=len(predictions),
        )
