"""Goal candidate generation and non-maximum suppression selection.

Candidates are a deterministic grid over the scene scored by the posterior
predictive density, held as a `CandidatePool` of two arrays. Selection is
greedy: repeatedly keep the most probable remaining candidate and drop
every candidate whose circle IoU with it exceeds the threshold, until k
goals are kept or none remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Scenario
from .errors import EmptyCandidatePool, RegionTooLarge, ValidationError, check_config_fields
from .mixture import MixturePosterior, predictive_log_densities


@dataclass(frozen=True)
class CandidatePool:
    """Candidate goals as arrays: locations (n, 2) and predictive log densities (n,)."""

    locations: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        log_probs = np.asarray(self.log_probs, dtype=float)
        if locs.ndim != 2 or locs.shape[1] != 2 or log_probs.shape != locs.shape[:1]:
            raise ValidationError(
                f"pool needs locations (n, 2) and log_probs (n,), "
                f"got {locs.shape} and {log_probs.shape}"
            )
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(log_probs))):
            raise ValidationError("pool candidates must be finite")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "log_probs", log_probs)

    def __len__(self) -> int:
        return self.log_probs.shape[0]


@dataclass(frozen=True)
class NmsConfig:
    radius: float = 2.0
    iou_threshold: float = 0.0
    k: int = 6

    def __post_init__(self):
        check_config_fields(self)
        if not (self.radius > 0.0 and 0.0 < 4.0 * self.radius * self.radius < math.inf):  # `_lens_area`'s 4 r^2
            raise ValidationError(f"radius must be > 0 with 4 r^2 finite and nonzero, got {self.radius}")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValidationError(f"iou_threshold must lie in [0, 1], got {self.iou_threshold}")


def _lens_area(d: np.ndarray, r: float) -> np.ndarray:
    """Intersection area of two radius-r discs at center distance d (< 2r)."""
    return 2.0 * r * r * np.arccos(d / (2.0 * r)) - 0.5 * d * np.sqrt(4.0 * r * r - d * d)


def circle_iou_from_distance(d: np.ndarray, r: float) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    out = np.zeros_like(d)
    overlapping = d < 2.0 * r
    if overlapping.any():
        area = _lens_area(d[overlapping], r)
        out[overlapping] = np.clip(area / (2.0 * math.pi * r * r - area), 0.0, 1.0)
    return out


def circle_iou(p1, p2, r: float) -> float:
    """IoU of two discs of radius r centered at p1 and p2."""
    if r <= 0.0:
        raise ValidationError(f"radius must be positive, got {r}")
    p1 = np.asarray(p1, dtype=float).reshape(2)
    p2 = np.asarray(p2, dtype=float).reshape(2)
    d = float(np.hypot(*(p1 - p2)))
    return float(circle_iou_from_distance(np.array([d]), r)[0])


def nms_select(pool: CandidatePool, cfg: NmsConfig) -> np.ndarray:
    """Greedy suppression, most probable first, stopping after `cfg.k` selections.

    Returns the selected pool indices in selection order; `k=len(pool)`
    runs until no candidate is left. Each pass keeps the most probable live
    candidate (the first of equals, so ties go in pool order) and drops
    every candidate whose circle IoU with it strictly exceeds the threshold.
    """
    if len(pool) == 0:
        raise EmptyCandidatePool("no candidates to select from")
    live = pool.log_probs.copy()
    x, y = pool.locations.T.copy()  # contiguous rows: each pass reads both in full
    reach = 2.0 * cfg.radius  # beyond it on either axis the discs are apart: IoU 0
    selected = []
    for _ in range(cfg.k):
        best = int(np.argmax(live))
        if live[best] == -math.inf:
            break
        selected.append(best)
        live[best] = -math.inf  # at threshold 1 its IoU with itself, 1, does not exceed it
        near = np.flatnonzero((np.abs(x - x[best]) < reach) & (np.abs(y - y[best]) < reach))
        iou = circle_iou_from_distance(np.hypot(x[near] - x[best], y[near] - y[best]), cfg.radius)
        live[near[iou > cfg.iou_threshold]] = -math.inf
    return np.array(selected, dtype=np.intp)


@dataclass(frozen=True)
class Region:
    """Axis-aligned candidate box in target-frame meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValidationError("region must have positive extent")


REGION_MARGIN = 10.0  # meters the candidate box extends past the scene's points
CELL_CAP = 1_000_000  # most grid cells one candidate pool may hold


def scene_region(s: Scenario) -> Region:
    """Bounding box of all map points inflated by `REGION_MARGIN` meters.

    Falls back to the box of agent states observed by step H when the map
    is empty (for example after masking with radius zero) so the pipeline
    still runs; the future states are ground truth and take no part.
    """
    points = [p.points for p in s.map]
    if not points:
        points = [track.rows[track.steps <= s.H, :2] for track in s.agents]
    allpts = np.concatenate(points, axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    # Degenerate boxes (single lane along an axis) still need area: 1e-6 m before the margin.
    lo = lo - 1e-6 - REGION_MARGIN
    hi = hi + 1e-6 + REGION_MARGIN
    return Region(lo[0], lo[1], hi[0], hi[1])


def generate_candidates(
    mix: MixturePosterior,
    weights,
    region: Region,
    spacing: float,
) -> CandidatePool:
    """Regular grid over the region scored by the predictive log density.

    Row-major ordering with ties broken by grid index; endpoints included.
    """
    if not 0.0 < spacing < math.inf:
        raise ValidationError(f"spacing must be finite and positive, got {spacing}")
    with np.errstate(over="ignore"):  # counted in floats: beyond float range is inf cells, and refused
        nx = np.floor((region.x_max - region.x_min) / spacing + 1e-9) + 1
        ny = np.floor((region.y_max - region.y_min) / spacing + 1e-9) + 1
    if not nx * ny <= CELL_CAP:
        raise RegionTooLarge(f"grid of {nx:.0f}x{ny:.0f} cells exceeds the cap of {CELL_CAP}")
    xs = region.x_min + spacing * np.arange(nx)
    ys = region.y_min + spacing * np.arange(ny)
    pts = np.empty((len(xs), len(ys), 2))
    pts[..., 0] = xs[:, None]
    pts[..., 1] = ys
    return CandidatePool(pts.reshape(-1, 2), predictive_log_densities(xs, mix, weights, ys))
