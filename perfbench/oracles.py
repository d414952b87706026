"""Independent checks of gneva's outputs.

Nothing here imports gneva. Scenario and prediction files are read as
plain JSON, frames and grids are rebuilt from the scenario's own numbers,
densities come from `scipy.stats.multivariate_t`, and NMS, displacement
metrics and the density-grid checks are written out below. Every check
returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.ndimage import maximum_filter
from scipy.special import logsumexp
from scipy.stats import multivariate_t

# The greedy NMS suppresses at centre distance < 2r. Grid nodes exactly 2r
# apart sit on that edge, where the program's circle-IoU arithmetic may go
# either way; candidates this close to the edge may be kept or dropped.
EDGE_TOL_M = 1e-9
LOG_PROB_TOL = 1e-9
NODE_TOL_M = 1e-6
MISS_THRESHOLD_M = 2.0


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- frames and grids -------------------------------------------------------
def target_pose(scenario: dict) -> tuple[float, float, float]:
    """(x, y, heading) of the target at the observation horizon H."""
    for agent in scenario["agents"]:
        if agent["id"] == scenario["target_id"]:
            for state in agent["states"]:
                if state["t"] == scenario["H"]:
                    return state["x"], state["y"], state["heading"]
    raise ValueError(f"{scenario['scenario_id']}: no target state at step H")


def to_world(scenario: dict, points) -> np.ndarray:
    """Target-frame points to the world frame: rotate by the heading, shift by the pose."""
    x, y, heading = target_pose(scenario)
    c, s = math.cos(heading), math.sin(heading)
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.stack([c * p[:, 0] - s * p[:, 1] + x, s * p[:, 0] + c * p[:, 1] + y], axis=1)


def to_target(scenario: dict, points) -> np.ndarray:
    x, y, heading = target_pose(scenario)
    c, s = math.cos(heading), math.sin(heading)
    p = np.asarray(points, dtype=float).reshape(-1, 2) - np.array([x, y])
    return np.stack([c * p[:, 0] + s * p[:, 1], -s * p[:, 0] + c * p[:, 1]], axis=1)


def grid_shape(scenario: dict, spacing: float, margin: float = 10.0):
    """Lower corner and (nx, ny) of the candidate grid: map box plus margin."""
    if scenario["map"]:
        pts = np.concatenate([np.asarray(p["points"], dtype=float) for p in scenario["map"]])
    else:
        pts = np.array([[s["x"], s["y"]] for a in scenario["agents"] for s in a["states"]])
    pts = to_target(scenario, pts)
    lo = pts.min(axis=0) - 1e-6 - margin
    hi = pts.max(axis=0) + 1e-6 + margin
    nx = int(math.floor((hi[0] - lo[0]) / spacing + 1e-9)) + 1
    ny = int(math.floor((hi[1] - lo[1]) / spacing + 1e-9)) + 1
    return lo, nx, ny


def grid_points(scenario: dict, spacing: float) -> np.ndarray:
    """Target-frame grid nodes, x-major, as (nx * ny, 2)."""
    lo, nx, ny = grid_shape(scenario, spacing)
    xx, yy = np.meshgrid(lo[0] + spacing * np.arange(nx), lo[1] + spacing * np.arange(ny), indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


# -- the predictive mixture ---------------------------------------------------
def mixture_log_density(points, eta, beta, chol, nu, weights) -> np.ndarray:
    """log sum_c w_c t(x; eta_c, ((beta+1)/(beta(nu-1))) V_c^-1, nu-1), V_c = L_c L_c^T."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    terms = []
    for c in range(len(weights)):
        if weights[c] == 0.0:
            continue
        l11, l21, l22 = chol[c]
        lower = np.array([[l11, 0.0], [l21, l22]])
        v = lower @ lower.T
        df = nu[c] - 1.0
        shape = (beta[c] + 1.0) / (beta[c] * df) * np.linalg.inv(v)
        dist = multivariate_t(loc=eta[c], shape=shape, df=df)
        terms.append(math.log(weights[c]) + np.atleast_1d(dist.logpdf(points)))
    return logsumexp(np.stack(terms), axis=0)


# -- goal selection -----------------------------------------------------------
def greedy_nms_errors(grid, log_probs, goals, radius: float, k: int) -> list[str]:
    """Replay greedy NMS over the grid and test each selected goal in turn.

    At each step the goal must not lie within 2r of an earlier goal, and no
    candidate that is clearly still alive may have a higher log density.
    """
    errors = []
    dead = np.zeros(len(grid), dtype=bool)  # surely suppressed by an earlier goal
    edge = np.zeros(len(grid), dtype=bool)  # on the 2r edge of an earlier goal
    for i, goal in enumerate(goals[:k]):
        node = int(np.argmin(np.hypot(*(grid - goal).T)))
        if dead[node]:
            errors.append(f"goal {i} lies within {2 * radius} m of an earlier goal")
        clear = ~dead & ~edge
        clear[node] = False
        if clear.any() and log_probs[clear].max() > log_probs[node] + LOG_PROB_TOL:
            best = np.flatnonzero(clear)[np.argmax(log_probs[clear])]
            errors.append(
                f"goal {i} at {grid[node]} is not the greedy choice: "
                f"{grid[best]} scores {log_probs[best] - log_probs[node]:.3g} nats higher"
            )
        d = np.hypot(*(grid - grid[node]).T)
        dead |= d < 2.0 * radius - EDGE_TOL_M
        edge |= np.abs(d - 2.0 * radius) <= EDGE_TOL_M
        dead[node] = True
    if len(goals) != min(k, len(grid)):
        errors.append(f"{len(goals)} goals, expected {k}")
    return errors


def prediction_errors(scenario: dict, prediction: dict, params: dict, spacing: float, radius: float, k: int) -> list[str]:
    """All checks of one written prediction against the scenario and the emitted mixture."""
    sid = scenario["scenario_id"]
    errors = []
    if prediction["scenario_id"] != sid:
        errors.append(f"prediction names {prediction['scenario_id']!r}")
    preds = prediction["predictions"]
    if not preds:
        return [f"{sid}: no predictions"]
    waypoints = np.array([p["waypoints"] for p in preds], dtype=float)
    if waypoints.shape[1] != scenario["T"]:
        errors.append(f"{waypoints.shape[1]} waypoints, expected T={scenario['T']}")
    log_probs = np.array([p["goal_log_prob"] for p in preds])
    goals = to_target(scenario, waypoints[:, -1])

    grid = grid_points(scenario, spacing)
    grid_lp = mixture_log_density(grid, **params)
    nodes = np.array([np.argmin(np.hypot(*(grid - g).T)) for g in goals])
    off = np.hypot(*(grid[nodes] - goals).T)
    for i in np.flatnonzero(off > NODE_TOL_M):
        errors.append(f"goal {i} is {off[i]:.3g} m from the nearest grid node")
    # The endpoint is the goal node mapped to the world frame.
    ends = to_world(scenario, grid[nodes])
    shift = np.hypot(*(waypoints[:, -1] - ends).T)
    for i in np.flatnonzero(shift > 1e-9):
        errors.append(f"trajectory {i} ends {shift[i]:.3g} m from its goal node in the world frame")
    gap = np.abs(grid_lp[nodes] - log_probs)
    for i in np.flatnonzero(gap > LOG_PROB_TOL):
        errors.append(f"goal {i} log density off by {gap[i]:.3g} from the scipy mixture")
    if np.any(np.diff(log_probs) > 0.0):
        errors.append("goals are not sorted by log density")
    if grid_lp.max() - log_probs[0] > LOG_PROB_TOL:
        errors.append(f"first goal is {grid_lp.max() - log_probs[0]:.3g} nats below the grid maximum")
    for i in range(len(goals)):
        for j in range(i + 1, len(goals)):
            d = float(np.hypot(*(goals[i] - goals[j])))
            if d < 2.0 * radius - EDGE_TOL_M:
                errors.append(f"goals {i} and {j} are {d:.3f} m apart, less than 2r")
    errors += greedy_nms_errors(grid, grid_lp, grid[nodes], radius, k)
    return [f"{sid}: {e}" for e in errors]


# -- displacement metrics -------------------------------------------------------
def future_waypoints(scenario: dict) -> np.ndarray:
    states = {}
    for agent in scenario["agents"]:
        if agent["id"] == scenario["target_id"]:
            states = {s["t"]: (s["x"], s["y"]) for s in agent["states"]}
    h, t = scenario["H"], scenario["T"]
    return np.array([states[step] for step in range(h + 1, h + t + 1)], dtype=float)


def displacement(predictions: list[dict], scenarios: list[dict], k: int) -> dict:
    """mADE_k, mFDE_k and the 2 m miss rate over matching scenario lists."""
    ades, fdes = [], []
    for pred, scenario in zip(predictions, scenarios, strict=True):
        truth = future_waypoints(scenario)
        trajs = np.array([p["waypoints"] for p in pred["predictions"][:k]], dtype=float)
        err = np.hypot(trajs[..., 0] - truth[:, 0], trajs[..., 1] - truth[:, 1])
        ades.append(err.mean(axis=1).min())
        fdes.append(err[:, -1].min())
    fdes = np.array(fdes)
    return {
        "made": float(np.mean(ades)),
        "mfde": float(np.mean(fdes)),
        "miss_rate": float(np.mean(fdes > MISS_THRESHOLD_M)),
    }


def constant_velocity_made(scenarios: list[dict]) -> float:
    """mADE of one trajectory that keeps the target's step-H velocity."""
    ades = []
    for scenario in scenarios:
        state = next(
            s for a in scenario["agents"] if a["id"] == scenario["target_id"] for s in a["states"] if s["t"] == scenario["H"]
        )
        steps = np.arange(1, scenario["T"] + 1)[:, None] * scenario["dt"]
        guess = np.array([state["x"], state["y"]]) + steps * np.array([state["vx"], state["vy"]])
        ades.append(np.hypot(*(guess - future_waypoints(scenario)).T).mean())
    return float(np.mean(ades))


def eval_report_errors(report: dict, expected: dict) -> list[str]:
    errors = []
    for ours, theirs in (("made", "made_k"), ("mfde", "mfde_k"), ("miss_rate", "miss_rate_k")):
        if abs(report[theirs] - expected[ours]) > 1e-9:
            errors.append(f"gneva eval {theirs} {report[theirs]!r} != {expected[ours]!r}")
    return errors


# -- density export ---------------------------------------------------------------
def density_errors(scenario: dict, csv_path, params: dict, spacing: float, rng, n_samples: int = 64) -> list[str]:
    """Row count, a seeded sample of rows against scipy, and total grid mass."""
    sid = scenario["scenario_id"]
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    _, nx, ny = grid_shape(scenario, spacing)
    if rows.shape != (nx * ny, 3):
        return [f"{sid}: density has {rows.shape[0]} rows, expected nx*ny = {nx}*{ny}"]
    errors = []
    pick = rng.choice(len(rows), size=min(n_samples, len(rows)), replace=False)
    grid = grid_points(scenario, spacing)[pick]
    place = np.hypot(*(rows[pick, :2] - to_world(scenario, grid)).T)
    if place.max() > NODE_TOL_M:
        errors.append(f"{sid}: density row {pick[np.argmax(place)]} is {place.max():.3g} m off its grid node")
    gap = np.abs(rows[pick, 2] - mixture_log_density(grid, **params))
    if gap.max() > LOG_PROB_TOL:
        errors.append(f"{sid}: density row {pick[np.argmax(gap)]} log density off by {gap.max():.3g}")
    mass = float(np.exp(rows[:, 2]).sum() * spacing**2)
    if not mass <= 1.0:
        errors.append(f"{sid}: grid mass {mass} exceeds 1")
    return errors


# -- training --------------------------------------------------------------------
def loss_errors(spatial_losses, traj_losses) -> list[str]:
    errors = []
    if not all(math.isfinite(x) for x in [*spatial_losses, *traj_losses]):
        errors.append("a training loss is not finite")
    if not spatial_losses[-1] < spatial_losses[0]:
        errors.append(f"final spatial loss {spatial_losses[-1]} is not below the first {spatial_losses[0]}")
    return errors


def gradient_errors(analytic: dict, loss_at, params: dict, step: float = 1e-6, tol: float = 1e-4) -> list[str]:
    """Central differences of `loss_at()` against analytic gradient entries.

    `analytic` maps (name, flat index) to the gradient; `params` holds the
    arrays that `loss_at` reads, perturbed in place and restored.
    """
    errors = []
    for (name, idx), grad in analytic.items():
        flat = params[name].reshape(-1)
        original = flat[idx]
        flat[idx] = original + step
        up = loss_at()
        flat[idx] = original - step
        down = loss_at()
        flat[idx] = original
        numeric = (up - down) / (2.0 * step)
        rel = abs(grad - numeric) / (abs(grad) + abs(numeric) + 1e-8)
        if rel > tol:
            errors.append(f"gradient of {name}[{idx}]: tape {grad:.6g}, finite difference {numeric:.6g}")
    return errors


def is_bimodal(log_density: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> bool:
    """Two local maxima within 4 nats of the top that lie more than 5 m apart."""
    peaks = (log_density == maximum_filter(log_density, size=9)) & (log_density > log_density.max() - 4.0)
    pi, pj = np.nonzero(peaks)
    pts = np.stack([xs[pi], ys[pj]], axis=1)
    if len(pts) < 2:
        return False
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    return bool(d.max() > 5.0)
