"""Negative controls: each oracle passes gneva's real output and fails a corrupted copy.

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gneva.cli  # noqa: E402
from gneva import dataio, encoders, sampling, trajectory  # noqa: E402

import oracles  # noqa: E402

SPACING, RADIUS, K = 0.5, 2.0, 6


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """One synthetic turn scene, predicted and exported by an untrained model."""
    tmp = tmp_path_factory.mktemp("oracles")
    scenario = dataio.synth_generate(dataio.SynthConfig(n=1, seed=5), "turn")[0]
    scenario_path = tmp / "scene.json"
    dataio.save_scenario(scenario, scenario_path)
    enc = encoders.EncoderConfig()
    spatial = encoders.init_spatial_params(enc, seed=3)
    traj = encoders.init_trajectory_params(enc, horizon=scenario.T, seed=3)
    projected, transform = dataio.to_target_frame(dataio.load_scenario(scenario_path))
    topk = trajectory.predict_topk(projected, spatial, traj, sampling.NmsConfig(), enc, spacing=SPACING)
    pred_path = tmp / "pred.json"
    trajectory.save_predictions(pred_path, scenario.scenario_id, trajectory.predictions_to_world(topk, transform))
    csv_path = tmp / "density.csv"
    gneva.cli.emit_density_grid(spatial, enc, dataio.load_scenario(scenario_path), SPACING, csv_path)
    fw = encoders.forward_spatial(dataio.vectorize(projected, enc), spatial, enc)
    params = {
        "eta": fw.eta.value,
        "beta": fw.beta.value,
        "chol": fw.chol.value,
        "nu": fw.nu.value,
        "weights": fw.weights.value,
    }
    return {
        "scenario": oracles.read_json(scenario_path),
        "prediction": oracles.read_json(pred_path),
        "params": params,
        "csv": csv_path,
        "tmp": tmp,
    }


def errors_for(case, prediction):
    return oracles.prediction_errors(case["scenario"], prediction, case["params"], SPACING, RADIUS, K)


def move_goal(case, prediction, i, target_point, log_prob=None):
    """Put goal i at a target-frame point, endpoint and (optionally) log density with it."""
    world = oracles.to_world(case["scenario"], target_point)[0]
    prediction["predictions"][i]["waypoints"][-1] = [float(world[0]), float(world[1])]
    if log_prob is not None:
        prediction["predictions"][i]["goal_log_prob"] = float(log_prob)


def test_real_prediction_passes(case):
    assert errors_for(case, case["prediction"]) == []


def test_swapped_goals_fail(case):
    bad = copy.deepcopy(case["prediction"])
    bad["predictions"][0], bad["predictions"][1] = bad["predictions"][1], bad["predictions"][0]
    assert any("sorted" in e for e in errors_for(case, bad))


def test_log_density_off_by_1e_6_fails(case):
    bad = copy.deepcopy(case["prediction"])
    bad["predictions"][2]["goal_log_prob"] -= 1e-6
    assert any("log density off" in e for e in errors_for(case, bad))


def test_goal_off_grid_fails(case):
    bad = copy.deepcopy(case["prediction"])
    goal = oracles.to_target(case["scenario"], [bad["predictions"][3]["waypoints"][-1]])
    move_goal(case, bad, 3, goal + np.array([0.25, 0.0]))
    assert any("nearest grid node" in e for e in errors_for(case, bad))


def test_endpoint_shifted_by_1cm_fails(case):
    bad = copy.deepcopy(case["prediction"])
    bad["predictions"][4]["waypoints"][-1][0] += 0.01
    assert any("ends" in e for e in errors_for(case, bad))


def test_goal_that_greedy_nms_would_not_pick_fails(case):
    """A valid, well-spaced grid node with its true density, but not the greedy choice."""
    bad = copy.deepcopy(case["prediction"])
    grid = oracles.grid_points(case["scenario"], SPACING)
    lp = oracles.mixture_log_density(grid, **case["params"])
    goals = oracles.to_target(case["scenario"], [p["waypoints"][-1] for p in bad["predictions"]])
    far = np.min(np.hypot(grid[:, None, 0] - goals[None, :5, 0], grid[:, None, 1] - goals[None, :5, 1]), axis=1)
    ok = (far > 2 * RADIUS + 0.1) & (lp < bad["predictions"][4]["goal_log_prob"])
    weakest = np.flatnonzero(ok)[np.argmin(lp[ok])]
    move_goal(case, bad, 5, grid[weakest], lp[weakest])
    errors = errors_for(case, bad)
    assert errors and all("greedy choice" in e for e in errors)


def test_goals_closer_than_2r_fail(case):
    bad = copy.deepcopy(case["prediction"])
    grid = oracles.grid_points(case["scenario"], SPACING)
    goal0 = oracles.to_target(case["scenario"], [bad["predictions"][0]["waypoints"][-1]])[0]
    near = goal0 + np.array([1.0, 0.0])
    lp = oracles.mixture_log_density(near, **case["params"])[0]
    move_goal(case, bad, 5, near, lp)
    assert np.min(np.hypot(*(grid - near).T)) < 1e-6
    assert any("less than 2r" in e for e in errors_for(case, bad))


def test_nms_edge_at_exactly_2r_is_allowed():
    grid = np.array([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0], [20.0, 0.0]])
    lp = np.array([0.0, -0.5, -1.0, -0.1])
    # Nodes 1 and 2 sit exactly 2r from a goal: keeping or dropping them are both greedy NMS.
    assert oracles.greedy_nms_errors(grid, lp, grid[[0, 3, 1]], 2.0, 3) == []
    assert oracles.greedy_nms_errors(grid, lp, grid[[0, 3, 2]], 2.0, 3) == []
    # Node 3 is clear of every goal and scores higher, so it must come second.
    assert oracles.greedy_nms_errors(grid, lp, grid[[0, 1, 3]], 2.0, 3) != []


def test_eval_report_mismatch_fails(case):
    truth = oracles.displacement([case["prediction"]], [case["scenario"]], K)
    report = {"made_k": truth["made"], "mfde_k": truth["mfde"], "miss_rate_k": truth["miss_rate"]}
    assert oracles.eval_report_errors(report, truth) == []
    report["mfde_k"] += 1e-6
    assert oracles.eval_report_errors(report, truth) != []


def test_displacement_by_hand():
    scenario = {
        "target_id": "a",
        "H": 1,
        "T": 2,
        "agents": [{"id": "a", "states": [{"t": 1, "x": 0, "y": 0}, {"t": 2, "x": 1, "y": 0}, {"t": 3, "x": 2, "y": 0}]}],
    }
    pred = {"predictions": [{"waypoints": [[1, 3], [2, 4]]}, {"waypoints": [[1, 0], [2, 1]]}]}
    out = oracles.displacement([pred], [scenario], 2)
    assert out == {"made": 0.5, "mfde": 1.0, "miss_rate": 0.0}


def test_density_checks(case):
    rng = np.random.default_rng(0)
    args = (case["scenario"], case["csv"], case["params"], SPACING)
    assert oracles.density_errors(*args, rng) == []
    lines = case["csv"].read_text().splitlines()

    def corrupted(name, rows):
        path = case["tmp"] / name
        path.write_text("\n".join(rows) + "\n")
        return oracles.density_errors(case["scenario"], path, case["params"], SPACING, rng, n_samples=len(rows))

    assert any("rows" in e for e in corrupted("short.csv", lines[:-1]))
    x, y, lp = lines[7].split(",")
    shifted = lines[:7] + [f"{x},{y},{float(lp) + 1e-6!r}"] + lines[8:]
    assert any("log density off" in e for e in corrupted("lp.csv", shifted))
    heavy = [lines[0]] + [f"{r.rsplit(',', 1)[0]},{float(r.rsplit(',', 1)[1]) + 10.0!r}" for r in lines[1:]]
    assert any("mass" in e for e in corrupted("heavy.csv", heavy))


def test_loss_checks():
    assert oracles.loss_errors([3.0, 2.0], [1.0]) == []
    assert oracles.loss_errors([3.0, 4.0], [1.0]) != []
    assert oracles.loss_errors([3.0, 2.0], [math.nan]) != []


def test_gradient_check_catches_a_wrong_gradient():
    params = {"w": np.array([0.3, -1.2])}

    def loss():
        w = params["w"]
        return float(np.sum(w**3) + w[0] * w[1])

    right = {("w", 0): 3 * 0.3**2 - 1.2, ("w", 1): 3 * 1.2**2 + 0.3}
    assert oracles.gradient_errors(right, loss, params) == []
    wrong = {key: value * 1.01 for key, value in right.items()}
    assert len(oracles.gradient_errors(wrong, loss, params)) == 2
    assert np.array_equal(params["w"], [0.3, -1.2])


def test_bimodality():
    xs, ys = np.linspace(0, 25, 126), np.linspace(-20, 20, 201)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    one = -((xx - 14) ** 2 + (yy - 13) ** 2) / 20
    two = np.logaddexp(one, -((xx - 14) ** 2 + (yy + 13) ** 2) / 20)
    assert not oracles.is_bimodal(one, xs, ys)
    assert oracles.is_bimodal(two, xs, ys)

