import numpy as np
import pytest

from gneva.cli import emit_density_grid
from gneva.dataio import SynthConfig, synth_generate, to_target_frame
from gneva.encoders import EncoderConfig, init_spatial_params, init_trajectory_params
from gneva.mixture import MixturePosterior
from gneva.sampling import NmsConfig, circle_iou
from gneva.trajectory import (
    Predictions,
    complete_trajectory,
    load_predictions,
    predict_topk,
    predictions_to_world,
    save_predictions,
)
from gneva.training import TrainConfig, train_spatial, train_trajectory

ENC = EncoderConfig()


@pytest.fixture(scope="module")
def tapes():
    scenes = [
        to_target_frame(s)[0]
        for s in synth_generate(SynthConfig(n=48, seed=51), "straight")
    ]
    cfg = TrainConfig(
        batch_size=16, warmup_steps=5, max_steps=150, seed=9, epochs=999,
        peak_lr=3e-3, final_lr=3e-4,
    )
    spatial, _ = train_spatial(scenes, init_spatial_params(ENC, seed=9), cfg, ENC)
    traj = init_trajectory_params(ENC, horizon=scenes[0].T, seed=9)
    traj, _ = train_trajectory(scenes, spatial, traj, cfg, ENC)
    return spatial, traj, scenes


class TestCompleteTrajectory:
    def test_endpoint_pinned_to_goal(self, tapes):
        spatial, traj, scenes = tapes
        rng = np.random.default_rng(0)
        ctx = rng.normal(size=(1, ENC.hidden))
        goal = np.array([12.0, -3.0])
        wp = complete_trajectory(ctx, goal, traj, ENC, horizon=30)
        assert wp.shape == (30, 2)
        assert np.array_equal(wp[-1], goal)

    def test_deterministic(self, tapes):
        _, traj, _ = tapes
        ctx = np.ones((1, ENC.hidden))
        a = complete_trajectory(ctx, [5.0, 1.0], traj, ENC, horizon=30)
        b = complete_trajectory(ctx, [5.0, 1.0], traj, ENC, horizon=30)
        assert np.array_equal(a, b)


class TestPredictTopk:
    def test_pipeline_contracts(self, tapes):
        spatial, traj, _ = tapes
        held = to_target_frame(synth_generate(SynthConfig(n=1, seed=52), "straight")[0])[0]
        cfg = NmsConfig()
        out = predict_topk(held, spatial, traj, cfg, ENC)
        assert 1 <= len(out) <= cfg.k
        probs = out.goal_log_probs.tolist()
        assert probs == sorted(probs, reverse=True)
        assert out.waypoints.shape == (len(out), held.T, 2)
        goals = out.waypoints[:, -1]
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert circle_iou(goals[i], goals[j], cfg.radius) <= cfg.iou_threshold
                assert np.linalg.norm(goals[i] - goals[j]) >= 2 * cfg.radius

    def test_deterministic(self, tapes):
        spatial, traj, _ = tapes
        held = to_target_frame(synth_generate(SynthConfig(n=1, seed=53), "merge")[0])[0]
        a = predict_topk(held, spatial, traj, NmsConfig(), ENC)
        b = predict_topk(held, spatial, traj, NmsConfig(), ENC)
        assert len(a) == len(b)
        assert np.array_equal(a.waypoints, b.waypoints)
        assert np.array_equal(a.goal_log_probs, b.goal_log_probs)

    def test_trained_straight_scene_tracks_ground_truth(self, tapes):
        # After training on straight scenes, the best of k completions stays
        # near the constant-velocity ground truth.
        spatial, traj, _ = tapes
        worst_best = 0.0
        for s in synth_generate(SynthConfig(n=5, seed=54), "straight"):
            held, _ = to_target_frame(s)
            out = predict_topk(held, spatial, traj, NmsConfig(), ENC)
            gt = held.future_waypoints()
            best = min(float(np.hypot(*(wp - gt).T).mean()) for wp in out.waypoints)
            worst_best = max(worst_best, best)
        assert worst_best < 5.0

    def test_teacher_forced_completion_stays_on_line(self, tapes):
        # With the ground-truth goal supplied, intermediate waypoints of a
        # straight scene stay within half a meter of the lane line.
        from gneva.dataio import vectorize
        from gneva.encoders import forward_spatial

        spatial, traj, _ = tapes
        worst = 0.0
        for s in synth_generate(SynthConfig(n=5, seed=55), "straight"):
            held, _ = to_target_frame(s)
            fw = forward_spatial(vectorize(held, ENC), spatial, ENC)
            wp = complete_trajectory(fw.context_feature.value, held.goal(), traj, ENC, held.T)
            worst = max(worst, float(np.abs(wp[:, 1]).max()))
        assert worst < 0.5


class TestPredictionIO:
    def test_round_trip(self, tmp_path):
        waypoints = np.stack([np.random.default_rng(seed).normal(size=(10, 2)) for seed in (1, 2)])
        preds = Predictions(waypoints, np.array([-2.5, -3.5]))
        path = tmp_path / "pred.json"
        save_predictions(path, "scene-1", preds)
        sid, loaded = load_predictions(path)
        assert sid == "scene-1"
        assert len(loaded) == 2
        assert np.allclose(loaded.waypoints, preds.waypoints)
        assert loaded.goal_log_probs.tolist() == [-2.5, -3.5]

    def test_world_frame_mapping(self):
        s = synth_generate(SynthConfig(n=1, seed=55), "straight")[0]
        projected, transform = to_target_frame(s)
        preds = Predictions(projected.future_waypoints()[None], np.array([-1.0]))
        world = predictions_to_world(preds, transform)
        assert np.allclose(world.waypoints[0], s.future_waypoints(), atol=1e-9)
        assert world.goal_log_probs.tolist() == [-1.0]


class TestHotPath:
    def test_prediction_and_density_build_no_component_objects(self, tapes, tmp_path, monkeypatch):
        # The mixture posterior stays arrays from the forward pass to the grid: each
        # scene builds one posterior holding every component, and none per component.
        spatial, traj, scenes = tapes
        built, init = [], MixturePosterior.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.n_components)

        monkeypatch.setattr(MixturePosterior, "__init__", recording)
        topk = predict_topk(scenes[0], spatial, traj, NmsConfig(k=6), ENC)
        assert len(topk) == 6
        assert emit_density_grid(spatial, ENC, scenes[1], 1.0, tmp_path / "density.csv") > 0
        assert built == [ENC.C, ENC.C]
