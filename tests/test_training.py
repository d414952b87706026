import math

import numpy as np
import pytest

from gneva import autodiff as ad
from gneva.autodiff import ParamTape, Var, check_gradients
from gneva.dataio import SynthConfig, synth_generate, to_target_frame, vectorize
from gneva.encoders import (
    EncoderConfig,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
)
from gneva.errors import ValidationError
from gneva.training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    huber,
    lr_schedule,
    spatial_scene_loss,
    train_spatial,
    train_trajectory,
)

from helpers import elbo_oracle

ENC = EncoderConfig()


def target_frame_scenes(kind, n, seed, **synth_kwargs):
    return [
        to_target_frame(s)[0]
        for s in synth_generate(SynthConfig(n=n, seed=seed, **synth_kwargs), kind)
    ]


class TestLrSchedule:
    def test_endpoints(self):
        cfg = TrainConfig()
        assert lr_schedule(0, 5000, cfg) == 0.0
        assert lr_schedule(1000, 5000, cfg) == 1e-3
        assert abs(lr_schedule(5000, 5000, cfg) - 3e-7) < 1e-12

    def test_continuous_at_warmup(self):
        cfg = TrainConfig()
        left = lr_schedule(cfg.warmup_steps, 4000, cfg)
        right = lr_schedule(cfg.warmup_steps + 1, 4000, cfg)
        assert left == pytest.approx(cfg.peak_lr, abs=1e-12)
        assert right < left
        assert left - right < 1e-6

    def test_monotone_decay_after_warmup(self):
        cfg = TrainConfig()
        vals = [lr_schedule(s, 3000, cfg) for s in range(1000, 3001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_requires_total_beyond_warmup(self):
        with pytest.raises(ValidationError):
            lr_schedule(10, 1000, TrainConfig())


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        tape = ParamTape()
        tape.add_param("w", np.array([1.0, -2.0]))
        opt = OptimizerState.for_tape(tape)
        before = tape.params["w"].copy()
        adamw_step(tape, opt, lr=0.1, cfg=TrainConfig(weight_decay=0.0))
        assert np.array_equal(tape.params["w"], before)

    def test_decoupled_decay_scaling(self):
        tape = ParamTape()
        tape.add_param("w", np.array([1.0, -2.0, 0.5]))
        opt = OptimizerState.for_tape(tape)
        before = tape.params["w"].copy()
        adamw_step(tape, opt, lr=0.1, cfg=TrainConfig(weight_decay=0.001))
        assert tape.params["w"] == pytest.approx(before * (1.0 - 1e-4))

    def test_three_step_hand_trace(self):
        # Scalar parameter, constant gradient 1.0, lr 0.1, no decay.
        tape = ParamTape()
        tape.add_param("w", np.array([1.0]))
        opt = OptimizerState.for_tape(tape)
        cfg = TrainConfig(weight_decay=0.0)

        w, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in range(1, 4):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            w -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
            expected.append(w)

        for t in range(3):
            tape.grads["w"][...] = 1.0
            adamw_step(tape, opt, lr=0.1, cfg=cfg)
            assert tape.params["w"][0] == pytest.approx(expected[t], rel=1e-12)

    def test_convex_quadratic_converges(self):
        tape = ParamTape()
        rng = np.random.default_rng(0)
        tape.add_param("w", rng.normal(size=8))
        opt = OptimizerState.for_tape(tape)
        cfg = TrainConfig(weight_decay=0.0)
        norms = []
        for step in range(400):
            tape.zero_grads()
            tape.grads["w"][...] = tape.params["w"]  # grad of 0.5 ||w||^2
            adamw_step(tape, opt, lr=0.05 / (1.0 + 0.05 * step), cfg=cfg)
            norms.append(float(np.linalg.norm(tape.params["w"])))
        assert norms[-1] < 1e-3
        # Monotone decrease after warm-start, until the step-size floor.
        descending = [n for n in norms[20:] if n > 10 * 0.05]
        assert all(a >= b - 1e-12 for a, b in zip(descending, descending[1:]))


class TestHuber:
    def test_zero_residual(self):
        assert float(huber(Var(np.zeros((4, 2)))).value) == 0.0

    def test_piecewise_values(self):
        assert float(huber(Var(np.array([0.5]))).value) == pytest.approx(0.125)
        assert float(huber(Var(np.array([2.0]))).value) == pytest.approx(1.5)
        assert float(huber(Var(np.array([-2.0]))).value) == pytest.approx(1.5)

    def test_gradient(self):
        tape = ParamTape()
        tape.add_param("r", np.array([0.3, -0.2, 1.7, -4.0]))

        def loss(leaves):
            return huber(leaves["r"])

        report = check_gradients(tape, loss, tolerance=1e-6, n_samples=4)
        assert report.passed


class TestSpatialSceneLoss:
    def test_elbo_matches_float_path(self):
        tape = init_spatial_params(ENC, seed=3)
        s = target_frame_scenes("turn", 1, 31)[0]
        vs = vectorize(s, ENC)
        fw = forward_spatial(vs, tape, ENC)
        terms = spatial_scene_loss(s.goal(), fw, 1.0)
        uniform = np.full(ENC.C, 1 / ENC.C)
        ref = elbo_oracle(s.goal(), fw.mixture().components, np.log(uniform), fw.prior(), uniform)
        assert terms.elbo == pytest.approx(ref, abs=1e-9)

    def test_ce_of_uniform_vs_uniform_is_log_c(self):
        tape = init_spatial_params(ENC, seed=4)
        for name in tape.params:
            if name.startswith("zproxy"):
                tape.params[name][...] = 0.0
        s = target_frame_scenes("straight", 1, 32)[0]
        fw = forward_spatial(vectorize(s, ENC), tape, ENC)
        terms = spatial_scene_loss(s.goal(), fw, 1.0, q_target=np.full(ENC.C, 1 / ENC.C))
        assert terms.cross_entropy == pytest.approx(math.log(ENC.C), abs=1e-12)

    def test_lambda_z_separates_additively(self):
        # Gradients are affine in the CE weight, and parameters that only
        # feed the ELBO (posterior heads, prior) are untouched by it.
        tape = init_spatial_params(ENC, seed=5)
        s = target_frame_scenes("merge", 1, 33, H=5, T=5)[0]
        vs = vectorize(s, ENC)
        goal = s.goal()

        def grads_for(lz):
            tape.zero_grads()
            leaves = tape.leaves()
            fw = forward_spatial(vs, leaves, ENC)
            terms = spatial_scene_loss(goal, fw, lz)
            ad.backward(terms.loss)
            tape.accumulate_grads(leaves)
            return {k: g.copy() for k, g in tape.grads.items()}

        g1, g2, g3 = grads_for(1.0), grads_for(2.0), grads_for(3.0)
        for name in g1:
            assert np.allclose(g2[name] - g1[name], g3[name] - g2[name], atol=1e-12)
            if name.startswith(("ctx_head", "inter_head", "prior.")):
                assert np.allclose(g2[name], g1[name], atol=1e-14)
            if name.startswith("zproxy"):
                assert np.allclose(g2[name], 2.0 * g1[name], rtol=1e-10)

    def test_full_loss_gradient_check(self):
        tape = init_spatial_params(ENC, seed=7)
        s = target_frame_scenes("turn", 1, 4, H=5, T=5, dt=0.05)[0]
        vs = vectorize(s, ENC)
        goal = s.goal()
        q0 = spatial_scene_loss(goal, forward_spatial(vs, tape, ENC), 1.0).responsibilities

        def loss_fn(leaves):
            fw = forward_spatial(vs, leaves, ENC)
            return spatial_scene_loss(goal, fw, 1.0, q_target=q0).loss

        report = check_gradients(tape, loss_fn, tolerance=1e-4, n_samples=250, seed=3)
        assert report.n_checked >= 200
        assert report.passed, report.failures[:3]


class TestTrainingLoops:
    def test_spatial_progress_and_reproducibility(self):
        scenes = target_frame_scenes("straight", 48, 41)
        cfg = TrainConfig(batch_size=16, warmup_steps=5, max_steps=40, seed=11, epochs=999)
        tape_a, hist_a = train_spatial(scenes, init_spatial_params(ENC, seed=2), cfg, ENC)
        assert hist_a.losses[-1] < hist_a.losses[0]
        assert all(math.isfinite(l) for l in hist_a.losses)
        tape_b, hist_b = train_spatial(scenes, init_spatial_params(ENC, seed=2), cfg, ENC)
        assert hist_a.losses == hist_b.losses
        for name in tape_a.params:
            assert np.array_equal(tape_a.params[name], tape_b.params[name])

    def test_trajectory_progress(self):
        scenes = target_frame_scenes("straight", 48, 42)
        cfg = TrainConfig(batch_size=16, warmup_steps=5, max_steps=40, seed=12, epochs=999)
        spatial, _ = train_spatial(scenes, init_spatial_params(ENC, seed=3), cfg, ENC)
        traj = init_trajectory_params(ENC, horizon=scenes[0].T, seed=3)
        traj, hist = train_trajectory(scenes, spatial, traj, cfg, ENC)
        assert hist.losses[-1] < hist.losses[0]

    def test_dataset_smaller_than_batch_rejected(self):
        scenes = target_frame_scenes("straight", 3, 43)
        cfg = TrainConfig(batch_size=64, warmup_steps=5, max_steps=20, epochs=999)
        with pytest.raises(ValidationError):
            train_spatial(scenes, init_spatial_params(ENC, seed=4), cfg, ENC)

    def test_history_csv_round_trip(self, tmp_path):
        scenes = target_frame_scenes("straight", 16, 44)
        cfg = TrainConfig(batch_size=16, warmup_steps=2, max_steps=6, seed=13, epochs=999)
        _, hist = train_spatial(scenes, init_spatial_params(ENC, seed=5), cfg, ENC)
        path = tmp_path / "history.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss,elbo,ce"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert all(field != "" for field in first)
