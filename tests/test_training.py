import math

import numpy as np
import pytest

from gneva import autodiff as ad, encoders, training
from gneva.autodiff import ParamTape, Var, check_gradients
from gneva.cli import emit_density_grid
from gneva.dataio import SynthConfig, synth_generate, to_target_frame, vectorize
from gneva.encoders import (
    EncoderConfig,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
    load_spatial_model,
    load_trajectory_model,
    save_model,
)
from gneva.errors import ValidationError
from gneva.sampling import NmsConfig
from gneva.training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_diagnostics,
    grad_norm,
    huber,
    kmeans_centres,
    lr_schedule,
    spatial_context_features,
    spatial_scene_loss,
    train_spatial,
    train_trajectory,
)
from gneva.trajectory import predict_topk, trajectory_forward

from helpers import elbo_oracle, emitted_components

ENC = EncoderConfig()


def target_frame_scenes(kind, n, seed, **synth_kwargs):
    return [
        to_target_frame(s)[0]
        for s in synth_generate(SynthConfig(n=n, seed=seed, **synth_kwargs), kind)
    ]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"peak_lr": math.nan}, "peak_lr must be a finite number, got nan"),
            ({"weight_decay": math.inf}, "weight_decay must be a finite number, got inf"),
            ({"lambda_z": 10**400}, "lambda_z must be a finite number, got 1" + "0" * 400),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"max_steps": 0}, "max_steps must be an integer >= 1, got 0"),
            ({"epochs": 2.0}, "epochs must be an integer >= 1, got 2.0"),
            ({"final_lr": 1.0}, "final_lr must lie in (0, peak_lr=0.001), got 1.0"),
            ({"weight_decay": -1e-3}, "weight_decay must be >= 0, got -0.001"),
        ],
    )
    def test_rejects_a_bad_field_naming_it(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            TrainConfig(**kwargs)
        assert str(info.value) == message

    def test_accepts_ints_for_floats_and_no_step_cap(self):
        cfg = TrainConfig(peak_lr=1, final_lr=1e-9, max_steps=None, seed=0)
        assert cfg.peak_lr == 1 and cfg.max_steps is None


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
        adamw_step(tape, {"w": np.zeros(2)}, opt, lr=0.1, cfg=TrainConfig(weight_decay=0.0))
        assert np.array_equal(tape.params["w"], before)

    def test_decoupled_decay_scaling(self):
        tape = ParamTape()
        tape.add_param("w", np.array([1.0, -2.0, 0.5]))
        opt = OptimizerState.for_tape(tape)
        before = tape.params["w"].copy()
        adamw_step(tape, {"w": np.zeros(3)}, opt, lr=0.1, cfg=TrainConfig(weight_decay=0.001))
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
            adamw_step(tape, {"w": np.ones(1)}, opt, lr=0.1, cfg=cfg)
            assert tape.params["w"][0] == pytest.approx(expected[t], rel=1e-12)

    def test_convex_quadratic_converges(self):
        tape = ParamTape()
        rng = np.random.default_rng(0)
        tape.add_param("w", rng.normal(size=8))
        opt = OptimizerState.for_tape(tape)
        cfg = TrainConfig(weight_decay=0.0)
        norms = []
        for step in range(400):
            grads = {"w": tape.params["w"].copy()}  # grad of 0.5 ||w||^2
            adamw_step(tape, grads, opt, lr=0.05 / (1.0 + 0.05 * step), cfg=cfg)
            norms.append(float(np.linalg.norm(tape.params["w"])))
        assert norms[-1] < 1e-3
        # Monotone decrease after warm-start, until the step-size floor.
        descending = [n for n in norms[20:] if n > 10 * 0.05]
        assert all(a >= b - 1e-12 for a, b in zip(descending, descending[1:]))


    @pytest.mark.parametrize("weight_decay", [1e-3, 0.0, 0.6])
    def test_matches_out_of_place_formula_bit_for_bit(self, weight_decay):
        # A batched (B, N, hidden) parameter and a single row, three steps against
        # the textbook formula written out of place; reordering any operation of
        # the in-place update changes some bits here.
        rng = np.random.default_rng(31)
        shapes = {"batched": (3, 5, 16), "row": (16,)}
        tape = ParamTape()
        for name, shape in shapes.items():
            tape.add_param(name, rng.normal(size=shape) * np.exp(rng.uniform(-3.0, 3.0, size=shape)))
        opt = OptimizerState.for_tape(tape)
        cfg = TrainConfig(weight_decay=weight_decay)
        ref = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in tape.params.items()}
        for step, lr in enumerate([3e-3, 0.37, 7e-4], start=1):
            grads = {
                name: rng.normal(size=shape) * np.exp(rng.uniform(-4.0, 2.0, size=shape))
                for name, shape in shapes.items()
            }
            adamw_step(tape, grads, opt, lr, cfg)
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for name, (p, m, v) in ref.items():
                g = grads[name]
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                p = p - lr * ((m / bc1) / (np.sqrt(v / bc2) + 1e-8))
                if weight_decay > 0.0:
                    p = p - lr * weight_decay * p
                ref[name] = (p, m, v)
                for got, want in ((tape.params[name], p), (opt.m[name], m), (opt.v[name], v)):
                    assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_leaves_the_gradients_alone(self):
        rng = np.random.default_rng(32)
        tape = ParamTape()
        tape.add_param("w", rng.normal(size=(4, 3)))
        grads = {"w": rng.normal(size=(4, 3))}
        before = grads["w"].copy()
        adamw_step(tape, grads, OptimizerState.for_tape(tape), 1e-2, TrainConfig())
        assert np.array_equal(grads["w"], before)


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

    @staticmethod
    def reference(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mean Huber penalty at threshold 1 and its gradient, written piecewise."""
        inside = np.abs(r) <= 1.0
        value = np.where(inside, 0.5 * r * r, np.abs(r) - 0.5).sum() * (1.0 / r.size)
        grad = np.where(inside, r, np.sign(r)) * (1.0 / r.size)
        return value, grad

    def assert_matches_reference(self, r: np.ndarray) -> None:
        residual = ad.leaf(r)
        loss = huber(residual)
        ad.backward(loss)
        value, grad = self.reference(r)
        assert loss.value.tobytes() == value.tobytes(), r
        assert residual.grad.shape == r.shape and residual.grad.tobytes() == grad.tobytes(), r

    @pytest.mark.parametrize("r", [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e3, -1e3])
    def test_value_and_gradient_bytes_match_the_piecewise_formula(self, r):
        self.assert_matches_reference(np.array([r]))

    def test_value_and_gradient_bytes_match_on_random_arrays(self):
        rng = np.random.default_rng(31)
        edges = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e3, -1e3])
        self.assert_matches_reference(edges)
        for scale in (1e-3, 0.3, 1.0, 3.0, 1e3):
            for shape in ((7,), (16, 30, 2)):
                r = rng.normal(scale=scale, size=shape)
                r.flat[: len(edges)] = edges  # the kink and zero inside every array
                self.assert_matches_reference(r)


class TestSpatialSceneLoss:
    def test_elbo_matches_float_path(self):
        tape = init_spatial_params(ENC, seed=3)
        s = target_frame_scenes("turn", 1, 31)[0]
        vs = vectorize(s, ENC)
        fw = forward_spatial(vs, tape, ENC)
        terms = spatial_scene_loss(s.goal(), fw, 1.0)
        uniform = np.full(ENC.C, 1 / ENC.C)
        comps, prior = emitted_components(fw)
        ref = elbo_oracle(s.goal(), comps, np.log(uniform), prior, uniform)
        assert terms.elbo == pytest.approx(ref, abs=1e-9)

    def test_prior_is_built_by_the_loss_alone(self, monkeypatch, tmp_path):
        enc = EncoderConfig(hidden=16, n_heads=2, C=3)
        spatial, traj = init_spatial_params(enc, seed=5), init_trajectory_params(enc, horizon=30, seed=5)
        original, calls = encoders.prior_vars, []

        def counted(leaves):
            calls.append(leaves)
            return original(leaves)

        for module in (encoders, training):
            monkeypatch.setattr(module, "prior_vars", counted, raising=False)
        scenes = synth_generate(SynthConfig(n=2, seed=6), "turn")
        projected = [to_target_frame(s)[0] for s in scenes]
        predict_topk(projected[0], spatial, traj, NmsConfig(), enc)
        emit_density_grid(spatial, enc, scenes[0], 0.5, tmp_path / "density.csv")
        assert calls == []
        vectors, goals = [vectorize(p, enc) for p in projected], np.stack([p.goal() for p in projected])
        for fw, goal in ((forward_spatial(vectors, spatial.leaves(), enc), goals),
                         (forward_spatial(vectors[0], spatial, enc), goals[0])):
            del calls[:]
            spatial_scene_loss(goal, fw, 1.0)
            assert len(calls) == 1 and calls[0] is fw.leaves

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
            leaves = tape.leaves()
            fw = forward_spatial(vs, leaves, ENC)
            terms = spatial_scene_loss(goal, fw, lz)
            ad.backward(terms.loss)
            return ad.leaf_gradients(leaves)

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


class TestBatchedLoss:
    def test_batch_equals_mean_of_batches_of_one(self):
        tape = init_spatial_params(ENC, seed=6)
        scenes = (
            target_frame_scenes("turn", 2, 34)
            + target_frame_scenes("straight", 2, 35)
            + target_frame_scenes("merge", 2, 36)
        )
        vectors = [vectorize(s, ENC) for s in scenes]
        goals = np.stack([s.goal() for s in scenes])

        def grads_of(loss_fn):
            leaves = tape.leaves()
            loss = loss_fn(leaves)
            ad.backward(loss)
            return float(loss.value), ad.leaf_gradients(leaves)

        def batched(leaves):
            terms = spatial_scene_loss(goals, forward_spatial(vectors, leaves, ENC), 1.0)
            assert terms.loss.value.shape == (len(scenes),)
            assert terms.responsibilities.shape == (len(scenes), ENC.C)
            return ad.vmean(terms.loss)

        def one_by_one(leaves):
            losses = [
                spatial_scene_loss(g, forward_spatial(v, leaves, ENC), 1.0).loss
                for v, g in zip(vectors, goals)
            ]
            return ad.vmean(ad.concat([ad.reshape(x, (1,)) for x in losses], axis=0))

        loss_b, grads_b = grads_of(batched)
        loss_1, grads_1 = grads_of(one_by_one)
        assert loss_b == pytest.approx(loss_1, rel=1e-10)
        for name, g in grads_1.items():
            assert np.allclose(grads_b[name], g, rtol=1e-10, atol=1e-10 * (np.abs(g).max() + 1e-300)), name


class TestKmeansCentres:
    def test_two_separated_clusters(self):
        rng = np.random.default_rng(0)
        left = rng.normal([14.0, 12.0], 0.5, size=(30, 2))
        right = rng.normal([14.0, -12.0], 0.5, size=(20, 2))
        goals = np.concatenate([left, right])
        centres = kmeans_centres(goals, 2, np.random.default_rng(5))
        assert np.array_equal(centres, kmeans_centres(goals, 2, np.random.default_rng(5)))
        assert centres.shape == (2, 2)
        # One centre per cluster, each the mean of the goals nearest to it.
        assign = np.argmin(((goals[:, None] - centres[None]) ** 2).sum(-1), axis=1)
        assert sorted(np.bincount(assign, minlength=2)) == [20, 30]
        for k in range(2):
            assert np.allclose(centres[k], goals[assign == k].mean(axis=0), atol=1e-12)
        assert np.allclose(sorted(centres[:, 1]), [right[:, 1].mean(), left[:, 1].mean()])

    def test_empty_cluster_keeps_its_centre(self):
        goals = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        centres = kmeans_centres(goals, 3, np.random.default_rng(0))
        assert np.array_equal(centres, np.tile([1.0, 2.0], (3, 1)))


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
        # Trained tapes keep their parameters only, not the last step's gradients.
        assert vars(spatial).keys() == vars(traj).keys() == {"params"}

    def test_mixed_horizons_refused_before_the_trunk_naming_the_scenario(self, monkeypatch):
        scenes = target_frame_scenes("straight", 3, 45) + target_frame_scenes("turn", 2, 45, T=20)
        cfg = TrainConfig(batch_size=2, warmup_steps=1, max_steps=2, epochs=999)

        def trunk_must_not_run(*args, **kwargs):
            raise AssertionError("context features computed before the horizon check")

        monkeypatch.setattr(training, "spatial_context_features", trunk_must_not_run)
        traj = init_trajectory_params(ENC, horizon=30, seed=4)
        with pytest.raises(ValidationError) as caught:
            train_trajectory(scenes, init_spatial_params(ENC, seed=4), traj, cfg, ENC)
        message = str(caught.value)
        assert f"scenario {scenes[3].scenario_id!r} has T=20" in message
        assert f"scenario {scenes[0].scenario_id!r} has T=30" in message

    def test_head_of_another_horizon_refused_naming_both(self):
        scenes = target_frame_scenes("straight", 4, 45)
        cfg = TrainConfig(batch_size=2, warmup_steps=1, max_steps=2, epochs=999)
        traj = init_trajectory_params(ENC, horizon=20, seed=4)
        with pytest.raises(ValidationError, match=r"predicts T=20 steps.* have T=30"):
            train_trajectory(scenes, init_spatial_params(ENC, seed=4), traj, cfg, ENC)

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
        usage = ",".join(f"usage_{c}" for c in range(ENC.C))
        spread = ",".join(f"eta_spread_{c}" for c in range(ENC.C))
        assert lines[0] == "step,lr,loss,elbo,ce,grad_norm," + usage + ",q_entropy," + spread
        assert len(lines) == 7
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert all(field != "" for field in first)

    def test_history_tracks_gradient_norm_and_component_usage(self, tmp_path):
        scenes = target_frame_scenes("straight", 16, 44)
        cfg = TrainConfig(batch_size=16, warmup_steps=2, max_steps=4, seed=13, epochs=999)
        spatial, hist = train_spatial(scenes, init_spatial_params(ENC, seed=5), cfg, ENC)
        for row in hist.rows:
            assert row["grad_norm"] > 0.0
            usage = [row[f"usage_{c}"] for c in range(ENC.C)]
            assert sum(usage) == pytest.approx(1.0, abs=1e-12)  # mean of simplex rows
            assert 0.0 <= row["q_entropy"] <= math.log(ENC.C) + 1e-12
            assert all(row[f"eta_spread_{c}"] >= 0.0 for c in range(ENC.C))
            assert f"usage_{ENC.C}" not in row and f"eta_spread_{ENC.C}" not in row
        traj = init_trajectory_params(ENC, horizon=scenes[0].T, seed=5)
        _, traj_hist = train_trajectory(scenes, spatial, traj, cfg, ENC)
        path = tmp_path / "traj.csv"
        traj_hist.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss,elbo,ce,grad_norm"
        step, _, _, elbo, ce, norm = lines[1].split(",")
        assert (step, elbo, ce) == ("1", "", "") and float(norm) > 0.0


def reference_loop(tape, n_scenes, cfg, step_loss):
    """AdamW training written out with one explicit gradient accumulator per parameter.

    Each step zeroes the accumulators, adds every reached leaf's gradient
    into them, and steps from them; `step_loss(batch, leaves)` returns the
    batch loss and the step's extra history columns.
    """
    total = min(cfg.epochs * (n_scenes // cfg.batch_size), cfg.max_steps)
    rng = np.random.default_rng(cfg.seed)
    order, start = rng.permutation(n_scenes), 0
    opt = OptimizerState.for_tape(tape)
    rows = []
    for step in range(1, total + 1):
        if start + cfg.batch_size > n_scenes:
            order, start = rng.permutation(n_scenes), 0
        batch = order[start : start + cfg.batch_size]
        start += cfg.batch_size
        accumulators = {name: np.zeros_like(p) for name, p in tape.params.items()}
        leaves = tape.leaves()
        loss, columns = step_loss(batch, leaves)
        ad.backward(loss)
        for name, leaf_var in leaves.items():
            if leaf_var.grad is not None:
                accumulators[name] += leaf_var.grad
        lr = lr_schedule(step, total, cfg)
        norm = math.sqrt(sum(float(np.vdot(g, g)) for g in accumulators.values()))
        adamw_step(tape, accumulators, opt, lr, cfg)
        rows.append({"step": step, "lr": lr, "loss": float(loss.value), "grad_norm": norm, **columns})
    return rows


def same_history(rows, reference):
    """Equal keys, and every value equal bit for bit (None where the loop logs no column)."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for key, value in row.items():
            want = ref.get(key)
            assert (value is None) == (want is None), key
            if value is not None:
                assert np.asarray(value).tobytes() == np.asarray(want).tobytes(), (row["step"], key)


class TestOneStepLoop:
    """Both training loops step from the leaves' gradients, bit for bit as with explicit accumulators."""

    ENC = EncoderConfig(hidden=32, n_heads=2, C=3)
    # 12 scenes in batches of 4: the 7 steps reshuffle twice.
    CFG = TrainConfig(batch_size=4, warmup_steps=2, max_steps=7, epochs=999, seed=17, weight_decay=0.6)

    @pytest.fixture(scope="class")
    def scenes(self):
        return [s for kind in ("turn", "straight", "merge") for s in target_frame_scenes(kind, 4, 51)]

    def test_spatial_matches_the_accumulator_loop(self, scenes):
        enc, cfg = self.ENC, self.CFG
        tape, history = train_spatial(scenes, init_spatial_params(enc, seed=8), cfg, enc)

        ref = init_spatial_params(enc, seed=8)
        vectors = [vectorize(s, enc) for s in scenes]
        goals = np.stack([s.goal() for s in scenes])
        centres = kmeans_centres(goals, enc.C, np.random.default_rng(cfg.seed))
        ref.params["ctx_head.l2.b"][: 2 * enc.C] = centres.reshape(-1)

        def step_loss(batch, leaves):
            fw = forward_spatial([vectors[i] for i in batch], leaves, enc)
            terms = spatial_scene_loss(goals[batch], fw, cfg.lambda_z)
            q_entropy, eta_spread = batch_diagnostics(terms.responsibilities, fw.eta.value)
            usage = terms.responsibilities.mean(axis=0)
            return ad.vmean(terms.loss), {
                "elbo": float(terms.elbo.mean()), "ce": float(terms.cross_entropy.mean()),
                **{f"usage_{c}": usage[c] for c in range(enc.C)}, "q_entropy": q_entropy,
                **{f"eta_spread_{c}": eta_spread[c] for c in range(enc.C)},
            }

        same_history(history.rows, reference_loop(ref, len(scenes), cfg, step_loss))
        for name, value in ref.params.items():
            assert tape.params[name].tobytes() == value.tobytes(), name

    def test_trajectory_matches_the_accumulator_loop(self, scenes):
        enc, cfg = self.ENC, self.CFG
        spatial = init_spatial_params(enc, seed=9)
        horizon = scenes[0].T
        tape, history = train_trajectory(scenes, spatial, init_trajectory_params(enc, horizon, seed=9), cfg, enc)

        ref = init_trajectory_params(enc, horizon, seed=9)
        contexts = spatial_context_features(scenes, spatial, enc)
        goals = np.stack([s.goal() for s in scenes])
        futures = np.stack([s.future_waypoints() for s in scenes])

        def step_loss(batch, leaves):
            pred = trajectory_forward(Var(contexts[batch]), goals[batch], leaves)
            return huber(ad.sub(pred, Var(futures[batch]))), {}

        same_history(history.rows, reference_loop(ref, len(scenes), cfg, step_loss))
        for name, value in ref.params.items():
            assert tape.params[name].tobytes() == value.tobytes(), name

    def test_tapes_hold_parameters_only(self, tmp_path):
        enc = self.ENC
        spatial, traj = init_spatial_params(enc, seed=1), init_trajectory_params(enc, horizon=5, seed=1)
        save_model(tmp_path / "spatial.json", spatial, enc)
        save_model(tmp_path / "traj.json", traj, enc)
        loaded_spatial, _ = load_spatial_model(tmp_path / "spatial.json")
        loaded_traj, _ = load_trajectory_model(tmp_path / "traj.json")
        for tape in (spatial, traj, spatial.copy(), traj.copy(), loaded_spatial, loaded_traj):
            assert vars(tape).keys() == {"params"}


class TestBatchDiagnostics:
    def test_entropy_and_eta_spread(self):
        resp = np.array([[1.0, 0.0], [0.5, 0.5]])
        # Component 0 moves 2 m between the scenes, component 1 stays put.
        eta = np.array([[[0.0, 0.0], [3.0, 1.0]], [[2.0, 0.0], [3.0, 1.0]]])
        entropy, spread = batch_diagnostics(resp, eta)
        assert entropy == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert spread.tolist() == [1.0, 0.0]


class TestGradNorm:
    def test_global_l2_norm(self):
        assert grad_norm({"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}) == 5.0
