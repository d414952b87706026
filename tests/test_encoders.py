import json
import re

import numpy as np
import pytest

from gneva import autodiff as ad
from gneva.autodiff import Var, check_gradients
from gneva.dataio import SynthConfig, synth_generate, to_target_frame, vectorize
from gneva.encoders import (
    EncoderConfig,
    context_attention,
    encode_polylines,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
    interaction_attention,
    load_spatial_model,
    load_trajectory_model,
    save_model,
    self_attention_block,
    z_proxy_logits,
)
from gneva.errors import ShapeMismatch, ValidationError

from helpers import emitted_components


CFG = EncoderConfig()


@pytest.fixture(scope="module")
def tape():
    return init_spatial_params(CFG, seed=7)


@pytest.fixture(scope="module")
def scene():
    s = synth_generate(SynthConfig(n=1, seed=21), "merge")[0]
    proj, _ = to_target_frame(s)
    return vectorize(proj, CFG)


def split_tokens(enc, b=0):
    """Map, target and surrounding rows of scene b's valid token slots."""
    tokens = enc.tokens.value[b]
    n_surr = int(enc.valid[b, enc.n_map + 1 :].sum())
    n_map = int(enc.valid[b, : enc.n_map].sum())
    return tokens[:n_map], tokens[enc.n_map : enc.n_map + 1], tokens[enc.n_map + 1 : enc.n_map + 1 + n_surr]


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValidationError):
            EncoderConfig(hidden=100, n_heads=3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hidden": 128.0}, "hidden must be an integer >= 1, got 128.0"),
            ({"C": True}, "C must be an integer >= 1, got True"),
            ({"L_i": 0}, "L_i must be an integer >= 1, got 0"),
            ({"max_polylines": "64"}, "max_polylines must be an integer >= 1, got '64'"),
            ({"hidden": 2048}, "hidden must be at most 1024, got 2048"),
        ],
    )
    def test_rejects_a_field_of_the_wrong_kind_naming_it(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EncoderConfig(**kwargs)


class TestEncodePolylines:
    def test_shapes(self, tape, scene):
        enc = encode_polylines([scene], tape, CFG)
        n_map, n_surr = len(scene.map_polylines), len(scene.surrounding)
        assert enc.n_map == n_map
        assert enc.tokens.value.shape == (1, n_map + 1 + n_surr, CFG.hidden)
        m, e, o = split_tokens(enc)
        assert m.shape == (n_map, CFG.hidden)
        assert e.shape == (1, CFG.hidden)
        assert o.shape == (n_surr, CFG.hidden)
        assert enc.valid.all()
        assert np.array_equal(enc.observed[0], scene.surrounding_observed)

    def test_empty_surrounding(self, tape):
        s = synth_generate(SynthConfig(n=1, seed=22), "straight")[0]
        proj, _ = to_target_frame(s)
        vs = vectorize(proj, CFG)
        assert len(vs.surrounding) == 0
        enc = encode_polylines([vs], tape, CFG)
        assert split_tokens(enc)[2].shape == (0, CFG.hidden)
        assert enc.observed.shape == (1, 0)

    def test_duplicated_polyline_duplicates_row(self, tape, scene):
        import dataclasses

        doubled = dataclasses.replace(
            scene, map_polylines=scene.map_polylines + [scene.map_polylines[0]]
        )
        m = split_tokens(encode_polylines([doubled], tape, CFG))[0]
        assert np.allclose(m[0], m[-1])

    def test_vector_permutation_invariance(self, tape, scene):
        import dataclasses

        rng = np.random.default_rng(0)
        perm = rng.permutation(len(scene.map_polylines[0]))
        shuffled = dataclasses.replace(
            scene,
            map_polylines=[scene.map_polylines[0][perm]] + scene.map_polylines[1:],
        )
        a = encode_polylines([scene], tape, CFG)
        b = encode_polylines([shuffled], tape, CFG)
        assert np.allclose(a.tokens.value, b.tokens.value, atol=1e-12)

    def test_wrong_width_rejected(self, tape, scene):
        import dataclasses

        bad = dataclasses.replace(scene, map_polylines=[np.zeros((3, 5))])
        with pytest.raises(ShapeMismatch):
            encode_polylines([scene, bad], tape, CFG)

    def test_padding_slots_are_zero_and_invalid(self, tape, scene):
        straight = vectorize(to_target_frame(synth_generate(SynthConfig(n=1, seed=22), "straight")[0])[0], CFG)
        enc = encode_polylines([straight, scene], tape, CFG)
        n_map, n_surr = len(scene.map_polylines), len(scene.surrounding)
        assert enc.tokens.value.shape == (2, enc.n_map + 1 + n_surr, CFG.hidden)
        assert enc.n_map == max(n_map, len(straight.map_polylines))
        padding = ~enc.valid[0]
        assert padding.sum() == enc.n_map - len(straight.map_polylines) + n_surr
        assert np.all(enc.tokens.value[0][padding] == 0.0)
        assert not enc.observed[0].any()


class TestSelfAttentionBlock:
    def test_single_row_layer_norm_stats(self, tape):
        x = Var(np.random.default_rng(1).normal(size=(1, CFG.hidden)))
        out = self_attention_block(x, tape, CFG, "ctx.block0").value
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-3)

    def test_zero_weights_passthrough_layer_norm(self):
        t = init_spatial_params(CFG, seed=3)
        for name in ("ctx.block0.wq", "ctx.block0.wk", "ctx.block0.wv"):
            t.params[name][...] = 0.0
        x_val = np.random.default_rng(2).normal(size=(4, CFG.hidden))
        out = self_attention_block(Var(x_val), t, CFG, "ctx.block0").value
        g = t.params["ctx.block0.ln.g"]
        b = t.params["ctx.block0.ln.b"]
        mu = x_val.mean(axis=1, keepdims=True)
        var = x_val.var(axis=1, keepdims=True)
        expected = (x_val - mu) / np.sqrt(var + 1e-5) * g + b
        assert np.allclose(out, expected, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        small = EncoderConfig(hidden=64, n_heads=4)
        t = init_spatial_params(small, seed=4)
        x = np.random.default_rng(5).normal(size=(3, 64))
        w = np.random.default_rng(6).normal(size=(3, 64))

        def loss(leaves):
            out = self_attention_block(Var(x), leaves, small, "ctx.block0")
            return ad.vsum(ad.mul(out, Var(w)))

        report = check_gradients(t, loss, tolerance=1e-4, n_samples=200, seed=7)
        assert report.passed, report.failures[:3]


class TestContextAttention:
    def test_output_shapes_and_positivity(self, tape, scene):
        enc = encode_polylines([scene], tape, CFG)
        out = context_attention(enc, tape, CFG)
        assert out.eta.value.shape == (1, CFG.C, 2)
        assert out.beta.value.shape == (1, CFG.C)
        assert np.all(out.beta.value > 0.0)
        assert out.feature.value.shape == (1, CFG.hidden)

    def test_beta_positive_for_adversarial_tape(self, scene):
        t = init_spatial_params(CFG, seed=8)
        for name in t.params:
            if name.startswith("ctx_head"):
                t.params[name][...] = -50.0
        enc = encode_polylines([scene], t, CFG)
        out = context_attention(enc, t, CFG)
        assert np.all(out.beta.value > 0.0)

    def test_deterministic(self, tape, scene):
        enc = encode_polylines([scene], tape, CFG)
        a = context_attention(enc, tape, CFG).eta.value
        enc2 = encode_polylines([scene], tape, CFG)
        b = context_attention(enc2, tape, CFG).eta.value
        assert np.array_equal(a, b)


class TestInteractionAttention:
    def test_masked_agents_have_no_influence(self, tape, scene):
        import dataclasses

        enc = encode_polylines([scene], tape, CFG)
        n = enc.observed.shape[1]
        assert n >= 1
        masked = dataclasses.replace(enc, observed=np.zeros_like(enc.observed))  # mask out everything
        base = interaction_attention(masked, tape, CFG)
        poisoned = enc.tokens.value.copy()
        poisoned[:, enc.n_map + 1 :] += 1000.0
        alt = interaction_attention(dataclasses.replace(masked, tokens=Var(poisoned)), tape, CFG)
        assert np.array_equal(base.chol.value, alt.chol.value)
        assert np.array_equal(base.nu.value, alt.nu.value)

    def test_spd_and_nu_floor_for_any_tape(self, scene):
        import dataclasses

        t = init_spatial_params(CFG, seed=9)
        for name in t.params:
            if name.startswith("inter_head"):
                t.params[name][...] = np.random.default_rng(10).normal(
                    scale=30.0, size=t.params[name].shape
                )
        enc = encode_polylines([scene], t, CFG)
        out = interaction_attention(
            dataclasses.replace(enc, observed=np.ones_like(enc.observed)), t, CFG
        )
        chol = out.chol.value
        assert np.all(chol[..., 0] > 0.0) and np.all(chol[..., 2] > 0.0)
        dets = (chol[..., 0] * chol[..., 2]) ** 2
        assert np.all(dets > 0.0)
        assert np.all(out.nu.value > 3.0)


def z_proxy_weights(feature: Var, params, cfg: EncoderConfig) -> Var:
    """The proxy weights as `forward_spatial` forms them: a softmax of the proxy logits."""
    return ad.softmax(z_proxy_logits(feature, params, cfg), axis=-1)


class TestZProxy:
    def test_sums_to_one(self, tape):
        feat = Var(np.random.default_rng(11).normal(size=CFG.hidden))
        w = z_proxy_weights(feat, tape, CFG)
        assert w.value.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_weights_uniform(self):
        t = init_spatial_params(CFG, seed=12)
        for name in t.params:
            if name.startswith("zproxy"):
                t.params[name][...] = 0.0
        w = z_proxy_weights(Var(np.random.default_rng(13).normal(size=CFG.hidden)), t, CFG)
        assert w.value == pytest.approx(np.full(CFG.C, 1.0 / CFG.C), abs=1e-12)

    def test_gradient(self):
        small = EncoderConfig(hidden=32, n_heads=2, C=4)
        t = init_spatial_params(small, seed=14)
        feat = np.random.default_rng(15).normal(size=32)
        target = np.random.default_rng(16).dirichlet(np.ones(4))

        def loss(leaves):
            w = z_proxy_weights(Var(feat), leaves, small)
            return -ad.vsum(ad.mul(Var(target), ad.vlog(w)))

        report = check_gradients(t, loss, tolerance=1e-4, n_samples=200, seed=17)
        assert report.passed, report.failures[:3]


class TestForwardSpatial:
    def test_emitted_parameters_valid(self, tape, scene):
        fw = forward_spatial(scene, tape, CFG)
        mix = fw.mixture()  # raises for a component outside the Normal-Wishart family
        assert mix.n_components == CFG.C
        _, prior = emitted_components(fw)  # the prior is in its family too
        assert prior.nu[0] > 3.0
        assert fw.weights.value.sum() == pytest.approx(1.0, abs=1e-10)

    def test_surrounding_permutation_leaves_outputs_unchanged(self, tape):
        import dataclasses

        s = synth_generate(SynthConfig(n=1, seed=23), "merge")[0]
        proj, _ = to_target_frame(s)
        vs = vectorize(proj, CFG)
        if len(vs.surrounding) < 2:
            extra = [vs.surrounding[0] + 0.5] if vs.surrounding else [np.ones((3, 10))]
            vs = dataclasses.replace(
                vs,
                surrounding=vs.surrounding + extra,
                surrounding_observed=np.append(vs.surrounding_observed, True),
            )
        perm = list(reversed(range(len(vs.surrounding))))
        vs_perm = dataclasses.replace(
            vs,
            surrounding=[vs.surrounding[i] for i in perm],
            surrounding_observed=vs.surrounding_observed[perm],
        )
        a = forward_spatial(vs, tape, CFG)
        b = forward_spatial(vs_perm, tape, CFG)
        assert np.allclose(a.eta.value, b.eta.value, atol=1e-9)
        assert np.allclose(a.nu.value, b.nu.value, atol=1e-9)
        assert np.allclose(a.weights.value, b.weights.value, atol=1e-9)

    def test_determinism_bitwise(self, tape, scene):
        a = forward_spatial(scene, tape, CFG)
        b = forward_spatial(scene, tape, CFG)
        assert np.array_equal(a.eta.value, b.eta.value)
        assert np.array_equal(a.weights.value, b.weights.value)

    def test_padding_invariance(self, tape, scene):
        # A scene's emitted parameters do not change when it is batched with
        # scenes that have more polylines or more agents.
        import dataclasses

        straight = vectorize(to_target_frame(synth_generate(SynthConfig(n=1, seed=22), "straight")[0])[0], CFG)
        busier = dataclasses.replace(
            scene,
            map_polylines=scene.map_polylines + [p + 1.0 for p in scene.map_polylines],
            surrounding=scene.surrounding + [scene.target + 2.0, scene.target - 3.0],
            surrounding_observed=np.append(scene.surrounding_observed, [True, False]),
        )
        batch = [straight, busier, scene]
        fw = forward_spatial(batch, tape, CFG)
        assert fw.eta.value.shape == (3, CFG.C, 2)
        assert fw.context_feature.value.shape == (3, CFG.hidden)
        for b, vs in enumerate(batch):
            one = forward_spatial(vs, tape, CFG)
            for name in ("eta", "beta", "chol", "nu", "weights", "weights_logits"):
                assert np.allclose(getattr(fw, name).value[b], getattr(one, name).value, rtol=0, atol=1e-12), name
            assert np.allclose(fw.context_feature.value[b], one.context_feature.value[0], rtol=0, atol=1e-12)

    def test_masked_agents_have_no_influence_in_a_batch(self, tape, scene):
        import dataclasses

        assert len(scene.surrounding) >= 1
        straight = vectorize(to_target_frame(synth_generate(SynthConfig(n=1, seed=22), "straight")[0])[0], CFG)
        unseen = dataclasses.replace(scene, surrounding_observed=np.zeros(len(scene.surrounding), bool))
        poisoned = dataclasses.replace(unseen, surrounding=[vs + 1000.0 for vs in unseen.surrounding])
        base = forward_spatial([unseen, straight], tape, CFG)
        alt = forward_spatial([poisoned, straight], tape, CFG)
        # The interaction head only sees agents observed at step H.
        assert np.array_equal(base.chol.value, alt.chol.value)
        assert np.array_equal(base.nu.value, alt.nu.value)
        # The other scene of the batch sees nothing of either.
        for name in ("eta", "beta", "chol", "nu", "weights"):
            assert np.array_equal(getattr(base, name).value[1], getattr(alt, name).value[1]), name


class TestSerialization:
    def test_spatial_round_trip(self, tape, tmp_path, scene):
        path = tmp_path / "model.json"
        save_model(path, tape, CFG)
        loaded, cfg = load_spatial_model(path)
        assert cfg == CFG
        for name, value in tape.params.items():
            assert np.array_equal(loaded.params[name], value)
        a = forward_spatial(scene, tape, CFG).eta.value
        b = forward_spatial(scene, loaded, cfg).eta.value
        assert np.array_equal(a, b)

    def test_document_schema(self, tape, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, tape, CFG)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert set(doc) == {"format_version", "config", "params"}
        assert doc["config"]["hidden"] == 128

    def test_shape_validation_on_load(self, tape, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, tape, CFG)
        doc = json.loads(path.read_text())
        doc["params"]["map_enc.l1.w"] = doc["params"]["map_enc.l1.w"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_spatial_model(path)

    @pytest.mark.parametrize("which", ["spatial", "traj"])
    def test_config_contradicting_stored_sizes_is_refused_before_the_template(self, tmp_path, monkeypatch, which):
        cfg = EncoderConfig(hidden=16, n_heads=2, C=3)
        tape = init_spatial_params(cfg) if which == "spatial" else init_trajectory_params(cfg, horizon=5)
        path = tmp_path / "model.json"
        save_model(path, tape, cfg)
        doc = json.loads(path.read_text())
        doc["config"]["C" if which == "spatial" else "hidden"] += 2
        path.write_text(json.dumps(doc))

        def no_template(*args, **kwargs):
            raise AssertionError("template built")

        monkeypatch.setattr("gneva.encoders.init_spatial_params", no_template)
        monkeypatch.setattr("gneva.encoders.init_trajectory_params", no_template)
        stored = "'ctx_head.l2.b', found 9" if which == "spatial" else "'traj.m1.l1.b', found 16"
        with pytest.raises(ValidationError, match=stored):
            (load_spatial_model if which == "spatial" else load_trajectory_model)(path)

    def test_trajectory_round_trip(self, tmp_path):
        t = init_trajectory_params(CFG, horizon=30, seed=18)
        path = tmp_path / "traj.json"
        save_model(path, t, CFG)
        loaded, cfg, horizon = load_trajectory_model(path)
        assert horizon == 30
        for name, value in t.params.items():
            assert np.array_equal(loaded.params[name], value)
