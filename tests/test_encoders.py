import json
import math
import re

import numpy as np
import pytest

from gneva import autodiff as ad, encoders, training
from gneva.autodiff import ParamTape, Var, check_gradients
from gneva.cli import run_command
from gneva.dataio import MAP_VECTOR_WIDTH, SynthConfig, synth_generate, to_target_frame, vectorize
from gneva.encoders import (
    MIN_POSITIVE,
    NU_FLOOR,
    SIZE_CAPS,
    EncoderConfig,
    _mlp,
    encode_polylines,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
    load_spatial_model,
    load_trajectory_model,
    prior_vars,
    save_model,
    self_attention_block,
    spatial_trunk,
    trajectory_horizon,
)
from gneva.errors import ShapeMismatch, ValidationError
from gneva.training import spatial_context_features, spatial_scene_loss

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
        enc = encode_polylines([scene], tape.constants(), CFG)
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
        enc = encode_polylines([vs], tape.constants(), CFG)
        assert split_tokens(enc)[2].shape == (0, CFG.hidden)
        assert enc.observed.shape == (1, 0)

    def test_duplicated_polyline_duplicates_row(self, tape, scene):
        import dataclasses

        doubled = dataclasses.replace(
            scene, map_polylines=scene.map_polylines + [scene.map_polylines[0]]
        )
        m = split_tokens(encode_polylines([doubled], tape.constants(), CFG))[0]
        assert np.allclose(m[0], m[-1])

    def test_vector_permutation_invariance(self, tape, scene):
        import dataclasses

        rng = np.random.default_rng(0)
        perm = rng.permutation(len(scene.map_polylines[0]))
        shuffled = dataclasses.replace(
            scene,
            map_polylines=[scene.map_polylines[0][perm]] + scene.map_polylines[1:],
        )
        a = encode_polylines([scene], tape.constants(), CFG)
        b = encode_polylines([shuffled], tape.constants(), CFG)
        assert np.allclose(a.tokens.value, b.tokens.value, atol=1e-12)

    def test_wrong_width_rejected(self, tape, scene):
        import dataclasses

        bad = dataclasses.replace(scene, map_polylines=[np.zeros((3, 5))])
        with pytest.raises(ShapeMismatch):
            encode_polylines([scene, bad], tape.constants(), CFG)

    def test_padding_slots_are_zero_and_invalid(self, tape, scene):
        straight = vectorize(to_target_frame(synth_generate(SynthConfig(n=1, seed=22), "straight")[0])[0], CFG)
        enc = encode_polylines([straight, scene], tape.constants(), CFG)
        n_map, n_surr = len(scene.map_polylines), len(scene.surrounding)
        assert enc.tokens.value.shape == (2, enc.n_map + 1 + n_surr, CFG.hidden)
        assert enc.n_map == max(n_map, len(straight.map_polylines))
        padding = ~enc.valid[0]
        assert padding.sum() == enc.n_map - len(straight.map_polylines) + n_surr
        assert np.all(enc.tokens.value[0][padding] == 0.0)
        assert not enc.observed[0].any()


def all_keys(x: np.ndarray) -> np.ndarray:
    """A key mask that lets every token of x (..., N, hidden) be attended to."""
    return np.ones(x.shape[:-1], dtype=bool)


class TestSelfAttentionBlock:
    def test_single_row_layer_norm_stats(self, tape):
        x = np.random.default_rng(1).normal(size=(1, CFG.hidden))
        out = self_attention_block(Var(x), tape.constants(), CFG, "ctx.block0", all_keys(x)).value
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-3)

    def test_zero_weights_passthrough_layer_norm(self):
        t = init_spatial_params(CFG, seed=3)
        for name in ("ctx.block0.wq", "ctx.block0.wk", "ctx.block0.wv"):
            t.params[name][...] = 0.0
        x_val = np.random.default_rng(2).normal(size=(4, CFG.hidden))
        out = self_attention_block(Var(x_val), t.constants(), CFG, "ctx.block0", all_keys(x_val)).value
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
            out = self_attention_block(Var(x), leaves, small, "ctx.block0", all_keys(x))
            return ad.vsum(ad.mul(out, Var(w)))

        report = check_gradients(t, loss, tolerance=1e-4, n_samples=200, seed=7)
        assert report.passed, report.failures[:3]


class TestContextAttention:
    def test_output_shapes_and_positivity(self, tape, scene):
        out = forward_spatial([scene], tape, CFG)
        assert out.eta.value.shape == (1, CFG.C, 2)
        assert out.beta.value.shape == (1, CFG.C)
        assert np.all(out.beta.value > 0.0)
        ctx_row, _, _ = spatial_trunk([scene], tape.constants(), CFG)
        assert ctx_row.value.shape == (1, CFG.hidden)

    def test_beta_positive_for_adversarial_tape(self, scene):
        t = init_spatial_params(CFG, seed=8)
        for name in t.params:
            if name.startswith("ctx_head"):
                t.params[name][...] = -50.0
        out = forward_spatial([scene], t, CFG)
        assert np.all(out.beta.value > 0.0)

    def test_deterministic(self, tape, scene):
        a = spatial_trunk([scene], tape.constants(), CFG)
        b = spatial_trunk([scene], tape.constants(), CFG)
        for row_a, row_b in zip(a, b):
            assert np.array_equal(row_a.value, row_b.value)
        etas = [forward_spatial([scene], tape, CFG).eta.value for _ in range(2)]
        assert np.array_equal(*etas)


class TestInteractionAttention:
    def test_masked_agents_have_no_influence(self, tape, scene):
        import dataclasses

        assert len(scene.surrounding) >= 1
        masked = dataclasses.replace(scene, surrounding_observed=np.zeros(len(scene.surrounding), bool))
        poisoned = dataclasses.replace(masked, surrounding=[vs + 1000.0 for vs in masked.surrounding])
        base_ctx, base_inter, _ = spatial_trunk([masked], tape.constants(), CFG)
        alt_ctx, alt_inter, _ = spatial_trunk([poisoned], tape.constants(), CFG)
        assert not np.array_equal(base_ctx.value, alt_ctx.value)  # the context stack sees every agent
        assert np.array_equal(base_inter.value, alt_inter.value)
        base = forward_spatial([masked], tape, CFG)
        alt = forward_spatial([poisoned], tape, CFG)
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
        seen = dataclasses.replace(scene, surrounding_observed=np.ones(len(scene.surrounding), bool))
        out = forward_spatial([seen], t, CFG)
        chol = out.chol.value
        assert np.all(chol[..., 0] > 0.0) and np.all(chol[..., 2] > 0.0)
        dets = (chol[..., 0] * chol[..., 2]) ** 2
        assert np.all(dets > 0.0)
        assert np.all(out.nu.value > 3.0)


def z_proxy_weights(feature: Var, leaves) -> Var:
    """The proxy weights as `forward_spatial` forms them: a softmax of the proxy head's logits."""
    return ad.softmax(_mlp(leaves, "zproxy", feature))


class TestZProxy:
    def test_sums_to_one(self, tape):
        feat = Var(np.random.default_rng(11).normal(size=CFG.hidden))
        w = z_proxy_weights(feat, tape.constants())
        assert w.value.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_weights_uniform(self):
        t = init_spatial_params(CFG, seed=12)
        for name in t.params:
            if name.startswith("zproxy"):
                t.params[name][...] = 0.0
        w = z_proxy_weights(Var(np.random.default_rng(13).normal(size=CFG.hidden)), t.constants())
        assert w.value == pytest.approx(np.full(CFG.C, 1.0 / CFG.C), abs=1e-12)

    def test_gradient(self):
        small = EncoderConfig(hidden=32, n_heads=2, C=4)
        t = init_spatial_params(small, seed=14)
        feat = np.random.default_rng(15).normal(size=32)
        target = np.random.default_rng(16).dirichlet(np.ones(4))

        def loss(leaves):
            w = z_proxy_weights(Var(feat), leaves)
            return -ad.vsum(ad.mul(Var(target), ad.vlog(w)))

        report = check_gradients(t, loss, tolerance=1e-4, n_samples=200, seed=17)
        assert report.passed, report.failures[:3]


def padded_batch(scene):
    """Three scenes of different sizes: padding in every slot group, and an agent unobserved at step H."""
    import dataclasses

    straight = vectorize(to_target_frame(synth_generate(SynthConfig(n=1, seed=22), "straight")[0])[0], CFG)
    busier = dataclasses.replace(
        scene,
        map_polylines=scene.map_polylines + [p + 1.0 for p in scene.map_polylines],
        surrounding=scene.surrounding + [scene.target + 2.0, scene.target - 3.0],
        surrounding_observed=np.append(scene.surrounding_observed, [True, False]),
    )
    return [straight, busier, scene]


def reference_forward(scenes, leaves, cfg: EncoderConfig) -> dict:
    """The spatial forward composed block by block, context module then interaction module, then the proxy."""
    enc = encode_polylines(scenes, leaves, cfg)
    b, c = len(scenes), cfg.C
    x = enc.tokens
    for i in range(cfg.L_c):
        x = self_attention_block(x, leaves, cfg, f"ctx.block{i}", enc.valid)
    ctx_row = ad.reshape(ad.narrow(x, -2, enc.n_map, 1), (b, cfg.hidden))
    head = _mlp(leaves, "ctx_head", ctx_row)
    eta = ad.reshape(ad.narrow(head, -1, 0, 2 * c), (b, c, 2))
    beta = ad.softplus(ad.narrow(head, -1, 2 * c, c)) + MIN_POSITIVE
    x = ad.narrow(enc.tokens, -2, enc.n_map, enc.tokens.value.shape[-2] - enc.n_map)
    key_mask = np.concatenate([np.ones((b, 1), bool), enc.observed], axis=-1)
    for i in range(cfg.L_i):
        x = self_attention_block(x, leaves, cfg, f"inter.block{i}", key_mask)
    inter_row = ad.reshape(ad.narrow(x, -2, 0, 1), (b, cfg.hidden))
    head = _mlp(leaves, "inter_head", inter_row)
    raw = ad.reshape(ad.narrow(head, -1, 0, 3 * c), (b, c, 3))
    chol = ad.concat(
        [
            ad.softplus(ad.narrow(raw, -1, 0, 1)) + MIN_POSITIVE,
            ad.narrow(raw, -1, 1, 1),
            ad.softplus(ad.narrow(raw, -1, 2, 1)) + MIN_POSITIVE,
        ],
        axis=-1,
    )
    nu = ad.softplus(ad.narrow(head, -1, 3 * c, c)) + NU_FLOOR
    feature = ad.add(ctx_row, inter_row)
    logits = _mlp(leaves, "zproxy", feature)
    return dict(eta=eta, beta=beta, chol=chol, nu=nu, weights_logits=logits, context_feature=feature)


def weighted_sum(outputs: dict, seed: int) -> Var:
    """A scalar loss that reaches every output through its own random weights."""
    rng = np.random.default_rng(seed)
    terms = [ad.vsum(ad.mul(outputs[n], Var(rng.normal(size=outputs[n].value.shape)))) for n in sorted(outputs)]
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return total


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
        batch = padded_batch(scene)
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


    REFERENCE_OUTPUTS = ("eta", "beta", "chol", "nu", "weights_logits", "context_feature")

    def test_equals_the_reference_composition_byte_for_byte(self, tape, scene):
        batch = padded_batch(scene)
        assert not np.concatenate([vs.surrounding_observed for vs in batch]).all()
        fw = forward_spatial(batch, tape, CFG)
        ref = reference_forward(batch, tape.constants(), CFG)
        one = forward_spatial(scene, tape, CFG)
        ref_one = reference_forward([scene], tape.constants(), CFG)
        for name in self.REFERENCE_OUTPUTS:
            got, want = getattr(fw, name).value, ref[name].value
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            got, want = getattr(one, name).value, ref_one[name].value
            want = want if name == "context_feature" else want[0]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_gradients_equal_the_reference_composition_byte_for_byte(self, scene):
        small = EncoderConfig(hidden=32, n_heads=2, C=3, L_c=2, L_i=2)
        t = init_spatial_params(small, seed=19)
        batch = [vectorize(to_target_frame(s)[0], small) for s in synth_generate(SynthConfig(n=3, seed=21), "merge")]
        grads = []
        for reference in (False, True):
            leaves = t.leaves()
            if reference:
                outputs = reference_forward(batch, leaves, small)
            else:
                fw = forward_spatial(batch, leaves, small)
                outputs = {name: getattr(fw, name) for name in self.REFERENCE_OUTPUTS}
            ad.backward(weighted_sum(outputs, seed=20))
            grads.append(ad.leaf_gradients(leaves))
        for name in t.params:
            assert grads[0][name].tobytes() == grads[1][name].tobytes(), name

    def test_loss_gradients_equal_a_forward_that_builds_the_prior_byte_for_byte(self, monkeypatch):
        small = EncoderConfig(hidden=32, n_heads=2, C=3, L_c=2, L_i=2)
        t = init_spatial_params(small, seed=19)
        projected = [to_target_frame(s)[0] for s in synth_generate(SynthConfig(n=3, seed=21), "merge")]
        batch, goals = [vectorize(p, small) for p in projected], np.stack([p.goal() for p in projected])
        grads = []
        for reference in (False, True):
            leaves = t.leaves()
            fw = forward_spatial(batch, leaves, small)
            if reference:  # the prior built with the forward, as one that returned it would, then read by the loss
                built = prior_vars(leaves)
                monkeypatch.setattr(training, "prior_vars", lambda _: built, raising=False)
            ad.backward(ad.vmean(spatial_scene_loss(goals, fw, 1.0).loss))
            grads.append(ad.leaf_gradients(leaves))
            monkeypatch.undo()
        assert all(grads[0][name].any() for name in t.params if name.startswith("prior."))
        for name in t.params:
            assert grads[0][name].tobytes() == grads[1][name].tobytes(), name

    def test_context_features_are_the_trunk_sum_byte_for_byte(self, tape):
        projected = three_kinds()
        got = spatial_context_features(projected, tape, CFG)
        want = forward_spatial([vectorize(p, CFG) for p in projected], tape, CFG).context_feature.value
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def one_pass_group(leaves, enc_name, vector_sets, cfg):
    """A polyline group as one MLP pass over all its vectors and one segment max."""
    if not vector_sets:
        return Var(np.empty((0, cfg.hidden)))
    starts = np.cumsum([0] + [len(vs) for vs in vector_sets[:-1]])
    return ad.segment_max(_mlp(leaves, enc_name, Var(np.concatenate(vector_sets, axis=0))), starts)


def graph_size(root: Var) -> int:
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
    return len(seen)


def three_kinds():
    return [
        to_target_frame(s)[0]
        for kind, seed in (("merge", 21), ("straight", 22), ("turn", 23))
        for s in synth_generate(SynthConfig(n=1, seed=seed), kind)
    ]


class TestPolylineTiles:
    TILE = 24  # several tiles from three scenes' 430 map vectors

    @pytest.mark.parametrize(
        "lengths, starts",
        [
            ([3, 5, 2, 6, 7, 1, 4, 4], [0, 2, 4, 6]),  # several tiles
            ([4, 4, 8], [0, 2]),  # the group ends exactly on a tile boundary
            ([5, 3, 1], [0]),  # a last tile of one row joins the one before
            ([8, 1], [0]),
            ([1, 9, 2], [0, 2]),  # a tile of one row stays open for the next set
            ([12, 3], [0, 1]),  # a set longer than a tile is a tile of its own
            ([1], [0]),  # a group of one row is one tile, as it was before tiling
        ],
    )
    def test_tiles_hold_whole_sets_and_never_one_row_and_pool_the_one_pass_bytes(
        self, tape, monkeypatch, lengths, starts
    ):
        monkeypatch.setattr(encoders, "_TILE_ROWS", 8)
        assert encoders._tile_starts(lengths) == starts
        rows = np.add.reduceat(lengths, starts)
        assert rows.sum() == sum(lengths) and (rows >= 2).all() or lengths == [1]
        rng = np.random.default_rng(len(lengths))
        sets = [rng.normal(size=(n, MAP_VECTOR_WIDTH)) for n in lengths]
        for leaves in (tape.constants(), tape.leaves()):  # frozen and recorded tiles alike
            got = encoders._encode_group(leaves, "map_enc", sets, CFG).value
            want = one_pass_group(leaves, "map_enc", sets, CFG).value
            assert got.shape == (len(lengths), CFG.hidden) and got.tobytes() == want.tobytes()

    def test_frozen_forwards_give_the_one_pass_bytes(self, tape, monkeypatch):
        projected = three_kinds()
        batch = [vectorize(p, CFG) for p in projected]
        monkeypatch.setattr(encoders, "_TILE_ROWS", self.TILE)
        assert len(encoders._tile_starts([len(vs) for s in batch for vs in s.map_polylines])) > 3
        assert len(encoders._tile_starts([len(vs) for s in batch for vs in (s.target, *s.surrounding)])) > 1
        contexts = spatial_context_features(projected, tape, CFG)
        fw = forward_spatial(batch, tape, CFG)
        one = forward_spatial(batch[0], tape, CFG)
        monkeypatch.setattr(encoders, "_encode_group", one_pass_group)
        assert contexts.tobytes() == spatial_context_features(projected, tape, CFG).tobytes()
        ref, ref_one = forward_spatial(batch, tape, CFG), forward_spatial(batch[0], tape, CFG)
        for name in TestForwardSpatial.REFERENCE_OUTPUTS:
            assert getattr(fw, name).value.tobytes() == getattr(ref, name).value.tobytes(), name
            assert getattr(one, name).value.tobytes() == getattr(ref_one, name).value.tobytes(), name

    def test_a_recorded_forward_tiles_with_the_one_pass_outputs_and_loss_and_near_gradients(self, tape, monkeypatch):
        """Training tiles too: more nodes than one pass, the same forward and loss bytes, and weight
        gradients that differ only in how the per-tile products are summed."""
        projected = three_kinds()
        goals, batch = np.stack([p.goal() for p in projected]), [vectorize(p, CFG) for p in projected]
        monkeypatch.setattr(encoders, "_TILE_ROWS", self.TILE)
        runs = []
        for encode_group in (encoders._encode_group, one_pass_group):
            monkeypatch.setattr(encoders, "_encode_group", encode_group)
            leaves = tape.leaves()
            fw = forward_spatial(batch, leaves, CFG)
            loss = ad.vmean(spatial_scene_loss(goals, fw, 1.0).loss)
            size = graph_size(loss)
            ad.backward(loss)
            runs.append((fw, loss, size, ad.leaf_gradients(leaves)))
        (fw, loss, size, grads), (ref_fw, ref_loss, ref_size, ref_grads) = runs
        assert size > ref_size
        assert loss.value.tobytes() == ref_loss.value.tobytes()
        for name in TestForwardSpatial.REFERENCE_OUTPUTS:
            assert getattr(fw, name).value.tobytes() == getattr(ref_fw, name).value.tobytes(), name
        for name in tape.params:
            scale = np.abs(ref_grads[name]).max()
            assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-13 * scale, name


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
        stored = "'ctx_head.l2.w', found 144" if which == "spatial" else "'traj.m1.l1.w', found 288"
        with pytest.raises(ValidationError, match=stored):
            (load_spatial_model if which == "spatial" else load_trajectory_model)(path)

    @pytest.mark.parametrize(
        "which, claim",
        [("spatial", {"hidden": 1024}), ("spatial", {"L_c": 16}), ("spatial", {"L_i": 16}), ("spatial", {"C": 1024}),
         ("spatial", SIZE_CAPS), ("traj", 200_000)],
        ids=["hidden", "L_c", "L_i", "C", "all-caps", "traj-wide-output"],
    )
    def test_sizes_the_file_does_not_hold_are_refused_before_any_parameter_array(
        self, tmp_path, monkeypatch, capsys, which, claim
    ):
        """A small file claiming a large model is refused before a parameter array of the claimed size exists.

        The spatial files hold a 16-wide model with two heads' biases sized to the claimed config; the trajectory
        file holds weights for T=30 under a 200,000-wide output bias.
        """
        cfg = EncoderConfig(hidden=16, n_heads=2, C=3)
        models = {"spatial": tmp_path / "spatial.json", "traj": tmp_path / "traj.json"}
        save_model(models["spatial"], init_spatial_params(cfg), cfg)
        save_model(models["traj"], init_trajectory_params(cfg, horizon=30), cfg)
        crafted = models[which]
        doc = json.loads(crafted.read_text())
        if which == "spatial":
            doc["config"].update(claim)
            claimed = EncoderConfig(**doc["config"])
            doc["params"]["ctx_head.l1.b"] = [0.0] * claimed.hidden
            doc["params"]["ctx_head.l2.b"] = [0.0] * (3 * claimed.C)
        else:
            doc["params"]["traj.m2.l2.b"] = [0.0] * claim
        crafted.write_text(json.dumps(doc))

        def no_allocation(*args, **kwargs):
            raise AssertionError("a parameter array was allocated")

        with monkeypatch.context() as patched:
            patched.setattr(ParamTape, "add_param", no_allocation)
            with pytest.raises(ValidationError, match=re.escape(f"model {crafted}")):
                (load_spatial_model if which == "spatial" else load_trajectory_model)(crafted)

        scenes = tmp_path / "scenes"
        assert run_command(["synth", "--kind", "turn", "--n", "1", "--seed", "3", "--out", str(scenes)]) == 0
        capsys.readouterr()
        scenario = str(next(scenes.glob("*.json")))
        commands = {
            "predict": ["predict", "--spatial-model", str(models["spatial"]), "--traj-model", str(models["traj"]),
                        "--scenario", scenario, "--out", str(tmp_path / "pred.json")],
            "density": ["density", "--spatial-model", str(models["spatial"]), "--scenario", scenario,
                        "--out", str(tmp_path / "density.csv")],
        }
        for command in ["predict", "density"] if which == "spatial" else ["predict"]:
            assert run_command(commands[command]) == 1, command
            err = capsys.readouterr().err
            assert f"model {crafted}" in err and "Traceback" not in err, command
        assert not (tmp_path / "pred.json").exists() and not (tmp_path / "density.csv").exists()

    def test_trajectory_round_trip(self, tmp_path):
        t = init_trajectory_params(CFG, horizon=30, seed=18)
        path = tmp_path / "traj.json"
        save_model(path, t, CFG)
        loaded, cfg = load_trajectory_model(path)
        assert trajectory_horizon(loaded) == 30
        for name, value in t.params.items():
            assert np.array_equal(loaded.params[name], value)


def reference_init(cfg: EncoderConfig, seed: int, horizon: int | None = None) -> dict[str, np.ndarray]:
    """The initial spatial parameters, or the trajectory head's when `horizon` is given, written out in draw order.

    Every weight is drawn from one generator, uniform within +-1/sqrt(fan_in): each MLP draws its first layer
    then its second, each attention block its query, key and value projections. LayerNorm gains are ones and the
    other vectors zeros, except the shared prior's (eta0 = 0, beta0 = 0.01, V0 = 0.1 I, nu0 = 4 through the
    constraint layers' inverses).
    """
    rng = np.random.default_rng(seed)
    params = {}

    def mlp(name, fan_in, hidden, fan_out):
        params[f"{name}.l1.w"] = rng.uniform(-1 / math.sqrt(fan_in), 1 / math.sqrt(fan_in), size=(fan_in, hidden))
        params[f"{name}.l1.b"] = np.zeros(hidden)
        params[f"{name}.ln.g"] = np.ones(hidden)
        params[f"{name}.ln.b"] = np.zeros(hidden)
        params[f"{name}.l2.w"] = rng.uniform(-1 / math.sqrt(hidden), 1 / math.sqrt(hidden), size=(hidden, fan_out))
        params[f"{name}.l2.b"] = np.zeros(fan_out)

    h = cfg.hidden
    if horizon is not None:
        mlp("traj.m1", h + 2, h, h)
        mlp("traj.m2", h, h, 2 * horizon)
        return params
    mlp("map_enc", 8, h, h)
    mlp("agent_enc", 10, h, h)
    for block in [f"ctx.block{i}" for i in range(cfg.L_c)] + [f"inter.block{i}" for i in range(cfg.L_i)]:
        for proj in ("wq", "wk", "wv"):
            params[f"{block}.{proj}"] = rng.uniform(-1 / math.sqrt(h), 1 / math.sqrt(h), size=(h, h))
        params[f"{block}.ln.g"] = np.ones(h)
        params[f"{block}.ln.b"] = np.zeros(h)
    mlp("ctx_head", h, h, 3 * cfg.C)
    mlp("inter_head", h, h, 4 * cfg.C)
    mlp("zproxy", h, h, cfg.C)
    diag = math.log(math.expm1(math.sqrt(0.1) - 1e-3))
    params["prior.eta"] = np.zeros(2)
    params["prior.beta_raw"] = np.array([math.log(math.expm1(0.01 - 1e-3))])
    params["prior.chol_raw"] = np.array([diag, 0.0, diag])
    params["prior.nu_raw"] = np.array([math.log(math.expm1(4.0 - (3.0 + 1e-3)))])
    return params


class TestInitialization:
    @pytest.mark.parametrize("cfg", [EncoderConfig(), EncoderConfig(L_c=2, L_i=2)], ids=["default", "L_c2-L_i2"])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_init_matches_the_written_out_draw_order(self, cfg, seed):
        for tape, ref in [
            (init_spatial_params(cfg, seed=seed), reference_init(cfg, seed)),
            (init_trajectory_params(cfg, horizon=30, seed=seed), reference_init(cfg, seed, horizon=30)),
        ]:
            assert list(tape.params) == list(ref)
            for name, value in ref.items():
                assert tape.params[name].dtype == np.float64 and np.array_equal(tape.params[name], value), name
