"""Attention encoders that emit the mixture's posterior parameters.

Two polyline encoders (map, agents) produce per-polyline features by a
shared per-vector MLP and max-pooling. One attention stack runs twice in
the trunk: as context attention over [map; target; surrounding] and as
interaction attention over [target; surrounding observed at the horizon],
each giving the target's row. Heads on the trunk's rows emit the
mean-posterior parameters (eta, beta) per component from the context row,
the precision-posterior parameters (V via a Cholesky head, nu) from the
interaction row, and mixture weights from their sum by a proxy head.
All forwards run on the gradient tape, once per batch of scenes:
the per-vector MLPs run over the batch's vectors in L2-sized tiles of whole
polylines, and attention runs on the scenes' tokens padded to a common
length, with padding masked out of the keys. Constraint layers keep every
emitted parameter inside the distribution family for any tape values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamTape, Var
from .dataio import AGENT_VECTOR_WIDTH, MAP_VECTOR_WIDTH, VectorizedScene, number_table, read_json_object
from .errors import NotPositiveDefinite, ShapeMismatch, ValidationError, check_config_fields
from .mixture import MixturePosterior
from .special_math import spd_from_cholesky

MIN_POSITIVE = 1e-3  # floor added after softplus on strictly positive outputs
NU_FLOOR = 3.0 + MIN_POSITIVE  # strictly above 3 even when softplus underflows

MODEL_FORMAT_VERSION = 1
# Caps on the sizes a spatial model's parameter count grows with: at all four
# it holds about 110M parameters (0.9 GB), and a larger request is refused
# before anything is allocated.
SIZE_CAPS = {"hidden": 1024, "L_c": 16, "L_i": 16, "C": 1024}
# A loaded parameter beyond this magnitude is refused, nan included: a forward
# on such weights can overflow, while training moves a parameter by at most
# about the learning rate per step.
PARAM_BOUND = 1e9
# Rows per tile of a polyline encoder pass: a tile's 128-wide float64
# intermediates (512 KiB each) stay in a 2 MiB L2 from one op of the MLP to the
# next, where a 16-scene chunk's 2,000 rows (2 MB each) spill. The context pass
# over such a chunk (2-core host, OpenBLAS at one thread, medians of 30) took
# 11.5 ms untiled, 8.8 ms at 1,024 rows, 7.9-8.1 ms at 384-768 and 8.6 ms at
# 128, where each tile's fixed cost per op outweighs the cache.
_TILE_ROWS = 512


@dataclass(frozen=True)
class EncoderConfig:
    hidden: int = 128
    n_heads: int = 4
    L_c: int = 3
    L_i: int = 1
    C: int = 6
    max_polylines: int = 64
    max_vectors_per_polyline: int = 64

    def __post_init__(self):
        check_config_fields(self)
        for name, cap in SIZE_CAPS.items():
            if getattr(self, name) > cap:
                raise ValidationError(f"{name} must be at most {cap}, got {getattr(self, name)}")
        if self.hidden % self.n_heads != 0:
            raise ValidationError(f"n_heads must divide hidden={self.hidden}, got {self.n_heads}")


def softplus_inverse(y: float) -> float:
    return math.log(math.expm1(y))


def _mlp_layout(name: str, fan_in: int, hidden: int, fan_out: int) -> dict[str, tuple[int, ...]]:
    return {f"{name}.l1.w": (fan_in, hidden), f"{name}.l1.b": (hidden,), f"{name}.ln.g": (hidden,),
            f"{name}.ln.b": (hidden,), f"{name}.l2.w": (hidden, fan_out), f"{name}.l2.b": (fan_out,)}


def spatial_layout(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every spatial-model parameter, in the order they are drawn, saved and loaded."""
    h = cfg.hidden
    layout = {**_mlp_layout("map_enc", MAP_VECTOR_WIDTH, h, h), **_mlp_layout("agent_enc", AGENT_VECTOR_WIDTH, h, h)}
    for block in [f"ctx.block{i}" for i in range(cfg.L_c)] + [f"inter.block{i}" for i in range(cfg.L_i)]:
        layout.update({f"{block}.wq": (h, h), f"{block}.wk": (h, h), f"{block}.wv": (h, h),
                       f"{block}.ln.g": (h,), f"{block}.ln.b": (h,)})
    return {
        **layout,
        **_mlp_layout("ctx_head", h, h, 3 * cfg.C),  # C x (eta_x, eta_y) + C x beta_raw
        **_mlp_layout("inter_head", h, h, 4 * cfg.C),  # C x chol raw triple + C x nu_raw
        **_mlp_layout("zproxy", h, h, cfg.C),
        "prior.eta": (2,), "prior.beta_raw": (1,), "prior.chol_raw": (3,), "prior.nu_raw": (1,),
    }


def trajectory_layout(cfg: EncoderConfig, horizon: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the trajectory head's parameters: two MLPs from [context; goal] to T waypoints."""
    h = cfg.hidden
    return {**_mlp_layout("traj.m1", h + 2, h, h), **_mlp_layout("traj.m2", h, h, 2 * horizon)}


def _init_params(layout: Mapping[str, tuple[int, ...]], seed: int) -> ParamTape:
    """Each weight uniform within +-1/sqrt(fan_in), drawn in layout order; LayerNorm gains ones; other vectors zeros."""
    tape = ParamTape()
    rng = np.random.default_rng(seed)
    for name, shape in layout.items():
        if len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[0])
            tape.add_param(name, rng.uniform(-bound, bound, size=shape))
        else:
            tape.add_param(name, np.ones(shape) if name.endswith(".ln.g") else np.zeros(shape))
    return tape


def init_spatial_params(cfg: EncoderConfig, seed: int = 0) -> ParamTape:
    """Fresh spatial-model tape: encoders, attention stacks, heads, prior."""
    tape = _init_params(spatial_layout(cfg), seed)
    # Trainable shared prior; initialized to eta0=0, beta0=0.01, V0=0.1 I, nu0=4.
    # beta0 weighs the prior as beta0 goals: the loss is stationary in a
    # component mean at (r g + beta0 eta0) / (r + beta0), with r the
    # component's mean responsibility. r is about 1/2 when the history does
    # not reveal the branch, so beta0 = 1 would pull each mean two thirds
    # of the way to eta0; a vague beta0 leaves the means at the goals.
    tape.params["prior.beta_raw"][:] = softplus_inverse(0.01 - MIN_POSITIVE)
    tape.params["prior.chol_raw"][[0, 2]] = softplus_inverse(math.sqrt(0.1) - MIN_POSITIVE)
    tape.params["prior.nu_raw"][:] = softplus_inverse(4.0 - NU_FLOOR)
    return tape


def _as_leaves(params) -> Mapping[str, Var]:
    """Leaf nodes as given; a `ParamTape` runs on constants, so inference records no graph."""
    return params.constants() if isinstance(params, ParamTape) else params


def _mlp(leaves, name: str, x: Var) -> Var:
    h = ad.linear(x, leaves[f"{name}.l1.w"], leaves[f"{name}.l1.b"])
    h = ad.relu(ad.layer_norm(h, leaves[f"{name}.ln.g"], leaves[f"{name}.ln.b"]))
    return ad.linear(h, leaves[f"{name}.l2.w"], leaves[f"{name}.l2.b"])


@dataclass
class EncodedScenes:
    """Pooled polyline features of a batch of scenes, padded into one token tensor.

    Each scene's slots hold its map polylines in the first `n_map`, its
    target in slot `n_map` and its surrounding agents after that. Padding
    slots hold zeros and are False in `valid`; `observed` marks the
    surrounding slots whose agent has a state at step H.
    """

    tokens: Var  # (B, n_map + 1 + n_surr, hidden)
    valid: np.ndarray  # (B, n_map + 1 + n_surr) bool
    observed: np.ndarray  # (B, n_surr) bool
    n_map: int


def _check_scene(scene: VectorizedScene) -> None:
    for vs in scene.map_polylines:
        if vs.shape[1] != MAP_VECTOR_WIDTH:
            raise ShapeMismatch(f"map vectors have width {vs.shape[1]}, expected {MAP_VECTOR_WIDTH}")
    if scene.target.shape[0] < 1:
        raise ShapeMismatch("target polyline has no vectors; need at least two observed states")
    for vs in [scene.target, *scene.surrounding]:
        if vs.shape[1] != AGENT_VECTOR_WIDTH:
            raise ShapeMismatch(
                f"agent vectors have width {vs.shape[1]}, expected {AGENT_VECTOR_WIDTH}"
            )
    if np.shape(scene.surrounding_observed) != (len(scene.surrounding),):
        raise ShapeMismatch(
            f"surrounding_observed has shape {np.shape(scene.surrounding_observed)} "
            f"for {len(scene.surrounding)} surrounding agents"
        )


def encode_polylines(scenes: Sequence[VectorizedScene], leaves, cfg: EncoderConfig) -> EncodedScenes:
    """Per-vector MLP over every vector of the batch, then a max-pool per polyline."""
    if not scenes:
        raise ShapeMismatch("need at least one scene")
    for scene in scenes:
        _check_scene(scene)
    map_sets = [vs for s in scenes for vs in s.map_polylines]
    agent_sets = [vs for s in scenes for vs in (s.target, *s.surrounding)]
    pooled = ad.concat(
        [
            _encode_group(leaves, "map_enc", map_sets, cfg),
            _encode_group(leaves, "agent_enc", agent_sets, cfg),
            Var(np.zeros((1, cfg.hidden))),
        ],
        axis=0,
    )
    pad = len(map_sets) + len(agent_sets)  # the zero row
    n_map = max(len(s.map_polylines) for s in scenes)
    n_surr = max(len(s.surrounding) for s in scenes)
    slots = np.full((len(scenes), n_map + 1 + n_surr), pad)
    observed = np.zeros((len(scenes), n_surr), dtype=bool)
    map_row, agent_row = 0, len(map_sets)
    for b, s in enumerate(scenes):
        n_b, m_b = len(s.map_polylines), 1 + len(s.surrounding)
        slots[b, :n_b] = map_row + np.arange(n_b)
        slots[b, n_map : n_map + m_b] = agent_row + np.arange(m_b)
        observed[b, : m_b - 1] = s.surrounding_observed
        map_row += n_b
        agent_row += m_b
    return EncodedScenes(ad.take_rows(pooled, slots), slots != pad, observed, n_map)


def _tile_starts(lengths: list[int]) -> list[int]:
    """First vector set of each tile: whole sets, at most `_TILE_ROWS` rows unless one set is longer, never one row.

    A tile of one row would take BLAS's one-row product, whose bits differ
    from the same row's inside a product of two or more rows, so it stays
    open for the next set, and a last tile of one row joins the one before.
    """
    starts, rows = [0], 0
    for i, n in enumerate(lengths):
        if rows > 1 and rows + n > _TILE_ROWS:
            starts.append(i)
            rows = 0
        rows += n
    if rows == 1 and len(starts) > 1:
        starts.pop()
    return starts


def _encode_group(leaves, enc_name: str, vector_sets, cfg: EncoderConfig) -> Var:
    """One pooled row per vector set: the MLP over their vectors, then a segment max, per tile.

    The pooled rows are the bytes of one pass over every vector, whatever the
    tiling; a recorded graph's weight gradients sum one product per tile, so
    they depend on `_TILE_ROWS` in the last bits.
    """
    if not vector_sets:
        return Var(np.empty((0, cfg.hidden)))
    lengths = [len(vs) for vs in vector_sets]
    if min(lengths) == 0:
        raise ShapeMismatch("a polyline has no vectors")
    starts = _tile_starts(lengths)
    pooled = [
        ad.segment_max(
            _mlp(leaves, enc_name, Var(np.concatenate(vector_sets[a:b], axis=0))),
            np.cumsum([0] + lengths[a : b - 1]),
        )
        for a, b in zip(starts, starts[1:] + [len(vector_sets)])
    ]
    return pooled[0] if len(pooled) == 1 else ad.concat(pooled, axis=0)


def self_attention_block(x: Var, leaves, cfg: EncoderConfig, prefix: str, key_mask) -> Var:
    """LayerNorm(X + ReLU(MHA(X))), the block's parameters named `{prefix}.*`.

    Scaled dot-product attention with a row-wise softmax, all heads in one
    batched product. x is (..., N, hidden); `key_mask` (..., N) marks the
    tokens that may be attended to, so masked tokens have no influence.
    """
    d_k = cfg.hidden // cfg.n_heads
    split = x.value.shape[:-1] + (cfg.n_heads, d_k)

    def heads(proj: str) -> Var:  # (..., N, hidden) -> (..., n_heads, N, d_k)
        return ad.swapaxes(ad.reshape(ad.linear(x, leaves[f"{prefix}.{proj}"]), split), -3, -2)

    q, k, v = heads("wq"), heads("wk"), heads("wv")
    scale = 1.0 / math.sqrt(d_k)
    mask = np.asarray(key_mask, dtype=bool)[..., None, None, :]
    scores = ad.softmax(ad.matmul(q, ad.swapaxes(k, -1, -2)) * scale, mask=mask)
    attended = ad.relu(ad.reshape(ad.swapaxes(ad.matmul(scores, v), -3, -2), x.value.shape))
    return ad.layer_norm(ad.add(x, attended), leaves[f"{prefix}.ln.g"], leaves[f"{prefix}.ln.b"])


def _attention_stack(x: Var, key_mask, prefix: str, n_blocks: int, slot: int, leaves, cfg: EncoderConfig) -> Var:
    """Blocks `{prefix}0..{n_blocks - 1}` over tokens (B, N, hidden); returns the target row (B, hidden) at `slot`."""
    for i in range(n_blocks):
        x = self_attention_block(x, leaves, cfg, f"{prefix}{i}", key_mask)
    shape = x.value.shape
    return ad.reshape(ad.narrow(x, -2, slot, 1), shape[:-2] + shape[-1:])


def _cholesky_head(raw: Var) -> Var:
    """Factor rows (l11, l21, l22) from raw triples on the last axis: a positive diagonal, l21 free."""
    l11 = ad.softplus(ad.narrow(raw, -1, 0, 1)) + MIN_POSITIVE
    l21 = ad.narrow(raw, -1, 1, 1)
    l22 = ad.softplus(ad.narrow(raw, -1, 2, 1)) + MIN_POSITIVE
    return ad.concat([l11, l21, l22], axis=-1)


def spatial_trunk(scenes: Sequence[VectorizedScene], leaves, cfg: EncoderConfig) -> tuple[Var, Var, Var]:
    """Context and interaction target rows (B, hidden) of a batch of scenes, and their sum.

    The context stack attends over [map; target; surrounding] with padding
    masked out of the keys. The interaction stack attends over [target;
    surrounding]; surrounding agents without a state at step H (False in
    `observed`) and padding are masked out of its keys and cannot influence
    its row. The sum is the context feature the heads and trajectory
    completion read.
    """
    enc = encode_polylines(scenes, leaves, cfg)
    ctx = _attention_stack(enc.tokens, enc.valid, "ctx.block", cfg.L_c, enc.n_map, leaves, cfg)
    agents = ad.narrow(enc.tokens, -2, enc.n_map, enc.tokens.value.shape[-2] - enc.n_map)
    target = np.ones(enc.observed.shape[:-1] + (1,), dtype=bool)
    key_mask = np.concatenate([target, enc.observed], axis=-1)
    inter = _attention_stack(agents, key_mask, "inter.block", cfg.L_i, 0, leaves, cfg)
    return ctx, inter, ad.add(ctx, inter)


@dataclass
class SpatialForward:
    """Everything one forward pass of the spatial model produces.

    Shapes are for a batch of B scenes; a forward of one `VectorizedScene`
    drops the batch axis, except from `context_feature`, which is (1, hidden).
    """

    eta: Var  # (B, C, 2)
    beta: Var  # (B, C)
    chol: Var  # (B, C, 3) Cholesky rows of V_c
    nu: Var  # (B, C)
    context_feature: Var  # (B, hidden): context + interaction target rows
    weights_logits: Var  # (B, C) pre-softmax proxy logits
    weights: Var  # (B, C) z-proxy simplex
    leaves: Mapping[str, Var]  # the leaves the pass ran on; the loss builds the shared prior from them

    def mixture(self, scenario_id: str | None = None) -> MixturePosterior:
        """The uniform-weight mixture posterior of a one-scene forward, with V_c = L_c L_c^T.

        A component outside its family raises the error of the rule it
        breaks, naming the component and, when given, the scenario.
        """
        v = np.stack(spd_from_cholesky(*self.chol.value.T), axis=-1)
        try:
            return MixturePosterior(self.eta.value, self.beta.value, v, self.nu.value)
        except (NotPositiveDefinite, ValidationError) as exc:
            where = f"scenario {scenario_id!r}: " if scenario_id is not None else ""
            raise type(exc)(f"{where}emitted {exc}") from exc


def prior_vars(leaves) -> tuple[Var, Var, Var, Var]:
    """Constrained shared prior (eta (1, 2), beta (1,), chol (1, 3), nu (1,)) from raw leaves: one component."""
    beta = ad.softplus(leaves["prior.beta_raw"]) + MIN_POSITIVE
    chol = _cholesky_head(ad.reshape(leaves["prior.chol_raw"], (1, 3)))
    nu = ad.softplus(leaves["prior.nu_raw"]) + NU_FLOOR
    return ad.reshape(leaves["prior.eta"], (1, 2)), beta, chol, nu


def forward_spatial(
    scenes: VectorizedScene | Sequence[VectorizedScene], params, cfg: EncoderConfig
) -> SpatialForward:
    """Full spatial pass over a batch of scenes: the trunk, then its heads and the proxy.

    The context head emits eta and beta per component from the context
    target row, the interaction head the Cholesky rows of V and nu from the
    interaction target row, and the proxy head the weights from their sum.
    One `VectorizedScene` is a batch of one whose outputs drop the batch
    axis. A `ParamTape` runs on constants; a leaves mapping records the graph.
    """
    single = isinstance(scenes, VectorizedScene)
    leaves = _as_leaves(params)
    ctx_row, inter_row, combined = spatial_trunk([scenes] if single else scenes, leaves, cfg)
    ctx = _mlp(leaves, "ctx_head", ctx_row)
    inter = _mlp(leaves, "inter_head", inter_row)
    batch = ctx.value.shape[:-1]
    per_scene = (
        ad.reshape(ad.narrow(ctx, -1, 0, 2 * cfg.C), batch + (cfg.C, 2)),
        ad.softplus(ad.narrow(ctx, -1, 2 * cfg.C, cfg.C)) + MIN_POSITIVE,
        _cholesky_head(ad.reshape(ad.narrow(inter, -1, 0, 3 * cfg.C), batch + (cfg.C, 3))),
        ad.softplus(ad.narrow(inter, -1, 3 * cfg.C, cfg.C)) + NU_FLOOR,
        _mlp(leaves, "zproxy", combined),
    )
    if single:
        per_scene = tuple(ad.reshape(x, x.value.shape[1:]) for x in per_scene)
    eta, beta, chol, nu, logits = per_scene
    return SpatialForward(
        eta=eta,
        beta=beta,
        chol=chol,
        nu=nu,
        context_feature=combined,
        weights_logits=logits,
        weights=ad.softmax(logits),
        leaves=leaves,
    )


def save_model(path, tape: ParamTape, cfg: EncoderConfig) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(cfg),
        "params": {name: value.reshape(-1).tolist() for name, value in tape.params.items()},
    }
    Path(path).write_text(json.dumps(doc))


def _load_model(path, layout_of) -> tuple[ParamTape, EncoderConfig]:
    """The parameters of the model file at `path`, laid out as `layout_of(cfg, params)` says, and its config.

    The stored names must be the layout's, and each stored count its shape's, all checked before any
    parameter array is allocated. Every parameter must then be a list of JSON numbers, each within
    +-PARAM_BOUND. Each refusal names the file.
    """
    doc = read_json_object(path, "model", ValidationError, MODEL_FORMAT_VERSION)
    for key in ("config", "params"):
        if not isinstance(doc.get(key), dict):
            raise ValidationError(f"model {path}: {key!r} must be a JSON object")
    stored = doc["params"]
    try:
        cfg = EncoderConfig(**doc["config"])
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"model {path}: bad 'config': {exc}") from exc
    layout = layout_of(cfg, stored)
    if set(stored) != set(layout):
        missing, extra = sorted(set(layout) - set(stored))[:3], sorted(set(stored) - set(layout))[:3]
        raise ValidationError(f"model {path} parameter names mismatch (missing {missing}, unexpected {extra})")
    for name, shape in layout.items():
        values, n = stored[name], math.prod(shape)
        if not isinstance(values, list) or len(values) != n:
            found = len(values) if isinstance(values, list) else type(values).__name__
            raise ValidationError(f"model {path}: its config implies {n} values for {name!r}, found {found}")
    tape = ParamTape()
    for name, shape in layout.items():
        try:
            value = number_table([stored[name]], lambda i, j: f"parameter {name!r} value {j}")
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"model {path}: {exc}") from exc
        if not np.all(np.abs(value) <= PARAM_BOUND):
            raise ValidationError(f"model {path}: parameter {name!r} has values not within +-{PARAM_BOUND:g}")
        tape.add_param(name, value.reshape(shape))
    return tape, cfg


def load_spatial_model(path) -> tuple[ParamTape, EncoderConfig]:
    return _load_model(path, lambda cfg, stored: spatial_layout(cfg))


def init_trajectory_params(cfg: EncoderConfig, horizon: int, seed: int = 0) -> ParamTape:
    """Trajectory-completion tape: two MLPs from [context; goal] to T waypoints."""
    return _init_params(trajectory_layout(cfg, horizon), seed)


def trajectory_horizon(params) -> int:
    """T of a trajectory head, given as a tape or its leaves: its output layer is 2·T wide."""
    return len(_as_leaves(params)["traj.m2.l2.b"].value) // 2


def load_trajectory_model(path) -> tuple[ParamTape, EncoderConfig]:
    def layout_of(cfg, stored):
        out_b = stored.get("traj.m2.l2.b")
        if not isinstance(out_b, list) or len(out_b) % 2 != 0 or not out_b:
            raise ValidationError(f"model {path} lacks a valid trajectory output layer")
        return trajectory_layout(cfg, len(out_b) // 2)

    return _load_model(path, layout_of)
