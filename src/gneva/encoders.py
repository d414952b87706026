"""Attention encoders that emit the mixture's posterior parameters.

Two polyline encoders (map, agents) produce per-polyline features by a
shared per-vector MLP and max-pooling. A context attention stack over
[map; target; surrounding] emits the mean-posterior parameters (eta, beta)
per component; an interaction attention stack over [target; surrounding
observed at the horizon] emits the precision-posterior parameters (V via a
Cholesky head, nu). A proxy head maps the context feature to mixture
weights. All forwards run on the gradient tape; constraint layers keep
every emitted parameter inside the distribution family for any tape
values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import ParamTape, Var
from .dataio import AGENT_VECTOR_WIDTH, MAP_VECTOR_WIDTH, VectorizedScene
from .distributions import NormalWishartParams
from .errors import ShapeMismatch, ValidationError
from .mixture import MixturePosterior
from .special_math import SPDMatrix2

MIN_POSITIVE = 1e-3  # floor added after softplus on strictly positive outputs
NU_FLOOR = 3.0 + MIN_POSITIVE  # strictly above 3 even when softplus underflows

MODEL_FORMAT_VERSION = 1


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
        if self.hidden % self.n_heads != 0:
            raise ValidationError(
                f"hidden={self.hidden} not divisible by n_heads={self.n_heads}"
            )
        if self.L_c < 1 or self.L_i < 1:
            raise ValidationError("attention stacks need at least one layer")
        if self.C < 1:
            raise ValidationError("need at least one mixture component")


def softplus_inverse(y: float) -> float:
    return math.log(math.expm1(y))


def _uniform_init(rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _add_linear(tape: ParamTape, rng, name: str, fan_in: int, fan_out: int) -> None:
    tape.add_param(f"{name}.w", _uniform_init(rng, fan_in, fan_out))
    tape.add_param(f"{name}.b", np.zeros(fan_out))


def _add_mlp(tape: ParamTape, rng, name: str, fan_in: int, hidden: int, fan_out: int) -> None:
    _add_linear(tape, rng, f"{name}.l1", fan_in, hidden)
    tape.add_param(f"{name}.ln.g", np.ones(hidden))
    tape.add_param(f"{name}.ln.b", np.zeros(hidden))
    _add_linear(tape, rng, f"{name}.l2", hidden, fan_out)


def _add_attention_block(tape: ParamTape, rng, name: str, hidden: int) -> None:
    for proj in ("wq", "wk", "wv"):
        tape.add_param(f"{name}.{proj}", _uniform_init(rng, hidden, hidden))
    tape.add_param(f"{name}.ln.g", np.ones(hidden))
    tape.add_param(f"{name}.ln.b", np.zeros(hidden))


def init_spatial_params(cfg: EncoderConfig, seed: int = 0) -> ParamTape:
    """Fresh spatial-model tape: encoders, attention stacks, heads, prior."""
    tape = ParamTape(rng_seed=seed)
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    _add_mlp(tape, rng, "map_enc", MAP_VECTOR_WIDTH, h, h)
    _add_mlp(tape, rng, "agent_enc", AGENT_VECTOR_WIDTH, h, h)
    for i in range(cfg.L_c):
        _add_attention_block(tape, rng, f"ctx.block{i}", h)
    for i in range(cfg.L_i):
        _add_attention_block(tape, rng, f"inter.block{i}", h)
    _add_mlp(tape, rng, "ctx_head", h, h, 3 * cfg.C)  # C x (eta_x, eta_y) + C x beta_raw
    _add_mlp(tape, rng, "inter_head", h, h, 4 * cfg.C)  # C x chol raw triple + C x nu_raw
    _add_mlp(tape, rng, "zproxy", h, h, cfg.C)
    # Trainable shared prior; initialized to eta0=0, beta0=1, V0=0.1 I, nu0=4.
    sqrt_scale = math.sqrt(0.1)
    tape.add_param("prior.eta", np.zeros(2))
    tape.add_param("prior.beta_raw", np.array([softplus_inverse(1.0 - MIN_POSITIVE)]))
    tape.add_param(
        "prior.chol_raw",
        np.array([softplus_inverse(sqrt_scale - MIN_POSITIVE), 0.0,
                  softplus_inverse(sqrt_scale - MIN_POSITIVE)]),
    )
    tape.add_param("prior.nu_raw", np.array([softplus_inverse(4.0 - NU_FLOOR)]))
    return tape


def _as_leaves(params) -> Mapping[str, Var]:
    return params.leaves() if isinstance(params, ParamTape) else params


def _mlp(leaves, name: str, x: Var) -> Var:
    h = ad.linear(x, leaves[f"{name}.l1.w"], leaves[f"{name}.l1.b"])
    h = ad.relu(ad.layer_norm(h, leaves[f"{name}.ln.g"], leaves[f"{name}.ln.b"]))
    return ad.linear(h, leaves[f"{name}.l2.w"], leaves[f"{name}.l2.b"])


@dataclass
class EncodedScene:
    """Pooled per-polyline features: map rows, target row, surrounding rows."""

    m: Var  # (n_map, hidden)
    e: Var  # (1, hidden)
    o: Var  # (n_surr, hidden)


def encode_polylines(scene: VectorizedScene, params, cfg: EncoderConfig) -> EncodedScene:
    """Per-vector MLP followed by max-pooling over each polyline's vectors."""
    leaves = _as_leaves(params)
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

    m = _encode_group(leaves, "map_enc", scene.map_polylines, MAP_VECTOR_WIDTH, cfg)
    e = _encode_group(leaves, "agent_enc", [scene.target], AGENT_VECTOR_WIDTH, cfg)
    o = _encode_group(leaves, "agent_enc", scene.surrounding, AGENT_VECTOR_WIDTH, cfg)
    return EncodedScene(m=m, e=e, o=o)


def _encode_group(leaves, enc_name: str, vector_sets, width: int, cfg: EncoderConfig) -> Var:
    if not vector_sets:
        return Var(np.empty((0, cfg.hidden)))
    stacked = ad.concat([Var(vs) for vs in vector_sets], axis=0)
    features = _mlp(leaves, enc_name, stacked)
    pooled = []
    offset = 0
    for vs in vector_sets:
        rows = ad.narrow(features, 0, offset, len(vs))
        pooled.append(ad.max_along(rows, axis=0, keepdims=True))
        offset += len(vs)
    return ad.concat(pooled, axis=0) if len(pooled) > 1 else pooled[0]


def multi_head_attention(x: Var, leaves, prefix: str, cfg: EncoderConfig) -> Var:
    """Scaled dot-product attention with a row-wise softmax, multi-head."""
    q = ad.matmul(x, leaves[f"{prefix}.wq"])
    k = ad.matmul(x, leaves[f"{prefix}.wk"])
    v = ad.matmul(x, leaves[f"{prefix}.wv"])
    d_k = cfg.hidden // cfg.n_heads
    scale = 1.0 / math.sqrt(d_k)
    outputs = []
    for h in range(cfg.n_heads):
        qh = ad.narrow(q, 1, h * d_k, d_k)
        kh = ad.narrow(k, 1, h * d_k, d_k)
        vh = ad.narrow(v, 1, h * d_k, d_k)
        scores = ad.softmax(ad.matmul(qh, ad.transpose(kh)) * scale, axis=-1)
        outputs.append(ad.matmul(scores, vh))
    return ad.concat(outputs, axis=1) if len(outputs) > 1 else outputs[0]


def self_attention_block(x: Var, params, cfg: EncoderConfig, prefix: str = "ctx.block0") -> Var:
    """LayerNorm(X + ReLU(MHA(X)))."""
    leaves = _as_leaves(params)
    attended = ad.relu(multi_head_attention(x, leaves, prefix, cfg))
    return ad.layer_norm(
        ad.add(x, attended), leaves[f"{prefix}.ln.g"], leaves[f"{prefix}.ln.b"]
    )


@dataclass
class ContextOutputs:
    """Target-row context feature and the mean-posterior parameters."""

    feature: Var  # (1, hidden)
    eta: Var  # (C, 2), unconstrained target-frame meters
    beta: Var  # (C,), strictly positive


def context_attention(m: Var, e: Var, o: Var, params, cfg: EncoderConfig) -> ContextOutputs:
    """Attend over [map; target; surrounding]; emit eta and beta per component."""
    leaves = _as_leaves(params)
    x = ad.concat([m, e, o], axis=0)
    for i in range(cfg.L_c):
        x = self_attention_block(x, leaves, cfg, prefix=f"ctx.block{i}")
    target_row = ad.narrow(x, 0, m.value.shape[0], 1)  # e's position in the concat
    head = _mlp(leaves, "ctx_head", target_row)
    eta = ad.reshape(ad.narrow(head, 1, 0, 2 * cfg.C), (cfg.C, 2))
    beta_raw = ad.reshape(ad.narrow(head, 1, 2 * cfg.C, cfg.C), (cfg.C,))
    beta = ad.softplus(beta_raw) + MIN_POSITIVE
    return ContextOutputs(feature=target_row, eta=eta, beta=beta)


@dataclass
class InteractionOutputs:
    """Target-row interaction feature and the precision-posterior parameters."""

    feature: Var  # (1, hidden)
    chol: Var  # (C, 3) rows (l11, l21, l22) with positive diagonal
    nu: Var  # (C,), always > 3


def interaction_attention(
    e: Var, o: Var, mask: np.ndarray, params, cfg: EncoderConfig
) -> InteractionOutputs:
    """Attend over [target; surrounding observed at the horizon].

    `mask` marks which surrounding agents have a state at step H; the rest
    are removed before attention and cannot influence the output.
    """
    leaves = _as_leaves(params)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != o.value.shape[0]:
        raise ShapeMismatch(
            f"mask covers {mask.shape[0]} agents but o has {o.value.shape[0]} rows"
        )
    kept = np.flatnonzero(mask)
    o_masked = ad.take_rows(o, kept) if kept.size else Var(np.empty((0, cfg.hidden)))
    x = ad.concat([e, o_masked], axis=0)
    for i in range(cfg.L_i):
        x = self_attention_block(x, leaves, cfg, prefix=f"inter.block{i}")
    target_row = ad.narrow(x, 0, 0, 1)
    head = _mlp(leaves, "inter_head", target_row)
    raw = ad.reshape(ad.narrow(head, 1, 0, 3 * cfg.C), (cfg.C, 3))
    diag = ad.softplus(ad.narrow(raw, 1, 0, 1)) + MIN_POSITIVE  # l11
    off = ad.narrow(raw, 1, 1, 1)  # l21, unconstrained
    diag2 = ad.softplus(ad.narrow(raw, 1, 2, 1)) + MIN_POSITIVE  # l22
    chol = ad.concat([diag, off, diag2], axis=1)
    nu_raw = ad.reshape(ad.narrow(head, 1, 3 * cfg.C, cfg.C), (cfg.C,))
    nu = ad.softplus(nu_raw) + NU_FLOOR
    return InteractionOutputs(feature=target_row, chol=chol, nu=nu)


def z_proxy_logits(context_feature: Var, params, cfg: EncoderConfig) -> Var:
    """Pre-softmax assignment logits of the proxy head, shape (C,)."""
    leaves = _as_leaves(params)
    feature = context_feature
    if feature.value.ndim == 1:
        feature = ad.reshape(feature, (1, -1))
    return ad.reshape(_mlp(leaves, "zproxy", feature), (cfg.C,))


def z_proxy_forward(context_feature: Var, params, cfg: EncoderConfig) -> Var:
    """Mixture-assignment proxy: MLP on the context feature, then softmax."""
    return ad.softmax(z_proxy_logits(context_feature, params, cfg), axis=-1)


@dataclass
class SpatialForward:
    """Everything one forward pass of the spatial model produces."""

    eta: Var  # (C, 2)
    beta: Var  # (C,)
    chol: Var  # (C, 3) Cholesky rows of V_c
    nu: Var  # (C,)
    prior_eta: Var  # (2,)
    prior_beta: Var  # scalar, shape (1,)
    prior_chol: Var  # (3,)
    prior_nu: Var  # scalar, shape (1,)
    context_feature: Var  # (1, hidden): context + interaction target rows
    weights_logits: Var  # (C,) pre-softmax proxy logits
    weights: Var  # (C,) z-proxy simplex

    def mixture(self) -> MixturePosterior:
        comps = []
        eta = self.eta.value
        beta = self.beta.value
        chol = self.chol.value
        nu = self.nu.value
        for c in range(eta.shape[0]):
            v = SPDMatrix2.from_cholesky(*chol[c])
            comps.append(NormalWishartParams(eta=eta[c], beta=float(beta[c]), v=v, nu=float(nu[c])))
        return MixturePosterior.uniform(comps)

    def prior(self) -> NormalWishartParams:
        v = SPDMatrix2.from_cholesky(*self.prior_chol.value)
        return NormalWishartParams(
            eta=self.prior_eta.value,
            beta=float(self.prior_beta.value[0]),
            v=v,
            nu=float(self.prior_nu.value[0]),
        )


def prior_vars(leaves) -> tuple[Var, Var, Var, Var]:
    """Constrained prior parameters (eta, beta, chol, nu) from raw leaves."""
    beta = ad.softplus(leaves["prior.beta_raw"]) + MIN_POSITIVE
    raw = leaves["prior.chol_raw"]
    diag1 = ad.softplus(ad.narrow(raw, 0, 0, 1)) + MIN_POSITIVE
    off = ad.narrow(raw, 0, 1, 1)
    diag2 = ad.softplus(ad.narrow(raw, 0, 2, 1)) + MIN_POSITIVE
    chol = ad.concat([diag1, off, diag2], axis=0)
    nu = ad.softplus(leaves["prior.nu_raw"]) + NU_FLOOR
    return leaves["prior.eta"], beta, chol, nu


def forward_spatial(scene: VectorizedScene, params, cfg: EncoderConfig) -> SpatialForward:
    """Full spatial pass: encoders, both attention modules, proxy, prior."""
    leaves = _as_leaves(params)
    encoded = encode_polylines(scene, leaves, cfg)
    ctx = context_attention(encoded.m, encoded.e, encoded.o, leaves, cfg)
    inter = interaction_attention(
        encoded.e, encoded.o, scene.surrounding_observed, leaves, cfg
    )
    combined = ad.add(ctx.feature, inter.feature)
    logits = z_proxy_logits(combined, leaves, cfg)
    weights = ad.softmax(logits, axis=-1)
    p_eta, p_beta, p_chol, p_nu = prior_vars(leaves)
    return SpatialForward(
        eta=ctx.eta,
        beta=ctx.beta,
        chol=inter.chol,
        nu=inter.nu,
        prior_eta=p_eta,
        prior_beta=p_beta,
        prior_chol=p_chol,
        prior_nu=p_nu,
        context_feature=combined,
        weights_logits=logits,
        weights=weights,
    )


def save_model(path, tape: ParamTape, cfg: EncoderConfig) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(cfg),
        "params": {name: value.reshape(-1).tolist() for name, value in tape.params.items()},
    }
    Path(path).write_text(json.dumps(doc))


def _load_document(path) -> tuple[dict, EncoderConfig]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot load model {path}: {exc}") from exc
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format_version {doc.get('format_version')!r}")
    cfg = EncoderConfig(**doc["config"])
    return doc, cfg


def _restore_into(template: ParamTape, stored: dict, path) -> ParamTape:
    if set(stored) != set(template.params):
        missing = set(template.params) - set(stored)
        extra = set(stored) - set(template.params)
        raise ValidationError(
            f"model {path} parameter names mismatch (missing {sorted(missing)[:3]}, "
            f"unexpected {sorted(extra)[:3]})"
        )
    for name, flat in stored.items():
        expected = template.params[name]
        values = np.asarray(flat, dtype=float)
        if values.size != expected.size:
            raise ValidationError(
                f"model {path}: parameter {name!r} has {values.size} values, "
                f"expected {expected.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"model {path}: parameter {name!r} has non-finite values")
        expected[...] = values.reshape(expected.shape)
    return template


def load_spatial_model(path) -> tuple[ParamTape, EncoderConfig]:
    doc, cfg = _load_document(path)
    tape = _restore_into(init_spatial_params(cfg, seed=0), doc["params"], path)
    return tape, cfg


def init_trajectory_params(cfg: EncoderConfig, horizon: int, seed: int = 0) -> ParamTape:
    """Trajectory-completion tape: two MLPs from [context; goal] to T waypoints."""
    tape = ParamTape(rng_seed=seed)
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    _add_mlp(tape, rng, "traj.m1", h + 2, h, h)
    _add_mlp(tape, rng, "traj.m2", h, h, 2 * horizon)
    return tape


def load_trajectory_model(path) -> tuple[ParamTape, EncoderConfig, int]:
    doc, cfg = _load_document(path)
    out_b = doc["params"].get("traj.m2.l2.b")
    if out_b is None or len(out_b) % 2 != 0 or not out_b:
        raise ValidationError(f"model {path} lacks a valid trajectory output layer")
    horizon = len(out_b) // 2
    tape = _restore_into(init_trajectory_params(cfg, horizon, seed=0), doc["params"], path)
    return tape, cfg, horizon
