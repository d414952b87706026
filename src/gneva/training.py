"""Optimization: schedule, AdamW, and the two training loops.

The spatial model minimizes -ELBO plus a cross-entropy that teaches the
proxy head to imitate the variational responsibilities (which enter the
cross-entropy as constants). The ELBO and the responsibilities come from
`mixture.elbo_terms`, the single implementation of the mixture's closed
forms, run here on the forward pass's tape nodes. The trajectory network
is trained afterwards with the spatial tape frozen, minimizing a Huber
loss against ground-truth waypoints with the ground-truth goal
teacher-forced.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ParamTape, Var, backward
from .dataio import Scenario, VectorizedScene, vectorize
from .distributions import NormalWishartArrays
from .encoders import EncoderConfig, SpatialForward, forward_spatial
from .errors import NonFiniteLoss, ValidationError
from .mixture import elbo_terms
from .trajectory import trajectory_forward


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 36
    peak_lr: float = 1e-3
    warmup_steps: int = 1000
    final_lr: float = 3e-7
    weight_decay: float = 1e-3
    seed: int = 0
    lambda_z: float = 1.0  # weight of the proxy cross-entropy term
    max_steps: int | None = None  # desk-scale override; caps total steps

    def __post_init__(self):
        if min(self.batch_size, self.epochs, self.warmup_steps) < 1:
            raise ValidationError("batch_size, epochs and warmup_steps must be positive")
        if not (0.0 < self.final_lr < self.peak_lr):
            raise ValidationError("need 0 < final_lr < peak_lr")
        if self.weight_decay < 0.0:
            raise ValidationError("weight_decay must be non-negative")


def lr_schedule(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak_lr, then cosine annealing to final_lr."""
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step {step} outside [0, {total_steps}]")
    if total_steps <= cfg.warmup_steps:
        raise ValidationError(
            f"total_steps={total_steps} must exceed warmup_steps={cfg.warmup_steps}"
        )
    if step <= cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    progress = (step - cfg.warmup_steps) / (total_steps - cfg.warmup_steps)
    return cfg.final_lr + 0.5 * (cfg.peak_lr - cfg.final_lr) * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW first/second moments per parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_tape(cls, tape: ParamTape) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in tape.params.items()},
            v={k: np.zeros_like(p) for k, p in tape.params.items()},
        )


def adamw_step(tape: ParamTape, opt: OptimizerState, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update from the accumulated gradients."""
    opt.step += 1
    bc1 = 1.0 - opt.beta1**opt.step
    bc2 = 1.0 - opt.beta2**opt.step
    for name, param in tape.params.items():
        g = tape.grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        param -= lr * update
        if cfg.weight_decay > 0.0:
            param -= lr * cfg.weight_decay * param


@dataclass
class SceneLossTerms:
    loss: Var
    elbo: float
    cross_entropy: float
    responsibilities: np.ndarray


def spatial_scene_loss(
    goal: np.ndarray,
    fw: SpatialForward,
    lambda_z: float,
    q_target: np.ndarray | None = None,
) -> SceneLossTerms:
    """-ELBO + lambda_z * CE for one scene, built on the gradient tape.

    The ELBO uses the optimal softmax responsibilities; the cross-entropy
    trains the proxy head against those responsibilities as a constant
    target (pass `q_target` to pin the constant explicitly, e.g. when
    cross-checking gradients against finite differences of this loss).
    """
    q = NormalWishartArrays(fw.eta, fw.beta, fw.chol, fw.nu)
    prior = NormalWishartArrays(fw.prior_eta, fw.prior_beta, fw.prior_chol, fw.prior_nu)
    c = fw.eta.value.shape[0]
    log_uniform = np.full(c, -math.log(c))  # mixing coefficients and their prior
    elbo, resp = elbo_terms(goal, q, prior, log_uniform, log_uniform)

    target = Var(resp.value.copy() if q_target is None else np.asarray(q_target, dtype=float))
    log_weights = fw.weights_logits - ad.logsumexp(fw.weights_logits)
    cross_entropy = -ad.vsum(ad.mul(target, log_weights))

    loss = -elbo + lambda_z * cross_entropy
    return SceneLossTerms(
        loss=loss,
        elbo=float(elbo.value),
        cross_entropy=float(cross_entropy.value),
        responsibilities=resp.value.copy(),
    )


def huber(residual: Var, delta: float = 1.0) -> Var:
    """Elementwise Huber penalty, averaged over all entries."""
    r = residual.value
    quadratic = np.abs(r) <= delta
    abs_r = ad.relu(residual) + ad.relu(-residual)
    quad_part = 0.5 * ad.square(residual)
    lin_part = delta * (abs_r - 0.5 * delta)
    mixed = ad.mul(quad_part, Var(quadratic.astype(float))) + ad.mul(
        lin_part, Var((~quadratic).astype(float))
    )
    return ad.vmean(mixed)


@dataclass
class TrainHistory:
    """Per-step loss records; spatial runs also log the ELBO and CE means."""

    rows: list[dict] = field(default_factory=list)

    def add(self, step: int, lr: float, loss: float, elbo=None, ce=None):
        self.rows.append({"step": step, "lr": lr, "loss": loss, "elbo": elbo, "ce": ce})

    @property
    def losses(self) -> list[float]:
        return [r["loss"] for r in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "lr", "loss", "elbo", "ce"])
            for r in self.rows:
                writer.writerow(
                    [
                        r["step"],
                        f"{r['lr']:.10g}",
                        f"{r['loss']:.10g}",
                        "" if r["elbo"] is None else f"{r['elbo']:.10g}",
                        "" if r["ce"] is None else f"{r['ce']:.10g}",
                    ]
                )


def _plan_steps(n_scenes: int, cfg: TrainConfig) -> tuple[int, int]:
    per_epoch = n_scenes // cfg.batch_size
    if per_epoch == 0:
        raise ValidationError(
            f"dataset of {n_scenes} scenes is smaller than one batch of {cfg.batch_size}"
        )
    total = cfg.epochs * per_epoch
    if cfg.max_steps is not None:
        total = min(total, cfg.max_steps)
    if total <= cfg.warmup_steps:
        raise ValidationError(
            f"planned {total} steps do not exceed warmup_steps={cfg.warmup_steps}"
        )
    return total, per_epoch


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start : start + batch_size]


def train_spatial(
    dataset: list[Scenario],
    tape: ParamTape,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
) -> tuple[ParamTape, TrainHistory]:
    """Train the spatial model on target-frame scenarios with known goals."""
    scenes = [(s.scenario_id, vectorize(s, enc_cfg), s.goal()) for s in dataset]
    total_steps, _ = _plan_steps(len(scenes), cfg)
    opt = OptimizerState.for_tape(tape)
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    batch_iter = _batches(len(scenes), cfg.batch_size, rng)
    for step in range(1, total_steps + 1):
        batch = next(batch_iter)
        tape.zero_grads()
        leaves = tape.leaves()
        loss_nodes = []
        elbo_sum = 0.0
        ce_sum = 0.0
        for idx in batch:
            scenario_id, vs, goal = scenes[idx]
            fw = forward_spatial(vs, leaves, enc_cfg)
            terms = spatial_scene_loss(goal, fw, cfg.lambda_z)
            if not math.isfinite(float(terms.loss.value)):
                raise NonFiniteLoss(
                    f"non-finite spatial loss at step {step}", scenario_id=scenario_id
                )
            loss_nodes.append(terms.loss)
            elbo_sum += terms.elbo
            ce_sum += terms.cross_entropy
        batch_loss = ad.concat([ad.reshape(n, (1,)) for n in loss_nodes], axis=0)
        batch_loss = ad.vmean(batch_loss)
        backward(batch_loss)
        tape.accumulate_grads(leaves)
        lr = lr_schedule(step, total_steps, cfg)
        adamw_step(tape, opt, lr, cfg)
        history.add(
            step,
            lr,
            float(batch_loss.value),
            elbo=elbo_sum / len(batch),
            ce=ce_sum / len(batch),
        )
    return tape, history


def spatial_context_features(
    dataset: list[Scenario], spatial_tape: ParamTape, enc_cfg: EncoderConfig
) -> list[np.ndarray]:
    """Frozen-tape context features for trajectory training and inference."""
    leaves = spatial_tape.leaves()
    out = []
    for s in dataset:
        fw = forward_spatial(vectorize(s, enc_cfg), leaves, enc_cfg)
        out.append(fw.context_feature.value.copy())
    return out


def train_trajectory(
    dataset: list[Scenario],
    spatial_tape: ParamTape,
    traj_tape: ParamTape,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
) -> tuple[ParamTape, TrainHistory]:
    """Train the trajectory head, teacher-forced on ground-truth goals."""
    contexts = spatial_context_features(dataset, spatial_tape, enc_cfg)
    horizon = dataset[0].T
    scenes = []
    for s, ctx in zip(dataset, contexts):
        if s.T != horizon:
            raise ValidationError("trajectory training needs a homogeneous prediction horizon")
        scenes.append((s.scenario_id, ctx, s.goal(), s.future_waypoints()))
    total_steps, _ = _plan_steps(len(scenes), cfg)
    opt = OptimizerState.for_tape(traj_tape)
    history = TrainHistory()
    rng = np.random.default_rng(cfg.seed)
    batch_iter = _batches(len(scenes), cfg.batch_size, rng)
    for step in range(1, total_steps + 1):
        batch = next(batch_iter)
        traj_tape.zero_grads()
        leaves = traj_tape.leaves()
        loss_nodes = []
        for idx in batch:
            scenario_id, ctx, goal, future = scenes[idx]
            pred = trajectory_forward(Var(ctx), goal, leaves, enc_cfg, horizon)
            node = huber(ad.sub(pred, Var(future)), delta=1.0)
            if not math.isfinite(float(node.value)):
                raise NonFiniteLoss(
                    f"non-finite trajectory loss at step {step}", scenario_id=scenario_id
                )
            loss_nodes.append(node)
        batch_loss = ad.vmean(ad.concat([ad.reshape(n, (1,)) for n in loss_nodes], axis=0))
        backward(batch_loss)
        traj_tape.accumulate_grads(leaves)
        lr = lr_schedule(step, total_steps, cfg)
        adamw_step(traj_tape, opt, lr, cfg)
        history.add(step, lr, float(batch_loss.value))
    return traj_tape, history
