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
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import ParamTape, Var, backward
from .dataio import Scenario, vectorize
from .encoders import EncoderConfig, SpatialForward, forward_spatial, prior_vars, spatial_trunk, trajectory_horizon
from .errors import NonFiniteLoss, ValidationError, check_config_fields
from .mixture import NormalWishartArrays, elbo_terms
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
        check_config_fields(self)
        if not 0.0 < self.final_lr < self.peak_lr:
            raise ValidationError(f"final_lr must lie in (0, peak_lr={self.peak_lr}), got {self.final_lr}")
        if self.weight_decay < 0.0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")


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


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class OptimizerState:
    """AdamW first/second moments per parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_tape(cls, tape: ParamTape) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in tape.params.items()},
            v={k: np.zeros_like(p) for k, p in tape.params.items()},
        )


def adamw_step(
    tape: ParamTape, grads: Mapping[str, np.ndarray], opt: OptimizerState, lr: float, cfg: TrainConfig
) -> None:
    """One decoupled-weight-decay Adam update from `grads`, one array per parameter name.

    Updates each parameter in place through the two rows of one scratch
    array, in the order of operations of the out-of-place formula, so it
    rounds exactly as that does.
    """
    opt.step += 1
    bc1 = 1.0 - BETA1**opt.step
    bc2 = 1.0 - BETA2**opt.step
    scratch = np.empty((2, max((p.size for p in tape.params.values()), default=0)))
    for name, param in tape.params.items():
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        num = scratch[0, : param.size].reshape(param.shape)
        den = scratch[1, : param.size].reshape(param.shape)
        np.multiply(g, 1.0 - BETA1, out=num)
        m *= BETA1
        m += num
        np.multiply(g, 1.0 - BETA2, out=num)
        num *= g
        v *= BETA2
        v += num
        np.divide(m, bc1, out=num)
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        num *= lr
        param -= num
        if cfg.weight_decay > 0.0:
            np.multiply(param, lr * cfg.weight_decay, out=num)
            param -= num


@dataclass
class SceneLossTerms:
    """Per-scene loss terms: shape (B,) for a batched forward, scalars for one scene."""

    loss: Var
    elbo: float | np.ndarray
    cross_entropy: float | np.ndarray
    responsibilities: np.ndarray  # (B, C), or (C,) for one scene


def spatial_scene_loss(
    goal: np.ndarray,
    fw: SpatialForward,
    lambda_z: float,
    q_target: np.ndarray | None = None,
) -> SceneLossTerms:
    """-ELBO + lambda_z * CE per scene, built on the gradient tape.

    `goal` is (B, 2) for a batched forward and (2,) for one scene. The
    shared prior is built here, from the leaves the forward ran on. The ELBO
    uses the optimal softmax responsibilities; the cross-entropy trains the
    proxy head against those responsibilities as a constant target (pass
    `q_target` to pin the constant explicitly, e.g. when cross-checking
    gradients against finite differences of this loss).
    """
    q = NormalWishartArrays(fw.eta, fw.beta, fw.chol, fw.nu)
    prior = NormalWishartArrays(*prior_vars(fw.leaves))
    c = fw.eta.value.shape[-2]
    log_uniform = np.full(c, -math.log(c))  # mixing coefficients and their prior
    elbo, resp = elbo_terms(goal, q, prior, log_uniform, log_uniform)

    target = Var(resp.value.copy() if q_target is None else np.asarray(q_target, dtype=float))
    log_weights = fw.weights_logits - ad.logsumexp(fw.weights_logits)
    cross_entropy = -ad.vsum(ad.mul(target, log_weights), axis=-1)

    loss = -elbo + lambda_z * cross_entropy
    return SceneLossTerms(
        loss=loss,
        elbo=elbo.value[()],  # a float for one scene, the (B,) array for a batch
        cross_entropy=cross_entropy.value[()],
        responsibilities=resp.value.copy(),
    )


def huber(residual: Var) -> Var:
    """Mean Huber penalty at threshold 1: c r - c^2 / 2 with c = clip(r, -1, 1) a constant, so its gradient is c."""
    c = np.clip(residual.value, -1.0, 1.0)
    return ad.vmean(ad.mul(residual, Var(c)) - Var(0.5 * c * c))


@dataclass
class TrainHistory:
    """One flat row per step: step, lr, loss, elbo, ce, grad_norm, then the
    loop's own columns (spatial runs: usage_c, q_entropy, eta_spread_c).
    A column a loop does not log (a trajectory run's elbo and ce) is None."""

    rows: list[dict] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [r["loss"] for r in self.rows]

    def write_csv(self, path) -> None:
        """The rows under a header of their keys; None is written as an empty field."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.rows[0])
            for step, *values in (r.values() for r in self.rows):
                writer.writerow([step] + ["" if v is None else f"{v:.10g}" for v in values])


def batch_diagnostics(resp: np.ndarray, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean entropy of q(z) over responsibilities (B, C), and each component's eta spread.

    The spread (C,) is the RMS distance of eta (B, C, 2) across the batch's
    scenes from its batch mean; a component whose mean ignores the scene has 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(resp > 0.0, resp * np.log(resp), 0.0)
    spread = np.sqrt(((eta - eta.mean(axis=0)) ** 2).sum(axis=-1).mean(axis=0))
    return float(-plogp.sum(axis=-1).mean()), spread


def grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    """Global L2 norm of a gradient mapping."""
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def _plan_steps(n_scenes: int, cfg: TrainConfig) -> int:
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
    return total


def _fit(tape: ParamTape, n_scenes: int, cfg: TrainConfig, step_loss) -> TrainHistory:
    """Train `tape` in place with AdamW, one backward per minibatch.

    `step_loss(batch, leaves, step)` runs the forward of the scene indices
    `batch` on the tape's leaves and returns the scalar batch loss and the
    step's extra history columns by name, elbo and ce among them if it logs
    them. A run that diverges raises NonFiniteLoss:
    `step_loss` checks each loss, and the trained parameters are checked at
    the end, so numpy's overflow warnings on the way there are silenced.
    """
    total_steps = _plan_steps(n_scenes, cfg)
    opt = OptimizerState.for_tape(tape)
    history = TrainHistory()
    batch_iter = _batches(n_scenes, cfg.batch_size, np.random.default_rng(cfg.seed))
    with np.errstate(all="ignore"):
        for step in range(1, total_steps + 1):
            leaves = tape.leaves()
            batch_loss, columns = step_loss(next(batch_iter), leaves, step)
            backward(batch_loss)
            grads = ad.leaf_gradients(leaves)
            lr = lr_schedule(step, total_steps, cfg)
            norm = grad_norm(grads)
            adamw_step(tape, grads, opt, lr, cfg)
            history.rows.append({"step": step, "lr": lr, "loss": float(batch_loss.value), "elbo": None, "ce": None,
                                 "grad_norm": norm, **columns})
    for name, param in tape.params.items():
        if not np.isfinite(param).all():
            raise NonFiniteLoss(f"training diverged: parameter {name!r} is not finite after the last step")
    return history


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start : start + batch_size]


def kmeans_centres(goals: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's k-means of goals (n, 2) into c centres (c, 2), k-means++ seeded.

    A centre whose cluster empties keeps its previous position.
    """
    goals = np.asarray(goals, dtype=float)
    n = goals.shape[0]

    def sq_dists(centres):
        return ((goals[:, None, :] - centres[None, :, :]) ** 2).sum(axis=-1)

    centres = np.empty((c, 2))
    centres[0] = goals[rng.integers(n)]
    for k in range(1, c):
        d2 = sq_dists(centres[:k]).min(axis=1)
        total = d2.sum()
        centres[k] = goals[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
    for _ in range(100):
        assign = sq_dists(centres).argmin(axis=1)
        updated = centres.copy()
        for k in range(c):
            members = goals[assign == k]
            if len(members):
                updated[k] = members.mean(axis=0)
        if np.array_equal(updated, centres):
            break
        centres = updated
    return centres


def train_spatial(
    dataset: list[Scenario],
    tape: ParamTape,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
) -> tuple[ParamTape, TrainHistory]:
    """Train the spatial model on target-frame scenarios with known goals.

    `tape` is expected fresh from `init_spatial_params`: before the first
    step the bias of the eta head is set to k-means centres of the training
    goals, so the component means start spread over the goals rather than
    all at one point, where one component would take every goal.
    """
    ids = [s.scenario_id for s in dataset]
    vectors = [vectorize(s, enc_cfg) for s in dataset]
    goals = np.stack([s.goal() for s in dataset])
    centres = kmeans_centres(goals, enc_cfg.C, np.random.default_rng(cfg.seed))
    tape.params["ctx_head.l2.b"][: 2 * enc_cfg.C] = centres.reshape(-1)

    def step_loss(batch, leaves, step):
        fw = forward_spatial([vectors[i] for i in batch], leaves, enc_cfg)
        terms = spatial_scene_loss(goals[batch], fw, cfg.lambda_z)
        _check_finite(terms.loss.value, [ids[i] for i in batch], f"spatial loss at step {step}")
        q_entropy, eta_spread = batch_diagnostics(terms.responsibilities, fw.eta.value)
        usage = terms.responsibilities.mean(axis=0)
        return ad.vmean(terms.loss), {
            "elbo": float(terms.elbo.mean()), "ce": float(terms.cross_entropy.mean()),
            **{f"usage_{c}": u for c, u in enumerate(usage)}, "q_entropy": q_entropy,
            **{f"eta_spread_{c}": e for c, e in enumerate(eta_spread)},
        }

    return tape, _fit(tape, len(dataset), cfg, step_loss)


def _check_finite(values: np.ndarray, scenario_ids: list[str], what: str) -> None:
    """Raise NonFiniteLoss naming the first scene whose row of `values` is not finite."""
    finite = np.isfinite(values.reshape(len(scenario_ids), -1)).all(axis=1)
    if not finite.all():
        raise NonFiniteLoss(f"non-finite {what} in scenario {scenario_ids[int(np.argmin(finite))]!r}")


# Scenes per batched forward. A scene's context differs in the last bits with
# the scenes it is padded and batched with, so the chunk stays fixed; the
# polyline encoder's memory is bounded by its tiles, the attention's by this.
_CONTEXT_CHUNK = 16


def spatial_context_features(
    dataset: list[Scenario], spatial_tape: ParamTape, enc_cfg: EncoderConfig
) -> np.ndarray:
    """Frozen-tape context features (n, hidden) for trajectory training: the trunk's summed rows.

    One batched trunk pass per `_CONTEXT_CHUNK` scenes, on constants. The
    polyline encoders run in tiles of whole polylines (`encoders._TILE_ROWS`),
    so their intermediates stay a few MiB whatever the chunk holds. The
    chunk fixes each scene's padding and batch companions, and so its bits.
    """
    vectors = [vectorize(s, enc_cfg) for s in dataset]
    return np.concatenate([
        spatial_trunk(vectors[i : i + _CONTEXT_CHUNK], spatial_tape.constants(), enc_cfg)[-1].value
        for i in range(0, len(vectors), _CONTEXT_CHUNK)
    ])


def train_trajectory(
    dataset: list[Scenario],
    spatial_tape: ParamTape,
    traj_tape: ParamTape,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
) -> tuple[ParamTape, TrainHistory]:
    """Train the trajectory head, teacher-forced on ground-truth goals; the scenes' T must be the head's."""
    horizon = dataset[0].T
    odd = next((s for s in dataset if s.T != horizon), None)
    if odd is not None:
        raise ValidationError(
            f"trajectory training needs one prediction horizon: scenario {odd.scenario_id!r} has T={odd.T}, "
            f"scenario {dataset[0].scenario_id!r} has T={horizon}"
        )
    head = trajectory_horizon(traj_tape)
    if head != horizon:
        raise ValidationError(f"the trajectory head predicts T={head} steps, its training scenes have T={horizon}")
    contexts = spatial_context_features(dataset, spatial_tape, enc_cfg)
    ids = [s.scenario_id for s in dataset]
    goals = np.stack([s.goal() for s in dataset])
    futures = np.stack([s.future_waypoints() for s in dataset])

    def step_loss(batch, leaves, step):
        pred = trajectory_forward(Var(contexts[batch]), goals[batch], leaves)
        residual = ad.sub(pred, Var(futures[batch]))
        _check_finite(residual.value, [ids[i] for i in batch], f"trajectory loss at step {step}")
        return huber(residual), {}

    return traj_tape, _fit(traj_tape, len(dataset), cfg, step_loss)
