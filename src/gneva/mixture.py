"""Variational mixture of Gaussians over goal locations.

The mixture has C Normal-Wishart component posteriors and fixed mixing
coefficients. This module evaluates the optimal z-posterior
(responsibilities), the evidence lower bound for a single observed goal,
the Student-t posterior predictive mixture, and the exact log evidence
under the shared prior (the upper bound the ELBO is checked against).

`elbo_terms` is the one implementation of the responsibilities and the
bound, with tape operators over `distributions.NormalWishartArrays`. The
spatial training loss calls it on forward-pass nodes; `z_posterior` and
`elbo` call it on a `MixturePosterior` stacked into constant nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .distributions import (
    NormalWishartArrays,
    NormalWishartParams,
    posterior_predictive_params,
    predictive_student_t,
    student_t_log_density,
    student_t_log_density_table,
)
from .errors import ValidationError
from .special_math import log_sum_exp


@dataclass(frozen=True)
class MixturePosterior:
    """C component posteriors plus log mixing coefficients."""

    components: tuple[NormalWishartParams, ...]
    log_pi: np.ndarray

    def __post_init__(self):
        components = tuple(self.components)
        log_pi = np.asarray(self.log_pi, dtype=float).reshape(-1)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "log_pi", log_pi)
        if len(components) < 1:
            raise ValidationError("mixture needs at least one component")
        if log_pi.shape != (len(components),):
            raise ValidationError(
                f"log_pi has {log_pi.shape[0]} entries for {len(components)} components"
            )
        total = float(np.exp(log_pi).sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"mixing coefficients sum to {total}, expected 1")

    @classmethod
    def uniform(cls, components) -> "MixturePosterior":
        components = tuple(components)
        c = len(components)
        return cls(components=components, log_pi=np.full(c, -math.log(c)))

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Responsibilities:
    """Per-component assignment probabilities q(z) of one goal observation."""

    q_z: np.ndarray

    def __post_init__(self):
        q_z = np.asarray(self.q_z, dtype=float).reshape(-1)
        object.__setattr__(self, "q_z", q_z)
        if np.any(q_z < 0.0) or abs(float(q_z.sum()) - 1.0) > 1e-10:
            raise ValidationError(f"responsibilities must form a simplex, got {q_z}")


def responsibilities(g, q: NormalWishartArrays, log_pi) -> tuple[Var, Var, Var]:
    """Expected log emissions, the log weights log pi + emission, and q(z), their softmax."""
    emission = q.expected_emission(g)
    log_w = emission + log_pi
    return emission, log_w, ad.softmax(log_w)


def elbo_terms(
    g, q: NormalWishartArrays, prior: NormalWishartArrays, log_pi, log_prior_pi
) -> tuple[Var, Var]:
    """Evidence lower bound on log p(g) for one goal, and the responsibilities.

    sum_c q(z=c) E_q[log p(g | mu_c, Lambda_c)]
    - sum_c E_q KL(q(mu_c | Lambda_c) || p(mu | Lambda))
    - sum_c KL(q(Lambda_c) || p(Lambda)) - KL(q(z) || prior_pi),
    with q(z) the optimal responsibilities under mixing coefficients pi.
    """
    emission, log_w, resp = responsibilities(g, q, log_pi)
    log_prior_pi = np.where(resp.value > 0.0, log_prior_pi, 0.0)  # 0 log(0 / pi_c) = 0 at pi_c = 0
    kl_z = ad.vsum(ad.mul(resp, log_w - ad.logsumexp(log_w) - log_prior_pi))
    bound = (
        ad.vsum(ad.mul(resp, emission))
        - ad.vsum(q.kl_mean_given_precision(prior))
        - ad.vsum(q.kl_wishart(prior))
        - kl_z
    )
    return bound, resp


def z_posterior(g, mix: MixturePosterior) -> Responsibilities:
    """Optimal variational assignment posterior."""
    q = NormalWishartArrays.stack(mix.components)
    _, _, resp = responsibilities(np.reshape(g, 2), q, mix.log_pi)
    return Responsibilities(q_z=resp.value)


def elbo(g, mix: MixturePosterior, prior: NormalWishartParams, prior_pi) -> float:
    """Evidence lower bound on log p(g) for a single observed goal (see `elbo_terms`)."""
    prior_pi = np.asarray(prior_pi, dtype=float).reshape(-1)
    if prior_pi.shape[0] != mix.n_components:
        raise ValidationError("prior_pi length must match the component count")
    q, p = NormalWishartArrays.stack(mix.components), NormalWishartArrays.stack([prior])
    with np.errstate(divide="ignore"):
        bound, _ = elbo_terms(np.reshape(g, 2), q, p, mix.log_pi, np.log(prior_pi))
    return float(bound.value)


def predictive_log_density(g_star, mix: MixturePosterior, weights) -> float:
    """log sum_c w_c tau(g*; predictive of component c)."""
    return float(predictive_log_densities(g_star, mix, weights)[0])


def predictive_log_densities(points, mix: MixturePosterior, weights) -> np.ndarray:
    """Predictive mixture log density over points (n, 2); zero-weight components may have any nu."""
    weights = _check_weights(weights, mix.n_components)
    live = np.flatnonzero(weights)
    loc, shape, df = predictive_student_t(NormalWishartArrays.stack(mix.components).take(live))
    logs = np.log(weights[live])[:, None] + student_t_log_density_table(points, loc, shape, df)
    return log_sum_exp(logs, axis=0)


def prior_log_evidence(g, prior: NormalWishartParams, prior_pi) -> float:
    """Exact log p(g) under the generative model with a shared prior.

    Marginalizing (mu, Lambda) per component yields the prior predictive
    Student-t, identical across components, so the pi-weighted mixture
    collapses to a single prior-predictive density.
    """
    prior_pi = np.asarray(prior_pi, dtype=float).reshape(-1)
    if abs(float(prior_pi.sum()) - 1.0) > 1e-8 or np.any(prior_pi < 0.0):
        raise ValidationError(f"prior_pi must be a probability vector, got {prior_pi}")
    t = posterior_predictive_params(prior)
    return student_t_log_density(g, t)


def _check_weights(weights, c: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != c:
        raise ValidationError(f"{weights.shape[0]} weights for {c} components")
    if np.any(weights < 0.0) or abs(float(weights.sum()) - 1.0) > 1e-8:
        raise ValidationError(f"weights must form a probability simplex, got {weights}")
    return weights
