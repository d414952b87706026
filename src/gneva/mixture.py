"""Variational mixture of Gaussians over goal locations.

The mixture has C Normal-Wishart component posteriors, held as arrays
over components, and fixed mixing coefficients. This module evaluates the
optimal z-posterior (responsibilities), the evidence lower bound for a
single observed goal, the Student-t posterior predictive mixture, and the
exact log evidence under the shared prior (the upper bound the ELBO is
checked against).

`elbo_terms` is the one implementation of the responsibilities and the
bound, with tape operators over `distributions.NormalWishartArrays`. The
spatial training loss calls it on forward-pass nodes; `z_posterior` and
`elbo` call it on a `MixturePosterior`'s arrays as constant nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .distributions import (
    NormalWishartArrays,
    one_component,
    predictive_student_t,
    student_t_log_density_table,
)
from .errors import ValidationError
from .special_math import check_family, log_sum_exp, spd_cholesky


class MixturePosterior:
    """C Normal-Wishart component posteriors held as arrays, plus log mixing coefficients.

    eta (C, 2), beta (C,), V's entries v (C, 3) = (v11, v12, v22), chol
    (C, 3) with the rows (l11, l21, l22) of each V's lower Cholesky factor,
    nu (C,) and log_pi (C,). The constructor checks every component with
    `check_family`, so the first component out of family raises the error
    of the first rule it breaks, naming it, and derives chol from v with
    `spd_cholesky`. log_pi defaults to uniform. A one-component
    posterior is the single Normal-Wishart of the densities, the sampler
    and the prior of `elbo`.
    """

    def __init__(self, eta, beta, v, nu, log_pi=None):
        eta = np.asarray(eta, dtype=float)
        c = len(eta)
        if c < 1:
            raise ValidationError("mixture needs at least one component")
        beta, v, nu = (np.asarray(x, dtype=float) for x in (beta, v, nu))
        log_pi = np.full(c, -math.log(c)) if log_pi is None else np.asarray(log_pi, dtype=float)
        shapes = (eta.shape, beta.shape, v.shape, nu.shape, log_pi.shape)
        if shapes != ((c, 2), (c,), (c, 3), (c,), (c,)):
            raise ValidationError(f"component arrays of shapes {shapes} do not hold {c} components")
        check_family(lambda i: f"mixture component {i} is out of family: ", v, eta, beta, nu)
        total = float(np.exp(log_pi).sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"mixing coefficients sum to {total}, expected 1")
        self.eta, self.beta, self.v, self.nu, self.log_pi = eta, beta, v, nu, log_pi
        self.chol = np.stack(spd_cholesky(*v.T), axis=-1)

    @property
    def n_components(self) -> int:
        return len(self.beta)

    def arrays(self) -> NormalWishartArrays:
        """The components as constant tape nodes."""
        return NormalWishartArrays(Var(self.eta), Var(self.beta), Var(self.chol), Var(self.nu))


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
    Sums run over the last (component) axis, so a batch of B mixtures with
    goals (B, 2) gives B bounds and responsibilities (B, C).
    """
    emission, log_w, resp = responsibilities(g, q, log_pi)
    log_prior_pi = np.where(resp.value > 0.0, log_prior_pi, 0.0)  # 0 log(0 / pi_c) = 0 at pi_c = 0
    kl_z = ad.vsum(ad.mul(resp, log_w - ad.logsumexp(log_w) - log_prior_pi), axis=-1)
    bound = (
        ad.vsum(ad.mul(resp, emission), axis=-1)
        - ad.vsum(q.kl_mean_given_precision(prior), axis=-1)
        - ad.vsum(q.kl_wishart(prior), axis=-1)
        - kl_z
    )
    return bound, resp


def z_posterior(g, mix: MixturePosterior) -> np.ndarray:
    """Optimal variational assignment posterior q(z), a (C,) simplex."""
    _, _, resp = responsibilities(np.reshape(g, 2), mix.arrays(), mix.log_pi)
    return resp.value


def elbo(g, mix: MixturePosterior, prior: MixturePosterior, prior_pi) -> float:
    """Evidence lower bound on log p(g) for a single observed goal (see `elbo_terms`).

    The prior is a one-component posterior, shared by every component.
    """
    one_component(prior, "elbo")
    prior_pi = _check_weights(prior_pi, mix.n_components)
    q, p = mix.arrays(), prior.arrays()
    with np.errstate(divide="ignore"):
        bound, _ = elbo_terms(np.reshape(g, 2), q, p, mix.log_pi, np.log(prior_pi))
    return float(bound.value)


def predictive_log_densities(points, mix: MixturePosterior, weights, ys=None) -> np.ndarray:
    """log sum_c w_c t(x; predictive of component c) over points x (n, 2).

    Zero-weight components may have any nu.

    With ys given, points (nx,) and ys (ny,) are the axes of an x-major grid
    (see `student_t_log_density_table`).
    """
    weights = _check_weights(weights, mix.n_components)
    live = np.flatnonzero(weights)
    loc, shape, df = predictive_student_t(mix.eta[live], mix.beta[live], mix.chol[live], mix.nu[live])
    logs = student_t_log_density_table(points, loc, shape, df, ys)
    logs += np.log(weights[live])[:, None]
    return log_sum_exp(logs, axis=0)


def prior_log_evidence(g, prior: MixturePosterior, prior_pi) -> float:
    """Exact log p(g) under the generative model with a shared one-component prior.

    Marginalizing (mu, Lambda) per component yields the prior predictive
    Student-t, identical across components, so the pi-weighted mixture
    collapses to a single prior-predictive density.
    """
    one_component(prior, "prior_log_evidence")
    _check_weights(prior_pi, np.size(prior_pi))
    loc, shape, df = predictive_student_t(prior.eta, prior.beta, prior.chol, prior.nu)
    return float(student_t_log_density_table(np.reshape(g, (1, 2)), loc, shape, df)[0, 0])


def _check_weights(weights, c: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != c:
        raise ValidationError(f"{weights.shape[0]} weights for {c} components")
    if np.any(weights < 0.0) or abs(float(weights.sum()) - 1.0) > 1e-8:
        raise ValidationError(f"weights must form a probability simplex, got {weights}")
    return weights
