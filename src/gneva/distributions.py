"""Normal-Wishart conjugate family over a 2-D Gaussian's mean and precision.

Provides densities, Bartlett sampling, the expected sufficient statistics
that appear in the variational objective, the two closed-form KL
divergences, and the Student-t posterior predictive. All distributions are
over R^2 (D = 2 throughout). A single Normal-Wishart is a one-component
`mixture.MixturePosterior`; a 2x2 symmetric matrix is held as its entries
(a11, a12, a22).

The objective's closed forms are written once, with tape operators over
the component arrays of `NormalWishartArrays`; the spatial training loss
runs them on forward-pass nodes and `MixturePosterior.arrays()` gives them
constant nodes. The Student-t log density is written once over (C, n)
arrays.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import DegreesOfFreedomTooSmall, ValidationError
from .special_math import (
    LOG_2,
    LOG_2PI,
    LOG_PI,
    check_family,
    log_gamma,
    log_multivariate_gamma,
    spd_cholesky,
    spd_from_cholesky,
)

D = 2  # goals live in the plane


def one_component(q, what: str):
    """(eta (2,), beta, chol (3,), nu) of a one-component `MixturePosterior`; `what` names the caller."""
    if q.n_components != 1:
        raise ValidationError(f"{what} takes a one-component posterior, got {q.n_components} components")
    return q.eta[0], q.beta[0], q.chol[0], q.nu[0]


def _log_det(a11, a12, a22):
    """log det of 2x2 SPD matrices from their Cholesky factors."""
    l11, _, l22 = spd_cholesky(a11, a12, a22)
    return 2.0 * (np.log(l11) + np.log(l22))


def normal_wishart_log_density(mu, lam, q) -> np.ndarray:
    """log N(mu | eta, (beta Lambda)^-1) + log W(Lambda | V, nu) at n points (mu, Lambda).

    mu (n, 2), lam (n, 3) and q a one-component `MixturePosterior`.
    """
    eta, beta, chol, nu = one_component(q, "normal_wishart_log_density")
    wishart = wishart_log_density(lam, chol, nu)
    p11, p12, p22 = np.reshape(lam, (-1, 3)).T * beta
    dx, dy = (np.reshape(mu, (-1, 2)) - eta).T
    quad = p11 * dx * dx + 2.0 * p12 * dx * dy + p22 * dy * dy
    return 0.5 * _log_det(p11, p12, p22) - LOG_2PI - 0.5 * quad + wishart


def wishart_log_density(lam, chol, nu) -> np.ndarray:
    """log W(Lambda | V, nu) at precisions lam (n, 3), with V's factor chol (3,) = (l11, l21, l22).

    lam holds each precision's entries (l11, l12, l22); one that is not
    positive definite raises `NotPositiveDefinite`, naming its row.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1, 3)
    check_family(lambda i: f"precision {i}: ", v=lam)
    lam11, lam12, lam22 = lam.T
    v11, v12, v22 = spd_from_cholesky(*chol)
    det_v = (chol[0] * chol[2]) ** 2
    trace = (lam11 * v22 - 2.0 * lam12 * v12 + lam22 * v11) / det_v  # trace(V^-1 Lambda)
    return (
        0.5 * (nu - D - 1) * _log_det(lam11, lam12, lam22)
        - 0.5 * trace
        - 0.5 * nu * D * LOG_2
        - log_multivariate_gamma(0.5 * nu, D)
        - nu * (np.log(chol[0]) + np.log(chol[2]))
    )


def sample_wishart_bartlett(chol, nu, rng: np.random.Generator, size: int):
    """Draw `size` precision matrices from W(V, nu) by Bartlett decomposition.

    chol (3,) = (l11, l21, l22) is V's lower factor L. Returns arrays
    (lam11, lam12, lam22) of shape (size,). The factor is
    A = [[sqrt(chi2_nu), 0], [n, sqrt(chi2_(nu-1))]] and Lambda = L A A^T L^T.
    """
    a, b, c = chol  # L = [[a, 0], [b, c]]
    s1 = np.sqrt(rng.chisquare(nu, size=size))
    s2 = np.sqrt(rng.chisquare(nu - 1.0, size=size))
    u = rng.standard_normal(size)
    # M = L @ A, Lambda = M @ M^T
    m11 = a * s1
    m21 = b * s1 + c * u
    m22 = c * s2
    lam11 = m11 * m11
    lam12 = m11 * m21
    lam22 = m21 * m21 + m22 * m22
    return lam11, lam12, lam22


def sample_normal_wishart(q, rng: np.random.Generator, size: int):
    """Sample `size` (mu, Lambda) pairs from a one-component `MixturePosterior` q.

    Returns mus of shape (size, 2) and lams of shape (size, 2, 2). Draws are
    deterministic for a given generator state.
    """
    eta, beta, chol, nu = one_component(q, "sample_normal_wishart")
    lam11, lam12, lam22 = sample_wishart_bartlett(chol, nu, rng, size)
    # mu | Lambda ~ N(eta, (beta Lambda)^-1): Sigma = Lambda^-1 / beta.
    det = lam11 * lam22 - lam12 * lam12
    s11 = lam22 / (det * beta)
    s12 = -lam12 / (det * beta)
    s22 = lam11 / (det * beta)
    t11, t21, t22 = spd_cholesky(s11, s12, s22)
    z = rng.standard_normal((size, 2))
    mus = np.stack([eta[0] + t11 * z[:, 0], eta[1] + t21 * z[:, 0] + t22 * z[:, 1]], axis=1)
    lams = np.empty((size, 2, 2))
    lams[:, 0, 0] = lam11
    lams[:, 0, 1] = lams[:, 1, 0] = lam12
    lams[:, 1, 1] = lam22
    return mus, lams


def _entries(x: Var) -> list[Var]:
    """Entries of the last axis: (..., C) nodes of a (..., C, k) node, (1,) nodes of a (k,) node."""
    if x.value.ndim == 1:
        return [ad.narrow(x, 0, j, 1) for j in range(x.value.shape[0])]
    return [ad.reshape(ad.narrow(x, -1, j, 1), x.value.shape[:-1]) for j in range(x.value.shape[-1])]


def _quad_form(m: tuple[Var, Var, Var], dx: Var, dy: Var) -> Var:
    """(dx, dy)^T M (dx, dy) for symmetric M given as (m11, m12, m22)."""
    m11, m12, m22 = m
    return ad.mul(m11, ad.square(dx)) + 2.0 * ad.mul(m12, ad.mul(dx, dy)) + ad.mul(m22, ad.square(dy))


class NormalWishartArrays:
    """C Normal-Wishart components as tape nodes, and the closed forms over them.

    eta (C, 2), beta (C,), chol (C, 3) with the rows (l11, l21, l22) of
    each V's lower Cholesky factor, and nu (C,); a batch of B mixtures has
    shapes (B, C, 2), (B, C), (B, C, 3), (B, C). A shared prior has shapes
    (2,), (1,), (3,), (1,) and broadcasts. Nodes from
    `MixturePosterior.arrays` are constants, which record no graph. A
    Wishart alone has no eta or beta.
    """

    def __init__(self, eta: Var | None, beta: Var | None, chol: Var, nu: Var):
        self.eta, self.beta, self.chol, self.nu = eta, beta, chol, nu
        self.eta_xy = None if eta is None else _entries(eta)
        l11, l21, l22 = _entries(chol)
        self.v = (ad.square(l11), ad.mul(l11, l21), ad.square(l21) + ad.square(l22))
        self.det_v = ad.square(ad.mul(l11, l22))
        self.log_det_v = 2.0 * (ad.vlog(l11) + ad.vlog(l22))
        self.half_nu = nu * 0.5

    @cached_property
    def psi2(self) -> Var:
        """psi_D(nu/2) for D = 2."""
        return ad.digamma(self.half_nu) + ad.digamma(self.half_nu - 0.5)

    @cached_property
    def log_gamma2(self) -> Var:
        """log Gamma_D(nu/2) for D = 2."""
        return ad.lgamma(self.half_nu) + ad.lgamma(self.half_nu - 0.5) + 0.5 * LOG_PI

    def expected_log_det(self) -> Var:
        """E[log det Lambda] = log det V + psi_D(nu/2) + D log 2."""
        return self.log_det_v + self.psi2 + D * LOG_2

    def expected_mahalanobis(self, g) -> Var:
        """E[(g - mu)^T Lambda (g - mu)] = nu (g - eta)^T V (g - eta) + D / beta.

        g is one goal (2,), or one goal per mixture (B, 2) for a batch.
        """
        g = np.asarray(g, dtype=float)
        eta_x, eta_y = self.eta_xy
        quad = _quad_form(self.v, g[..., 0:1] - eta_x, g[..., 1:2] - eta_y)
        return ad.mul(self.nu, quad) + D / self.beta

    def expected_emission(self, g) -> Var:
        """E_q[log N(g | mu, Lambda^-1)], the emission term of the bound."""
        return 0.5 * self.expected_log_det() - LOG_2PI - 0.5 * self.expected_mahalanobis(g)

    def kl_mean_given_precision(self, p: "NormalWishartArrays") -> Var:
        """E_{Lambda~q} KL(N(eta_q, (beta_q Lambda)^-1) || N(eta_p, (beta_p Lambda)^-1)).

        Closed form: (1/2) beta_p nu_q (eta_q - eta_p)^T V_q (eta_q - eta_p)
        + (D/2)(beta_p/beta_q - log(beta_p/beta_q) - 1), with D/2 = 1.
        """
        (eta_x, eta_y), (p_x, p_y) = self.eta_xy, p.eta_xy
        quad = _quad_form(self.v, eta_x - p_x, eta_y - p_y)
        return 0.5 * ad.mul(ad.mul(p.beta, self.nu), quad) + (
            ad.div(p.beta, self.beta) - (ad.vlog(p.beta) - ad.vlog(self.beta)) - 1.0
        )

    def kl_wishart(self, p: "NormalWishartArrays") -> Var:
        """KL(W(V_q, nu_q) || W(V_p, nu_p)) in the standard bracketing.

        (nu_q/2)[trace(V_p^-1 V_q) - D] - (nu_p/2) log det(V_p^-1 V_q)
        + log Gamma_D(nu_p/2) - log Gamma_D(nu_q/2)
        + ((nu_q - nu_p)/2) psi_D(nu_q/2).
        """
        (p11, p12, p22), (v11, v12, v22) = p.v, self.v
        trace = ad.div(ad.mul(p22, v11) - 2.0 * ad.mul(p12, v12) + ad.mul(p11, v22), p.det_v)
        return (
            0.5 * ad.mul(self.nu, trace - D)
            - 0.5 * ad.mul(p.nu, self.log_det_v - p.log_det_v)
            + p.log_gamma2
            - self.log_gamma2
            + 0.5 * ad.mul(self.nu - p.nu, self.psi2)
        )


def student_t_log_density_table(xs, loc, shape, df, ys=None) -> np.ndarray:
    """Log densities (C, n) of n points under C bivariate Student-t's.

    xs (n, 2); or, with ys given, xs (nx,) and ys (ny,) are the axes of the
    grid of n = nx * ny points (x, y), x-major. loc (C, 2); shape (C, 3)
    holding each scale matrix's entries (s11, s12, s22) in m^2; df (C,).
    """
    if ys is None:
        xs = np.asarray(xs, dtype=float).reshape(-1, 2)
        x, y = xs[:, 0], xs[:, 1]
    else:
        x, y = np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]
    # Per-component parameters as (C, 1) or (C, 1, 1), to broadcast against x and y.
    per_c = (-1,) + (1,) * x.ndim
    s11, s12, s22 = (v.reshape(per_c) for v in shape.T)
    det = s11 * s22 - s12 * s12
    i11, i12, i22 = s22 / det, -s12 / det, s11 / det
    dx = x - loc[:, 0].reshape(per_c)
    dy = y - loc[:, 1].reshape(per_c)
    # i11 dx^2 + 2 i12 dx dy + i22 dy^2 - 0.5 (df + D) log1p(maha / df), summed in
    # that order; on a grid, only the terms that mix dx and dy are (C, nx, ny).
    out = 2.0 * i12 * dx * dy
    out += i11 * dx**2
    out += i22 * dy**2
    df = df.reshape(per_c)
    out /= df
    np.log1p(out, out=out)
    out *= 0.5 * (df + D)
    lg_half_df_d, lg_half_df = log_gamma(np.stack([0.5 * (df + D), 0.5 * df]))
    const = lg_half_df_d - lg_half_df - np.log(df * math.pi) - 0.5 * np.log(det)
    return np.subtract(const, out, out=out).reshape(len(loc), -1)


def predictive_student_t(eta, beta, chol, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Student-t predictives (loc (C, 2), shape (C, 3), df (C,)) of Normal-Wishart posteriors.

    Takes component arrays eta (C, 2), beta (C,), chol (C, 3), nu (C,) as in
    `NormalWishartArrays`. loc = eta, df = nu - 1 and shape =
    ((beta + 1) / (beta (nu - 1))) V^-1. Requires nu > 3 so each predictive
    has more than two degrees of freedom and a finite covariance.
    """
    if np.any(nu <= 3.0):
        raise DegreesOfFreedomTooSmall(
            f"posterior predictive needs nu > 3 for a finite covariance, got nu={nu[nu <= 3.0]}"
        )
    df = nu - 1.0
    l11_l22 = chol[:, 0] * chol[:, 2]
    scale = (beta + 1.0) / (beta * df) / (l11_l22 * l11_l22)  # det V = (l11 l22)^2
    v11, v12, v22 = spd_from_cholesky(*chol.T)
    return eta, np.stack([v22 * scale, -v12 * scale, v11 * scale], axis=1), df
