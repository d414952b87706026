"""Normal-Wishart conjugate family over a 2-D Gaussian's mean and precision.

Provides densities, Bartlett sampling, the expected sufficient statistics
that appear in the variational objective, the two closed-form KL
divergences, and the Student-t posterior predictive. All distributions are
over R^2 (D = 2 throughout).

The objective's closed forms are written once, with tape operators over
the component arrays of `NormalWishartArrays`; the spatial training loss
runs them on forward-pass nodes and the float functions here on constant
nodes. The Student-t log density is written once over (C, n) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import DegreesOfFreedomTooSmall, ValidationError
from .special_math import (
    LOG_2,
    LOG_2PI,
    LOG_PI,
    SPDMatrix2,
    log_gamma,
    log_multivariate_gamma,
)

D = 2  # goals live in the plane


@dataclass(frozen=True)
class NormalWishartParams:
    """Parameters (eta, beta, V, nu) of N(mu | eta, (beta Lambda)^-1) W(Lambda | V, nu).

    eta is the mean location (meters), beta > 0 the belief strength in the
    mean, V the Wishart scale matrix of the precision (m^-2) and nu > D - 1
    its degrees of freedom. E[Lambda] = nu V.
    """

    eta: np.ndarray
    beta: float
    v: SPDMatrix2
    nu: float

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).reshape(2)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "nu", float(self.nu))
        if not np.all(np.isfinite(eta)):
            raise ValidationError(f"eta must be finite, got {eta}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if not (self.nu > D - 1 and math.isfinite(self.nu)):
            raise ValidationError(f"nu must exceed D-1={D - 1}, got {self.nu}")

    @property
    def wishart(self) -> "WishartParams":
        return WishartParams(self.v, self.nu)


@dataclass(frozen=True)
class WishartParams:
    """Scale matrix and degrees of freedom of W(Lambda | V, nu)."""

    v: SPDMatrix2
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        if not (self.nu > D - 1 and math.isfinite(self.nu)):
            raise ValidationError(f"nu must exceed D-1={D - 1}, got {self.nu}")


@dataclass(frozen=True)
class StudentTParams:
    """Location, scale matrix (m^2) and degrees of freedom of a bivariate t."""

    loc: np.ndarray
    shape: SPDMatrix2
    df: float

    def __post_init__(self):
        loc = np.asarray(self.loc, dtype=float).reshape(2)
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "df", float(self.df))
        if not np.all(np.isfinite(loc)):
            raise ValidationError(f"loc must be finite, got {loc}")
        if not (self.df > 0.0 and math.isfinite(self.df)):
            raise ValidationError(f"df must be positive, got {self.df}")


@dataclass(frozen=True)
class Gaussian2:
    """Bivariate Gaussian in mean/precision form; the mixture emission."""

    mean: np.ndarray
    precision: SPDMatrix2

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        object.__setattr__(self, "mean", mean)
        if not np.all(np.isfinite(mean)):
            raise ValidationError(f"mean must be finite, got {mean}")

    def log_density(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(2)
        dx, dy = x - self.mean
        return 0.5 * self.precision.log_det - LOG_2PI - 0.5 * self.precision.quad_form(dx, dy)


def normal_wishart_log_density(mu, lam: SPDMatrix2, params: NormalWishartParams) -> float:
    """log N(mu | eta, (beta Lambda)^-1) + log W(Lambda | V, nu)."""
    normal = Gaussian2(mean=params.eta, precision=lam.scaled(params.beta))
    return normal.log_density(mu) + wishart_log_density(lam, params.wishart)


def wishart_log_density(lam: SPDMatrix2, w: WishartParams) -> float:
    """log W(Lambda | V, nu) alone; the precision factor of the joint."""
    v_inv = w.v.inverse()
    return (
        0.5 * (w.nu - D - 1) * lam.log_det
        - 0.5 * lam.trace_product(v_inv)
        - 0.5 * w.nu * D * LOG_2
        - log_multivariate_gamma(0.5 * w.nu, D)
        - 0.5 * w.nu * w.v.log_det
    )


def sample_wishart_bartlett(w: WishartParams, rng: np.random.Generator, size: int):
    """Draw `size` precision matrices from W(V, nu) by Bartlett decomposition.

    Returns arrays (lam11, lam12, lam22) of shape (size,). The factor is
    A = [[sqrt(chi2_nu), 0], [n, sqrt(chi2_(nu-1))]] and Lambda = L A A^T L^T
    with L the Cholesky factor of V.
    """
    a, b, c = w.v.cholesky  # L = [[a, 0], [b, c]]
    s1 = np.sqrt(rng.chisquare(w.nu, size=size))
    s2 = np.sqrt(rng.chisquare(w.nu - 1.0, size=size))
    u = rng.standard_normal(size)
    # M = L @ A, Lambda = M @ M^T
    m11 = a * s1
    m21 = b * s1 + c * u
    m22 = c * s2
    lam11 = m11 * m11
    lam12 = m11 * m21
    lam22 = m21 * m21 + m22 * m22
    return lam11, lam12, lam22


def sample_normal_wishart(
    params: NormalWishartParams, rng: np.random.Generator, size: int | None = None
):
    """Sample (mu, Lambda) pairs from the Normal-Wishart distribution.

    With size=None returns a single (mu, SPDMatrix2) pair; with an integer
    size returns (mus of shape (size, 2), lams of shape (size, 2, 2)).
    Draws are deterministic for a given generator state.
    """
    n = 1 if size is None else int(size)
    lam11, lam12, lam22 = sample_wishart_bartlett(params.wishart, rng, n)
    # mu | Lambda ~ N(eta, (beta Lambda)^-1): Sigma = Lambda^-1 / beta.
    det = lam11 * lam22 - lam12 * lam12
    s11 = lam22 / (det * params.beta)
    s12 = -lam12 / (det * params.beta)
    s22 = lam11 / (det * params.beta)
    t11 = np.sqrt(s11)
    t21 = s12 / t11
    t22 = np.sqrt(s22 - t21 * t21)
    z = rng.standard_normal((n, 2))
    mu_x = params.eta[0] + t11 * z[:, 0]
    mu_y = params.eta[1] + t21 * z[:, 0] + t22 * z[:, 1]
    if size is None:
        return (
            np.array([mu_x[0], mu_y[0]]),
            SPDMatrix2(float(lam11[0]), float(lam12[0]), float(lam22[0])),
        )
    mus = np.stack([mu_x, mu_y], axis=1)
    lams = np.empty((n, 2, 2))
    lams[:, 0, 0] = lam11
    lams[:, 0, 1] = lams[:, 1, 0] = lam12
    lams[:, 1, 1] = lam22
    return mus, lams


def _entries(x: Var) -> list[Var]:
    """Entries of the last axis: (C,) nodes of a (C, k) node, (1,) nodes of a (k,) node."""
    if x.value.ndim == 1:
        return [ad.narrow(x, 0, j, 1) for j in range(x.value.shape[0])]
    return [ad.reshape(ad.narrow(x, 1, j, 1), x.value.shape[:1]) for j in range(x.value.shape[1])]


def _quad_form(m: tuple[Var, Var, Var], dx: Var, dy: Var) -> Var:
    """(dx, dy)^T M (dx, dy) for symmetric M given as (m11, m12, m22)."""
    m11, m12, m22 = m
    return ad.mul(m11, ad.square(dx)) + 2.0 * ad.mul(m12, ad.mul(dx, dy)) + ad.mul(m22, ad.square(dy))


class NormalWishartArrays:
    """C Normal-Wishart components as tape nodes, and the closed forms over them.

    eta (C, 2), beta (C,), chol (C, 3) with the rows (l11, l21, l22) of
    each V's lower Cholesky factor, and nu (C,); a shared prior has shapes
    (2,), (1,), (3,), (1,) and broadcasts. Nodes from `stack` are
    constants, which record no graph. A Wishart alone has no eta or beta.
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

    @classmethod
    def stack(cls, params: Sequence[NormalWishartParams]) -> "NormalWishartArrays":
        eta, beta, chol, nu = zip(*((p.eta, p.beta, p.v.cholesky, p.nu) for p in params))
        return cls(Var(eta), Var(beta), Var(chol), Var(nu))

    def take(self, rows) -> "NormalWishartArrays":
        """Constant arrays of the chosen components."""
        return NormalWishartArrays(
            *(Var(x.value[rows]) for x in (self.eta, self.beta, self.chol, self.nu))
        )

    def expected_log_det(self) -> Var:
        """E[log det Lambda] = log det V + psi_D(nu/2) + D log 2."""
        return self.log_det_v + self.psi2 + D * LOG_2

    def expected_mahalanobis(self, g) -> Var:
        """E[(g - mu)^T Lambda (g - mu)] = nu (g - eta)^T V (g - eta) + D / beta."""
        eta_x, eta_y = self.eta_xy
        quad = _quad_form(self.v, float(g[0]) - eta_x, float(g[1]) - eta_y)
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


@dataclass(frozen=True)
class ExpectedStats:
    """Expectations under q(mu, Lambda) used by the variational objective."""

    e_log_det: float
    e_mahalanobis: float


def expected_stats(g, q: NormalWishartParams) -> ExpectedStats:
    """E[log det Lambda] and E[(g - mu)^T Lambda (g - mu)] under q."""
    arrays = NormalWishartArrays.stack([q])
    e_maha = arrays.expected_mahalanobis(np.reshape(g, 2))
    return ExpectedStats(float(arrays.expected_log_det().value[0]), float(e_maha.value[0]))


def kl_mean_given_precision(q: NormalWishartParams, p: NormalWishartParams) -> float:
    """E_{Lambda~q} KL(N(eta_q, (beta_q Lambda)^-1) || N(eta_p, (beta_p Lambda)^-1))."""
    kl = NormalWishartArrays.stack([q]).kl_mean_given_precision(NormalWishartArrays.stack([p]))
    return float(kl.value[0])


def kl_wishart(q: WishartParams, p: WishartParams) -> float:
    """KL(W(V_q, nu_q) || W(V_p, nu_p))."""
    qa, pa = (NormalWishartArrays(None, None, Var([w.v.cholesky]), Var([w.nu])) for w in (q, p))
    return float(qa.kl_wishart(pa).value[0])


def student_t_log_density_table(xs, loc, shape, df) -> np.ndarray:
    """Log densities (C, n) of n points under C bivariate Student-t's.

    xs (n, 2); loc (C, 2); shape (C, 3) holding each scale matrix's
    entries (s11, s12, s22) in m^2; df (C,).
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    s11, s12, s22 = shape.T[:, :, None]
    det = s11 * s22 - s12 * s12
    i11, i12, i22 = s22 / det, -s12 / det, s11 / det
    dx = xs[:, 0] - loc[:, 0:1]
    dy = xs[:, 1] - loc[:, 1:2]
    maha = i11 * dx**2 + 2.0 * i12 * dx * dy + i22 * dy**2
    df = df[:, None]
    const = log_gamma(0.5 * (df + D)) - log_gamma(0.5 * df) - np.log(df * math.pi) - 0.5 * np.log(det)
    return const - 0.5 * (df + D) * np.log1p(maha / df)


def student_t_log_densities(xs: np.ndarray, t: StudentTParams) -> np.ndarray:
    """Student-t log density over points of shape (n, 2)."""
    shape = np.array([[t.shape.a11, t.shape.a12, t.shape.a22]])
    return student_t_log_density_table(xs, t.loc[None, :], shape, np.array([t.df]))[0]


def student_t_log_density(x, t: StudentTParams) -> float:
    """log density of the bivariate Student-t at a single point."""
    return float(student_t_log_densities(x, t)[0])


def sample_student_t(t: StudentTParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw points from the bivariate Student-t (normal / sqrt(chi2/df))."""
    l11, l21, l22 = t.shape.cholesky
    z = rng.standard_normal((size, 2))
    w = np.sqrt(rng.chisquare(t.df, size=size) / t.df)
    x = z[:, 0] * l11
    y = z[:, 0] * l21 + z[:, 1] * l22
    return t.loc + np.stack([x, y], axis=1) / w[:, None]


def predictive_student_t(q: NormalWishartArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Student-t predictives (loc (C, 2), shape (C, 3), df (C,)) of Normal-Wishart posteriors.

    loc = eta, df = nu - 1 and shape = ((beta + 1) / (beta (nu - 1))) V^-1.
    Requires nu > 3 so each predictive has more than two degrees of freedom
    and a finite covariance.
    """
    nu, beta = q.nu.value, q.beta.value
    if np.any(nu <= 3.0):
        raise DegreesOfFreedomTooSmall(
            f"posterior predictive needs nu > 3 for a finite covariance, got nu={nu[nu <= 3.0]}"
        )
    df = nu - 1.0
    scale = (beta + 1.0) / (beta * df) / q.det_v.value
    v11, v12, v22 = (v.value for v in q.v)
    return q.eta.value, np.stack([v22 * scale, -v12 * scale, v11 * scale], axis=1), df


def posterior_predictive_params(q: NormalWishartParams) -> StudentTParams:
    """Student-t predictive of one Normal-Wishart posterior (see `predictive_student_t`)."""
    loc, shape, df = predictive_student_t(NormalWishartArrays.stack([q]))
    return StudentTParams(loc=loc[0], shape=SPDMatrix2(*shape[0]), df=df[0])
