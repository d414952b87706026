"""Shared oracle machinery for the test suite.

Everything here is deliberately independent of the package internals: the
samplers use scipy, densities are re-derived from their displayed formulas,
and integration is plain grid quadrature. Tests compare package output
against these routes.
"""

import numpy as np
from scipy import stats
from scipy.special import gammaln, logsumexp, multigammaln, psi

from gneva.distributions import NormalWishartParams
from gneva.special_math import SPDMatrix2


def random_spd(rng, scale=1.0):
    """Random SPD 2x2 as A^T A + eps I, entries O(scale)."""
    a = rng.normal(scale=scale, size=(2, 2))
    m = a.T @ a + 0.05 * scale**2 * np.eye(2)
    return SPDMatrix2.from_array(m)


def random_nw(rng, loc_scale=2.0):
    return NormalWishartParams(
        eta=rng.normal(scale=loc_scale, size=2),
        beta=rng.uniform(0.3, 5.0),
        v=random_spd(rng),
        nu=rng.uniform(3.5, 12.0),
    )


def sample_wishart_scipy(v: SPDMatrix2, nu: float, rng, n: int):
    """(n, 2, 2) Wishart draws via scipy; independent of the package sampler."""
    return stats.wishart.rvs(df=nu, scale=v.to_array(), size=n, random_state=rng)


def sample_nw_scipy(p: NormalWishartParams, rng, n: int):
    """(mus (n,2), lams (n,2,2)) Normal-Wishart draws via scipy + explicit chol."""
    lams = sample_wishart_scipy(p.v, p.nu, rng, n)
    covs = np.linalg.inv(lams) / p.beta
    chols = np.linalg.cholesky(covs)
    z = rng.standard_normal((n, 2))
    mus = p.eta + np.einsum("nij,nj->ni", chols, z)
    return mus, lams


def wishart_logpdf_formula(lams, v: SPDMatrix2, nu: float):
    """Vectorized Wishart log density from the displayed formula."""
    d = 2
    sign, logdet_lam = np.linalg.slogdet(lams)
    assert np.all(sign > 0)
    v_inv = np.linalg.inv(v.to_array())
    tr = np.einsum("ij,nji->n", v_inv, lams)
    _, logdet_v = np.linalg.slogdet(v.to_array())
    return (
        0.5 * (nu - d - 1) * logdet_lam
        - 0.5 * tr
        - 0.5 * nu * d * np.log(2.0)
        - multigammaln(0.5 * nu, d)
        - 0.5 * nu * logdet_v
    )


def normal_logpdf_given_precision(mus, eta, beta, lams):
    """Vectorized log N(mu | eta, (beta Lambda)^-1)."""
    d = 2
    dev = mus - eta
    _, logdet_lam = np.linalg.slogdet(lams)
    quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
    return 0.5 * (d * np.log(beta) + logdet_lam) - 0.5 * d * np.log(2 * np.pi) - 0.5 * beta * quad


def gaussian_logpdf(xs, mean, cov):
    return stats.multivariate_normal.logpdf(xs, mean=mean, cov=cov)


def student_t_logpdf_scipy(xs, loc, shape, df):
    return stats.multivariate_t.logpdf(xs, loc=loc, shape=shape, df=df)


def student_t_mixture_logpdf_scipy(xs, comps, weights):
    """log sum_c w_c t(x; predictive of component c), from scipy's multivariate t.

    Each Normal-Wishart posterior's predictive has loc eta, df nu - 1 and
    shape (beta + 1) / (beta (nu - 1)) V^-1, inverted with np.linalg.
    """
    terms = []
    for comp, w in zip(comps, weights):
        if w == 0.0:
            continue
        df = comp.nu - 1.0
        v = np.array([[comp.v.a11, comp.v.a12], [comp.v.a12, comp.v.a22]])
        shape = (comp.beta + 1.0) / (comp.beta * df) * np.linalg.inv(v)
        terms.append(np.log(w) + np.atleast_1d(student_t_logpdf_scipy(xs, comp.eta, shape, df)))
    return logsumexp(np.stack(terms), axis=0)


def elbo_oracle(g, comps, log_pi, prior, prior_pi):
    """ELBO of one goal under a variational Normal-Wishart mixture (Bishop, PRML 10.2).

    Written from the textbook expectations with scipy's psi and multigammaln
    and explicit 2x2 matrices, sharing no code with the package:
    E[log det L] = psi_2(nu/2) + 2 log 2 + log det V,
    E[(g - mu)^T L (g - mu)] = nu (g - eta)^T V (g - eta) + 2 / beta,
    q(z) the softmax of log pi + E[log N(g | mu, L^-1)], and the two KLs
    and KL(q(z) || prior_pi) subtracted from the expected emission.
    """
    d = 2
    g = np.asarray(g, dtype=float)

    def mat(spd):
        return np.array([[spd.a11, spd.a12], [spd.a12, spd.a22]])

    v0 = mat(prior.v)
    v0_inv = np.linalg.inv(v0)
    emission, kl_mean, kl_wishart = [], [], []
    for q in comps:
        v = mat(q.v)
        logdet_v = np.linalg.slogdet(v)[1]
        e_logdet = psi_d(0.5 * q.nu, d) + d * np.log(2.0) + logdet_v
        dev = g - q.eta
        e_quad = q.nu * dev @ v @ dev + d / q.beta
        emission.append(0.5 * e_logdet - 0.5 * d * np.log(2.0 * np.pi) - 0.5 * e_quad)
        de = q.eta - prior.eta
        ratio = prior.beta / q.beta
        kl_mean.append(0.5 * prior.beta * q.nu * de @ v @ de + 0.5 * d * (ratio - np.log(ratio) - 1.0))
        kl_wishart.append(
            0.5 * q.nu * (np.trace(v0_inv @ v) - d)
            - 0.5 * prior.nu * np.linalg.slogdet(v0_inv @ v)[1]
            + multigammaln(0.5 * prior.nu, d)
            - multigammaln(0.5 * q.nu, d)
            + 0.5 * (q.nu - prior.nu) * psi_d(0.5 * q.nu, d)
        )
    emission = np.array(emission)
    log_w = np.asarray(log_pi, dtype=float) + emission
    log_q = log_w - logsumexp(log_w)
    q_z = np.exp(log_q)
    kl_z = float(np.sum(q_z * (log_q - np.log(prior_pi))))
    return float(q_z @ emission - np.sum(kl_mean) - np.sum(kl_wishart) - kl_z)


def mc_mean_and_se(samples):
    samples = np.asarray(samples, dtype=float)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(samples.size))


def grid_quadrature_mass(log_density_fn, center, half_width, n=200):
    """Cell-centered quadrature of exp(log_density) over a square region."""
    cell = 2.0 * half_width / n
    axis = center[0] - half_width + cell * (np.arange(n) + 0.5)
    ays = center[1] - half_width + cell * (np.arange(n) + 0.5)
    xx, yy = np.meshgrid(axis, ays, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return float(np.exp(log_density_fn(pts)).sum() * cell * cell)


def gaussian_kl_given_precision(eta_q, beta_q, eta_p, beta_p, lams):
    """KL(N(eta_q,(beta_q L)^-1) || N(eta_p,(beta_p L)^-1)) per precision sample."""
    d = 2
    dev = eta_q - eta_p
    quad = np.einsum("i,nij,j->n", dev, lams, dev)
    ratio = beta_p / beta_q
    return 0.5 * (d * ratio - d + beta_p * quad + d * np.log(1.0 / ratio))


def psi_d(a, d=2):
    return sum(psi(a + 0.5 * (1 - j)) for j in range(1, d + 1))


def exact_conjugate_posterior(g, prior: NormalWishartParams) -> NormalWishartParams:
    """Single-observation Normal-Wishart update, derived independently."""
    g = np.asarray(g, dtype=float)
    beta1 = prior.beta + 1.0
    nu1 = prior.nu + 1.0
    eta1 = (prior.beta * prior.eta + g) / beta1
    dev = np.asarray(g - prior.eta).reshape(2, 1)
    v1_inv = np.linalg.inv(prior.v.to_array()) + (prior.beta / beta1) * (dev @ dev.T)
    v1 = SPDMatrix2.from_array(np.linalg.inv(v1_inv))
    return NormalWishartParams(eta=eta1, beta=beta1, v=v1, nu=nu1)


def stable_log_mean_exp(log_vals):
    """log(mean(exp(v))) and the delta-method SE of the log."""
    log_vals = np.asarray(log_vals, dtype=float)
    m = log_vals.max()
    w = np.exp(log_vals - m)
    mean = w.mean()
    se_rel = w.std(ddof=1) / np.sqrt(w.size) / mean
    return m + np.log(mean), float(se_rel)
