"""Shared oracle machinery for the test suite.

Everything here is deliberately independent of the package internals: the
samplers use scipy, densities are re-derived from their displayed formulas,
and integration is plain grid quadrature. Tests compare package output
against these routes.
"""

import json
import math

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.special import gammaln, logsumexp, multigammaln, psi

from gneva.mixture import MixturePosterior


def matrix(v):
    """The 2x2 symmetric matrix of the entries (a11, a12, a22)."""
    return np.array([[v[0], v[1]], [v[1], v[2]]], dtype=float)


def entries(m):
    """(a11, a12, a22) of a 2x2 matrix, its off-diagonal averaged."""
    return np.array([m[0][0], 0.5 * (m[0][1] + m[1][0]), m[1][1]], dtype=float)


def nw(eta, beta, v, nu):
    """One Normal-Wishart as a one-component `MixturePosterior`; v holds V's entries."""
    return MixturePosterior([eta], [beta], [v], [nu])


def stack(comps, log_pi=None):
    """The mixture of one-component posteriors, in order."""
    arrays = (np.concatenate([getattr(c, k) for c in comps]) for k in ("eta", "beta", "v", "nu"))
    return MixturePosterior(*arrays, log_pi)


def random_spd(rng, scale=1.0):
    """Entries of a random SPD 2x2, A^T A + eps I, entries O(scale)."""
    a = rng.normal(scale=scale, size=(2, 2))
    m = a.T @ a + 0.05 * scale**2 * np.eye(2)
    return entries(m)


def random_nw(rng, loc_scale=2.0):
    return nw(
        eta=rng.normal(scale=loc_scale, size=2),
        beta=rng.uniform(0.3, 5.0),
        v=random_spd(rng),
        nu=rng.uniform(3.5, 12.0),
    )


def emitted_components(fw):
    """A one-scene forward's mixture posterior and its shared prior as a one-component posterior.

    V = L L^T from each Cholesky row (l11, l21, l22), written out here.
    """

    def v_of(chol):
        l11, l21, l22 = np.asarray(chol).T
        return np.stack([l11 * l11, l11 * l21, l21 * l21 + l22 * l22], axis=-1)

    mix = MixturePosterior(fw.eta.value, fw.beta.value, v_of(fw.chol.value), fw.nu.value)
    prior = nw(fw.prior_eta.value, fw.prior_beta.value[0], v_of(fw.prior_chol.value), fw.prior_nu.value[0])
    return mix, prior


def sample_wishart_scipy(v, nu: float, rng, n: int):
    """(n, 2, 2) Wishart draws equal to `stats.wishart.rvs(df=nu, scale=V, size=n)`, bit for bit.

    v holds V's entries (v11, v12, v22). Makes scipy's generator calls in
    scipy's order (the Bartlett factor's off-diagonal normals, then the
    square roots of chi-square(nu) and chi-square(nu - 1) draws) and forms
    C A A^T C^T as batched products instead of scipy's per-draw Python
    loop. Independent of the package sampler.
    """
    c = scipy.linalg.cholesky(matrix(v), lower=True)
    a = np.zeros((n, 2, 2))
    a[:, 1, 0] = rng.normal(size=n)
    a[:, 0, 0] = rng.chisquare(nu, size=n) ** 0.5
    a[:, 1, 1] = rng.chisquare(nu - 1, size=n) ** 0.5
    ca = c @ a
    return ca @ np.swapaxes(ca, -1, -2)


def sample_nw_scipy(p, rng, n: int):
    """(mus (n,2), lams (n,2,2)) draws from a one-component posterior via scipy + explicit chol."""
    lams = sample_wishart_scipy(p.v[0], p.nu[0], rng, n)
    covs = np.linalg.inv(lams) / p.beta[0]
    chols = np.linalg.cholesky(covs)
    z = rng.standard_normal((n, 2))
    mus = p.eta[0] + np.einsum("nij,nj->ni", chols, z)
    return mus, lams


def wishart_logpdf_formula(lams, v, nu: float):
    """Vectorized Wishart log density from the displayed formula; v holds V's entries."""
    d = 2
    sign, logdet_lam = np.linalg.slogdet(lams)
    assert np.all(sign > 0)
    v_inv = np.linalg.inv(matrix(v))
    tr = np.einsum("ij,nji->n", v_inv, lams)
    _, logdet_v = np.linalg.slogdet(matrix(v))
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


def student_t_mixture_logpdf_scipy(xs, mix, weights):
    """log sum_c w_c t(x; predictive of component c), from scipy's multivariate t.

    Each Normal-Wishart posterior's predictive has loc eta, df nu - 1 and
    shape (beta + 1) / (beta (nu - 1)) V^-1, inverted with np.linalg.
    """
    terms = []
    for eta, beta, v, nu, w in zip(mix.eta, mix.beta, mix.v, mix.nu, weights):
        if w == 0.0:
            continue
        df = nu - 1.0
        shape = (beta + 1.0) / (beta * df) * np.linalg.inv(matrix(v))
        terms.append(np.log(w) + np.atleast_1d(student_t_logpdf_scipy(xs, eta, shape, df)))
    return logsumexp(np.stack(terms), axis=0)


def elbo_oracle(g, mix, log_pi, prior, prior_pi):
    """ELBO of one goal under a variational Normal-Wishart mixture (Bishop, PRML 10.2).

    Written from the textbook expectations with scipy's psi and multigammaln
    and explicit 2x2 matrices, sharing no code with the package:
    E[log det L] = psi_2(nu/2) + 2 log 2 + log det V,
    E[(g - mu)^T L (g - mu)] = nu (g - eta)^T V (g - eta) + 2 / beta,
    q(z) the softmax of log pi + E[log N(g | mu, L^-1)], and the two KLs
    and KL(q(z) || prior_pi) subtracted from the expected emission. The
    prior is a one-component posterior.
    """
    d = 2
    g = np.asarray(g, dtype=float)
    p_eta, p_beta, p_nu = prior.eta[0], prior.beta[0], prior.nu[0]
    v0_inv = np.linalg.inv(matrix(prior.v[0]))
    emission, kl_mean, kl_wishart = [], [], []
    for eta, beta, v_entries, nu in zip(mix.eta, mix.beta, mix.v, mix.nu):
        v = matrix(v_entries)
        logdet_v = np.linalg.slogdet(v)[1]
        e_logdet = psi_d(0.5 * nu, d) + d * np.log(2.0) + logdet_v
        dev = g - eta
        e_quad = nu * dev @ v @ dev + d / beta
        emission.append(0.5 * e_logdet - 0.5 * d * np.log(2.0 * np.pi) - 0.5 * e_quad)
        de = eta - p_eta
        ratio = p_beta / beta
        kl_mean.append(0.5 * p_beta * nu * de @ v @ de + 0.5 * d * (ratio - np.log(ratio) - 1.0))
        kl_wishart.append(
            0.5 * nu * (np.trace(v0_inv @ v) - d)
            - 0.5 * p_nu * np.linalg.slogdet(v0_inv @ v)[1]
            + multigammaln(0.5 * p_nu, d)
            - multigammaln(0.5 * nu, d)
            + 0.5 * (nu - p_nu) * psi_d(0.5 * nu, d)
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


def exact_conjugate_posterior(g, prior):
    """Single-observation Normal-Wishart update of a one-component prior, derived independently."""
    g = np.asarray(g, dtype=float)
    beta0, eta0 = prior.beta[0], prior.eta[0]
    beta1 = beta0 + 1.0
    nu1 = prior.nu[0] + 1.0
    eta1 = (beta0 * eta0 + g) / beta1
    dev = np.asarray(g - eta0).reshape(2, 1)
    v1_inv = np.linalg.inv(matrix(prior.v[0])) + (beta0 / beta1) * (dev @ dev.T)
    return nw(eta1, beta1, entries(np.linalg.inv(v1_inv)), nu1)


def stable_log_mean_exp(log_vals):
    """log(mean(exp(v))) and the delta-method SE of the log."""
    log_vals = np.asarray(log_vals, dtype=float)
    m = log_vals.max()
    w = np.exp(log_vals - m)
    mean = w.mean()
    se_rel = w.std(ddof=1) / np.sqrt(w.size) / mean
    return m + np.log(mean), float(se_rel)


def drive_path_reference(points, start_s, speeds, dt):
    """(t, x, y, heading, vx, vy) per step of a march along a polyline, one state at a time.

    Step k sits at arc length start_s + speeds[0] dt + ... + speeds[k-1] dt,
    accumulated one step at a time and clamped to [0, length]; the segment
    is the last one whose start is at or before it, and its direction is
    the heading.
    """
    points = np.asarray(points, dtype=float)
    deltas = np.diff(points, axis=0)
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    starts = np.concatenate([[0.0], np.cumsum(lengths)])
    rows = []
    s = start_s
    for step, speed in enumerate(speeds, start=1):
        at = float(np.clip(s, 0.0, starts[-1]))
        i = min(int(np.searchsorted(starts, at, side="right")) - 1, len(lengths) - 1)
        frac = (at - starts[i]) / lengths[i]
        pos = points[i] + frac * (points[i + 1] - points[i])
        d = points[i + 1] - points[i]
        heading = math.atan2(d[1], d[0])
        rows.append((step, float(pos[0]), float(pos[1]), heading, speed * math.cos(heading), speed * math.sin(heading)))
        s += speed * dt
    return rows


def scenario_json_reference(s, format_version):
    """A scenario file's text with every polyline point written as its own [float(x), float(y)] pair."""
    return json.dumps(
        {
            "format_version": format_version,
            "scenario_id": s.scenario_id,
            "dt": s.dt,
            "H": s.H,
            "T": s.T,
            "target_id": s.target_id,
            "agents": [
                {
                    "id": a.id,
                    "kind": a.kind,
                    "states": [
                        {"t": int(t), "x": float(r[0]), "y": float(r[1]), "heading": float(r[2]),
                         "vx": float(r[3]), "vy": float(r[4])}
                        for t, r in zip(a.steps, a.rows)
                    ],
                }
                for a in s.agents
            ],
            "map": [
                {"id": p.id, "kind": p.kind, "points": [[float(x), float(y)] for x, y in p.points]}
                for p in s.map
            ],
        }
    )
