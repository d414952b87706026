import math

import numpy as np
import pytest

from gneva.distributions import NormalWishartParams, posterior_predictive_params, student_t_log_density
from gneva.errors import DegreesOfFreedomTooSmall, ValidationError
from gneva.mixture import (
    MixturePosterior,
    Responsibilities,
    elbo,
    predictive_log_densities,
    predictive_log_density,
    prior_log_evidence,
    z_posterior,
)
from gneva.special_math import SPDMatrix2

from helpers import (
    elbo_oracle,
    exact_conjugate_posterior,
    grid_quadrature_mass,
    random_nw,
    random_spd,
    sample_nw_scipy,
    stable_log_mean_exp,
    student_t_mixture_logpdf_scipy,
)


def random_mixture(rng, c=3):
    return MixturePosterior.uniform([random_nw(rng) for _ in range(c)])


class TestTypes:
    def test_log_pi_must_normalize(self):
        comp = random_nw(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            MixturePosterior(components=(comp,), log_pi=np.array([-0.5]))

    def test_responsibilities_simplex(self):
        with pytest.raises(ValidationError):
            Responsibilities(q_z=np.array([0.7, 0.7]))
        Responsibilities(q_z=np.array([0.5, 0.5]))


class TestZPosterior:
    def test_single_component(self):
        mix = MixturePosterior.uniform([random_nw(np.random.default_rng(1))])
        r = z_posterior([0.3, -0.4], mix)
        assert r.q_z == pytest.approx([1.0])

    def test_mirror_symmetry(self):
        g = np.array([0.0, 0.0])
        v = SPDMatrix2(0.5, 0.1, 0.8)
        a = NormalWishartParams(eta=[2.0, 1.0], beta=1.5, v=v, nu=5.0)
        b = NormalWishartParams(eta=[-2.0, -1.0], beta=1.5, v=v, nu=5.0)
        r = z_posterior(g, MixturePosterior.uniform([a, b]))
        assert r.q_z == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        mix = random_mixture(rng, c=4)
        g = rng.normal(size=2)
        r = z_posterior(g, mix).q_z
        assert r.sum() == pytest.approx(1.0, abs=1e-12)
        perm = [2, 0, 3, 1]
        mix_p = MixturePosterior(
            components=tuple(mix.components[i] for i in perm), log_pi=mix.log_pi[perm]
        )
        r_p = z_posterior(g, mix_p).q_z
        assert r_p == pytest.approx(r[perm], rel=1e-12)

    def test_against_mc_expected_log_density(self):
        # Oracle: responsibilities from Monte-Carlo estimates of
        # E_q[log N(g | mu_c, Lambda_c)], normalized in probability space.
        # The components sit within 1 m of g so that no responsibility is
        # near zero; a near one-hot q would match almost any emission term.
        rng = np.random.default_rng(3)
        g = rng.normal(size=2)
        comps = []
        for _ in range(3):
            angle = rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
            v = rot @ np.diag(rng.uniform(0.1, 0.3, size=2)) @ rot.T
            comps.append(
                NormalWishartParams(
                    eta=g + rng.uniform(-1.0, 1.0, size=2),
                    beta=rng.uniform(1.0, 3.0),
                    v=SPDMatrix2.from_array(v),
                    nu=rng.uniform(3.5, 6.0),
                )
            )
        mix = MixturePosterior(components=comps, log_pi=np.log([0.25, 0.35, 0.4]))
        log_w = mix.log_pi.copy()
        for c, comp in enumerate(mix.components):
            mus, lams = sample_nw_scipy(comp, rng, 1_000_000)
            dev = g - mus
            quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
            _, logdets = np.linalg.slogdet(lams)
            log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
            log_w[c] += log_dens.mean()
        oracle = np.exp(log_w - log_w.max())
        oracle /= oracle.sum()
        assert oracle.min() >= 0.05, oracle
        mine = z_posterior(g, mix).q_z
        assert 0.5 * np.abs(mine - oracle).sum() < 1e-2

    def test_nu_increase_far_from_eta_lowers_responsibility(self):
        g = np.array([5.0, 0.0])
        v = SPDMatrix2.identity()
        far = NormalWishartParams(eta=[-5.0, 0.0], beta=1.0, v=v, nu=4.0)
        near = NormalWishartParams(eta=[4.0, 0.0], beta=1.0, v=v, nu=4.0)
        base = z_posterior(g, MixturePosterior.uniform([far, near])).q_z[0]
        far_stiff = NormalWishartParams(eta=far.eta, beta=far.beta, v=far.v, nu=6.0)
        bumped = z_posterior(g, MixturePosterior.uniform([far_stiff, near])).q_z[0]
        assert bumped < base


class TestElbo:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(15)
        for c in range(1, 7):
            for _ in range(10):
                comps = [random_nw(rng) for _ in range(c)]
                mix = MixturePosterior(components=comps, log_pi=np.log(rng.dirichlet(np.ones(c))))
                prior = random_nw(rng)
                prior_pi = rng.dirichlet(np.full(c, 2.0))
                g = rng.normal(scale=2.5, size=2)
                expected = elbo_oracle(g, comps, mix.log_pi, prior, prior_pi)
                assert elbo(g, mix, prior, prior_pi) == pytest.approx(expected, rel=1e-9)

    def test_bounded_by_log_evidence(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = rng.integers(1, 5)
            mix = random_mixture(rng, c=int(c))
            prior = random_nw(rng)
            g = rng.normal(scale=2.0, size=2)
            pi = np.full(c, 1.0 / c)
            assert elbo(g, mix, prior, pi) <= prior_log_evidence(g, prior, pi) + 1e-9

    def test_tight_at_exact_single_component_posterior(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prior = random_nw(rng)
            g = rng.normal(scale=2.0, size=2)
            post = exact_conjugate_posterior(g, prior)
            mix = MixturePosterior.uniform([post])
            lhs = elbo(g, mix, prior, [1.0])
            rhs = prior_log_evidence(g, prior, [1.0])
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_zero_prior_weight_on_an_empty_component(self):
        # The far component's responsibility underflows to exactly 0, so
        # its zero prior weight adds 0 log(0 / 0) = 0 to KL(q(z) || pi).
        v = SPDMatrix2.identity()
        near = NormalWishartParams(eta=[0.0, 0.0], beta=1.0, v=v, nu=5.0)
        far = NormalWishartParams(eta=[50.0, 0.0], beta=1.0, v=v, nu=5.0)
        mix = MixturePosterior.uniform([near, far])
        g = [0.1, 0.0]
        assert z_posterior(g, mix).q_z[1] == 0.0
        expected = elbo(g, mix, near, [0.5, 0.5]) + math.log(2.0)
        assert elbo(g, mix, near, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        mix = random_mixture(rng, c=3)
        prior = random_nw(rng)
        g = rng.normal(size=2)
        pi = np.array([0.2, 0.5, 0.3])
        base = elbo(g, mix, prior, pi)
        perm = [1, 2, 0]
        mix_p = MixturePosterior(
            components=tuple(mix.components[i] for i in perm), log_pi=mix.log_pi[perm]
        )
        assert elbo(g, mix_p, prior, pi[perm]) == pytest.approx(base, rel=1e-12)


class TestPredictive:
    def test_degenerate_single_component(self):
        rng = np.random.default_rng(7)
        comp = random_nw(rng)
        mix = MixturePosterior.uniform([comp])
        g = rng.normal(size=2)
        expected = student_t_log_density(g, posterior_predictive_params(comp))
        assert predictive_log_density(g, mix, [1.0]) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_masks_component(self):
        rng = np.random.default_rng(8)
        good = random_nw(rng)
        # Component with nu <= 3 would raise if not masked by its zero weight.
        bad = NormalWishartParams(eta=[0.0, 0.0], beta=1.0, v=SPDMatrix2.identity(), nu=2.5)
        mix = MixturePosterior.uniform([good, bad])
        g = rng.normal(size=2)
        expected = student_t_log_density(g, posterior_predictive_params(good))
        assert predictive_log_density(g, mix, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(DegreesOfFreedomTooSmall):
            predictive_log_density(g, mix, [0.5, 0.5])

    def test_grid_mass_is_one(self):
        rng = np.random.default_rng(9)
        comps = [
            NormalWishartParams(
                eta=rng.uniform(-3, 3, size=2),
                beta=rng.uniform(0.5, 4.0),
                v=random_spd(rng),
                nu=rng.uniform(3.5, 9.0),
            )
            for _ in range(3)
        ]
        mix = MixturePosterior.uniform(comps)
        w = rng.dirichlet(np.ones(3))
        scales = [
            math.sqrt(max(posterior_predictive_params(c).shape.a11, posterior_predictive_params(c).shape.a22))
            for c in comps
        ]
        mass = grid_quadrature_mass(
            lambda pts: predictive_log_densities(pts, mix, w),
            center=np.zeros(2),
            half_width=40.0 * max(scales) + 3.0,
            n=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(10)
        mix = random_mixture(rng, c=4)
        w = rng.dirichlet(np.ones(4))
        pts = rng.normal(size=(7, 2), scale=3.0)
        expected = student_t_mixture_logpdf_scipy(pts, mix.components, w)
        vec = predictive_log_densities(pts, mix, w)
        assert vec == pytest.approx(expected, rel=1e-10)
        for i, p in enumerate(pts):
            assert predictive_log_density(p, mix, w) == pytest.approx(expected[i], rel=1e-10)

    def test_continuity_in_g(self):
        rng = np.random.default_rng(11)
        mix = random_mixture(rng, c=3)
        w = np.full(3, 1 / 3)
        for _ in range(50):
            g = rng.normal(size=2, scale=3.0)
            delta = rng.normal(size=2)
            delta *= 1e-6 / np.linalg.norm(delta)
            a = predictive_log_density(g, mix, w)
            b = predictive_log_density(g + delta, mix, w)
            assert abs(a - b) <= 1e6 * np.linalg.norm(delta)


class TestPriorLogEvidence:
    def test_uniform_pi_cancels(self):
        rng = np.random.default_rng(12)
        prior = random_nw(rng)
        g = rng.normal(size=2)
        t = posterior_predictive_params(prior)
        for c in (1, 3, 6):
            pi = np.full(c, 1.0 / c)
            assert prior_log_evidence(g, prior, pi) == pytest.approx(
                student_t_log_density(g, t), rel=1e-12
            )

    def test_unimodal_in_mahalanobis_radius(self):
        rng = np.random.default_rng(13)
        prior = random_nw(rng)
        pi = np.full(2, 0.5)
        at_eta = prior_log_evidence(prior.eta, prior, pi)
        t = posterior_predictive_params(prior)
        for r in (0.5, 1.0, 2.0, 5.0):
            vals = []
            for angle in np.linspace(0, 2 * math.pi, 12, endpoint=False):
                x = prior.eta + r * np.array([math.cos(angle), math.sin(angle)])
                vals.append(prior_log_evidence(x, prior, pi))
            assert max(vals) < at_eta

    def test_against_mc_marginalization(self):
        rng = np.random.default_rng(14)
        prior = random_nw(rng)
        g = prior.eta + rng.normal(size=2)
        mus, lams = sample_nw_scipy(prior, rng, 1_000_000)
        dev = g - mus
        quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
        _, logdets = np.linalg.slogdet(lams)
        log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
        log_mean, se_rel = stable_log_mean_exp(log_dens)
        assert abs(prior_log_evidence(g, prior, [1.0]) - log_mean) < 3 * se_rel
