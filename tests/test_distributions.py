import math

import numpy as np
import pytest
from scipy import stats

from gneva.distributions import (
    NormalWishartParams,
    StudentTParams,
    WishartParams,
    expected_stats,
    kl_mean_given_precision,
    kl_wishart,
    normal_wishart_log_density,
    posterior_predictive_params,
    sample_normal_wishart,
    student_t_log_densities,
    student_t_log_density,
    wishart_log_density,
)
from gneva.errors import DegreesOfFreedomTooSmall, ValidationError
from gneva.special_math import SPDMatrix2

from helpers import (
    gaussian_kl_given_precision,
    grid_quadrature_mass,
    mc_mean_and_se,
    normal_logpdf_given_precision,
    psi_d,
    random_nw,
    random_spd,
    sample_nw_scipy,
    sample_wishart_scipy,
    student_t_logpdf_scipy,
    wishart_logpdf_formula,
)


class TestParamValidation:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            NormalWishartParams(eta=np.zeros(2), beta=0.0, v=SPDMatrix2.identity(), nu=4.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValidationError):
            NormalWishartParams(eta=np.zeros(2), beta=1.0, v=SPDMatrix2.identity(), nu=1.0)

    def test_rejects_nonfinite_eta(self):
        with pytest.raises(ValidationError):
            NormalWishartParams(eta=[np.inf, 0.0], beta=1.0, v=SPDMatrix2.identity(), nu=4.0)


class TestNormalWishartDensity:
    def test_wishart_part_finite_at_mean_precision(self):
        # nu = D + 1 = 3 with V = I/3 gives E[Lambda] = I.
        w = WishartParams(v=SPDMatrix2(1 / 3, 0.0, 1 / 3), nu=3.0)
        val = wishart_log_density(SPDMatrix2.identity(), w)
        assert math.isfinite(val)
        ref = wishart_logpdf_formula(np.eye(2)[None], w.v, w.nu)[0]
        assert val == pytest.approx(float(ref), rel=1e-12)

    def test_matches_independent_formula_on_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_nw(rng)
            lam = random_spd(rng)
            mu = rng.normal(size=2)
            mine = normal_wishart_log_density(mu, lam, p)
            ref = wishart_logpdf_formula(lam.to_array()[None], p.v, p.nu)[
                0
            ] + normal_logpdf_given_precision(mu[None], p.eta, p.beta, lam.to_array()[None])[0]
            assert mine == pytest.approx(float(ref), rel=1e-11, abs=1e-11)

    def test_matches_scipy_wishart(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = random_spd(rng)
            nu = rng.uniform(2.5, 9.0)
            lam = random_spd(rng)
            mine = wishart_log_density(lam, WishartParams(v=v, nu=nu))
            ref = stats.wishart.logpdf(lam.to_array(), df=nu, scale=v.to_array())
            assert mine == pytest.approx(float(ref), rel=1e-10, abs=1e-10)

    def test_normal_part_at_mode(self):
        # At mu = eta the quadratic form vanishes.
        p = NormalWishartParams(eta=[1.0, -2.0], beta=2.5, v=SPDMatrix2.identity(), nu=4.0)
        lam = SPDMatrix2(3.0, 0.5, 2.0)
        total = normal_wishart_log_density(p.eta, lam, p)
        wishart_only = wishart_log_density(lam, WishartParams(v=p.v, nu=p.nu))
        normal_at_mode = total - wishart_only
        beta_lam = lam.scaled(p.beta)
        assert normal_at_mode == pytest.approx(0.5 * beta_lam.log_det - math.log(2 * math.pi), abs=1e-12)

    def test_normal_part_matches_scipy(self):
        # The joint minus its Wishart factor is log N(mu | eta, (beta Lambda)^-1).
        rng = np.random.default_rng(71)
        for _ in range(10):
            p = random_nw(rng)
            lam = random_spd(rng)
            mu = rng.normal(size=2)
            normal = normal_wishart_log_density(mu, lam, p) - wishart_log_density(lam, p.wishart)
            cov = np.linalg.inv(p.beta * lam.to_array())
            ref = stats.multivariate_normal.logpdf(mu, mean=p.eta, cov=cov)
            assert normal == pytest.approx(float(ref), rel=1e-10, abs=1e-10)

    def test_box_mass_mc_vs_quadrature(self):
        # MC quadrature of the joint density over a 5-d box around the mode
        # against a deterministic grid on the same box.
        p = NormalWishartParams(eta=[0.5, -0.5], beta=2.0, v=SPDMatrix2(0.5, 0.1, 0.6), nu=5.0)
        mean_lam = p.v.scaled(p.nu)
        lo = np.array([p.eta[0] - 0.4, p.eta[1] - 0.4, mean_lam.a11 - 0.5, mean_lam.a12 - 0.5, mean_lam.a22 - 0.5])
        hi = np.array([p.eta[0] + 0.4, p.eta[1] + 0.4, mean_lam.a11 + 0.5, mean_lam.a12 + 0.5, mean_lam.a22 + 0.5])
        volume = float(np.prod(hi - lo))

        def density_many(points):
            out = np.empty(len(points))
            for i, (mx, my, l11, l12, l22) in enumerate(points):
                lam = SPDMatrix2(l11, l12, l22)
                out[i] = math.exp(normal_wishart_log_density([mx, my], lam, p))
            return out

        rng = np.random.default_rng(7)
        pts = rng.uniform(lo, hi, size=(40_000, 5))
        vals = density_many(pts)
        mc_mean, mc_se = mc_mean_and_se(vals)
        mc_mass = volume * mc_mean

        grid_1d = [np.linspace(lo[k], hi[k], 9) + (hi[k] - lo[k]) / 18 for k in range(5)]
        grid_1d = [g[:-1] + 0 for g in grid_1d]  # cell centers, 8 per axis
        mesh = np.stack([g.ravel() for g in np.meshgrid(*grid_1d, indexing="ij")], axis=1)
        cell_volume = volume / 8**5
        grid_mass = density_many(mesh).sum() * cell_volume

        assert abs(mc_mass - grid_mass) < 3 * volume * mc_se + 0.02 * grid_mass


class TestSampling:
    def test_precision_mean_is_nu_v(self):
        p = NormalWishartParams(eta=[1.0, 2.0], beta=2.0, v=SPDMatrix2(0.8, 0.2, 0.5), nu=6.0)
        rng = np.random.default_rng(11)
        _, lams = sample_normal_wishart(p, rng, size=1_000_000)
        target = p.nu * p.v.to_array()
        for idx in [(0, 0), (0, 1), (1, 1)]:
            mean, se = mc_mean_and_se(lams[:, idx[0], idx[1]])
            assert abs(mean - target[idx]) < 3 * se

    def test_mean_mu_is_eta(self):
        p = NormalWishartParams(eta=[-1.5, 0.7], beta=1.3, v=SPDMatrix2(0.6, 0.0, 0.9), nu=5.0)
        rng = np.random.default_rng(12)
        mus, _ = sample_normal_wishart(p, rng, size=1_000_000)
        for k in range(2):
            mean, se = mc_mean_and_se(mus[:, k])
            assert abs(mean - p.eta[k]) < 3 * se

    def test_mu_variance_matches_expected_inverse_precision(self):
        # Var(mu_i) = E[(beta Lambda)^-1]_ii = (beta (nu - D - 1))^-1 (V^-1)_ii.
        p = NormalWishartParams(eta=[0.0, 0.0], beta=2.0, v=SPDMatrix2(0.8, 0.15, 0.5), nu=7.0)
        rng = np.random.default_rng(13)
        mus, _ = sample_normal_wishart(p, rng, size=1_000_000)
        v_inv = p.v.inverse().to_array()
        expected = v_inv / (p.beta * (p.nu - 3.0))
        for k in range(2):
            centered = (mus[:, k] - p.eta[k]) ** 2
            mean, se = mc_mean_and_se(centered)
            assert abs(mean - expected[k, k]) < 3.5 * se

    def test_deterministic_given_seed(self):
        p = random_nw(np.random.default_rng(0))
        a = sample_normal_wishart(p, np.random.default_rng(42))
        b = sample_normal_wishart(p, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]


class TestScipyWishartHelper:
    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_equals_scipy_and_leaves_same_generator_state(self, n):
        # The batched helper stands in for stats.wishart.rvs in the MC oracles; it
        # must draw the very same matrices and consume the very same random numbers.
        rng = np.random.default_rng(90 + n)
        for _ in range(4):
            v = random_spd(rng)
            nu = float(rng.uniform(2.2, 12.0))
            seed = int(rng.integers(2**31))
            ours_rng, scipy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ours = sample_wishart_scipy(v, nu, ours_rng, n)
            ref = stats.wishart.rvs(df=nu, scale=v.to_array(), size=n, random_state=scipy_rng)
            assert ours.shape == ref.shape == (n, 2, 2)
            assert ours.tobytes() == ref.tobytes()
            assert ours_rng.bit_generator.state == scipy_rng.bit_generator.state


class TestExpectedStats:
    def test_plugin_arithmetic(self):
        q = NormalWishartParams(eta=[0.0, 0.0], beta=1.0, v=SPDMatrix2.identity(), nu=4.0)
        s = expected_stats([1.0, 0.0], q)
        assert s.e_mahalanobis == pytest.approx(6.0, abs=1e-12)
        assert s.e_log_det == pytest.approx(psi_d(2.0) + 2 * math.log(2.0), abs=1e-12)

    def test_mahalanobis_vanishes_at_eta_large_beta(self):
        vals = []
        for beta in [1.0, 10.0, 100.0, 1e6]:
            q = NormalWishartParams(eta=[2.0, -1.0], beta=beta, v=SPDMatrix2(0.5, 0.1, 0.7), nu=5.0)
            vals.append(expected_stats(q.eta, q).e_mahalanobis)
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        assert vals[-1] == pytest.approx(0.0, abs=1e-5)

    def test_against_mc(self):
        rng = np.random.default_rng(21)
        q = random_nw(rng)
        g = rng.normal(size=2)
        mus, lams = sample_nw_scipy(q, rng, 1_000_000)
        s = expected_stats(g, q)

        sign, logdets = np.linalg.slogdet(lams)
        assert np.all(sign > 0)
        mean_ld, se_ld = mc_mean_and_se(logdets)
        assert abs(s.e_log_det - mean_ld) < 3 * se_ld

        dev = g - mus
        quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
        mean_q, se_q = mc_mean_and_se(quad)
        assert abs(s.e_mahalanobis - mean_q) < 3 * se_q


class TestKlMeanGivenPrecision:
    def test_zero_at_equality(self):
        q = random_nw(np.random.default_rng(31))
        assert kl_mean_given_precision(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_zero_when_eta_beta_match(self):
        rng = np.random.default_rng(32)
        q = random_nw(rng)
        p = NormalWishartParams(eta=q.eta, beta=q.beta, v=random_spd(rng), nu=rng.uniform(3.5, 9.0))
        assert kl_mean_given_precision(q, p) == pytest.approx(0.0, abs=1e-12)

    def test_against_mc(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            q, p = random_nw(rng), random_nw(rng)
            lams = sample_wishart_scipy(q.v, q.nu, rng, 1_000_000)
            kls = gaussian_kl_given_precision(q.eta, q.beta, p.eta, p.beta, lams)
            mean, se = mc_mean_and_se(kls)
            assert abs(kl_mean_given_precision(q, p) - mean) < 3 * se

    def test_nonnegative_random(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            assert kl_mean_given_precision(random_nw(rng), random_nw(rng)) >= 0.0


class TestKlWishart:
    def test_zero_at_equality(self):
        w = WishartParams(v=random_spd(np.random.default_rng(41)), nu=5.5)
        assert kl_wishart(w, w) == pytest.approx(0.0, abs=1e-12)

    def test_small_nu_perturbation(self):
        v = random_spd(np.random.default_rng(42))
        q = WishartParams(v=v, nu=6.0 + 1e-3)
        p = WishartParams(v=v, nu=6.0)
        val = kl_wishart(q, p)
        assert 0.0 < val < 1e-5

    def test_against_mc(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            q = WishartParams(v=random_spd(rng), nu=rng.uniform(3.5, 10.0))
            p = WishartParams(v=random_spd(rng), nu=rng.uniform(3.5, 10.0))
            lams = sample_wishart_scipy(q.v, q.nu, rng, 1_000_000)
            diffs = wishart_logpdf_formula(lams, q.v, q.nu) - wishart_logpdf_formula(lams, p.v, p.nu)
            mean, se = mc_mean_and_se(diffs)
            assert abs(kl_wishart(q, p) - mean) < 3 * se

    def test_nonnegative_random(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            q = WishartParams(v=random_spd(rng), nu=rng.uniform(2.5, 12.0))
            p = WishartParams(v=random_spd(rng), nu=rng.uniform(2.5, 12.0))
            assert kl_wishart(q, p) >= 0.0


class TestStudentT:
    def test_df1_peak_value(self):
        t = StudentTParams(loc=[0.0, 0.0], shape=SPDMatrix2.identity(), df=1.0)
        assert student_t_log_density([0.0, 0.0], t) == pytest.approx(math.log(1 / (2 * math.pi)), abs=1e-12)

    def test_gaussian_limit(self):
        t = StudentTParams(loc=[0.0, 0.0], shape=SPDMatrix2.identity(), df=1e6)
        x = np.array([1.0, 1.0])
        gauss = stats.multivariate_normal.logpdf(x, mean=np.zeros(2), cov=np.eye(2))
        assert student_t_log_density(x, t) == pytest.approx(float(gauss), abs=1e-3)

    def test_elliptical_symmetry(self):
        rng = np.random.default_rng(51)
        t = StudentTParams(loc=[1.0, -1.0], shape=random_spd(rng), df=3.7)
        for _ in range(20):
            d = rng.normal(size=2)
            assert student_t_log_density(t.loc + d, t) == pytest.approx(
                student_t_log_density(t.loc - d, t), rel=1e-12
            )

    def test_matches_scipy(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            shape = random_spd(rng)
            t = StudentTParams(loc=rng.normal(size=2), shape=shape, df=rng.uniform(1.0, 30.0))
            xs = rng.normal(size=(5, 2), scale=3.0)
            ref = student_t_logpdf_scipy(xs, t.loc, shape.to_array(), t.df)
            mine = student_t_log_densities(xs, t)
            assert mine == pytest.approx(ref, rel=1e-10)
            assert student_t_log_density(xs[0], t) == pytest.approx(float(ref[0]), rel=1e-10)


class TestPosteriorPredictive:
    def test_paper_substitution(self):
        q = NormalWishartParams(eta=[0.0, 0.0], beta=1.0, v=SPDMatrix2.identity(), nu=4.0)
        t = posterior_predictive_params(q)
        assert np.array_equal(t.loc, q.eta)
        assert t.df == pytest.approx(3.0)
        assert t.shape.to_array() == pytest.approx((2.0 / 3.0) * np.eye(2), abs=1e-14)

    def test_large_beta_limit(self):
        v = SPDMatrix2(0.5, 0.1, 0.8)
        q = NormalWishartParams(eta=[1.0, 1.0], beta=1e9, v=v, nu=5.0)
        t = posterior_predictive_params(q)
        assert t.shape.to_array() == pytest.approx(v.inverse().to_array() / 4.0, rel=1e-8)

    def test_df_guard(self):
        q = NormalWishartParams(eta=[0.0, 0.0], beta=1.0, v=SPDMatrix2.identity(), nu=3.0)
        with pytest.raises(DegreesOfFreedomTooSmall):
            posterior_predictive_params(q)

    def test_mass_integrates_to_one(self):
        rng = np.random.default_rng(61)
        q = NormalWishartParams(eta=[0.5, -0.3], beta=2.0, v=random_spd(rng), nu=6.0)
        t = posterior_predictive_params(q)
        scale = math.sqrt(max(t.shape.a11, t.shape.a22))
        mass = grid_quadrature_mass(
            lambda pts: student_t_log_densities(pts, t), t.loc, 40.0 * scale, n=200
        )
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_density_maximized_at_loc(self):
        rng = np.random.default_rng(62)
        q = random_nw(rng)
        t = posterior_predictive_params(q)
        at_loc = student_t_log_density(t.loc, t)
        for angle in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            offset = 0.3 * np.array([math.cos(angle), math.sin(angle)])
            assert student_t_log_density(t.loc + offset, t) < at_loc
