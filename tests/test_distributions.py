import math

import numpy as np
import pytest
from scipy import stats

from gneva.mixture import (
    predictive_student_t,
    sample_normal_wishart,
    sample_wishart_bartlett,
    student_t_log_density_table,
    wishart_log_density,
)
from gneva.errors import DegreesOfFreedomTooSmall, NotPositiveDefinite, ValidationError

from helpers import (
    det2,
    gaussian_kl_given_precision,
    grid_quadrature_mass,
    matrix,
    mc_mean_and_se,
    nw,
    psi_d,
    quad2,
    random_nw,
    random_spd,
    sample_nw_scipy,
    sample_wishart_scipy,
    stack,
    student_t_logpdf_scipy,
    wishart_logpdf_formula,
)

IDENTITY = (1.0, 0.0, 1.0)


def expected_log_det_and_mahalanobis(g, q):
    """E[log det Lambda] and E[(g - mu)^T Lambda (g - mu)] under a one-component posterior."""
    qa = q.arrays()
    return float(qa.expected_log_det().value[0]), float(qa.expected_mahalanobis(np.reshape(g, 2)).value[0])


def kl_of_means(q, p):
    """E_{Lambda~q} KL of the means given the precision, between one-component posteriors."""
    return float(q.arrays().kl_mean_given_precision(p.arrays()).value[0])


def kl_of_wisharts(q, p):
    return float(q.arrays().kl_wishart(p.arrays()).value[0])


def wishart(v, nu):
    """A Wishart W(V, nu) as a one-component posterior; its eta and beta take no part."""
    return nw([0.0, 0.0], 1.0, v, nu)


def student_t(x, loc, shape, df):
    """Student-t log densities at points x (n, 2) of one t with scale-matrix entries `shape`."""
    return student_t_log_density_table(x, np.reshape(loc, (1, 2)), np.reshape(shape, (1, 3)), np.array([df]))[0]


def predictive(q):
    """(loc (2,), shape entries (3,), df) of a one-component posterior's Student-t predictive."""
    loc, shape, df = predictive_student_t(q.eta, q.beta, q.chol, q.nu)
    return loc[0], shape[0], df[0]


class TestParamValidation:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            nw(np.zeros(2), 0.0, IDENTITY, 4.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValidationError):
            nw(np.zeros(2), 1.0, IDENTITY, 1.0)

    def test_rejects_nonfinite_eta(self):
        with pytest.raises(ValidationError):
            nw([np.inf, 0.0], 1.0, IDENTITY, 4.0)


class TestNormalWishartDensity:
    def test_wishart_part_finite_at_mean_precision(self):
        # nu = D + 1 = 3 with V = I/3 gives E[Lambda] = I.
        w = wishart((1 / 3, 0.0, 1 / 3), 3.0)
        val = wishart_log_density([IDENTITY], w.chol[0], w.nu[0])[0]
        assert math.isfinite(val)
        ref = wishart_logpdf_formula(np.eye(2)[None], w.v[0], w.nu[0])[0]
        assert val == pytest.approx(float(ref), rel=1e-12)

    def test_matches_scipy_wishart(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = random_spd(rng)
            nu = rng.uniform(2.5, 9.0)
            lam = random_spd(rng)
            w = wishart(v, nu)
            mine = wishart_log_density([lam], w.chol[0], nu)[0]
            ref = stats.wishart.logpdf(matrix(lam), df=nu, scale=matrix(v))
            assert mine == pytest.approx(float(ref), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("lam", [(1.0, 2.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (math.nan, 0.0, 1.0)])
    def test_refuses_a_precision_that_is_not_positive_definite(self, lam):
        p = nw([0.0, 0.0], 1.0, IDENTITY, 4.0)
        lams = [IDENTITY, lam]
        with pytest.raises(NotPositiveDefinite, match="^precision 1: "):
            wishart_log_density(lams, p.chol[0], p.nu[0])

    def test_refuses_a_posterior_with_two_components(self):
        q = stack([nw([0.0, 0.0], 1.0, IDENTITY, 4.0)] * 2)
        with pytest.raises(ValidationError, match="one-component"):
            sample_normal_wishart(q, np.random.default_rng(0), 1)


class TestSampling:
    def test_precision_mean_is_nu_v(self):
        p = nw([1.0, 2.0], 2.0, (0.8, 0.2, 0.5), 6.0)
        rng = np.random.default_rng(11)
        _, lams = sample_normal_wishart(p, rng, size=1_000_000)
        assert lams.shape == (1_000_000, 3)
        for j in range(3):  # the entries (lam11, lam12, lam22) against nu (v11, v12, v22)
            mean, se = mc_mean_and_se(lams[:, j])
            assert abs(mean - p.nu[0] * p.v[0, j]) < 3 * se

    def test_normal_wishart_precisions_are_the_bartlett_draws(self):
        p = nw([0.3, -0.2], 1.7, (0.9, -0.25, 0.6), 5.5)
        _, lams = sample_normal_wishart(p, np.random.default_rng(14), 50)
        bartlett = sample_wishart_bartlett(p.chol[0], p.nu[0], np.random.default_rng(14), 50)
        assert lams.tobytes() == bartlett.tobytes()
        densities = wishart_log_density(lams, p.chol[0], p.nu[0])
        ref = [stats.wishart.logpdf(matrix(lam), df=p.nu[0], scale=matrix(p.v[0])) for lam in lams]
        assert densities == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_mean_mu_is_eta(self):
        p = nw([-1.5, 0.7], 1.3, (0.6, 0.0, 0.9), 5.0)
        rng = np.random.default_rng(12)
        mus, _ = sample_normal_wishart(p, rng, size=1_000_000)
        for k in range(2):
            mean, se = mc_mean_and_se(mus[:, k])
            assert abs(mean - p.eta[0, k]) < 3 * se

    def test_mu_variance_matches_expected_inverse_precision(self):
        # Var(mu_i) = E[(beta Lambda)^-1]_ii = (beta (nu - D - 1))^-1 (V^-1)_ii.
        p = nw([0.0, 0.0], 2.0, (0.8, 0.15, 0.5), 7.0)
        rng = np.random.default_rng(13)
        mus, _ = sample_normal_wishart(p, rng, size=1_000_000)
        v_inv = np.linalg.inv(matrix(p.v[0]))
        expected = v_inv / (p.beta[0] * (p.nu[0] - 3.0))
        for k in range(2):
            centered = (mus[:, k] - p.eta[0, k]) ** 2
            mean, se = mc_mean_and_se(centered)
            assert abs(mean - expected[k, k]) < 3.5 * se

    def test_deterministic_given_seed(self):
        p = random_nw(np.random.default_rng(0))
        a = sample_normal_wishart(p, np.random.default_rng(42), 1)
        b = sample_normal_wishart(p, np.random.default_rng(42), 1)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


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
            ref = stats.wishart.rvs(df=nu, scale=matrix(v), size=n, random_state=scipy_rng)
            assert ours.shape == ref.shape == (n, 2, 2)
            assert ours.tobytes() == ref.tobytes()
            assert ours_rng.bit_generator.state == scipy_rng.bit_generator.state


class TestExpectations:
    def test_plugin_arithmetic(self):
        q = nw([0.0, 0.0], 1.0, IDENTITY, 4.0)
        e_log_det, e_mahalanobis = expected_log_det_and_mahalanobis([1.0, 0.0], q)
        assert e_mahalanobis == pytest.approx(6.0, abs=1e-12)
        assert e_log_det == pytest.approx(psi_d(2.0) + 2 * math.log(2.0), abs=1e-12)

    def test_mahalanobis_vanishes_at_eta_large_beta(self):
        vals = []
        for beta in [1.0, 10.0, 100.0, 1e6]:
            q = nw([2.0, -1.0], beta, (0.5, 0.1, 0.7), 5.0)
            vals.append(expected_log_det_and_mahalanobis(q.eta[0], q)[1])
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        assert vals[-1] == pytest.approx(0.0, abs=1e-5)

    def test_against_mc(self):
        rng = np.random.default_rng(21)
        q = random_nw(rng)
        g = rng.normal(size=2)
        mus, lams = sample_nw_scipy(q, rng, 1_000_000)
        e_log_det, e_mahalanobis = expected_log_det_and_mahalanobis(g, q)

        dets = det2(lams)
        assert np.all(dets > 0)
        logdets = np.log(dets)
        mean_ld, se_ld = mc_mean_and_se(logdets)
        assert abs(e_log_det - mean_ld) < 3 * se_ld

        dev = g - mus
        quad = quad2(dev, lams)
        mean_q, se_q = mc_mean_and_se(quad)
        assert abs(e_mahalanobis - mean_q) < 3 * se_q


class TestKlMeanGivenPrecision:
    def test_zero_at_equality(self):
        q = random_nw(np.random.default_rng(31))
        assert kl_of_means(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_zero_when_eta_beta_match(self):
        rng = np.random.default_rng(32)
        q = random_nw(rng)
        p = nw(q.eta[0], q.beta[0], random_spd(rng), rng.uniform(3.5, 9.0))
        assert kl_of_means(q, p) == pytest.approx(0.0, abs=1e-12)

    def test_against_mc(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            q, p = random_nw(rng), random_nw(rng)
            lams = sample_wishart_scipy(q.v[0], q.nu[0], rng, 1_000_000)
            kls = gaussian_kl_given_precision(q.eta[0], q.beta[0], p.eta[0], p.beta[0], lams)
            mean, se = mc_mean_and_se(kls)
            assert abs(kl_of_means(q, p) - mean) < 3 * se

    def test_nonnegative_random(self):
        rng = np.random.default_rng(34)
        for _ in range(1000):
            assert kl_of_means(random_nw(rng), random_nw(rng)) >= 0.0


class TestKlWishart:
    def test_zero_at_equality(self):
        w = wishart(random_spd(np.random.default_rng(41)), 5.5)
        assert kl_of_wisharts(w, w) == pytest.approx(0.0, abs=1e-12)

    def test_small_nu_perturbation(self):
        v = random_spd(np.random.default_rng(42))
        q = wishart(v, 6.0 + 1e-3)
        p = wishart(v, 6.0)
        val = kl_of_wisharts(q, p)
        assert 0.0 < val < 1e-5

    def test_against_mc(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            q = wishart(random_spd(rng), rng.uniform(3.5, 10.0))
            p = wishart(random_spd(rng), rng.uniform(3.5, 10.0))
            lams = sample_wishart_scipy(q.v[0], q.nu[0], rng, 1_000_000)
            diffs = wishart_logpdf_formula(lams, q.v[0], q.nu[0]) - wishart_logpdf_formula(lams, p.v[0], p.nu[0])
            mean, se = mc_mean_and_se(diffs)
            assert abs(kl_of_wisharts(q, p) - mean) < 3 * se

    def test_nonnegative_random(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            q = wishart(random_spd(rng), rng.uniform(2.5, 12.0))
            p = wishart(random_spd(rng), rng.uniform(2.5, 12.0))
            assert kl_of_wisharts(q, p) >= 0.0


class TestStudentT:
    def test_df1_peak_value(self):
        assert student_t([[0.0, 0.0]], [0.0, 0.0], IDENTITY, 1.0)[0] == pytest.approx(
            math.log(1 / (2 * math.pi)), abs=1e-12
        )

    def test_gaussian_limit(self):
        x = np.array([1.0, 1.0])
        gauss = stats.multivariate_normal.logpdf(x, mean=np.zeros(2), cov=np.eye(2))
        assert student_t([x], [0.0, 0.0], IDENTITY, 1e6)[0] == pytest.approx(float(gauss), abs=1e-3)

    def test_elliptical_symmetry(self):
        rng = np.random.default_rng(51)
        loc, shape = np.array([1.0, -1.0]), random_spd(rng)
        for _ in range(20):
            d = rng.normal(size=2)
            plus, minus = student_t([loc + d, loc - d], loc, shape, 3.7)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            shape = random_spd(rng)
            loc, df = rng.normal(size=2), rng.uniform(1.0, 30.0)
            xs = rng.normal(size=(5, 2), scale=3.0)
            ref = student_t_logpdf_scipy(xs, loc, matrix(shape), df)
            mine = student_t(xs, loc, shape, df)
            assert mine == pytest.approx(ref, rel=1e-10)
            assert student_t(xs[:1], loc, shape, df)[0] == pytest.approx(float(ref[0]), rel=1e-10)


class TestPosteriorPredictive:
    def test_paper_substitution(self):
        q = nw([0.0, 0.0], 1.0, IDENTITY, 4.0)
        loc, shape, df = predictive(q)
        assert np.array_equal(loc, q.eta[0])
        assert df == pytest.approx(3.0)
        assert matrix(shape) == pytest.approx((2.0 / 3.0) * np.eye(2), abs=1e-14)

    def test_large_beta_limit(self):
        v = (0.5, 0.1, 0.8)
        q = nw([1.0, 1.0], 1e9, v, 5.0)
        _, shape, _ = predictive(q)
        assert matrix(shape) == pytest.approx(np.linalg.inv(matrix(v)) / 4.0, rel=1e-8)

    def test_df_guard(self):
        q = nw([0.0, 0.0], 1.0, IDENTITY, 3.0)
        with pytest.raises(DegreesOfFreedomTooSmall):
            predictive(q)

    def test_mass_integrates_to_one(self):
        rng = np.random.default_rng(61)
        q = nw([0.5, -0.3], 2.0, random_spd(rng), 6.0)
        loc, shape, df = predictive(q)
        scale = math.sqrt(max(shape[0], shape[2]))
        mass = grid_quadrature_mass(lambda pts: student_t(pts, loc, shape, df), loc, 40.0 * scale, n=200)
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_density_maximized_at_loc(self):
        rng = np.random.default_rng(62)
        q = random_nw(rng)
        loc, shape, df = predictive(q)
        at_loc = student_t([loc], loc, shape, df)[0]
        for angle in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            offset = 0.3 * np.array([math.cos(angle), math.sin(angle)])
            assert student_t([loc + offset], loc, shape, df)[0] < at_loc
