import math

import numpy as np
import pytest
from scipy import special as sp

from gneva.autodiff import Var, backward, leaf
from gneva.distributions import NormalWishartArrays, wishart_log_density
from gneva.errors import DomainError, NotPositiveDefinite
from gneva.special_math import (
    check_family,
    digamma,
    log_gamma,
    log_sum_exp,
    spd_cholesky,
    trigamma,
)


class TestScalarSpecials:
    def test_log_gamma_against_scipy(self):
        xs = np.concatenate([np.linspace(0.05, 0.49, 23), np.linspace(0.5, 50.0, 200), [500.0, 5e5]])
        for x in xs:
            assert log_gamma(float(x)) == pytest.approx(float(sp.gammaln(x)), rel=1e-12, abs=1e-12)

    def test_digamma_against_scipy(self):
        for x in np.concatenate([np.linspace(0.05, 9.9, 120), [25.0, 400.0, 1e6]]):
            assert digamma(float(x)) == pytest.approx(float(sp.digamma(x)), rel=1e-12, abs=1e-12)

    def test_trigamma_against_scipy(self):
        for x in np.concatenate([np.linspace(0.05, 9.9, 120), [25.0, 400.0]]):
            assert trigamma(float(x)) == pytest.approx(float(sp.polygamma(1, x)), rel=1e-12, abs=1e-12)

    def test_poles_rejected(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                log_gamma(bad)
        with pytest.raises(DomainError):
            digamma(-0.5)

    def test_arrays_match_scalar_calls(self):
        # Each element of an array goes through the scalar arithmetic, and a
        # single pole anywhere in the array still raises.
        xs = np.concatenate([np.linspace(-9.7, 0.49, 40), np.linspace(0.05, 30.0, 80)])
        positive = xs[xs > 0.0]
        for fn, pts in ((log_gamma, xs), (digamma, positive), (trigamma, positive)):
            values = fn(pts)
            assert values.shape == pts.shape
            assert np.array_equal(values, [fn(float(x)) for x in pts])
        with pytest.raises(DomainError):
            log_gamma(np.array([1.5, -3.0, 2.0]))
        for fn in (digamma, trigamma):
            with pytest.raises(DomainError):
                fn(np.array([[1.5, 0.0]]))


def _log_gamma2(a: float) -> float:
    """log Gamma_2(a), read off the Wishart density that computes it: log W(I | I, 2a) = -1 - 2a log 2 - log Gamma_2(a)."""
    identity = np.array([1.0, 0.0, 1.0])
    return -(float(wishart_log_density(identity, identity, 2.0 * a)[0]) + 1.0 + 2.0 * a * math.log(2.0))


class TestMultivariateGamma:
    def test_d1_reduces_to_log_gamma(self):
        # Gamma_1 is Gamma itself.
        assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2), abs=1e-12)
        assert log_gamma(1.5) == pytest.approx(-0.1208, abs=5e-5)

    def test_d2_product_formula(self):
        # Gamma_2(1.5) = sqrt(pi) * Gamma(1.5) * Gamma(1.0) = pi / 2.
        assert _log_gamma2(1.5) == pytest.approx(math.log(math.pi / 2), abs=1e-12)
        assert _log_gamma2(1.5) == pytest.approx(0.4516, abs=5e-5)

    def test_direct_product_oracle(self):
        # Direct evaluation of the product formula with scipy's gamma routine.
        expected = 0.5 * math.log(math.pi) + float(sp.gammaln(10.0) + sp.gammaln(9.5))
        assert _log_gamma2(10.0) == pytest.approx(expected, rel=1e-13)

    def test_matches_scipy_multigammaln(self):
        rng = np.random.default_rng(0)
        for a in rng.uniform(1.0, 20.0, size=50):
            assert _log_gamma2(float(a)) == pytest.approx(float(sp.multigammaln(a, 2)), rel=1e-12)

    def test_dimension_recursion(self):
        # log Gamma_2(a) - log Gamma_1(a) = (1/2) log pi + log Gamma(a - 1/2).
        rng = np.random.default_rng(1)
        for a in rng.uniform(1.0, 20.0, size=50):
            lhs = _log_gamma2(float(a)) - log_gamma(float(a))
            rhs = 0.5 * math.log(math.pi) + log_gamma(float(a) - 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_domain_error(self):
        # Gamma_2(a) has a pole at a = 1/2, where its factor Gamma(a - 1/2) does.
        with pytest.raises(DomainError):
            _log_gamma2(0.5)


def _psi2(nu) -> Var:
    """psi_2(nu/2) of one Wishart W(I, nu), as the Normal-Wishart closed forms compute it; eta and beta take no part."""
    return NormalWishartArrays(Var(np.zeros((1, 2))), Var(np.ones(1)), Var(np.array([[1.0, 0.0, 1.0]])), nu).psi2


class TestMultivariateDigamma:
    def test_d1_euler_mascheroni(self):
        # psi_1 is psi itself.
        assert digamma(1.0) == pytest.approx(-0.57722, abs=5e-6)

    def test_d2_known_values(self):
        # psi(1.5) + psi(1.0) with psi(1.5) = 2 - gamma - 2 ln 2.
        gamma = 0.5772156649015329
        expected = (2 - gamma - 2 * math.log(2)) + (-gamma)
        value = float(_psi2(Var(np.array([3.0]))).value[0])
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-0.5407, abs=5e-5)

    @pytest.mark.parametrize("a", [1.1, 2.0, 5.0, 17.5])
    def test_is_derivative_of_log_mv_gamma(self, a):
        h = 1e-5
        fd = (sp.multigammaln(a + h, 2) - sp.multigammaln(a - h, 2)) / (2 * h)
        assert float(_psi2(Var(np.array([2 * a]))).value[0]) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("a", [1.1, 2.0, 5.0, 17.5])
    def test_trigamma_is_derivative_of_digamma(self, a):
        # d psi_2(nu/2) / d nu = (trigamma(a) + trigamma(a - 1/2)) / 2 at nu = 2a: the tape
        # gradient, and central differences of psi_2.
        h = 1e-5
        nu = leaf(np.array([2 * a]))
        backward(_psi2(nu))
        up, down = (float(_psi2(Var(np.array([2 * a + d]))).value[0]) for d in (h, -h))
        assert float(nu.grad[0]) == pytest.approx(0.5 * (trigamma(a) + trigamma(a - 0.5)), rel=1e-12)
        assert float(nu.grad[0]) == pytest.approx((up - down) / (2 * h), abs=1e-6)


class TestLogSumExp:
    def test_single_element_exact(self):
        assert log_sum_exp([3.7]) == 3.7

    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            log_sum_exp([])

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_along_an_axis(self):
        rows = np.array([[0.0, 1000.0, -math.inf], [0.0, 1000.0, -math.inf]])
        out = log_sum_exp(rows, axis=0)
        assert out == pytest.approx([math.log(2.0), 1000.0 + math.log(2.0), -math.inf], abs=1e-12)


class TestSpdEntries:
    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a = rng.normal(size=(2, 2))
            m_arr = a.T @ a + 1e-6 * np.eye(2)
            l11, l21, l22 = spd_cholesky(m_arr[0, 0], 0.5 * (m_arr[0, 1] + m_arr[1, 0]), m_arr[1, 1])
            l = np.array([[l11, 0.0], [l21, l22]])
            rebuilt = l @ l.T
            assert np.max(np.abs(rebuilt - m_arr)) <= 1e-10 * max(1.0, np.max(np.abs(m_arr)))

    def test_cholesky_reconstruction_tolerance(self):
        m = np.array([[3.2, -1.1], [-1.1, 5.6]])
        l11, l21, l22 = spd_cholesky(3.2, -1.1, 5.6)
        l = np.array([[l11, 0.0], [l21, l22]])
        assert np.max(np.abs(l @ l.T - m)) < 1e-12 * np.max(np.abs(m))

    def test_rejects_non_pd(self):
        for v in [(1.0, 2.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (math.nan, 0.0, 1.0)]:
            with pytest.raises(NotPositiveDefinite):
                check_family(v=np.array([v]))
