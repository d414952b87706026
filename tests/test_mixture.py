import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gneva.autodiff import Var
from gneva.distributions import predictive_student_t, student_t_log_density_table
from gneva.encoders import SpatialForward
from gneva.errors import DegreesOfFreedomTooSmall, NotPositiveDefinite, ValidationError
from gneva.mixture import (
    MixturePosterior,
    elbo,
    predictive_log_densities,
    prior_log_evidence,
    z_posterior,
)
from gneva.special_math import spd_from_cholesky

from helpers import (
    elbo_oracle,
    entries,
    exact_conjugate_posterior,
    grid_quadrature_mass,
    nw,
    random_nw,
    random_spd,
    sample_nw_scipy,
    stable_log_mean_exp,
    stack,
    student_t_mixture_logpdf_scipy,
)

IDENTITY = (1.0, 0.0, 1.0)


def random_mixture(rng, c=3):
    return stack([random_nw(rng) for _ in range(c)])


def permuted(comps, log_pi, perm):
    return stack([comps[i] for i in perm], log_pi[perm])


def predictive_log_density(g, q):
    """The Student-t predictive log density of a one-component posterior at one point."""
    loc, shape, df = predictive_student_t(q.eta, q.beta, q.chol, q.nu)
    return float(student_t_log_density_table(np.reshape(g, (1, 2)), loc, shape, df)[0, 0])


def log_density_at(g, mix, weights):
    """The predictive mixture log density at one point."""
    return float(predictive_log_densities(np.reshape(g, (1, 2)), mix, weights)[0])


class TestTypes:
    def test_log_pi_must_normalize(self):
        comp = random_nw(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            MixturePosterior(comp.eta, comp.beta, comp.v, comp.nu, log_pi=np.array([-0.5]))

    @pytest.mark.parametrize("v", [(1.0, 2.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (math.nan, 0.0, 1.0)])
    def test_rejects_a_scale_matrix_that_is_not_positive_definite(self, v):
        with pytest.raises(NotPositiveDefinite, match="^mixture component 1 is out of family: "):
            MixturePosterior([[0.0, 0.0]] * 2, [1.0, 1.0], [IDENTITY, v], [4.0, 4.0])


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# Faults drawn for one component; most components get none. A near-singular
# factor (|l21| >> l22) lands on either side of the leading-minor test.
FAULTS = [(), (), (), (), (), (), (), ("near-singular",), ("near-singular",),
          ("eta",), ("beta",), ("nu",), ("chol",), ("chol", "beta"), ("nu", "eta"), ("beta", "nu")]


@st.composite
def emitted_component(draw):
    """(eta, beta, chol rows, nu) of one emitted component, in or out of the family.

    nu in (1, 3] is in the family but has no finite-covariance predictive.
    """
    eta = [draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))]
    beta = draw(st.floats(1e-3, 10.0))
    chol = [draw(st.floats(1e-3, 10.0)), draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 10.0))]
    nu = draw(st.floats(1.001, 20.0))
    for fault in draw(st.sampled_from(FAULTS)):
        if fault == "near-singular":
            chol[1] = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(3.0, 9.0))
            chol[2] = 10.0 ** draw(st.floats(-8.0, 1.0))
        elif fault == "eta":
            eta[draw(st.integers(0, 1))] = draw(NON_FINITE)
        elif fault == "beta":
            beta = draw(st.one_of(st.floats(-5.0, 0.0), NON_FINITE))
        elif fault == "nu":
            nu = draw(st.one_of(st.floats(-2.0, 1.0), NON_FINITE))
        else:  # a non-finite, zero or overflowing factor entry
            chol[draw(st.integers(0, 2))] = draw(st.one_of(NON_FINITE, st.sampled_from([0.0, 1e200])))
    return eta, beta, chol, nu


def emitted(eta, beta, chol, nu) -> SpatialForward:
    """A one-scene forward holding only the mixture heads' outputs."""
    none = dict.fromkeys(
        ["prior_eta", "prior_beta", "prior_chol", "prior_nu", "context_feature", "weights_logits", "weights"]
    )
    return SpatialForward(eta=Var(eta), beta=Var(beta), chol=Var(chol), nu=Var(nu), **none)


class TestArrayFamilyChecks:
    @given(st.lists(emitted_component(), min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_array_posterior_matches_per_component_objects(self, components):
        eta, beta, chol, nu = (np.array(x, dtype=float) for x in zip(*components))
        comps, expected = [], None
        prefix = "mixture component 0 is out of family: "
        for c, (e, b, l, n) in enumerate(zip(eta, beta, chol, nu)):
            try:
                comps.append(nw(e, b, spd_from_cholesky(*l), n))
            except (NotPositiveDefinite, ValidationError) as exc:
                assert str(exc).startswith(prefix), str(exc)
                message = str(exc)[len(prefix):]
                expected = (type(exc), f"scenario 's': emitted mixture component {c} is out of family: {message}")
                break
        fw = emitted(eta, beta, chol, nu)
        if expected is not None:
            with pytest.raises(expected[0]) as info:
                fw.mixture("s")
            assert type(info.value) is expected[0] and str(info.value) == expected[1]
            return
        mix, ref = fw.mixture("s"), stack(comps)
        for name in ("eta", "beta", "chol", "nu", "log_pi"):
            assert getattr(mix, name).tobytes() == getattr(ref, name).tobytes(), name
        live = nu > 3.0
        if live.any():
            w = live / live.sum()
            pts = np.array([[0.0, 0.0], [3.0, -2.0], [40.0, 25.0]])
            with np.errstate(all="ignore"):
                mine, theirs = (predictive_log_densities(pts, m, w) for m in (mix, ref))
            assert mine.tobytes() == theirs.tobytes()


class TestZPosterior:
    def test_single_component(self):
        mix = random_nw(np.random.default_rng(1))
        r = z_posterior([0.3, -0.4], mix)
        assert r == pytest.approx([1.0])

    def test_output_is_a_simplex(self):
        # Goals near and far from the components; far ones drive some
        # responsibilities to exactly 0.
        rng = np.random.default_rng(17)
        for _ in range(50):
            mix = random_mixture(rng, c=int(rng.integers(1, 7)))
            g = rng.normal(scale=float(rng.choice([1.0, 30.0])), size=2)
            r = z_posterior(g, mix)
            assert r.shape == (mix.n_components,)
            assert np.all(r >= 0.0) and abs(r.sum() - 1.0) <= 1e-10

    def test_mirror_symmetry(self):
        g = np.array([0.0, 0.0])
        v = (0.5, 0.1, 0.8)
        a = nw([2.0, 1.0], 1.5, v, 5.0)
        b = nw([-2.0, -1.0], 1.5, v, 5.0)
        r = z_posterior(g, stack([a, b]))
        assert r == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        comps = [random_nw(rng) for _ in range(4)]
        mix = stack(comps)
        g = rng.normal(size=2)
        r = z_posterior(g, mix)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)
        perm = [2, 0, 3, 1]
        r_p = z_posterior(g, permuted(comps, mix.log_pi, perm))
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
                nw(
                    eta=g + rng.uniform(-1.0, 1.0, size=2),
                    beta=rng.uniform(1.0, 3.0),
                    v=entries(v),
                    nu=rng.uniform(3.5, 6.0),
                )
            )
        mix = stack(comps, np.log([0.25, 0.35, 0.4]))
        log_w = mix.log_pi.copy()
        for c, comp in enumerate(comps):
            mus, lams = sample_nw_scipy(comp, rng, 1_000_000)
            dev = g - mus
            quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
            _, logdets = np.linalg.slogdet(lams)
            log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
            log_w[c] += log_dens.mean()
        oracle = np.exp(log_w - log_w.max())
        oracle /= oracle.sum()
        assert oracle.min() >= 0.05, oracle
        mine = z_posterior(g, mix)
        assert 0.5 * np.abs(mine - oracle).sum() < 1e-2

    def test_nu_increase_far_from_eta_lowers_responsibility(self):
        g = np.array([5.0, 0.0])
        far = nw([-5.0, 0.0], 1.0, IDENTITY, 4.0)
        near = nw([4.0, 0.0], 1.0, IDENTITY, 4.0)
        base = z_posterior(g, stack([far, near]))[0]
        far_stiff = MixturePosterior(far.eta, far.beta, far.v, [6.0])
        bumped = z_posterior(g, stack([far_stiff, near]))[0]
        assert bumped < base


class TestElbo:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(15)
        for c in range(1, 7):
            for _ in range(10):
                comps = [random_nw(rng) for _ in range(c)]
                mix = stack(comps, np.log(rng.dirichlet(np.ones(c))))
                prior = random_nw(rng)
                prior_pi = rng.dirichlet(np.full(c, 2.0))
                g = rng.normal(scale=2.5, size=2)
                expected = elbo_oracle(g, mix, mix.log_pi, prior, prior_pi)
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
            lhs = elbo(g, post, prior, [1.0])
            rhs = prior_log_evidence(g, prior, [1.0])
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_zero_prior_weight_on_an_empty_component(self):
        # The far component's responsibility underflows to exactly 0, so
        # its zero prior weight adds 0 log(0 / 0) = 0 to KL(q(z) || pi).
        near = nw([0.0, 0.0], 1.0, IDENTITY, 5.0)
        far = nw([50.0, 0.0], 1.0, IDENTITY, 5.0)
        mix = stack([near, far])
        g = [0.1, 0.0]
        assert z_posterior(g, mix)[1] == 0.0
        expected = elbo(g, mix, near, [0.5, 0.5]) + math.log(2.0)
        assert elbo(g, mix, near, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "prior_pi", [[0.7, 0.7], [1.2, -0.2], [1.0]], ids=["sum-above-1", "negative", "length"]
    )
    def test_prior_pi_must_be_a_probability_vector(self, prior_pi):
        rng = np.random.default_rng(16)
        with pytest.raises(ValidationError):
            elbo(rng.normal(size=2), random_mixture(rng, c=2), random_nw(rng), prior_pi)

    def test_refuses_a_prior_with_two_components(self):
        rng = np.random.default_rng(18)
        mix, prior = random_mixture(rng, c=2), random_mixture(rng, c=2)
        g = rng.normal(size=2)
        with pytest.raises(ValidationError, match="elbo takes a one-component posterior, got 2 components"):
            elbo(g, mix, prior, [0.5, 0.5])
        with pytest.raises(ValidationError, match="prior_log_evidence takes a one-component posterior"):
            prior_log_evidence(g, prior, [0.5, 0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        comps = [random_nw(rng) for _ in range(3)]
        mix = stack(comps)
        prior = random_nw(rng)
        g = rng.normal(size=2)
        pi = np.array([0.2, 0.5, 0.3])
        base = elbo(g, mix, prior, pi)
        perm = [1, 2, 0]
        mix_p = permuted(comps, mix.log_pi, perm)
        assert elbo(g, mix_p, prior, pi[perm]) == pytest.approx(base, rel=1e-12)


class TestPredictive:
    def test_degenerate_single_component(self):
        rng = np.random.default_rng(7)
        mix = random_nw(rng)
        g = rng.normal(size=2)
        expected = predictive_log_density(g, mix)
        assert log_density_at(g, mix, [1.0]) == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_masks_component(self):
        rng = np.random.default_rng(8)
        good = random_nw(rng)
        # Component with nu <= 3 would raise if not masked by its zero weight.
        bad = nw([0.0, 0.0], 1.0, IDENTITY, 2.5)
        mix = stack([good, bad])
        g = rng.normal(size=2)
        expected = predictive_log_density(g, good)
        assert log_density_at(g, mix, [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(DegreesOfFreedomTooSmall):
            log_density_at(g, mix, [0.5, 0.5])

    def test_grid_mass_is_one(self):
        rng = np.random.default_rng(9)
        comps = [
            nw(
                eta=rng.uniform(-3, 3, size=2),
                beta=rng.uniform(0.5, 4.0),
                v=random_spd(rng),
                nu=rng.uniform(3.5, 9.0),
            )
            for _ in range(3)
        ]
        mix = stack(comps)
        w = rng.dirichlet(np.ones(3))
        _, shape, _ = predictive_student_t(mix.eta, mix.beta, mix.chol, mix.nu)
        scales = [math.sqrt(max(s11, s22)) for s11, _, s22 in shape]
        mass = grid_quadrature_mass(
            lambda pts: predictive_log_densities(pts, mix, w),
            center=np.zeros(2),
            half_width=40.0 * max(scales) + 3.0,
            n=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(10)
        mix = stack([random_nw(rng) for _ in range(4)])
        w = rng.dirichlet(np.ones(4))
        pts = rng.normal(size=(7, 2), scale=3.0)
        expected = student_t_mixture_logpdf_scipy(pts, mix, w)
        vec = predictive_log_densities(pts, mix, w)
        assert vec == pytest.approx(expected, rel=1e-10)
        for i, p in enumerate(pts):
            assert log_density_at(p, mix, w) == pytest.approx(expected[i], rel=1e-10)

    def test_continuity_in_g(self):
        rng = np.random.default_rng(11)
        mix = random_mixture(rng, c=3)
        w = np.full(3, 1 / 3)
        for _ in range(50):
            g = rng.normal(size=2, scale=3.0)
            delta = rng.normal(size=2)
            delta *= 1e-6 / np.linalg.norm(delta)
            a = log_density_at(g, mix, w)
            b = log_density_at(g + delta, mix, w)
            assert abs(a - b) <= 1e6 * np.linalg.norm(delta)


class TestPriorLogEvidence:
    def test_uniform_pi_cancels(self):
        rng = np.random.default_rng(12)
        prior = random_nw(rng)
        g = rng.normal(size=2)
        for c in (1, 3, 6):
            pi = np.full(c, 1.0 / c)
            assert prior_log_evidence(g, prior, pi) == pytest.approx(predictive_log_density(g, prior), rel=1e-12)

    def test_unimodal_in_mahalanobis_radius(self):
        rng = np.random.default_rng(13)
        prior = random_nw(rng)
        pi = np.full(2, 0.5)
        at_eta = prior_log_evidence(prior.eta[0], prior, pi)
        for r in (0.5, 1.0, 2.0, 5.0):
            vals = []
            for angle in np.linspace(0, 2 * math.pi, 12, endpoint=False):
                x = prior.eta[0] + r * np.array([math.cos(angle), math.sin(angle)])
                vals.append(prior_log_evidence(x, prior, pi))
            assert max(vals) < at_eta

    def test_against_mc_marginalization(self):
        rng = np.random.default_rng(14)
        prior = random_nw(rng)
        g = prior.eta[0] + rng.normal(size=2)
        mus, lams = sample_nw_scipy(prior, rng, 1_000_000)
        dev = g - mus
        quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
        _, logdets = np.linalg.slogdet(lams)
        log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
        log_mean, se_rel = stable_log_mean_exp(log_dens)
        assert abs(prior_log_evidence(g, prior, [1.0]) - log_mean) < 3 * se_rel
