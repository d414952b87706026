"""Acceptance gate: one test per criterion, each printing a PASS line.

Oracles here are deliberately independent of the package internals:
scipy-based samplers and densities, literal brute-force procedures,
quadrature, and finite differences. Tolerances are the criteria's, pinned.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.ndimage import maximum_filter

from gneva import mixture as mx
from gneva.autodiff import check_gradients
from gneva.dataio import (
    SynthConfig,
    mask_map_by_radius,
    synth_generate,
    to_target_frame,
    vectorize,
)
from gneva.distributions import predictive_student_t, student_t_log_density_table
from gneva.encoders import (
    EncoderConfig,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
)
from gneva.metrics import displacement_metrics
from gneva.sampling import CandidatePool, NmsConfig, circle_iou, generate_candidates, nms_select, scene_region
from gneva.trajectory import predict_topk
from gneva.training import TrainConfig, lr_schedule, spatial_scene_loss, train_spatial, train_trajectory

from helpers import (
    exact_conjugate_posterior,
    gaussian_kl_given_precision,
    nw,
    random_nw,
    sample_nw_scipy,
    sample_wishart_scipy,
    stable_log_mean_exp,
    stack,
    wishart_logpdf_formula,
)

MC_SAMPLES = 1_000_000


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


class TestCriterion1ClosedFormVsMonteCarlo:
    def test_closed_forms_within_3_se(self):
        rng = np.random.default_rng(1001)
        worst = {"kl_mean": 0.0, "kl_wishart": 0.0, "e_stats": 0.0, "evidence": 0.0}
        for _ in range(20):
            q, p = random_nw(rng), random_nw(rng)
            qa, pa = q.arrays(), p.arrays()
            lams = sample_wishart_scipy(q.v[0], q.nu[0], rng, MC_SAMPLES)
            kls = gaussian_kl_given_precision(q.eta[0], q.beta[0], p.eta[0], p.beta[0], lams)
            se = kls.std(ddof=1) / math.sqrt(MC_SAMPLES)
            worst["kl_mean"] = max(
                worst["kl_mean"], abs(qa.kl_mean_given_precision(pa).value[0] - kls.mean()) / se
            )

            diffs = wishart_logpdf_formula(lams, q.v[0], q.nu[0]) - wishart_logpdf_formula(
                lams, p.v[0], p.nu[0]
            )
            se = diffs.std(ddof=1) / math.sqrt(MC_SAMPLES)
            worst["kl_wishart"] = max(
                worst["kl_wishart"], abs(qa.kl_wishart(pa).value[0] - diffs.mean()) / se
            )

            g = rng.normal(size=2)
            mus, lams = sample_nw_scipy(q, rng, MC_SAMPLES)
            e_log_det, e_mahalanobis = qa.expected_log_det().value[0], qa.expected_mahalanobis(g).value[0]
            _, logdets = np.linalg.slogdet(lams)
            se_ld = logdets.std(ddof=1) / math.sqrt(MC_SAMPLES)
            dev = g - mus
            quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
            se_q = quad.std(ddof=1) / math.sqrt(MC_SAMPLES)
            worst["e_stats"] = max(
                worst["e_stats"],
                abs(e_log_det - logdets.mean()) / se_ld,
                abs(e_mahalanobis - quad.mean()) / se_q,
            )

            log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
            log_mean, se_rel = stable_log_mean_exp(log_dens)
            worst["evidence"] = max(
                worst["evidence"], abs(mx.prior_log_evidence(g, q, [1.0]) - log_mean) / se_rel
            )
        assert all(v < 3.0 for v in worst.values()), worst
        report(
            "criterion 1 (closed form vs MC)",
            "20 pairs each within 3 SE of 1e6-sample estimates; worst sigmas "
            + ", ".join(f"{k}={v:.2f}" for k, v in worst.items()),
        )


class TestCriterion2ElboBound:
    def test_bound_and_tightness(self):
        rng = np.random.default_rng(1002)
        min_slack = np.inf
        for _ in range(100):
            c = int(rng.integers(1, 5))
            mix = stack([random_nw(rng) for _ in range(c)])
            prior = random_nw(rng)
            g = rng.normal(scale=2.0, size=2)
            pi = np.full(c, 1.0 / c)
            slack = mx.prior_log_evidence(g, prior, pi) - mx.elbo(g, mix, prior, pi)
            min_slack = min(min_slack, slack)
            assert slack >= -1e-9
        max_gap = 0.0
        for _ in range(100):
            prior = random_nw(rng)
            g = rng.normal(scale=2.0, size=2)
            post = exact_conjugate_posterior(g, prior)
            gap = abs(
                mx.elbo(g, post, prior, [1.0])
                - mx.prior_log_evidence(g, prior, [1.0])
            )
            max_gap = max(max_gap, gap)
            assert gap <= 1e-8
        report(
            "criterion 2 (ELBO bound)",
            f"100 instances slack >= {min_slack:.3g}; C=1 conjugate tightness gap <= {max_gap:.2e}",
        )


class TestCriterion3GradientCorrectness:
    def test_full_spatial_loss_gradcheck(self):
        enc = EncoderConfig()
        tape = init_spatial_params(enc, seed=7)
        scene = to_target_frame(
            synth_generate(SynthConfig(n=1, seed=4, H=5, T=5, dt=0.05), "turn")[0]
        )[0]
        vs = vectorize(scene, enc)
        goal = scene.goal()
        q0 = spatial_scene_loss(goal, forward_spatial(vs, tape, enc), 1.0).responsibilities

        def loss_fn(leaves):
            fw = forward_spatial(vs, leaves, enc)
            return spatial_scene_loss(goal, fw, 1.0, q_target=q0).loss

        result = check_gradients(tape, loss_fn, tolerance=1e-4, n_samples=250, step=1e-5, seed=3)
        assert result.n_checked >= 200
        assert result.passed, result.failures[:3]
        report(
            "criterion 3 (gradient correctness)",
            f"{result.n_checked} sampled params, max rel err {result.max_rel_error:.2e} < 1e-4",
        )


def brute_force_selection(locations, log_probs, radius, threshold):
    pool = sorted(range(len(log_probs)), key=lambda i: (-log_probs[i], i))
    out = []
    while pool:
        best = pool.pop(0)
        out.append(best)
        keep = []
        for j in pool:
            d = math.dist(tuple(locations[best]), tuple(locations[j]))
            if d < 2 * radius:
                area = 2 * radius**2 * math.acos(d / (2 * radius)) - 0.5 * d * math.sqrt(
                    4 * radius**2 - d * d
                )
                if area / (2 * math.pi * radius**2 - area) > threshold:
                    continue
            keep.append(j)
        pool = keep
    return out


class TestCriterion4NmsEquivalence:
    def test_matches_brute_force_on_500_pools(self):
        rng = np.random.default_rng(1004)
        default = NmsConfig()
        assert (default.radius, default.iou_threshold, default.k) == (2.0, 0.0, 6)
        for trial in range(500):
            n = int(rng.integers(1, 65))
            # Each candidate's location is drawn, then its log density.
            draws = [(rng.uniform(-20, 20, 2), float(rng.normal())) for _ in range(n)]
            pool = CandidatePool(np.array([loc for loc, _ in draws]), [lp for _, lp in draws])
            cfg = NmsConfig(
                radius=float(rng.uniform(0.5, 4.0)),
                iou_threshold=float(rng.choice([0.0, 0.25, 0.5])),
            )
            fast = nms_select(pool, cfg)
            slow = brute_force_selection(
                pool.locations.tolist(), pool.log_probs.tolist(), cfg.radius, cfg.iou_threshold
            )
            assert fast.tolist() == slow
            goals = pool.locations[fast]
            for i in range(len(goals)):
                for j in range(i + 1, len(goals)):
                    assert circle_iou(goals[i], goals[j], cfg.radius) <= cfg.iou_threshold
        report(
            "criterion 4 (NMS equivalence)",
            "500 random pools match the independent brute-force reference exactly; "
            "defaults radius=2.0, iou=0.0, k=6",
        )


class TestCriterion5PredictiveNormalization:
    def test_grid_mass_and_gaussian_limit(self):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(10):
            comps = []
            for _ in range(3):
                off = rng.uniform(-0.2, 0.2)
                comps.append(
                    nw(
                        eta=rng.uniform(-3, 3, size=2),
                        beta=rng.uniform(1.0, 4.0),
                        v=(rng.uniform(0.7, 1.4), off, rng.uniform(0.7, 1.4)),
                        nu=rng.uniform(4.0, 9.0),
                    )
                )
            mix = stack(comps)
            w = rng.dirichlet(np.ones(3))
            _, shape, _ = predictive_student_t(mix.eta, mix.beta, mix.chol, mix.nu)
            scale = max(math.sqrt(max(s11, s22)) for s11, _, s22 in shape)
            half = 40.0 * scale + 3.0
            n = 200
            cell = 2 * half / n
            axis = -half + cell * (np.arange(n) + 0.5)
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            mass = float(np.exp(mx.predictive_log_densities(pts, mix, w)).sum() * cell * cell)
            worst = max(worst, abs(mass - 1.0))
            assert abs(mass - 1.0) <= 1e-2
        xs = rng.normal(size=(10, 2))
        gauss = stats.multivariate_normal.logpdf(xs, mean=np.zeros(2), cov=np.eye(2))
        t = student_t_log_density_table(xs, np.zeros((1, 2)), np.array([[1.0, 0.0, 1.0]]), np.array([1e6]))[0]
        gap = float(np.max(np.abs(t - gauss)))
        assert gap <= 1e-3
        report(
            "criterion 5 (predictive normalization)",
            f"10 mixtures |mass-1| <= {worst:.2e}; df=1e6 Gaussian-limit gap {gap:.2e} at 10 points",
        )


class TestCriterion6ScheduleEndpoints:
    def test_endpoints(self):
        cfg = TrainConfig()
        total = 5000
        assert lr_schedule(0, total, cfg) == 0.0
        assert lr_schedule(1000, total, cfg) == 1e-3
        assert abs(lr_schedule(total, total, cfg) - 3e-7) < 1e-12
        report(
            "criterion 6 (schedule endpoints)",
            "lr(0)=0, lr(1000)=1e-3 exactly, lr(total)=3e-7 within 1e-12",
        )


class TestCriterion7CircleGeometry:
    def test_iou_against_mc_area(self):
        assert circle_iou([0.0, 0.0], [0.0, 0.0], 1.0) == 1.0
        assert circle_iou([0.0, 0.0], [2.0, 0.0], 1.0) == 0.0
        assert circle_iou([0.0, 0.0], [2.5, 0.0], 1.0) == 0.0
        rng = np.random.default_rng(1007)
        pts = rng.uniform([-1.0, -1.0], [2.0, 1.0], size=(10_000_000, 2))
        in_a = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
        in_b = np.hypot(pts[:, 0] - 1.0, pts[:, 1]) <= 1.0
        mc = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
        value = circle_iou([0.0, 0.0], [1.0, 0.0], 1.0)
        assert abs(value - mc) <= 1e-3
        assert abs(value - 0.2430) <= 1e-3
        report(
            "criterion 7 (circle geometry)",
            f"IoU(r=1,d=1)={value:.4f} vs 1e7-point MC {mc:.4f}; d=0 -> 1, d>=2r -> 0",
        )


class TestCriterion8Metrics:
    def test_offset_case_and_monotonicity(self):
        t = 30
        gt = np.stack([np.linspace(1, t, t), np.zeros(t)], axis=1)
        r = displacement_metrics([[gt + np.array([3.0, 4.0])]], [gt], k=1)
        assert r.made_k == 5.0 and r.mfde_k == 5.0 and r.miss_rate_k == 1.0
        rng = np.random.default_rng(1008)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            gts = [rng.normal(size=(12, 2)) for _ in range(4)]
            preds = [
                [rng.normal(size=(12, 2), scale=3.0) for _ in range(k + 1)] for _ in range(4)
            ]
            small = displacement_metrics(preds, gts, k=k)
            large = displacement_metrics(preds, gts, k=k + 1)
            assert large.made_k <= small.made_k + 1e-12
            assert large.mfde_k <= small.mfde_k + 1e-12
            assert large.miss_rate_k <= small.miss_rate_k + 1e-12
        report(
            "criterion 8 (metrics)",
            "3-4-5 offset gives mADE=mFDE=5.0, MR=1.0 exactly; monotone in k on 100 random sets",
        )


@pytest.fixture(scope="module")
def trained_pipeline():
    """Seed-7 end-to-end training run shared by criteria 9 and 10."""
    enc = EncoderConfig()
    master = np.random.default_rng(7)
    seeds = master.integers(0, 2**31, size=4)
    train_scenes = []
    for kind, n, seed in [("turn", 400, seeds[0]), ("straight", 100, seeds[1])]:
        train_scenes += [
            to_target_frame(s)[0] for s in synth_generate(SynthConfig(n=n, seed=int(seed)), kind)
        ]
    held = []
    for kind, n, seed in [("turn", 60, seeds[2]), ("straight", 40, seeds[3])]:
        held += [
            (kind, to_target_frame(s)[0])
            for s in synth_generate(SynthConfig(n=n, seed=int(seed)), kind)
        ]
    cfg = TrainConfig(
        batch_size=16, warmup_steps=60, max_steps=300, seed=7, epochs=999,
        peak_lr=5e-3, final_lr=5e-4,
    )
    spatial = init_spatial_params(enc, seed=7)
    spatial, spatial_history = train_spatial(train_scenes, spatial, cfg, enc)
    traj = init_trajectory_params(enc, horizon=train_scenes[0].T, seed=7)
    traj, traj_history = train_trajectory(train_scenes, spatial, traj, cfg, enc)
    return enc, spatial, traj, held, spatial_history, traj_history


class TestCriterion9EndToEnd:
    def test_beats_constant_velocity_and_turn_bimodality(self, trained_pipeline):
        enc, spatial, traj, held, spatial_history, traj_history = trained_pipeline
        assert len(spatial_history.losses) == 300 and len(traj_history.losses) == 300
        assert spatial_history.losses[-1] < spatial_history.losses[0]

        nms = NmsConfig()  # defaults: radius 2.0, iou 0.0, k 6
        preds, gts, cv_preds = [], [], []
        turn_goal_sets = []
        for kind, s in held:
            topk = predict_topk(s, spatial, traj, nms, enc)
            preds.append(topk.waypoints)
            gts.append(s.future_waypoints())
            velocity = s.target().row_at(s.H)[3:5]
            steps = np.arange(1, s.T + 1)[:, None] * s.dt
            cv_preds.append([steps * velocity])
            if kind == "turn":
                turn_goal_sets.append(topk.waypoints[:, -1])
        model = displacement_metrics(preds, gts, k=6)
        cv = displacement_metrics(cv_preds, gts, k=1)
        assert model.made_k < cv.made_k, (model.made_k, cv.made_k)

        # Multi-modality on turn scenes: the selected goals must spread
        # across both exits, not ring a single peak.
        far_pairs = 0
        straddles = 0
        for goals in turn_goal_sets:
            sep = max(
                np.linalg.norm(goals[i] - goals[j])
                for i in range(len(goals))
                for j in range(i + 1, len(goals))
            )
            if sep > 5.0:
                far_pairs += 1
            if goals[:, 1].min() < -2.0 and goals[:, 1].max() > 2.0:
                straddles += 1
        assert far_pairs == len(turn_goal_sets)
        assert straddles > 0.5 * len(turn_goal_sets)

        # And the predictive density itself carries two local maxima on a
        # held-out turn scene.
        kind, scene = next(h for h in held if h[0] == "turn")
        fw = forward_spatial(vectorize(scene, enc), spatial, enc)
        xs = np.linspace(0.0, 25.0, 126)
        ys = np.linspace(-20.0, 20.0, 201)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        lp = mx.predictive_log_densities(grid, fw.mixture(), fw.weights.value).reshape(126, 201)
        peaks = (lp == maximum_filter(lp, size=9)) & (lp > lp.max() - 4.0)
        pi, pj = np.where(peaks)
        peak_pts = np.stack([xs[pi], ys[pj]], axis=1)
        max_peak_sep = 0.0
        for i in range(len(peak_pts)):
            for j in range(i + 1, len(peak_pts)):
                max_peak_sep = max(max_peak_sep, float(np.linalg.norm(peak_pts[i] - peak_pts[j])))
        assert len(peak_pts) >= 2 and max_peak_sep > 5.0

        report(
            "criterion 9 (end-to-end synthetic)",
            f"mADE6 {model.made_k:.2f} < CV baseline {cv.made_k:.2f}; "
            f"{far_pairs}/{len(turn_goal_sets)} turn scenes with NMS goals > 5 m apart, "
            f"{straddles}/{len(turn_goal_sets)} straddling both exits; "
            f"{len(peak_pts)} predictive modes {max_peak_sep:.1f} m apart",
        )


class TestCriterion10MapMasking:
    def test_radius_zero_pipeline_and_monotonicity(self, trained_pipeline):
        enc, spatial, traj, held, _, _ = trained_pipeline
        ran = 0
        for kind, s in held[:10]:
            masked = mask_map_by_radius(s, 0.0)
            assert masked.map == []
            out = predict_topk(masked, spatial, traj, NmsConfig(), enc)
            assert len(out) >= 1
            ran += 1

        rng = np.random.default_rng(1010)
        scenes = [
            to_target_frame(s)[0]
            for s in synth_generate(SynthConfig(n=50, seed=1010), "merge")
        ] + [
            to_target_frame(s)[0]
            for s in synth_generate(SynthConfig(n=50, seed=1011), "turn")
        ]
        for s in scenes:
            r1, r2 = sorted(rng.uniform(0.0, 40.0, size=2))
            kept1 = {p.id for p in mask_map_by_radius(s, r1).map}
            kept2 = {p.id for p in mask_map_by_radius(s, r2).map}
            assert kept1 <= kept2
        report(
            "criterion 10 (map-radius masking)",
            f"r=0 empties the map and the pipeline ran on {ran} scenes; "
            "masking monotone in r on 100 random scenes",
        )
