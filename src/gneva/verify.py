"""Self-contained oracle suites runnable from the CLI.

Each check pits a closed-form implementation against an independent route:
Monte-Carlo estimates over seeded samples, literal brute-force procedures,
quadrature, or finite differences. `run_all` prints one PASS/FAIL line per
check and reports overall success.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mixture as mx
from .autodiff import check_gradients
from .dataio import SynthConfig, synth_generate, to_target_frame, vectorize
from .distributions import (
    predictive_student_t,
    sample_normal_wishart,
    sample_wishart_bartlett,
    student_t_log_density_table,
    wishart_log_density,
)
from .encoders import EncoderConfig, forward_spatial, init_spatial_params
from .metrics import displacement_metrics
from .sampling import CandidatePool, NmsConfig, circle_iou, nms_select
from .training import TrainConfig, lr_schedule, spatial_scene_loss


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _nw(eta, beta, v, nu) -> mx.MixturePosterior:
    """One Normal-Wishart as a one-component posterior; v holds V's entries (v11, v12, v22)."""
    return mx.MixturePosterior([eta], [beta], [v], [nu])


def _stack(comps, log_pi=None) -> mx.MixturePosterior:
    """The mixture of one-component posteriors."""
    arrays = (np.concatenate([getattr(c, k) for c in comps]) for k in ("eta", "beta", "v", "nu"))
    return mx.MixturePosterior(*arrays, log_pi)


def _matrix(v) -> np.ndarray:
    return np.array([[v[0], v[1]], [v[1], v[2]]])


def _random_spd(rng, scale=1.0) -> tuple[float, float, float]:
    a = rng.normal(scale=scale, size=(2, 2))
    m = a.T @ a + 0.05 * scale**2 * np.eye(2)
    return m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]


def _random_nw(rng) -> mx.MixturePosterior:
    return _nw(rng.normal(scale=2.0, size=2), rng.uniform(0.3, 5.0), _random_spd(rng), rng.uniform(3.5, 12.0))


def check_kl_mean_vs_mc(n_pairs: int, n_samples: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_pairs):
        q, p = _random_nw(rng), _random_nw(rng)
        lam11, lam12, lam22 = sample_wishart_bartlett(q.chol[0], q.nu[0], rng, n_samples)
        dev = q.eta[0] - p.eta[0]
        quad = lam11 * dev[0] ** 2 + 2 * lam12 * dev[0] * dev[1] + lam22 * dev[1] ** 2
        ratio = p.beta[0] / q.beta[0]
        kls = 0.5 * (2 * ratio - 2 + p.beta[0] * quad + 2 * math.log(1.0 / ratio))
        se = kls.std(ddof=1) / math.sqrt(n_samples)
        closed = q.arrays().kl_mean_given_precision(p.arrays()).value[0]
        sigmas = abs(closed - kls.mean()) / se
        worst = max(worst, sigmas)
        if sigmas > 3.0:
            return False, f"closed form {sigmas:.1f} MC standard errors from estimate"
    return True, f"{n_pairs} pairs within 3 SE (worst {worst:.2f})"


def check_kl_wishart_vs_mc(n_pairs: int, n_samples: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_pairs):
        # Wisharts alone: the mean's eta and beta take no part.
        q = _nw([0.0, 0.0], 1.0, _random_spd(rng), rng.uniform(3.5, 10.0))
        p = _nw([0.0, 0.0], 1.0, _random_spd(rng), rng.uniform(3.5, 10.0))
        lams = np.stack(sample_wishart_bartlett(q.chol[0], q.nu[0], rng, n_samples), axis=1)
        diffs = wishart_log_density(lams, q.chol[0], q.nu[0]) - wishart_log_density(lams, p.chol[0], p.nu[0])
        se = diffs.std(ddof=1) / math.sqrt(n_samples)
        sigmas = abs(q.arrays().kl_wishart(p.arrays()).value[0] - diffs.mean()) / se
        worst = max(worst, sigmas)
        if sigmas > 3.0:
            return False, f"closed form {sigmas:.1f} MC standard errors from estimate"
    return True, f"{n_pairs} pairs within 3 SE (worst {worst:.2f})"


def check_expectations_vs_mc(n_cases: int, n_samples: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_cases):
        q = _random_nw(rng)
        g = rng.normal(size=2)
        mus, lams = sample_normal_wishart(q, rng, size=n_samples)
        qa = q.arrays()
        e_log_det, e_mahalanobis = qa.expected_log_det().value[0], qa.expected_mahalanobis(g).value[0]
        _, logdets = np.linalg.slogdet(lams)
        se_ld = logdets.std(ddof=1) / math.sqrt(n_samples)
        dev = g - mus
        quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
        se_q = quad.std(ddof=1) / math.sqrt(n_samples)
        sig = max(
            abs(e_log_det - logdets.mean()) / se_ld,
            abs(e_mahalanobis - quad.mean()) / se_q,
        )
        worst = max(worst, sig)
        if sig > 3.0:
            return False, f"expectation {sig:.1f} MC standard errors from estimate"
    return True, f"{n_cases} cases within 3 SE (worst {worst:.2f})"


def check_prior_evidence_vs_mc(n_cases: int, n_samples: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_cases):
        prior = _random_nw(rng)
        g = prior.eta[0] + rng.normal(size=2)
        mus, lams = sample_normal_wishart(prior, rng, size=n_samples)
        dev = g - mus
        quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
        _, logdets = np.linalg.slogdet(lams)
        log_dens = 0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad
        shift = log_dens.max()
        w = np.exp(log_dens - shift)
        log_mean = shift + math.log(w.mean())
        se_rel = w.std(ddof=1) / math.sqrt(n_samples) / w.mean()
        sig = abs(mx.prior_log_evidence(g, prior, [1.0]) - log_mean) / se_rel
        worst = max(worst, sig)
        if sig > 3.0:
            return False, f"log evidence {sig:.1f} MC standard errors from estimate"
    return True, f"{n_cases} cases within 3 SE (worst {worst:.2f})"


def _nearby_nw(rng, g) -> mx.MixturePosterior:
    """A component whose mean lies within 1 m of g, with a mild precision."""
    a, b = rng.uniform(0.1, 0.3, size=2)
    eta, beta = g + rng.uniform(-1.0, 1.0, size=2), rng.uniform(1.0, 3.0)
    return _nw(eta, beta, (a, rng.uniform(-0.5, 0.5) * math.sqrt(a * b), b), rng.uniform(3.5, 6.0))


def check_z_posterior_vs_mc(n_cases: int, n_samples: int, rng) -> tuple[bool, str]:
    """Responsibilities against Monte-Carlo estimates of the expected log emissions.

    Components sit within 1 m of g and every oracle q_c must be >= 0.05: a
    near one-hot q matches almost any emission term, so it could not fail.
    """
    worst = 0.0
    for _ in range(n_cases):
        g = rng.normal(size=2)
        comps = [_nearby_nw(rng, g) for _ in range(3)]
        mix = _stack(comps, np.log(rng.dirichlet(np.full(3, 8.0))))
        log_w = mix.log_pi.copy()
        for c, comp in enumerate(comps):
            mus, lams = sample_normal_wishart(comp, rng, size=n_samples)
            dev = g - mus
            quad = np.einsum("ni,nij,nj->n", dev, lams, dev)
            _, logdets = np.linalg.slogdet(lams)
            log_w[c] += (0.5 * logdets - math.log(2 * math.pi) - 0.5 * quad).mean()
        oracle = np.exp(log_w - log_w.max())
        oracle /= oracle.sum()
        if oracle.min() < 0.05:
            return False, f"degenerate case: MC responsibilities {oracle.round(4)}"
        worst = max(worst, 0.5 * float(np.abs(mx.z_posterior(g, mix) - oracle).sum()))
    return worst < 1e-2, f"{n_cases} cases, all q_c >= 0.05: total variation vs MC <= {worst:.2e}"


def check_elbo_bound(n_cases: int, rng) -> tuple[bool, str]:
    worst_slack = np.inf
    for _ in range(n_cases):
        c = int(rng.integers(1, 5))
        mix = _stack([_random_nw(rng) for _ in range(c)])
        prior = _random_nw(rng)
        g = rng.normal(scale=2.0, size=2)
        pi = np.full(c, 1.0 / c)
        slack = mx.prior_log_evidence(g, prior, pi) - mx.elbo(g, mix, prior, pi)
        worst_slack = min(worst_slack, slack)
        if slack < -1e-9:
            return False, f"bound violated by {slack:.2e}"
    # Tightness for the exact single-observation conjugate posterior.
    worst_gap = 0.0
    for _ in range(n_cases):
        prior = _random_nw(rng)
        g = rng.normal(scale=2.0, size=2)
        beta0, eta0, (a11, a12, a22) = prior.beta[0], prior.eta[0], prior.v[0]
        beta1 = beta0 + 1.0
        eta1 = (beta0 * eta0 + g) / beta1
        dev = (g - eta0).reshape(2, 1)
        det = a11 * a22 - a12 * a12
        v1 = np.linalg.inv(_matrix((a22 / det, -a12 / det, a11 / det)) + (beta0 / beta1) * (dev @ dev.T))
        post = _nw(eta1, beta1, (v1[0, 0], 0.5 * (v1[0, 1] + v1[1, 0]), v1[1, 1]), prior.nu[0] + 1.0)
        gap = abs(mx.elbo(g, post, prior, [1.0]) - mx.prior_log_evidence(g, prior, [1.0]))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-8:
            return False, f"bound not tight at exact posterior (gap {gap:.2e})"
    return True, f"slack >= {worst_slack:.2e}, tightness gap <= {worst_gap:.2e}"


def _nms_reference(locations, log_probs, radius, threshold):
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


def check_nms_equivalence(n_pools: int, rng) -> tuple[bool, str]:
    for trial in range(n_pools):
        n = int(rng.integers(1, 65))
        locations, log_probs = zip(*[(rng.uniform(-20, 20, 2), rng.normal()) for _ in range(n)])
        pool = CandidatePool(np.stack(locations), log_probs)
        cfg = NmsConfig(
            radius=float(rng.uniform(0.5, 4.0)),
            iou_threshold=float(rng.choice([0.0, 0.25, 0.5])),
        )
        fast = nms_select(pool, cfg).tolist()
        slow = _nms_reference(pool.locations.tolist(), pool.log_probs.tolist(), cfg.radius, cfg.iou_threshold)
        if fast != slow:
            return False, f"pool {trial}: selection differs from brute force"
        k = 1 + trial % 8
        if nms_select(pool, cfg, k).tolist() != slow[:k]:
            return False, f"pool {trial}: selection stopped at k={k} differs from brute force"
        goals = pool.locations[fast]
        for i in range(len(goals)):
            for j in range(i + 1, len(goals)):
                if circle_iou(goals[i], goals[j], cfg.radius) > cfg.iou_threshold:
                    return False, f"pool {trial}: pairwise IoU bound violated"
    return True, (
        f"{n_pools} random pools match the brute-force reference exactly, in full and stopped at k"
    )


def check_circle_iou_geometry(n_mc: int, rng) -> tuple[bool, str]:
    if circle_iou([0.0, 0.0], [0.0, 0.0], 1.0) != 1.0:
        return False, "identical circles should have IoU 1"
    if circle_iou([0.0, 0.0], [2.0, 0.0], 1.0) != 0.0:
        return False, "tangent circles should have IoU 0"
    pts = rng.uniform([-1.0, -1.0], [2.0, 1.0], size=(n_mc, 2))
    in_a = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    in_b = np.hypot(pts[:, 0] - 1.0, pts[:, 1]) <= 1.0
    mc = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
    err = abs(circle_iou([0.0, 0.0], [1.0, 0.0], 1.0) - mc)
    return err < 1e-3, f"r=1,d=1 lens formula vs {n_mc:.0e}-point MC area: err {err:.2e}"


def random_predictive_mixture(rng, c: int = 3) -> mx.MixturePosterior:
    """Random mixture whose component predictives have comparable scales.

    The 200x200 grid of the normalization check must both span 40
    scale-lengths and resolve the narrowest peak, which bounds the
    admissible spread of scales across components.
    """
    comps = []
    for _ in range(c):
        off = rng.uniform(-0.2, 0.2)
        v = (rng.uniform(0.7, 1.4), off, rng.uniform(0.7, 1.4))
        comps.append(
            _nw(eta=rng.uniform(-3, 3, size=2), beta=rng.uniform(1.0, 4.0), v=v, nu=rng.uniform(4.0, 9.0))
        )
    return _stack(comps)


def check_predictive_normalization(n_mixtures: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(n_mixtures):
        mix = random_predictive_mixture(rng)
        w = rng.dirichlet(np.ones(3))
        _, shape, _ = predictive_student_t(mix.eta, mix.beta, mix.chol, mix.nu)
        half = 40.0 * math.sqrt(shape[:, [0, 2]].max()) + 3.0  # 40 scale-lengths of the widest
        n = 200
        cell = 2 * half / n
        axis = -half + cell * (np.arange(n) + 0.5)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        mass = float(np.exp(mx.predictive_log_densities(pts, mix, w)).sum() * cell * cell)
        worst = max(worst, abs(mass - 1.0))
        if abs(mass - 1.0) > 1e-2:
            return False, f"grid mass {mass:.4f}"
    # Student-t with unit shape at df=1e6 vs the standard Gaussian.
    xs = rng.normal(size=(10, 2))
    mine = student_t_log_density_table(xs, np.zeros((1, 2)), np.array([[1.0, 0.0, 1.0]]), np.array([1e6]))[0]
    quad = (xs * xs).sum(axis=1)
    gauss = -math.log(2 * math.pi) - 0.5 * quad
    gap = float(np.max(np.abs(mine - gauss)))
    if gap > 1e-3:
        return False, f"Gaussian limit gap {gap:.2e}"
    return True, f"{n_mixtures} mixtures: |mass-1| <= {worst:.2e}; t->N gap {gap:.2e}"


def check_schedule_endpoints() -> tuple[bool, str]:
    cfg = TrainConfig()
    vals = (
        lr_schedule(0, 5000, cfg),
        lr_schedule(1000, 5000, cfg),
        lr_schedule(5000, 5000, cfg),
    )
    ok = vals[0] == 0.0 and vals[1] == 1e-3 and abs(vals[2] - 3e-7) < 1e-12
    return ok, f"lr(0)={vals[0]}, lr(warmup)={vals[1]}, lr(total)={vals[2]:.2e}"


def check_metrics_offsets(rng) -> tuple[bool, str]:
    t = 30
    gt = np.stack([np.linspace(1, t, t), np.zeros(t)], axis=1)
    r = displacement_metrics([[gt + np.array([3.0, 4.0])]], [gt], k=1)
    if not (abs(r.made_k - 5.0) < 1e-12 and abs(r.mfde_k - 5.0) < 1e-12 and r.miss_rate_k == 1.0):
        return False, f"3-4-5 offset gave {r.made_k}, {r.mfde_k}, {r.miss_rate_k}"
    for _ in range(100):
        k = int(rng.integers(1, 5))
        gts = [rng.normal(size=(8, 2)) for _ in range(3)]
        preds = [[rng.normal(size=(8, 2), scale=3.0) for _ in range(k + 1)] for _ in range(3)]
        a = displacement_metrics(preds, gts, k=k)
        b = displacement_metrics(preds, gts, k=k + 1)
        if b.made_k > a.made_k + 1e-12 or b.mfde_k > a.mfde_k + 1e-12:
            return False, "metrics not monotone in k"
    return True, "3-4-5 offset exact; monotone in k on 100 random sets"


def check_gradients_full_loss(n_params: int) -> tuple[bool, str]:
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

    report = check_gradients(tape, loss_fn, tolerance=1e-4, n_samples=n_params, seed=3)
    return (
        report.passed and report.n_checked >= 200,
        f"{report.n_checked} params, max rel err {report.max_rel_error:.2e}",
    )


def check_sampler_moments(n_samples: int, rng) -> tuple[bool, str]:
    p = _random_nw(rng)
    mus, lams = sample_normal_wishart(p, rng, size=n_samples)
    target = p.nu[0] * _matrix(p.v[0])
    worst = 0.0
    for idx in [(0, 0), (0, 1), (1, 1)]:
        se = lams[:, idx[0], idx[1]].std(ddof=1) / math.sqrt(n_samples)
        worst = max(worst, abs(lams[:, idx[0], idx[1]].mean() - target[idx]) / se)
    for k in range(2):
        se = mus[:, k].std(ddof=1) / math.sqrt(n_samples)
        worst = max(worst, abs(mus[:, k].mean() - p.eta[0, k]) / se)
    return worst < 3.5, f"precision/mean moments within {worst:.2f} SE of targets"


def run_all(fast: bool = False, log: Callable[[str], None] = print) -> list[CheckResult]:
    """Run every oracle suite; one PASS/FAIL line per check."""
    n = 100_000 if fast else 1_000_000
    pairs = 5 if fast else 20
    pools = 100 if fast else 500
    rng = np.random.default_rng(20240718)
    checks = [
        ("kl-mean-vs-mc", lambda: check_kl_mean_vs_mc(pairs, n, rng)),
        ("kl-wishart-vs-mc", lambda: check_kl_wishart_vs_mc(pairs, n, rng)),
        ("expected-stats-vs-mc", lambda: check_expectations_vs_mc(pairs, n, rng)),
        ("prior-evidence-vs-mc", lambda: check_prior_evidence_vs_mc(pairs, n, rng)),
        ("z-posterior-vs-mc", lambda: check_z_posterior_vs_mc(3, n, rng)),
        ("elbo-bound", lambda: check_elbo_bound(25 if fast else 100, rng)),
        ("nms-brute-force", lambda: check_nms_equivalence(pools, rng)),
        ("circle-iou-mc-area", lambda: check_circle_iou_geometry(10**6 if fast else 10**7, rng)),
        ("predictive-normalization", lambda: check_predictive_normalization(3 if fast else 10, rng)),
        ("schedule-endpoints", check_schedule_endpoints),
        ("metrics-offsets", lambda: check_metrics_offsets(rng)),
        ("sampler-moments", lambda: check_sampler_moments(n, rng)),
        ("gradient-check", lambda: check_gradients_full_loss(250)),
    ]
    results = []
    for name, fn in checks:
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.time() - t0
        results.append(CheckResult(name=name, passed=passed, detail=detail, seconds=elapsed))
        status = "PASS" if passed else "FAIL"
        log(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")
    return results
