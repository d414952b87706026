import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gneva.errors import EmptyCandidatePool, RegionTooLarge, ValidationError
from gneva.sampling import (
    CandidatePool,
    NmsConfig,
    Region,
    circle_iou,
    circle_iou_from_distance,
    generate_candidates,
    nms_select,
)

from helpers import brute_force_selection, nw, stack


def random_pool(rng, n, half_width):
    """n candidates, each drawn as a location in [-half_width, half_width]^2 and then a normal log density."""
    draws = [(rng.uniform(-half_width, half_width, 2), float(rng.normal())) for _ in range(n)]
    return CandidatePool(np.array([loc for loc, _ in draws]), [lp for _, lp in draws])


class TestCircleIou:
    def test_identical_circles(self):
        assert circle_iou([1.0, 2.0], [1.0, 2.0], r=3.0) == 1.0

    def test_disjoint(self):
        assert circle_iou([0.0, 0.0], [4.0, 0.0], r=2.0) == 0.0
        assert circle_iou([0.0, 0.0], [5.0, 0.0], r=2.0) == 0.0

    def test_unit_circles_at_unit_distance(self):
        area = 2 * math.pi / 3 - math.sqrt(3) / 2
        expected = area / (2 * math.pi - area)
        value = circle_iou([0.0, 0.0], [1.0, 0.0], r=1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.2430, abs=1e-3)

    def test_monte_carlo_area_oracle(self):
        # 10^7 uniform points over the bounding box of the two discs.
        rng = np.random.default_rng(0)
        r, d = 1.0, 1.0
        pts = rng.uniform([-r, -r], [d + r, r], size=(10_000_000, 2))
        in_a = np.hypot(pts[:, 0], pts[:, 1]) <= r
        in_b = np.hypot(pts[:, 0] - d, pts[:, 1]) <= r
        iou_mc = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
        assert circle_iou([0.0, 0.0], [d, 0.0], r) == pytest.approx(iou_mc, abs=1e-3)

    @given(
        d=st.floats(0.0, 10.0, allow_nan=False),
        r=st.floats(0.1, 5.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_monotonicity(self, d, r):
        v = circle_iou([0.0, 0.0], [d, 0.0], r)
        assert 0.0 <= v <= 1.0
        v2 = circle_iou([0.0, 0.0], [d + 0.1, 0.0], r)
        assert v2 <= v + 1e-12


class TestNmsSelect:
    def test_singleton(self):
        pool = CandidatePool(np.array([[1.0, 1.0]]), [-0.5])
        assert nms_select(pool, NmsConfig()).tolist() == [0]

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyCandidatePool):
            nms_select(CandidatePool(np.zeros((0, 2)), []), NmsConfig())

    def test_collinear_hand_trace(self):
        # x = 0, 1, 10 with probabilities 0.5, 0.4, 0.1 and r = 2: the
        # middle candidate is suppressed by the first (d=1 < 4 -> IoU > 0).
        pool = CandidatePool(
            np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]), np.log([0.5, 0.4, 0.1])
        )
        out = nms_select(pool, NmsConfig(radius=2.0, iou_threshold=0.0))
        assert pool.locations[out, 0].tolist() == [0.0, 10.0]

    def test_matches_brute_force_on_random_pools(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            pool = random_pool(rng, int(rng.integers(1, 65)), 20)
            cfg = NmsConfig(
                radius=float(rng.uniform(0.5, 4.0)),
                iou_threshold=float(rng.choice([0.0, 0.1, 0.25, 0.5])),
                k=len(pool),
            )
            fast = nms_select(pool, cfg)
            slow = brute_force_selection(
                pool.locations.tolist(), pool.log_probs.tolist(), cfg.radius, cfg.iou_threshold
            )
            assert fast.tolist() == slow
            for k in range(1, 9):
                # Stopped at k: the brute force's first k.
                assert nms_select(pool, replace(cfg, k=k)).tolist() == slow[:k]

    def test_first_selected_is_global_argmax(self):
        rng = np.random.default_rng(2)
        pool = random_pool(rng, 40, 5)
        out = nms_select(pool, NmsConfig())
        assert pool.log_probs[out[0]] == pool.log_probs.max()

    def test_pairwise_iou_bound_holds(self):
        rng = np.random.default_rng(3)
        cfg = NmsConfig(radius=1.5, iou_threshold=0.2, k=200)
        pool = random_pool(rng, 200, 8)
        goals = pool.locations[nms_select(pool, cfg)]
        for i in range(len(goals)):
            for j in range(i + 1, len(goals)):
                assert circle_iou(goals[i], goals[j], cfg.radius) <= cfg.iou_threshold

    def test_zero_threshold_implies_min_distance(self):
        rng = np.random.default_rng(4)
        cfg = NmsConfig(radius=2.0, iou_threshold=0.0, k=300)
        pool = random_pool(rng, 300, 10)
        locs = pool.locations[nms_select(pool, cfg)]
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                assert np.linalg.norm(locs[i] - locs[j]) >= 2 * cfg.radius

    def test_appending_weaker_candidate_preserves_prefix(self):
        rng = np.random.default_rng(5)
        pool = random_pool(rng, 30, 10)
        base = nms_select(pool, NmsConfig(k=len(pool)))
        weakest = pool.log_probs.min() - 1.0
        extended = CandidatePool(
            np.vstack([pool.locations, rng.uniform(-10, 10, 2)]), np.append(pool.log_probs, weakest)
        )
        out = nms_select(extended, NmsConfig(k=len(extended)))
        assert out[: len(base)].tolist() == base.tolist()

    def test_tie_broken_by_input_order(self):
        pool = CandidatePool(np.array([[0.0, 0.0], [100.0, 0.0]]), [1.0, 1.0])
        out = nms_select(pool, NmsConfig())
        assert pool.locations[out[0], 0] == 0.0


def full_sort_selection(pool: CandidatePool, cfg: NmsConfig) -> list[int]:
    """Greedy suppression over one stable sort of the whole pool, one candidate at a time, up to `cfg.k` goals.

    The reference for `nms_select` on large pools; it shares only the IoU
    geometry, which `TestCircleIou` checks on its own.
    """
    selected: list[int] = []
    for i in np.argsort(-pool.log_probs, kind="stable"):
        if len(selected) == cfg.k:
            break
        diff = pool.locations[selected] - pool.locations[i]
        iou = circle_iou_from_distance(np.hypot(diff[:, 0], diff[:, 1]), cfg.radius)
        if (iou <= cfg.iou_threshold).all():
            selected.append(int(i))
    return selected


class TestTieHeavyLargePools:
    """Tie-heavy pools, some of over 256 candidates per goal: `nms_select` selects what one full sort would."""

    def grid_pool(self, rng, n_side, levels):
        xs, ys = np.meshgrid(np.arange(n_side) * 0.5, np.arange(n_side) * 0.5, indexing="ij")
        locations = np.stack([xs.ravel(), ys.ravel()], axis=1)
        # Few distinct values, so many candidates tie, at the cut among them.
        log_probs = rng.integers(0, levels, size=len(locations)) * -0.25
        return CandidatePool(locations, log_probs)

    @pytest.mark.parametrize("k", [1, 2, 6])
    @pytest.mark.parametrize("levels", [3, 40])
    def test_exact_ties_match_full_sort(self, k, levels):
        rng = np.random.default_rng(100 + 7 * k + levels)
        pool = self.grid_pool(rng, 60, levels)
        assert len(pool) > 256 * k
        for cfg in (NmsConfig(radius=2.0, k=k), NmsConfig(radius=1.0, iou_threshold=0.25, k=k)):
            chosen = nms_select(pool, cfg)
            assert len(chosen) == k
            assert chosen.tolist() == full_sort_selection(pool, cfg)

    def test_one_crowded_disc_then_far_candidates_match_full_sort(self):
        # The 256 k + 10 most probable candidates all sit within one
        # suppression disc, so they yield one goal; the others come from the
        # less probable ones far away.
        k = 3
        rng = np.random.default_rng(101)
        head = 256 * k
        near = rng.uniform(-0.5, 0.5, size=(head + 10, 2))
        far = rng.uniform(20.0, 60.0, size=(500, 2))
        log_probs = np.concatenate([rng.uniform(0.0, 1.0, len(near)), rng.uniform(-3.0, -1.0, len(far))])
        pool = CandidatePool(np.concatenate([near, far]), log_probs)
        cfg = NmsConfig(radius=2.0, k=k)
        assert len(full_sort_selection(CandidatePool(near, log_probs[: len(near)]), cfg)) == 1
        chosen = nms_select(pool, cfg)
        assert len(chosen) == k
        assert chosen.tolist() == full_sort_selection(pool, cfg)

    def test_unbounded_run_matches_full_sort(self):
        rng = np.random.default_rng(102)
        pool = self.grid_pool(rng, 40, 5)
        cfg = NmsConfig(radius=1.5, iou_threshold=0.1, k=len(pool))
        assert nms_select(pool, cfg).tolist() == full_sort_selection(pool, cfg)

    def test_threshold_one_keeps_every_candidate_once(self):
        # No IoU exceeds 1, so each goal must be dropped from the pool by being selected.
        rng = np.random.default_rng(103)
        pool = self.grid_pool(rng, 20, 3)
        for k in (1, 6, len(pool)):
            cfg = NmsConfig(radius=2.0, iou_threshold=1.0, k=k)
            assert nms_select(pool, cfg).tolist() == full_sort_selection(pool, cfg), k
        assert sorted(nms_select(pool, cfg).tolist()) == list(range(len(pool)))

    def test_duplicate_locations_match_full_sort(self):
        # Each location three times, at IoU 1 with one another.
        rng = np.random.default_rng(104)
        locations = np.repeat(rng.integers(0, 12, size=(60, 2)) * 0.5, 3, axis=0)
        rng.shuffle(locations)
        pool = CandidatePool(locations, rng.integers(0, 4, size=len(locations)) * -0.5)
        for base in (NmsConfig(radius=1.0), NmsConfig(radius=1.0, iou_threshold=0.5), NmsConfig(iou_threshold=1.0)):
            for k in (1, 6, len(pool)):
                cfg = replace(base, k=k)
                assert nms_select(pool, cfg).tolist() == full_sort_selection(pool, cfg), cfg


def small_mixture(rng, c=2):
    comps = [
        nw(
            eta=rng.uniform(-5, 5, 2),
            beta=rng.uniform(1.0, 3.0),
            v=(rng.uniform(0.3, 1.0), 0.0, rng.uniform(0.3, 1.0)),
            nu=rng.uniform(4.0, 8.0),
        )
        for _ in range(c)
    ]
    return stack(comps)


class TestCandidatePool:
    @pytest.mark.parametrize(
        "locations, log_probs",
        [
            ([[0.0, 0.0], [math.nan, 1.0]], [-1.0, -2.0]),
            ([[0.0, 0.0], [1.0, 1.0]], [-1.0, -math.inf]),
            ([[0.0, 0.0], [1.0, 1.0]], [-1.0]),
            ([[0.0, 0.0, 0.0]], [-1.0]),
        ],
        ids=["nan-location", "infinite-log-density", "mismatched-lengths", "not-2d-points"],
    )
    def test_rejects_malformed_pools(self, locations, log_probs):
        with pytest.raises(ValidationError):
            CandidatePool(np.array(locations), np.array(log_probs))

    def test_stopped_selection_is_prefix_of_full_run(self):
        mix = small_mixture(np.random.default_rng(12))
        pool = generate_candidates(mix, [0.6, 0.4], Region(-15.0, -15.0, 15.0, 15.0), spacing=0.5)
        cfg = NmsConfig(radius=2.0, iou_threshold=0.0, k=len(pool))
        full = nms_select(pool, cfg)
        assert len(full) > 8
        for k in range(1, 9):
            stopped = nms_select(pool, replace(cfg, k=k))
            assert len(stopped) == k
            assert stopped.tolist() == full[:k].tolist()


class TestGenerateCandidates:
    def test_grid_arithmetic(self):
        mix = small_mixture(np.random.default_rng(6))
        out = generate_candidates(mix, [0.5, 0.5], Region(0.0, 0.0, 10.0, 10.0), spacing=1.0)
        assert len(out) == 11 * 11
        assert out.locations.shape == (121, 2) and out.log_probs.shape == (121,)

    def test_cell_cap(self):
        mix = small_mixture(np.random.default_rng(7))
        with pytest.raises(RegionTooLarge):
            generate_candidates(
                mix, [0.5, 0.5], Region(0.0, 0.0, 100.0, 100.0), spacing=0.01
            )
        # Extents, or extents over the spacing, beyond float range.
        for region in (Region(-1e308, 0.0, 1e308, 1.0), Region(0.0, 0.0, 1.5e308, 1.0), Region(0.0, 0.0, math.inf, 1.0)):
            with pytest.raises(RegionTooLarge):
                generate_candidates(mix, [0.5, 0.5], region, spacing=0.5)

    def test_argmax_near_mode_single_component(self):
        rng = np.random.default_rng(8)
        mix = small_mixture(rng, c=1)
        eta = mix.eta[0]
        region = Region(eta[0] - 10, eta[1] - 10, eta[0] + 10, eta[1] + 10)
        out = generate_candidates(mix, [1.0], region, spacing=0.1)
        best = out.locations[np.argmax(out.log_probs)]
        assert np.linalg.norm(best - eta) <= 0.1 * math.sqrt(2.0) + 1e-9

    def test_quadrature_consistency(self):
        rng = np.random.default_rng(9)
        mix = small_mixture(rng)
        region = Region(-60.0, -60.0, 60.0, 60.0)
        spacing = 0.25
        out = generate_candidates(mix, [0.5, 0.5], region, spacing=spacing)
        mass = np.exp(out.log_probs).sum() * spacing**2
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_deterministic_row_major_order(self):
        mix = small_mixture(np.random.default_rng(10))
        a = generate_candidates(mix, [0.5, 0.5], Region(0, 0, 3, 3), spacing=1.0)
        b = generate_candidates(mix, [0.5, 0.5], Region(0, 0, 3, 3), spacing=1.0)
        assert np.array_equal(a.locations, b.locations)
        assert a.locations[0] == pytest.approx([0.0, 0.0])
        assert a.locations[1] == pytest.approx([0.0, 1.0])  # row-major: y varies fastest


class TestConfigValidation:
    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            NmsConfig(radius=0.0)

    def test_bad_threshold(self):
        with pytest.raises(ValidationError):
            NmsConfig(iou_threshold=1.5)
