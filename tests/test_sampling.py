import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gneva.distributions import NormalWishartParams
from gneva.errors import EmptyCandidatePool, RegionTooLarge, ValidationError
from gneva.mixture import MixturePosterior
from gneva import sampling
from gneva.sampling import (
    CandidatePool,
    NmsConfig,
    Region,
    ScoredCandidate,
    circle_iou,
    circle_iou_from_distance,
    generate_candidates,
    nms_select,
)
from gneva.special_math import SPDMatrix2

from helpers import random_nw


def brute_force_goal_selection(candidates, radius, threshold):
    """Literal transcription of the greedy suppression procedure.

    Kept deliberately naive (python lists, pairwise loops, its own lens
    geometry) as the reference the fast implementation must match exactly.
    """
    pool = sorted(
        range(len(candidates)), key=lambda i: (-candidates[i].log_prob, i)
    )
    selected = []
    pool = list(pool)
    while pool:
        best = pool.pop(0)
        selected.append(best)
        survivors = []
        for j in pool:
            d = math.dist(tuple(candidates[best].location), tuple(candidates[j].location))
            if d >= 2 * radius:
                iou = 0.0
            else:
                area = 2 * radius**2 * math.acos(d / (2 * radius)) - 0.5 * d * math.sqrt(
                    4 * radius**2 - d * d
                )
                iou = area / (2 * math.pi * radius**2 - area)
            if iou <= threshold:
                survivors.append(j)
        pool = survivors
    return [candidates[i] for i in selected]


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
        c = ScoredCandidate(location=[1.0, 1.0], log_prob=-0.5)
        assert nms_select([c], NmsConfig()) == [c]

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyCandidatePool):
            nms_select([], NmsConfig())

    def test_collinear_hand_trace(self):
        # x = 0, 1, 10 with probabilities 0.5, 0.4, 0.1 and r = 2: the
        # middle candidate is suppressed by the first (d=1 < 4 -> IoU > 0).
        cands = [
            ScoredCandidate(location=[0.0, 0.0], log_prob=math.log(0.5)),
            ScoredCandidate(location=[1.0, 0.0], log_prob=math.log(0.4)),
            ScoredCandidate(location=[10.0, 0.0], log_prob=math.log(0.1)),
        ]
        out = nms_select(cands, NmsConfig(radius=2.0, iou_threshold=0.0))
        assert [c.location[0] for c in out] == [0.0, 10.0]

    def test_matches_brute_force_on_random_pools(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n = int(rng.integers(1, 65))
            cands = [
                ScoredCandidate(location=rng.uniform(-20, 20, 2), log_prob=float(rng.normal()))
                for _ in range(n)
            ]
            cfg = NmsConfig(
                radius=float(rng.uniform(0.5, 4.0)),
                iou_threshold=float(rng.choice([0.0, 0.1, 0.25, 0.5])),
            )
            fast = nms_select(cands, cfg)
            slow = brute_force_goal_selection(cands, cfg.radius, cfg.iou_threshold)
            assert len(fast) == len(slow)
            for a, b in zip(fast, slow):
                assert np.array_equal(a.location, b.location) and a.log_prob == b.log_prob
            for k in range(1, 9):
                # Stopped at k: the brute force's first k, the caller's own objects.
                stopped = nms_select(cands, cfg, k)
                assert len(stopped) == min(k, len(slow))
                assert all(a is b for a, b in zip(stopped, slow))

    def test_first_selected_is_global_argmax(self):
        rng = np.random.default_rng(2)
        cands = [
            ScoredCandidate(location=rng.uniform(-5, 5, 2), log_prob=float(rng.normal()))
            for _ in range(40)
        ]
        out = nms_select(cands, NmsConfig())
        assert out[0].log_prob == max(c.log_prob for c in cands)

    def test_pairwise_iou_bound_holds(self):
        rng = np.random.default_rng(3)
        cfg = NmsConfig(radius=1.5, iou_threshold=0.2)
        cands = [
            ScoredCandidate(location=rng.uniform(-8, 8, 2), log_prob=float(rng.normal()))
            for _ in range(200)
        ]
        out = nms_select(cands, cfg)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert circle_iou(out[i].location, out[j].location, cfg.radius) <= cfg.iou_threshold

    def test_zero_threshold_implies_min_distance(self):
        rng = np.random.default_rng(4)
        cfg = NmsConfig(radius=2.0, iou_threshold=0.0)
        cands = [
            ScoredCandidate(location=rng.uniform(-10, 10, 2), log_prob=float(rng.normal()))
            for _ in range(300)
        ]
        out = nms_select(cands, cfg)
        locs = np.stack([c.location for c in out])
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                assert np.linalg.norm(locs[i] - locs[j]) >= 2 * cfg.radius

    def test_appending_weaker_candidate_preserves_prefix(self):
        rng = np.random.default_rng(5)
        cands = [
            ScoredCandidate(location=rng.uniform(-10, 10, 2), log_prob=float(rng.normal()))
            for _ in range(30)
        ]
        base = nms_select(cands, NmsConfig())
        weakest = min(c.log_prob for c in cands) - 1.0
        extended = cands + [ScoredCandidate(location=rng.uniform(-10, 10, 2), log_prob=weakest)]
        out = nms_select(extended, NmsConfig())
        for a, b in zip(base, out):
            assert np.array_equal(a.location, b.location)

    def test_tie_broken_by_input_order(self):
        cands = [
            ScoredCandidate(location=[0.0, 0.0], log_prob=1.0),
            ScoredCandidate(location=[100.0, 0.0], log_prob=1.0),
        ]
        out = nms_select(cands, NmsConfig())
        assert out[0].location[0] == 0.0


def full_sort_selection(pool: CandidatePool, cfg: NmsConfig, k=None) -> list[int]:
    """Greedy suppression over one stable sort of the whole pool, one candidate at a time.

    The reference for the head-first sort in `nms_select`; it shares only
    the IoU geometry, which `TestCircleIou` checks on its own.
    """
    selected: list[int] = []
    for i in np.argsort(-pool.log_probs, kind="stable"):
        if k is not None and len(selected) == k:
            break
        diff = pool.locations[selected] - pool.locations[i]
        iou = circle_iou_from_distance(np.hypot(diff[:, 0], diff[:, 1]), cfg.radius)
        if (iou <= cfg.iou_threshold).all():
            selected.append(int(i))
    return selected


def selected_indices(pool: CandidatePool, chosen) -> list[int]:
    index = {(*p, lp): i for i, (p, lp) in enumerate(zip(pool.locations.tolist(), pool.log_probs.tolist()))}
    return [index[(*c.location.tolist(), c.log_prob)] for c in chosen]


class TestHeadFirstSort:
    """`nms_select` sorts the head of a large pool first; it must select what one full sort would."""

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
        assert len(pool) > sampling._NMS_HEAD_PER_GOAL * k
        for cfg in (NmsConfig(radius=2.0), NmsConfig(radius=1.0, iou_threshold=0.25)):
            chosen = nms_select(pool, cfg, k)
            assert len(chosen) == k
            assert selected_indices(pool, chosen) == full_sort_selection(pool, cfg, k)

    def test_head_that_runs_out_falls_back_to_the_rest(self):
        # The head's candidates all sit within one suppression disc, so it
        # yields one goal; the others come from the rest of the pool.
        k = 3
        rng = np.random.default_rng(101)
        head = sampling._NMS_HEAD_PER_GOAL * k
        near = rng.uniform(-0.5, 0.5, size=(head + 10, 2))
        far = rng.uniform(20.0, 60.0, size=(500, 2))
        log_probs = np.concatenate([rng.uniform(0.0, 1.0, len(near)), rng.uniform(-3.0, -1.0, len(far))])
        pool = CandidatePool(np.concatenate([near, far]), log_probs)
        cfg = NmsConfig(radius=2.0)
        assert len(full_sort_selection(CandidatePool(near, log_probs[: len(near)]), cfg)) == 1
        chosen = nms_select(pool, cfg, k)
        assert len(chosen) == k
        assert selected_indices(pool, chosen) == full_sort_selection(pool, cfg, k)

    def test_unbounded_run_matches_full_sort(self):
        rng = np.random.default_rng(102)
        pool = self.grid_pool(rng, 40, 5)
        cfg = NmsConfig(radius=1.5, iou_threshold=0.1)
        assert selected_indices(pool, nms_select(pool, cfg)) == full_sort_selection(pool, cfg)


def small_mixture(rng, c=2):
    comps = [
        NormalWishartParams(
            eta=rng.uniform(-5, 5, 2),
            beta=rng.uniform(1.0, 3.0),
            v=SPDMatrix2(rng.uniform(0.3, 1.0), 0.0, rng.uniform(0.3, 1.0)),
            nu=rng.uniform(4.0, 8.0),
        )
        for _ in range(c)
    ]
    return MixturePosterior.from_components(comps)


class TestCandidatePool:
    def test_indexing_gives_scored_candidates(self):
        pool = CandidatePool(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([-1.0, -2.0]))
        assert len(pool) == 2
        c = pool[1]
        assert isinstance(c, ScoredCandidate)
        assert np.array_equal(c.location, [2.0, 3.0]) and c.log_prob == -2.0

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
        cfg = NmsConfig(radius=2.0, iou_threshold=0.0)
        full = nms_select(pool, cfg)
        assert len(full) > 8
        for k in range(1, 9):
            stopped = nms_select(pool, cfg, k)
            assert len(stopped) == k
            for a, b in zip(stopped, full):
                assert np.array_equal(a.location, b.location) and a.log_prob == b.log_prob


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
        assert a[0].location == pytest.approx([0.0, 0.0])
        assert a[1].location == pytest.approx([0.0, 1.0])  # row-major: y varies fastest


class TestConfigValidation:
    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            NmsConfig(radius=0.0)

    def test_bad_threshold(self):
        with pytest.raises(ValidationError):
            NmsConfig(iou_threshold=1.5)
