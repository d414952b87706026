import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gneva.dataio import RigidTransform
from gneva.errors import HorizonMismatch, ValidationError
from gneva.metrics import MISS_THRESHOLD_M, displacement_metrics, scenario_displacement


def straight_gt(t=30):
    return np.stack([np.linspace(1, t, t), np.zeros(t)], axis=1)


class TestDisplacementMetrics:
    def test_exact_prediction_is_zero(self):
        gt = straight_gt()
        report = displacement_metrics([[gt.copy()]], [gt], k=1)
        assert (report.made_k, report.mfde_k, report.miss_rate_k) == (0.0, 0.0, 0.0)

    def test_constant_three_four_five_offset(self):
        gt = straight_gt()
        shifted = gt + np.array([3.0, 4.0])
        report = displacement_metrics([[shifted]], [gt], k=1)
        assert report.made_k == pytest.approx(5.0)
        assert report.mfde_k == pytest.approx(5.0)
        assert report.miss_rate_k == 1.0

    def test_min_over_k_semantics(self):
        gt = straight_gt()
        exact = gt.copy()
        offset = gt + np.array([3.0, 4.0])
        both = displacement_metrics([[offset, exact]], [gt], k=2)
        assert (both.made_k, both.mfde_k, both.miss_rate_k) == (0.0, 0.0, 0.0)
        only_offset = displacement_metrics([[offset, exact]], [gt], k=1)
        assert only_offset.made_k == pytest.approx(5.0)
        assert only_offset.miss_rate_k == 1.0

    def test_ade_and_fde_minimized_independently(self):
        gt = straight_gt(10)
        # One trajectory has the better endpoint, the other the better path.
        good_path = gt + np.concatenate([np.full((9, 2), 0.1), [[5.0, 0.0]]])
        good_end = gt + np.concatenate([np.full((9, 2), 3.0), [[0.2, 0.0]]])
        report = displacement_metrics([[good_path, good_end]], [gt], k=2)
        assert report.made_k == pytest.approx(np.hypot(0.1, 0.1) * 0.9 + np.hypot(5, 0) * 0.1)
        assert report.mfde_k == pytest.approx(0.2)

    def test_horizon_mismatch(self):
        gt = straight_gt(30)
        with pytest.raises(HorizonMismatch):
            displacement_metrics([[straight_gt(20)]], [gt], k=1)

    def test_too_few_trajectories(self):
        gt = straight_gt()
        with pytest.raises(ValidationError):
            displacement_metrics([[gt]], [gt], k=2)

    def test_miss_rate_threshold_is_two_meters(self):
        gt = straight_gt()
        near = gt + np.array([0.0, 1.9])
        far = gt + np.array([0.0, 2.1])
        assert displacement_metrics([[near]], [gt], k=1).miss_rate_k == 0.0
        assert displacement_metrics([[far]], [gt], k=1).miss_rate_k == 1.0

    @given(st.integers(1, 5), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_k(self, k, seed):
        rng = np.random.default_rng(seed)
        t = 12
        gt = [rng.normal(size=(t, 2)) for _ in range(4)]
        preds = [[rng.normal(size=(t, 2), scale=3.0) for _ in range(k + 1)] for _ in range(4)]
        small = displacement_metrics(preds, gt, k=k)
        large = displacement_metrics(preds, gt, k=k + 1)
        assert large.made_k <= small.made_k + 1e-12
        assert large.mfde_k <= small.mfde_k + 1e-12
        assert large.miss_rate_k <= small.miss_rate_k + 1e-12

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(17)
        t = 15
        gts = [rng.normal(size=(t, 2), scale=10.0) for _ in range(5)]
        preds = [[rng.normal(size=(t, 2), scale=10.0) for _ in range(3)] for _ in range(5)]
        base = displacement_metrics(preds, gts, k=3)
        tf = RigidTransform(angle=0.7, tx=12.0, ty=-4.0)
        moved = displacement_metrics(
            [[tf.apply_points(p) for p in ps] for ps in preds],
            [tf.apply_points(g) for g in gts],
            k=3,
        )
        assert moved.made_k == pytest.approx(base.made_k, rel=1e-12)
        assert moved.mfde_k == pytest.approx(base.mfde_k, rel=1e-12)
        assert moved.miss_rate_k == base.miss_rate_k

    def test_report_serialization(self):
        gt = straight_gt()
        report = displacement_metrics([[gt + 1.0]], [gt], k=1)
        assert "mADE" in report.to_text()
        doc = json.loads(report.to_json())
        assert doc["k"] == 1 and doc["n_scenarios"] == 1

    def test_report_json_keys_in_field_order(self):
        gt = straight_gt()
        report = displacement_metrics([[gt + 1.0, gt - 3.0]], [gt], k=2)
        fields = ("made_k", "mfde_k", "miss_rate_k", "k", "n_scenarios")
        assert report.to_json() == json.dumps({name: getattr(report, name) for name in fields})


def reference_metrics(predictions, ground_truth, k):
    """mADE_k, mFDE_k and miss rate with one error array per trajectory: the reference for `displacement_metrics`."""
    ades, fdes = [], []
    for trajs, gt in zip(predictions, ground_truth):
        per_ade, per_fde = [], []
        for traj in list(trajs)[:k]:
            err = np.hypot(*(np.asarray(traj) - gt).T)
            per_ade.append(float(err.mean()))
            per_fde.append(float(err[-1]))
        ades.append(min(per_ade))
        fdes.append(min(per_fde))
    misses = [1.0 if fde > MISS_THRESHOLD_M else 0.0 for fde in fdes]
    return float(np.mean(ades)), float(np.mean(fdes)), float(np.mean(misses))


class TestScenarioDisplacement:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_per_trajectory_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            t, n = int(rng.integers(1, 200)), int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))  # often fewer than the trajectories given
            scale = float(rng.choice([0.3, 3.0, 1e4]))
            gts = [rng.normal(size=(t, 2)) * scale for _ in range(5)]
            preds = [[g + rng.normal(size=(t, 2)) * scale for _ in range(n)] for g in gts]
            if seed % 2:  # the CLI passes each scenario's trajectories as one (n, T, 2) array
                preds = [np.stack(p) for p in preds]
            report = displacement_metrics(preds, gts, k)
            got = (report.made_k, report.mfde_k, report.miss_rate_k)
            assert np.array(got).tobytes() == np.array(reference_metrics(preds, gts, k)).tobytes()

    def test_errors_beyond_float_range_count_as_inf_without_a_warning(self):
        gt = straight_gt()
        far = [gt + np.array([1.7e308, 0.0]), gt - np.array([1.7e308, 0.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = displacement_metrics([far, [gt + 1e308, gt - 1e308]], [gt, gt], k=2)
        assert (report.made_k, report.mfde_k, report.miss_rate_k) == (math.inf, math.inf, 1.0)

    def test_rule_reads_only_the_first_k(self):
        gt = straight_gt(10)
        trajs = [gt + 1.0, gt + 2.0, straight_gt(7)]  # the third is never read at k=2
        assert scenario_displacement(trajs, gt, 2) == pytest.approx((np.sqrt(2.0), np.sqrt(2.0)), rel=1e-15)
        with pytest.raises(HorizonMismatch, match=r"\(7, 2\) does not match ground truth \(10, 2\)"):
            scenario_displacement(trajs, gt, 3)
        with pytest.raises(ValidationError, match="need at least k=4 trajectories, got 3"):
            scenario_displacement(trajs, gt, 4)
