"""`tools/bench.py`'s parent/change table, on hand-made run results."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench  # noqa: E402

SPEC = [
    {"name": "traj_steps_per_s", "better": "higher", "bound": 0.25},
    {"name": "predict_scene_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "made6_m", "better": "lower", "bound": 0.05},
]


def run(traj, ms, made=1.5, correct=True, failed=0):
    values = {"traj_steps_per_s": traj, "predict_scene_ms_p50": ms, "made6_m": made}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def rows_by_name(pairs):
    rows, flags = bench.compare(pairs, SPEC)
    return {r.name: r for r in rows}, flags


def test_medians_quartiles_ratios_and_wins():
    parent = [100.0, 110.0, 120.0, 130.0]
    change = [110.0, 121.0, 114.0, 143.0]
    rows, flags = rows_by_name([(run(p, 6.0), run(c, 6.0)) for p, c in zip(parent, change)])
    r = rows["traj_steps_per_s"]
    # Linear interpolation between order statistics: positions 0.75, 1.5 and 2.25 of 0..3.
    assert (r.parent_q1, r.parent_median, r.parent_q3) == (107.5, 115.0, 122.5)
    assert r.change_median == 117.5
    assert r.ratios == pytest.approx([1.1, 1.1, 0.95, 1.1])
    assert r.wins == 3 and not r.past_bound and not r.claimable  # a gap of 2.5 within an IQR of 15
    assert rows["predict_scene_ms_p50"].wins == 0  # equal is not a win
    assert flags == []
    table = bench.format_table(*bench.compare([(run(100.0, 6.0), run(110.0, 6.0))] * 2, SPEC), 2)
    assert "| traj_steps_per_s | higher | 0.25 | 100 [100, 100] | 110 | 1.100 | 1.100, 1.100 | 2/2 | no |" in table
    assert "| wins | gain claimable |" in table
    assert "no flags" in table


def test_a_gain_is_claimable_only_from_ten_pairs_with_nine_wins_past_the_parent_iqr():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]  # IQR 2

    def row(change):
        return rows_by_name([(run(p, 6.0), run(c, 6.0)) for p, c in zip(parent, change)])[0]["traj_steps_per_s"]

    six = row([p + 10.0 for p in parent[:6]])  # all 6 won, a gap of 10 past the IQR
    assert six.wins == 6 and six.change_median - six.parent_median > six.parent_q3 - six.parent_q1
    assert not six.claimable
    nine = row([p + 10.0 for p in parent[:9]] + [parent[9] - 1.0])
    assert nine.wins == 9 and nine.claimable
    eight = row([p + 10.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]])
    assert eight.wins == 8 and eight.change_median - eight.parent_median > 2.0 and not eight.claimable
    # Nine wins of ten in the worse direction, or a gap within the IQR, claim nothing.
    assert not row([p - 10.0 for p in parent[:9]] + [parent[9] + 1.0]).claimable
    assert not row([p + 0.5 for p in parent[:9]] + [parent[9] - 1.0]).claimable


def test_a_median_past_its_bound_in_the_worse_direction_is_flagged():
    # Slower traj steps by 30 % and a latency 20 % lower: only the first is worse, and past 25 %.
    pairs = [(run(100.0, 10.0), run(70.0, 8.0)), (run(100.0, 10.0), run(70.0, 8.0))]
    rows, flags = rows_by_name(pairs)
    assert rows["traj_steps_per_s"].past_bound and not rows["predict_scene_ms_p50"].past_bound
    assert [f.split(":")[0] for f in flags] == ["BOUND traj_steps_per_s"]
    # A latency 26 % higher is past its bound; 24 % is not.
    assert rows_by_name([(run(100.0, 10.0), run(100.0, 12.6))] * 2)[0]["predict_scene_ms_p50"].past_bound
    assert not rows_by_name([(run(100.0, 10.0), run(100.0, 12.4))] * 2)[0]["predict_scene_ms_p50"].past_bound


def test_a_quality_mismatch_and_a_failed_run_are_flagged():
    pairs = [(run(100.0, 6.0), run(100.0, 6.0)), (run(100.0, 6.0, made=1.5), run(100.0, 6.0, made=1.5000001)),
             (run(100.0, 6.0), run(100.0, 6.0, correct=False)), (run(100.0, 6.0, failed=2), run(100.0, 6.0))]
    _, flags = rows_by_name(pairs)
    assert flags == [
        "DIFFERS pair 1: made6_m 1.5 (parent) against 1.5000001 (change)",
        "RUN pair 2 change: correct False, failed 0",
        "RUN pair 3 parent: correct True, failed 2",
    ]


def test_an_odd_pair_count_is_refused_and_each_seed_runs_in_both_orders():
    for n in (0, 1, 3, 9):
        with pytest.raises(ValueError, match="even number of pairs"):
            bench.abba_order(n, [1])
    assert bench.abba_order(4, [3]) == [(3, ("parent", "change")), (3, ("change", "parent"))] * 2
    # An even seed list too: each ABBA block shares a seed, so no seed is tied to one run order.
    schedule = bench.abba_order(8, [3, 11])
    assert [seed for seed, _ in schedule] == [3, 3, 11, 11, 3, 3, 11, 11]
    for seed in (3, 11):
        assert {first for s, (first, _) in schedule if s == seed} == {"parent", "change"}
    with pytest.raises(SystemExit):
        bench.main(["pairs", "--parent", str(ROOT), "--change", str(ROOT), "--workload", "predict", "--pairs", "3"])


def test_a_record_summarizes_clean_runs_and_flags_the_others():
    spec = SPEC + [{"name": "peak_rss_mib", "better": "lower", "bound": 0.15}]
    runs = [{"workload": "predict", "seed": s, "result": run(t, 6.0)} for s, t in ((3, 100.0), (11, 120.0), (3, 110.0))]
    runs[1]["result"]["metrics"]["peak_rss_mib"] = {"value": 250.0, "unit": "MiB"}
    runs += [{"workload": "predict", "seed": 11, "result": run(900.0, 1.0, correct=False)},
             {"workload": "train", "seed": 3, "result": run(50.0, 7.0, failed=1)},
             {"workload": "train", "seed": 11, "result": {"correct": False, "failed": None, "metrics": {},
                                                          "error": "exit 1: boom"}}]
    workloads, flags = bench.summarize(runs, spec)
    predict = workloads["predict"]
    # The incorrect run's 900 steps/s is listed but not averaged in.
    assert predict["metrics"]["traj_steps_per_s"] == {"median": 110.0, "q1": 105.0, "q3": 115.0, "unit": "-",
                                                      "better": "higher", "runs": 3}
    assert predict["metrics"]["peak_rss_mib"]["runs"] == 1 and "retained" in predict["metrics"]["peak_rss_mib"]["note"]
    assert [(r["seed"], r["correct"], r["failed"]) for r in predict["runs"]] == [
        (3, True, 0), (11, True, 0), (3, True, 0), (11, False, 0)]
    assert workloads["train"]["metrics"] == {}
    assert workloads["train"]["runs"][1] == {"seed": 11, "correct": False, "failed": None, "error": "exit 1: boom"}
    assert flags == [
        "RUN predict seed 11: correct False, failed 0, left out",
        "RUN train seed 3: correct True, failed 1, left out",
        "RUN train seed 11: correct False, failed None, left out, exit 1: boom",
        *[f"train {s['name']}: no clean run reports it" for s in spec],
    ]


def test_record_refuses_a_tree_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        bench.main(["record", "--tree", str(tmp_path), "--runs", "1", "--out", str(tmp_path / "b.json")])
    assert bench.git_state(tmp_path) == {"commit": None, "tree_differs_from_commit": None}
    assert set(bench.machine()) == {"cores", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS"}


def test_machine_counts_the_cores_runs_may_use(monkeypatch):
    # perfbench/run.py sizes its pool by the affinity mask, not by the host's core count.
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {3})
    assert bench.machine()["cores"] == 1
