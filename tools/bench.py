"""Run the benchmark on source trees: alternated parent/change pairs with one table, or one tree's BENCH record.

    python tools/bench.py pairs --parent PARENT --change CHANGE --workload predict --pairs 10 \\
        --seeds 3 11 13 --runs runs.jsonl
    python tools/bench.py record --tree . --runs 5 --seeds 3 11 13 --out BENCH_27.json

`pairs` runs `python3 perfbench/run.py --workload W --seed S --seconds T`,
T being the parent's `BENCHMARK.json` `run_seconds`, from a fresh copy of
each tree (copied without `.git`, caches and `.bench_out`, and deleted
after its run), with `OPENBLAS_NUM_THREADS=1`, one run at a time. Pairs
run in ABBA blocks: the parent first in even pairs, the change first in
odd ones, and both pairs of block i // 2 at seed `seeds[(i // 2) %
len(seeds)]`, so every seed runs in both orders. The tree that runs first
in a pair reads faster, so an odd pair count, which lets one tree run
first more often, is refused. `--runs` keeps each run's JSON result (its
last stdout line), appended as soon as the run ends.

The table, per end-to-end metric of the parent's `BENCHMARK.json`: the
parent's median and quartiles, the change's median, the ratio of the
medians, every pair's change/parent ratio, the pairs the change won, and
whether the medians differ by more than the parent's interquartile range.
Flagged below it: a change median past the metric's bound in its worse
direction, a pair whose `made6_m` or `mfde6_m` differ, and every run that
is not `correct` or has failed operations.

`record` runs every workload of the tree's `BENCHMARK.json` `--runs` times
the same way, one fresh copy per run, run i at seed `seeds[i % len(seeds)]`
and the workloads alternated within each i. It writes one JSON document:
per workload, each end-to-end metric's median and quartiles with its unit
and the number of runs behind them, and every run's seed, `correct` and
`failed`; the machine (cores, Python, numpy, BLAS,
`OPENBLAS_NUM_THREADS`); the tree's git commit and whether the tree differs
from it. A run that is not `correct` or has failed operations is listed and
flagged, and left out of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

QUALITY = ("made6_m", "mfde6_m")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".bench_out", ".pytest_cache", ".hypothesis")
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# What a record says about a metric beside its figures. perfbench/run.py keeps
# every round's tape until it exits, so its peak grows with the rounds that fit
# in a run (ROADMAP item 0); drop the note once it keeps only the last round.
METRIC_NOTES = {"peak_rss_mib": "measured with every round's tape retained, so it grows with the rounds "
                                "that fit in a run"}


def abba_order(n_pairs: int, seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) of each pair: the parent first in even pairs, the change first in odd ones,
    and both pairs of an ABBA block at one seed."""
    if n_pairs < 2 or n_pairs % 2:
        raise ValueError(f"need an even number of pairs, at least 2, got {n_pairs}: "
                         "with an odd count one tree runs first more often, and the first run reads faster")
    return [(seeds[(i // 2) % len(seeds)], ("parent", "change") if i % 2 == 0 else ("change", "parent"))
            for i in range(n_pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


@dataclass
class MetricRow:
    name: str
    better: str
    bound: float
    parent_q1: float
    parent_median: float
    parent_q3: float
    change_median: float
    ratios: list[float]  # change / parent, per pair
    wins: int  # pairs where the change is strictly better
    past_bound: bool  # the change's median is worse than the parent's by more than `bound`
    past_iqr: bool  # the medians differ by more than the parent's interquartile range

    @property
    def ratio(self) -> float:
        return self.change_median / self.parent_median if self.parent_median else float("nan")


def clean(run: dict) -> bool:
    return bool(run.get("correct")) and run.get("failed") == 0


def compare(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> tuple[list[MetricRow], list[str]]:
    """Rows and flags for (parent, change) run results as `perfbench/run.py` prints them."""
    rows, flags = [], []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not both:
            flags.append(f"{name}: no pair reports it")
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        q1, p_med, q3 = quartiles(parent)
        c_med = statistics.median(change)
        limit = p_med * (1 - spec["bound"]) if higher else p_med * (1 + spec["bound"])
        row = MetricRow(
            name=name, better=spec["better"], bound=spec["bound"],
            parent_q1=q1, parent_median=p_med, parent_q3=q3, change_median=c_med,
            ratios=[c / p if p else float("nan") for p, c in both],
            wins=sum((c > p) if higher else (c < p) for p, c in both),
            past_bound=c_med < limit if higher else c_med > limit,
            past_iqr=abs(c_med - p_med) > q3 - q1,
        )
        rows.append(row)
        if row.past_bound:
            flags.append(f"BOUND {name}: change median {c_med:.6g} is past {limit:.6g}, "
                         f"the parent's {p_med:.6g} {'less' if higher else 'plus'} {spec['bound']:.0%}")
    for i, (p, c) in enumerate(pairs):
        for name in QUALITY:
            a, b = p.get("metrics", {}).get(name), c.get("metrics", {}).get(name)
            if a is not None and b is not None and a["value"] != b["value"]:
                flags.append(f"DIFFERS pair {i}: {name} {a['value']!r} (parent) against {b['value']!r} (change)")
        for tree, run in (("parent", p), ("change", c)):
            if not clean(run):
                flags.append(f"RUN pair {i} {tree}: correct {run.get('correct')}, failed {run.get('failed')}"
                             + (f", {run['error']}" if run.get("error") else ""))
    return rows, flags


def format_table(rows: list[MetricRow], flags: list[str], n_pairs: int) -> str:
    lines = [f"{n_pairs} pairs; ratios are change / parent, per pair in run order; "
             "a win is a pair where the change is better",
             "| metric | better | bound | parent median [q1, q3] | change median | ratio | per-pair ratios | wins "
             "| gap > parent IQR |",
             "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r.name} | {r.better} | {r.bound:g} | {r.parent_median:.6g} [{r.parent_q1:.6g}, {r.parent_q3:.6g}] "
            f"| {r.change_median:.6g} | {r.ratio:.3f} | {', '.join(f'{x:.3f}' for x in r.ratios)} "
            f"| {r.wins}/{len(r.ratios)} | {'yes' if r.past_iqr else 'no'} |"
        )
    lines += [f"- {f}" for f in flags] or ["- no flags: every median within its bound, quality equal in every "
                                          "pair, every run correct with no failed operations"]
    return "\n".join(lines)


def run_tree(tree: Path, workload: str, seed: int, seconds: float, work: Path) -> dict:
    """One `perfbench/run.py` run from a fresh copy of `tree`; its JSON result, or a failed one with the error."""
    copy = Path(tempfile.mkdtemp(prefix="tree-", dir=work))
    try:
        shutil.copytree(tree, copy, ignore=SKIP, dirs_exist_ok=True)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds)]
        env = {**os.environ, **RUN_ENV}
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                return json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def summarize(runs: list[dict], end_to_end: list[dict]) -> tuple[dict, list[str]]:
    """Per workload, its runs and each end-to-end metric's median and quartiles over its clean runs; and flags.

    `runs` holds {"workload", "seed", "result"} records, the result as `perfbench/run.py` prints it. A run
    that is not `correct` or has failed operations is kept in the list, flagged, and left out of the figures.
    """
    workloads, flags = {}, []
    for rec in runs:
        result = rec["result"]
        entry = {"seed": rec["seed"], "correct": result.get("correct"), "failed": result.get("failed")}
        if result.get("error"):
            entry["error"] = result["error"]
        workloads.setdefault(rec["workload"], {"runs": [], "metrics": {}})["runs"].append(entry)
        if not clean(result):
            flags.append(f"RUN {rec['workload']} seed {rec['seed']}: correct {entry['correct']}, "
                         f"failed {entry['failed']}, left out" + (f", {entry['error']}" if "error" in entry else ""))
    for workload, out in workloads.items():
        good = [r["result"] for r in runs if r["workload"] == workload and clean(r["result"])]
        for spec in end_to_end:
            values = [r["metrics"][spec["name"]] for r in good if spec["name"] in r.get("metrics", {})]
            if not values:
                flags.append(f"{workload} {spec['name']}: no clean run reports it")
                continue
            q1, med, q3 = quartiles([v["value"] for v in values])
            out["metrics"][spec["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": values[0]["unit"],
                                            "better": spec["better"], "runs": len(values)}
            if spec["name"] in METRIC_NOTES:
                out["metrics"][spec["name"]]["note"] = METRIC_NOTES[spec["name"]]
    return workloads, flags


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", **RUN_ENV}


def git_state(tree: Path) -> dict:
    """The tree's checked-out commit and whether its files differ from it; nulls outside a git checkout."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit, "tree_differs_from_commit": None if status is None else bool(status)}


def record(tree: Path, n_runs: int, seeds: list[int], work: Path) -> dict:
    benchmark = json.loads((tree / "BENCHMARK.json").read_text())
    runs = []
    for i in range(n_runs):
        seed = seeds[i % len(seeds)]
        for spec in benchmark["workloads"]:
            result = run_tree(tree, spec["name"], seed, benchmark["run_seconds"], work)
            runs.append({"workload": spec["name"], "seed": seed, "result": result})
            summary = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i} {spec['name']} seed {seed}: {summary or result.get('error')}", flush=True)
    workloads, flags = summarize(runs, benchmark["end_to_end"])
    return {"run_seconds": benchmark["run_seconds"], **git_state(tree), "machine": machine(),
            "workloads": workloads, "flags": flags}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="run alternated pairs, then print the table")
    pairs.add_argument("--parent", required=True, type=Path, help="the parent's tree (holds perfbench/ and src/)")
    pairs.add_argument("--change", required=True, type=Path, help="the change's tree")
    pairs.add_argument("--workload", required=True, help="a perfbench workload, e.g. train or predict")
    pairs.add_argument("--pairs", required=True, type=int, help="an even number of pairs")
    pairs.add_argument("--seeds", type=int, nargs="+", default=[1],
                       help="pairs 2k and 2k+1 run at seeds[k %% len(seeds)]")
    pairs.add_argument("--runs", type=Path, help="append each run's result here, one JSON line per run")
    pairs.add_argument("--work", type=Path, help="where the fresh copies go (default: a temporary directory)")
    rec = sub.add_parser("record", help="run every workload of one tree, then write its BENCH record")
    rec.add_argument("--tree", required=True, type=Path, help="the tree (holds BENCHMARK.json, perfbench/, src/)")
    rec.add_argument("--runs", required=True, type=int, help="runs per workload")
    rec.add_argument("--seeds", type=int, nargs="+", default=[1], help="run i runs at seeds[i %% len(seeds)]")
    rec.add_argument("--out", required=True, type=Path, help="the JSON record to write, e.g. BENCH_27.json")
    rec.add_argument("--work", type=Path, help="where the fresh copies go (default: a temporary directory)")
    args = parser.parse_args(argv)

    if args.command == "record":
        tree = args.tree.resolve()
        if args.runs < 1 or not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"need --runs >= 1 and a tree holding perfbench/run.py, got {args.runs} and {tree}")
        with tempfile.TemporaryDirectory(prefix="bench-record-") as default_work:
            doc = record(tree, args.runs, args.seeds, args.work or Path(default_work))
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print("\n".join(f"- {f}" for f in doc["flags"]) or "- no flags: every run correct with no failed operations")
        return 0
    try:
        order = abba_order(args.pairs, args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as default_work:
        work = args.work or Path(default_work)
        work.mkdir(parents=True, exist_ok=True)
        done = []
        for i, (seed, first_second) in enumerate(order):
            result = {}
            for tree in first_second:
                result[tree] = run_tree(trees[tree], args.workload, seed, benchmark["run_seconds"], work)
                if args.runs:
                    with open(args.runs, "a") as fh:
                        fh.write(json.dumps({"pair": i, "tree": tree, "result": result[tree]}) + "\n")
                summary = ", ".join(f"{k} {v['value']:.6g}" for k, v in result[tree]["metrics"].items())
                print(f"pair {i} seed {seed} {tree}: {summary or result[tree].get('error')}", flush=True)
            done.append((result["parent"], result["change"]))
    print(format_table(*compare(done, benchmark["end_to_end"]), len(done)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
