#!/usr/bin/env python3
"""gneva benchmark: seeded train and predict workloads.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 45 --trace 0

Every workload runs the same user-facing pipeline in rounds until
`--seconds` have passed: train the spatial model and the trajectory
network, predict held-out scenes one at a time (a closed loop from
scenario file to written prediction), run `gneva predict` on a directory
and `gneva density` on single scenes. The workloads differ in how much of
each stage a round holds, so that a different layer dominates each one.
After the rounds, independent oracles (`oracles.py`) check the outputs.
Timings are scaled to the host's full speed by a fixed loop timed around
every round (`host_probe`); the wall-clock figures are printed beside them.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
rounds with traced ones, which record spans around the calls into every
gneva module (`tracing.py`), and prints the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
`--workload all` runs the workloads one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "predict")
CORES = len(os.sched_getaffinity(0))
# The `gneva predict` pool gets one thread per core this process may use, and
# BLAS one thread per caller, so no run busies more threads than cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ["GNEVA_THREADS"] = str(CORES)

SETUP_REPEATS = 5
# A shared host's CPU speed can drift by 1.75x over tens of seconds (seen on a
# 2-core cloud host), so every timing is scaled by how long a fixed loop takes
# around it, relative to PROBE_REF_S, the loop's time there at full speed.
PROBE_REF_S = 0.060
PROBE_STEPS = 400_000
K, RADIUS, SPACING = 6, 2.0, 0.5  # the CLI defaults for predict
INIT_SEED = 7  # model initialisation and batch order, as in the acceptance fixture
FIXED_SEED = 802  # scenes that are the same for every --seed
EVAL = (("turn", 8), ("straight", 8))
EVAL_SEED = 801  # fixed: quality, and the turn_bimodal inputs, do not depend on --seed
BIMODAL_XS = (0.0, 25.0, 126)
BIMODAL_YS = (-20.0, 20.0, 201)


@dataclass(frozen=True)
class Plan:
    """What one round of a workload holds.

    The closed loop and `gneva predict` each have a list of scenes, kinds
    interleaved, from the seed or fixed for every seed; round r takes the
    next `per_round` of them, so every round does the same amount of work.
    """

    train: tuple  # (kind, count) of training scenes, from the seed
    spatial_steps: int
    traj_steps: int
    batch_size: int
    warmup_steps: int
    closed: tuple  # (kind, count) predicted one at a time through the closed loop
    closed_seeded: bool
    closed_per_round: int
    batch: tuple  # (kind, count) predicted by `gneva predict`, one directory per round
    batch_seeded: bool
    batch_per_round: int
    density: tuple  # (kind, count), fixed, exported with `gneva density` every round
    density_spacing: float
    bimodal: bool  # each fixed held-out turn scene carries a turn_bimodal operation


# Fixed lists hold exactly one round's scenes, so every round repeats them.
# A `gneva predict` directory holds each kind equally often.
PLANS = {
    "train": Plan(
        train=(("turn", 48), ("straight", 16)),
        spatial_steps=4,
        traj_steps=4,
        batch_size=16,
        warmup_steps=1,
        closed=(("turn", 2), ("straight", 1)),
        closed_seeded=False,
        closed_per_round=3,
        batch=(("turn", 1), ("straight", 1), ("merge", 1)),
        batch_seeded=False,
        batch_per_round=3,
        density=(("turn", 1),),
        density_spacing=SPACING,
        bimodal=True,
    ),
    "predict": Plan(
        train=(("turn", 8), ("straight", 4), ("merge", 4)),
        spatial_steps=4,
        traj_steps=8,
        batch_size=8,
        warmup_steps=1,
        closed=(("turn", 24), ("straight", 24), ("merge", 24)),
        closed_seeded=True,
        closed_per_round=6,
        batch=(("turn", 24), ("straight", 24), ("merge", 24)),
        batch_seeded=True,
        batch_per_round=6,
        density=(("merge", 1),),
        density_spacing=0.25,
        bimodal=False,
    ),
}


class BenchError(RuntimeError):
    pass


def import_gneva():
    """Import gneva from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gneva
    except ImportError as exc:
        raise BenchError(f"cannot import gneva from {src}: {exc}") from exc
    if Path(gneva.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"imported gneva from {gneva.__file__}, not from {src}")
    return gneva


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's momentary speed."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t0


RATES = ("spatial_steps_per_s", "traj_steps_per_s", "predict_scenes_per_s", "density_cells_per_s")


def at_reference_speed(rnd: dict, probe_s: float) -> dict:
    """A round's timings scaled to the host at full speed (probe time PROBE_REF_S)."""
    scale = PROBE_REF_S / probe_s
    out = dict(rnd, latencies_ms=[x * scale for x in rnd["latencies_ms"]])
    out.update({key: rnd[key] / scale for key in RATES})
    return out


# -- environment -----------------------------------------------------------
def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "gneva_threads": os.environ["GNEVA_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- set-up ------------------------------------------------------------------
@dataclass
class Context:
    gneva: object
    plan: Plan
    work: Path
    enc: object
    train_scenes: list
    closed_files: list
    batch_dirs: list
    density_files: list
    eval_dir: Path
    bimodal_scenes: list
    spatial0: object
    traj0: object
    seed: int


def write_scenes(gneva, groups, seed: int, out: Path) -> list[Path]:
    """Synthetic scenario files, kinds interleaved so any run of them mixes the kinds."""
    import numpy as np

    out.mkdir(parents=True, exist_ok=True)
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(groups))
    per_kind = []
    for (kind, n), s in zip(groups, seeds):
        paths = []
        for scenario in gneva.dataio.synth_generate(gneva.dataio.SynthConfig(n=n, seed=int(s)), kind):
            path = out / f"{scenario.scenario_id}.json"
            gneva.dataio.save_scenario(scenario, path)
            paths.append(path)
        per_kind.append(paths)
    longest = max(len(p) for p in per_kind)
    return [p[i] for i in range(longest) for p in per_kind if i < len(p)]


def setup(gneva, plan: Plan, seed: int, work: Path) -> Context:
    """Inputs written as scenario files, training data read back, models initialised."""
    import numpy as np

    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=3)]
    enc = gneva.encoders.EncoderConfig()
    train_files = write_scenes(gneva, plan.train, seeds[0], work / "train")
    closed = write_scenes(gneva, plan.closed, seeds[1] if plan.closed_seeded else FIXED_SEED, work / "closed")
    batch = write_scenes(gneva, plan.batch, seeds[2] if plan.batch_seeded else FIXED_SEED + 1, work / "batch")
    batch_dirs = []
    for start in range(0, len(batch), plan.batch_per_round):
        d = work / "batches" / f"{len(batch_dirs):03d}"
        d.mkdir(parents=True)
        for path in batch[start : start + plan.batch_per_round]:
            shutil.copyfile(path, d / path.name)
        batch_dirs.append(d)
    density = write_scenes(gneva, plan.density, FIXED_SEED + 2, work / "density")
    eval_files = write_scenes(gneva, EVAL, EVAL_SEED, work / "eval")
    bimodal = []
    if plan.bimodal:
        bimodal = [
            gneva.dataio.to_target_frame(gneva.dataio.load_scenario(f))[0]
            for f in eval_files
            if f.name.startswith("turn-")
        ]
    train_scenes = [gneva.dataio.to_target_frame(gneva.dataio.load_scenario(f))[0] for f in train_files]
    spatial0 = gneva.encoders.init_spatial_params(enc, seed=INIT_SEED)
    traj0 = gneva.encoders.init_trajectory_params(enc, horizon=train_scenes[0].T, seed=INIT_SEED)
    return Context(
        gneva, plan, work, enc, train_scenes, closed, batch_dirs, density, work / "eval", bimodal, spatial0, traj0,
        seed,
    )


def take(items: list, r: int, n: int) -> list:
    """Round r's share: the next n items, wrapping around the list."""
    return [items[i % len(items)] for i in range(r * n, (r + 1) * n)]


# -- one round -------------------------------------------------------------------
def run_cli(gneva, argv: list[str]) -> str:
    """Run a `gneva` subcommand in this process; its output is returned, not printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gneva.cli.run_command(argv)
    if code != 0:
        raise BenchError(f"gneva {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def train_config(gneva, plan: Plan, steps: int):
    return gneva.training.TrainConfig(
        batch_size=plan.batch_size,
        warmup_steps=plan.warmup_steps,
        max_steps=steps,
        epochs=999,
        peak_lr=5e-3,
        final_lr=5e-4,
        seed=INIT_SEED,
    )


def bimodal_grid():
    import numpy as np

    xs, ys = np.linspace(*BIMODAL_XS), np.linspace(*BIMODAL_YS)
    return xs, ys, np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def run_round(ctx: Context, r: int, tracer) -> dict:
    from oracles import is_bimodal

    g, plan, enc = ctx.gneva, ctx.plan, ctx.enc
    out = ctx.work / "out"
    closed_dir, batch_out, density_out = out / "closed", out / "batch", out / "density"
    for d in (closed_dir, batch_out, density_out):
        d.mkdir(parents=True, exist_ok=True)
    t_round = time.perf_counter()

    with tracer.unit("train_spatial", ("spatial_step", r)):
        t0 = time.perf_counter()
        spatial, spatial_hist = g.training.train_spatial(
            ctx.train_scenes, ctx.spatial0.copy(), train_config(g, plan, plan.spatial_steps), enc
        )
        spatial_s = time.perf_counter() - t0
    with tracer.unit("train_trajectory", ("traj_step", r)):
        t0 = time.perf_counter()
        traj, traj_hist = g.training.train_trajectory(
            ctx.train_scenes, spatial, ctx.traj0.copy(), train_config(g, plan, plan.traj_steps), enc
        )
        traj_s = time.perf_counter() - t0
    spatial_path, traj_path = out / "spatial.json", out / "traj.json"
    g.encoders.save_model(spatial_path, spatial, enc)
    g.encoders.save_model(traj_path, traj, enc)

    nms = g.sampling.NmsConfig(radius=RADIUS, k=K)
    latencies = []
    for i, path in enumerate(take(ctx.closed_files, r, plan.closed_per_round)):
        with tracer.unit("scene", ("scene", r, i)):
            t0 = time.perf_counter()
            scenario = g.dataio.load_scenario(path)
            projected, transform = g.dataio.to_target_frame(scenario)
            topk = g.trajectory.predict_topk(projected, spatial, traj, nms, enc, spacing=SPACING)
            world = g.trajectory.predictions_to_world(topk, transform)
            sid = scenario.scenario_id
            g.trajectory.save_predictions(closed_dir / f"{sid}.json", sid, world)
            latencies.append(time.perf_counter() - t0)

    (batch_dir,) = take(ctx.batch_dirs, r, 1)
    with tracer.unit("gneva predict", ("batch", r)):
        t0 = time.perf_counter()
        run_cli(g, ["predict", "--spatial-model", str(spatial_path), "--traj-model", str(traj_path),
                    "--scenario", str(batch_dir), "--out", str(batch_out)])
        batch_s = time.perf_counter() - t0

    density_s, cells = 0.0, 0
    for i, path in enumerate(ctx.density_files):
        csv = density_out / f"{path.stem}.csv"
        with tracer.unit("gneva density", ("density", r, i)):
            t0 = time.perf_counter()
            run_cli(g, ["density", "--spatial-model", str(spatial_path), "--scenario", str(path),
                        "--spacing", repr(plan.density_spacing), "--out", str(csv)])
            density_s += time.perf_counter() - t0
        with open(csv) as fh:
            cells += sum(1 for _ in fh) - 1

    bimodal_failed = 0
    if ctx.bimodal_scenes:
        xs, ys, grid = bimodal_grid()
        for scene in ctx.bimodal_scenes:
            fw = g.encoders.forward_spatial(g.dataio.vectorize(scene, enc), spatial, enc)
            lp = g.mixture.predictive_log_densities(grid, fw.mixture(), fw.weights.value)
            bimodal_failed += not is_bimodal(lp.reshape(len(xs), len(ys)), xs, ys)

    n_steps = len(spatial_hist.losses) + len(traj_hist.losses)
    n_scenes = plan.closed_per_round + plan.batch_per_round
    return {
        "wall_s": time.perf_counter() - t_round,
        "spatial_steps_per_s": len(spatial_hist.losses) / spatial_s,
        "traj_steps_per_s": len(traj_hist.losses) / traj_s,
        "latencies_ms": [x * 1e3 for x in latencies],
        "predict_scenes_per_s": plan.batch_per_round / batch_s,
        "density_cells_per_s": cells / density_s,
        "attempted": n_steps + n_scenes + len(ctx.density_files) + len(ctx.bimodal_scenes),
        "failed": bimodal_failed,
        "spatial_losses": spatial_hist.losses,
        "traj_losses": traj_hist.losses,
        "spatial": spatial,
        "spatial_path": spatial_path,
        "traj_path": traj_path,
        "closed_dir": closed_dir,
        "batch_dir": batch_dir,
        "batch_out": batch_out,
        "density_out": density_out,
    }


# -- checks ------------------------------------------------------------------------
def emitted(ctx: Context, spatial, scenario_path) -> dict:
    """The mixture the spatial model emits for one scenario file, as plain arrays."""
    g = ctx.gneva
    projected, _ = g.dataio.to_target_frame(g.dataio.load_scenario(scenario_path))
    fw = g.encoders.forward_spatial(g.dataio.vectorize(projected, ctx.enc), spatial, ctx.enc)
    return {
        "eta": fw.eta.value,
        "beta": fw.beta.value,
        "chol": fw.chol.value,
        "nu": fw.nu.value,
        "weights": fw.weights.value,
    }


def gradient_spot_check(ctx: Context, spatial, n_scenes: int = 4, n_entries: int = 6) -> list[str]:
    """Tape gradient of a seeded batch loss against central differences."""
    import numpy as np

    import oracles

    g, enc = ctx.gneva, ctx.enc
    rng = np.random.default_rng(ctx.seed)
    scenes = [ctx.train_scenes[i] for i in rng.choice(len(ctx.train_scenes), n_scenes, replace=False)]
    vectors = [g.dataio.vectorize(s, enc) for s in scenes]
    # Pin the responsibilities so the loss is a smooth function of the parameters.
    targets = [
        g.training.spatial_scene_loss(s.goal(), g.encoders.forward_spatial(v, spatial, enc), 1.0).responsibilities
        for s, v in zip(scenes, vectors)
    ]

    def batch_loss(leaves):
        losses = [
            g.training.spatial_scene_loss(s.goal(), g.encoders.forward_spatial(v, leaves, enc), 1.0, q_target=q).loss
            for s, v, q in zip(scenes, vectors, targets)
        ]
        return g.autodiff.vmean(g.autodiff.concat([g.autodiff.reshape(x, (1,)) for x in losses], axis=0))

    leaves = spatial.leaves()
    g.autodiff.backward(batch_loss(leaves))
    names = [n for n in spatial.params if leaves[n].grad is not None]
    analytic = {}
    for name in rng.choice(names, size=min(n_entries, len(names)), replace=False):
        grad = leaves[name].grad.reshape(-1)
        idx = int(np.argmax(np.abs(grad)))
        analytic[(str(name), idx)] = float(grad[idx])
    return oracles.gradient_errors(
        analytic, lambda: float(batch_loss(spatial.leaves()).value[()]), spatial.params
    )


def check(ctx: Context, last: dict) -> tuple[list[str], dict]:
    """Run every oracle on the outputs; returns the errors and the held-out quality.

    Every round trains the same model, so the last round's model stands for
    all of them. It also predicts the fixed held-out set, untimed, with
    `gneva predict`; those predictions give mADE and mFDE.
    """
    import numpy as np

    import oracles

    errors = oracles.loss_errors(last["spatial_losses"], last["traj_losses"])
    errors += gradient_spot_check(ctx, last["spatial"])

    eval_out = ctx.work / "out" / "eval"
    run_cli(ctx.gneva, ["predict", "--spatial-model", str(last["spatial_path"]), "--traj-model",
                        str(last["traj_path"]), "--scenario", str(ctx.eval_dir), "--out", str(eval_out)])
    scenarios, predictions = [], []
    for path in sorted(ctx.eval_dir.glob("*.json")):
        scenario = oracles.read_json(path)
        prediction = oracles.read_json(eval_out / path.name)
        errors += oracles.prediction_errors(scenario, prediction, emitted(ctx, last["spatial"], path), SPACING, RADIUS, K)
        scenarios.append(scenario)
        predictions.append(prediction)
    quality = oracles.displacement(predictions, scenarios, K)
    quality["cv_made"] = oracles.constant_velocity_made(scenarios)
    report_path = ctx.work / "out" / "eval.json"
    run_cli(ctx.gneva, ["eval", "--pred", str(eval_out), "--data", str(ctx.eval_dir),
                        "--k", str(K), "--out", str(report_path)])
    errors += oracles.eval_report_errors(oracles.read_json(report_path), quality)

    # Every closed-loop scene predicted in any round, and the last round's batch and density outputs.
    written = [(p, last["closed_dir"] / p.name) for p in ctx.closed_files]
    written += [(p, last["batch_out"] / p.name) for p in sorted(last["batch_dir"].glob("*.json"))]
    for path, out in written:
        if out.exists():
            params = emitted(ctx, last["spatial"], path)
            errors += oracles.prediction_errors(oracles.read_json(path), oracles.read_json(out), params, SPACING, RADIUS, K)

    rng = np.random.default_rng(ctx.seed)
    for path in ctx.density_files:
        params = emitted(ctx, last["spatial"], path)
        csv = last["density_out"] / f"{path.stem}.csv"
        errors += oracles.density_errors(oracles.read_json(path), csv, params, ctx.plan.density_spacing, rng)
    return errors, quality


# -- metrics -----------------------------------------------------------------------
def end_to_end(rounds: list[dict], setup_times: list[float], quality: dict, rss_mib: float) -> dict:
    def med(key):
        return statistics.median(r[key] for r in rounds)

    latencies = [x for r in rounds for x in r["latencies_ms"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "spatial_steps_per_s": (med("spatial_steps_per_s"), "steps/s"),
        "traj_steps_per_s": (med("traj_steps_per_s"), "steps/s"),
        "made6_m": (quality["made"], "m"),
        "mfde6_m": (quality["mfde"], "m"),
        "predict_scene_ms_p50": (statistics.median(latencies), "ms"),
        "predict_scenes_per_s": (med("predict_scenes_per_s"), "scenes/s"),
        "density_cells_per_s": (med("density_cells_per_s"), "cells/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def tail_line(rounds: list[dict]) -> str:
    latencies = sorted(x for r in rounds for x in r["latencies_ms"])
    n = len(latencies)
    if n < 100:
        return f"closed-loop latency: p50 {statistics.median(latencies):.2f} ms over {n} scenes (too few for p90)"
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return f"closed-loop latency: p50 {statistics.median(latencies):.2f} ms, p90 {p90:.2f} ms over {n} scenes"


def run_workload(args) -> int:
    gneva = import_gneva()
    import gneva.cli  # noqa: F401  (loads every submodule the rounds call)

    import tracing
    from layers import layer_metrics

    plan = PLANS[args.workload]
    base = ROOT / ".bench_out"
    work = base / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            before = host_probe()
            t0 = time.perf_counter()
            ctx = setup(gneva, plan, args.seed, work)
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(setup_raw[-1] * PROBE_REF_S / (0.5 * (before + host_probe())))

        tracer = tracing.Tracer() if args.trace else None
        rounds = []  # in the order they ran
        probes = [host_probe()]
        start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds, so that both
            # see the same spells of the host's speed.
            traced_now = tracer is not None and 2 * sum(x["traced"] for x in rounds) < len(rounds)
            if traced_now:
                tracer.install()
                try:
                    rnd = run_round(ctx, len(rounds), tracer)
                finally:
                    tracer.uninstall()
            else:
                rnd = run_round(ctx, len(rounds), tracing.NullTracer())
            rnd["traced"] = traced_now
            rounds.append(rnd)
            probes.append(host_probe())
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced_now):
                break
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Each round is scaled by the mean of the probes just before and after it.
        scaled = [at_reference_speed(x, 0.5 * (p0 + p1)) for x, p0, p1 in zip(rounds, probes, probes[1:])]
        plain = [x for x in scaled if not x["traced"]]
        traced = [x for x in scaled if x["traced"]]

        t0 = time.perf_counter()
        errors, quality = check(ctx, rounds[-1])
        check_s = time.perf_counter() - t0
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)

        e2e = end_to_end(plain, setup_times, quality, rss_mib)
        raw = end_to_end([x for x in rounds if not x["traced"]], setup_raw, quality, rss_mib)
        print(f"env: {json.dumps(environment(args))}")
        print(f"rounds: {len(plain)} untraced, {len(traced)} traced, "
              f"{[round(x['wall_s'], 2) for x in rounds]} s each; "
              f"setup {[round(t, 3) for t in setup_raw]} s; checks {check_s:.2f} s")
        print(f"host probe: {[round(x * 1e3, 1) for x in probes]} ms, reference {PROBE_REF_S * 1e3:.0f} ms")
        print(f"quality: mADE6 {quality['made']:.4f} m, mFDE6 {quality['mfde']:.4f} m, "
              f"miss rate {quality['miss_rate']:.4f} over {sum(n for _, n in EVAL)} fixed held-out scenes; "
              f"constant-velocity mADE {quality['cv_made']:.4f} m")
        print(tail_line(plain))
        for key in RATES:
            print(f"per round {key}: {[round(x[key], 3) for x in scaled]}")
        print(f"{'metric':>24} {'at reference speed':>18} {'wall clock':>14}")
        for name, (value, unit) in e2e.items():
            print(f"{name:>24} {value:18.4f} {raw[name][0]:14.4f} {unit}")

        if tracer is not None:
            traced_e2e = end_to_end(traced, setup_times, quality, rss_mib)
            for name, (value, unit) in traced_e2e.items():
                if name not in ("setup_s", "peak_rss_mib", "made6_m", "mfde6_m"):
                    diff = value - e2e[name][0]
                    print(f"trace overhead {name}: untraced {e2e[name][0]:.4f}, traced {value:.4f}, "
                          f"difference {diff:+.4f} {unit}")
            plain_wall = statistics.median(x["wall_s"] for x in plain)
            traced_wall = statistics.median(x["wall_s"] for x in traced)
            metrics = layer_metrics(tracer.spans, K)
            metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
            trace_dir = base / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]))
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            for name, (value, unit) in metrics.items():
                print(f"{name:>40} {value:14.4f} {unit}")
        else:
            metrics = e2e

        result = {
            "correct": not errors,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
        r = results[workload]
        print(f"{workload}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
