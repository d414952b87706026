"""The benchmark's tracer wraps gneva functions by module global; each must exist and be called.

`perfbench/tracing.py` replaces every `(module, attribute)` in `WRAPPED`
with a timing wrapper, and a traced benchmark run fails when a stage
records no span. These tests catch a refactor that renames a stage or
stops calling it through its module global, without running the benchmark.
"""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gneva
from gneva import dataio, encoders, sampling, trajectory, training
from gneva.cli import run_command

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402

ENC = encoders.EncoderConfig(hidden=32, n_heads=2, C=3)
TRAIN = training.TrainConfig(batch_size=2, warmup_steps=1, max_steps=2, epochs=999, seed=3)


def wrapped_names():
    return sorted({(module.__name__, attr) for module, attr, _, _ in tracing.WRAPPED})


def test_every_wrapped_name_resolves_to_a_callable():
    for module, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(training.backward)


@pytest.fixture
def counted(monkeypatch):
    """Every wrapped global replaced by a pass-through that counts its calls."""
    hits = Counter()
    for module, attr, _, _ in tracing.WRAPPED:
        original = getattr(module, attr)

        def counter(*args, _fn=original, _key=(module.__name__, attr), **kwargs):
            hits[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counter)
    return hits


def test_benchmark_stages_call_every_wrapped_name(counted, tmp_path):
    # The stages a benchmark round runs, each through the module globals it uses.
    scenes = dataio.synth_generate(dataio.SynthConfig(n=2, seed=4), "merge")
    paths = []
    for s in scenes:
        paths.append(tmp_path / f"{s.scenario_id}.json")
        dataio.save_scenario(s, paths[-1])
    projected = [dataio.to_target_frame(s)[0] for s in scenes]
    spatial, _ = training.train_spatial(projected, encoders.init_spatial_params(ENC, seed=3), TRAIN, ENC)
    traj = encoders.init_trajectory_params(ENC, horizon=projected[0].T, seed=3)
    traj, _ = training.train_trajectory(projected, spatial, traj, TRAIN, ENC)
    spatial_path, traj_path = tmp_path / "spatial.model", tmp_path / "traj.model"
    encoders.save_model(spatial_path, spatial, ENC)
    encoders.save_model(traj_path, traj, ENC)

    # The closed loop, scenario file to prediction file.
    scenario = dataio.load_scenario(paths[0])
    target_frame, transform = dataio.to_target_frame(scenario)
    topk = trajectory.predict_topk(target_frame, spatial, traj, sampling.NmsConfig(k=3), ENC)
    world = trajectory.predictions_to_world(topk, transform)
    trajectory.save_predictions(tmp_path / "closed.out", scenario.scenario_id, world)
    assert len(world) == 3

    common = ["--spatial-model", str(spatial_path), "--scenario"]
    assert run_command(["predict", *common, str(tmp_path), "--traj-model", str(traj_path),
                        "--spacing", "1.0", "--out", str(tmp_path / "preds")]) == 0
    assert run_command(["density", *common, str(paths[0]), "--spacing", "1.0",
                        "--out", str(tmp_path / "density.csv")]) == 0

    missing = [name for name in wrapped_names() if counted[name] == 0]
    assert not missing, f"wrapped but never called through the module global: {missing}"
    assert np.isfinite(world.goal_log_probs).all()


def test_one_scene_forms_the_benchmark_calls():
    # perfbench/run.py (`emitted`, `gradient_spot_check`) runs forward_spatial on one VectorizedScene and
    # spatial_scene_loss on its goal (2,), reshaping each loss to (1,).
    scene = dataio.to_target_frame(dataio.synth_generate(dataio.SynthConfig(n=1, seed=4), "turn")[0])[0]
    tape, vs = encoders.init_spatial_params(ENC, seed=3), dataio.vectorize(scene, ENC)
    fw = encoders.forward_spatial(vs, tape, ENC)
    assert (fw.eta.shape, fw.chol.shape, fw.weights.shape) == ((ENC.C, 2), (ENC.C, 3), (ENC.C,))
    assert fw.mixture().n_components == ENC.C
    terms = training.spatial_scene_loss(scene.goal(), fw, 1.0)
    assert terms.loss.value.size == 1 and terms.responsibilities.shape == (ENC.C,)
    leaves = tape.leaves()
    loss = training.spatial_scene_loss(scene.goal(), encoders.forward_spatial(vs, leaves, ENC), 1.0,
                                       q_target=terms.responsibilities).loss
    training.backward(loss)
    assert leaves["prior.eta"].grad.shape == (2,)


@pytest.fixture
def bench_run(monkeypatch):
    """`perfbench/run.py` imported as a module; the environment variables its import sets are put back."""
    for var in ("OPENBLAS_NUM_THREADS", "GNEVA_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # teardown restores the value, or its absence
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_benchmark_setup_writes_identical_loadable_files(bench_run, tmp_path):
    trees = []
    for name in ("a", "b"):
        ctx = bench_run.setup(gneva, bench_run.PLANS["train"], 13, tmp_path / name)
        files = sorted(p for p in ctx.work.rglob("*") if p.is_file())
        trees.append({p.relative_to(ctx.work): p.read_bytes() for p in files})
    assert trees[0] == trees[1]
    assert len(ctx.train_scenes) == sum(n for _, n in bench_run.PLANS["train"].train)
    for path in trees[0]:
        scenario = dataio.load_scenario(tmp_path / "a" / path)
        assert path.stem == scenario.scenario_id
