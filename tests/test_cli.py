import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from gneva.cli import load_run_config, run_command
from gneva.dataio import load_scenario, to_target_frame, vectorize
from gneva.encoders import forward_spatial, load_spatial_model
from gneva.errors import ValidationError
from gneva.sampling import generate_candidates, scene_region
from gneva.trajectory import Predictions, save_predictions

TINY_CONFIG = {
    "encoder.hidden": 32,
    "encoder.n_heads": 2,
    "encoder.C": 3,
    "train.batch_size": 8,
    "train.warmup_steps": 3,
    "train.max_steps": 20,
    "train.epochs": 999,
    "train.peak_lr": 0.003,
    "train.final_lr": 1e-6,
    "train.seed": 5,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    code = run_command(
        ["synth", "--kind", "straight", "--n", "16", "--seed", "3", "--out", str(data)]
    )
    assert code == 0
    spatial = root / "spatial.json"
    code = run_command(
        ["--config", str(config), "train-spatial", "--data", str(data), "--out", str(spatial)]
    )
    assert code == 0
    traj = root / "traj.json"
    code = run_command(
        [
            "--config",
            str(config),
            "train-traj",
            "--data",
            str(data),
            "--spatial-model",
            str(spatial),
            "--out",
            str(traj),
        ]
    )
    assert code == 0
    return root, config, data, spatial, traj


class TestRunConfig:
    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train.seed": 1, "encoder.hidden": 64}))
        merged = load_run_config(str(path), ["train.seed=9", "train.peak_lr=2.5"])
        assert merged["train.seed"] == 9
        assert merged["encoder.hidden"] == 64
        assert merged["train.peak_lr"] == 2.5

    def test_bad_set_rejected(self):
        with pytest.raises(ValidationError):
            load_run_config(None, ["no-equals-sign"])

    @pytest.mark.parametrize("key", ["traim.peak_lr", "nms.radius", "train.peek_lr", "encoder", "peak_lr", "train."])
    @pytest.mark.parametrize("source", ["--set", "--config"])
    def test_unknown_key_exits_1_naming_it(self, tmp_path, capsys, key, source):
        # A key outside train.<field> and encoder.<field> would otherwise be ignored without a word.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: 5}))
        given = ["--set", f"{key}=5"] if source == "--set" else ["--config", str(config)]
        argv = [*given, "train-spatial", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "m.json")]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == 64

    def test_unknown_flag_is_usage_error(self):
        assert run_command(["synth", "--kind", "straight", "--n", "1", "--out", "x", "--bogus"]) == 64

    def test_synth_n_zero_is_validation_error(self, tmp_path):
        assert (
            run_command(["synth", "--kind", "straight", "--n", "0", "--out", str(tmp_path / "d")])
            == 1
        )

    def test_missing_data_is_validation_error(self, tmp_path):
        assert (
            run_command(
                [
                    "train-spatial",
                    "--data",
                    str(tmp_path / "nothing"),
                    "--out",
                    str(tmp_path / "m.json"),
                ]
            )
            == 1
        )


class TestVerify:
    def test_fast_suites_all_pass(self, capsys):
        assert run_command(["verify", "--fast"]) == 0
        assert "13/13 oracle suites passed" in capsys.readouterr().out


class TestSynth:
    def test_writes_one_file_per_scenario(self, tmp_path):
        out = tmp_path / "scenes"
        assert run_command(["synth", "--kind", "turn", "--n", "4", "--seed", "1", "--out", str(out)]) == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 4
        for f in files:
            s = load_scenario(f)
            assert f.stem == s.scenario_id


class TestPipeline:
    def test_training_writes_model_and_history(self, workspace):
        root, config, data, spatial, traj = workspace
        doc = json.loads(spatial.read_text())
        assert doc["format_version"] == 1
        assert doc["config"]["hidden"] == 32
        history = Path(str(spatial) + ".history.csv")
        assert history.exists()
        assert history.read_text().startswith("step,lr,loss,elbo,ce")

    def test_predict_and_eval(self, workspace):
        root, config, data, spatial, traj = workspace
        pred_dir = root / "preds"
        code = run_command(
            [
                "predict",
                "--spatial-model",
                str(spatial),
                "--traj-model",
                str(traj),
                "--scenario",
                str(data),
                "--k",
                "3",
                "--spacing",
                "1.0",
                "--out",
                str(pred_dir),
            ]
        )
        assert code == 0
        assert len(list(pred_dir.glob("*.json"))) == 16
        report_path = root / "report.json"
        code = run_command(
            [
                "eval",
                "--pred",
                str(pred_dir),
                "--data",
                str(data),
                "--k",
                "3",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["k"] == 3 and report["n_scenarios"] == 16
        assert report["made_k"] >= 0.0

    def test_non_finite_model_parameter_is_validation_error(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        doc = json.loads(spatial.read_text())
        doc["params"]["prior.eta"][0] = float("nan")
        bad = tmp_path / "nan_spatial.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "preds"
        code = run_command(
            [
                "predict",
                "--spatial-model",
                str(bad),
                "--traj-model",
                str(traj),
                "--scenario",
                str(sorted(data.glob("*.json"))[0]),
                "--spacing",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "prior.eta" in err
        assert not out.exists()

    def test_out_of_family_component_names_scenario_and_component(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        doc = json.loads(spatial.read_text())
        # Component 1's Cholesky row becomes (l11, 1e9, 1e-3): V is singular to working precision.
        doc["params"]["inter_head.l2.b"][4] = 1e9
        doc["params"]["inter_head.l2.b"][5] = -1e3
        bad = tmp_path / "singular_spatial.json"
        bad.write_text(json.dumps(doc))
        scenario_file = sorted(data.glob("*.json"))[0]
        code = run_command(
            [
                "predict",
                "--spatial-model",
                str(bad),
                "--traj-model",
                str(traj),
                "--scenario",
                str(scenario_file),
                "--spacing",
                "1.0",
                "--out",
                str(tmp_path / "preds"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"scenario {scenario_file.stem!r}" in err and "component 1 " in err

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda doc: {**doc, "config": {**doc["config"], "bogus": 1}}, "'config'"),
            (lambda doc: {**doc, "config": [1]}, "'config'"),
            (lambda doc: {k: v for k, v in doc.items() if k != "config"}, "'config'"),
            (lambda doc: {k: v for k, v in doc.items() if k != "params"}, "'params'"),
            (lambda doc: {**doc, "params": [1]}, "'params'"),
            (lambda doc: [1], "JSON object"),
        ],
        ids=[
            "unknown-config-key",
            "config-not-object",
            "no-config",
            "no-params",
            "params-not-object",
            "not-an-object",
        ],
    )
    def test_malformed_model_is_validation_error(
        self, workspace, tmp_path, capsys, corrupt, named
    ):
        root, config, data, spatial, traj = workspace
        bad = tmp_path / "bad_spatial.json"
        bad.write_text(json.dumps(corrupt(json.loads(spatial.read_text()))))
        out = tmp_path / "density.csv"
        scenario = str(sorted(data.glob("*.json"))[0])
        code = run_command(
            ["density", "--spatial-model", str(bad), "--scenario", scenario, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and named in err
        assert not out.exists()

    def test_predict_single_file_output(self, workspace):
        root, config, data, spatial, traj = workspace
        scenario_file = sorted(data.glob("*.json"))[0]
        out = root / "single.json"
        code = run_command(
            [
                "predict",
                "--spatial-model",
                str(spatial),
                "--traj-model",
                str(traj),
                "--scenario",
                str(scenario_file),
                "--spacing",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["scenario_id"] == scenario_file.stem
        assert 1 <= len(doc["predictions"]) <= 6

    def test_bad_scenarios_do_not_sink_a_directory_run(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        good = sorted(data.glob("*.json"))[:2]
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "a.json").write_bytes(good[0].read_bytes())
        malformed = scenes / "b.json"
        malformed.write_text('{"format_version": 1, "scenario_id": ')
        (scenes / "c.json").write_bytes(good[1].read_bytes())
        doc = json.loads(good[0].read_text())
        doc["scenario_id"] = "nan-state"
        doc["agents"][0]["states"][3]["x"] = float("nan")
        nan_state = scenes / "d.json"
        nan_state.write_text(json.dumps(doc))
        out = tmp_path / "preds"
        code = run_command(
            ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
             "--scenario", str(scenes), "--spacing", "1.0", "--out", str(out)]
        )
        assert code == 1
        assert sorted(p.stem for p in out.glob("*.json")) == sorted(p.stem for p in good)
        failures = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [f["file"] for f in failures] == [str(malformed), str(nan_state)]
        assert [f["error"] for f in failures] == ["ParseError", "ValidationError"]
        assert all(f["message"] for f in failures)

    def test_bad_files_do_not_sink_eval(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        good = sorted(data.glob("*.json"))[:3]
        for path in good:
            (scenes / path.name).write_bytes(path.read_bytes())
        truncated = scenes / "truncated.json"
        truncated.write_text(good[0].read_text()[:200])
        preds = tmp_path / "preds"
        models = ["--spatial-model", str(spatial), "--traj-model", str(traj)]
        assert run_command(["predict", *models, "--scenario", str(scenes), "--spacing", "1.0", "--out", str(preds)]) == 1
        assert "predicted 3 of 4" in capsys.readouterr().out
        report_path = tmp_path / "report.json"
        eval_argv = ["eval", "--pred", str(preds), "--data", str(scenes), "--k", "3", "--out", str(report_path)]
        assert run_command(eval_argv) == 1
        captured = capsys.readouterr()
        assert "mADE" in captured.out
        assert json.loads(report_path.read_text())["n_scenarios"] == 3
        failures = [json.loads(line) for line in captured.err.splitlines()]
        assert [(f["file"], f["error"]) for f in failures] == [(str(truncated), "ParseError")]

        # A prediction file that does not load, and a scenario left without predictions.
        (preds / f"{good[1].stem}.json").unlink()
        bad_pred = preds / "zz-bad.json"
        bad_pred.write_text('{"scenario_id": "x", "predictions": [{"waypoints": [[1, 2]]}]}')
        assert run_command(eval_argv) == 1
        captured = capsys.readouterr()
        assert json.loads(report_path.read_text())["n_scenarios"] == 2
        failures = [json.loads(line) for line in captured.err.splitlines()]
        assert [(f["file"], f["error"]) for f in failures] == [
            (str(bad_pred), "ValidationError"),
            (str(scenes / good[1].name), "ValidationError"),
            (str(truncated), "ParseError"),
        ]
        assert "no predictions for scenario" in failures[1]["message"]

    def test_horizon_mismatch_is_validation_error(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        doc = json.loads(sorted(data.glob("*.json"))[0].read_text())
        doc["T"] -= 1
        scenario = tmp_path / "short.json"
        scenario.write_text(json.dumps(doc))
        code = run_command(
            ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
             "--scenario", str(scenario), "--spacing", "1.0", "--out", str(tmp_path / "preds")]
        )
        assert code == 1
        failure = json.loads(capsys.readouterr().err)
        assert failure["error"] == "HorizonMismatch" and "T=29" in failure["message"]

    def test_density_grid_deterministic_and_normalized(self, workspace):
        root, config, data, spatial, traj = workspace
        scenario_file = sorted(data.glob("*.json"))[0]
        out_a = root / "density_a.csv"
        out_b = root / "density_b.csv"
        for out in (out_a, out_b):
            code = run_command(
                [
                    "density",
                    "--spatial-model",
                    str(spatial),
                    "--scenario",
                    str(scenario_file),
                    "--spacing",
                    "0.5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = out_a.read_text().strip().split("\n")
        assert rows[0] == "x,y,log_density"
        data_rows = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        mass = np.exp(data_rows[:, 2]).sum() * 0.5 * 0.5
        assert 0.9 <= mass <= 1.02

    def test_density_csv_matches_per_row_format(self, workspace):
        # The bytes a per-row f"{v:.17g}" writer gives for the same grid.
        root, config, data, spatial, traj = workspace
        scenario_file = sorted(data.glob("*.json"))[1]
        out = root / "density_rows.csv"
        code = run_command(
            ["density", "--spatial-model", str(spatial), "--scenario", str(scenario_file),
             "--out", str(out)]
        )
        assert code == 0
        tape, enc = load_spatial_model(spatial)
        projected, transform = to_target_frame(load_scenario(scenario_file))
        fw = forward_spatial(vectorize(projected, enc), tape, enc)
        pool = generate_candidates(fw.mixture(), fw.weights.value, scene_region(projected), 0.5)
        world = transform.inverse().apply_points(pool.locations)
        lines = ["x,y,log_density"] + [
            f"{x:.17g},{y:.17g},{lp:.17g}" for (x, y), lp in zip(world.tolist(), pool.log_probs.tolist())
        ]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_mask_map_radius_zero(self, workspace, tmp_path):
        root, config, data, spatial, traj = workspace
        scenario_file = sorted(data.glob("*.json"))[0]
        out = tmp_path / "masked.json"
        assert (
            run_command(
                ["mask-map", "--scenario", str(scenario_file), "--radius", "0", "--out", str(out)]
            )
            == 0
        )
        masked = load_scenario(out)
        assert masked.map == []
        # the pipeline still runs without a map
        pred_out = tmp_path / "masked_pred.json"
        code = run_command(
            [
                "predict",
                "--spatial-model",
                str(spatial),
                "--traj-model",
                str(traj),
                "--scenario",
                str(out),
                "--spacing",
                "1.0",
                "--out",
                str(pred_out),
            ]
        )
        assert code == 0


def _run_quietly(argv):
    """Exit code of a command, and every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    return code, caught


class TestNumericArguments:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--k", "0"),
            ("eval", "--k", "-1"),
            ("predict", "--spacing", "nan"),
            ("predict", "--radius", "nan"),
            ("density", "--spacing", "inf"),
            ("mask-map", "--radius", "-1"),
            ("mask-map", "--radius", "nan"),
            ("synth", "--dt", "inf"),
            ("predict", "--radius", "1e308"),
            ("synth", "--H", "1000000000"),
            ("synth", "--T", "100000000000"),
            ("synth", "--seed", "-1"),
        ],
    )
    def test_bad_value_exits_1_naming_the_argument(self, workspace, tmp_path, capsys, command, flag, value):
        root, config, data, spatial, traj = workspace
        scenario = str(sorted(data.glob("*.json"))[0])
        out = str(tmp_path / "out.json")
        argv = {
            "eval": ["eval", "--pred", str(data), "--data", str(data)],
            "predict": ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                        "--scenario", scenario, "--out", out],
            "density": ["density", "--spatial-model", str(spatial), "--scenario", scenario, "--out", out],
            "mask-map": ["mask-map", "--scenario", scenario, "--out", out],
            "synth": ["synth", "--kind", "turn", "--n", "2", "--out", out],
        }[command] + [flag, value]
        code, caught = _run_quietly(argv)
        assert code == 1
        assert flag.lstrip("-") in capsys.readouterr().err
        assert caught == []
        assert not Path(out).exists()

    def test_huge_horizon_exits_1_naming_the_scenario(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_command(["synth", "--kind", "straight", "--n", "1", "--seed", "4", "--out", str(data)]) == 0
        (path,) = data.glob("*.json")
        doc = json.loads(path.read_text())
        doc["T"] = 10**12
        path.write_text(json.dumps(doc))
        preds = tmp_path / "preds"
        preds.mkdir()
        save_predictions(preds / path.name, doc["scenario_id"], Predictions(np.zeros((6, 30, 2)), np.zeros(6)))
        capsys.readouterr()
        code, caught = _run_quietly(["eval", "--pred", str(preds), "--data", str(data)])
        assert code == 1
        (failure,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert failure["file"] == str(path) and failure["error"] == "ValidationError"
        assert repr(doc["scenario_id"]) in failure["message"] and "T=1000000000000" in failure["message"]
        assert caught == []

    def test_non_finite_prediction_exits_1_naming_the_file(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        scenario = sorted(data.glob("*.json"))[0]
        preds = tmp_path / "preds"
        preds.mkdir()
        waypoints = np.zeros((6, 30, 2))
        waypoints[2, 7, 1] = np.nan
        save_predictions(preds / scenario.name, scenario.stem, Predictions(waypoints, np.zeros(6)))
        capsys.readouterr()
        code, caught = _run_quietly(["eval", "--pred", str(preds), "--data", str(scenario)])
        assert code == 1 and caught == []
        failure = json.loads(capsys.readouterr().err.splitlines()[0])
        assert failure["file"] == str(preds / scenario.name) and "finite" in failure["message"]


class TestConfigValues:
    @pytest.mark.parametrize(
        "key, value, shown",
        [
            ("train.peak_lr", "nan", "'nan'"),  # not JSON: a bare string
            ("train.batch_size", '"a"', "'a'"),
            ("train.weight_decay", "nan", "'nan'"),
            ("train.weight_decay", "NaN", "nan"),
            ("train.seed", "1.5", "1.5"),
            ("encoder.L_c", "1.5", "1.5"),
            ("encoder.hidden", "0", "0"),
            ("train.lambda_z", "NaN", "nan"),
            ("train.epochs", "1.5", "1.5"),
            ("encoder.C", "1000000000", "1000000000"),
        ],
    )
    def test_bad_set_value_exits_1_naming_key_and_value(self, workspace, tmp_path, capsys, key, value, shown):
        data = workspace[2]
        out = tmp_path / "model.json"
        code, caught = _run_quietly(["--set", f"{key}={value}", "train-spatial", "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and caught == [] and not out.exists()
        assert f"config {key} " in err and f"got {shown}" in err

    def test_bad_config_file_value_exits_1_naming_key_and_value(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "train.seed": -1}))
        out = tmp_path / "traj.json"
        code, caught = _run_quietly(["--config", str(bad), "train-traj", "--data", str(data),
                                     "--spatial-model", str(spatial), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and caught == [] and not out.exists()
        assert "config train.seed " in err and "got -1" in err

    def test_config_file_must_be_an_object(self, workspace, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text("[1, 2]")
        code, caught = _run_quietly(["--config", str(bad), "train-spatial", "--data", str(workspace[2]),
                                     "--out", str(tmp_path / "m.json")])
        assert code == 1 and caught == [] and str(bad) in capsys.readouterr().err

    def test_diverging_training_exits_2_without_numpy_warnings(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        out = tmp_path / "model.json"
        code, caught = _run_quietly(["--config", str(config), "--set", "train.peak_lr=1e308", "train-spatial",
                                     "--data", str(data), "--out", str(out)])
        assert code == 2 and caught == [] and not out.exists()
        assert "non-finite spatial loss" in capsys.readouterr().err


def _predict_with_mutated_model(workspace, tmp_path, which, mutate):
    """Exit code, warnings and the mutated file of `gneva predict` with one model document changed."""
    root, config, data, spatial, traj = workspace
    bad = tmp_path / f"{which}.json"
    doc = json.loads((spatial if which == "spatial" else traj).read_text())
    mutate(doc)
    bad.write_text(json.dumps(doc))
    models = {"spatial": spatial, "traj": traj, which: bad}
    out = tmp_path / "pred.json"
    code, caught = _run_quietly(["predict", "--spatial-model", str(models["spatial"]), "--traj-model",
                                 str(models["traj"]), "--scenario", str(sorted(data.glob("*.json"))[0]),
                                 "--out", str(out)])
    assert not out.exists()
    return code, caught, bad


class TestModelFiles:
    @pytest.mark.parametrize(
        "which, key, mutate",
        [
            ("spatial", "prior.eta", lambda d: d["params"]["prior.eta"].__setitem__(0, "a")),
            ("spatial", "prior.eta", lambda d: d["params"]["prior.eta"].__setitem__(1, {"x": 1})),
            ("traj", "traj.m2.l1.w", lambda d: d["params"].__setitem__("traj.m2.l1.w", "a")),
            ("spatial", "prior.eta", lambda d: d["params"]["prior.eta"].__setitem__(0, 1e308)),
            ("spatial", "n_heads", lambda d: d["config"].__setitem__("n_heads", 0)),
            ("spatial", "hidden", lambda d: d["config"].__setitem__("hidden", -4)),
            ("spatial", "hidden", lambda d: d["config"].__setitem__("hidden", float(d["config"]["hidden"]))),
            ("traj", "hidden", lambda d: d["config"].__setitem__("hidden", float(d["config"]["hidden"]))),
            ("spatial", "C", lambda d: d["config"].__setitem__("C", 10**9)),
        ],
        ids=["string-entry", "object-entry", "string-list", "huge-entry", "n_heads-0", "hidden-negative",
             "hidden-float", "traj-hidden-float", "C-huge"],
    )
    def test_bad_model_exits_1_naming_file_and_key(self, workspace, tmp_path, capsys, which, key, mutate):
        code, caught, bad = _predict_with_mutated_model(workspace, tmp_path, which, mutate)
        err = capsys.readouterr().err
        assert code == 1 and caught == []
        assert f"model {bad}" in err and key in err and "Traceback" not in err
