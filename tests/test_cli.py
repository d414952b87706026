import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gneva import cli, verify
from gneva.cli import load_run_config, run_command
from gneva.dataio import load_scenario, to_target_frame, vectorize
from gneva.encoders import EncoderConfig, forward_spatial, init_trajectory_params, load_spatial_model, save_model
from gneva.errors import NonFiniteLoss, ValidationError
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


VERIFY_SUITES = (
    "kl-mean-vs-mc", "kl-wishart-vs-mc", "expected-stats-vs-mc", "prior-evidence-vs-mc", "z-posterior-vs-mc",
    "elbo-bound", "nms-brute-force", "circle-iou-mc-area", "predictive-normalization", "schedule-endpoints",
    "metrics-offsets", "sampler-moments", "gradient-check",
)


@pytest.fixture(scope="module")
def fast_verify():
    """One unpatched `gneva verify --fast` run: its exit code and stdout lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["verify", "--fast"])
    return code, out.getvalue().splitlines()


class TestVerify:
    def test_fast_suites_all_pass(self, fast_verify):
        code, lines = fast_verify
        assert code == 0
        *suites, summary = lines
        assert [line.split(":")[0] for line in suites] == [f"[PASS] {name}" for name in VERIFY_SUITES]
        assert summary == "13/13 oracle suites passed"

    def test_a_wrong_cross_term_in_the_mc_quadratic_form_fails(self, fast_verify, monkeypatch, capsys):
        # Negative control: the MC side's quadratic form with the sign of its cross term flipped.
        def wrong_sign(lams, dx, dy):
            return lams[:, 0] * dx**2 - 2 * lams[:, 1] * dx * dy + lams[:, 2] * dy**2

        def without_timing(lines):
            return {line.split(":")[0].split("] ")[1]: line.rsplit(" (", 1)[0] for line in lines}

        *unpatched, _ = fast_verify[1]
        monkeypatch.setattr(verify, "_quad_form", wrong_sign)
        for check in (verify.check_expectations_vs_mc, verify.check_prior_evidence_vs_mc):
            passed, detail = check(5, 100_000, np.random.default_rng(20240718))  # the --fast sizes
            assert not passed, detail
        assert run_command(["verify", "--fast"]) == 2
        *patched, _ = capsys.readouterr().out.splitlines()
        assert "[FAIL] expected-stats-vs-mc: " in patched[2] and "[FAIL] prior-evidence-vs-mc: " in patched[3]
        # Each suite draws from its own generator: the suites that never reach the
        # quadratic form print what they print without the patch.
        reaching = {"kl-mean-vs-mc", "expected-stats-vs-mc", "prior-evidence-vs-mc", "z-posterior-vs-mc"}
        before, after = without_timing(unpatched), without_timing(patched)
        assert before.keys() == after.keys() == set(VERIFY_SUITES)
        for name in set(VERIFY_SUITES) - reaching:
            assert after[name] == before[name], name


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

        # A prediction file with fewer than k trajectories, and one whose waypoints stop a step short:
        # each costs only its scenario, and its line names the prediction file and the scenario.
        bad_pred.unlink()
        predict = ["predict", *models, "--scenario", str(scenes), "--spacing", "1.0", "--out", str(preds)]
        assert run_command(predict) == 1
        few, short = preds / f"{good[0].stem}.json", preds / f"{good[1].stem}.json"
        doc = json.loads(few.read_text())
        doc["predictions"] = doc["predictions"][:2]
        few.write_text(json.dumps(doc))
        doc = json.loads(short.read_text())
        for prediction in doc["predictions"]:
            prediction["waypoints"] = prediction["waypoints"][:-1]
        short.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_command(eval_argv) == 1
        captured = capsys.readouterr()
        assert "mADE" in captured.out
        assert json.loads(report_path.read_text())["n_scenarios"] == 1
        failures = [json.loads(line) for line in captured.err.splitlines()]
        assert [(f["file"], f["error"]) for f in failures] == [
            (str(scenes / good[0].name), "ValidationError"),
            (str(scenes / good[1].name), "HorizonMismatch"),
            (str(truncated), "ParseError"),
        ]
        assert "need at least k=3 trajectories, got 2" in failures[0]["message"]
        assert "prediction horizon (29, 2) does not match ground truth (30, 2)" in failures[1]["message"]
        for failure, pred, scene in zip(failures, (few, short), good):
            assert str(pred) in failure["message"] and repr(scene.stem) in failure["message"]

    def test_second_scenario_file_with_a_seen_id_is_refused_by_predict(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        good = sorted(data.glob("*.json"))[:2]
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        first = scenes / "a.json"
        first.write_bytes(good[0].read_bytes())
        (scenes / "c.json").write_bytes(good[1].read_bytes())
        predict = ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                   "--scenario", str(scenes), "--spacing", "1.0"]
        assert run_command([*predict, "--out", str(tmp_path / "alone")]) == 0
        doc = json.loads(good[0].read_text())
        for agent in doc["agents"]:  # the same id on a moved scene predicts other waypoints
            for state in agent["states"]:
                state["x"] += 5.0
        second = scenes / "b.json"
        second.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "preds"
        assert run_command([*predict, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "predicted 2 of 3" in captured.out
        failures = [json.loads(line) for line in captured.err.splitlines()]
        assert [(f["file"], f["error"]) for f in failures] == [(str(second), "ValidationError")]
        assert str(first) in failures[0]["message"]
        for path in (tmp_path / "alone").glob("*.json"):
            assert (out / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("scenario_id", ["../escaped", "nul\u0000byte"], ids=["parent-dir", "nul"])
    def test_scenario_id_that_is_no_file_name_costs_only_its_file(self, workspace, tmp_path, capsys, scenario_id):
        root, config, data, spatial, traj = workspace
        good = sorted(data.glob("*.json"))[:2]
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "a.json").write_bytes(good[0].read_bytes())
        doc = json.loads(good[1].read_text())
        doc["scenario_id"] = scenario_id
        bad = scenes / "b.json"
        bad.write_text(json.dumps(doc))
        (scenes / "c.json").write_bytes(good[1].read_bytes())
        out = tmp_path / "preds"
        code = run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                            "--scenario", str(scenes), "--spacing", "1.0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "predicted 2 of 3" in captured.out
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in good)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds", "scenes"]
        (failure,) = [json.loads(line) for line in captured.err.splitlines()]
        assert (failure["file"], failure["error"]) == (str(bad), "ValidationError")
        assert repr(scenario_id) in failure["message"]

    def test_second_file_with_a_seen_id_is_refused_by_eval(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for path in sorted(data.glob("*.json"))[:2]:
            (scenes / path.name).write_bytes(path.read_bytes())
        preds = tmp_path / "preds"
        assert run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                            "--scenario", str(scenes), "--spacing", "1.0", "--out", str(preds)]) == 0
        report_path = tmp_path / "report.json"
        eval_argv = ["eval", "--pred", str(preds), "--data", str(scenes), "--k", "3", "--out", str(report_path)]
        assert run_command(eval_argv) == 0
        report = report_path.read_text()
        capsys.readouterr()

        # A second prediction file for a seen scenario, with other waypoints.
        first_pred = sorted(preds.glob("*.json"))[0]
        doc = json.loads(first_pred.read_text())
        for pred in doc["predictions"]:
            pred["waypoints"] = [[x + 10.0, y] for x, y in pred["waypoints"]]
        second_pred = preds / "zz-copy.json"
        second_pred.write_text(json.dumps(doc))
        # A second scenario file for a seen scenario, which would be scored twice.
        first_scene = sorted(scenes.glob("*.json"))[0]
        second_scene = scenes / "zz-copy.json"
        second_scene.write_bytes(first_scene.read_bytes())

        assert run_command(eval_argv) == 1
        failures = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(f["file"], f["error"]) for f in failures] == [
            (str(second_pred), "ValidationError"),
            (str(second_scene), "ValidationError"),
        ]
        assert str(first_pred) in failures[0]["message"]
        assert str(first_scene) in failures[1]["message"]
        assert report_path.read_text() == report

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


class TestScenarioChecks:
    """A scenario that parses but fails `Scenario.validate` exits 1 naming its file."""

    @pytest.fixture
    def turn_doc(self, tmp_path):
        data = tmp_path / "data"
        assert run_command(["synth", "--kind", "turn", "--n", "1", "--seed", "3", "--out", str(data)]) == 0
        (path,) = data.glob("*.json")
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("command", ["mask-map", "density"])
    def test_missing_target_names_the_file(self, workspace, tmp_path, capsys, turn_doc, command):
        # Without the file name both printed only "error: target_id 'ghost' not present among agents".
        root, config, data, spatial, traj = workspace
        path, doc = turn_doc
        doc["target_id"] = "ghost"
        ghost = tmp_path / "ghost.json"
        ghost.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {
            "mask-map": ["mask-map", "--scenario", str(ghost), "--radius", "5", "--out", str(out)],
            "density": ["density", "--spatial-model", str(spatial), "--scenario", str(ghost), "--out", str(out)],
        }[command]
        capsys.readouterr()
        code, caught = _run_quietly(argv)
        assert code == 1 and caught == [] and not out.exists()
        assert f"{ghost}: target_id 'ghost' not present among agents" in capsys.readouterr().err

    def test_mask_map_refuses_a_repeated_polyline_id(self, tmp_path, capsys, turn_doc):
        # mask-map filters the world-frame map by the kept ids, so a polyline beyond the radius that shared
        # an id with one inside it would survive: 4 kept instead of 3.
        path, doc = turn_doc
        out = tmp_path / "masked.json"
        assert run_command(["mask-map", "--scenario", str(path), "--radius", "1", "--out", str(out)]) == 0
        assert len(load_scenario(out).map) == 3
        for poly in doc["map"]:
            if poly["id"] == "approach-left":
                poly["id"] = "approach-center"
        path.write_text(json.dumps(doc))
        out.unlink()
        capsys.readouterr()
        code, caught = _run_quietly(["mask-map", "--scenario", str(path), "--radius", "1", "--out", str(out)])
        assert code == 1 and caught == [] and not out.exists()
        assert f"{path}: polyline id 'approach-center' is used more than once" in capsys.readouterr().err


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


def _set_state(field, value):
    return lambda doc: doc["agents"][0]["states"][3].__setitem__(field, value)


def _set_first_point(value):
    return lambda doc: doc["map"][1]["points"][0].__setitem__(1, value)


class TestStrictNumbers:
    """Every value of a scenario or prediction file is a JSON number, and steps and horizons are integers."""

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (_set_state("x", "5"), "agent 'target' state 3 'x' must be a number, got '5'"),
            (_set_state("x", True), "agent 'target' state 3 'x' must be a number, got True"),
            (_set_state("heading", False), "agent 'target' state 3 'heading' must be a number, got False"),
            (_set_state("vy", [1.0]), "agent 'target' state 3 'vy' must be a number, got [1.0]"),
            (_set_state("t", "4"), "agent 'target' state 3 't' must be a number, got '4'"),
            (_set_state("t", 12.9), "agent 'target' state 3 't' must be an integer within +-2**53, got 12.9"),
            (_set_state("t", 2**53),
             "agent 'target' state 3 't' must be an integer within +-2**53, got 9007199254740992"),
            (lambda doc: doc.__setitem__("dt", "0.1"), "'dt' must be a number, got '0.1'"),
            (lambda doc: doc.__setitem__("dt", True), "'dt' must be a number, got True"),
            (lambda doc: doc.__setitem__("H", 10.7), "'H' must be an integer, got 10.7"),
            (lambda doc: doc.__setitem__("H", True), "'H' must be an integer, got True"),
            (lambda doc: doc.__setitem__("T", "30"), "'T' must be an integer, got '30'"),
            (lambda doc: doc.__setitem__("T", 29.5), "'T' must be an integer, got 29.5"),
            (_set_first_point("5"), "polyline 'lane0-left' point 0 must be a number, got '5'"),
            (_set_first_point(True), "polyline 'lane0-left' point 0 must be a number, got True"),
        ],
        ids=["x-text", "x-true", "heading-false", "vy-list", "t-text", "t-fraction", "t-2**53", "dt-text",
             "dt-true", "H-fraction", "H-true", "T-text", "T-fraction", "point-text", "point-true"],
    )
    def test_scenario_non_number_exits_1_naming_file_and_field(self, tmp_path, capsys, mutate, named):
        # Each was read as a number (H=10.7 as 10), or a fractional step misreported as non-increasing.
        data = tmp_path / "data"
        assert run_command(["synth", "--kind", "straight", "--n", "1", "--seed", "4", "--out", str(data)]) == 0
        (path,) = data.glob("*.json")
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, caught = _run_quietly(["mask-map", "--scenario", str(path), "--radius", "5",
                                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1 and caught == [] and not (tmp_path / "out.json").exists()
        assert f"{path}: malformed field: {named}" in err, err

    def test_integral_floats_read_as_the_integers(self, tmp_path):
        data = tmp_path / "data"
        assert run_command(["synth", "--kind", "straight", "--n", "1", "--seed", "4", "--out", str(data)]) == 0
        (path,) = data.glob("*.json")
        doc = json.loads(path.read_text())
        doc["H"], doc["T"] = float(doc["H"]), float(doc["T"])
        for state in doc["agents"][0]["states"]:
            state["t"] = float(state["t"])
        floats = tmp_path / "floats.json"
        floats.write_text(json.dumps(doc))
        a, b = load_scenario(path), load_scenario(floats)
        assert (a.H, a.T) == (b.H, b.T) and type(b.H) is int and type(b.T) is int
        assert np.array_equal(a.agents[0].steps, b.agents[0].steps) and b.agents[0].steps.dtype == np.int64
        assert a.agents[0].rows.tobytes() == b.agents[0].rows.tobytes()

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda p: p.__setitem__("goal_log_prob", "-3.5"), "prediction 2 'goal_log_prob' must be a number, got '-"),
            (lambda p: p.__setitem__("goal_log_prob", True), "prediction 2 'goal_log_prob' must be a number, got True"),
            (lambda p: p["waypoints"][4].__setitem__(0, "1.0"), "prediction 2 waypoint 4 must be a number, got '1.0'"),
            (lambda p: p["waypoints"][4].__setitem__(1, False), "prediction 2 waypoint 4 must be a number, got False"),
        ],
        ids=["log-prob-text", "log-prob-true", "waypoint-text", "waypoint-false"],
    )
    def test_prediction_non_number_exits_1_naming_file_and_field(self, workspace, tmp_path, capsys, mutate, named):
        root, config, data, spatial, traj = workspace
        scenario = sorted(data.glob("*.json"))[0]
        preds = tmp_path / "preds"
        preds.mkdir()
        save_predictions(preds / scenario.name, scenario.stem, Predictions(np.zeros((6, 30, 2)), np.zeros(6)))
        doc = json.loads((preds / scenario.name).read_text())
        mutate(doc["predictions"][2])
        (preds / scenario.name).write_text(json.dumps(doc))
        capsys.readouterr()
        code, caught = _run_quietly(["eval", "--pred", str(preds), "--data", str(scenario)])
        assert code == 1 and caught == []
        failures = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert failures[0]["file"] == str(preds / scenario.name) and failures[0]["error"] == "ValidationError"
        assert named in failures[0]["message"]


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

    def test_set_value_nested_too_deep_exits_1_naming_the_key(self, workspace, tmp_path, capsys):
        # json.loads raised RecursionError through the command, a traceback.
        deep = "[" * 10_000 + "]" * 10_000
        code, caught = _run_quietly(["--set", f"train.seed={deep}", "train-spatial", "--data", str(workspace[2]),
                                     "--out", str(tmp_path / "m.json")])
        assert code == 1 and caught == [] and "config train.seed must be an integer" in capsys.readouterr().err

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
            ("traj", "'traj.m1.l1.w' value 0", lambda d: d["params"]["traj.m1.l1.w"].__setitem__(0, "0.5")),
            ("traj", "'traj.m1.l1.w' value 1", lambda d: d["params"]["traj.m1.l1.w"].__setitem__(1, True)),
            ("spatial", "'prior.nu_raw' value 0", lambda d: d["params"]["prior.nu_raw"].__setitem__(0, None)),
        ],
        ids=["string-entry", "object-entry", "string-list", "huge-entry", "n_heads-0", "hidden-negative",
             "hidden-float", "traj-hidden-float", "C-huge", "number-as-text", "number-as-true", "number-as-null"],
    )
    def test_bad_model_exits_1_naming_file_and_key(self, workspace, tmp_path, capsys, which, key, mutate):
        code, caught, bad = _predict_with_mutated_model(workspace, tmp_path, which, mutate)
        err = capsys.readouterr().err
        assert code == 1 and caught == []
        assert f"model {bad}" in err and key in err and "Traceback" not in err


class TestInputRefusals:
    @pytest.mark.parametrize("key, value", [("hidden", 16), ("C", 4)])
    def test_mismatched_model_pair_exits_1_before_any_scenario(self, workspace, tmp_path, capsys, key, value):
        root, config, data, spatial, traj = workspace
        cfg = EncoderConfig(**{**json.loads(traj.read_text())["config"], key: value})
        other = tmp_path / "other-traj.json"
        save_model(other, init_trajectory_params(cfg, horizon=30), cfg)
        code = run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(other),
                            "--scenario", str(tmp_path / "not-read"), "--out", str(tmp_path / "preds")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert str(spatial) in err and str(other) in err and f"encoder.{key}=" in err
        assert not (tmp_path / "preds").exists()

    @staticmethod
    def model_command(workspace, command: str, out: Path) -> list[str]:
        root, config, data, spatial, traj = workspace
        scene = sorted(data.glob("*.json"))[0]
        return {
            "train-traj": ["train-traj", "--data", str(data), "--spatial-model", str(spatial), "--out", str(out)],
            "predict": ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj), "--scenario", str(scene),
                        "--spacing", "2.0", "--out", str(out)],
            "density": ["density", "--spatial-model", str(spatial), "--scenario", str(scene), "--spacing", "2.0",
                        "--out", str(out)],
        }[command]

    @pytest.mark.parametrize("command, key, value, held", [
        ("train-traj", "hidden", 64, 32), ("predict", "L_c", 2, 3), ("density", "C", 6, 3),
    ])
    def test_encoder_key_contradicting_the_model_exits_1_naming_both(
        self, workspace, tmp_path, capsys, command, key, value, held
    ):
        config, spatial = workspace[1], workspace[3]
        out = tmp_path / "out.json"
        code = run_command(["--config", str(config), "--set", f"encoder.{key}={value}",
                            *self.model_command(workspace, command, out)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert f"encoder.{key}={value}" in err and f"encoder.{key}={held}" in err and str(spatial) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "density"])
    def test_encoder_keys_equal_to_the_model_pass(self, workspace, tmp_path, command):
        out = tmp_path / "out.json"
        code = run_command(["--config", str(workspace[1]), "--set", "encoder.L_c=3",
                            *self.model_command(workspace, command, out)])
        assert code == 0 and out.exists()

    def test_one_state_target_exits_1_naming_scenario_target_and_h(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        scenes = tmp_path / "h1"
        assert run_command(["synth", "--kind", "turn", "--n", "2", "--seed", "6", "--H", "1", "--out", str(scenes)]) == 0
        path = sorted(scenes.glob("*.json"))[0]
        doc = json.loads(path.read_text())
        named = f"scenario {doc['scenario_id']!r}: target {doc['target_id']!r}"
        models = ["--spatial-model", str(spatial)]
        commands = {
            "predict": ["predict", *models, "--traj-model", str(traj), "--scenario", str(path),
                        "--out", str(tmp_path / "p.json")],
            "density": ["density", *models, "--scenario", str(path), "--out", str(tmp_path / "d.csv")],
            "train-spatial": ["--config", str(config), "train-spatial", "--data", str(scenes),
                              "--out", str(tmp_path / "m.json")],
        }
        capsys.readouterr()
        for name, argv in commands.items():
            assert run_command(argv) == 1, name
            err = capsys.readouterr().err
            assert named in err and "H=1" in err, (name, err)
        # Scoring reads no history, so eval of the scene still works.
        preds = tmp_path / "preds"
        preds.mkdir()
        save_predictions(preds / path.name, doc["scenario_id"], Predictions(np.zeros((6, 30, 2)), np.zeros(6)))
        assert run_command(["eval", "--pred", str(preds), "--data", str(path)]) == 0

    def test_unwritable_output_path_exits_1_naming_it(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        existing, missing = tmp_path / "a-file", tmp_path / "no-dir"
        existing.write_text("")
        commands = [
            (["predict", "--spatial-model", str(spatial), "--traj-model", str(traj), "--scenario", str(data),
              "--out", str(existing)], existing),
            (["synth", "--kind", "turn", "--n", "1", "--out", str(existing)], existing),
            (["density", "--spatial-model", str(spatial), "--scenario", str(sorted(data.glob("*.json"))[0]),
              "--out", str(missing / "d.csv")], missing / "d.csv"),
            (["--config", str(config), "train-spatial", "--data", str(data), "--out", str(missing / "m.json")],
             missing / "m.json"),
        ]
        for argv, named in commands:
            assert run_command(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(named) in err, (argv, err)

    @pytest.mark.parametrize("command, trainer", [("train-spatial", "train_spatial"), ("train-traj", "train_trajectory")])
    @pytest.mark.parametrize("blocked", ["--out", "--history"])
    def test_unwritable_model_or_history_exits_1_before_training(
        self, workspace, tmp_path, capsys, monkeypatch, command, trainer, blocked
    ):
        root, config, data, spatial, traj = workspace
        calls = []

        def record(*args):
            calls.append(args)
            raise NonFiniteLoss("stopped by the test")

        monkeypatch.setattr(cli, trainer, record)
        outputs = {"--out": tmp_path / "m.json", "--history": tmp_path / "h.csv"}
        outputs[blocked] = tmp_path / "no-dir" / outputs[blocked].name
        argv = ["--config", str(config), command, "--data", str(data)]
        argv += ["--spatial-model", str(spatial)] if command == "train-traj" else []
        argv += [arg for flag, path in outputs.items() for arg in (flag, str(path))]
        code = run_command(argv)
        err = capsys.readouterr().err
        assert calls == [] and code == 1
        assert err.startswith("error: ") and str(outputs[blocked]) in err, err
        assert list(tmp_path.iterdir()) == []  # neither the model nor the history

    def test_unwritable_prediction_file_costs_only_its_scenario(self, workspace, tmp_path, capsys):
        root, config, data, spatial, traj = workspace
        scenes, out = tmp_path / "scenes", tmp_path / "preds"
        scenes.mkdir()
        files = sorted(data.glob("*.json"))[:3]
        for f in files:
            (scenes / f.name).write_bytes(f.read_bytes())
        blocked = out / files[1].name  # a directory where the prediction file goes
        blocked.mkdir(parents=True)
        code = run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                            "--scenario", str(scenes), "--spacing", "1.0", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "predicted 2 of 3" in captured.out
        assert sorted(p.name for p in out.glob("*.json") if p.is_file()) == [files[0].name, files[2].name]
        (failure,) = [json.loads(line) for line in captured.err.splitlines()]
        assert failure["file"] == str(scenes / files[1].name) and str(blocked) in failure["message"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread on one core")
def test_trained_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # With OPENBLAS_NUM_THREADS unset, OpenBLAS used every core and split the map encoder's weight-gradient
    # products (K = the batch's map vectors) across threads, which rounds differently; the package now
    # pins one thread unless the variable is set.
    data = tmp_path / "data"
    assert run_command(["synth", "--kind", "turn", "--n", "48", "--seed", "3", "--out", str(data)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    models = []
    for threads in (None, "1"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else src
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"spatial-{threads}.json"
        subprocess.run([sys.executable, "-m", "gneva.cli", "--set", "train.batch_size=16", "--set", "train.max_steps=8",
                        "--set", "train.warmup_steps=2", "train-spatial", "--data", str(data), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        models.append(out.read_bytes())
    assert models[0] == models[1]
