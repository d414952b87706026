import json
import os
from pathlib import Path

import numpy as np
import pytest

from gneva.cli import load_run_config, run_command, worker_count
from gneva.dataio import load_scenario
from gneva.errors import ValidationError

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
        merged = load_run_config(str(path), ["train.seed=9", "nms.radius=2.5"])
        assert merged["train.seed"] == 9
        assert merged["encoder.hidden"] == 64
        assert merged["nms.radius"] == 2.5

    def test_bad_set_rejected(self):
        with pytest.raises(ValidationError):
            load_run_config(None, ["no-equals-sign"])

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("GNEVA_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("GNEVA_THREADS")
        assert worker_count() >= 1


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
