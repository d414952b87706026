"""The README's "Python API" example runs as written.

The block is taken from README.md and run on tiny untrained models and one
synthetic scene written under a temporary directory, so a removed export or
a renamed call in the README fails here.
"""

import re
from pathlib import Path

from gneva.dataio import SynthConfig, save_scenario, synth_generate
from gneva.encoders import EncoderConfig, init_spatial_params, init_trajectory_params, save_model

README = Path(__file__).resolve().parent.parent / "README.md"


def api_block() -> str:
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_block_runs(tmp_path, monkeypatch):
    enc = EncoderConfig(hidden=16, n_heads=2, C=2)
    save_model(tmp_path / "spatial.json", init_spatial_params(enc, seed=1), enc)
    save_model(tmp_path / "traj.json", init_trajectory_params(enc, horizon=30, seed=2), enc)
    (tmp_path / "data" / "heldout").mkdir(parents=True)
    scene = synth_generate(SynthConfig(n=1, seed=801), "turn")[0]
    assert scene.scenario_id == "turn-801-0000"
    save_scenario(scene, tmp_path / "data" / "heldout" / "turn-801-0000.json")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(api_block(), "README.md", "exec"), names)
    assert names["topk"].waypoints.shape == (6, 30, 2) and names["topk"].goal_log_probs.shape == (6,)
    assert (tmp_path / "pred.json").exists()
