"""Mutated scenario documents get a documented outcome, never a traceback.

Each example takes one valid scenario document and breaks it in one place:
a dropped field, a value of the wrong type, NaN or Infinity, a huge
integer, a non-increasing step index, or lists of mismatched lengths.
`load_scenario` may accept the result or raise a `GnevaError`; `gneva
predict` on it exits 0, 1 or 2. Hypothesis runs derandomized, so every run
tries the same documents.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gneva.cli import run_command
from gneva.dataio import load_scenario
from gneva.errors import GnevaError

TINY = ["--set", "encoder.hidden=16", "--set", "encoder.n_heads=2", "--set", "encoder.C=2",
        "--set", "train.batch_size=2", "--set", "train.max_steps=2", "--set", "train.warmup_steps=1"]

ODD_VALUES = st.sampled_from(
    [None, True, "x", "", [], {}, [1], {"t": 1}, math.nan, math.inf, -math.inf, 0, -1, 0.5,
     2**31, 2**63, -(2**63) - 1, 10**30, 10**400, 1e308, -1e308, 5e-324]
)
FUZZ = settings(
    derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid merge scene (two agents, six polylines) as a document, and tiny models trained on its kind."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run_command(["synth", "--kind", "merge", "--n", "2", "--seed", "3", "--H", "4", "--T", "5",
                        "--out", str(root / "data")]) == 0
    spatial, traj = root / "spatial.json", root / "traj.json"
    assert run_command([*TINY, "train-spatial", "--data", str(root / "data"), "--out", str(spatial)]) == 0
    assert run_command([*TINY, "train-traj", "--data", str(root / "data"), "--spatial-model", str(spatial),
                        "--out", str(traj)]) == 0
    doc = json.loads(sorted((root / "data").glob("*.json"))[0].read_text())
    return doc, spatial, traj


@st.composite
def mutated(draw, doc):
    """The document with one place broken: a value replaced or dropped, or a step index repeated."""
    doc = copy.deepcopy(doc)
    kind = draw(st.sampled_from(["replace", "drop", "repeat-step"]))
    if kind == "repeat-step":
        states = doc["agents"][draw(st.integers(0, len(doc["agents"]) - 1))]["states"]
        i, j = draw(st.integers(0, len(states) - 1)), draw(st.integers(0, len(states) - 1))
        states[i]["t"] = states[j]["t"]
        return doc
    # Walk down from the root, choosing a key or index at each level, and stop somewhere:
    # at the root 1 time in 20, below it 1 time in 2.
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if not draw(st.integers(0, 19) if parent is None else st.booleans()):
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(ODD_VALUES)
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = draw(ODD_VALUES | st.floats() | st.integers())
    return doc


@given(data=st.data())
@settings(FUZZ, max_examples=300)
def test_load_scenario_raises_only_gneva_errors(base, tmp_path, data):
    doc = data.draw(mutated(base[0]))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        load_scenario(path)
    except GnevaError:
        pass


@given(data=st.data())
@settings(FUZZ, max_examples=80)
def test_predict_exits_with_a_documented_code(base, tmp_path, data, capsys):
    doc, spatial, traj = base
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data.draw(mutated(doc))))
    code = run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
                        "--scenario", str(path), "--spacing", "1.0", "--out", str(tmp_path / "out.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
