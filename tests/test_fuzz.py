"""Bad inputs get a documented outcome, never a traceback or a warning.

Documents: each example takes one valid scenario, model or prediction
document and breaks it in one place: a dropped field, a value of the wrong
type, NaN or Infinity, a huge integer, a non-increasing step index, a
scenario number given as text, a bool or a fractional step or horizon, or
lists of mismatched lengths. The loaders may accept the result or raise a
`GnevaError`, and the command that reads it exits 0, 1 or 2. A scenario
number given as text, a bool or a fraction is always a `ParseError` naming
the file and the field, and a model parameter value given as text, a bool
or null exits 1 naming the file and the parameter.

Files: a scenario, model, prediction or config file that cannot be read,
is not JSON, nests too deep or holds a JSON array exits 1 naming the file.

Arguments: each example runs one subcommand with one numeric flag, or one
`--set` config key, set to zero, a negative, nan, inf, a huge number or a
value of the wrong type; it exits 0, 1, 2 or 64.

Hypothesis runs derandomized, so every run tries the same inputs.
"""

import dataclasses
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gneva.cli import run_command
from gneva.dataio import load_scenario
from gneva.encoders import EncoderConfig, load_spatial_model, load_trajectory_model
from gneva.errors import GnevaError, ParseError
from gneva.training import TrainConfig

TINY = ["--set", "encoder.hidden=16", "--set", "encoder.n_heads=2", "--set", "encoder.C=2",
        "--set", "train.batch_size=2", "--set", "train.max_steps=2", "--set", "train.warmup_steps=1"]

ODD_VALUES = st.sampled_from(
    [None, True, "x", "", [], {}, [1], {"t": 1}, math.nan, math.inf, -math.inf, 0, -1, 0.5,
     2**31, 2**63, -(2**63) - 1, 10**30, 10**400, 1e308, -1e308, 5e-324]
)
# Command-line values: zero, negatives, nan, inf, huge numbers and wrong types.
ODD_ARGS = st.sampled_from(
    ["0", "-1", "-0.5", "nan", "NaN", "inf", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "1e400",
     str(2**31), str(2**63), "1.5", "a", '"a"', "true", "null", "[]", "{}"]
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
    assert run_command(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj), "--scenario",
                        str(root / "data"), "--spacing", "1.0", "--out", str(root / "preds")]) == 0
    return sorted((root / "data").glob("*.json"))[0], spatial, traj, root


def numeric_leaves(doc):
    """(container, key) of every number in a scenario document but its format_version."""
    leaves = [(doc, key) for key in ("dt", "H", "T")]
    leaves += [(state, key) for agent in doc["agents"] for state in agent["states"] for key in state]
    return leaves + [(point, i) for poly in doc["map"] for point in poly["points"] for i in range(len(point))]


def break_a_number(draw, doc):
    """Replace one number of a scenario document by its text or a bool, or a step or horizon by a fraction.

    Returns the key of the value replaced.
    """
    parent, key = draw(st.sampled_from(numeric_leaves(doc)))
    choices = [str(parent[key]), True, False]
    if key in ("t", "H", "T"):
        choices.append(parent[key] + draw(st.sampled_from([0.5, -0.25, 1e-9])))
    parent[key] = draw(st.sampled_from(choices))
    return key


def break_a_parameter(draw, doc):
    """Replace one value of a model document's parameters by its text, true, false or null.

    Returns the parameter's name.
    """
    name = draw(st.sampled_from(sorted(doc["params"])))
    values = doc["params"][name]
    i = draw(st.integers(0, len(values) - 1))
    values[i] = draw(st.sampled_from([str(values[i]), True, False, None]))
    return name


@st.composite
def mutated(draw, path):
    """The JSON document at `path` with one place broken: a value replaced or dropped, a scenario's step
    index repeated or one of its numbers made a string, a bool or a fraction, or a model parameter's value
    made a string, a bool or null."""
    doc = json.loads(path.read_text())
    kinds = ["replace", "drop"] + (["repeat-step"] if "agents" in doc else [])
    kinds += ["non-number"] if "agents" in doc or "params" in doc else []
    kind = draw(st.sampled_from(kinds))
    if kind == "non-number":
        (break_a_number if "agents" in doc else break_a_parameter)(draw, doc)
        return doc
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
@settings(FUZZ, max_examples=100)
def test_load_scenario_refuses_every_non_number_naming_the_file_and_field(base, tmp_path, data):
    doc = json.loads(base[0].read_text())
    key = break_a_number(data.draw, doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as caught:
        load_scenario(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: malformed field: ")
    assert (repr(key) if isinstance(key, str) else "point") in message, message


@given(data=st.data())
@settings(FUZZ, max_examples=80)
def test_predict_exits_with_a_documented_code(base, tmp_path, data, capsys):
    scenario, spatial, traj, _ = base
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data.draw(mutated(scenario))))
    run_clean(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj),
               "--scenario", str(path), "--spacing", "1.0", "--out", str(tmp_path / "out.json")], capsys)


def scale_every_x(factor):
    def mutate(doc):
        for agent in doc["agents"]:
            for state in agent["states"]:
                state["x"] *= factor
    return mutate


def set_first_map_point(doc):
    doc["map"][0]["points"][0][0] = 2e9


def set_one_vy(doc):
    doc["agents"][-1]["states"][2]["vy"] = -5e9


@pytest.mark.parametrize(
    "mutate, named",
    [(scale_every_x(1e300), "agent 'target' has a state beyond"), (scale_every_x(1e12), "agent 'target'"),
     (set_first_map_point, "polyline 'main-center' has points beyond"), (set_one_vy, "has a state beyond")],
    ids=["x-times-1e300", "x-times-1e12", "map-point-2e9", "vy-minus-5e9"],
)
def test_coordinates_beyond_the_bound_exit_1_naming_the_agent_or_polyline(base, tmp_path, capsys, mutate, named):
    # Near the float range the encoders overflowed with numpy warnings, and the error named the wrong cause.
    scenario, spatial, traj, _ = base
    doc = json.loads(scenario.read_text())
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    err = run_clean(["predict", "--spatial-model", str(spatial), "--traj-model", str(traj), "--scenario", str(path),
                     "--spacing", "1.0", "--out", str(tmp_path / "out.json")], capsys, codes=(1,))
    assert named in err and "1e+09" in err, err


def run_clean(argv, capsys, codes=(0, 1, 2)):
    """Run a command; it must exit with one of `codes`, print no traceback and raise no warning.

    Returns what it printed on stderr.
    """
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    err = capsys.readouterr().err
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, err
    assert caught == [], [str(w.message) for w in caught]
    return err


def config_keys(prefix, cls):
    return [f"{prefix}.{f.name}" for f in dataclasses.fields(cls)]


# Each subcommand's numeric flags; the training commands take `--set` config keys instead.
FLAGS = {
    "synth": ["--n", "--seed", "--H", "--T", "--dt"],
    "train-spatial": config_keys("train", TrainConfig) + config_keys("encoder", EncoderConfig),
    "train-traj": config_keys("train", TrainConfig),
    "predict": ["--k", "--radius", "--iou", "--spacing"],
    "eval": ["--k"],
    "density": ["--spacing"],
    "mask-map": ["--radius"],
    "verify": [None],  # no numeric flag: the value is a stray argument
}


def command_argv(base, command, out):
    scenario, spatial, traj, root = base
    data, scenario = root / "data", str(scenario)
    return {
        "synth": ["synth", "--kind", "turn", "--n", "2", "--H", "4", "--T", "5", "--out", out],
        "train-spatial": ["train-spatial", "--data", str(data), "--out", out],
        "train-traj": ["train-traj", "--data", str(data), "--spatial-model", str(spatial), "--out", out],
        "predict": ["predict", "--spatial-model", str(spatial), "--traj-model", str(traj), "--scenario", scenario,
                    "--spacing", "1.0", "--out", out],
        "eval": ["eval", "--pred", str(root / "preds"), "--data", str(data)],
        "density": ["density", "--spatial-model", str(spatial), "--scenario", scenario, "--spacing", "1.0",
                    "--out", out],
        "mask-map": ["mask-map", "--scenario", scenario, "--radius", "5", "--out", out],
        "verify": ["verify"],
    }[command]


@given(data=st.data())
@settings(FUZZ, max_examples=150)
def test_every_subcommand_argument_exits_with_a_documented_code(base, tmp_path, data, capsys):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    flag = data.draw(st.sampled_from(FLAGS[command]))
    value = data.draw(ODD_ARGS)
    argv = command_argv(base, command, str(tmp_path / "out.json"))
    if command.startswith("train"):
        argv = [*TINY, "--set", f"{flag}={value}", *argv]
    else:
        argv += [value] if flag is None else [flag, value]
    run_clean(argv, capsys, codes=(0, 1, 2, 64))


@given(data=st.data())
@settings(FUZZ, max_examples=120)
def test_mutated_model_files_exit_with_a_documented_code(base, tmp_path, data, capsys):
    scenario, spatial, traj, _ = base
    which = data.draw(st.sampled_from(["spatial", "traj"]))
    good = spatial if which == "spatial" else traj
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data.draw(mutated(good))))
    try:
        (load_spatial_model if which == "spatial" else load_trajectory_model)(path)
    except GnevaError:
        pass
    models = {"spatial": str(spatial), "traj": str(traj), which: str(path)}
    run_clean(["predict", "--spatial-model", models["spatial"], "--traj-model", models["traj"], "--scenario",
               str(scenario), "--spacing", "1.0", "--out", str(tmp_path / "out.json")], capsys)


@given(data=st.data())
@settings(FUZZ, max_examples=60)
def test_model_non_number_exits_1_naming_the_file_and_parameter(base, tmp_path, data, capsys):
    # Model files once read "0.5" as 0.5 and true as 1.0, unlike scenario and prediction files.
    scenario, spatial, traj, _ = base
    which = data.draw(st.sampled_from(["spatial", "traj"]))
    doc = json.loads((spatial if which == "spatial" else traj).read_text())
    name = break_a_parameter(data.draw, doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    models = {"spatial": str(spatial), "traj": str(traj), which: str(path)}
    err = run_clean(["predict", "--spatial-model", models["spatial"], "--traj-model", models["traj"], "--scenario",
                     str(scenario), "--spacing", "1.0", "--out", str(tmp_path / "out.json")], capsys, codes=(1,))
    assert f"model {path}: parameter {name!r} value " in err and "must be a number" in err, err


BROKEN_FILES = {
    "directory": lambda path: path.mkdir(),
    "not-utf-8": lambda path: path.write_bytes(b'{"scenario_id": "\x80\x81"}'),
    "not-json": lambda path: path.write_text('{"format_version": 1,\n  not json}'),
    "json-array": lambda path: path.write_text("[1, 2]"),
    "nested-too-deep": lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_FILES))
@pytest.mark.parametrize("kind", ["scenario", "model", "predictions", "config"])
def test_unreadable_or_non_object_files_exit_1_naming_the_file(base, tmp_path, capsys, kind, broken):
    scenario, spatial, traj, root = base
    bad = tmp_path / "bad"
    bad.mkdir()
    path = bad / "file.json"
    BROKEN_FILES[broken](path)
    out = str(tmp_path / "out.json")
    argv = {
        "scenario": ["mask-map", "--scenario", str(path), "--radius", "5", "--out", out],
        "model": ["predict", "--spatial-model", str(path), "--traj-model", str(traj), "--scenario", str(scenario),
                  "--out", out],
        "predictions": ["eval", "--pred", str(bad), "--data", str(root / "data")],
        "config": ["--config", str(path), "synth", "--kind", "turn", "--n", "1", "--out", out],
    }[kind]
    err = run_clean(argv, capsys, codes=(1,))
    assert str(path) in err, err
    if broken == "not-json":
        assert f"{kind} {path}:2: " in err, err


@given(data=st.data())
@settings(FUZZ, max_examples=80)
def test_eval_of_mutated_predictions_exits_with_a_documented_code(base, tmp_path, data, capsys):
    _, _, _, root = base
    preds = tmp_path / "preds"
    preds.mkdir(exist_ok=True)
    first = sorted((root / "preds").glob("*.json"))[0]
    (preds / first.name).write_text(json.dumps(data.draw(mutated(first))))
    run_clean(["eval", "--pred", str(preds), "--data", str(root / "data")], capsys)
