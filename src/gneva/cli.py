"""Command-line operator surface.

Subcommands: synth, train-spatial, train-traj, predict, eval, density,
mask-map, verify. Configuration comes from an optional JSON file of flat
dotted keys, overridable with --set key=value. Exit codes: 0 success,
1 validation error, 2 numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataio import (
    SynthConfig,
    load_scenario,
    mask_map_by_radius,
    save_scenario,
    synth_generate,
    to_target_frame,
    vectorize,
)
from .encoders import (
    EncoderConfig,
    forward_spatial,
    init_spatial_params,
    init_trajectory_params,
    load_spatial_model,
    load_trajectory_model,
    save_model,
)
from .errors import (
    GnevaError,
    HorizonMismatch,
    MissingHorizonState,
    ParseError,
    RegionTooLarge,
    ValidationError,
)
from .metrics import displacement_metrics
from .sampling import NmsConfig, generate_candidates, scene_region
from .trajectory import (
    load_predictions,
    predict_topk,
    predictions_to_world,
    save_predictions,
)
from .training import TrainConfig, train_spatial, train_trajectory
from . import verify as verify_suites

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
# Errors in the inputs exit 1; every other GnevaError is a numerical failure and exits 2.
INPUT_ERRORS = (ValidationError, ParseError, MissingHorizonState, HorizonMismatch, RegionTooLarge)


# The config's sections: every key is `section.field` of one of these dataclasses.
CONFIG_SECTIONS = {"train": TrainConfig, "encoder": EncoderConfig}


def load_run_config(path: str | None, sets: list[str]) -> dict:
    """Flat dotted-key config from JSON plus --set overrides; a key no section holds is refused."""
    config: dict = {}
    if path:
        try:
            config = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError(f"config {path} is not a JSON object")
    for item in sets:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw  # bare strings pass through
    for key in config:
        section, _, name = key.partition(".")
        cls = CONFIG_SECTIONS.get(section)
        if cls is None or name not in {f.name for f in fields(cls)}:
            raise ValidationError(f"unknown config key {key!r}: keys are train.<field> or encoder.<field>")
    return config


def _dataclass_from_config(cls, prefix: str, config: dict):
    kwargs = {key[len(prefix) + 1 :]: value for key, value in config.items() if key.startswith(prefix + ".")}
    try:
        return cls(**kwargs)
    except ValidationError as exc:  # each config message starts with the field's name
        raise ValidationError(f"config {prefix}.{exc}") from exc


def _load_scenario_paths(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise ValidationError(f"no scenario files in {path}")
        return files
    if not p.exists():
        raise ValidationError(f"scenario path {path} does not exist")
    return [p]


def _check_arg(flag: str, value, ok: bool, rule: str) -> None:
    """Refuse a numeric argument before any work; `ok` is False for nan under every rule."""
    if not ok:
        raise ValidationError(f"{flag} must be {rule}, got {value}")


def _check_spacing(spacing: float) -> None:
    _check_arg("--spacing", spacing, 0.0 < spacing < math.inf, "finite and > 0")


def cmd_synth(args, config) -> int:
    synth_cfg = SynthConfig(n=args.n, seed=args.seed, H=args.H, T=args.T, dt=args.dt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = synth_generate(synth_cfg, args.kind)
    for s in scenarios:
        save_scenario(s, out / f"{s.scenario_id}.json")
    print(f"wrote {len(scenarios)} scenarios to {out}")
    return EXIT_OK


def cmd_train_spatial(args, config) -> int:
    enc_cfg = _dataclass_from_config(EncoderConfig, "encoder", config)
    train_cfg = _dataclass_from_config(TrainConfig, "train", config)
    scenes = [to_target_frame(load_scenario(f))[0] for f in _load_scenario_paths(args.data)]
    tape = init_spatial_params(enc_cfg, seed=train_cfg.seed)
    tape, history = train_spatial(scenes, tape, train_cfg, enc_cfg)
    return _save_trained(args, tape, history, enc_cfg, len(scenes))


def cmd_train_traj(args, config) -> int:
    spatial_tape, enc_cfg = load_spatial_model(args.spatial_model)
    train_cfg = _dataclass_from_config(TrainConfig, "train", config)
    scenes = [to_target_frame(load_scenario(f))[0] for f in _load_scenario_paths(args.data)]
    traj_tape = init_trajectory_params(enc_cfg, horizon=scenes[0].T, seed=train_cfg.seed)
    traj_tape, history = train_trajectory(scenes, spatial_tape, traj_tape, train_cfg, enc_cfg)
    return _save_trained(args, traj_tape, history, enc_cfg, len(scenes))


def _save_trained(args, tape, history, enc_cfg, n_scenes: int) -> int:
    """Write the model to --out and its loss history to --history (default: next to the model)."""
    save_model(args.out, tape, enc_cfg)
    history.write_csv(args.history or (str(args.out) + ".history.csv"))
    print(f"trained on {n_scenes} scenes; final loss {history.losses[-1]:.4f}")
    return EXIT_OK


def _report_failure(path, exc: GnevaError) -> int:
    """Print a file's failure as one JSON line on stderr; return its exit code."""
    failure = {"file": str(path), "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(failure), file=sys.stderr)
    return EXIT_VALIDATION if isinstance(exc, INPUT_ERRORS) else EXIT_NUMERICAL


def cmd_predict(args, config) -> int:
    _check_spacing(args.spacing)
    spatial_tape, enc_cfg = load_spatial_model(args.spatial_model)
    traj_tape, _, horizon = load_trajectory_model(args.traj_model)
    nms_cfg = NmsConfig(radius=args.radius, iou_threshold=args.iou, k=args.k)
    paths = _load_scenario_paths(args.scenario)
    out = Path(args.out)
    one_file = len(paths) == 1 and not out.is_dir() and out.suffix == ".json"
    if not one_file:
        out.mkdir(parents=True, exist_ok=True)
    failures = []
    for path in paths:
        try:
            scenario = load_scenario(path)
            sid = scenario.scenario_id
            if scenario.T != horizon:
                raise HorizonMismatch(
                    f"scenario {sid!r} has T={scenario.T}, the trajectory model predicts {horizon} steps"
                )
            projected, transform = to_target_frame(scenario)
            topk = predict_topk(
                projected, spatial_tape, traj_tape, nms_cfg, enc_cfg, spacing=args.spacing
            )
            target = out if one_file else out / f"{sid}.json"
            save_predictions(target, sid, predictions_to_world(topk, transform))
        except GnevaError as exc:
            # One bad scenario must not cost the others their predictions.
            failures.append(_report_failure(path, exc))
    print(f"predicted {len(paths) - len(failures)} of {len(paths)} scenario(s)")
    return failures[0] if failures else EXIT_OK


def cmd_eval(args, config) -> int:
    _check_arg("--k", args.k, args.k >= 1, ">= 1")
    failures = []
    predictions = {}
    for path in _load_scenario_paths(args.pred):
        try:
            scenario_id, preds = load_predictions(path)
            predictions[scenario_id] = preds
        except GnevaError as exc:
            failures.append(_report_failure(path, exc))
    pred_sets, gts = [], []
    for path in _load_scenario_paths(args.data):
        try:
            scenario = load_scenario(path)
            if scenario.scenario_id not in predictions:
                raise ValidationError(f"no predictions for scenario {scenario.scenario_id!r}")
            gts.append(scenario.future_waypoints())
            pred_sets.append(predictions[scenario.scenario_id].waypoints)
        except GnevaError as exc:
            failures.append(_report_failure(path, exc))
    if pred_sets:
        report = displacement_metrics(pred_sets, gts, k=args.k)
        print(report.to_text())
        if args.out:
            Path(args.out).write_text(report.to_json())
    return failures[0] if failures else EXIT_OK


def emit_density_grid(spatial_tape, enc_cfg, scenario, spacing: float, out_path) -> int:
    """Write the weighted predictive log density over the candidate grid.

    CSV columns x,y,log_density with coordinates mapped back to the world
    frame; byte-identical across runs for identical inputs.
    """
    projected, transform = to_target_frame(scenario)
    fw = forward_spatial(vectorize(projected, enc_cfg), spatial_tape, enc_cfg)
    region = scene_region(projected)
    pool = generate_candidates(fw.mixture(scenario.scenario_id), fw.weights.value, region, spacing)
    world = transform.inverse().apply_points(pool.locations)
    rows = np.column_stack([world, pool.log_probs])
    body = ("%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
    Path(out_path).write_text("x,y,log_density\n" + body)
    return len(pool)


def cmd_density(args, config) -> int:
    _check_spacing(args.spacing)
    spatial_tape, enc_cfg = load_spatial_model(args.spatial_model)
    scenario = load_scenario(args.scenario)
    n_cells = emit_density_grid(spatial_tape, enc_cfg, scenario, args.spacing, args.out)
    print(f"wrote {n_cells} grid cells to {args.out}")
    return EXIT_OK


def cmd_mask_map(args, config) -> int:
    try:
        radius = float(args.radius)
    except ValueError:
        radius = math.nan
    _check_arg("--radius", args.radius, radius >= 0.0, "finite and >= 0, or inf")
    scenario = load_scenario(args.scenario)
    projected, _ = to_target_frame(scenario)
    kept_ids = {p.id for p in mask_map_by_radius(projected, radius).map}
    scenario.map = [p for p in scenario.map if p.id in kept_ids]
    save_scenario(scenario, args.out)
    print(f"kept {len(scenario.map)} map polylines within radius {radius}")
    return EXIT_OK


def cmd_verify(args, config) -> int:
    results = verify_suites.run_all(fast=args.fast)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} oracle suites passed")
    return EXIT_OK if not failed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gneva", description="Goal-based motion prediction pipeline"
    )
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", help="config override"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scenarios")
    p.add_argument("--kind", required=True, choices=["straight", "turn", "merge"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--H", type=int, default=10)
    p.add_argument("--T", type=int, default=30)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-spatial", help="train the goal distribution model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="loss history CSV path")
    p.set_defaults(func=cmd_train_spatial)

    p = sub.add_parser("train-traj", help="train the trajectory completion network")
    p.add_argument("--data", required=True)
    p.add_argument("--spatial-model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="loss history CSV path")
    p.set_defaults(func=cmd_train_traj)

    p = sub.add_parser("predict", help="predict top-k trajectories")
    p.add_argument("--spatial-model", required=True)
    p.add_argument("--traj-model", required=True)
    p.add_argument("--scenario", required=True, help="scenario file or directory")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--iou", type=float, default=0.0)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction file or directory")
    p.add_argument("--data", required=True, help="scenario file or directory")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="export the predictive density grid as CSV")
    p.add_argument("--spatial-model", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("mask-map", help="drop map polylines beyond a radius")
    p.add_argument("--scenario", required=True)
    p.add_argument("--radius", required=True, help="meters, or 'inf'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask_map)

    p = sub.add_parser("verify", help="run the Monte-Carlo and brute-force oracle suites")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_verify)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; the contract wants 64.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        config = load_run_config(args.config, args.set)
        return args.func(args, config)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GnevaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
