"""Scenario ingestion and preparation.

Defines the canonical scenario schema (agents, map polylines, horizons),
the target-centric rigid projection, vectorization of polylines into
segment features for the encoders, map masking by observation radius, and
a seeded synthetic scenario generator used in place of licensed datasets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MissingHorizonState, ParseError, ValidationError

AGENT_KINDS = ("vehicle", "pedestrian", "cyclist")
MAP_KINDS = ("lane_center", "lane_boundary", "crosswalk", "stop_line")

MAP_VECTOR_WIDTH = 4 + len(MAP_KINDS)  # start, end, one-hot kind
AGENT_VECTOR_WIDTH = 7 + len(AGENT_KINDS)  # start, end, heading, vx, vy, one-hot kind

FORMAT_VERSION = 1


@dataclass
class AgentState:
    t: int
    x: float
    y: float
    heading: float
    vx: float
    vy: float


@dataclass
class AgentTrack:
    id: str
    kind: str
    states: list[AgentState]

    def state_at(self, t: int) -> AgentState | None:
        for s in self.states:
            if s.t == t:
                return s
        return None


@dataclass
class MapPolyline:
    id: str
    kind: str
    points: np.ndarray  # (n, 2)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)


@dataclass
class Scenario:
    scenario_id: str
    dt: float
    H: int
    T: int
    target_id: str
    agents: list[AgentTrack]
    map: list[MapPolyline] = field(default_factory=list)

    def validate(self) -> "Scenario":
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.H < 1 or self.T < 1:
            raise ValidationError(f"horizons must be >= 1, got H={self.H}, T={self.T}")
        target = self.target()
        steps = {s.t for s in target.states}
        missing = [t for t in range(1, self.H + 1) if t not in steps]
        if missing:
            raise ValidationError(
                f"target {self.target_id!r} lacks states for observed steps {missing[:5]}"
            )
        for track in self.agents:
            if track.kind not in AGENT_KINDS:
                raise ValidationError(f"unknown agent kind {track.kind!r} on {track.id!r}")
            ts = [s.t for s in track.states]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValidationError(f"agent {track.id!r} has non-increasing step indices")
            for s in track.states:
                if not all(map(math.isfinite, (s.x, s.y, s.heading, s.vx, s.vy))):
                    raise ValidationError(f"agent {track.id!r} has non-finite state at t={s.t}")
        for poly in self.map:
            if poly.kind not in MAP_KINDS:
                raise ValidationError(f"unknown map kind {poly.kind!r} on {poly.id!r}")
            if poly.points.shape[0] < 2:
                raise ValidationError(f"polyline {poly.id!r} has fewer than 2 points")
            if not np.all(np.isfinite(poly.points)):
                raise ValidationError(f"polyline {poly.id!r} has non-finite points")
        return self

    def target(self) -> AgentTrack:
        for track in self.agents:
            if track.id == self.target_id:
                return track
        raise ValidationError(f"target_id {self.target_id!r} not present among agents")

    def goal(self) -> np.ndarray:
        """Target position at the prediction horizon; the training label."""
        state = self.target().state_at(self.H + self.T)
        if state is None:
            raise ValidationError(
                f"scenario {self.scenario_id!r} has no target state at step H+T"
            )
        return np.array([state.x, state.y])

    def future_waypoints(self) -> np.ndarray:
        """Target positions at steps H+1 .. H+T; ground truth for evaluation."""
        target = self.target()
        out = np.empty((self.T, 2))
        for i, t in enumerate(range(self.H + 1, self.H + self.T + 1)):
            s = target.state_at(t)
            if s is None:
                raise ValidationError(f"scenario {self.scenario_id!r} missing future step {t}")
            out[i] = (s.x, s.y)
        return out


def save_scenario(scenario: Scenario, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "scenario_id": scenario.scenario_id,
        "dt": scenario.dt,
        "H": scenario.H,
        "T": scenario.T,
        "target_id": scenario.target_id,
        "agents": [
            {
                "id": a.id,
                "kind": a.kind,
                "states": [
                    {"t": s.t, "x": s.x, "y": s.y, "heading": s.heading, "vx": s.vx, "vy": s.vy}
                    for s in a.states
                ],
            }
            for a in scenario.agents
        ],
        "map": [
            {"id": p.id, "kind": p.kind, "points": [[float(x), float(y)] for x, y in p.points]}
            for p in scenario.map
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_scenario(path) -> Scenario:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported format_version {doc.get('format_version')!r}"
            )
        scenario = Scenario(
            scenario_id=str(doc["scenario_id"]),
            dt=float(doc["dt"]),
            H=int(doc["H"]),
            T=int(doc["T"]),
            target_id=str(doc["target_id"]),
            agents=[
                AgentTrack(
                    id=str(a["id"]),
                    kind=str(a["kind"]),
                    states=[
                        AgentState(
                            t=int(s["t"]),
                            x=float(s["x"]),
                            y=float(s["y"]),
                            heading=float(s["heading"]),
                            vx=float(s["vx"]),
                            vy=float(s["vy"]),
                        )
                        for s in a["states"]
                    ],
                )
                for a in doc["agents"]
            ],
            map=[
                MapPolyline(id=str(p["id"]), kind=str(p["kind"]), points=p["points"])
                for p in doc["map"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed field: {exc}") from exc
    return scenario.validate()


@dataclass(frozen=True)
class RigidTransform:
    """Rotation by `angle` about the origin followed by translation."""

    angle: float
    tx: float
    ty: float

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        c, s = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + np.array([self.tx, self.ty])

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[c, -s], [s, c]])
        return np.asarray(v, dtype=float) @ rot.T

    def inverse(self) -> "RigidTransform":
        c, s = math.cos(self.angle), math.sin(self.angle)
        return RigidTransform(
            angle=-self.angle,
            tx=-(c * self.tx + s * self.ty),
            ty=-(-s * self.tx + c * self.ty),
        )

    def apply_scenario(self, s: Scenario) -> Scenario:
        agents = []
        for track in s.agents:
            states = []
            for st in track.states:
                px, py = self.apply_points(np.array([[st.x, st.y]]))[0]
                vx, vy = self.apply_vector(np.array([st.vx, st.vy]))
                states.append(
                    AgentState(
                        t=st.t, x=px, y=py, heading=st.heading + self.angle, vx=vx, vy=vy
                    )
                )
            agents.append(AgentTrack(id=track.id, kind=track.kind, states=states))
        polylines = [
            MapPolyline(id=p.id, kind=p.kind, points=self.apply_points(p.points)) for p in s.map
        ]
        return Scenario(
            scenario_id=s.scenario_id,
            dt=s.dt,
            H=s.H,
            T=s.T,
            target_id=s.target_id,
            agents=agents,
            map=polylines,
        )


def target_frame_transform(s: Scenario) -> RigidTransform:
    """World-to-target-frame transform anchored at the step-H target pose."""
    state = s.target().state_at(s.H)
    if state is None:
        raise MissingHorizonState(
            f"target {s.target_id!r} has no state at the observation horizon {s.H}"
        )
    c, sn = math.cos(-state.heading), math.sin(-state.heading)
    return RigidTransform(
        angle=-state.heading,
        tx=-(c * state.x - sn * state.y),
        ty=-(sn * state.x + c * state.y),
    )


def to_target_frame(s: Scenario) -> tuple[Scenario, RigidTransform]:
    """Project everything so the step-H target pose is the origin with zero heading.

    Returns the projected scenario together with the applied transform so
    predictions can be mapped back to the original world frame.
    """
    transform = target_frame_transform(s)
    return transform.apply_scenario(s), transform


@dataclass
class VectorizedScene:
    """Per-polyline segment features ready for the encoders."""

    map_polylines: list[np.ndarray]  # each (n_i, MAP_VECTOR_WIDTH)
    target: np.ndarray  # (n, AGENT_VECTOR_WIDTH)
    surrounding: list[np.ndarray]  # each (n_j, AGENT_VECTOR_WIDTH)
    surrounding_observed: np.ndarray  # bool per surrounding agent, state at step H


def _track_vectors(track: AgentTrack, h: int) -> np.ndarray:
    states = [s for s in track.states if s.t <= h]
    kind_onehot = np.zeros(len(AGENT_KINDS))
    kind_onehot[AGENT_KINDS.index(track.kind)] = 1.0
    rows = []
    for a, b in zip(states, states[1:]):
        rows.append(
            np.concatenate([[a.x, a.y, b.x, b.y, b.heading, b.vx, b.vy], kind_onehot])
        )
    if not rows:
        return np.empty((0, AGENT_VECTOR_WIDTH))
    return np.stack(rows)


def _polyline_vectors(poly: MapPolyline) -> np.ndarray:
    kind_onehot = np.zeros(len(MAP_KINDS))
    kind_onehot[MAP_KINDS.index(poly.kind)] = 1.0
    starts, ends = poly.points[:-1], poly.points[1:]
    return np.hstack([starts, ends, np.tile(kind_onehot, (len(starts), 1))])


def _nearest_first(vector_sets: list[np.ndarray], cap: int) -> list[np.ndarray]:
    """Keep at most `cap` sets, nearest to the target-frame origin first."""
    if len(vector_sets) <= cap:
        return vector_sets
    def distance(vs):
        pts = np.concatenate([vs[:, 0:2], vs[:, 2:4]])
        return float(np.min(np.hypot(pts[:, 0], pts[:, 1])))
    order = sorted(range(len(vector_sets)), key=lambda i: distance(vector_sets[i]))
    keep = sorted(order[:cap])  # preserve original ordering among survivors
    return [vector_sets[i] for i in keep]


def _cap_vectors(vs: np.ndarray, cap: int) -> np.ndarray:
    if len(vs) <= cap:
        return vs
    mids = 0.5 * (vs[:, 0:2] + vs[:, 2:4])
    order = np.argsort(np.hypot(mids[:, 0], mids[:, 1]), kind="stable")
    keep = np.sort(order[:cap])
    return vs[keep]


def vectorize(s: Scenario, cfg) -> VectorizedScene:
    """Break a target-frame scenario into segment vectors per polyline.

    Map polylines become (start, end, one-hot kind) rows; agent histories
    over steps 1..H become (start, end, heading, vx, vy, one-hot kind)
    rows. Counts beyond the config caps are truncated farthest-first.
    """
    map_sets = [_polyline_vectors(p) for p in s.map]
    map_sets = [_cap_vectors(v, cfg.max_vectors_per_polyline) for v in map_sets]
    map_sets = _nearest_first(map_sets, cfg.max_polylines)

    target_vectors = _cap_vectors(_track_vectors(s.target(), s.H), cfg.max_vectors_per_polyline)

    surrounding = []
    observed = []
    others = [a for a in s.agents if a.id != s.target_id]
    for track in others:
        vs = _track_vectors(track, s.H)
        if len(vs) == 0:
            continue
        surrounding.append(_cap_vectors(vs, cfg.max_vectors_per_polyline))
        observed.append(track.state_at(s.H) is not None)
    surrounding = surrounding[: cfg.max_polylines]
    observed = observed[: cfg.max_polylines]
    return VectorizedScene(
        map_polylines=map_sets,
        target=target_vectors,
        surrounding=surrounding,
        surrounding_observed=np.array(observed, dtype=bool),
    )


def _segment_distance_to_origin(p0: np.ndarray, p1: np.ndarray) -> float:
    d = p1 - p0
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.hypot(*p0))
    t = float(np.clip(-(p0 @ d) / denom, 0.0, 1.0))
    nearest = p0 + t * d
    return float(np.hypot(*nearest))


def mask_map_by_radius(s: Scenario, r: float) -> Scenario:
    """Drop map polylines with no segment within radius r of the origin.

    Operates on target-frame scenarios (the disc is centered at the step-H
    target pose, which is the origin). r = 0 removes all map polylines;
    r = inf is the identity.
    """
    if math.isinf(r):
        kept = list(s.map)
    elif r <= 0.0:
        kept = []
    else:
        kept = [
            p
            for p in s.map
            if any(
                _segment_distance_to_origin(p.points[i], p.points[i + 1]) <= r
                for i in range(len(p.points) - 1)
            )
        ]
    return Scenario(
        scenario_id=s.scenario_id,
        dt=s.dt,
        H=s.H,
        T=s.T,
        target_id=s.target_id,
        agents=s.agents,
        map=kept,
    )


@dataclass
class SynthConfig:
    n: int = 100
    seed: int = 0
    H: int = 10
    T: int = 30
    dt: float = 0.1

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"synthetic generator needs n >= 1, got {self.n}")


class _Path:
    """Arc-length parameterized polyline path."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        deltas = np.diff(self.points, axis=0)
        self.seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_lengths)])

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    def point_at(self, s: float) -> np.ndarray:
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self.cum, s, side="right") - 1)
        i = min(i, len(self.seg_lengths) - 1)
        frac = (s - self.cum[i]) / self.seg_lengths[i]
        return self.points[i] + frac * (self.points[i + 1] - self.points[i])

    def heading_at(self, s: float) -> float:
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self.cum, s, side="right") - 1)
        i = min(i, len(self.seg_lengths) - 1)
        d = self.points[i + 1] - self.points[i]
        return math.atan2(d[1], d[0])


def _drive_path(path: _Path, start_s: float, speeds: np.ndarray, dt: float) -> list[AgentState]:
    """March along a path at per-step speeds, emitting one state per step."""
    states = []
    s = start_s
    for step, speed in enumerate(speeds, start=1):
        pos = path.point_at(s)
        heading = path.heading_at(s)
        states.append(
            AgentState(
                t=step,
                x=float(pos[0]),
                y=float(pos[1]),
                heading=heading,
                vx=speed * math.cos(heading),
                vy=speed * math.sin(heading),
            )
        )
        s += speed * dt
    return states


def _offset_polyline(points: np.ndarray, offset: float) -> np.ndarray:
    """Shift a polyline laterally by its local normal; crude but adequate."""
    out = points.copy()
    d = np.gradient(points, axis=0)
    norm = np.hypot(d[:, 0], d[:, 1])
    norm[norm == 0] = 1.0
    normals = np.stack([-d[:, 1] / norm, d[:, 0] / norm], axis=1)
    return out + offset * normals


def _lane_polylines(center: np.ndarray, lane_id: str, half_width: float = 1.75):
    return [
        MapPolyline(id=f"{lane_id}-center", kind="lane_center", points=center),
        MapPolyline(
            id=f"{lane_id}-left", kind="lane_boundary", points=_offset_polyline(center, half_width)
        ),
        MapPolyline(
            id=f"{lane_id}-right",
            kind="lane_boundary",
            points=_offset_polyline(center, -half_width),
        ),
    ]


def _random_world_transform(rng) -> RigidTransform:
    return RigidTransform(
        angle=float(rng.uniform(0.0, 2.0 * math.pi)),
        tx=float(rng.uniform(-200.0, 200.0)),
        ty=float(rng.uniform(-200.0, 200.0)),
    )


def _arc_points(radius: float, sign: float, max_angle: float, n: int = 24) -> np.ndarray:
    phis = np.linspace(0.0, max_angle, n)
    return np.stack([radius * np.sin(phis), sign * radius * (1.0 - np.cos(phis))], axis=1)


def synth_generate(cfg: SynthConfig, kind: str) -> list[Scenario]:
    """Generate seeded synthetic scenarios of one kind.

    straight: constant velocity with Gaussian speed jitter along a straight
    lane. turn: constant-curvature arc after the observation horizon with a
    left/right lane pair and a Bernoulli branch choice. merge: two
    converging lanes with a lead vehicle ahead on the main line.
    """
    if kind not in ("straight", "turn", "merge"):
        raise ValidationError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(cfg.seed)
    scenarios = []
    for i in range(cfg.n):
        canonical = _SYNTH_BUILDERS[kind](cfg, rng, f"{kind}-{cfg.seed}-{i:04d}")
        world = _random_world_transform(rng).apply_scenario(canonical)
        scenarios.append(world.validate())
    return scenarios


def _speeds(rng, cfg: SynthConfig, base: float, jitter: float) -> np.ndarray:
    return base * (1.0 + jitter * rng.standard_normal(cfg.H + cfg.T))


def _synth_straight(cfg: SynthConfig, rng, scenario_id: str) -> Scenario:
    v = rng.uniform(5.0, 10.0)
    total = v * (cfg.H + cfg.T + 10) * cfg.dt
    center = np.stack([np.linspace(-total, total, 40), np.zeros(40)], axis=1)
    path = _Path(center)
    start_s = total - v * cfg.H * cfg.dt  # roughly centers step H at the origin
    target = AgentTrack(
        id="target",
        kind="vehicle",
        states=_drive_path(path, start_s, _speeds(rng, cfg, v, 0.08), cfg.dt),
    )
    scenario = Scenario(
        scenario_id=scenario_id,
        dt=cfg.dt,
        H=cfg.H,
        T=cfg.T,
        target_id="target",
        agents=[target],
        map=_lane_polylines(center, "lane0"),
    )
    return _recenter(scenario)


def _synth_turn(cfg: SynthConfig, rng, scenario_id: str) -> Scenario:
    v = rng.uniform(6.0, 8.0)
    future_len = v * cfg.T * cfg.dt
    sweep = math.radians(rng.uniform(85.0, 95.0))
    radius = future_len / sweep
    branch = 1.0 if rng.random() < 0.5 else -1.0

    approach_len = v * (cfg.H + 4) * cfg.dt
    approach = np.stack([np.linspace(-approach_len, 0.0, 12), np.zeros(12)], axis=1)
    margin = math.radians(15.0)
    left_arc = _arc_points(radius, +1.0, sweep + margin)
    right_arc = _arc_points(radius, -1.0, sweep + margin)

    drive_points = np.concatenate(
        [approach[:-1], left_arc if branch > 0 else right_arc], axis=0
    )
    path = _Path(drive_points)
    target = AgentTrack(
        id="target",
        kind="vehicle",
        states=_drive_path(path, approach_len - v * cfg.H * cfg.dt, np.full(cfg.H + cfg.T, v), cfg.dt),
    )
    polylines = _lane_polylines(approach, "approach")
    polylines += [
        MapPolyline(id="exit-left", kind="lane_center", points=left_arc),
        MapPolyline(id="exit-right", kind="lane_center", points=right_arc),
    ]
    scenario = Scenario(
        scenario_id=scenario_id,
        dt=cfg.dt,
        H=cfg.H,
        T=cfg.T,
        target_id="target",
        agents=[target],
        map=polylines,
    )
    return _recenter(scenario)


def _synth_merge(cfg: SynthConfig, rng, scenario_id: str) -> Scenario:
    v = rng.uniform(4.0, 9.0)
    horizon_len = v * cfg.H * cfg.dt
    total_len = v * (cfg.H + cfg.T + 6) * cfg.dt
    merge_x = rng.uniform(0.25, 0.7) * v * cfg.T * cfg.dt
    angle = math.radians(rng.uniform(8.0, 16.0))

    main = np.stack([np.linspace(-total_len, total_len, 48), np.zeros(48)], axis=1)
    ramp_start_x = merge_x - total_len * math.cos(angle)
    ramp = np.stack(
        [
            np.linspace(ramp_start_x, merge_x, 32),
            -np.linspace(total_len * math.sin(angle), 0.0, 32),
        ],
        axis=1,
    )
    drive_points = np.concatenate([ramp, main[main[:, 0] > merge_x + 1e-6]], axis=0)
    path = _Path(drive_points)
    ramp_path = _Path(ramp)
    start_s = max(ramp_path.length - horizon_len, 0.0)
    target = AgentTrack(
        id="target",
        kind="vehicle",
        states=_drive_path(path, start_s, _speeds(rng, cfg, v, 0.05), cfg.dt),
    )
    lead_speed = v * rng.uniform(0.9, 1.1)
    lead_start = _Path(main).length / 2 + rng.uniform(10.0, 25.0)
    lead = AgentTrack(
        id="lead",
        kind="vehicle",
        states=_drive_path(_Path(main), lead_start, np.full(cfg.H + cfg.T, lead_speed), cfg.dt),
    )
    scenario = Scenario(
        scenario_id=scenario_id,
        dt=cfg.dt,
        H=cfg.H,
        T=cfg.T,
        target_id="target",
        agents=[target, lead],
        map=_lane_polylines(main, "main") + _lane_polylines(ramp, "ramp"),
    )
    return _recenter(scenario)


def _recenter(scenario: Scenario) -> Scenario:
    """Re-express a canonical scene in the frame of its own step-H pose.

    Keeps generator code simple: builders may put step H anywhere; the
    canonical output always has the target at the origin at step H.
    """
    projected, _ = to_target_frame(scenario)
    return projected


_SYNTH_BUILDERS = {
    "straight": _synth_straight,
    "turn": _synth_turn,
    "merge": _synth_merge,
}
