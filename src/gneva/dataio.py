"""Scenario ingestion and preparation.

Defines the canonical scenario schema (agents, map polylines, horizons),
the target-centric rigid projection, vectorization of polylines into
segment features for the encoders, map masking by observation radius, and
a seeded synthetic scenario generator used in place of licensed datasets.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import GnevaError, MissingHorizonState, ParseError, ValidationError, check_config_fields

AGENT_KINDS = ("vehicle", "pedestrian", "cyclist")
MAP_KINDS = ("lane_center", "lane_boundary", "crosswalk", "stop_line")

MAP_VECTOR_WIDTH = 4 + len(MAP_KINDS)  # start, end, one-hot kind
AGENT_VECTOR_WIDTH = 7 + len(AGENT_KINDS)  # start, end, heading, vx, vy, one-hot kind

FORMAT_VERSION = 1
# A state's x, y, vx or vy, or a map point, beyond this magnitude is refused, as a
# model parameter beyond it is (`encoders.PARAM_BOUND`): the encoders' products of
# such inputs can overflow.
COORD_BOUND = 1e9


@dataclass
class AgentTrack:
    """One agent's states: step indices `steps (n,)` and rows `(n, 5)` of x, y, heading, vx, vy."""

    id: str
    kind: str
    steps: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.int64).reshape(-1)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, 5)

    def row_at(self, t: int) -> np.ndarray | None:
        """The row of the first state at step t, or None."""
        hit = np.flatnonzero(self.steps == t)
        return self.rows[hit[0]] if hit.size else None


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
        if not 0.0 < self.dt < math.inf:
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        if self.H < 1 or self.T < 1:
            raise ValidationError(f"horizons must be >= 1, got H={self.H}, T={self.T}")
        for what, items in (("agent", self.agents), ("polyline", self.map)):
            repeated = [i for i, n in Counter(x.id for x in items).items() if n > 1]
            if repeated:
                raise ValidationError(f"{what} id {repeated[0]!r} is used more than once")
        target = self.target()
        # Any of the first five missing steps lies within the first len(present) + 5.
        present = set(target.steps.tolist())
        missing = [t for t in range(1, min(self.H, len(present) + 5) + 1) if t not in present][:5]
        if missing:
            raise ValidationError(
                f"target {self.target_id!r} lacks states for observed steps {missing}"
            )
        for track in self.agents:
            if track.kind not in AGENT_KINDS:
                raise ValidationError(f"unknown agent kind {track.kind!r} on {track.id!r}")
            if len(track.steps) != len(track.rows):
                raise ValidationError(f"agent {track.id!r} has {len(track.steps)} steps but {len(track.rows)} states")
            if np.any(track.steps[1:] <= track.steps[:-1]):
                raise ValidationError(f"agent {track.id!r} has non-increasing step indices")
            finite = np.isfinite(track.rows).all(axis=1)
            if not finite.all():
                t = track.steps[np.argmin(finite)]
                raise ValidationError(f"agent {track.id!r} has non-finite state at t={t}")
            bounded = (np.abs(track.rows[:, [0, 1, 3, 4]]) <= COORD_BOUND).all(axis=1)
            if not bounded.all():
                t = track.steps[np.argmin(bounded)]
                raise ValidationError(f"agent {track.id!r} has a state beyond +-{COORD_BOUND:g} at t={t}")
        for poly in self.map:
            if poly.kind not in MAP_KINDS:
                raise ValidationError(f"unknown map kind {poly.kind!r} on {poly.id!r}")
            if poly.points.shape[0] < 2:
                raise ValidationError(f"polyline {poly.id!r} has fewer than 2 points")
            if not np.all(np.isfinite(poly.points)):
                raise ValidationError(f"polyline {poly.id!r} has non-finite points")
            if not np.all(np.abs(poly.points) <= COORD_BOUND):
                raise ValidationError(f"polyline {poly.id!r} has points beyond +-{COORD_BOUND:g}")
        return self

    def target(self) -> AgentTrack:
        for track in self.agents:
            if track.id == self.target_id:
                return track
        raise ValidationError(f"target_id {self.target_id!r} not present among agents")

    def goal(self) -> np.ndarray:
        """Target position at the prediction horizon; the training label."""
        row = self.target().row_at(self.H + self.T)
        if row is None:
            raise ValidationError(
                f"scenario {self.scenario_id!r} has no target state at step H+T"
            )
        return row[:2].copy()

    def future_waypoints(self) -> np.ndarray:
        """Target positions at steps H+1 .. H+T, by bisection in the steps `validate` keeps increasing; ground truth."""
        target = self.target()
        if self.T > len(target.steps):  # refused before a huge T allocates the wanted steps
            raise ValidationError(
                f"scenario {self.scenario_id!r} has T={self.T}, but its target track holds "
                f"only {len(target.steps)} states"
            )
        want = np.arange(self.H + 1, self.H + self.T + 1)
        at = np.minimum(np.searchsorted(target.steps, want), len(target.steps) - 1)
        found = target.steps[at] == want
        if not found.all():
            t = want[np.argmin(found)]
            raise ValidationError(f"scenario {self.scenario_id!r} missing future step {t}")
        return target.rows[at, :2]


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
                    {"t": t, "x": x, "y": y, "heading": heading, "vx": vx, "vy": vy}
                    for t, (x, y, heading, vx, vy) in zip(a.steps.tolist(), a.rows.tolist())
                ],
            }
            for a in scenario.agents
        ],
        "map": [
            {"id": p.id, "kind": p.kind, "points": p.points.tolist()}
            for p in scenario.map
        ],
    }
    Path(path).write_text(json.dumps(doc))


_STATE_KEYS = ("t", "x", "y", "heading", "vx", "vy")
_STATE_FIELDS = operator.itemgetter(*_STATE_KEYS)
_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; a bool is neither
_STEP_BOUND = 2.0**53  # below it a float64 holds every integer, so a step index reads exactly


def read_json_object(path, what: str, error: type[GnevaError], version: int | None = None) -> dict:
    """The JSON object in the `what` file at `path`, whose `format_version` must be `version` when given.

    A file that cannot be read, is not JSON (the message gives the line) or holds another JSON value raises
    `error`, and another version a `ValidationError`; each names the file.
    """
    try:
        raw = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's recursion limit
        raise error(f"{what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} is not a JSON object")
    if version is not None and doc.get("format_version") != version:
        raise ValidationError(f"{what} {path}: unsupported format_version {doc.get('format_version')!r}")
    return doc


def number_table(rows, where) -> np.ndarray:
    """Rows of JSON numbers as a float array; a value of any other type, bools included, is refused.

    The message names the first such value as `where(i, j)`, from its row and column indices.
    """
    if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
        cells = ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row))
        i, j, v = next(cell for cell in cells if type(cell[2]) not in _NUMBER_TYPES)
        raise ValueError(f"{where(i, j)} must be a number, got {v!r}")
    return np.array(rows, dtype=float)


def _scalar(doc: dict, key: str, integer: bool = False):
    """`doc[key]` as a float, or as an int when `integer`; a non-number or a non-integral integer is refused."""
    value = doc[key]
    if type(value) not in _NUMBER_TYPES or (integer and type(value) is float and not value.is_integer()):
        raise ValueError(f"{key!r} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _parse_track(raw) -> AgentTrack:
    """An agent from its JSON object: each state's six fields looked up in one call, all states in one table."""
    track_id, kind = str(raw["id"]), str(raw["kind"])
    states = list(map(_STATE_FIELDS, raw["states"]))
    table = number_table(states, lambda i, j: f"agent {track_id!r} state {i} {_STATE_KEYS[j]!r}").reshape(-1, 6)
    steps = table[:, 0]
    whole = (steps == np.trunc(steps)) & (np.abs(steps) < _STEP_BOUND)
    if not whole.all():
        i = int(np.argmin(whole))
        raise ValueError(f"agent {track_id!r} state {i} 't' must be an integer within +-2**53, got {states[i][0]!r}")
    return AgentTrack(track_id, kind, steps.astype(np.int64), np.ascontiguousarray(table[:, 1:]))


def _parse_polyline(raw) -> MapPolyline:
    poly_id, kind = str(raw["id"]), str(raw["kind"])
    return MapPolyline(poly_id, kind, number_table(raw["points"], lambda i, j: f"polyline {poly_id!r} point {i}"))


def load_scenario(path) -> Scenario:
    doc = read_json_object(path, "scenario", ParseError, FORMAT_VERSION)
    try:
        return Scenario(
            scenario_id=str(doc["scenario_id"]),
            dt=_scalar(doc, "dt"),
            H=_scalar(doc, "H", integer=True),
            T=_scalar(doc, "T", integer=True),
            target_id=str(doc["target_id"]),
            agents=[_parse_track(a) for a in doc["agents"]],
            map=[_parse_polyline(p) for p in doc["map"]],
        ).validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed field: {exc}") from exc


def _split_like(whole: np.ndarray, parts) -> list[np.ndarray]:
    """`whole` cut back into consecutive pieces as long as `parts`, in order."""
    return [whole[end - len(p) : end] for end, p in zip(accumulate(len(p) for p in parts), parts)]


def _turn(angle: float, x, y):
    """(x, y) rotated by `angle` about the origin: x·c − y·s and x·s + y·c, elementwise."""
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class RigidTransform:
    """Rotation by `angle` about the origin followed by translation."""

    angle: float
    tx: float
    ty: float

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        """Points `(..., 2)` of any leading shape moved; each lands on the same bits alone or in any batch."""
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape)
        x, y = _turn(self.angle, pts[..., 0], pts[..., 1])
        out[..., 0], out[..., 1] = x + self.tx, y + self.ty
        return out

    def inverse(self) -> "RigidTransform":
        tx, ty = _turn(-self.angle, self.tx, self.ty)
        return RigidTransform(angle=-self.angle, tx=-tx, ty=-ty)

    def apply_states(self, rows: np.ndarray) -> np.ndarray:
        """(n, 5) rows (x, y, heading, vx, vy): positions moved as points, velocities turned, headings plus `angle`."""
        vx, vy = _turn(self.angle, rows[:, 3], rows[:, 4])
        return np.column_stack([self.apply_points(rows[:, :2]), rows[:, 2] + self.angle, vx, vy])

    def apply_scenario(self, s: Scenario) -> Scenario:
        """Every state and polyline moved; headings turn by `angle`. All tracks go in one call, all polylines in another."""
        rows = self.apply_states(np.concatenate([a.rows for a in s.agents] + [np.empty((0, 5))]))
        points = self.apply_points(np.concatenate([p.points for p in s.map] + [np.empty((0, 2))]))
        track_rows = _split_like(rows, [a.rows for a in s.agents])
        agents = [AgentTrack(a.id, a.kind, a.steps, r) for a, r in zip(s.agents, track_rows)]
        map_points = _split_like(points, [p.points for p in s.map])
        polylines = [MapPolyline(id=p.id, kind=p.kind, points=q) for p, q in zip(s.map, map_points)]
        return replace(s, agents=agents, map=polylines)


def target_frame_transform(s: Scenario) -> RigidTransform:
    """World-to-target-frame transform anchored at the step-H target pose."""
    row = s.target().row_at(s.H)
    if row is None:
        raise MissingHorizonState(
            f"target {s.target_id!r} has no state at the observation horizon {s.H}"
        )
    x, y, heading = row[:3].tolist()
    return RigidTransform(heading, x, y).inverse()


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
    """A row per consecutive pair of states up to step h: start, end, heading, velocity, kind."""
    states = track.rows[track.steps <= h]
    rows = np.zeros((max(len(states) - 1, 0), AGENT_VECTOR_WIDTH))
    rows[:, 0:2] = states[:-1, 0:2]
    rows[:, 2:4] = states[1:, 0:2]
    rows[:, 4:7] = states[1:, 2:5]
    rows[:, 7 + AGENT_KINDS.index(track.kind)] = 1.0
    return rows


def _polyline_vectors(poly: MapPolyline) -> np.ndarray:
    rows = np.zeros((max(len(poly.points) - 1, 0), MAP_VECTOR_WIDTH))
    rows[:, 0:2] = poly.points[:-1]
    rows[:, 2:4] = poly.points[1:]
    rows[:, 4 + MAP_KINDS.index(poly.kind)] = 1.0
    return rows


def segment_distances(vs: np.ndarray) -> np.ndarray:
    """Exact distance from the target-frame origin to each segment; row i of `vs` opens with its start and end.

    The dot products are written out elementwise, `x*dx + y*dy`, so no BLAS fuses their multiply-add and a
    cap or mask decision at a near-tie does not depend on the BLAS build or the CPU.
    """
    p0, d = vs[:, 0:2], vs[:, 2:4] - vs[:, 0:2]
    denom = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    t = np.zeros(len(vs))
    np.divide(-(p0[:, 0] * d[:, 0] + p0[:, 1] * d[:, 1]), denom, out=t, where=denom != 0.0)  # a point: its start
    nearest = p0 + np.clip(t, 0.0, 1.0)[:, None] * d
    return np.hypot(nearest[:, 0], nearest[:, 1])


def _set_distances(vector_sets: list[np.ndarray]) -> np.ndarray:
    """Each non-empty vector set's distance to the origin: that of its nearest segment."""
    starts = np.cumsum([0] + [len(vs) for vs in vector_sets[:-1]])
    return np.minimum.reduceat(segment_distances(np.concatenate(vector_sets)), starts)


def _nearest(distances: np.ndarray, cap: int) -> np.ndarray:
    """Indices of the `cap` nearest items in their original order; of equal distances the earlier is kept."""
    return np.sort(np.argsort(distances, kind="stable")[:cap])


def _cap_sets(items: list, vector_sets: list[np.ndarray], cap: int) -> list:
    """The at most `cap` items whose vector sets lie nearest the origin, in their original order."""
    if len(items) <= cap:
        return items
    return [items[i] for i in _nearest(_set_distances(vector_sets), cap)]


def _cap_vectors(vs: np.ndarray, cap: int) -> np.ndarray:
    """The at most `cap` segments of `vs` nearest the origin, in their original order."""
    return vs if len(vs) <= cap else vs[_nearest(segment_distances(vs), cap)]


def vectorize(s: Scenario, cfg) -> VectorizedScene:
    """Break a target-frame scenario into segment vectors per polyline.

    Map polylines become (start, end, one-hot kind) rows; agent histories
    over steps 1..H become (start, end, heading, vx, vy, one-hot kind)
    rows. Beyond a cap the farthest map polylines, surrounding agents or
    vectors of a polyline or track are dropped, by their exact distance to
    the origin (`segment_distances`; a set's is its nearest segment's).
    Survivors keep their order, and a tie keeps the earlier. A target with
    fewer than two states by step H has no history and is refused.
    """
    cap = cfg.max_vectors_per_polyline
    map_sets = [_polyline_vectors(p) for p in s.map]
    map_sets = [_cap_vectors(v, cap) for v in _cap_sets(map_sets, map_sets, cfg.max_polylines)]

    target_vectors = _cap_vectors(_track_vectors(s.target(), s.H), cap)
    if not len(target_vectors):
        raise ValidationError(f"scenario {s.scenario_id!r}: target {s.target_id!r} has fewer than two states "
                              f"by step H={s.H}; its history needs at least two")

    # Each surrounding agent with a vector by step H, and whether it has a state at H.
    others = [(vs, s.H in a.steps) for a in s.agents if a.id != s.target_id and len(vs := _track_vectors(a, s.H))]
    others = _cap_sets(others, [vs for vs, _ in others], cfg.max_polylines)
    return VectorizedScene(
        map_polylines=map_sets,
        target=target_vectors,
        surrounding=[_cap_vectors(vs, cap) for vs, _ in others],
        surrounding_observed=np.array([seen for _, seen in others], dtype=bool),
    )


def mask_map_by_radius(s: Scenario, r: float) -> Scenario:
    """Drop map polylines whose nearest segment lies beyond radius r of the origin.

    Operates on target-frame scenarios (the disc is centered at the step-H
    target pose, which is the origin). r = 0 removes all map polylines;
    r = inf is the identity.
    """
    if r <= 0.0 or not s.map:
        return replace(s, map=[])
    near = _set_distances([_polyline_vectors(p) for p in s.map]) <= r
    return replace(s, map=[p for p, keep in zip(s.map, near.tolist()) if keep])


SYNTH_CAP = 1_000_000  # most scenes, and most steps H + T a scene, of one synth call; as the grid's cell cap


@dataclass
class SynthConfig:
    n: int = 100
    seed: int = 0
    H: int = 10
    T: int = 30
    dt: float = 0.1

    def __post_init__(self):
        check_config_fields(self)
        if not 0.0 < self.dt <= 10.0:  # checked before the march multiplies by it
            raise ValidationError(f"dt must lie in (0, 10] seconds, got {self.dt}")
        if max(self.n, self.H + self.T) > SYNTH_CAP:  # refused before allocating
            raise ValidationError(f"n and H + T must be <= {SYNTH_CAP}, got n={self.n}, H={self.H}, T={self.T}")


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


def _drive_path(path: _Path, start_s: float, speeds: np.ndarray, dt: float) -> np.ndarray:
    """March along a path at per-step speeds: one (x, y, heading, vx, vy) row per step.

    The state at step k (from 1) sits at arc length start_s + speeds[0] * dt
    + ... + speeds[k - 2] * dt, added left to right and clamped to the path;
    the direction of the segment there sets the heading and velocity.
    """
    s = np.clip(np.cumsum(np.concatenate([[start_s], speeds[:-1] * dt])), 0.0, path.length)
    seg = np.minimum(np.searchsorted(path.cum, s, side="right") - 1, len(path.seg_lengths) - 1)
    frac = (s - path.cum[seg]) / path.seg_lengths[seg]
    delta = path.points[seg + 1] - path.points[seg]
    pos = path.points[seg] + frac[:, None] * delta
    # math, not numpy, trig: np.arctan2/cos/sin may differ from libm in the last bit.
    headings = [math.atan2(dy, dx) for dx, dy in delta.tolist()]
    vel = [(v * math.cos(h), v * math.sin(h)) for v, h in zip(speeds.tolist(), headings)]
    return np.column_stack([pos, headings, np.reshape(vel, (-1, 2))])


def _offset_polyline(points: np.ndarray, offset: float) -> np.ndarray:
    """Shift a polyline laterally by its local normal; crude but adequate."""
    out = points.copy()
    d = np.gradient(points, axis=0)
    norm = np.hypot(d[:, 0], d[:, 1])
    norm[norm == 0] = 1.0
    normals = np.stack([-d[:, 1] / norm, d[:, 0] / norm], axis=1)
    return out + offset * normals


def _lane_polylines(center: np.ndarray, lane_id: str):
    return [
        MapPolyline(id=f"{lane_id}-center", kind="lane_center", points=center),
        MapPolyline(
            id=f"{lane_id}-left", kind="lane_boundary", points=_offset_polyline(center, 1.75)
        ),
        MapPolyline(
            id=f"{lane_id}-right",
            kind="lane_boundary",
            points=_offset_polyline(center, -1.75),
        ),
    ]


def _random_world_transform(rng) -> RigidTransform:
    return RigidTransform(
        angle=float(rng.uniform(0.0, 2.0 * math.pi)),
        tx=float(rng.uniform(-200.0, 200.0)),
        ty=float(rng.uniform(-200.0, 200.0)),
    )


def _arc_points(radius: float, sign: float, max_angle: float) -> np.ndarray:
    phis = np.linspace(0.0, max_angle, 24)
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
        tracks, polylines = _SYNTH_BUILDERS[kind](cfg, rng)
        # The builder may put step H anywhere: move the scene into the frame of the
        # target's step-H pose (the first track's), then to a random world pose.
        x, y, heading = tracks[0][1][cfg.H - 1, :3].tolist()
        canonical = RigidTransform(heading, x, y).inverse()
        world = _random_world_transform(rng)
        agents = [
            AgentTrack(
                track_id, "vehicle", np.arange(1, len(rows) + 1), world.apply_states(canonical.apply_states(rows))
            )
            for track_id, rows in tracks
        ]
        polylines = [replace(p, points=world.apply_points(canonical.apply_points(p.points))) for p in polylines]
        scenario_id = f"{kind}-{cfg.seed}-{i:04d}"
        scenarios.append(Scenario(scenario_id, cfg.dt, cfg.H, cfg.T, tracks[0][0], agents, polylines).validate())
    return scenarios


def _speeds(rng, cfg: SynthConfig, base: float, jitter: float) -> np.ndarray:
    return base * (1.0 + jitter * rng.standard_normal(cfg.H + cfg.T))


def _synth_straight(cfg: SynthConfig, rng):
    v = rng.uniform(5.0, 10.0)
    total = v * (cfg.H + cfg.T + 10) * cfg.dt
    center = np.stack([np.linspace(-total, total, 40), np.zeros(40)], axis=1)
    path = _Path(center)
    start_s = total - v * cfg.H * cfg.dt  # roughly centers step H at the origin
    target = _drive_path(path, start_s, _speeds(rng, cfg, v, 0.08), cfg.dt)
    return [("target", target)], _lane_polylines(center, "lane0")


def _synth_turn(cfg: SynthConfig, rng):
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
    target = _drive_path(path, approach_len - v * cfg.H * cfg.dt, np.full(cfg.H + cfg.T, v), cfg.dt)
    polylines = _lane_polylines(approach, "approach")
    polylines += [
        MapPolyline(id="exit-left", kind="lane_center", points=left_arc),
        MapPolyline(id="exit-right", kind="lane_center", points=right_arc),
    ]
    return [("target", target)], polylines


def _synth_merge(cfg: SynthConfig, rng):
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
    target = _drive_path(path, start_s, _speeds(rng, cfg, v, 0.05), cfg.dt)
    lead_speed = v * rng.uniform(0.9, 1.1)
    lead_start = _Path(main).length / 2 + rng.uniform(10.0, 25.0)
    lead = _drive_path(_Path(main), lead_start, np.full(cfg.H + cfg.T, lead_speed), cfg.dt)
    polylines = _lane_polylines(main, "main") + _lane_polylines(ramp, "ramp")
    return [("target", target), ("lead", lead)], polylines


_SYNTH_BUILDERS = {
    "straight": _synth_straight,
    "turn": _synth_turn,
    "merge": _synth_merge,
}
