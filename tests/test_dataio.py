import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gneva import dataio
from gneva.dataio import (
    FORMAT_VERSION,
    AgentTrack,
    MapPolyline,
    RigidTransform,
    Scenario,
    SynthConfig,
    load_scenario,
    mask_map_by_radius,
    save_scenario,
    segment_distances,
    synth_generate,
    to_target_frame,
    vectorize,
)
from gneva.encoders import EncoderConfig
from gneva.errors import MissingHorizonState, ParseError, ValidationError
from helpers import drive_path_reference, scenario_json_reference


def minimal_scenario(h=10, t=30):
    steps = np.arange(1, h + t + 1)
    rows = [(float(i), 0.0, 0.0, 10.0, 0.0) for i in steps]
    return Scenario(
        scenario_id="s0",
        dt=0.1,
        H=h,
        T=t,
        target_id="a0",
        agents=[AgentTrack(id="a0", kind="vehicle", steps=steps, rows=rows)],
        map=[MapPolyline(id="l0", kind="lane_center", points=[[-5.0, 0.0], [50.0, 0.0]])],
    )


class TestSchema:
    def test_round_trip_is_identity(self, tmp_path):
        s = minimal_scenario()
        path = tmp_path / "s0.json"
        save_scenario(s, path)
        loaded = load_scenario(path)
        assert loaded.scenario_id == s.scenario_id
        assert loaded.dt == s.dt and loaded.H == s.H and loaded.T == s.T
        assert len(loaded.agents) == 1
        a, b = loaded.agents[0], s.agents[0]
        assert a.steps.tolist() == b.steps.tolist() and a.rows.tolist() == b.rows.tolist()
        assert np.array_equal(loaded.map[0].points, s.map[0].points)

    def test_missing_target_rejected(self, tmp_path):
        s = minimal_scenario()
        s.target_id = "ghost"
        path = tmp_path / "bad.json"
        save_scenario(s, path)
        with pytest.raises(ValidationError, match=f"^{path}: target_id 'ghost' not present among agents$"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.map.append(MapPolyline("l0", "stop_line", [[1.0, 1.0], [2.0, 1.0]])),
             "polyline id 'l0' is used more than once"),
            (lambda s: s.agents.append(AgentTrack("b", "cyclist", [1, 2], np.zeros((2, 5)))),
             "agent id 'b' is used more than once"),
            # A second track carrying the target's id dropped out of `vectorize` with no error.
            (lambda s: s.agents.append(AgentTrack("a0", "pedestrian", [1, 2], np.ones((2, 5)))),
             "agent id 'a0' is used more than once"),
        ],
        ids=["polyline", "agent", "target"],
    )
    def test_repeated_id_is_refused(self, edit, message):
        s = minimal_scenario()
        s.agents.append(AgentTrack("b", "vehicle", [1, 2], np.zeros((2, 5))))
        s.validate()
        edit(s)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            s.validate()

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_wrong_format_version(self, tmp_path):
        s = minimal_scenario()
        path = tmp_path / "v9.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises((ParseError, ValidationError)):
            load_scenario(path)

    @pytest.mark.parametrize(
        "field, value",
        [("x", "east"), ("vy", None), ("t", [1]), ("t", math.inf), ("t", 2**63), ("heading", {})],
        ids=["text", "null", "list-step", "infinite-step", "step-beyond-int64", "object"],
    )
    def test_malformed_state_is_parse_error(self, tmp_path, field, value):
        s = minimal_scenario()
        path = tmp_path / "bad-state.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        doc["agents"][0]["states"][3][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_missing_state_field_is_parse_error(self, tmp_path):
        s = minimal_scenario()
        path = tmp_path / "no-vx.json"
        save_scenario(s, path)
        doc = json.loads(path.read_text())
        del doc["agents"][0]["states"][0]["vx"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_scenario(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.steps.__setitem__(slice(2, 4), [30, 31]), r"observed steps \[3, 4\]$"),
            (lambda a: a.steps.__setitem__(12, 12), "non-increasing step indices"),
            (lambda a: a.rows.__setitem__((slice(15, 20), 3), math.nan), "non-finite state at t=16$"),
            (lambda a: setattr(a, "rows", a.rows[:-1]), "40 steps but 39 states"),
        ],
        ids=["missing-observed", "non-increasing", "first-non-finite", "lengths-differ"],
    )
    def test_validation_names_the_first_failing_state(self, edit, message):
        s = minimal_scenario()
        edit(s.agents[0])
        with pytest.raises(ValidationError, match=message):
            s.validate()

    def test_row_at_returns_the_first_match(self):
        track = AgentTrack(id="a", kind="vehicle", steps=[3, 5, 5], rows=np.arange(15.0).reshape(3, 5))
        assert track.row_at(5).tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]
        assert track.row_at(3).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert track.row_at(4) is None

    def test_goal_is_position_at_h_plus_t(self):
        s = minimal_scenario(h=10, t=30)
        assert s.goal() == pytest.approx([40.0, 0.0])

    def test_horizon_longer_than_the_track_is_refused_before_allocating(self):
        # 10**12 wanted steps would need terabytes; the row count refuses them first.
        s = minimal_scenario(h=10, t=30)
        s.T = 10**12
        with pytest.raises(ValidationError, match="'s0' has T=1000000000000.*only 40 states"):
            s.future_waypoints()

    def test_future_waypoints_of_a_long_track_take_memory_linear_in_its_length(self):
        # A 20,000-state target with T = 19,990: an (n, T) table of step matches would take 400 MB.
        s = minimal_scenario(h=10, t=19_990)
        s.validate()
        tracemalloc.start()
        try:
            out = s.future_waypoints()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (19_990, 2) and out[:, 0].tolist() == list(range(11, 20_001))
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @staticmethod
    def first_match_future(s: Scenario):
        """Each future step's row by a first-match scan of the target track, or the first step with no row."""
        target = next(a for a in s.agents if a.id == s.target_id)
        rows = []
        for t in range(s.H + 1, s.H + s.T + 1):
            for step, row in zip(target.steps.tolist(), target.rows.tolist()):
                if step == t:
                    rows.append(row[:2])
                    break
            else:
                return t
        return np.array(rows)

    def test_future_waypoints_match_a_first_match_scan_on_tracks_with_gaps(self):
        rng = np.random.default_rng(41)
        outcomes = set()
        for _ in range(300):
            h, t = int(rng.integers(1, 6)), int(rng.integers(1, 25))
            later = np.arange(h + 1, h + t + 6)
            kept = later[rng.random(len(later)) >= rng.choice([0.0, 0.05, 0.3])]
            steps = np.concatenate([np.arange(1, h + 1), kept])
            s = minimal_scenario(h=h, t=t)
            s.agents[0] = AgentTrack(id="a0", kind="vehicle", steps=steps, rows=rng.normal(size=(len(steps), 5)))
            s.validate()
            want = self.first_match_future(s)
            if isinstance(want, int):
                outcomes.add("missing")
                message = f"missing future step {want}$" if t <= len(steps) else f"only {len(steps)} states$"
                with pytest.raises(ValidationError, match=message):
                    s.future_waypoints()
            else:
                outcomes.add("found")
                got = s.future_waypoints()
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert outcomes == {"missing", "found"}


class TestTargetFrame:
    def test_target_pose_becomes_origin(self):
        rng = np.random.default_rng(0)
        for s in synth_generate(SynthConfig(n=5, seed=3), "straight"):
            proj, _ = to_target_frame(s)
            x, y, heading, _, _ = proj.target().row_at(proj.H)
            assert abs(x) < 1e-9 and abs(y) < 1e-9
            assert abs(heading % (2 * math.pi)) < 1e-9 or abs(
                heading % (2 * math.pi) - 2 * math.pi
            ) < 1e-9

    def test_inverse_recovers_coordinates(self):
        for s in synth_generate(SynthConfig(n=3, seed=4), "merge"):
            proj, transform = to_target_frame(s)
            back = transform.inverse().apply_scenario(proj)
            for a, b in zip(back.agents, s.agents):
                for sa, sb in zip(a.rows, b.rows):
                    assert sa[0] == pytest.approx(sb[0], abs=1e-9)
                    assert sa[1] == pytest.approx(sb[1], abs=1e-9)
            for pa, pb in zip(back.map, s.map):
                assert np.max(np.abs(pa.points - pb.points)) < 1e-9

    def test_rigid_motion_preserves_distances(self):
        rng = np.random.default_rng(5)
        s = synth_generate(SynthConfig(n=1, seed=6), "turn")[0]
        proj, _ = to_target_frame(s)
        pts_before = np.concatenate([p.points for p in s.map])
        pts_after = np.concatenate([p.points for p in proj.map])
        for _ in range(50):
            i, j = rng.integers(0, len(pts_before), size=2)
            d0 = np.linalg.norm(pts_before[i] - pts_before[j])
            d1 = np.linalg.norm(pts_after[i] - pts_after[j])
            assert d1 == pytest.approx(d0, abs=1e-9)

    def test_array_projection_matches_per_state_reference(self):
        # Each state and map point moved on its own with scalar arithmetic, as the reference.
        rng = np.random.default_rng(7)
        scenes = [
            s for kind in ("straight", "turn", "merge") for s in synth_generate(SynthConfig(n=3, seed=8), kind)
        ]
        short = minimal_scenario()
        short.agents += [
            AgentTrack(id="none", kind="cyclist", steps=[], rows=[]),
            AgentTrack(id="one", kind="pedestrian", steps=short.agents[0].steps[:1], rows=short.agents[0].rows[:1]),
        ]
        mapless = replace(short, map=[])
        for s in scenes + [short, mapless]:
            tx, ty = rng.uniform(-300.0, 300.0, 2).tolist()
            tf = RigidTransform(float(rng.uniform(0.0, 2 * math.pi)), tx, ty)
            c, sn = math.cos(tf.angle), math.sin(tf.angle)
            moved = tf.apply_scenario(s)
            for p, q in zip(s.map, moved.map, strict=True):
                assert (q.id, q.kind) == (p.id, p.kind)
                assert q.points.tolist() == [[c * x - sn * y + tx, sn * x + c * y + ty] for x, y in p.points.tolist()]
            for a, b in zip(s.agents, moved.agents, strict=True):
                assert (b.id, b.kind, b.steps.tolist()) == (a.id, a.kind, a.steps.tolist())
                for (x, y, heading, vx, vy), (bx, by, bheading, bvx, bvy) in zip(a.rows.tolist(), b.rows.tolist()):
                    ref = (
                        c * x - sn * y + tf.tx,
                        sn * x + c * y + tf.ty,
                        c * vx - sn * vy,
                        sn * vx + c * vy,
                    )
                    assert (bx, by, bvx, bvy) == ref
                    assert bheading == heading + tf.angle

    def test_points_land_on_the_same_bits_alone_or_in_any_batch(self):
        # (k, T, 2) points, as predictions hold them: the whole array, every slice and every point alone
        # give the scalar formula's bits.
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = rng.uniform(-500.0, 500.0, (6, 30, 2))
            tx, ty = rng.uniform(-300.0, 300.0, 2).tolist()
            tf = RigidTransform(float(rng.uniform(0.0, 2 * math.pi)), tx, ty)
            c, sn = math.cos(tf.angle), math.sin(tf.angle)
            moved = tf.apply_points(pts)
            assert moved.shape == pts.shape
            ref = [[[c * x - sn * y + tx, sn * x + c * y + ty] for x, y in row] for row in pts.tolist()]
            assert moved.tolist() == ref
            assert tf.apply_points(pts.reshape(-1, 2)).tolist() == moved.reshape(-1, 2).tolist()
            for i in range(len(pts)):
                assert tf.apply_points(pts[i]).tolist() == moved[i].tolist()
                for j in range(pts.shape[1]):
                    assert tf.apply_points(pts[i, j]).tolist() == moved[i, j].tolist()
            a, b = sorted(rng.integers(0, pts.shape[1], 2).tolist())
            assert tf.apply_points(pts[:, a : b + 1]).tolist() == moved[:, a : b + 1].tolist()
            assert tf.apply_points(pts[1::2, ::3]).tolist() == moved[1::2, ::3].tolist()

    def test_a_map_point_and_a_state_at_one_position_land_on_the_same_bits(self):
        rng = np.random.default_rng(29)
        for s in synth_generate(SynthConfig(n=4, seed=31), "turn"):
            # A polyline through every agent position, in the file's own order.
            s.map.append(MapPolyline("through", "lane_center", np.concatenate([a.rows[:, :2] for a in s.agents])))
            projected, _ = to_target_frame(s)
            states = np.concatenate([a.rows[:, :2] for a in projected.agents])
            assert projected.map[-1].points.tolist() == states.tolist()
            rows = np.column_stack([rng.uniform(-1e3, 1e3, (500, 2)), rng.uniform(-4.0, 4.0, (500, 3))])
            tf = dataio.target_frame_transform(s)
            assert tf.apply_states(rows)[:, :2].tolist() == tf.apply_points(rows[:, :2]).tolist()

    def test_target_frame_is_the_inverse_pose_bit_for_bit(self):
        # The former formula, written out: rotate by -heading with cos(-heading) and sin(-heading), then
        # translate by minus the rotated position. libm's cos is even and its sin odd, so it matches
        # RigidTransform(heading, x, y).inverse() exactly, in the target frame and in the generator.
        def pose_frame(x, y, heading):
            c, sn = math.cos(-heading), math.sin(-heading)
            return RigidTransform(angle=-heading, tx=-(c * x - sn * y), ty=-(sn * x + c * y))

        rng = np.random.default_rng(17)
        poses = np.column_stack([rng.uniform(-1e4, 1e4, (2000, 2)), rng.uniform(-10.0, 10.0, 2000)])
        for x, y, heading in poses.tolist() + [[0.0, 0.0, 0.0], [1.0, -2.0, math.pi], [-3.0, 4.0, -math.pi / 2]]:
            assert RigidTransform(heading, x, y).inverse() == pose_frame(x, y, heading)
        cfg = SynthConfig(n=6, seed=19)
        for kind in ("straight", "turn", "merge"):
            builder_rng = np.random.default_rng(cfg.seed)
            for scene in synth_generate(cfg, kind):
                x, y, heading = scene.target().row_at(scene.H)[:3].tolist()
                assert dataio.target_frame_transform(scene) == pose_frame(x, y, heading)
                tracks, polylines = dataio._SYNTH_BUILDERS[kind](cfg, builder_rng)
                canonical = pose_frame(*tracks[0][1][cfg.H - 1, :3].tolist())
                world = dataio._random_world_transform(builder_rng)
                assert [a.rows.tolist() for a in scene.agents] == [
                    world.apply_states(canonical.apply_states(rows)).tolist() for _, rows in tracks
                ]
                assert [p.points.tolist() for p in scene.map] == [
                    world.apply_points(canonical.apply_points(p.points)).tolist() for p in polylines
                ]

    def test_missing_horizon_state(self):
        s = minimal_scenario()
        track = s.agents[0]
        track.steps, track.rows = track.steps[track.steps != s.H], track.rows[track.steps != s.H]
        with pytest.raises(MissingHorizonState):
            to_target_frame(s)


class TestVectorize:
    def test_polyline_vector_count(self):
        s = minimal_scenario()
        cfg = EncoderConfig()
        proj, _ = to_target_frame(s)
        vs = vectorize(proj, cfg)
        assert vs.map_polylines[0].shape == (1, 8)  # 2 points -> 1 vector
        assert vs.target.shape == (s.H - 1, 10)

    def test_single_state_agent_has_no_vectors(self):
        s = minimal_scenario()
        s.agents.append(
            AgentTrack(id="solo", kind="pedestrian", steps=[2], rows=[(1.0, 1.0, 0.0, 0.0, 0.0)])
        )
        proj, _ = to_target_frame(s)
        vs = vectorize(proj, EncoderConfig())
        assert len(vs.surrounding) == 0

    def test_world_frame_invariance(self):
        # Same target-frame scene regardless of the world pose it was saved in.
        from gneva.dataio import RigidTransform

        s = synth_generate(SynthConfig(n=1, seed=7), "merge")[0]
        cfg = EncoderConfig()
        base, _ = to_target_frame(s)
        moved = RigidTransform(angle=1.1, tx=40.0, ty=-3.0).apply_scenario(s)
        again, _ = to_target_frame(moved)
        va, vb = vectorize(base, cfg), vectorize(again, cfg)
        assert np.allclose(va.target, vb.target, atol=1e-9)
        for a, b in zip(va.map_polylines, vb.map_polylines):
            assert np.allclose(a, b, atol=1e-9)

    def test_caps_respected(self):
        s = synth_generate(SynthConfig(n=1, seed=8), "merge")[0]
        proj, _ = to_target_frame(s)
        cfg = EncoderConfig(max_polylines=2, max_vectors_per_polyline=5)
        vs = vectorize(proj, cfg)
        assert len(vs.map_polylines) <= 2
        assert all(len(v) <= 5 for v in vs.map_polylines)
        assert len(vs.target) <= 5


    def test_near_agents_listed_last_are_kept_with_their_flags(self):
        # 65 agents at least 715 m away come first, so keeping the first 64 in file order keeps no near one.
        s = minimal_scenario()
        for j in range(65):
            s.agents.append(AgentTrack(f"far{j}", "vehicle", [9, 10], [(715.0 + j, 0.0, 0.0, 0.0, 0.0)] * 2))
        near = [(f"near{j}", [8, 9] if j % 2 else [9, 10]) for j in range(5)]
        for j, (agent_id, steps) in enumerate(near):
            s.agents.append(AgentTrack(agent_id, "pedestrian", steps, [(0.0, 2.0 + j, 0.0, 0.0, 0.0)] * 2))
        vs = vectorize(s.validate(), EncoderConfig())
        assert len(vs.surrounding) == 64
        assert [v[0, 1] for v in vs.surrounding[-5:]] == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert vs.surrounding_observed[-5:].tolist() == [True, False, True, False, True]
        assert vs.surrounding_observed[:-5].all()

    def test_stop_line_through_the_origin_outranks_nearer_points(self):
        # Its points lie 100 m away, so a nearest-point key keeps the two lanes.
        s = minimal_scenario()
        s.map = [
            MapPolyline("lane5", "lane_center", [[0.0, 5.0], [0.0, 20.0]]),
            MapPolyline("lane8", "lane_center", [[0.0, -8.0], [0.0, -30.0]]),
            MapPolyline("stop", "stop_line", [[-100.0, 0.0], [100.0, 0.0]]),
        ]
        vs = vectorize(s, EncoderConfig(max_polylines=2))
        assert [v[0, 0:4].tolist() for v in vs.map_polylines] == [[0.0, 5.0, 0.0, 20.0], [-100.0, 0.0, 100.0, 0.0]]

    def test_vector_cap_keeps_the_nearest_segments(self):
        # Midpoints 28.6, 14.5 and 99.5 m away, segments 28.3, 1.41 and 1 m: a midpoint key keeps the first two.
        s = minimal_scenario()
        s.map = [MapPolyline("l0", "lane_center", [[20.0, 20.0], [20.0, 21.0], [-1.0, 1.0], [200.0, 1.0]])]
        (kept,) = vectorize(s, EncoderConfig(max_vectors_per_polyline=2)).map_polylines
        assert kept[:, 0:4].tolist() == [[20.0, 21.0, -1.0, 1.0], [-1.0, 1.0, 200.0, 1.0]]

    def test_a_tie_keeps_the_earlier(self):
        # Three polylines 3 m away, of which a nearest-point key keeps l1, and two agents 5 m away.
        s = minimal_scenario()
        s.map = [MapPolyline(f"l{i}", "lane_center", [[3.0, y], [3.0, -y]]) for i, y in enumerate([4.0, 1.0, 2.0])]
        for agent_id, y in (("b0", -5.0), ("b1", 5.0)):
            s.agents.append(AgentTrack(agent_id, "vehicle", [1, 2], [(0.0, y, 0.0, 0.0, 0.0)] * 2))
        vs = vectorize(s, EncoderConfig(max_polylines=1, max_vectors_per_polyline=1))
        assert [v[0, 1] for v in vs.map_polylines] == [4.0] and [v[0, 1] for v in vs.surrounding] == [-5.0]


def reference_distance(p0: np.ndarray, p1: np.ndarray) -> float:
    """Distance from the origin to one segment: the former per-segment formula, kept as the reference."""
    d = p1 - p0
    denom = float(d[0] * d[0] + d[1] * d[1])
    if denom == 0.0:
        return float(np.hypot(*p0))
    t = float(np.clip(-(p0[0] * d[0] + p0[1] * d[1]) / denom, 0.0, 1.0))
    nearest = p0 + t * d
    return float(np.hypot(*nearest))


def reference_mask(s: Scenario, r: float) -> list[str]:
    """Ids of the polylines the former per-segment loop kept."""
    if math.isinf(r):
        return [p.id for p in s.map]
    return [
        p.id
        for p in s.map
        if r > 0.0 and any(reference_distance(a, b) <= r for a, b in zip(p.points[:-1], p.points[1:]))
    ]


class TestMaskMap:
    @pytest.mark.parametrize("kind", ["turn", "straight", "merge"])
    def test_matches_the_per_segment_reference(self, kind):
        scenes = [to_target_frame(s)[0] for s in synth_generate(SynthConfig(n=30, seed=31), kind)]
        for s in scenes:
            for r in (0.0, 0.5, 1.0, 1.75, 2.0, 3.0, 5.0, 10.0, 20.0, math.inf):
                assert [p.id for p in mask_map_by_radius(s, r).map] == reference_mask(s, r), (s.scenario_id, r)

    def test_segment_distances_equal_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(32)
        segments = rng.standard_normal((3000, 4)) * rng.choice([1e-3, 1.0, 50.0, 1e6], size=(3000, 1))
        segments[::7, 2:4] = segments[::7, 0:2]  # points
        segments[1::7] = np.round(segments[1::7])  # small integers: exact ties and zeros
        expected = [reference_distance(row[0:2], row[2:4]) for row in segments]
        assert segment_distances(segments).tolist() == expected

    def test_radius_zero_empties_map(self):
        s, _ = to_target_frame(synth_generate(SynthConfig(n=1, seed=9), "turn")[0])
        assert mask_map_by_radius(s, 0.0).map == []

    def test_infinite_radius_is_identity(self):
        s, _ = to_target_frame(synth_generate(SynthConfig(n=1, seed=10), "turn")[0])
        masked = mask_map_by_radius(s, math.inf)
        assert [p.id for p in masked.map] == [p.id for p in s.map]

    def test_segment_distance_thresholds(self):
        seg = MapPolyline(id="x", kind="lane_center", points=[[3.0, 0.0], [10.0, 0.0]])
        s = minimal_scenario()
        s.map = [seg]
        proj, _ = to_target_frame(s)
        # target at step H is at (10, 0) world; use raw scenario in canonical frame instead
        s2 = Scenario(
            scenario_id="m",
            dt=0.1,
            H=s.H,
            T=s.T,
            target_id="a0",
            agents=s.agents,
            map=[seg],
        )
        # place the disc at the origin by constructing a target-frame scenario directly
        assert len(mask_map_by_radius(s2, 5.0).map) == 1
        assert len(mask_map_by_radius(s2, 2.0).map) == 0

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(11)
        scenes = synth_generate(SynthConfig(n=20, seed=12), "merge")
        for s in scenes:
            proj, _ = to_target_frame(s)
            r1, r2 = sorted(rng.uniform(0.0, 40.0, size=2))
            kept1 = {p.id for p in mask_map_by_radius(proj, r1).map}
            kept2 = {p.id for p in mask_map_by_radius(proj, r2).map}
            assert kept1 <= kept2


COORDS = st.integers(-6, 6).map(float) | st.floats(-60.0, 60.0)  # small integers give ties and point segments


@given(data=st.data())
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
def test_vectorize_under_small_caps_keeps_the_nearest_with_their_flags(data):
    """Random agents and polylines under caps of 2-3: no error or warning, every cap held, flags aligned."""
    h = data.draw(st.integers(2, 6))

    def points(n):
        return data.draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n))

    agents = [AgentTrack("target", "vehicle", np.arange(1, h + 2), [(x, y, 0.0, 1.0, 0.0) for x, y in points(h + 1)])]
    for j in range(1, data.draw(st.integers(0, 7)) + 1):
        steps = sorted(data.draw(st.sets(st.integers(1, h + 2), min_size=1, max_size=h + 2)))
        kind = data.draw(st.sampled_from(dataio.AGENT_KINDS))
        # The heading column names the agent; no distance reads it.
        agents.append(AgentTrack(f"a{j}", kind, steps, [(x, y, float(j), 0.0, 0.0) for x, y in points(len(steps))]))
    polylines = [
        MapPolyline(f"p{i}", data.draw(st.sampled_from(dataio.MAP_KINDS)), points(data.draw(st.integers(2, 6))))
        for i in range(data.draw(st.integers(0, 7)))
    ]
    s = Scenario("fuzz", 0.1, h, 1, "target", agents, polylines).validate()
    caps = data.draw(st.tuples(st.integers(2, 3), st.integers(2, 3)))
    cfg = EncoderConfig(max_polylines=caps[0], max_vectors_per_polyline=caps[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vs = vectorize(s, cfg)
    assert len(vs.map_polylines) <= cfg.max_polylines and len(vs.surrounding) <= cfg.max_polylines
    assert all(len(v) <= cfg.max_vectors_per_polyline for v in [vs.target, *vs.map_polylines, *vs.surrounding])
    assert vs.surrounding_observed.shape == (len(vs.surrounding),)
    owners = [int(v[0, 4]) for v in vs.surrounding]
    assert owners == sorted(set(owners))
    assert vs.surrounding_observed.tolist() == [h in agents[j].steps for j in owners]

    def distance(track):
        states = track.rows[track.steps <= h]
        return min(map(reference_distance, states[:-1, 0:2], states[1:, 0:2]), default=math.inf)

    movers = [j for j in range(1, len(agents)) if distance(agents[j]) < math.inf]
    assert len(owners) == min(len(movers), cfg.max_polylines)
    dropped = [distance(agents[j]) for j in movers if j not in owners]
    assert max(map(distance, (agents[j] for j in owners)), default=0.0) <= min(dropped, default=math.inf)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(SynthConfig(n=4, seed=13), "straight")
        b = synth_generate(SynthConfig(n=4, seed=13), "straight")
        for sa, sb in zip(a, b):
            assert sa.scenario_id == sb.scenario_id
            for ta, tb in zip(sa.agents, sb.agents):
                for x, y in zip(ta.rows, tb.rows):
                    assert (x[0], x[1], x[3], x[4]) == (y[0], y[1], y[3], y[4])

    def test_straight_goal_near_constant_velocity(self):
        for s in synth_generate(SynthConfig(n=10, seed=14), "straight"):
            proj, _ = to_target_frame(s)
            _, _, _, vx, vy = proj.target().row_at(proj.H)
            v = math.hypot(vx, vy)
            expected = v * proj.T * proj.dt
            goal = proj.goal()
            assert abs(goal[0] - expected) < 0.25 * expected
            assert abs(goal[1]) < 2.0

    def test_turn_goals_bimodal(self):
        goals = []
        for s in synth_generate(SynthConfig(n=200, seed=15), "turn"):
            proj, _ = to_target_frame(s)
            goals.append(proj.goal())
        goals = np.array(goals)
        left = goals[goals[:, 1] > 0]
        right = goals[goals[:, 1] < 0]
        assert len(left) > 40 and len(right) > 40
        assert np.linalg.norm(left.mean(axis=0) - right.mean(axis=0)) > 5.0

    def test_all_kinds_validate(self):
        for kind in ("straight", "turn", "merge"):
            scenes = synth_generate(SynthConfig(n=3, seed=16), kind)
            assert len(scenes) == 3
            for s in scenes:
                s.validate()
                assert s.goal() is not None

    def test_n_must_be_positive(self):
        with pytest.raises(ValidationError):
            SynthConfig(n=0, seed=1)

    @pytest.mark.parametrize("kind", ["straight", "turn", "merge"])
    def test_array_march_matches_per_state_reference(self, kind, monkeypatch):
        def fields(scenes):
            return [
                [(t, *row) for t, row in zip(a.steps.tolist(), a.rows.tolist())] for s in scenes for a in s.agents
            ]

        cfgs = [SynthConfig(n=6, seed=seed) for seed in (0, 5, 801)]
        arrays = [fields(synth_generate(cfg, kind)) for cfg in cfgs]
        monkeypatch.setattr(
            dataio,
            "_drive_path",
            lambda path, start_s, speeds, dt: np.array(
                [row[1:] for row in drive_path_reference(path.points, start_s, speeds, dt)]
            ),
        )
        assert arrays == [fields(synth_generate(cfg, kind)) for cfg in cfgs]

    @pytest.mark.parametrize("kind", ["straight", "turn", "merge"])
    def test_array_frames_match_scenario_transforms(self, kind):
        # Each scene built as objects and moved with to_target_frame, then apply_scenario,
        # from the same random draws: the generator's array route must give the same floats.
        cfg = SynthConfig(n=4, seed=11)
        rng = np.random.default_rng(cfg.seed)
        for i, scene in enumerate(synth_generate(cfg, kind)):
            tracks, polylines = dataio._SYNTH_BUILDERS[kind](cfg, rng)
            agents = [AgentTrack(track_id, "vehicle", np.arange(1, len(rows) + 1), rows) for track_id, rows in tracks]
            built = Scenario(scene.scenario_id, cfg.dt, cfg.H, cfg.T, "target", agents, polylines)
            expected = dataio._random_world_transform(rng).apply_scenario(to_target_frame(built)[0])
            assert [(a.steps.tolist(), a.rows.tolist()) for a in scene.agents] == [
                (a.steps.tolist(), a.rows.tolist()) for a in expected.agents
            ], f"{kind} scene {i}"
            assert [(p.id, p.points.tolist()) for p in scene.map] == [(p.id, p.points.tolist()) for p in expected.map]

    def test_march_onto_vertices_and_past_the_end(self):
        # Every step advances exactly 2.5 * 0.4 == 1.0: steps land on the vertices at
        # arc lengths 1, 3 and 5 (the end), and from there on the march is clipped.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [3.0, 2.0]])
        for start_s, speeds in [(0.0, np.full(9, 2.5)), (-0.5, 2.5 + 0.3 * np.sin(np.arange(12.0)))]:
            rows = dataio._drive_path(dataio._Path(points), start_s, speeds, 0.4).tolist()
            assert rows == [list(row[1:]) for row in drive_path_reference(points, start_s, speeds, 0.4)]
        assert rows[0][:2] == [0.0, 0.0]  # clipped at the start
        on_grid = dataio._drive_path(dataio._Path(points), 0.0, np.full(9, 2.5), 0.4)
        assert on_grid[:, :2].tolist() == [
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [2.0, 2.0], [3.0, 2.0], [3.0, 2.0], [3.0, 2.0], [3.0, 2.0]
        ]
        assert on_grid[:, 2].tolist() == [0.0, math.pi / 2, math.pi / 2] + [0.0] * 6

    def test_scenario_file_matches_per_point_writer(self, tmp_path):
        scenes = [s for kind in ("straight", "turn", "merge") for s in synth_generate(SynthConfig(n=2, seed=3), kind)]
        for s in scenes + [minimal_scenario()]:
            path = tmp_path / f"{s.scenario_id}.json"
            save_scenario(s, path)
            assert path.read_text() == scenario_json_reference(s, FORMAT_VERSION)
