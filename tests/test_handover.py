import math
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from camchain import handover
from camchain.errors import CausalityError, ConfigError, MalformedInputError
from camchain.formats import load_json, scenario_from_dict
from camchain.geometry import Point2, Polygon, Zone
from camchain.handover import (
    BufferEntry,
    EventKind,
    HandoverEngine,
    MatcherConfig,
    MatchStrategy,
)
from camchain.kinematics import (
    DEFAULT_SPEED_WINDOW,
    Calibration,
    estimate_heading,
    estimate_speed,
    motion_status,
)
from camchain.pipeline import run_scenario
from camchain.simulator import NoiseConfig, run_sim
from camchain.sync import BarrierConfig, Snapshot, SyncBarrier
from camchain.topology import CameraNode, EdgeDef, TopologyGraph
from camchain.tracks import TrackState
from helpers import (
    FPS, LAM, chain_graph, drive, gapped_graph, rect, road, snap, ts, two_cam_graph,
)


def make_engine(strategy=MatchStrategy.LATERAL_AWARE, **kw):
    g = two_cam_graph()
    defaults = dict(dt_window=2.0, eps_lat=0.15, eps_time=30.0, strategy=strategy)
    defaults.update(kw)
    return HandoverEngine(g, MatcherConfig(**defaults))


def preload(eng):
    """Two parked ids on the eastbound buffer, distinct lanes."""
    buf = eng.buffer((1, 2), Zone.UPPER)
    buf.push(BufferEntry(global_id=5, camera_id=1, local_id=1, t_exit=10.0, y_rel=0.20, seq=1))
    buf.push(BufferEntry(global_id=7, camera_id=1, local_id=2, t_exit=10.1, y_rel=0.80, seq=2))
    return buf


class TestMatcherConfig:
    def test_defaults(self):
        m = MatcherConfig()
        assert m.dt_window == 4.0
        assert m.eps_lat == 0.12
        assert m.eps_time == 30.0
        assert m.eps_dist is None
        assert m.strategy is MatchStrategy.LATERAL_AWARE

    def test_timeout_cannot_undercut_window(self):
        with pytest.raises(ConfigError) as ei:
            MatcherConfig(dt_window=4.0, eps_time=2.0)
        assert "2.0" in str(ei.value) and "4.0" in str(ei.value)
        MatcherConfig(dt_window=4.0, eps_time=4.0)  # equal is allowed

    def test_positive_gates(self):
        with pytest.raises(ConfigError):
            MatcherConfig(dt_window=0.0)
        with pytest.raises(ConfigError):
            MatcherConfig(eps_lat=0.0)
        with pytest.raises(ConfigError):
            MatcherConfig(eps_dist=-1.0)


class TestBufferQueries:
    def test_lateral_picks_nearest_inside_gate(self):
        eng = make_engine()
        buf = preload(eng)
        # 0.75 vs stored 0.80: residual 0.05; the 0.20 entry misses the gate
        got = eng.query_match((1, 2), Zone.UPPER, t=10.5, y_rel=0.75)
        assert got is not None and got.global_id == 7
        assert [e.global_id for e in buf.entries] == [5]

    def test_lateral_rejects_when_best_residual_at_gate(self):
        eng = make_engine()
        buf = preload(eng)
        # equidistant at 0.30 from both entries, gate is 0.15: no match
        assert eng.query_match((1, 2), Zone.UPPER, t=10.5, y_rel=0.50) is None
        assert len(buf) == 2

    def test_strict_fifo_pops_oldest(self):
        eng = make_engine(MatchStrategy.STRICT_FIFO)
        preload(eng)
        got = eng.query_match((1, 2), Zone.UPPER, t=10.5, y_rel=0.50)
        assert got is not None and got.global_id == 5

    def test_recency_window(self):
        eng = make_engine()
        buf = eng.buffer((1, 2), Zone.UPPER)
        buf.push(BufferEntry(global_id=3, camera_id=1, local_id=1, t_exit=5.0, y_rel=0.5, seq=1))
        # age 3.0 with a 2 s window: stale
        assert eng.query_match((1, 2), Zone.UPPER, t=8.0, y_rel=0.5) is None
        # age 1.9: fine
        assert eng.query_match((1, 2), Zone.UPPER, t=6.9, y_rel=0.5).global_id == 3

    def test_queries_never_look_into_the_future(self):
        eng = make_engine()
        buf = eng.buffer((1, 2), Zone.UPPER)
        buf.push(BufferEntry(global_id=3, camera_id=1, local_id=1, t_exit=10.0, y_rel=0.5, seq=1))
        assert eng.query_match((1, 2), Zone.UPPER, t=9.9, y_rel=0.5) is None

    def test_zone_isolation(self):
        eng = make_engine()
        preload(eng)
        assert eng.query_match((1, 2), Zone.LOWER, t=10.5, y_rel=0.75) is None
        assert len(eng.buffer((1, 2), Zone.UPPER)) == 2

    def test_repush_supersedes_and_moves_to_tail(self):
        eng = make_engine(MatchStrategy.STRICT_FIFO)
        buf = eng.buffer((1, 2), Zone.UPPER)
        buf.push(BufferEntry(global_id=5, camera_id=1, local_id=1, t_exit=1.0, y_rel=0.5, seq=1))
        buf.push(BufferEntry(global_id=9, camera_id=1, local_id=2, t_exit=2.0, y_rel=0.5, seq=2))
        buf.push(BufferEntry(global_id=5, camera_id=1, local_id=1, t_exit=3.0, y_rel=0.5, seq=3))
        assert [e.global_id for e in buf.entries] == [9, 5]
        assert buf.entries[1].t_exit == 3.0
        got = eng.query_match((1, 2), Zone.UPPER, t=3.5, y_rel=0.5)
        assert got.global_id == 9  # 5 lost its place in line

    def test_unknown_buffer(self):
        with pytest.raises(ConfigError, match="no buffer"):
            make_engine().buffer((2, 1), Zone.UPPER)


class TestOptionalGates:
    def entry(self, **kw):
        d = dict(
            global_id=4, camera_id=1, local_id=1, t_exit=10.0, y_rel=0.5, seq=1,
            pos=Point2(15.0, -2.0),
        )
        d.update(kw)
        return BufferEntry(**d)

    def test_position_gate(self):
        eng = make_engine(eps_dist=5.0)
        eng.buffer((1, 2), Zone.UPPER).push(self.entry())
        q = dict(t=10.5, y_rel=0.5)
        assert eng.query_match((1, 2), Zone.UPPER, pos=None, **q) is None
        assert eng.query_match((1, 2), Zone.UPPER, pos=Point2(30.0, -2.0), **q) is None
        assert eng.query_match((1, 2), Zone.UPPER, pos=Point2(16.0, -2.0), **q).global_id == 4

    def test_position_gate_fails_closed_without_stored_pos(self):
        eng = make_engine(eps_dist=5.0)
        eng.buffer((1, 2), Zone.UPPER).push(self.entry(pos=None))
        assert eng.query_match((1, 2), Zone.UPPER, t=10.5, y_rel=0.5, pos=Point2(15, -2)) is None


class TestTimeout:
    def test_boundary_is_inclusive(self):
        eng = make_engine()  # eps_time 30
        buf = eng.buffer((1, 2), Zone.UPPER)
        buf.push(BufferEntry(global_id=2, camera_id=1, local_id=1, t_exit=0.0, y_rel=0.5, seq=1))
        assert eng.expire(29.9) == []
        assert len(buf) == 1
        out = eng.expire(30.0)
        assert len(out) == 1
        ev = out[0]
        assert ev.kind is EventKind.EXPIRED
        assert ev.global_id == 2 and ev.age == 30.0 and ev.edge == (1, 2)
        assert len(buf) == 0
        assert eng.counts["expired"] == 1
        assert eng.events[-1] is ev

    def test_expire_stamps_last_processed_frame(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        eng.process_snapshot(snap(4, {1: [(1, 15.0, -2.0)]}))
        eng.buffer((1, 2), Zone.UPPER).push(
            BufferEntry(global_id=50, camera_id=1, local_id=9, t_exit=0.0, y_rel=0.5, seq=99)
        )
        out = eng.expire(100.0)
        assert out[0].frame_index == 4
        out2 = HandoverEngine(g).expire(100.0)
        assert out2 == []  # nothing buffered, nothing to report


BUFFER_KEYS = [((1, 2), Zone.UPPER), ((1, 2), Zone.LOWER)]

# One step on a two-buffer engine: (action, buffer, global id, seconds on)
_LEDGER_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "remove", "sweep", "expire"]),
        st.integers(0, 1),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.0, 1.0, 12.5, 30.0]),
    ),
    max_size=60,
)


class TestBufferLedger:
    def test_total_buffered_is_the_sum_after_every_snapshot(self, fixtures_dir):
        cfg = replace(
            scenario_from_dict(load_json(fixtures_dir / "scenario_freeflow.json")),
            noise=NoiseConfig(dropout_rate=0.01, pos_sigma_px=2.0, sync_jitter_frames=5),
        )
        sim = run_sim(cfg, 7)
        eng = HandoverEngine(sim.topology)
        ttl = eng.matcher.eps_time
        bufs = [eng.buffer(e.key, z) for e in sim.topology.edges for z in Zone]
        barrier = SyncBarrier(BarrierConfig(camera_ids=sim.topology.camera_ids))
        snapshots = peak = 0
        for u in sim.updates:
            barrier.ingest(u)
            for s in barrier.drain():
                eng.process_snapshot(s)
                snapshots += 1
                total = eng.total_buffered()
                assert total == sum(len(b) for b in bufs)
                peak = max(peak, total)
                # the sweep was skipped only when nothing was due
                assert all(s.t - e.t_exit < ttl for b in bufs for e in b)
        assert snapshots == sim.frame_count
        assert peak > 0 and eng.counts["expired"] > 0

    @given(_LEDGER_STEPS)
    def test_direct_push_remove_and_sweep_keep_count_and_expiry(self, steps):
        eng = make_engine()  # eps_time 30
        bufs = [eng.buffer(*k) for k in BUFFER_KEYS]
        now, seq = 0.0, 0
        for action, i, gid, dt in steps:
            now += dt
            buf = bufs[i]
            if action == "push":
                seq += 1
                buf.push(BufferEntry(gid, 1, gid, now, 0.5, seq))
            elif action == "remove" and len(buf):
                buf.remove(next(iter(buf)))
            elif action == "sweep":
                due = [e for e in buf if now - e.t_exit >= 30.0]
                assert buf.sweep_expired(now, 30.0) == due
            elif action == "expire":
                due = {(b.edge_key, e.global_id) for b in bufs for e in b if now - e.t_exit >= 30.0}
                assert {(ev.edge, ev.global_id) for ev in eng.expire(now)} == due
                assert all(now - e.t_exit < 30.0 for b in bufs for e in b)
            assert eng.total_buffered() == sum(len(b) for b in bufs)


class TestSnapshotValidation:
    def test_duplicate_local_id_rejected(self):
        eng = make_engine()
        tr = ts(1, 1, 0.0, 5.0, -2.0)
        bad = Snapshot(frame_index=0, t=0.0, per_camera={1: (tr, tr)})
        with pytest.raises(MalformedInputError, match="twice"):
            eng.process_snapshot(bad)

    def test_unknown_camera_is_a_config_error(self):
        eng = make_engine()
        with pytest.raises(ConfigError, match="frame 3 names camera 7"):
            eng.process_snapshot(snap(3, {1: [(1, 15.0, -2.0)], 7: [(1, 15.0, -2.0)]}))
        assert eng.gids_minted == 0 and eng.trajectories == {}
        eng.process_snapshot(snap(3, {1: [(1, 15.0, -2.0)]}))  # the frame is still free

    def test_track_of_another_camera_rejected(self):
        eng = make_engine()
        # filed under camera 1, but the row says camera 2
        tracks = (ts(1, 1, 0.0, 5.0, -2.0), ts(2, 2, 0.0, 15.0, -2.0))
        bad = Snapshot(frame_index=0, t=0.0, per_camera={1: tracks})
        match = "camera 1 reports a track of camera 2 in frame 0"
        with pytest.raises(MalformedInputError, match=match):
            eng.process_snapshot(bad)
        assert eng.gids_minted == 0 and eng.trajectories == {}
        eng.process_snapshot(snap(0, {1: [(1, 5.0, -2.0)]}))  # the frame is still free

    def test_frames_must_advance(self):
        eng = make_engine()
        eng.process_snapshot(snap(1, {1: [(1, 5.0, -2.0)]}))
        with pytest.raises(CausalityError):
            eng.process_snapshot(snap(1, {1: [(1, 6.0, -2.0)]}))
        with pytest.raises(CausalityError):
            eng.process_snapshot(snap(0, {1: [(1, 6.0, -2.0)]}))
        eng.process_snapshot(snap(5, {1: [(1, 6.0, -2.0)]}))  # gaps are fine

    def test_time_must_not_go_back(self):
        eng = make_engine()
        tr = ts(1, 1, 0.5, 5.0, -2.0)
        eng.process_snapshot(Snapshot(frame_index=5, t=0.5, per_camera={1: (tr,)}))
        eng.process_snapshot(Snapshot(frame_index=6, t=0.5, per_camera={1: ()}))  # equal is fine
        with pytest.raises(CausalityError, match="before"):
            eng.process_snapshot(Snapshot(frame_index=7, t=0.4, per_camera={1: ()}))


class TestRecordRetirement:
    """A (camera, local id) silent for more than 2 * eps_time is forgotten."""

    def run(self, back):
        """lid 1 is seen every frame, lid 2 at frame 0 and again at ``back``."""
        # horizon 2 * eps_time = 2 s = 20 frames
        g = chain_graph([(0.0, 20.0)], [])
        eng = HandoverEngine(g, MatcherConfig(dt_window=1.0, eps_time=1.0))
        for f in range(back + 1):
            tracks = [(1, 0.1 * f, -2.0)]
            if f in (0, back):
                tracks.append((2, 5.0, -2.0))
            eng.process_snapshot(snap(f, {1: tracks}))
        return {(e.local_id, e.frame_index): e.global_id
                for e in eng.events if e.kind is EventKind.NEW_IDENTITY}

    def test_long_silence_mints_a_new_gid(self):
        assert self.run(25) == {(1, 0): 1, (2, 0): 2, (2, 25): 3}  # back 2.5 s later

    def test_short_silence_keeps_the_gid(self):
        assert self.run(15) == {(1, 0): 1, (2, 0): 2}  # back 1.5 s later


class TestBufferOrder:
    def test_push_must_not_go_back_in_time(self):
        buf = make_engine().buffer((1, 2), Zone.UPPER)
        buf.push(BufferEntry(global_id=5, camera_id=1, local_id=1, t_exit=2.0, y_rel=0.5, seq=1))
        buf.push(BufferEntry(global_id=6, camera_id=1, local_id=2, t_exit=2.0, y_rel=0.5, seq=2))
        with pytest.raises(CausalityError, match="before"):
            buf.push(BufferEntry(global_id=7, camera_id=1, local_id=3, t_exit=1.9, y_rel=0.5, seq=3))
        assert [e.global_id for e in buf.entries] == [5, 6]


class TestTopologyShape:
    def test_buffer_count_two_per_edge(self):
        assert len(make_engine().buffer_sizes()) == 2
        g3 = chain_graph([(0, 20), (10, 30), (20, 40)], [(10, 20), (20, 30)])
        eng3 = HandoverEngine(g3)
        sizes = eng3.buffer_sizes()
        assert len(sizes) == 4
        assert set(sizes) == {"1->2/upper", "1->2/lower", "2->3/upper", "2->3/lower"}
        assert eng3.total_buffered() == 0

    def test_single_camera_still_mints(self):
        g1 = chain_graph([(0.0, 20.0)], [])
        eng = HandoverEngine(g1)
        assert eng.buffer_sizes() == {}
        out = eng.process_snapshot(snap(0, {1: [(1, 5.0, -2.0)]}))
        assert [ev.kind for ev in out] == [EventKind.NEW_IDENTITY]
        assert out[0].global_id == 1
        assert eng.gids_minted == 1


class TestEndToEnd:
    def test_single_eastbound_crossing(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(eng, g, {"a": (0.0, -2.0, 1.0, {1: 1, 2: 1})}, frames=31)
        assert eng.counts["new_identity"] == 1
        assert eng.counts["matched"] == 1
        assert eng.counts["pushed"] == 11  # one per frame inside the trigger region
        assert eng.counts["expired"] == 0
        assert eng.gids_minted == 1
        m = [e for e in eng.events if e.kind is EventKind.MATCHED][0]
        assert m.camera_id == 2 and m.global_id == 1
        assert m.edge == (1, 2) and m.zone is Zone.UPPER
        assert m.age == 0.0 and m.residual == 0.0  # same-frame handover
        traj = eng.trajectories[1]
        assert traj.cameras == (1, 2)
        assert len(traj.states) == 42  # 21 frames per camera
        assert eng.total_buffered() == 1
        assert len(eng.expire(m.t + 60.0)) == 1

    def test_trajectory_states_carry_kinematics(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(eng, g, {"a": (0.0, -2.0, 1.0, {1: 1, 2: 1})}, frames=31)
        states = eng.trajectories[1].states
        assert states[0].heading_rad is None  # no displacement yet
        assert states[1].heading_rad == 0.0
        assert states[0].speed_kmh is None  # window not filled
        # 1 m per frame at 10 fps
        assert abs(states[10].speed_kmh - 36.0) < 1e-6
        assert all(s.global_id == 1 for s in states)

    def test_single_westbound_crossing(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(eng, g, {"b": (30.0, 2.0, -1.0, {1: 1, 2: 1})}, frames=31)
        assert eng.counts["matched"] == 1
        pushes = [e for e in eng.events if e.kind is EventKind.PUSHED]
        m = [e for e in eng.events if e.kind is EventKind.MATCHED][0]
        assert all(p.zone is Zone.LOWER and p.camera_id == 2 for p in pushes)
        assert m.zone is Zone.LOWER and m.camera_id == 1 and m.global_id == 1

    def test_parallel_same_frame_handover(self):
        """Two lanes cross together; each arrival picks its own lane's id."""
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(
            eng, g,
            {
                "a": (0.0, -2.0, 1.0, {1: 1, 2: 1}),   # lane offset 0.25
                "b": (0.0, -0.5, 1.0, {1: 2, 2: 2}),   # lane offset 0.4375
            },
            frames=31,
        )
        matched = {
            (e.camera_id, e.local_id): e.global_id
            for e in eng.events
            if e.kind is EventKind.MATCHED
        }
        assert matched == {(2, 1): 1, (2, 2): 2}
        assert eng.gids_minted == 2

    def test_opposing_streams_never_mix(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(
            eng, g,
            {
                "a": (0.0, -2.0, 1.0, {1: 1, 2: 1}),    # eastbound, upper
                "b": (30.0, 2.0, -1.0, {1: 2, 2: 2}),   # westbound, lower
            },
            frames=31,
        )
        push_zone = {}
        for e in eng.events:
            if e.kind is EventKind.PUSHED:
                push_zone[(e.global_id, e.edge)] = e.zone
            elif e.kind is EventKind.MATCHED:
                assert e.zone is push_zone[(e.global_id, e.edge)]
        matched = {
            (e.camera_id, e.local_id): (e.global_id, e.zone)
            for e in eng.events
            if e.kind is EventKind.MATCHED
        }
        assert matched == {(2, 1): (1, Zone.UPPER), (1, 2): (2, Zone.LOWER)}

    def test_blind_gap_pass_defeats_fifo_but_not_lateral(self):
        """A faster car passes a slower one inside an unobserved gap. Strict
        FIFO hands the ids out in exit order and swaps them; lateral matching
        keeps lanes apart and recovers both."""
        paths = {
            "a_slow": (12.0, -1.0, 0.5, {1: 1, 2: 1}),
            "b_fast": (-6.5, -3.0, 1.5, {1: 2, 2: 2}),
        }
        lateral = HandoverEngine(gapped_graph())
        drive(lateral, gapped_graph(), paths, frames=41)
        strict = HandoverEngine(
            gapped_graph(), MatcherConfig(strategy=MatchStrategy.STRICT_FIFO)
        )
        drive(strict, gapped_graph(), paths, frames=41)

        def matches(eng):
            return {
                (e.camera_id, e.local_id): e.global_id
                for e in eng.events
                if e.kind is EventKind.MATCHED
            }

        # slow minted first (visible from frame 0), fast second
        assert matches(lateral) == {(2, 1): 1, (2, 2): 2}
        assert matches(strict) == {(2, 1): 2, (2, 2): 1}  # crossed pair

    def test_live_identity_is_never_handed_out_again(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        # "a" is seen by both cameras at once inside the overlap and keeps
        # pushing; "b" births on camera 2 right next to it
        drive(
            eng, g,
            {
                "a": (5.0, -2.0, 1.0, {1: 1, 2: 1}),
                "b": (-2.0, -2.0, 1.0, {2: 2}),
            },
            frames=20,
        )
        by_track = {
            (e.camera_id, e.local_id): e
            for e in eng.events
            if e.kind in (EventKind.MATCHED, EventKind.NEW_IDENTITY)
        }
        assert by_track[(2, 1)].kind is EventKind.MATCHED      # "a" crosses normally
        assert by_track[(2, 2)].kind is EventKind.NEW_IDENTITY  # not a's id
        assert by_track[(2, 2)].global_id != by_track[(2, 1)].global_id

    def test_parked_identity_is_taken_when_its_owner_is_unseen(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        # same layout, but "a" is never visible to camera 2: its parked id
        # is up for grabs and "b" inherits it
        drive(
            eng, g,
            {
                "a": (5.0, -2.0, 1.0, {1: 1}),
                "b": (-2.0, -2.0, 1.0, {2: 2}),
            },
            frames=20,
        )
        by_track = {
            (e.camera_id, e.local_id): e
            for e in eng.events
            if e.kind in (EventKind.MATCHED, EventKind.NEW_IDENTITY)
        }
        assert by_track[(2, 2)].kind is EventKind.MATCHED
        assert by_track[(2, 2)].global_id == by_track[(1, 1)].global_id

    def test_fragmented_arrival_recovers_inside_overlap(self):
        """The downstream track drops a frame and rebirths under a new local
        id; the still-parked identity covers the gap."""
        g = two_cam_graph()
        eng = HandoverEngine(g)
        for f in range(21):
            x = float(f)
            cams = {}
            if x <= 20.0:
                cams[1] = [(1, x, -2.0)]
            if 10.0 <= x <= 30.0:
                if f <= 13:
                    cams.setdefault(2, []).append((1, x, -2.0))
                elif f >= 15:
                    cams.setdefault(2, []).append((2, x, -2.0))
            eng.process_snapshot(snap(f, cams))
        rebirth = [
            e for e in eng.events
            if e.camera_id == 2 and e.local_id == 2
            and e.kind in (EventKind.MATCHED, EventKind.NEW_IDENTITY)
        ]
        assert len(rebirth) == 1
        assert rebirth[0].kind is EventKind.MATCHED
        assert rebirth[0].global_id == 1
        assert eng.counts["new_identity"] == 1

    def test_new_identities_count_up_from_one(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(
            eng, g,
            {
                "a": (0.0, -2.0, 1.0, {1: 1, 2: 1}),
                "b": (30.0, 2.0, -1.0, {1: 2, 2: 2}),
                "c": (-8.0, -0.5, 1.0, {1: 3, 2: 3}),
            },
            frames=40,
        )
        news = [e.global_id for e in eng.events if e.kind is EventKind.NEW_IDENTITY]
        assert news == list(range(1, len(news) + 1))
        assert eng.gids_minted == len(news)
        tally = {}
        for e in eng.events:
            tally[e.kind.value] = tally.get(e.kind.value, 0) + 1
        assert dict(eng.counts) == tally


class TestNonRectangularTrigger:
    """The trigger region is the lower-left half of the shared footprint
    [10, 20] x [-4.5, 4.5], so half of its bbox lies outside it."""

    def run(self):
        cal = Calibration(m_per_px=LAM, frame_dt=1.0 / FPS)
        nodes = tuple(
            CameraNode(id=i, fov=rect(x0, x1), calibration=cal, frame=road())
            for i, (x0, x1) in ((1, (0.0, 20.0)), (2, (10.0, 30.0)))
        )
        tri = Polygon((Point2(10.0, -4.5), Point2(20.0, -4.5), Point2(10.0, 4.5)))
        g = TopologyGraph(nodes=nodes, edges=(EdgeDef(1, 2, tri, road()),))
        eng = HandoverEngine(g)
        # eastbound on camera 1: track 1 inside the triangle, track 2 in its bbox only
        for f in range(5):
            eng.process_snapshot(snap(f, {1: [(1, 11.0 + f, -1.5), (2, 14.0 + f, 4.0)]}))
        return eng

    def test_a_track_inside_the_triangle_pushes(self):
        pushes = [e for e in self.run().events if e.kind is EventKind.PUSHED]
        assert [(e.local_id, e.global_id) for e in pushes] == [(1, 1)] * 4

    def test_a_track_in_the_bbox_only_pushes_nothing(self):
        eng = self.run()
        assert [e.global_id for e in eng.events if e.kind is EventKind.NEW_IDENTITY] == [1, 2]
        assert all(e.local_id != 2 for e in eng.events if e.kind is EventKind.PUSHED)
        assert [e.global_id for e in eng.buffer((1, 2), Zone.UPPER)] == [1]

    def test_a_birth_in_the_bbox_only_mints(self):
        eng = self.run()
        # in gid 1's zone and 0.0625 from its lane, but outside the triangle
        out = eng.process_snapshot(snap(5, {2: [(1, 18.0, -1.0)]}))
        assert [(e.kind, e.global_id) for e in out] == [(EventKind.NEW_IDENTITY, 3)]
        # the same birth inside the triangle takes the parked id
        out = eng.process_snapshot(snap(6, {2: [(1, 18.0, -1.0), (2, 14.0, -1.0)]}))
        assert [(e.kind, e.local_id, e.global_id) for e in out] == [(EventKind.MATCHED, 2, 1)]


# -- the engine's inline kinematics against camchain.kinematics ---------------

# pixel step per frame: a creep that can hold the heading or read as a stop,
# or a drive
_STEP_PX = st.one_of(st.floats(-0.4, 0.4), st.floats(-80.0, 80.0))
# (frames since the previous observation, observations, x step, y step)
_SEGMENTS = st.lists(
    st.tuples(st.sampled_from((1, 1, 1, 2, 4)), st.integers(1, 14), _STEP_PX, _STEP_PX),
    min_size=1, max_size=8,
)


def _reference_kinematics(cal, obs):
    """(speed_kmh, heading_rad, status) per observation, from the public
    estimators applied to the history the engine keeps."""
    k = DEFAULT_SPEED_WINDOW
    out, hist, last, heading, prev = [], [], None, None, None
    for frame, px, m in obs:
        if prev is not None and frame != prev + 1:
            hist, last = [], None  # a gap restarts both windows and holds the heading
        prev = frame
        hist.append(px)
        speed = estimate_speed(hist, cal, k) if len(hist) > k else None
        if last is not None:
            heading = estimate_heading(last, m, heading)
        last = m
        out.append((speed, heading, None if speed is None else motion_status(speed).value))
    return out


class TestInlineKinematics:
    @given(
        m_per_px=st.floats(0.005, 0.3), frame_dt=st.floats(0.01, 0.5), segments=_SEGMENTS
    )
    @example(
        # 25 fps at 4 cm/px: a drive whose first k frames have no speed, a
        # creep of 4 mm a frame that holds the heading and reads as stopped,
        # then a gap and a drive the other way
        m_per_px=0.04, frame_dt=0.04,
        segments=[(1, 12, 30.0, 2.0), (1, 14, 0.1, 0.0), (3, 12, -25.0, 5.0)],
    )
    def test_rows_equal_the_reference_estimators_bit_for_bit(
        self, m_per_px, frame_dt, segments
    ):
        cal = Calibration(m_per_px=m_per_px, frame_dt=frame_dt)
        node = CameraNode(id=1, fov=rect(-1e5, 1e5, half=1e5), calibration=cal, frame=road())
        eng = HandoverEngine(TopologyGraph(nodes=(node,), edges=()))
        obs, frame, x, y = [], -1, 1000.0, 500.0
        for gap, n, sx, sy in segments:
            for i in range(n):
                frame += gap if i == 0 else 1
                x, y = x + sx, y + sy
                obs.append((frame, (x, y), (x * m_per_px, y * m_per_px)))
        for frame, (x_px, y_px), (x_m, y_m) in obs:
            t = frame * frame_dt
            track = TrackState(frame, 1, 1, t, x_px, y_px, x_m, y_m)
            eng.process_snapshot(Snapshot(frame_index=frame, t=t, per_camera={1: (track,)}))
        assert list(eng.trajectories) == [1]
        got = [(r.speed_kmh, r.heading_rad, r.status) for r in eng.trajectories[1].states]
        assert got == _reference_kinematics(cal, obs)

    def test_every_observation_builds_one_checked_state(self, monkeypatch, fixtures_dir):
        built = []
        checked = handover.KinematicState

        def spy(*args):
            built.append(args)
            return checked(*args)

        monkeypatch.setattr(handover, "KinematicState", spy)
        cfg = scenario_from_dict(load_json(fixtures_dir / "scenario_freeflow.json"))
        sim, stitch, _ = run_scenario(cfg, 7)
        observations = sum(len(u.tracks) for u in sim.updates)
        assert observations > 0
        assert len(built) == len(stitch.trajectory_rows(cfg.frame_rate)) == observations
