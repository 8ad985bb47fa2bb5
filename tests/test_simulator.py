import gc
import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camchain import pipeline as pl
from camchain.errors import CausalityError, ConfigError
from camchain.handover import HandoverEngine
from camchain.simulator import (
    MIN_GAP,
    VEHICLE_LENGTH,
    NoiseConfig,
    Regime,
    ScenarioConfig,
    ScriptedVehicle,
    World,
    build_topology,
    in_footprint,
    run_sim,
)
from camchain.sync import SyncBarrier


def quiet(**kw):
    """Scenario with no traffic unless the test adds some."""
    base = dict(duration_s=20.0, flow_east_vpm=0.0, flow_west_vpm=0.0)
    base.update(kw)
    return ScenarioConfig(**base)


def obs_lookup(sim):
    """(camera, frame, local) -> TrackState for every emitted observation."""
    out = {}
    for u in sim.updates:
        for tr in u.tracks:
            out[(u.camera_id, u.frame_index, tr.local_id)] = tr
    return out


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(dropout_rate=1.5),
            dict(dropout_rate=-0.1),
            dict(pos_sigma_px=-1.0),
            dict(sync_jitter_frames=-1),
        ],
    )
    def test_noise_rejects(self, kw):
        with pytest.raises(ConfigError):
            NoiseConfig(**kw)

    def test_full_dropout_is_legal(self):
        NoiseConfig(dropout_rate=1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_cameras=0),
            dict(duration_s=0.0),
            dict(frame_rate=0.0),
            dict(blind_gap_m=150.0),  # >= spacing
            dict(regime=Regime.OVERTAKING, lanes_per_dir=1),
            dict(diverge_frac=1.1),
            dict(wave_zone=(5.0, 5.0)),
        ],
    )
    def test_scenario_rejects(self, kw):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(spawn_t=-1.0, speed_kmh=50.0),
            dict(spawn_t=0.0, speed_kmh=0.0),
            dict(spawn_t=0.0, speed_kmh=50.0, direction=2),
        ],
    )
    def test_scripted_rejects(self, kw):
        with pytest.raises(ConfigError):
            ScriptedVehicle(**kw)


class TestDefaults:
    def test_default_corridor_layout(self):
        cfg = ScenarioConfig()
        assert cfg.n_cameras == 3
        assert cfg.fov_len_m == 200.0
        assert cfg.corridor_end == 500.0
        assert [cfg.fov_bounds(i) for i in range(3)] == [
            (0.0, 200.0),
            (150.0, 350.0),
            (300.0, 500.0),
        ]

    def test_default_topology_shape(self):
        topo = build_topology(ScenarioConfig())
        assert sorted(topo.camera_ids) == [1, 2, 3]
        assert [e.key for e in topo.edges] == [(1, 2), (2, 3)]
        assert len(HandoverEngine(topo).buffer_sizes()) == 4

    def test_blind_gap_shrinks_footprints(self):
        cfg = ScenarioConfig(blind_gap_m=30.0, overlap_m=30.0)
        assert cfg.fov_len_m == 120.0
        a0, b0 = cfg.fov_bounds(0)
        a1, b1 = cfg.fov_bounds(1)
        assert b0 < a1  # truly unobserved stretch between footprints
        topo = build_topology(cfg)
        assert len(topo.edges) == 2


class TestScriptedMotion:
    def test_constant_speed_covers_exact_distance(self):
        # 54 km/h is 1.5 m per frame at 10 fps: 150 m over 10 s
        cfg = quiet(
            duration_s=40.0,
            scripted_vehicles=(ScriptedVehicle(spawn_t=0.0, speed_kmh=54.0),),
        )
        sim = run_sim(cfg, 7)
        obs = obs_lookup(sim)
        first = obs[(1, 10, 1)]
        later = obs[(1, 110, 1)]
        assert abs((later.pos.x - first.pos.x) - 150.0) < 2e-6
        assert later.pos.y == first.pos.y

    def test_single_vehicle_crosses_both_edges(self):
        cfg = quiet(
            duration_s=40.0,
            scripted_vehicles=(ScriptedVehicle(spawn_t=0.0, speed_kmh=54.0),),
        )
        sim = run_sim(cfg, 7)
        assert len(sim.truth_tracks) == 1
        assert sim.truth_tracks[0].kind == "scripted"
        hops = [(h.from_camera, h.to_camera) for h in sim.truth_handovers]
        assert hops == [(1, 2), (2, 3)]
        for h in sim.truth_handovers:
            assert h.t_enter < h.t_exit  # footprints overlap, entry precedes exit


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = ScenarioConfig(duration_s=20.0, noise=NoiseConfig(pos_sigma_px=1.5))
        a = run_sim(cfg, 5)
        b = run_sim(cfg, 5)
        assert a.updates == b.updates
        assert a.truth_obs == b.truth_obs
        assert a.truth_tracks == b.truth_tracks
        assert a.truth_handovers == b.truth_handovers

    def test_different_seed_differs(self):
        cfg = ScenarioConfig(duration_s=20.0)
        a = run_sim(cfg, 5)
        b = run_sim(cfg, 6)
        assert a.updates != b.updates

    def test_coordinates_are_quantized(self):
        cfg = ScenarioConfig(duration_s=25.0, noise=NoiseConfig(pos_sigma_px=2.0))
        sim = run_sim(cfg, 9)
        seen = 0
        for u in sim.updates:
            for tr in u.tracks:
                for v in (tr.pos.x, tr.pos.y, tr.pos_px.x, tr.pos_px.y):
                    assert round(v, 6) == v
                seen += 1
        assert seen > 100


class TestTruthInvariants:
    def test_no_rear_end_overlap_and_no_teleport(self):
        sim = run_sim(ScenarioConfig(duration_s=60.0), 3)
        per_frame = {}
        last_seen = {}
        for u in sim.updates:
            for tr in u.tracks:
                per_frame.setdefault((u.camera_id, u.frame_index), []).append(tr)
                prev = last_seen.get((u.camera_id, tr.local_id))
                if prev is not None and prev[0] == u.frame_index - 1:
                    step = tr.pos.x - prev[1].pos.x
                    assert abs(step) < 5.0  # < 180 km/h at 10 fps
                    # eastbound (y < 0) never reverses, westbound never advances
                    if tr.pos.y < 0:
                        assert step >= 0.0
                    else:
                        assert step <= 0.0
                last_seen[(u.camera_id, tr.local_id)] = (u.frame_index, tr)
        checked = 0
        for tracks in per_frame.values():
            for side in (-1, 1):
                xs = sorted(t.pos.x for t in tracks if (t.pos.y < 0) == (side < 0))
                for lo, hi in zip(xs, xs[1:]):
                    assert hi - lo >= VEHICLE_LENGTH - 1e-6
                    checked += 1
        assert checked > 500

    def test_congestion_wave_stops_traffic_inside_zone(self):
        cfg = ScenarioConfig(
            regime=Regime.CONGESTION,
            duration_s=90.0,
            flow_east_vpm=10.0,
            flow_west_vpm=0.0,
            wave_zone=(240.0, 260.0),
            wave_windows=((20.0, 60.0),),
        )
        sim = run_sim(cfg, 11)
        held = {}
        for u in sim.updates:
            if u.camera_id != 2 or not 30.0 <= u.t <= 55.0:
                continue
            for tr in u.tracks:
                if 240.0 <= tr.pos.x <= 260.0 and tr.pos.y < 0:
                    held.setdefault(tr.local_id, []).append((u.frame_index, tr.pos.x))
        frozen = [
            xs for xs in held.values()
            if len(xs) >= 5 and abs(xs[-1][1] - xs[0][1]) < 1e-6
        ]
        assert frozen  # somebody sat motionless inside the wave

    @pytest.mark.parametrize(
        "kw",
        [
            dict(noise=NoiseConfig(dropout_rate=0.2, sync_jitter_frames=3)),
            dict(drift_amplitude_m=3.0, drift_period_s=7.0),
            dict(blind_gap_m=30.0, lanes_per_dir=2, flow_west_vpm=6.0),
            dict(regime=Regime.MERGE_DIVERGE, n_cameras=5),
        ],
        ids=["dropout", "drift", "blind-gap-two-way", "merge"],
    )
    def test_handovers_equal_a_rescan_of_the_truth_observations(self, kw):
        sim = run_sim(ScenarioConfig(duration_s=60.0, **kw), 3)
        span = {}
        for o in sim.truth_obs:
            lo, hi = span.get((o.vehicle_id, o.camera_id), (o.frame_index, o.frame_index))
            span[o.vehicle_id, o.camera_id] = (min(lo, o.frame_index), max(hi, o.frame_index))
        visits = sorted((vid, lo, hi, cam) for (vid, cam), (lo, hi) in span.items())
        fps = sim.config.frame_rate
        want = [
            (vid, cam_a, cam_b, round(hi_a / fps, 6), round(lo_b / fps, 6))
            for (vid, _, hi_a, cam_a), (vid_b, lo_b, _, cam_b) in zip(visits, visits[1:])
            if vid == vid_b
        ]
        got = [
            (h.vehicle_id, h.from_camera, h.to_camera, h.t_exit, h.t_enter)
            for h in sim.truth_handovers
        ]
        assert got == want and len(want) >= 10


class TestLocalIds:
    def test_dropout_fragments_tracks_but_ids_stay_contiguous(self):
        cfg = ScenarioConfig(duration_s=30.0, noise=NoiseConfig(dropout_rate=0.3))
        sim = run_sim(cfg, 2)
        lids = {}
        frames = {}
        for o in sim.truth_obs:
            lids.setdefault((o.vehicle_id, o.camera_id), set()).add(o.local_id)
            frames.setdefault((o.camera_id, o.local_id), []).append(o.frame_index)
        assert any(len(s) >= 2 for s in lids.values())  # at least one rebirth
        for fs in frames.values():
            assert fs == list(range(fs[0], fs[0] + len(fs)))

    def test_full_dropout_silences_every_camera(self):
        cfg = ScenarioConfig(duration_s=10.0, noise=NoiseConfig(dropout_rate=1.0))
        sim = run_sim(cfg, 4)
        assert len(sim.updates) == sim.frame_count * 3
        assert all(u.tracks == () for u in sim.updates)
        assert sim.truth_obs == []

    def test_empty_scenario_still_emits_the_grid(self):
        sim = run_sim(quiet(duration_s=5.0), 1)
        assert len(sim.updates) == sim.frame_count * 3
        assert all(u.tracks == () for u in sim.updates)
        assert sim.truth_tracks == []
        assert sim.truth_handovers == []


class TestJitterDelivery:
    def test_jitter_shuffles_delivery_not_content(self):
        base = ScenarioConfig(duration_s=20.0)
        jit = ScenarioConfig(duration_s=20.0, noise=NoiseConfig(sync_jitter_frames=3))
        a = run_sim(base, 8)
        b = run_sim(jit, 8)

        def content(sim):
            return {(u.camera_id, u.frame_index): u.tracks for u in sim.updates}

        assert content(a) == content(b)
        assert [u.arrival_seq for u in b.updates] == list(range(len(b.updates)))
        order = [(u.camera_id, u.frame_index) for u in b.updates]
        assert order != [(u.camera_id, u.frame_index) for u in a.updates]
        per_cam = {}
        for cam, f in order:
            per_cam.setdefault(cam, []).append(f)
        for fs in per_cam.values():
            assert fs == sorted(fs)  # one camera never reorders itself


class TestOvertaking:
    def test_pass_completes_and_swaps_arrival_order(self):
        cfg = ScenarioConfig(
            regime=Regime.OVERTAKING,
            duration_s=80.0,
            lanes_per_dir=2,
            flow_east_vpm=0.0,
            flow_west_vpm=0.0,
            overtake_pairs=2,
            pair_spacing_s=15.0,
        )
        sim = run_sim(cfg, 3)
        kinds = sorted(t.kind for t in sim.truth_tracks)
        assert kinds == ["fast", "fast", "slow", "slow"]
        slows = sorted(
            (t for t in sim.truth_tracks if t.kind == "slow"), key=lambda t: t.spawn_t
        )
        fasts = sorted(
            (t for t in sim.truth_tracks if t.kind == "fast"), key=lambda t: t.spawn_t
        )
        enter3 = {
            h.vehicle_id: h.t_enter
            for h in sim.truth_handovers
            if (h.from_camera, h.to_camera) == (2, 3)
        }
        lane1 = cfg.lane_center(1, 1)
        lane0 = cfg.lane_center(1, 0)
        obs = {}
        for o in sim.truth_obs:
            obs.setdefault(o.vehicle_id, []).append((o.frame_index, o.camera_id, o.local_id))
        lookup = obs_lookup(sim)
        for slow, fast in zip(slows, fasts):
            assert fast.spawn_t > slow.spawn_t  # starts behind
            assert enter3[fast.vehicle_id] < enter3[slow.vehicle_id]  # arrives ahead
            ys = [
                lookup[(cam, f, lid)].pos.y
                for f, cam, lid in sorted(obs[fast.vehicle_id])
            ]
            out = [i for i, y in enumerate(ys) if abs(y - lane1) < 0.3]
            assert out, "overtaker never reached the passing lane"
            assert any(abs(y - lane0) < 0.3 for y in ys[out[-1]:])  # and came back

    def test_slow_vehicle_keeps_its_lane(self):
        cfg = ScenarioConfig(
            regime=Regime.OVERTAKING,
            duration_s=60.0,
            lanes_per_dir=2,
            flow_east_vpm=0.0,
            flow_west_vpm=0.0,
            overtake_pairs=1,
        )
        sim = run_sim(cfg, 6)
        slow_vid = next(t.vehicle_id for t in sim.truth_tracks if t.kind == "slow")
        lookup = obs_lookup(sim)
        lane0 = cfg.lane_center(1, 0)
        for o in sim.truth_obs:
            if o.vehicle_id == slow_vid:
                y = lookup[(o.camera_id, o.frame_index, o.local_id)].pos.y
                assert abs(y - lane0) < 1e-6


class TestMergeDiverge:
    def test_junction_splits_and_feeds_the_corridor(self):
        cfg = ScenarioConfig(
            regime=Regime.MERGE_DIVERGE,
            duration_s=120.0,
            flow_east_vpm=6.0,
            flow_west_vpm=0.0,
            merge_rate_vpm=6.0,
            diverge_frac=1.0,
        )
        sim = run_sim(cfg, 4)
        kind = {t.vehicle_id: t.kind for t in sim.truth_tracks}
        assert "diverger" in kind.values() and "entrant" in kind.values()
        hops = {}
        for h in sim.truth_handovers:
            hops.setdefault(h.vehicle_id, []).append((h.from_camera, h.to_camera))
        for vid, k in kind.items():
            if k == "diverger":
                assert hops.get(vid, []) in ([], [(1, 2)])
            elif k == "entrant":
                assert hops.get(vid, []) in ([], [(2, 3)])
        assert any(hops.get(v) == [(1, 2)] for v, k in kind.items() if k == "diverger")
        assert any(hops.get(v) == [(2, 3)] for v, k in kind.items() if k == "entrant")
        cam1_vids = {o.vehicle_id for o in sim.truth_obs if o.camera_id == 1}
        assert all(kind[v] != "entrant" for v in cam1_vids)


def reference_scan(cars, a, b, shift):
    """Every car in vid order, kept when its drift-corrected x lies in [a, b]."""
    out = []
    for v in sorted(cars, key=lambda v: v.vid):
        rx = v.x - shift
        if a <= rx <= b:
            out.append((v, rx))
    return out


@st.composite
def footprint_cases(draw):
    a = draw(st.floats(-200.0, 2000.0))
    b = a + draw(st.floats(0.0, 300.0))
    shift = draw(st.one_of(st.just(0.0), st.floats(-30.0, 30.0)))
    edges = [a, b, a + shift, b + shift]
    edges += [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    xs = draw(
        st.lists(
            st.one_of(st.floats(a - 40.0, b + 40.0), st.sampled_from(edges)),
            max_size=25,
        )
    )
    vids = draw(st.permutations(range(1, len(xs) + 1)))
    cars = [SimpleNamespace(vid=vid, x=x) for vid, x in zip(vids, xs)]
    return cars, a, b, shift


class TestFootprintSelection:
    @given(footprint_cases())
    def test_matches_the_full_scan(self, case):
        cars, a, b, shift = case
        by_x = sorted(cars, key=lambda v: v.x)
        got = in_footprint(by_x, [v.x for v in by_x], a, b, shift)
        assert got == reference_scan(cars, a, b, shift)

    # x < a + shift yet x - shift == a, and x > b + shift yet x - shift == b:
    # the bisection bounds alone would drop both cars
    @pytest.mark.parametrize(
        "a, b, x", [(65.0, 90.0, 39.99999999999999), (40.0, 65.0, 40.00000000000001)]
    )
    def test_the_exact_test_decides_at_a_rounded_border(self, a, b, x):
        car = SimpleNamespace(vid=1, x=x)
        got = in_footprint([car], [x], a, b, -25.0)
        assert got == reference_scan([car], a, b, -25.0) == [(car, 65.0)]


ONE_CAR = quiet(duration_s=3.0, scripted_vehicles=(ScriptedVehicle(spawn_t=0.0, speed_kmh=54.0),))


class TestGcPause:
    """Every data-path entry point pauses the cyclic GC until it returns."""

    # entry point -> (owner and name of a call it makes late, how to run it
    # given a simulation and a directory already simulated and stitched)
    STAGES = {
        "run_sim": (World, "_true_handovers", lambda sim, d: run_sim(ONE_CAR, 1)),
        "stitch_updates": (
            SyncBarrier, "drain", lambda sim, d: pl.stitch_updates(sim.topology, sim.updates)
        ),
        "simulate_to_dir": (
            pl, "write_truth_handovers", lambda sim, d: pl.simulate_to_dir(ONE_CAR, 1, d)
        ),
        "stitch_dir": (pl, "write_events", lambda sim, d: pl.stitch_dir(d)),
        "evaluate_dir": (pl, "compute_idf1", lambda sim, d: pl.evaluate_dir(d)),
        "run_to_dir": (pl, "dump_json", lambda sim, d: pl.run_to_dir(ONE_CAR, 1, d)),
    }

    @pytest.fixture
    def stitched(self, tmp_path):
        sim = pl.simulate_to_dir(ONE_CAR, 1, tmp_path)
        pl.stitch_dir(tmp_path)
        return sim, tmp_path

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("stage", STAGES)
    def test_leaves_gc_as_it_found_it(self, stage, enabled, stitched, monkeypatch):
        owner, name, run = self.STAGES[stage]
        seen = []
        inner = getattr(owner, name)

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        if not enabled:
            gc.disable()
        try:
            run(*stitched)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen and not any(seen)  # still paused late in the call

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_failure_still_restores_gc(self, stage, enabled, stitched, monkeypatch):
        owner, name, run = self.STAGES[stage]

        def boom(*args, **kwargs):
            raise RuntimeError(f"{name} failed")

        monkeypatch.setattr(owner, name, boom)
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError, match=f"{name} failed"):
                run(*stitched)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_a_rejected_update_still_restores_gc(self, stitched):
        sim, _ = stitched
        # camera 1 delivers frame 0 again after the last frame: the barrier rejects it
        with pytest.raises(CausalityError):
            pl.stitch_updates(sim.topology, [*sim.updates, sim.updates[0]])
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("stage", STAGES)
    def test_nested_pauses_restore_gc_once(self, stage, enabled, stitched, monkeypatch):
        # simulate_to_dir, stitch_dir and run_to_dir call World.run or
        # stitch_updates, each paused in its own right
        real_enable = gc.enable
        if not enabled:
            gc.disable()
        enables = []
        monkeypatch.setattr(gc, "enable", lambda: enables.append(real_enable()))
        try:
            self.STAGES[stage][2](*stitched)
            assert gc.isenabled() is enabled
            assert len(enables) == enabled
        finally:
            real_enable()
