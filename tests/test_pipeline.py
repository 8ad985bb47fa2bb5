import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import camchain
from camchain import pipeline as pl
from camchain.formats import load_json, read_trajectories, read_truth_handovers, read_truth_obs
from camchain.handover import MatcherConfig, MatchStrategy
from camchain.simulator import ScenarioConfig, run_sim


class TestRunScenario:
    def test_clean_single_vehicle_is_perfect(self, single_vehicle_cfg):
        sim, stitch, report = pl.run_scenario(single_vehicle_cfg, 7)
        assert report["hosr"] == {"total": 2, "matched": 2, "value": 1.0}
        assert report["idf1"]["value"] == 1.0
        assert report["id_switches"] == 0
        assert report["identities"] == {"minted": 1, "true_vehicles": 1}
        assert report["events"]["matched"] == 2
        assert report["observations"] == len(sim.truth_obs)
        assert stitch.snapshots == sim.frame_count
        assert stitch.barrier_stats["dropped_late"] == 0

    def test_report_matches_handover_evidence(self, single_vehicle_run):
        out, _, report = single_vehicle_run
        disk = load_json(out / pl.REPORT)
        assert disk == report


class TestDirPipeline:
    def test_staged_equals_one_shot(self, tmp_path, single_vehicle_cfg):
        staged = tmp_path / "staged"
        oneshot = tmp_path / "oneshot"
        pl.simulate_to_dir(single_vehicle_cfg, 7, staged)
        pl.stitch_dir(staged, staged)
        pl.evaluate_dir(staged, staged)
        pl.run_to_dir(single_vehicle_cfg, 7, oneshot)
        for name in (pl.TRAJECTORIES, pl.EVENTS, pl.REPORT):
            assert (staged / name).read_bytes() == (oneshot / name).read_bytes(), name

    def test_simulate_writes_the_full_layout(self, tmp_path, single_vehicle_cfg):
        out = tmp_path / "sim"
        sim = pl.simulate_to_dir(single_vehicle_cfg, 7, out)
        for name in (
            pl.OBSERVATIONS,
            pl.TOPOLOGY,
            pl.SCENARIO,
            pl.META,
            pl.TRUTH_OBS,
            pl.TRUTH_TRACKS,
            pl.TRUTH_HANDOVERS,
        ):
            assert (out / name).exists(), name
        meta = load_json(out / pl.META)
        assert meta["seed"] == 7
        assert meta["frame_count"] == sim.frame_count
        assert meta["n_cameras"] == 3
        topo = load_json(out / pl.TOPOLOGY)
        assert "matcher" not in topo  # simulation does not pick the matcher

    def test_stitch_dir_reads_matcher_from_topology_file(self, tmp_path, single_vehicle_cfg):
        out = tmp_path / "sim"
        pl.simulate_to_dir(single_vehicle_cfg, 7, out)
        topo = load_json(out / pl.TOPOLOGY)
        topo["matcher"] = {"strategy": "strict-fifo", "dt_window": 1.5}
        (out / pl.TOPOLOGY).write_text(json.dumps(topo))
        res = pl.stitch_dir(out)
        assert res.engine.matcher.strategy is MatchStrategy.STRICT_FIFO
        assert res.engine.matcher.dt_window == 1.5
        # an explicit matcher wins over the file section
        res2 = pl.stitch_dir(out, matcher=MatcherConfig(dt_window=2.5))
        assert res2.engine.matcher == MatcherConfig(dt_window=2.5)

    def test_stitch_dir_topology_override(self, tmp_path, single_vehicle_cfg):
        out = tmp_path / "sim"
        pl.simulate_to_dir(single_vehicle_cfg, 7, out)
        alt = tmp_path / "alt_topology.json"
        alt.write_bytes((out / pl.TOPOLOGY).read_bytes())
        res = pl.stitch_dir(out, topology_path=alt)
        assert res.engine.gids_minted >= 1

    def test_evaluate_dir_scores_stitch_output(self, single_vehicle_run):
        out, _, report = single_vehicle_run
        again = pl.evaluate_dir(out)
        assert again == report

    def test_evaluate_dir_without_events_file(self, tmp_path, single_vehicle_cfg):
        out = tmp_path / "sim"
        pl.simulate_to_dir(single_vehicle_cfg, 7, out)
        pl.stitch_dir(out, out)
        (out / pl.EVENTS).unlink()
        report = pl.evaluate_dir(out, out)
        assert report["hosr"]["value"] == 1.0
        assert report["events"] == {}

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pl.stitch_dir(tmp_path / "nope")


def _traced(call):
    """What ``call()`` returns, the traced memory still allocated when it
    returns, and the peak traced memory while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestBoundedMemory:
    """The file path streams its CSV files: beyond what a call keeps, its
    peak memory is a fraction of the bytes it reads."""

    FRACTION = 0.75  # stitch_dir reaches about 0.53 here; whole-file reads reached 3 to 8

    @pytest.fixture(scope="class")
    def stitched(self, tmp_path_factory):
        cfg = ScenarioConfig(
            name="memory", n_cameras=10, lanes_per_dir=1,
            flow_east_vpm=40.0, flow_west_vpm=40.0, duration_s=30.0,
        )
        d = tmp_path_factory.mktemp("memory")
        pl.simulate_to_dir(cfg, 3, d)
        pl.stitch_dir(d)
        return d

    def test_stitch_dir_peak_beyond_its_result(self, stitched):
        _, held, peak = _traced(lambda: pl.stitch_dir(stitched))
        read = (stitched / pl.OBSERVATIONS).stat().st_size
        assert read > 200_000
        assert peak - held < self.FRACTION * read, (peak - held, read)

    def test_evaluate_dir_peak_beyond_what_scoring_needs(self, stitched):
        d = stitched
        read = sum(
            (d / name).stat().st_size
            for name in (pl.TRAJECTORIES, pl.EVENTS, pl.TRUTH_OBS, pl.TRUTH_HANDOVERS)
        )
        _, _, peak = _traced(lambda: pl.evaluate_dir(d, d / "again"))

        def score_held_inputs():
            # scoring needs the truth rows and the gid map, however they are read
            truth_obs = list(read_truth_obs(d / pl.TRUTH_OBS))
            handovers = list(read_truth_handovers(d / pl.TRUTH_HANDOVERS))
            gids = {
                (r.frame_index, r.camera_id, r.local_id): r.global_id
                for r in read_trajectories(d / pl.TRAJECTORIES)
            }
            tracemalloc.reset_peak()  # what the reads needed on the way is not counted
            pl.evaluate_stitch(handovers, truth_obs, gids, {}, 0)
            return tracemalloc.get_traced_memory()[1]

        needed, _, _ = _traced(score_held_inputs)
        assert peak - needed < self.FRACTION * read, (peak, needed, read)


class TestStitchUpdates:
    def test_max_lag_forces_progress_past_a_dead_camera(self, single_vehicle_cfg):
        sim = run_sim(single_vehicle_cfg, 7)
        cut = [
            u for u in sim.updates if not (u.camera_id == 3 and u.frame_index >= 50)
        ]
        res = pl.stitch_updates(sim.topology, cut, max_lag=4)
        # the fastest camera stays 4 ahead of the last releasable frame
        assert res.snapshots == sim.frame_count - 4 - 1
        assert res.barrier_stats["released"] == res.snapshots

    def test_without_max_lag_the_barrier_waits(self, single_vehicle_cfg):
        sim = run_sim(single_vehicle_cfg, 7)
        cut = [
            u for u in sim.updates if not (u.camera_id == 3 and u.frame_index >= 50)
        ]
        res = pl.stitch_updates(sim.topology, cut)
        assert res.snapshots == 50

    def test_timing_collects_latencies_and_occupancy(self, single_vehicle_cfg):
        sim = run_sim(single_vehicle_cfg, 7)
        res = pl.stitch_updates(sim.topology, sim.updates, timing=True)
        assert len(res.snapshot_seconds) == res.snapshots
        assert all(s >= 0.0 for s in res.snapshot_seconds)
        assert len(res.occupancy) == res.snapshots
        assert max(res.occupancy) >= 1


class TestBench:
    def test_bench_report_shape_and_file(self, tmp_path, single_vehicle_cfg):
        out = tmp_path / "bench"
        rep = pl.bench_scenario(single_vehicle_cfg, 7, out_dir=out)
        disk = load_json(out / pl.BENCH_REPORT)
        assert disk == rep
        assert rep["scenario"] == "one-car" and rep["seed"] == 7
        assert rep["vehicles"] == 1
        thr = rep["throughput"]
        assert thr["empty"] is False
        assert thr["snapshots"] == 400
        assert thr["snapshots_per_s"] > 0
        assert set(thr["latency_ms"]) == {"mean", "p50", "p95", "p99", "max"}
        assert thr["buffer_occupancy"]["peak"] >= 1
        assert rep["barrier"]["released"] == 400


def test_importing_the_package_loads_no_numpy_or_scipy():
    # a fresh interpreter: this one may have loaded either for other reasons
    src = str(Path(camchain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, camchain; "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
