"""The benchmark's workloads, one iteration of each, and its output checks.

Importing this module imports the package from ``<checkout>/src``; the
caller puts that directory on ``sys.path`` first. Every stage is a call into
a public function of the package, timed from the outside.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import camchain.formats as formats
import camchain.metrics as metrics
import camchain.pipeline as pipeline
import camchain.simulator as simulator
import camchain.handover as handover
from camchain.handover import DirectionalBuffer, HandoverEngine
from camchain.simulator import NoiseConfig, ScenarioConfig, build_topology
from camchain.sync import SyncBarrier
from camchain.topology import TopologyGraph
from tracer import AGG, COUNT, SPAN

# ROADMAP workload B10, shortened to 120 s so that one iteration takes a few
# seconds; the reference identity figures for the noisy corridor are at 120 s.
_B10 = ScenarioConfig(
    name="dense-online",
    n_cameras=10,
    lanes_per_dir=2,
    flow_east_vpm=40.0,
    flow_west_vpm=40.0,
    duration_s=120.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "online": in memory; "files": CSV files in a directory
    config: ScenarioConfig
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-online",
            "online",
            _B10,
            "B10 corridor in memory, noise-free: engine, simulator and GC do the work, formats none; "
            "handover, kinematics, geometry and tracks gains show here",
        ),
        Workload(
            "noisy-online",
            "online",
            replace(
                _B10,
                name="noisy-online",
                noise=NoiseConfig(dropout_rate=0.01, pos_sigma_px=2.0, sync_jitter_frames=5),
            ),
            "B10 with 1% dropout, 2 px noise, 5-frame jitter: barrier reorders, ids multiply, "
            "identity below 1, so any changed matching decision shows",
        ),
        Workload(
            "sparse-files",
            "files",
            ScenarioConfig(
                name="sparse-files",
                n_cameras=30,
                lanes_per_dir=1,
                flow_east_vpm=6.0,
                flow_west_vpm=6.0,
                # An 8 s headway floor (the mean headway stays 10 s) keeps the
                # vehicle count nearly equal across seeds. With the 1.5 s
                # default a 180 s run holds about 35 vehicles and its
                # observation count varies by 14% between seeds, more than a
                # 30 s run can average out.
                min_headway_s=8.0,
                duration_s=180.0,
            ),
            "30 sparse cameras through CSV files: the frame x camera grid and the CSV codecs "
            "dominate, so formats, sync and pipeline gains show here and not online",
        ),
    )
}

HELD_OUT_SEED = 20260  # a seed no tuning used; later claims must also hold on it


def iteration_seed(seed: int, i: int) -> int:
    """Seed of the i-th iteration of a run; iteration 0 uses the run's seed."""
    return seed + 100_003 * i


def setup(name: str, duration_s: Optional[float] = None):
    """Everything a run needs before its first iteration: scenario and topology."""
    w = WORKLOADS[name]
    cfg = w.config if duration_s is None else replace(w.config, duration_s=duration_s)
    return w, cfg, build_topology(cfg)


def traced_targets():
    """(owner, attribute, span name, kind) for every name the tracer wraps.

    Each owner is where the caller looks the name up: handover.py imports
    the geometry and kinematics helpers into its own namespace, pipeline.py
    does the same for the CSV codecs and the metrics.
    """
    t = [
        (simulator, "run_sim", "simulator.run_sim", SPAN),
        (pipeline, "run_sim", "simulator.run_sim", SPAN),
        (pipeline, "simulate_to_dir", "pipeline.simulate_to_dir", SPAN),
        (pipeline, "stitch_updates", "pipeline.stitch_updates", SPAN),
        (pipeline, "stitch_dir", "pipeline.stitch_dir", SPAN),
        (pipeline, "evaluate_dir", "pipeline.evaluate_dir", SPAN),
        (pipeline, "evaluate_stitch", "pipeline.evaluate_stitch", SPAN),
        (pipeline.StitchResult, "trajectory_rows", "pipeline.trajectory_rows", SPAN),
        (metrics, "gid_index", "metrics.gid_index", SPAN),
        (pipeline, "compute_hosr", "metrics.compute_hosr", SPAN),
        (pipeline, "compute_idf1", "metrics.compute_idf1", SPAN),
        (pipeline, "count_id_switches", "metrics.count_id_switches", SPAN),
        (pipeline, "write_simulation", "formats.write_simulation", SPAN),
        (HandoverEngine, "process_snapshot", "handover.process_snapshot", SPAN),
        (DirectionalBuffer, "push", "handover.buffer_push", AGG),
        (DirectionalBuffer, "sweep_expired", "handover.buffer_sweep", AGG),
        (handover, "replace", "tracks.record", AGG),
        (handover, "estimate_speed", "kinematics.estimate_speed", AGG),
        (handover, "estimate_heading", "kinematics.estimate_heading", AGG),
        (handover, "motion_status", "kinematics.motion_status", COUNT),
        (handover, "point_in_polygon", "geometry.point_in_polygon", AGG),
        (handover, "lateral_norm", "geometry.lateral_norm", COUNT),
        (handover, "get_zone", "geometry.get_zone", COUNT),
        (TopologyGraph, "edges_at", "topology.edges_at", COUNT),
        (SyncBarrier, "ingest", "sync.ingest", AGG),
        (SyncBarrier, "try_release", "sync.try_release", AGG),
    ]
    for fn in (
        "read_observations", "updates_from_rows", "read_trajectories", "read_truth_obs",
        "read_truth_handovers", "read_events", "write_observations", "write_truth_obs",
        "write_truth_tracks", "write_truth_handovers", "write_trajectories", "write_events",
    ):
        t.append((pipeline, fn, "formats." + fn, SPAN))
    return t


OUTPUT_FILES = (pipeline.TRAJECTORIES, pipeline.EVENTS, pipeline.REPORT)
# what stitch_dir and evaluate_dir read
FILE_INPUTS = (
    pipeline.TOPOLOGY, pipeline.META, pipeline.OBSERVATIONS,
    pipeline.TRUTH_OBS, pipeline.TRUTH_HANDOVERS, pipeline.TRAJECTORIES, pipeline.EVENTS,
)


class Feed:
    """Hands the stitcher one update at a time, in delivery order.

    ``handed[i]`` is taken just before update ``i`` is handed over and
    ``back[i]`` when the stitcher asks for the next one, so the interval is
    the stitcher's whole reaction to update ``i``: ingest, every snapshot
    it released, and the engine's work on them.
    """

    def __init__(self, updates) -> None:
        self.updates = updates
        self.handed = [0.0] * len(updates)
        self.back = [0.0] * len(updates)

    def __iter__(self):
        perf, handed, back = time.perf_counter, self.handed, self.back
        for i, u in enumerate(self.updates):
            handed[i] = perf()
            yield u
            back[i] = perf()

    def frame_intervals(self, frame_count: int, t_end: float) -> list[tuple[float, float]]:
        """(start, end) of each frame, from the update that completes it.

        The strict barrier releases frame f once every camera has delivered
        f or a later frame, i.e. once the minimum over cameras of the last
        delivered frame reaches f. One update may complete several frames;
        each of them gets that update's interval. Frames no update completes
        are released by the final drain, which ends at ``t_end``.
        """
        cams = sorted({u.camera_id for u in self.updates})
        last = {c: -1 for c in cams}
        low = -1
        out: list[tuple[float, float]] = []
        for i, u in enumerate(self.updates):
            was_low = last[u.camera_id] == low
            last[u.camera_id] = u.frame_index
            if was_low:
                new_low = min(last.values())
                while low < new_low and len(out) < frame_count:
                    low += 1
                    out.append((self.handed[i], self.back[i]))
        while len(out) < frame_count:
            out.append((self.back[-1], t_end))
        return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


@dataclass
class Iteration:
    """Timings, outputs and check results of one iteration."""

    seed: int
    simulate_s: float = 0.0
    stitch_s: float = 0.0
    evaluate_s: float = 0.0
    replay_s: float = 0.0
    peak_rss_mb: float = 0.0  # of the process, read before any check allocates
    observations: int = 0
    frames: list = field(default_factory=list)  # (start, end) per frame
    failures: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # untimed facts the layer metrics need

    @property
    def wall_s(self) -> float:
        return self.simulate_s + self.stitch_s + self.evaluate_s + self.replay_s

    @property
    def obs_per_s(self) -> float:
        return self.observations / self.stitch_s

    def frame_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in self.frames]


def _stage(tracer, name):
    # A stage starts on a collected heap, so it pays for the collections its
    # own allocations trigger and not for those its predecessor left due.
    gc.collect()
    return tracer.stage(name) if tracer is not None else nullcontext()


def run_iteration(w: Workload, cfg: ScenarioConfig, seed: int, workdir: Path,
                  tracer=None, keep_digests: bool = False) -> Iteration:
    """Run one iteration; only the stage calls sit inside the timed regions."""
    it = Iteration(seed=seed)
    perf = time.perf_counter
    d = workdir / f"seed-{seed}"
    try:
        if w.path == "online":
            with _stage(tracer, "simulate"):
                t0 = perf()
                sim = simulator.run_sim(cfg, seed)
                it.simulate_s = perf() - t0
            feed = Feed(sim.updates)
            with _stage(tracer, "stitch"):
                t0 = perf()
                stitch = pipeline.stitch_updates(sim.topology, feed)
                t_end = perf()
                it.stitch_s = t_end - t0
            with _stage(tracer, "evaluate"):
                t0 = perf()
                gids = metrics.gid_index(stitch.engine.trajectories.values(), cfg.frame_rate)
                report = pipeline.evaluate_stitch(
                    sim.truth_handovers, sim.truth_obs, gids,
                    dict(stitch.engine.counts), stitch.engine.gids_minted,
                )
                it.evaluate_s = perf() - t0
            it.peak_rss_mb = peak_rss_mb()
            del gids
            bytes_read = bytes_written = 0
            n_updates = len(sim.updates)
            empty = sum(1 for u in sim.updates if not u.tracks)
        else:
            with _stage(tracer, "simulate"):
                t0 = perf()
                sim = pipeline.simulate_to_dir(cfg, seed, d)
                it.simulate_s = perf() - t0
            with _stage(tracer, "stitch"):
                t0 = perf()
                stitch = pipeline.stitch_dir(d)
                it.stitch_s = perf() - t0
            with _stage(tracer, "evaluate"):
                t0 = perf()
                report = pipeline.evaluate_dir(d)
                it.evaluate_s = perf() - t0
            it.peak_rss_mb = peak_rss_mb()
            sizes = {p.name: p.stat().st_size for p in d.iterdir()}
            bytes_written = sum(sizes.values())
            bytes_read = sum(sizes[f] for f in FILE_INPUTS)
            # stitch_dir has no per-frame boundary, so frame latency comes
            # from replaying the same updates in memory.
            feed = Feed(sim.updates)
            with _stage(tracer, "replay"):
                t0 = perf()
                replayed = pipeline.stitch_updates(sim.topology, feed)
                t_end = perf()
                it.replay_s = t_end - t0
            if (dict(replayed.engine.counts), replayed.engine.gids_minted) != (
                dict(stitch.engine.counts), stitch.engine.gids_minted
            ):
                it.failures.append("in-memory replay disagrees with stitch_dir on events")
            del replayed
            n_updates = sim.frame_count * len(sim.topology.camera_ids)
            occupied = {(o.frame_index, o.camera_id) for o in sim.truth_obs}
            empty = n_updates - len(occupied)

        it.frames = feed.frame_intervals(sim.frame_count, t_end)
        rows = stitch.trajectory_rows(cfg.frame_rate)
        it.observations = len(rows)
        it.failures += check_outputs(sim, stitch, report, rows, n_updates)
        if keep_digests:
            if w.path == "online":
                d.mkdir(parents=True, exist_ok=True)
                formats.write_trajectories(d / pipeline.TRAJECTORIES, rows)
                formats.write_events(d / pipeline.EVENTS, stitch.events)
                formats.dump_json(d / pipeline.REPORT, report)
            it.digests = {f: sha256(d / f) for f in OUTPUT_FILES}
        it.summary = {
            "hosr": report["hosr"]["value"],
            "idf1": report["idf1"]["value"],
            "id_switches": report["id_switches"],
            "events": report["events"],
            "identities": report["identities"],
            "barrier": stitch.barrier_stats,
            "frames": len(it.frames),
            "updates": n_updates,
        }
        it.layer = {
            "snapshots": stitch.snapshots,
            "occupancy_peak": max(stitch.occupancy, default=0),
            "ghost_expiry_share": ghost_expiry_share(stitch.events),
            "states_retained": len(rows),
            "idf1_cells": report["identities"]["true_vehicles"] * len({r.global_id for r in rows}),
            "empty_update_share": empty / n_updates,
            "sim_observations": len(sim.truth_obs),
            "sim_updates": len(sim.updates),
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
        }
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return it


def check_outputs(sim, stitch, report, rows, n_updates: int) -> list[str]:
    """Invariants that hold whatever the matcher decides."""
    fails = []
    keys = [(r.frame_index, r.camera_id, r.local_id) for r in rows]
    truth = {(o.frame_index, o.camera_id, o.local_id) for o in sim.truth_obs}
    if len(set(keys)) != len(keys):
        fails.append("an observation carries more than one gid")
    if set(keys) != truth or any(r.global_id is None for r in rows):
        fails.append("an emitted observation carries no gid")
    b = stitch.barrier_stats
    if b["released"] != sim.frame_count or stitch.snapshots != sim.frame_count:
        fails.append(f"barrier released {b['released']} of {sim.frame_count} frames")
    if b["ingested"] + b["dropped_late"] != n_updates:
        fails.append(f"ingested {b['ingested']} + dropped {b['dropped_late']} != {n_updates} updates")
    logged = dict(sorted(Counter(ev.kind.value for ev in stitch.events).items()))
    if report["events"] != logged:
        fails.append(f"report events {report['events']} != event log {logged}")
    if report["observations"] != len(sim.truth_obs):
        fails.append("report observation count differs from the simulation")
    return fails


def ghost_expiry_share(events) -> float:
    """Share of expired entries whose gid an earlier event had already matched."""
    matched: set[int] = set()
    expired = ghosts = 0
    for ev in events:
        kind = ev.kind.value
        if kind == "matched":
            matched.add(ev.global_id)
        elif kind == "expired":
            expired += 1
            ghosts += ev.global_id in matched
    return ghosts / expired if expired else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cross_path_check(seed: int, workdir: Path) -> dict:
    """In-memory run_to_dir against simulate_to_dir -> stitch_dir -> evaluate_dir.

    ``pipeline.py`` promises the two paths write the same artifacts byte for
    byte; this checks it on the sparse-files configuration.
    """
    cfg = WORKLOADS["sparse-files"].config
    a, b = workdir / "in-memory", workdir / "file-path"
    try:
        pipeline.run_to_dir(cfg, seed, a)
        pipeline.simulate_to_dir(cfg, seed, b)
        pipeline.stitch_dir(b)
        pipeline.evaluate_dir(b)
        digests = {f: [sha256(a / f), sha256(b / f)] for f in OUTPUT_FILES}
    finally:
        shutil.rmtree(a, ignore_errors=True)
        shutil.rmtree(b, ignore_errors=True)
    return {
        "seed": seed,
        "identical": all(x == y for x, y in digests.values()),
        "digests": digests,
    }
