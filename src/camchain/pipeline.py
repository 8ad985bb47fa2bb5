"""End-to-end orchestration: simulate, stitch, evaluate, bench.

The in-memory path (``run_scenario``) and the file path (``simulate`` then
``stitch`` then ``evaluate`` over an output directory) produce identical
artifacts byte for byte: the frame barrier makes snapshot content
independent of delivery order, and the engine is deterministic given
snapshots. The in-memory path hands the barrier per-camera updates in
delivery order; the file path hands it whole frames, which
``observations.csv`` already holds in order. Both feed one engine loop.
``report.json`` carries no wall-clock numbers; timing lives only in
``bench_report.json``. ``stitch_updates``, ``stitch_observations`` and the
four ``*_dir`` commands run with the cyclic GC paused (``tracks.gc_paused``),
reads and writes included.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .formats import (
    dump_json,
    frames_from_rows,
    load_json,
    meta_from_dict,
    read_events,
    read_observations,
    read_trajectories,
    parse_topology,
    read_truth_handovers,
    read_truth_obs,
    scenario_from_dict,
    scenario_to_dict,
    topology_to_dict,
    write_events,
    write_observations,
    write_trajectories,
    write_truth_handovers,
    write_truth_obs,
    write_truth_tracks,
)
from .errors import ConfigError
from .handover import HandoverEngine, HandoverEvent, MatcherConfig
from .metrics import (
    ObsKey,
    compute_hosr,
    compute_idf1,
    count_id_switches,
    gid_index,
    summarize_throughput,
)
from .simulator import ScenarioConfig, SimResult, TrueHandover, TruthObs, run_sim
from .sync import BarrierConfig, Snapshot, StreamUpdate, SyncBarrier
from .topology import TopologyGraph
from .tracks import TrajRow, gc_paused

OBSERVATIONS = "observations.csv"
TRAJECTORIES = "trajectories.csv"
EVENTS = "events.csv"
TRUTH_OBS = "truth_observations.csv"
TRUTH_TRACKS = "truth_tracks.csv"
TRUTH_HANDOVERS = "truth_handovers.csv"
TOPOLOGY = "topology.json"
SCENARIO = "scenario.json"
META = "meta.json"
REPORT = "report.json"
BENCH_REPORT = "bench_report.json"


@dataclass
class StitchResult:
    engine: HandoverEngine
    snapshots: int
    barrier_stats: dict
    snapshot_seconds: list[float] = field(default_factory=list)
    occupancy: list[int] = field(default_factory=list)

    @property
    def events(self) -> list[HandoverEvent]:
        return self.engine.events

    def trajectory_rows(self, frame_rate: float) -> list[TrajRow]:
        """Every stitched observation, in global-id order.

        The engine already stores one ``TrajRow`` per observation, stamped
        with its snapshot's frame index, so ``frame_rate`` is not needed; it
        stays in the signature for existing callers.
        """
        trajs = self.engine.trajectories
        return [row for gid in sorted(trajs) for row in trajs[gid].states]


def _stitch(
    topology: TopologyGraph,
    matcher: Optional[MatcherConfig],
    barrier: SyncBarrier,
    snapshots: Iterable[Snapshot],
    timing: bool = False,
) -> StitchResult:
    """Run the snapshots ``barrier`` releases through a new engine."""
    engine = HandoverEngine(topology, matcher)
    result = StitchResult(engine=engine, snapshots=0, barrier_stats={})
    for snap in snapshots:
        if timing:
            t0 = time.perf_counter()
            engine.process_snapshot(snap)
            result.snapshot_seconds.append(time.perf_counter() - t0)
        else:
            engine.process_snapshot(snap)
        result.occupancy.append(engine.total_buffered())
        result.snapshots += 1
    result.barrier_stats = asdict(barrier.stats)
    return result


def _released(barrier: SyncBarrier, updates: Iterable[StreamUpdate]) -> Iterator[Snapshot]:
    """Each snapshot as soon as the update that completes it is ingested."""
    for u in updates:
        barrier.ingest(u)
        while (snap := barrier.try_release()) is not None:
            yield snap
    yield from barrier.drain()


@gc_paused
def stitch_updates(
    topology: TopologyGraph,
    updates: Iterable[StreamUpdate],
    matcher: Optional[MatcherConfig] = None,
    max_lag: Optional[int] = None,
    timing: bool = False,
) -> StitchResult:
    """Feed per-camera updates through the frame barrier into the engine."""
    barrier = SyncBarrier(BarrierConfig(camera_ids=topology.camera_ids, max_lag=max_lag))
    return _stitch(topology, matcher, barrier, _released(barrier, updates), timing)


def evaluate_stitch(
    truth_handovers: list[TrueHandover],
    truth_obs: list[TruthObs],
    gids: dict[ObsKey, int],
    event_counts: dict[str, int],
    gids_minted: Optional[int] = None,
) -> dict:
    hosr = compute_hosr(truth_handovers, truth_obs, gids)
    ids = compute_idf1(truth_obs, gids)
    switches = count_id_switches(truth_obs, gids)
    return {
        "hosr": {"total": hosr.total, "matched": hosr.matched, "value": hosr.value},
        "idf1": {
            "idtp": ids.idtp, "idfp": ids.idfp, "idfn": ids.idfn, "value": ids.idf1,
        },
        "id_switches": switches,
        "events": dict(sorted(event_counts.items())),
        "identities": {
            "minted": gids_minted,
            "true_vehicles": len({o.vehicle_id for o in truth_obs}),
        },
        "observations": len(truth_obs),
    }


def run_scenario(
    cfg: ScenarioConfig,
    seed: int,
    matcher: Optional[MatcherConfig] = None,
    max_lag: Optional[int] = None,
) -> tuple[SimResult, StitchResult, dict]:
    """Simulate, stitch, and score one scenario in memory."""
    sim = run_sim(cfg, seed)
    stitch = stitch_updates(sim.topology, sim.updates, matcher, max_lag)
    gids = gid_index(stitch.engine.trajectories.values(), cfg.frame_rate)
    report = evaluate_stitch(
        sim.truth_handovers,
        sim.truth_obs,
        gids,
        dict(stitch.engine.counts),
        stitch.engine.gids_minted,
    )
    return sim, stitch, report


# -- file-level commands --------------------------------------------------------


def write_simulation(
    sim: SimResult, out_dir: str | Path, matcher: Optional[MatcherConfig] = None
) -> None:
    """Dump a simulation; with a matcher the topology file is self-describing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / SCENARIO, scenario_to_dict(sim.config))
    dump_json(out / TOPOLOGY, topology_to_dict(sim.topology, matcher))
    dump_json(out / META, sim.meta)
    write_observations(out / OBSERVATIONS, sim.updates)
    write_truth_obs(out / TRUTH_OBS, sim.truth_obs)
    write_truth_tracks(out / TRUTH_TRACKS, sim.truth_tracks)
    write_truth_handovers(out / TRUTH_HANDOVERS, sim.truth_handovers)


@gc_paused
def simulate_to_dir(cfg: ScenarioConfig, seed: int, out_dir: str | Path) -> SimResult:
    sim = run_sim(cfg, seed)
    write_simulation(sim, out_dir)
    return sim


@gc_paused
def stitch_dir(
    in_dir: str | Path,
    out_dir: Optional[str | Path] = None,
    matcher: Optional[MatcherConfig] = None,
    max_lag: Optional[int] = None,
    topology_path: Optional[str | Path] = None,
) -> StitchResult:
    """Stitch observations.csv (plus topology and meta) from a directory.

    With ``matcher=None`` the topology file's matcher section applies
    (package defaults when the file has none).
    """
    src = Path(in_dir)
    topology, file_matcher = parse_topology(
        topology_path if topology_path is not None else src / TOPOLOGY
    )
    return stitch_observations(
        src, topology, matcher if matcher is not None else file_matcher, out_dir, max_lag
    )


@gc_paused
def stitch_observations(
    in_dir: str | Path,
    topology: TopologyGraph,
    matcher: Optional[MatcherConfig] = None,
    out_dir: Optional[str | Path] = None,
    max_lag: Optional[int] = None,
) -> StitchResult:
    """``stitch_dir`` over a topology already parsed, from a directory's
    observations.csv and meta.json."""
    src = Path(in_dir)
    out = Path(out_dir) if out_dir is not None else src
    meta = meta_from_dict(load_json(src / META))
    rate, n_cams = meta["frame_rate"], len(topology.nodes)
    if meta["n_cameras"] != n_cams:
        raise ConfigError(f"meta.n_cameras: {meta['n_cameras']}, but the topology has {n_cams}")
    # the simulator rounds duration_s * frame_rate to whole frames
    if abs(meta["duration_s"] * rate - meta["frame_count"]) > 0.5:
        raise ConfigError(
            f"meta.duration_s: {meta['duration_s']} s at {rate} fps is not "
            f"{meta['frame_count']} frames"
        )
    for i, node in enumerate(topology.nodes):
        # every row's t is frame_index / frame_rate, so no other frame period fits
        if abs(node.calibration.frame_dt * rate - 1.0) > 1e-9:
            raise ConfigError(
                f"topology.cameras[{i}].frame_dt: {node.calibration.frame_dt} != 1 / {rate} fps"
            )
    # rows are read and stitched a whole frame at a time: the file is in
    # frame order, so each frame goes through the barrier as it completes.
    # Nothing is written until the whole file has passed every check.
    barrier = SyncBarrier(BarrierConfig(camera_ids=topology.camera_ids, max_lag=max_lag))
    frames = frames_from_rows(
        read_observations(src / OBSERVATIONS), topology.camera_ids, meta["frame_count"], rate
    )
    stitch = _stitch(topology, matcher, barrier, starmap(barrier.ingest_frame, frames))
    out.mkdir(parents=True, exist_ok=True)
    write_trajectories(out / TRAJECTORIES, stitch.trajectory_rows(rate))
    write_events(out / EVENTS, stitch.events)
    return stitch


@gc_paused
def evaluate_dir(in_dir: str | Path, out_dir: Optional[str | Path] = None) -> dict:
    """Score trajectories.csv in a directory against its truth tables."""
    src = Path(in_dir)
    out = Path(out_dir) if out_dir is not None else src
    truth_obs = list(read_truth_obs(src / TRUTH_OBS))
    truth_handovers = list(read_truth_handovers(src / TRUTH_HANDOVERS))
    # only the gid map, the minted ids and the event counts outlive the read
    gids: dict[ObsKey, int] = {}
    minted = set()
    for r in read_trajectories(src / TRAJECTORIES):
        gids[(r.frame_index, r.camera_id, r.local_id)] = r.global_id
        minted.add(r.global_id)
    counts: dict[str, int] = {}
    events_path = src / EVENTS
    if events_path.exists():
        for ev in read_events(events_path):
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
    report = evaluate_stitch(truth_handovers, truth_obs, gids, counts, len(minted))
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / REPORT, report)
    return report


@gc_paused
def run_to_dir(
    cfg: ScenarioConfig,
    seed: int,
    out_dir: str | Path,
    matcher: Optional[MatcherConfig] = None,
    max_lag: Optional[int] = None,
) -> dict:
    """simulate + stitch + evaluate into one directory, all in memory."""
    sim, stitch, report = run_scenario(cfg, seed, matcher, max_lag)
    out = Path(out_dir)
    write_simulation(sim, out, matcher if matcher is not None else MatcherConfig())
    write_trajectories(out / TRAJECTORIES, stitch.trajectory_rows(cfg.frame_rate))
    write_events(out / EVENTS, stitch.events)
    dump_json(out / REPORT, report)
    return report


def bench_scenario(
    cfg: ScenarioConfig,
    seed: int,
    matcher: Optional[MatcherConfig] = None,
    out_dir: Optional[str | Path] = None,
    max_lag: Optional[int] = None,
) -> dict:
    """Timed stitching run; the only artifact with wall-clock numbers."""
    sim = run_sim(cfg, seed)
    stitch = stitch_updates(sim.topology, sim.updates, matcher, max_lag, timing=True)
    bench = {
        "scenario": cfg.name,
        "seed": seed,
        "regime": cfg.regime.value,
        "frame_rate": cfg.frame_rate,
        "cameras": cfg.n_cameras,
        "vehicles": len(sim.truth_tracks),
        "observations": len(sim.truth_obs),
        "throughput": summarize_throughput(
            stitch.snapshot_seconds, cfg.frame_rate, stitch.occupancy
        ),
        "barrier": stitch.barrier_stats,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(out / BENCH_REPORT, bench)
    return bench
