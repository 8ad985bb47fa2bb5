"""Per-layer metrics: their catalogue and how a traced iteration yields them.

Times are summed over the simulate, stitch and evaluate stages; the replay
that gives ``sparse-files`` its frame latencies is left out, except that
the ``gc.frame_*`` figures use the frames of whichever stage produced them.
"""

from __future__ import annotations

from workloads import quantile

MAIN_STAGES = ("simulate", "stitch", "evaluate")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {}


def _layer(name, unit, better="lower"):
    PER_LAYER[name] = (unit, better)


for _n in ("process_snapshot_s", "self_s"):
    _layer("handover." + _n, "s")
_layer("handover.snapshots", "count", "higher")
_layer("handover.pushed", "count")
_layer("handover.matched", "count", "higher")
_layer("handover.new_identity", "count")
_layer("handover.expired", "count")
_layer("handover.gids_minted", "count")
for _n in ("buffer_push", "buffer_sweep"):
    _layer(f"handover.{_n}_s", "s")
    _layer(f"handover.{_n}_calls", "count")
_layer("handover.buffer_occupancy_peak", "count")
_layer("handover.match_per_push", "ratio", "higher")
_layer("handover.ghost_expiry_share", "ratio")
_layer("tracks.record_s", "s")
_layer("tracks.record_calls", "count")
_layer("tracks.states_retained", "count")
for _n in ("estimate_speed", "estimate_heading"):
    _layer(f"kinematics.{_n}_s", "s")
    _layer(f"kinematics.{_n}_calls", "count")
_layer("kinematics.motion_status_calls", "count")
_layer("geometry.point_in_polygon_s", "s")
for _n in ("point_in_polygon", "lateral_norm", "get_zone"):
    _layer(f"geometry.{_n}_calls", "count")
_layer("topology.edges_at_calls", "count")
_layer("sync.ingest_s", "s")
_layer("sync.ingest_calls", "count")
_layer("sync.release_s", "s")
_layer("sync.release_polls", "count")
_layer("sync.released", "count", "higher")
_layer("sync.release_hit_ratio", "ratio", "higher")
_layer("sync.peak_pending", "count")
_layer("sync.dropped_late", "count")
for _n in ("read_observations", "updates_from_rows", "write_trajectories", "write_events",
           "read_trajectories", "read_truth_obs", "read_events", "write_simulation"):
    _layer(f"formats.{_n}_s", "s")
_layer("formats.empty_update_share", "ratio")
_layer("formats.bytes_read", "B")
_layer("formats.bytes_written", "B")
_layer("pipeline.trajectory_rows_s", "s")
_layer("pipeline.stitch_self_s", "s")
for _n in ("gid_index", "compute_hosr", "compute_idf1"):
    _layer(f"metrics.{_n}_s", "s")
_layer("metrics.idf1_matrix_cells", "count")
_layer("metrics.count_id_switches_s", "s")
_layer("simulator.run_sim_s", "s")
_layer("simulator.observations", "count", "higher")
_layer("simulator.updates", "count", "higher")
_layer("gc.pause_s", "s")
_layer("gc.max_pause_ms", "ms")
_layer("gc.gen2_collections", "count")
_layer("gc.frame_p99_ms", "ms")
_layer("gc.frame_p99_no_gc_ms", "ms")
_layer("quality.hosr", "ratio", "higher")
_layer("quality.idf1", "ratio", "higher")
_layer("quality.id_switches", "count")
_layer("trace.overhead_s", "s")
_layer("trace.overhead_share", "ratio")


def layer_metrics(it, tracer) -> dict:
    """Per-layer metrics of one traced iteration, all but the ``trace.*`` pair."""

    def tot(name):
        return tracer.total(name, MAIN_STAGES)

    m = {}
    ev = it.summary["events"]
    lay = it.layer
    barrier = it.summary["barrier"]
    ps = tot("handover.process_snapshot")
    m["handover.process_snapshot_s"], m["handover.self_s"] = ps[1], ps[2]
    m["handover.snapshots"] = lay["snapshots"]
    for k in ("pushed", "matched", "new_identity", "expired"):
        m["handover." + k] = ev.get(k, 0)
    m["handover.gids_minted"] = it.summary["identities"]["minted"]
    for n in ("buffer_push", "buffer_sweep"):
        c = tot("handover." + n)
        m[f"handover.{n}_s"], m[f"handover.{n}_calls"] = c[1], c[0]
    m["handover.buffer_occupancy_peak"] = lay["occupancy_peak"]
    m["handover.match_per_push"] = ev.get("matched", 0) / ev["pushed"] if ev.get("pushed") else 0.0
    m["handover.ghost_expiry_share"] = lay["ghost_expiry_share"]
    c = tot("tracks.record")
    m["tracks.record_s"], m["tracks.record_calls"] = c[1], c[0]
    m["tracks.states_retained"] = lay["states_retained"]
    for n in ("estimate_speed", "estimate_heading"):
        c = tot("kinematics." + n)
        m[f"kinematics.{n}_s"], m[f"kinematics.{n}_calls"] = c[1], c[0]
    m["kinematics.motion_status_calls"] = tot("kinematics.motion_status")[0]
    c = tot("geometry.point_in_polygon")
    m["geometry.point_in_polygon_s"], m["geometry.point_in_polygon_calls"] = c[1], c[0]
    m["geometry.lateral_norm_calls"] = tot("geometry.lateral_norm")[0]
    m["geometry.get_zone_calls"] = tot("geometry.get_zone")[0]
    m["topology.edges_at_calls"] = tot("topology.edges_at")[0]
    c = tot("sync.ingest")
    m["sync.ingest_s"], m["sync.ingest_calls"] = c[1], c[0]
    c = tot("sync.try_release")
    m["sync.release_s"], m["sync.release_polls"] = c[1], c[0]
    m["sync.released"] = barrier["released"]
    m["sync.release_hit_ratio"] = barrier["released"] / c[0] if c[0] else 0.0
    m["sync.peak_pending"] = barrier["peak_pending"]
    m["sync.dropped_late"] = barrier["dropped_late"]
    for n in ("read_observations", "updates_from_rows", "write_trajectories", "write_events",
              "read_trajectories", "read_truth_obs", "read_events", "write_simulation"):
        m[f"formats.{n}_s"] = tot("formats." + n)[1]
    m["formats.empty_update_share"] = lay["empty_update_share"]
    m["formats.bytes_read"] = lay["bytes_read"]
    m["formats.bytes_written"] = lay["bytes_written"]
    m["pipeline.trajectory_rows_s"] = tot("pipeline.trajectory_rows")[1]
    m["pipeline.stitch_self_s"] = tot("pipeline.stitch_updates")[2] + tot("pipeline.stitch_dir")[2]
    for n in ("gid_index", "compute_hosr", "compute_idf1", "count_id_switches"):
        m[f"metrics.{n}_s"] = tot("metrics." + n)[1]
    m["metrics.idf1_matrix_cells"] = lay["idf1_cells"]
    m["simulator.run_sim_s"] = tot("simulator.run_sim")[1]
    m["simulator.observations"] = lay["sim_observations"]
    m["simulator.updates"] = lay["sim_updates"]

    main = [p for p in tracer.gc_pauses if p[3] in MAIN_STAGES]
    m["gc.pause_s"] = sum(p[1] for p in main)
    m["gc.max_pause_ms"] = max((p[1] for p in main), default=0.0) * 1e3
    m["gc.gen2_collections"] = sum(1 for p in main if p[2] == 2)
    # Frames whose interval a collection overlapped, told apart from the rest.
    pauses = sorted((p[0], p[0] + p[1]) for p in tracer.gc_pauses)
    clean, j = [], 0
    for a, b in it.frames:
        while j < len(pauses) and pauses[j][1] <= a:
            j += 1
        if not (j < len(pauses) and pauses[j][0] < b):
            clean.append((b - a) * 1e3)
    m["gc.frame_p99_ms"] = quantile(it.frame_ms(), 0.99)
    m["gc.frame_p99_no_gc_ms"] = quantile(clean, 0.99) if clean else 0.0
    m["quality.hosr"] = it.summary["hosr"]
    m["quality.idf1"] = it.summary["idf1"]
    m["quality.id_switches"] = it.summary["id_switches"]
    return m
