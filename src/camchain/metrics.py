"""Evaluation metrics for stitched multi-camera trajectories.

All metrics join the engine's output to ground truth through observation
keys ``(frame_index, camera_id, local_id)``: the simulator records which
true vehicle produced each emitted observation, the engine records which
global id it assigned to it, and the metrics compare the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .simulator import TrueHandover, TruthObs
from .tracks import GlobalTrajectory

ObsKey = tuple[int, int, int]  # (frame_index, camera_id, local_id)


def gid_index(
    trajectories: Iterable[GlobalTrajectory], frame_rate: float
) -> dict[ObsKey, int]:
    """Map every stitched observation to its assigned global id.

    Each row carries the frame index of its snapshot, so ``frame_rate`` is
    not needed; it stays in the signature for existing callers.
    """
    out: dict[ObsKey, int] = {}
    for traj in trajectories:
        gid = traj.global_id
        for row in traj.states:
            out[(row.frame_index, row.camera_id, row.local_id)] = gid
    return out


@dataclass(frozen=True)
class HandoverScore:
    total: int
    matched: int

    @property
    def value(self) -> Optional[float]:
        """Fraction of true camera transitions that kept their id.

        None when the scenario produced no transitions at all; an empty
        denominator is not a success.
        """
        if self.total == 0:
            return None
        return self.matched / self.total


def compute_hosr(
    handovers: Sequence[TrueHandover],
    truth_obs: Sequence[TruthObs],
    gids: Mapping[ObsKey, int],
) -> HandoverScore:
    """Score each true transition by comparing ids at its two endpoints.

    The upstream side is the vehicle's last emitted observation at the
    camera it is leaving, the downstream side its first at the camera it
    enters. A side the engine never labeled counts as a failure.
    """
    first: dict[tuple[int, int], TruthObs] = {}
    last: dict[tuple[int, int], TruthObs] = {}
    for o in truth_obs:
        key = (o.vehicle_id, o.camera_id)
        if key not in first or o.frame_index < first[key].frame_index:
            first[key] = o
        if key not in last or o.frame_index > last[key].frame_index:
            last[key] = o
    matched = 0
    for h in handovers:
        o_out = last.get((h.vehicle_id, h.from_camera))
        o_in = first.get((h.vehicle_id, h.to_camera))
        if o_out is None or o_in is None:
            continue
        g_out = gids.get((o_out.frame_index, o_out.camera_id, o_out.local_id))
        g_in = gids.get((o_in.frame_index, o_in.camera_id, o_in.local_id))
        if g_out is not None and g_out == g_in:
            matched += 1
    return HandoverScore(total=len(handovers), matched=matched)


@dataclass(frozen=True)
class IdScore:
    idtp: int
    idfp: int
    idfn: int

    @property
    def idf1(self) -> Optional[float]:
        denom = 2 * self.idtp + self.idfp + self.idfn
        if denom == 0:
            return None
        return 2 * self.idtp / denom


def compute_idf1(
    truth_obs: Sequence[TruthObs], gids: Mapping[ObsKey, int]
) -> IdScore:
    """Identity F1 under the best one-to-one truth-to-output id pairing.

    Observation-level: each emitted observation is one unit of truth and,
    when the engine labeled it, one unit of prediction. The pairing that
    maximizes agreement is found by solving the assignment problem on the
    overlap-count matrix.
    """
    t_ids = sorted({o.vehicle_id for o in truth_obs})
    # one label per observation, not an (observation, label) pair: a pair
    # per observation would be as many new objects for the cyclic GC to track
    labels = [gids.get((o.frame_index, o.camera_id, o.local_id)) for o in truth_obs]
    p_ids = sorted({g for g in labels if g is not None})
    n_truth = len(truth_obs)
    n_pred = n_truth - labels.count(None)
    if not t_ids or not p_ids:
        return IdScore(idtp=0, idfp=n_pred, idfn=n_truth)
    t_pos = {v: i for i, v in enumerate(t_ids)}
    p_pos = {g: j for j, g in enumerate(p_ids)}
    overlap = np.zeros((len(t_ids), len(p_ids)), dtype=np.int64)
    for o, g in zip(truth_obs, labels):
        if g is not None:
            overlap[t_pos[o.vehicle_id], p_pos[g]] += 1
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    return IdScore(idtp=idtp, idfp=n_pred - idtp, idfn=n_truth - idtp)


def count_id_switches(
    truth_obs: Sequence[TruthObs], gids: Mapping[ObsKey, int]
) -> int:
    """Times any vehicle's canonical global id changes along its history.

    Per frame a vehicle may be observed by several cameras; the label from
    the lowest camera id is canonical for that frame. Frames the engine
    never labeled are skipped rather than counted as changes.
    """
    per_vid: dict[int, dict[int, TruthObs]] = {}
    for o in truth_obs:
        frames = per_vid.setdefault(o.vehicle_id, {})
        cur = frames.get(o.frame_index)
        if cur is None or o.camera_id < cur.camera_id:
            frames[o.frame_index] = o
    switches = 0
    for frames in per_vid.values():
        prev = None
        for f in sorted(frames):
            o = frames[f]
            g = gids.get((o.frame_index, o.camera_id, o.local_id))
            if g is None:
                continue
            if prev is not None and g != prev:
                switches += 1
            prev = g
    return switches


def summarize_throughput(
    snapshot_seconds: Sequence[float],
    frame_rate: float,
    occupancy: Sequence[int],
) -> dict:
    """Wall-time summary of a stitching run, for the bench report."""
    n = len(snapshot_seconds)
    wall = float(sum(snapshot_seconds))
    lat_ms = np.asarray(snapshot_seconds, dtype=float) * 1e3
    occ = np.asarray(occupancy if len(occupancy) else [0], dtype=float)
    # 0 rather than inf when nothing ran: the report must stay valid JSON
    rate = n / wall if wall > 0.0 else 0.0
    return {
        "empty": n == 0,
        "snapshots": n,
        "wall_s": wall,
        "snapshots_per_s": rate,
        "realtime_factor": rate / frame_rate,
        "latency_ms": {
            "mean": float(lat_ms.mean()) if n else 0.0,
            "p50": float(np.percentile(lat_ms, 50)) if n else 0.0,
            "p95": float(np.percentile(lat_ms, 95)) if n else 0.0,
            "p99": float(np.percentile(lat_ms, 99)) if n else 0.0,
            "max": float(lat_ms.max()) if n else 0.0,
        },
        "buffer_occupancy": {
            "mean": float(occ.mean()),
            "peak": int(occ.max()),
        },
    }
