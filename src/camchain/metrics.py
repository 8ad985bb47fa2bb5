"""Evaluation metrics for stitched multi-camera trajectories.

All metrics join the engine's output to ground truth through observation
keys ``(frame_index, camera_id, local_id)``: the simulator records which
true vehicle produced each emitted observation, the engine records which
global id it assigned to it, and the metrics compare the two sides.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    when the engine labeled it, one unit of prediction. Overlaps are counted
    sparsely, one entry per (vehicle, global id) pair that shares at least
    one observation, so ``idtp`` is the weight of the heaviest one-to-one
    matching of that bipartite graph. It is found exactly, one connected
    component at a time: a component with a single vehicle or a single id
    scores its heaviest edge, any other is solved by successive shortest
    augmenting paths. The optimum's value is unique even where the pairing
    is not, so the score does not depend on how ties are broken.
    """
    n_truth = len(truth_obs)
    # one label per observation; Counter keeps only the distinct pairs
    labels = [gids.get((o.frame_index, o.camera_id, o.local_id)) for o in truth_obs]
    n_pred = n_truth - labels.count(None)
    overlap = {
        pair: w
        for pair, w in Counter(zip([o.vehicle_id for o in truth_obs], labels)).items()
        if pair[1] is not None
    }
    idtp = 0
    for rows, n_cols in _components(overlap):
        if len(rows) == 1:
            idtp += max(rows[0].values())
        else:
            idtp += _heaviest_matching(rows, n_cols)
    return IdScore(idtp=idtp, idfp=n_pred - idtp, idfn=n_truth - idtp)


def _components(
    overlap: Mapping[tuple[int, int], int]
) -> Iterator[tuple[list[dict[int, int]], int]]:
    """The connected components of the overlap graph.

    Each is yielded as the adjacency of its smaller side, ``rows[i]``
    mapping column index to weight, with the columns numbered
    ``0..n_cols-1``; a component with one vehicle or one id has one row.
    """
    by_vid: dict[int, dict[int, int]] = {}
    by_gid: dict[int, list[int]] = {}
    for (vid, gid), w in overlap.items():
        by_vid.setdefault(vid, {})[gid] = w
        by_gid.setdefault(gid, []).append(vid)
    seen: set[int] = set()
    for start in by_vid:
        if start in seen:
            continue
        seen.add(start)
        vids = [start]
        gid_pos: dict[int, int] = {}
        for vid in vids:  # grows while it is walked
            for gid in by_vid[vid]:
                if gid not in gid_pos:
                    gid_pos[gid] = len(gid_pos)
                    for other in by_gid[gid]:
                        if other not in seen:
                            seen.add(other)
                            vids.append(other)
        if len(vids) <= len(gid_pos):
            yield [
                {gid_pos[gid]: w for gid, w in by_vid[vid].items()} for vid in vids
            ], len(gid_pos)
        else:
            vid_pos = {vid: i for i, vid in enumerate(vids)}
            yield [
                {vid_pos[vid]: by_vid[vid][gid] for vid in by_gid[gid]} for gid in gid_pos
            ], len(vids)


def _heaviest_matching(rows: Sequence[Mapping[int, int]], n_cols: int) -> int:
    """Weight of the heaviest one-to-one matching of a bipartite graph.

    ``rows[i]`` maps column index to a positive integer weight. Each row
    also gets a private zero-weight column ``n_cols + i`` that stands for
    "left unmatched", so every row is assigned and the problem becomes a
    minimum-cost assignment with costs ``-weight``. Rows are added one at a
    time, each along a shortest augmenting path found by Dijkstra on costs
    reduced by row and column potentials (Jonker & Volgenant, 1987), with
    the dual update of Crouse (2016). Integer arithmetic keeps it exact.
    """
    n = len(rows)
    adj = [{**row, n_cols + i: 0} for i, row in enumerate(rows)]
    u = [0] * n  # row potentials
    v = [0] * (n_cols + n)  # column potentials
    col4row = [-1] * n
    row4col = [-1] * (n_cols + n)
    for s in range(n):
        dist: dict[int, int] = {}  # tentative path cost to each reached column
        via: dict[int, int] = {}  # the row each reached column was reached from
        done: dict[int, int] = {}  # final path cost of each scanned column
        path_rows = [s]
        heap: list[tuple[int, int]] = []
        i, d = s, 0
        while True:
            base = d - u[i]
            for j, w in adj[i].items():
                r = base - w - v[j]
                if j not in dist or r < dist[j]:
                    dist[j] = r
                    via[j] = i
                    heapq.heappush(heap, (r, j))
            while True:
                d, j = heapq.heappop(heap)
                if j not in done:
                    break
            done[j] = d
            i = row4col[j]
            if i < 0:
                break
            path_rows.append(i)
        u[s] += d
        for i in path_rows[1:]:
            u[i] += d - done[col4row[i]]
        for j, dj in done.items():
            v[j] -= d - dj
        while True:  # flip the path's edges, from its free end back to s
            i = via[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == s:
                break
    return sum(adj[i][j] for i, j in enumerate(col4row))


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


def _percentile(ascending: Sequence[float], q: float) -> float:
    """numpy's default ("linear") percentile of a non-empty ascending list."""
    pos = q / 100 * (len(ascending) - 1)
    lo = int(pos)
    t = pos - lo
    a = ascending[lo]
    b = ascending[min(lo + 1, len(ascending) - 1)]
    # the same two-sided interpolation as numpy, so the last digit agrees
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def summarize_throughput(
    snapshot_seconds: Sequence[float],
    frame_rate: float,
    occupancy: Sequence[int],
) -> dict:
    """Wall-time summary of a stitching run, for the bench report."""
    n = len(snapshot_seconds)
    wall = float(sum(snapshot_seconds))
    lat_ms = sorted(s * 1e3 for s in snapshot_seconds)
    occ = occupancy if len(occupancy) else [0]
    # 0 rather than inf when nothing ran: the report must stay valid JSON
    rate = n / wall if wall > 0.0 else 0.0
    return {
        "empty": n == 0,
        "snapshots": n,
        "wall_s": wall,
        "snapshots_per_s": rate,
        "realtime_factor": rate / frame_rate,
        "latency_ms": {
            "mean": sum(lat_ms) / n if n else 0.0,
            "p50": _percentile(lat_ms, 50) if n else 0.0,
            "p95": _percentile(lat_ms, 95) if n else 0.0,
            "p99": _percentile(lat_ms, 99) if n else 0.0,
            "max": lat_ms[-1] if n else 0.0,
        },
        "buffer_occupancy": {
            "mean": sum(occ) / len(occ),
            "peak": max(occ),
        },
    }
