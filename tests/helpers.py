"""Hand-built worlds, snapshot builders, and independent oracles for the tests."""

from __future__ import annotations

import itertools
import math
import random

from camchain.geometry import Point2, Polygon, RoadFrame
from camchain.kinematics import Calibration
from camchain.sync import Snapshot
from camchain.topology import CameraNode, EdgeDef, TopologyGraph
from camchain.tracks import TrackState

LAM = 0.05    # m per px in the hand-built worlds
FPS = 10.0
ROAD_WIDTH = 8.0


def rect(x0: float, x1: float, half: float = 4.5) -> Polygon:
    return Polygon(
        (Point2(x0, -half), Point2(x1, -half), Point2(x1, half), Point2(x0, half))
    )


def road(width: float = ROAD_WIDTH) -> RoadFrame:
    return RoadFrame(origin=Point2(0.0, 0.0), axis=Point2(1.0, 0.0), width=width)


def chain_graph(fovs, overlaps) -> TopologyGraph:
    """Straight eastbound chain: camera i+1 covers fovs[i], edges bridge pairs."""
    frame = road()
    cal = Calibration(m_per_px=LAM, frame_dt=1.0 / FPS)
    nodes = tuple(
        CameraNode(id=i + 1, fov=rect(*fv), calibration=cal, frame=frame)
        for i, fv in enumerate(fovs)
    )
    edges = tuple(
        EdgeDef(upstream=i + 1, downstream=i + 2, overlap=rect(*ov), frame=frame)
        for i, ov in enumerate(overlaps)
    )
    return TopologyGraph(nodes=nodes, edges=edges)


def two_cam_graph() -> TopologyGraph:
    # cam1 [0,20], cam2 [10,30], shared footprint [10,20] is the trigger region
    return chain_graph([(0.0, 20.0), (10.0, 30.0)], [(10.0, 20.0)])


def gapped_graph() -> TopologyGraph:
    # blind gap (20,30); trigger region stretches over it
    return chain_graph([(0.0, 20.0), (30.0, 50.0)], [(10.0, 40.0)])


def ts(cam: int, lid: int, t: float, x: float, y: float) -> TrackState:
    return TrackState(
        frame_index=round(t * FPS), camera_id=cam, local_id=lid, t=t,
        x_px=x / LAM, y_px=y / LAM, x_m=x, y_m=y,
    )


def snap(frame: int, cams: dict, fps: float = FPS) -> Snapshot:
    """cams maps camera_id -> [(local_id, x, y), ...]."""
    t = round(frame / fps, 6)
    per = {
        cam: tuple(ts(cam, lid, t, x, y) for lid, x, y in items)
        for cam, items in cams.items()
    }
    return Snapshot(frame_index=frame, t=t, per_camera=per)


def drive(engine, graph: TopologyGraph, paths: dict, frames: int, fps: float = FPS):
    """Feed scripted straight-line motion through an engine, frame by frame.

    paths maps vehicle name -> (x0, y, vx in m/frame, lid per camera dict).
    A camera sees a vehicle whenever x lands inside its footprint. Returns
    the full event list.
    """
    events = []
    for f in range(frames):
        per: dict[int, list] = {}
        for _, (x0, y, vx, lids) in sorted(paths.items()):
            x = x0 + vx * f
            for node in graph.nodes:
                bb = node.fov.bbox
                if bb[0] <= x <= bb[2] and node.id in lids:
                    per.setdefault(node.id, []).append((lids[node.id], x, y))
        events.extend(engine.process_snapshot(snap(f, per, fps)))
    return events


# -- independent geometry oracles -------------------------------------------


def _seg_dist(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    if norm2 == 0.0:
        return math.hypot(px - ax, py - ay)
    u = ((px - ax) * vx + (py - ay) * vy) / norm2
    u = max(0.0, min(1.0, u))
    return math.hypot(px - (ax + u * vx), py - (ay + u * vy))


def pip_oracle(x, y, verts, eps=1e-9):
    """Containment via summed signed angles (winding), boundary by distance.

    Deliberately a different algorithm from the library's even-odd crossing
    test so the two can check each other.
    """
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if _seg_dist(x, y, ax, ay, bx, by) <= eps:
            return True
    total = 0.0
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        d = math.atan2(by - y, bx - x) - math.atan2(ay - y, ax - x)
        while d > math.pi:
            d -= 2.0 * math.pi
        while d < -math.pi:
            d += 2.0 * math.pi
        total += d
    return abs(total) > math.pi


def min_edge_dist(x, y, verts):
    n = len(verts)
    return min(
        _seg_dist(x, y, *verts[i], *verts[(i + 1) % n]) for i in range(n)
    )


def star_polygon(rng: random.Random, n: int = 8) -> Polygon:
    """Random star-shaped (hence simple) polygon around a random center."""
    cx, cy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    verts = tuple(
        Point2(cx + r * math.cos(a), cy + r * math.sin(a))
        for a, r in ((a, rng.uniform(1.0, 4.0)) for a in angles)
    )
    return Polygon(verts)


# -- independent identity-score oracle ---------------------------------------


def idf1_oracle(truth_obs, gids):
    """Brute-force best one-to-one id pairing; only viable for tiny instances."""
    pairs = [(o, gids.get((o.frame_index, o.camera_id, o.local_id))) for o in truth_obs]
    t_ids = sorted({o.vehicle_id for o in truth_obs})
    p_ids = sorted({g for _, g in pairs if g is not None})
    n_truth = len(truth_obs)
    n_pred = sum(1 for _, g in pairs if g is not None)
    overlap: dict[tuple, int] = {}
    for o, g in pairs:
        if g is not None:
            overlap[(o.vehicle_id, g)] = overlap.get((o.vehicle_id, g), 0) + 1
    best = 0
    if t_ids and p_ids:
        if len(t_ids) <= len(p_ids):
            for sub in itertools.permutations(p_ids, len(t_ids)):
                best = max(best, sum(overlap.get(tp, 0) for tp in zip(t_ids, sub)))
        else:
            for sub in itertools.permutations(t_ids, len(p_ids)):
                best = max(best, sum(overlap.get(tp, 0) for tp in zip(sub, p_ids)))
    denom = 2 * best + (n_pred - best) + (n_truth - best)
    return best, (2 * best / denom if denom else None)
