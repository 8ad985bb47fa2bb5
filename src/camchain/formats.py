"""On-disk formats: strict JSON configs and byte-stable CSV tables.

JSON syntax problems raise ParseError with the offending line and column;
schema problems (unknown or missing keys, wrong types) raise ConfigError
naming the JSON path. CSV rows are joined manually with fixed six-decimal
floats and the literal ``NA`` for absent values, so a write/read/write
round trip is byte-identical. Observation files must be sorted by
``(frame_index, camera_id, local_id)`` and readers reject files that are
not.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigError, MalformedInputError, ParseError
from .geometry import Point2, Polygon, RoadFrame, Zone
from .handover import EventKind, HandoverEvent, MatcherConfig, MatchStrategy
from .kinematics import Calibration, MotionStatus
from .simulator import (
    NoiseConfig,
    Regime,
    ScenarioConfig,
    ScriptedVehicle,
    TrueHandover,
    TruthObs,
    TruthTrack,
)
from .sync import StreamUpdate
from .topology import CameraNode, EdgeDef, TopologyGraph
from .tracks import TrackState, TrajRow

NA = "NA"


# -- JSON ----------------------------------------------------------------------


def load_json(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _expect_dict(v, ctx: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(v).__name__}")
    return v


def _check_keys(d: dict, required: Sequence[str], optional: Sequence[str], ctx: str) -> None:
    extra = set(d) - set(required) - set(optional)
    if extra:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(extra)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{ctx}: missing key(s) {sorted(missing)}")


def _num(v, ctx: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{ctx}: expected a finite number, got {v!r}")
    return float(v)


def _int(v, ctx: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{ctx}: expected an integer, got {v!r}")
    return v


def _point(v, ctx: str) -> Point2:
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{ctx}: expected [x, y], got {v!r}")
    return Point2(_num(v[0], f"{ctx}[0]"), _num(v[1], f"{ctx}[1]"))


def _polygon(v, ctx: str) -> Polygon:
    if not isinstance(v, list):
        raise ConfigError(f"{ctx}: expected a vertex list, got {type(v).__name__}")
    return Polygon(tuple(_point(p, f"{ctx}[{i}]") for i, p in enumerate(v)))


def _frame(v, ctx: str) -> RoadFrame:
    d = _expect_dict(v, ctx)
    _check_keys(d, ["origin", "axis", "width"], ["y_split"], ctx)
    return RoadFrame(
        origin=_point(d["origin"], f"{ctx}.origin"),
        axis=_point(d["axis"], f"{ctx}.axis"),
        width=_num(d["width"], f"{ctx}.width"),
        y_split=_num(d.get("y_split", 0.0), f"{ctx}.y_split"),
    )


def _frame_to_list(fr: RoadFrame) -> dict:
    return {
        "origin": [fr.origin.x, fr.origin.y],
        "axis": [fr.axis.x, fr.axis.y],
        "width": fr.width,
        "y_split": fr.y_split,
    }


_MATCHER_KEYS = ["dt_window", "eps_lat", "eps_time", "eps_dist", "gamma_dir", "strategy"]


def matcher_to_dict(m: MatcherConfig) -> dict:
    return {
        "dt_window": m.dt_window,
        "eps_lat": m.eps_lat,
        "eps_time": m.eps_time,
        "eps_dist": m.eps_dist,
        "gamma_dir": m.gamma_dir,
        "strategy": m.strategy.value,
    }


def matcher_from_dict(obj, ctx: str = "matcher") -> MatcherConfig:
    d = _expect_dict(obj, ctx)
    _check_keys(d, [], _MATCHER_KEYS, ctx)
    kwargs = {}
    for key in ("dt_window", "eps_lat", "eps_time"):
        if key in d:
            kwargs[key] = _num(d[key], f"{ctx}.{key}")
    for key in ("eps_dist", "gamma_dir"):  # null = gate disabled
        if key in d and d[key] is not None:
            kwargs[key] = _num(d[key], f"{ctx}.{key}")
    if "strategy" in d:
        try:
            kwargs["strategy"] = MatchStrategy(d["strategy"])
        except ValueError:
            names = ", ".join(s.value for s in MatchStrategy)
            raise ConfigError(
                f"{ctx}.strategy: {d['strategy']!r} is not one of {names}"
            ) from None
    return MatcherConfig(**kwargs)


def topology_to_dict(topo: TopologyGraph, matcher: Optional[MatcherConfig] = None) -> dict:
    out = {
        "cameras": [
            {
                "id": n.id,
                "fov": [[p.x, p.y] for p in n.fov.vertices],
                "m_per_px": n.calibration.m_per_px,
                "frame_dt": n.calibration.frame_dt,
                "frame": _frame_to_list(n.frame),
            }
            for n in topo.nodes
        ],
        "edges": [
            {
                "upstream": e.upstream,
                "downstream": e.downstream,
                "overlap": [[p.x, p.y] for p in e.overlap.vertices],
                "frame": _frame_to_list(e.frame),
            }
            for e in topo.edges
        ],
    }
    if matcher is not None:
        out["matcher"] = matcher_to_dict(matcher)
    return out


def topology_from_dict(obj) -> TopologyGraph:
    d = _expect_dict(obj, "topology")
    _check_keys(d, ["cameras", "edges"], ["matcher"], "topology")
    if "matcher" in d:  # validated here so every entry point rejects bad files
        matcher_from_dict(d["matcher"], "topology.matcher")
    if not isinstance(d["cameras"], list) or not isinstance(d["edges"], list):
        raise ConfigError("topology: 'cameras' and 'edges' must be lists")
    nodes = []
    for i, c in enumerate(d["cameras"]):
        ctx = f"topology.cameras[{i}]"
        cd = _expect_dict(c, ctx)
        _check_keys(cd, ["id", "fov", "m_per_px", "frame_dt", "frame"], [], ctx)
        nodes.append(
            CameraNode(
                id=_int(cd["id"], f"{ctx}.id"),
                fov=_polygon(cd["fov"], f"{ctx}.fov"),
                calibration=Calibration(
                    m_per_px=_num(cd["m_per_px"], f"{ctx}.m_per_px"),
                    frame_dt=_num(cd["frame_dt"], f"{ctx}.frame_dt"),
                ),
                frame=_frame(cd["frame"], f"{ctx}.frame"),
            )
        )
    edges = []
    for i, e in enumerate(d["edges"]):
        ctx = f"topology.edges[{i}]"
        ed = _expect_dict(e, ctx)
        _check_keys(ed, ["upstream", "downstream", "overlap", "frame"], [], ctx)
        edges.append(
            EdgeDef(
                upstream=_int(ed["upstream"], f"{ctx}.upstream"),
                downstream=_int(ed["downstream"], f"{ctx}.downstream"),
                overlap=_polygon(ed["overlap"], f"{ctx}.overlap"),
                frame=_frame(ed["frame"], f"{ctx}.frame"),
            )
        )
    return TopologyGraph(nodes=tuple(nodes), edges=tuple(edges))


def parse_topology(path: str | Path) -> tuple[TopologyGraph, MatcherConfig]:
    """Load a topology file; a missing matcher section means defaults."""
    d = _expect_dict(load_json(path), "topology")
    graph = topology_from_dict(d)
    if "matcher" in d:
        return graph, matcher_from_dict(d["matcher"], "topology.matcher")
    return graph, MatcherConfig()


_SCENARIO_KEYS = [
    "name", "regime", "duration_s", "frame_rate", "n_cameras", "cam_spacing_m",
    "overlap_m", "blind_gap_m", "lanes_per_dir", "lane_width_m", "m_per_px",
    "flow_east_vpm", "flow_west_vpm", "speed_mean_kmh", "speed_std_kmh",
    "min_headway_s", "scripted_vehicles", "wave_zone", "wave_windows",
    "merge_pos_m", "merge_rate_vpm", "diverge_frac", "overtake_pairs",
    "pair_spacing_s", "noise", "drift_amplitude_m", "drift_period_s",
]


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "name": cfg.name,
        "regime": cfg.regime.value,
        "duration_s": cfg.duration_s,
        "frame_rate": cfg.frame_rate,
        "n_cameras": cfg.n_cameras,
        "cam_spacing_m": cfg.cam_spacing_m,
        "overlap_m": cfg.overlap_m,
        "blind_gap_m": cfg.blind_gap_m,
        "lanes_per_dir": cfg.lanes_per_dir,
        "lane_width_m": cfg.lane_width_m,
        "m_per_px": cfg.m_per_px,
        "flow_east_vpm": cfg.flow_east_vpm,
        "flow_west_vpm": cfg.flow_west_vpm,
        "speed_mean_kmh": cfg.speed_mean_kmh,
        "speed_std_kmh": cfg.speed_std_kmh,
        "min_headway_s": cfg.min_headway_s,
        "scripted_vehicles": [
            {
                "spawn_t": v.spawn_t,
                "speed_kmh": v.speed_kmh,
                "lane": v.lane,
                "direction": v.direction,
            }
            for v in cfg.scripted_vehicles
        ],
        "wave_zone": list(cfg.wave_zone) if cfg.wave_zone else None,
        "wave_windows": [list(w) for w in cfg.wave_windows],
        "merge_pos_m": cfg.merge_pos_m,
        "merge_rate_vpm": cfg.merge_rate_vpm,
        "diverge_frac": cfg.diverge_frac,
        "overtake_pairs": cfg.overtake_pairs,
        "pair_spacing_s": cfg.pair_spacing_s,
        "noise": {
            "dropout_rate": cfg.noise.dropout_rate,
            "pos_sigma_px": cfg.noise.pos_sigma_px,
            "sync_jitter_frames": cfg.noise.sync_jitter_frames,
        },
        "drift_amplitude_m": cfg.drift_amplitude_m,
        "drift_period_s": cfg.drift_period_s,
    }


def scenario_from_dict(obj) -> ScenarioConfig:
    d = _expect_dict(obj, "scenario")
    _check_keys(d, [], _SCENARIO_KEYS, "scenario")
    kw = {}
    for key, val in d.items():
        if key == "regime":
            if val not in {r.value for r in Regime}:
                raise ConfigError(f"scenario.regime: unknown regime {val!r}")
            kw[key] = val
        elif key == "noise":
            nd = _expect_dict(val, "scenario.noise")
            _check_keys(
                nd, [], ["dropout_rate", "pos_sigma_px", "sync_jitter_frames"],
                "scenario.noise",
            )
            kw[key] = NoiseConfig(**nd)
        elif key == "scripted_vehicles":
            if not isinstance(val, list):
                raise ConfigError("scenario.scripted_vehicles: expected a list")
            svs = []
            for i, sv in enumerate(val):
                ctx = f"scenario.scripted_vehicles[{i}]"
                svd = _expect_dict(sv, ctx)
                _check_keys(svd, ["spawn_t", "speed_kmh"], ["lane", "direction"], ctx)
                svs.append(ScriptedVehicle(**svd))
            kw[key] = tuple(svs)
        elif key == "wave_zone":
            if val is not None:
                if not (isinstance(val, list) and len(val) == 2):
                    raise ConfigError(f"scenario.wave_zone: expected [lo, hi], got {val!r}")
                val = (
                    _num(val[0], "scenario.wave_zone[0]"),
                    _num(val[1], "scenario.wave_zone[1]"),
                )
            kw[key] = val
        elif key == "wave_windows":
            if not isinstance(val, list):
                raise ConfigError("scenario.wave_windows: expected a list")
            wins = []
            for i, w in enumerate(val):
                if not (isinstance(w, list) and len(w) == 2):
                    raise ConfigError(
                        f"scenario.wave_windows[{i}]: expected [start, end], got {w!r}"
                    )
                wins.append(
                    (
                        _num(w[0], f"scenario.wave_windows[{i}][0]"),
                        _num(w[1], f"scenario.wave_windows[{i}][1]"),
                    )
                )
            kw[key] = tuple(wins)
        else:
            kw[key] = val
    try:
        return ScenarioConfig(**kw)
    except TypeError as e:
        raise ConfigError(f"scenario: {e}") from e


_META_KEYS = ["name", "seed", "frame_count", "frame_rate", "n_cameras", "duration_s"]


def meta_from_dict(obj) -> dict:
    d = _expect_dict(obj, "meta")
    _check_keys(d, _META_KEYS, [], "meta")
    return {
        "name": str(d["name"]),
        "seed": _int(d["seed"], "meta.seed"),
        "frame_count": _int(d["frame_count"], "meta.frame_count"),
        "frame_rate": _num(d["frame_rate"], "meta.frame_rate"),
        "n_cameras": _int(d["n_cameras"], "meta.n_cameras"),
        "duration_s": _num(d["duration_s"], "meta.duration_s"),
    }


# -- CSV -----------------------------------------------------------------------


def _fmt(v: Optional[float]) -> str:
    return NA if v is None else f"{v:.6f}"


def _parse_float(s: str, path, line: int) -> float:
    try:
        return float(s)
    except ValueError:
        raise MalformedInputError(f"{path}:{line}: bad number {s!r}") from None


def _parse_opt_float(s: str, path, line: int) -> Optional[float]:
    return None if s == NA else _parse_float(s, path, line)


def _parse_int(s: str, path, line: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise MalformedInputError(f"{path}:{line}: bad integer {s!r}") from None


def _read_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, cells)`` per non-empty data line, one line at a time."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise MalformedInputError(f"{path}: empty file")
    if lines[0].split(",") != list(header):
        raise MalformedInputError(
            f"{path}:1: bad header {lines[0]!r}, expected {','.join(header)!r}"
        )
    for i, line in enumerate(islice(lines, 1, None), start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise MalformedInputError(
                f"{path}:{i}: expected {len(header)} fields, got {len(cells)}"
            )
        yield i, cells


class ObsRow(NamedTuple):
    frame_index: int
    camera_id: int
    local_id: int
    t: float
    x_px: float
    y_px: float
    x_m: float
    y_m: float


OBS_HEADER = ["frame_index", "camera_id", "local_id", "t", "x_px", "y_px", "x_m", "y_m"]


def write_observations(path: str | Path, updates: Iterable[StreamUpdate]) -> int:
    rows = []
    for u in updates:
        for s in u.tracks:
            rows.append(
                (
                    u.frame_index, s.camera_id, s.local_id,
                    _fmt(s.t), _fmt(s.pos_px.x), _fmt(s.pos_px.y),
                    _fmt(s.pos.x), _fmt(s.pos.y),
                )
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [",".join(OBS_HEADER)]
    lines += [",".join(str(c) for c in r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(rows)


def read_observations(path: str | Path) -> list[ObsRow]:
    out: list[ObsRow] = []
    prev_key = None
    for line_no, c in _read_rows(path, OBS_HEADER):
        row = ObsRow(
            frame_index=_parse_int(c[0], path, line_no),
            camera_id=_parse_int(c[1], path, line_no),
            local_id=_parse_int(c[2], path, line_no),
            t=_parse_float(c[3], path, line_no),
            x_px=_parse_float(c[4], path, line_no),
            y_px=_parse_float(c[5], path, line_no),
            x_m=_parse_float(c[6], path, line_no),
            y_m=_parse_float(c[7], path, line_no),
        )
        key = (row.frame_index, row.camera_id, row.local_id)
        if prev_key is not None and key <= prev_key:
            raise MalformedInputError(
                f"{path}:{line_no}: rows not sorted by "
                f"(frame_index, camera_id, local_id) at {key}"
            )
        prev_key = key
        out.append(row)
    return out


def updates_from_rows(
    rows: Sequence[ObsRow],
    camera_ids: Iterable[int],
    frame_count: int,
    frame_rate: float,
) -> list[StreamUpdate]:
    """Rebuild the full per-camera update grid, empty frames included."""
    cams = sorted(camera_ids)
    grouped: dict[tuple[int, int], list[TrackState]] = {}
    for r in rows:
        if not (0 <= r.frame_index < frame_count):
            raise MalformedInputError(
                f"observation frame {r.frame_index} outside 0..{frame_count - 1}"
            )
        if r.camera_id not in cams:
            raise MalformedInputError(f"observation for unknown camera {r.camera_id}")
        expected_t = round(r.frame_index / frame_rate, 6)
        if r.t != expected_t:
            raise MalformedInputError(
                f"observation at frame {r.frame_index} has t={r.t}, "
                f"expected {expected_t} at {frame_rate} fps"
            )
        grouped.setdefault((r.frame_index, r.camera_id), []).append(
            TrackState(
                t=r.t,
                camera_id=r.camera_id,
                local_id=r.local_id,
                pos=Point2(r.x_m, r.y_m),
                pos_px=Point2(r.x_px, r.y_px),
            )
        )
    out = []
    for f in range(frame_count):
        t = round(f / frame_rate, 6)
        for cam in cams:
            out.append(
                StreamUpdate(
                    camera_id=cam,
                    frame_index=f,
                    t=t,
                    tracks=tuple(grouped.get((f, cam), ())),
                )
            )
    return out


TRAJ_HEADER = [
    "global_id", "frame_index", "camera_id", "local_id", "t",
    "x_m", "y_m", "speed_kmh", "heading_rad", "status",
]


def write_trajectories(path: str | Path, rows: Iterable[TrajRow]) -> int:
    ordered = sorted(rows, key=lambda r: (r.frame_index, r.camera_id, r.local_id))
    lines = [",".join(TRAJ_HEADER)]
    for r in ordered:
        lines.append(
            ",".join(
                (
                    str(r.global_id), str(r.frame_index), str(r.camera_id),
                    str(r.local_id), _fmt(r.t), _fmt(r.x_m), _fmt(r.y_m),
                    _fmt(r.speed_kmh), _fmt(r.heading_rad),
                    r.status if r.status is not None else NA,
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ordered)


def read_trajectories(path: str | Path) -> list[TrajRow]:
    valid_status = {m.value for m in MotionStatus}
    out = []
    for line_no, c in _read_rows(path, TRAJ_HEADER):
        if c[9] != NA and c[9] not in valid_status:
            raise MalformedInputError(f"{path}:{line_no}: unknown status {c[9]!r}")
        out.append(
            TrajRow(
                global_id=_parse_int(c[0], path, line_no),
                frame_index=_parse_int(c[1], path, line_no),
                camera_id=_parse_int(c[2], path, line_no),
                local_id=_parse_int(c[3], path, line_no),
                t=_parse_float(c[4], path, line_no),
                x_m=_parse_float(c[5], path, line_no),
                y_m=_parse_float(c[6], path, line_no),
                speed_kmh=_parse_opt_float(c[7], path, line_no),
                heading_rad=_parse_opt_float(c[8], path, line_no),
                status=None if c[9] == NA else c[9],
            )
        )
    return out


EVENT_HEADER = [
    "kind", "frame_index", "t", "camera_id", "local_id", "global_id",
    "edge_up", "edge_down", "zone", "y_rel", "age", "residual",
]


class EventRow(NamedTuple):
    kind: str
    frame_index: int
    t: float
    camera_id: int
    local_id: int
    global_id: int
    edge_up: Optional[int]
    edge_down: Optional[int]
    zone: Optional[str]
    y_rel: Optional[float]
    age: Optional[float]
    residual: Optional[float]


def event_to_row(ev: HandoverEvent) -> EventRow:
    return EventRow(
        kind=ev.kind.value,
        frame_index=ev.frame_index,
        t=ev.t,
        camera_id=ev.camera_id,
        local_id=ev.local_id,
        global_id=ev.global_id,
        edge_up=ev.edge[0] if ev.edge else None,
        edge_down=ev.edge[1] if ev.edge else None,
        zone=ev.zone.value if ev.zone else None,
        y_rel=ev.y_rel,
        age=ev.age,
        residual=ev.residual,
    )


def write_events(path: str | Path, events: Iterable[HandoverEvent]) -> int:
    lines = [",".join(EVENT_HEADER)]
    n = 0
    for ev in events:  # engine emission order is already deterministic
        r = event_to_row(ev)
        lines.append(
            ",".join(
                (
                    r.kind, str(r.frame_index), _fmt(r.t), str(r.camera_id),
                    str(r.local_id), str(r.global_id),
                    NA if r.edge_up is None else str(r.edge_up),
                    NA if r.edge_down is None else str(r.edge_down),
                    r.zone if r.zone is not None else NA,
                    _fmt(r.y_rel), _fmt(r.age), _fmt(r.residual),
                )
            )
        )
        n += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n


_KINDS = {k.value for k in EventKind}
_ZONES = {z.value for z in Zone}


def read_events(path: str | Path) -> list[EventRow]:
    out = []
    for line_no, c in _read_rows(path, EVENT_HEADER):
        if c[0] not in _KINDS:
            raise MalformedInputError(f"{path}:{line_no}: unknown event kind {c[0]!r}")
        zone = None if c[8] == NA else c[8]
        if zone is not None and zone not in _ZONES:
            raise MalformedInputError(f"{path}:{line_no}: unknown zone {zone!r}")
        out.append(
            EventRow(
                kind=c[0],
                frame_index=_parse_int(c[1], path, line_no),
                t=_parse_float(c[2], path, line_no),
                camera_id=_parse_int(c[3], path, line_no),
                local_id=_parse_int(c[4], path, line_no),
                global_id=_parse_int(c[5], path, line_no),
                edge_up=None if c[6] == NA else _parse_int(c[6], path, line_no),
                edge_down=None if c[7] == NA else _parse_int(c[7], path, line_no),
                zone=zone,
                y_rel=_parse_opt_float(c[9], path, line_no),
                age=_parse_opt_float(c[10], path, line_no),
                residual=_parse_opt_float(c[11], path, line_no),
            )
        )
    return out


TRUTH_OBS_HEADER = ["frame_index", "camera_id", "local_id", "vehicle_id"]


def write_truth_obs(path: str | Path, rows: Iterable[TruthObs]) -> int:
    ordered = sorted(rows, key=lambda r: (r.frame_index, r.camera_id, r.local_id))
    lines = [",".join(TRUTH_OBS_HEADER)]
    lines += [
        f"{r.frame_index},{r.camera_id},{r.local_id},{r.vehicle_id}" for r in ordered
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ordered)


def read_truth_obs(path: str | Path) -> list[TruthObs]:
    out = []
    for line_no, c in _read_rows(path, TRUTH_OBS_HEADER):
        out.append(
            TruthObs(
                frame_index=_parse_int(c[0], path, line_no),
                camera_id=_parse_int(c[1], path, line_no),
                local_id=_parse_int(c[2], path, line_no),
                vehicle_id=_parse_int(c[3], path, line_no),
            )
        )
    return out


TRUTH_TRACKS_HEADER = [
    "vehicle_id", "direction", "lane", "desired_speed_kmh", "spawn_t", "despawn_t", "kind",
]


def write_truth_tracks(path: str | Path, rows: Iterable[TruthTrack]) -> int:
    ordered = sorted(rows, key=lambda r: r.vehicle_id)
    lines = [",".join(TRUTH_TRACKS_HEADER)]
    for r in ordered:
        lines.append(
            f"{r.vehicle_id},{r.direction},{r.lane},{_fmt(r.desired_speed_kmh)},"
            f"{_fmt(r.spawn_t)},{_fmt(r.despawn_t)},{r.kind}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ordered)


def read_truth_tracks(path: str | Path) -> list[TruthTrack]:
    out = []
    for line_no, c in _read_rows(path, TRUTH_TRACKS_HEADER):
        out.append(
            TruthTrack(
                vehicle_id=_parse_int(c[0], path, line_no),
                direction=_parse_int(c[1], path, line_no),
                lane=_parse_int(c[2], path, line_no),
                desired_speed_kmh=_parse_float(c[3], path, line_no),
                spawn_t=_parse_float(c[4], path, line_no),
                despawn_t=_parse_float(c[5], path, line_no),
                kind=c[6],
            )
        )
    return out


TRUTH_HANDOVERS_HEADER = ["vehicle_id", "from_camera", "to_camera", "t_exit", "t_enter"]


def write_truth_handovers(path: str | Path, rows: Iterable[TrueHandover]) -> int:
    ordered = sorted(rows, key=lambda r: (r.vehicle_id, r.t_enter))
    lines = [",".join(TRUTH_HANDOVERS_HEADER)]
    for r in ordered:
        lines.append(
            f"{r.vehicle_id},{r.from_camera},{r.to_camera},"
            f"{_fmt(r.t_exit)},{_fmt(r.t_enter)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(ordered)


def read_truth_handovers(path: str | Path) -> list[TrueHandover]:
    out = []
    for line_no, c in _read_rows(path, TRUTH_HANDOVERS_HEADER):
        out.append(
            TrueHandover(
                vehicle_id=_parse_int(c[0], path, line_no),
                from_camera=_parse_int(c[1], path, line_no),
                to_camera=_parse_int(c[2], path, line_no),
                t_exit=_parse_float(c[3], path, line_no),
                t_enter=_parse_float(c[4], path, line_no),
            )
        )
    return out
