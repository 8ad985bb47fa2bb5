"""Deterministic corridor traffic and per-camera tracklet simulator.

World model: a straight road corridor along +x covered by a chain of
cameras with rectangular ground footprints. Right-hand traffic: eastbound
lanes sit at y < 0 and drive toward +x, westbound mirrored. Lane index 0 is
the curb lane, growing toward the centerline.

Vehicles follow a simple car-following law (desired speed, time-headway
gap control, bounded acceleration, unlimited braking) that keeps the truth
collision-free. Regimes layer behavior on top: a stop wave pinned to a road
interval, a merge/diverge junction, or scripted two-lane overtakes.

Per frame each camera reports the vehicles whose calibration-corrected
position falls inside its footprint, with optional dropout, pixel noise,
and delivery jitter. Local track ids are per camera and survive only
unbroken runs of consecutive frames, so a dropout fragments the track.
Each camera also keeps every vehicle's first and last frame seen, from which
the true handovers follow without a second pass over the observations.
``World.run`` runs with the cyclic GC paused (``tracks.gc_paused``).

Every random draw comes from its own purpose-keyed generator seeded as
``f"{seed}/{purpose}"``, so toggling one noise knob never shifts another
stream. A stream whose knob is zero is never drawn from; a non-zero knob
consumes its draws for every candidate, even when the outcome is "no
change", so a dropped vehicle still uses up its noise pair.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .errors import ConfigError
from .geometry import Point2, Polygon, RoadFrame
from .kinematics import Calibration
from .sync import StreamUpdate
from .topology import CameraNode, EdgeDef, TopologyGraph
from .tracks import TrackState, gc_paused

VEHICLE_LENGTH = 4.5      # m, bumper to bumper
MIN_GAP = 2.0             # m, standstill spacing
HEADWAY_TIME = 1.0        # s, gap-control target
ACCEL_LIMIT = 3.0         # m/s^2, braking is unbounded
LANE_CHANGE_RATE = 1.75   # m/s lateral slew
SPAWN_MARGIN = 10.0       # m outside the outermost footprints
SPAWN_CLEAR = 12.0        # m of free lane required to spawn at a corridor end
MERGE_CLEAR = 20.0        # m of free lane both ways for mid-corridor entrants
PASS_TRIGGER_GAP = 40.0   # m, overtaker starts its lane change below this
PASS_RETURN_LEAD = 15.0   # m ahead of the partner before returning
DRIFT_PHASE_STEP = 2.39996  # golden-angle phase offset between cameras


class Regime(Enum):
    FREE_FLOW = "free-flow"
    CONGESTION = "congestion"
    MERGE_DIVERGE = "merge-diverge"
    OVERTAKING = "overtaking"


@dataclass(frozen=True)
class NoiseConfig:
    dropout_rate: float = 0.0
    pos_sigma_px: float = 0.0
    sync_jitter_frames: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.dropout_rate <= 1.0):
            raise ConfigError(f"dropout_rate must be in [0, 1], got {self.dropout_rate}")
        if self.pos_sigma_px < 0.0:
            raise ConfigError(f"pos_sigma_px must be >= 0, got {self.pos_sigma_px}")
        if self.sync_jitter_frames < 0:
            raise ConfigError(
                f"sync_jitter_frames must be >= 0, got {self.sync_jitter_frames}"
            )


@dataclass(frozen=True)
class ScriptedVehicle:
    """Fixed-plan vehicle; when any are given, stochastic arrivals are off."""

    spawn_t: float
    speed_kmh: float
    lane: int = 0
    direction: int = 1

    def __post_init__(self) -> None:
        if self.spawn_t < 0.0:
            raise ConfigError(f"spawn_t must be >= 0, got {self.spawn_t}")
        if self.speed_kmh <= 0.0:
            raise ConfigError(f"speed_kmh must be > 0, got {self.speed_kmh}")
        if self.lane < 0:
            raise ConfigError(f"lane must be >= 0, got {self.lane}")
        if self.direction not in (1, -1):
            raise ConfigError(f"direction must be +1 or -1, got {self.direction}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    regime: Regime = Regime.FREE_FLOW
    duration_s: float = 120.0
    frame_rate: float = 10.0

    # corridor geometry
    n_cameras: int = 3
    cam_spacing_m: float = 150.0
    overlap_m: float = 50.0
    blind_gap_m: float = 0.0
    lanes_per_dir: int = 1
    lane_width_m: float = 3.5
    m_per_px: float = 0.05

    # demand
    flow_east_vpm: float = 8.0
    flow_west_vpm: float = 0.0
    speed_mean_kmh: float = 50.0
    speed_std_kmh: float = 5.0
    min_headway_s: float = 1.5
    scripted_vehicles: tuple[ScriptedVehicle, ...] = ()

    # congestion wave
    wave_zone: Optional[tuple[float, float]] = None
    wave_windows: tuple[tuple[float, float], ...] = ()

    # merge / diverge junction
    merge_pos_m: Optional[float] = None
    merge_rate_vpm: float = 6.0
    diverge_frac: float = 0.3

    # overtaking pairs
    overtake_pairs: int = 4
    pair_spacing_s: float = 15.0

    # sensing imperfections
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    drift_amplitude_m: float = 0.0
    drift_period_s: float = 40.0

    def __post_init__(self) -> None:
        if isinstance(self.regime, str):  # tolerate config-file strings
            object.__setattr__(self, "regime", Regime(self.regime))
        if isinstance(self.noise, dict):
            object.__setattr__(self, "noise", NoiseConfig(**self.noise))
        if self.scripted_vehicles and not isinstance(
            self.scripted_vehicles[0], ScriptedVehicle
        ):
            object.__setattr__(
                self,
                "scripted_vehicles",
                tuple(ScriptedVehicle(**v) for v in self.scripted_vehicles),
            )
        else:
            object.__setattr__(self, "scripted_vehicles", tuple(self.scripted_vehicles))
        object.__setattr__(
            self, "wave_zone", tuple(self.wave_zone) if self.wave_zone else None
        )
        object.__setattr__(
            self, "wave_windows", tuple(tuple(w) for w in self.wave_windows)
        )
        if self.duration_s <= 0.0:
            raise ConfigError(f"duration_s must be > 0, got {self.duration_s}")
        if self.frame_rate <= 0.0:
            raise ConfigError(f"frame_rate must be > 0, got {self.frame_rate}")
        if self.n_cameras < 1:
            raise ConfigError(f"n_cameras must be >= 1, got {self.n_cameras}")
        if self.cam_spacing_m <= 0.0:
            raise ConfigError(f"cam_spacing_m must be > 0, got {self.cam_spacing_m}")
        if self.overlap_m <= 0.0:
            raise ConfigError(f"overlap_m must be > 0, got {self.overlap_m}")
        if not (0.0 <= self.blind_gap_m < self.cam_spacing_m):
            raise ConfigError(
                f"blind_gap_m must be in [0, cam_spacing_m), got {self.blind_gap_m}"
            )
        if self.lanes_per_dir < 1:
            raise ConfigError(f"lanes_per_dir must be >= 1, got {self.lanes_per_dir}")
        if self.lane_width_m <= 0.0:
            raise ConfigError(f"lane_width_m must be > 0, got {self.lane_width_m}")
        if self.m_per_px <= 0.0:
            raise ConfigError(f"m_per_px must be > 0, got {self.m_per_px}")
        if self.flow_east_vpm < 0.0 or self.flow_west_vpm < 0.0:
            raise ConfigError("flows must be >= 0")
        if self.speed_mean_kmh <= 0.0 or self.speed_std_kmh < 0.0:
            raise ConfigError("speed distribution must have positive mean, std >= 0")
        if self.min_headway_s < 0.0:
            raise ConfigError(f"min_headway_s must be >= 0, got {self.min_headway_s}")
        for v in self.scripted_vehicles:
            if v.lane >= self.lanes_per_dir:
                raise ConfigError(
                    f"scripted lane {v.lane} outside 0..{self.lanes_per_dir - 1}"
                )
        if self.wave_zone is not None and not self.wave_zone[0] < self.wave_zone[1]:
            raise ConfigError(f"wave_zone must be (lo, hi) with lo < hi, got {self.wave_zone}")
        for w in self.wave_windows:
            if len(w) != 2 or not w[0] < w[1]:
                raise ConfigError(f"wave window must be (start, end), got {w}")
        if not (0.0 <= self.diverge_frac <= 1.0):
            raise ConfigError(f"diverge_frac must be in [0, 1], got {self.diverge_frac}")
        if self.merge_rate_vpm < 0.0:
            raise ConfigError(f"merge_rate_vpm must be >= 0, got {self.merge_rate_vpm}")
        if self.overtake_pairs < 1 or self.pair_spacing_s <= 0.0:
            raise ConfigError("overtake_pairs must be >= 1 and pair_spacing_s > 0")
        if self.regime is Regime.OVERTAKING and self.lanes_per_dir < 2:
            raise ConfigError("overtaking regime needs lanes_per_dir >= 2")
        if self.drift_amplitude_m < 0.0 or self.drift_period_s <= 0.0:
            raise ConfigError("drift amplitude must be >= 0 and period > 0")

    # -- derived geometry ---------------------------------------------------

    @property
    def road_width_m(self) -> float:
        return 2.0 * self.lanes_per_dir * self.lane_width_m

    @property
    def fov_len_m(self) -> float:
        if self.blind_gap_m > 0.0:
            return self.cam_spacing_m - self.blind_gap_m
        return self.cam_spacing_m + self.overlap_m

    def fov_bounds(self, idx: int) -> tuple[float, float]:
        a = idx * self.cam_spacing_m
        return a, a + self.fov_len_m

    @property
    def corridor_end(self) -> float:
        return self.fov_bounds(self.n_cameras - 1)[1]

    def lane_center(self, direction: int, lane: int) -> float:
        half = self.road_width_m / 2.0
        off = -half + self.lane_width_m / 2.0 + lane * self.lane_width_m
        return off if direction > 0 else -off


def build_topology(cfg: ScenarioConfig) -> TopologyGraph:
    """Camera chain with one edge per adjacent pair.

    Trigger regions are the shared footprint, or the gap plus ``overlap_m``
    on both sides when the chain has blind gaps. With calibration drift the
    regions are widened by twice the amplitude so a parked identity is
    always in place before the far camera can see the vehicle.
    """
    half = cfg.road_width_m / 2.0 + 0.5
    frame = RoadFrame(origin=Point2(0.0, 0.0), axis=Point2(1.0, 0.0), width=cfg.road_width_m)
    frame_dt = 1.0 / cfg.frame_rate

    def rect(x0: float, x1: float) -> Polygon:
        return Polygon(
            (
                Point2(x0, -half),
                Point2(x1, -half),
                Point2(x1, half),
                Point2(x0, half),
            )
        )

    nodes = []
    for i in range(cfg.n_cameras):
        a, b = cfg.fov_bounds(i)
        nodes.append(
            CameraNode(
                id=i + 1,
                fov=rect(a, b),
                calibration=Calibration(m_per_px=cfg.m_per_px, frame_dt=frame_dt),
                frame=frame,
            )
        )
    margin = 2.0 * cfg.drift_amplitude_m
    edges = []
    for i in range(cfg.n_cameras - 1):
        _, b_i = cfg.fov_bounds(i)
        a_next, _ = cfg.fov_bounds(i + 1)
        if cfg.blind_gap_m > 0.0:
            lo, hi = b_i - cfg.overlap_m, a_next + cfg.overlap_m
        else:
            lo, hi = a_next, b_i
        edges.append(
            EdgeDef(
                upstream=i + 1,
                downstream=i + 2,
                overlap=rect(lo - margin, hi + margin),
                frame=frame,
            )
        )
    return TopologyGraph(nodes=tuple(nodes), edges=tuple(edges))


class TruthObs(NamedTuple):
    """Which true vehicle produced an emitted observation."""

    frame_index: int
    camera_id: int
    local_id: int
    vehicle_id: int


@dataclass(frozen=True)
class TruthTrack:
    vehicle_id: int
    direction: int
    lane: int
    desired_speed_kmh: float
    spawn_t: float
    despawn_t: float
    kind: str


@dataclass(frozen=True)
class TrueHandover:
    vehicle_id: int
    from_camera: int
    to_camera: int
    t_exit: float
    t_enter: float


@dataclass
class SimResult:
    config: ScenarioConfig
    seed: int
    topology: TopologyGraph
    updates: list[StreamUpdate]
    truth_obs: list[TruthObs]
    truth_tracks: list[TruthTrack]
    truth_handovers: list[TrueHandover]
    frame_count: int

    @property
    def meta(self) -> dict:
        return {
            "name": self.config.name,
            "seed": self.seed,
            "frame_count": self.frame_count,
            "frame_rate": self.config.frame_rate,
            "n_cameras": self.config.n_cameras,
            "duration_s": self.config.duration_s,
        }


@dataclass
class _Plan:
    t: float
    direction: int
    lane: int
    speed: float          # desired, m/s
    kind: str             # mainline | entrant | scripted | slow | fast
    diverge: bool = False
    partner: Optional["_Plan"] = None
    vid: int = 0


@dataclass
class _Vehicle:
    vid: int
    direction: int
    lane: int             # claimed lane (target while changing)
    x: float
    y: float
    v: float
    desired: float
    kind: str
    diverge: bool = False
    partner_vid: int = 0
    pass_state: str = ""  # fast overtaker: follow -> passing -> return -> done
    spawn_t: float = 0.0


def in_footprint(
    by_x: Sequence[_Vehicle], xs: Sequence[float], a: float, b: float, shift: float
) -> list[tuple[_Vehicle, float]]:
    """The vehicles a camera sees, by vid, each with its drift-corrected x.

    ``by_x`` holds the live vehicles sorted by ``x`` and ``xs`` their ``x``
    values. A vehicle is seen when ``a <= x - shift <= b``. The bisection
    only narrows the candidates, with a 1 m margin because ``x >= a + shift``
    and ``x - shift >= a`` can round differently; the test itself is exact.
    """
    lo = bisect_left(xs, a + shift - 1.0)
    hi = bisect_right(xs, b + shift + 1.0)
    hits = []
    for v in by_x[lo:hi]:
        rx = v.x - shift
        if a <= rx <= b:
            hits.append((v, rx))
    hits.sort(key=lambda h: h[0].vid)
    return hits


def _stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{purpose}")


def _arrival_times(
    rng: random.Random, rate_vps: float, min_headway: float, duration: float
) -> list[float]:
    """Renewal arrivals: a hard headway floor plus an exponential tail."""
    if rate_vps <= 0.0:
        return []
    mean_tail = max(1.0 / rate_vps - min_headway, 0.05)
    out = []
    t = 0.0
    while True:
        t += min_headway + rng.expovariate(1.0 / mean_tail)
        if t > duration:
            return out
        out.append(t)


def _sample_speed(rng: random.Random, cfg: ScenarioConfig) -> float:
    """Desired speed in m/s, clipped to two sigma and floored at 5 km/h."""
    kmh = rng.gauss(cfg.speed_mean_kmh, cfg.speed_std_kmh)
    lo = max(cfg.speed_mean_kmh - 2.0 * cfg.speed_std_kmh, 5.0)
    hi = cfg.speed_mean_kmh + 2.0 * cfg.speed_std_kmh
    return min(max(kmh, lo), hi) / 3.6


class World:
    """One simulation run; step() advances a frame, run() does the full loop."""

    def __init__(self, cfg: ScenarioConfig, seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.topology = build_topology(cfg)
        self.frame_count = int(round(cfg.duration_s * cfg.frame_rate))
        self.dt = 1.0 / cfg.frame_rate
        # lane centres by (direction, lane); overtaking's lane 1 needs lanes_per_dir >= 2
        self._lane_y = {
            (d, lane): cfg.lane_center(d, lane)
            for d in (1, -1)
            for lane in range(cfg.lanes_per_dir)
        }
        self.alive: list[_Vehicle] = []
        self._pending: list[_Plan] = self._build_plan()
        self._frame = -1
        self._tracks: dict[int, TruthTrack] = {}
        self._despawned: dict[int, float] = {}
        # per-camera local id state
        self._lid_counter = {n.id: 0 for n in self.topology.nodes}
        self._residency: dict[int, dict[int, tuple[int, int]]] = {
            n.id: {} for n in self.topology.nodes
        }
        self._first_seen: dict[int, dict[int, int]] = {n.id: {} for n in self.topology.nodes}
        self._drop_rng = {n.id: _stream(seed, f"dropout/{n.id}") for n in self.topology.nodes}
        self._noise_rng = {n.id: _stream(seed, f"pos_noise/{n.id}") for n in self.topology.nodes}
        self._plan_by_vid = {p.vid: p for p in self._pending}
        # (camera, frame, t, tracks) per camera and frame, in frame order
        self._reports: list[tuple[int, int, float, tuple[TrackState, ...]]] = []
        self.truth_obs: list[TruthObs] = []
        # congestion defaults: a stop wave in the middle of the corridor
        self._wave_zone = cfg.wave_zone
        self._wave_windows = cfg.wave_windows
        if cfg.regime is Regime.CONGESTION:
            if self._wave_zone is None:
                mid = self.cfg.corridor_end / 2.0
                self._wave_zone = (mid - 10.0, mid + 10.0)
            if not self._wave_windows:
                start = cfg.duration_s / 3.0
                self._wave_windows = ((start, start + 45.0),)
        self._junction = cfg.merge_pos_m
        if cfg.regime is Regime.MERGE_DIVERGE and self._junction is None:
            # middle of the center camera's exclusive stretch
            mid = cfg.n_cameras // 2
            self._junction = (cfg.fov_bounds(mid - 1)[1] + cfg.fov_bounds(mid + 1)[0]) / 2.0

    # -- demand plan ---------------------------------------------------------

    def _build_plan(self) -> list[_Plan]:
        cfg = self.cfg
        plans: list[_Plan] = []
        if cfg.regime is Regime.OVERTAKING:
            rng = _stream(self.seed, "overtake")
            x_pass = (cfg.fov_bounds(0)[1] + cfg.fov_bounds(1)[0]) / 2.0
            run_in = x_pass + SPAWN_MARGIN
            for i in range(cfg.overtake_pairs):
                v_slow = rng.uniform(38.0, 42.0) / 3.6
                v_fast = rng.uniform(62.0, 66.0) / 3.6
                t0 = i * cfg.pair_spacing_s
                delta = run_in * (v_fast - v_slow) / (v_slow * v_fast)
                slow = _Plan(t=t0, direction=1, lane=0, speed=v_slow, kind="slow")
                fast = _Plan(
                    t=t0 + delta, direction=1, lane=0, speed=v_fast, kind="fast",
                    partner=slow,
                )
                plans.extend((slow, fast))
        elif cfg.scripted_vehicles:
            for sv in cfg.scripted_vehicles:
                plans.append(
                    _Plan(
                        t=sv.spawn_t,
                        direction=sv.direction,
                        lane=sv.lane,
                        speed=sv.speed_kmh / 3.6,
                        kind="scripted",
                    )
                )
        else:
            diverge_rng = (
                _stream(self.seed, "diverge")
                if cfg.regime is Regime.MERGE_DIVERGE
                else None
            )
            for direction, flow in ((1, cfg.flow_east_vpm), (-1, cfg.flow_west_vpm)):
                for lane in range(cfg.lanes_per_dir):
                    rng = _stream(self.seed, f"arrivals/{direction}/{lane}")
                    rate = flow / 60.0 / cfg.lanes_per_dir
                    for t in _arrival_times(rng, rate, cfg.min_headway_s, cfg.duration_s):
                        p = _Plan(
                            t=t, direction=direction, lane=lane,
                            speed=_sample_speed(rng, cfg), kind="mainline",
                        )
                        if diverge_rng is not None and direction == 1:
                            p.diverge = diverge_rng.random() < cfg.diverge_frac
                            if p.diverge:
                                p.kind = "diverger"
                        plans.append(p)
            if cfg.regime is Regime.MERGE_DIVERGE and cfg.merge_rate_vpm > 0.0:
                rng = _stream(self.seed, "merge")
                for t in _arrival_times(
                    rng, cfg.merge_rate_vpm / 60.0, cfg.min_headway_s, cfg.duration_s
                ):
                    plans.append(
                        _Plan(
                            t=t, direction=1, lane=0,
                            speed=_sample_speed(rng, cfg), kind="entrant",
                        )
                    )
        plans.sort(key=lambda p: (p.t, p.direction, p.lane))
        for i, p in enumerate(plans):
            p.vid = i + 1
        return plans

    # -- dynamics -------------------------------------------------------------

    def _wave_active(self, t: float) -> bool:
        return any(s <= t < e for s, e in self._wave_windows)

    def _in_wave(self, x: float) -> bool:
        z = self._wave_zone
        return z is not None and z[0] <= x <= z[1]

    def _integrate(self, t: float) -> None:
        dt = self.dt
        wave = self.cfg.regime is Regime.CONGESTION and self._wave_active(t)
        groups: dict[tuple[int, int], list[_Vehicle]] = {}
        for v in self.alive:
            groups.setdefault((v.direction, v.lane), []).append(v)
        for (direction, _lane), vs in sorted(groups.items()):
            vs.sort(key=lambda v: direction * v.x, reverse=True)
            leader_old_x: Optional[float] = None
            leader_new_x: Optional[float] = None
            for v in vs:
                if leader_old_x is None:
                    gap = math.inf
                else:
                    gap = direction * (leader_old_x - v.x) - VEHICLE_LENGTH
                v_new = min(v.desired, v.v + ACCEL_LIMIT * dt)
                v_new = min(v_new, max(gap - MIN_GAP, 0.0) / HEADWAY_TIME)
                if wave and self._in_wave(v.x):
                    v_new = 0.0
                x_new = v.x + direction * v_new * dt
                if leader_new_x is not None:
                    limit = leader_new_x - direction * (VEHICLE_LENGTH + 0.1)
                    if direction * x_new > direction * limit:
                        x_new = limit
                        v_new = max(direction * (x_new - v.x) / dt, 0.0)
                leader_old_x, leader_new_x = v.x, x_new
                v.x, v.v = x_new, v_new
        # lateral slew toward the claimed lane center
        lane_y = self._lane_y
        for v in self.alive:
            target = lane_y[v.direction, v.lane]
            step = LANE_CHANGE_RATE * dt
            if abs(target - v.y) <= step:
                v.y = target
            else:
                v.y += step if target > v.y else -step
        self._pass_logic()
        self._despawn(t)

    def _pass_logic(self) -> None:
        if self.cfg.regime is not Regime.OVERTAKING:
            return
        by_vid = {v.vid: v for v in self.alive}
        for v in self.alive:
            if v.kind != "fast" or v.pass_state == "done":
                continue
            partner = by_vid.get(v.partner_vid)
            if v.pass_state == "follow":
                if partner is None or partner.x - v.x < PASS_TRIGGER_GAP:
                    v.lane = 1
                    v.pass_state = "passing"
            elif v.pass_state == "passing":
                if partner is None or v.x - partner.x >= PASS_RETURN_LEAD:
                    v.lane = 0
                    v.pass_state = "return"
            elif v.pass_state == "return":
                if v.y == self._lane_y[v.direction, 0]:
                    v.pass_state = "done"

    def _despawn(self, t: float) -> None:
        end = self.cfg.corridor_end
        keep = []
        for v in self.alive:
            gone = (
                (v.direction > 0 and v.x > end + SPAWN_MARGIN)
                or (v.direction < 0 and v.x < -SPAWN_MARGIN)
                or (v.diverge and self._junction is not None and v.x >= self._junction)
            )
            if gone:
                self._despawned[v.vid] = t
            else:
                keep.append(v)
        self.alive = keep

    def _clearance_ok(self, plan: _Plan, x: float) -> bool:
        need = MERGE_CLEAR if plan.kind == "entrant" else SPAWN_CLEAR
        for v in self.alive:
            if v.direction == plan.direction and v.lane == plan.lane:
                if abs(v.x - x) < need:
                    return False
        return True

    def _spawn_due(self, t: float) -> None:
        cfg = self.cfg
        still: list[_Plan] = []
        for p in self._pending:
            if p.t > t:
                still.append(p)
                continue
            if p.kind == "entrant":
                x = self._junction if self._junction is not None else 0.0
            elif p.direction > 0:
                x = -SPAWN_MARGIN
            else:
                x = cfg.corridor_end + SPAWN_MARGIN
            if not self._clearance_ok(p, x):
                still.append(p)  # deferred until the lane clears
                continue
            veh = _Vehicle(
                vid=p.vid,
                direction=p.direction,
                lane=p.lane,
                x=x,
                y=self._lane_y[p.direction, p.lane],
                v=p.speed,
                desired=p.speed,
                kind=p.kind,
                diverge=p.diverge,
                partner_vid=p.partner.vid if p.partner is not None else 0,
                pass_state="follow" if p.kind == "fast" else "",
                spawn_t=t,
            )
            self.alive.append(veh)
            self._tracks[p.vid] = TruthTrack(
                vehicle_id=p.vid,
                direction=p.direction,
                lane=p.lane,
                desired_speed_kmh=p.speed * 3.6,
                spawn_t=t,
                despawn_t=cfg.duration_s,
                kind=p.kind,
            )
        self._pending = still

    # -- sensing ---------------------------------------------------------------

    def _drift(self, camera_id: int, t: float) -> float:
        a = self.cfg.drift_amplitude_m
        if a == 0.0:
            return 0.0
        w = 2.0 * math.pi / self.cfg.drift_period_s
        return a * math.sin(w * t + DRIFT_PHASE_STEP * camera_id)

    def _observe(self, f: int, t_report: float) -> None:
        cfg = self.cfg
        lam = cfg.m_per_px
        rate = cfg.noise.dropout_rate
        sigma = cfg.noise.pos_sigma_px
        by_x = sorted(self.alive, key=attrgetter("x"))
        xs = [v.x for v in by_x]
        for node in self.topology.nodes:
            cam = node.id
            a, b = cfg.fov_bounds(cam - 1)
            drop = self._drop_rng[cam]
            noise = self._noise_rng[cam]
            res = self._residency[cam]
            first_seen = self._first_seen[cam]
            tracks = []
            for v, rx in in_footprint(by_x, xs, a, b, self._drift(cam, t_report)):
                # a non-zero knob draws for every visible vehicle, used or
                # not, so its stream stays aligned; a zero knob never draws
                r = drop.random() if rate else 1.0
                if sigma:
                    nx = noise.gauss(0.0, 1.0)
                    ny = noise.gauss(0.0, 1.0)
                else:
                    nx = ny = 0.0
                if r < rate:
                    continue
                px = rx / lam + nx * sigma
                py = v.y / lam + ny * sigma
                prev = res.get(v.vid)
                if prev is not None and prev[1] == f - 1:
                    lid = prev[0]
                else:
                    first_seen.setdefault(v.vid, f)
                    self._lid_counter[cam] += 1
                    lid = self._lid_counter[cam]
                res[v.vid] = (lid, f)
                tracks.append(TrackState(
                    f, cam, lid, t_report,
                    round(px, 6), round(py, 6), round(px * lam, 6), round(py * lam, 6),
                ))
                self.truth_obs.append(TruthObs(f, cam, lid, v.vid))
            self._reports.append((cam, f, t_report, tuple(tracks)))

    # -- driver -----------------------------------------------------------------

    def step(self) -> None:
        self._frame += 1
        f = self._frame
        t = f / self.cfg.frame_rate
        if f > 0:
            self._integrate(t)
        self._spawn_due(t)
        self._observe(f, round(t, 6))

    @gc_paused
    def run(self) -> SimResult:
        for _ in range(self.frame_count):
            self.step()
        # a vehicle still alive at the end despawns at duration_s
        t_end = self.cfg.duration_s
        tracks = [
            replace(tr, despawn_t=self._despawned.get(vid, t_end))
            for vid, tr in sorted(self._tracks.items())
        ]
        return SimResult(
            config=self.cfg,
            seed=self.seed,
            topology=self.topology,
            updates=self._jittered_updates(),
            truth_obs=self.truth_obs,
            truth_tracks=tracks,
            truth_handovers=self._true_handovers(),
            frame_count=self.frame_count,
        )

    def _jittered_updates(self) -> list[StreamUpdate]:
        """Delivery order: per-camera delays that never reorder one camera."""
        j = self.cfg.noise.sync_jitter_frames
        rngs = {n.id: _stream(self.seed, f"sync_jitter/{n.id}") for n in self.topology.nodes}
        floor = {n.id: -1 for n in self.topology.nodes}
        keyed = []
        for cam, f, t, tracks in self._reports:
            if j > 0:
                arrival = max(floor[cam], f + rngs[cam].randint(0, j))
                floor[cam] = arrival
            else:
                arrival = f
            keyed.append((arrival, cam, f, t, tracks))
        keyed.sort(key=lambda k: k[:3])
        return [
            StreamUpdate(cam, f, t, tracks, i)
            for i, (_, cam, f, t, tracks) in enumerate(keyed)
        ]

    def _true_handovers(self) -> list[TrueHandover]:
        """Consecutive camera visits of each vehicle, ordered by first frame seen."""
        fps = self.cfg.frame_rate
        visits = sorted(
            (vid, lo, self._residency[cam][vid][1], cam)
            for cam, first_seen in self._first_seen.items()
            for vid, lo in first_seen.items()
        )
        return [
            TrueHandover(vid, cam_a, cam_b, round(hi_a / fps, 6), round(lo_b / fps, 6))
            for (vid, _, hi_a, cam_a), (vid_b, lo_b, _, cam_b) in zip(visits, visits[1:])
            if vid == vid_b
        ]


def run_sim(cfg: ScenarioConfig, seed: int) -> SimResult:
    return World(cfg, seed).run()
