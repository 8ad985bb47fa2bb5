"""Cross-camera identity handover via directional per-edge buffers.

Every topology edge owns two FIFO buffers, one per traffic zone. While a
globally-identified track sits inside an edge's trigger region and is headed
off its camera across that edge, its metadata (normalized lateral offset,
exit time, position) is pushed to the matching buffer; a re-push for the same
global id replaces the earlier entry. When a camera births a track inside a
trigger region, the buffers feeding that camera are queried: the winning
entry is consumed and its global id inherited, otherwise a fresh id is
minted. Entries that outlive the timeout are swept and reported expired.

Matching strategies:

* ``LATERAL_AWARE`` picks the in-window entry whose stored lateral offset is
  nearest the querying track's, rejecting the match when even the best
  disagreement is at or above ``eps_lat``;
* ``STRICT_FIFO`` (baseline) pops the oldest in-window entry regardless of
  lateral agreement.

Both honor the same recency window (``age < dt_window``), the optional
position gate, and never hand an id to a camera that already carries it
on a live track.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Container, Iterable, Iterator, NamedTuple, Optional

from .errors import CausalityError, ConfigError, MalformedInputError
from .geometry import BOUNDARY_EPS, Point2, Zone, get_zone, lateral_norm, point_in_polygon
from .kinematics import (
    DEFAULT_SPEED_WINDOW,
    DEFAULT_STOP_SPEED_KMH,
    DEFAULT_STOP_THRESHOLD_M,
    MPS_TO_KMH,
    KinematicState,
    MotionStatus,
)
from .sync import Snapshot
from .topology import EdgeDef, EdgeKey, TopologyGraph, edge_is_exit
from .tracks import GlobalTrajectory, TrackState, TrajRow

# Heading projections smaller than this cannot pick a travel direction and
# the lateral-position rule decides the zone instead.
_PROJECTION_EPS = 1e-12

_STOPPED, _MOVING = MotionStatus.STOPPED, MotionStatus.MOVING
_TWO_PI = 2.0 * math.pi  # as kinematics.wrap_angle computes it


class MatchStrategy(Enum):
    LATERAL_AWARE = "lateral-aware"
    STRICT_FIFO = "strict-fifo"


@dataclass(frozen=True)
class MatcherConfig:
    """Gates and windows for buffer queries.

    ``dt_window`` bounds how stale an entry may be and still match;
    ``eps_time`` is the buffer timeout and can never undercut the window.
    ``eps_dist`` (meters) is the optional position gate, off until set.
    """

    dt_window: float = 4.0
    eps_lat: float = 0.12
    eps_time: float = 30.0
    eps_dist: Optional[float] = None
    strategy: MatchStrategy = MatchStrategy.LATERAL_AWARE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_window) and self.dt_window > 0.0):
            raise ConfigError(f"dt_window must be > 0, got {self.dt_window}")
        if not (math.isfinite(self.eps_lat) and self.eps_lat > 0.0):
            raise ConfigError(f"eps_lat must be > 0, got {self.eps_lat}")
        if not (math.isfinite(self.eps_time) and self.eps_time >= self.dt_window):
            raise ConfigError(
                f"eps_time ({self.eps_time}) must be >= dt_window ({self.dt_window})"
            )
        if self.eps_dist is not None and not (
            math.isfinite(self.eps_dist) and self.eps_dist > 0.0
        ):
            raise ConfigError(f"eps_dist must be > 0 when set, got {self.eps_dist}")


class BufferEntry(NamedTuple):
    """One parked identity awaiting pickup on the far side of an edge.

    The engine builds it and ``HandoverEvent`` positionally with
    ``tuple.__new__``: reordering fields of either changes what it stores,
    and a check added to either would not run on the engine's path.
    """

    global_id: int
    camera_id: int
    local_id: int
    t_exit: float
    y_rel: float
    seq: int
    pos: Optional[Point2] = None


class EventKind(Enum):
    PUSHED = "pushed"
    MATCHED = "matched"
    NEW_IDENTITY = "new_identity"
    EXPIRED = "expired"


class HandoverEvent(NamedTuple):
    kind: EventKind
    frame_index: int
    t: float
    camera_id: int
    local_id: int
    global_id: int
    edge: Optional[EdgeKey] = None
    zone: Optional[Zone] = None
    y_rel: Optional[float] = None
    age: Optional[float] = None
    residual: Optional[float] = None


_PUSHED, _MATCHED, _NEW_IDENTITY = EventKind.PUSHED, EventKind.MATCHED, EventKind.NEW_IDENTITY


@dataclass(slots=True)
class BufferLedger:
    """What a set of buffers holds together, kept up by their own methods.

    ``entries`` counts their entries. ``t_floor`` is at or below every
    entry's ``t_exit``: a push lowers it, and only a caller that has seen
    every buffer's head may raise it.
    """

    entries: int = 0
    t_floor: float = math.inf


class DirectionalBuffer:
    """FIFO of parked identities for one (edge, zone) lane of travel.

    Entries are keyed by global id in insertion order, and pushes must not
    go back in time, so ``t_exit`` never decreases from head to tail.
    Buffers built with one ``ledger`` share it; by default each has its own.
    """

    def __init__(
        self, edge_key: EdgeKey, zone: Zone, ledger: Optional[BufferLedger] = None
    ) -> None:
        self.edge_key = edge_key
        self.zone = zone
        self.ledger = ledger if ledger is not None else BufferLedger()
        self._entries: dict[int, BufferEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BufferEntry]:
        return iter(self._entries.values())

    @property
    def entries(self) -> tuple[BufferEntry, ...]:
        return tuple(self._entries.values())

    def push(self, entry: BufferEntry) -> None:
        entries = self._entries
        if entries:
            tail = entries[next(reversed(entries))]
            if entry.t_exit < tail.t_exit:
                raise CausalityError(
                    f"buffer {self.edge_key}/{self.zone.value}: push at t={entry.t_exit} "
                    f"is before the tail entry's t={tail.t_exit}"
                )
        # a re-push supersedes the previous parking of the same id
        ledger = self.ledger
        if entries.pop(entry.global_id, None) is None:
            ledger.entries += 1
        entries[entry.global_id] = entry
        if entry.t_exit < ledger.t_floor:
            ledger.t_floor = entry.t_exit

    def remove(self, entry: BufferEntry) -> None:
        del self._entries[entry.global_id]
        self.ledger.entries -= 1

    def sweep_expired(self, now: float, ttl: float) -> list[BufferEntry]:
        """Drop and return entries whose age reached the timeout.

        Expired entries form a prefix, because ``t_exit`` never decreases
        along the buffer.
        """
        expired = []
        for e in self._entries.values():
            if now - e.t_exit < ttl:
                break
            expired.append(e)
        for e in expired:
            del self._entries[e.global_id]
        self.ledger.entries -= len(expired)
        return expired


class _Trigger(NamedTuple):
    """One trigger region as seen from one of its edge's two cameras."""

    edge: EdgeDef
    # the overlap's bbox widened by BOUNDARY_EPS: outside it point_in_polygon
    # is False, so a point it rejects skips the walk with the same outcome
    box: tuple[float, float, float, float]
    exit_zone: Zone  # the zone that leaves this camera across the edge
    exit_buffer: DirectionalBuffer
    entry_buffer: DirectionalBuffer


def _direction(
    heading: Optional[float], status: Optional[MotionStatus]
) -> Optional[tuple[float, float]]:
    """A track's travel direction as (cos, sin) of its heading, or None.

    A stopped vehicle's held heading is stale, so it counts as unknown.
    """
    if heading is None or status is _STOPPED:
        return None
    return math.cos(heading), math.sin(heading)


def _zone(trig: _Trigger, pos: Point2, direction: Optional[tuple[float, float]]) -> Zone:
    """Travel direction decides the zone; lateral position breaks ties."""
    frame = trig.edge.frame
    if direction is not None:
        p = direction[0] * frame.axis.x + direction[1] * frame.axis.y
        if p > _PROJECTION_EPS:
            return Zone.UPPER
        if p < -_PROJECTION_EPS:
            return Zone.LOWER
    return get_zone(pos, frame)


@dataclass(slots=True)
class _TrackRecord:
    """Mutable per-(camera, local id) bookkeeping inside the engine."""

    px_hist: deque  # the last speed_window + 1 (x_px, y_px) positions
    global_id: Optional[int] = None
    last_t: float = 0.0
    last_frame: Optional[int] = None
    last_pos: Optional[tuple[float, float]] = None  # (x_m, y_m)
    kin: Optional[KinematicState] = None


class HandoverEngine:
    """Stitches per-camera tracks into global trajectories, one snapshot at a time.

    Each snapshot is handled in a fixed order so replays are bit-stable:
    kinematics for every visible track, then buffer pushes for identified
    tracks leaving across an edge, then queries for unidentified tracks,
    then the timeout sweep, cameras and local ids ascending throughout.
    """

    def __init__(self, topology: TopologyGraph, matcher: MatcherConfig | None = None) -> None:
        self.topology = topology
        self.matcher = matcher if matcher is not None else MatcherConfig()
        self._buffers: dict[tuple[EdgeKey, Zone], DirectionalBuffer] = {}
        # one ledger for every buffer, so neither a count nor a sweep that
        # finds nothing due has to visit them all
        self._ledger = BufferLedger()
        for e in topology.edges:
            for z in (Zone.UPPER, Zone.LOWER):
                self._buffers[(e.key, z)] = DirectionalBuffer(e.key, z, self._ledger)
        self._calibration = {n.id: n.calibration for n in topology.nodes}
        # per camera, its edges in edges_at order: a multi-edge query keeps
        # the first of equal keys
        self._triggers: dict[int, tuple[_Trigger, ...]] = {}
        eps = BOUNDARY_EPS
        for n in topology.nodes:
            table = []
            for e in topology.edges_at(n.id):
                exit_zone, entry_zone = (
                    (Zone.UPPER, Zone.LOWER)
                    if edge_is_exit(e, n.id, Zone.UPPER)
                    else (Zone.LOWER, Zone.UPPER)
                )
                minx, miny, maxx, maxy = e.overlap.bbox
                box = (minx - eps, miny - eps, maxx + eps, maxy + eps)
                table.append(
                    _Trigger(
                        e, box, exit_zone,
                        self._buffers[(e.key, exit_zone)], self._buffers[(e.key, entry_zone)],
                    )
                )
            self._triggers[n.id] = tuple(table)
        # least recently touched first, so stale records sit at the front
        self._records: dict[tuple[int, int], _TrackRecord] = {}
        self._next_gid = 0
        self._next_seq = 0
        self._last_frame: Optional[int] = None
        self._last_t: Optional[float] = None
        self.trajectories: dict[int, GlobalTrajectory] = {}
        self.events: list[HandoverEvent] = []
        self.counts: Counter = Counter()

    # -- id and sequence counters ------------------------------------------

    def _mint_gid(self) -> int:
        self._next_gid += 1
        return self._next_gid

    @property
    def gids_minted(self) -> int:
        return self._next_gid

    def buffer(self, edge_key: EdgeKey, zone: Zone) -> DirectionalBuffer:
        try:
            return self._buffers[(edge_key, zone)]
        except KeyError:
            raise ConfigError(f"no buffer for edge {edge_key} zone {zone.value}") from None

    def buffer_sizes(self) -> dict[str, int]:
        return {
            f"{k[0][0]}->{k[0][1]}/{k[1].value}": len(b)
            for k, b in self._buffers.items()
        }

    def total_buffered(self) -> int:
        return self._ledger.entries

    # -- matching ----------------------------------------------------------

    def _scan(
        self,
        buf: DirectionalBuffer,
        t: float,
        y_rel: float,
        pos: Optional[Point2],
        exclude_gids: Container[int],
    ) -> Optional[tuple[tuple, BufferEntry, float, float]]:
        """Best eligible entry of one buffer, or None.

        Returns (ranking key, entry, age, lateral residual); the key is
        comparable across buffers so multi-edge queries can take a global
        minimum.
        """
        m = self.matcher
        best: Optional[tuple[tuple, BufferEntry, float, float]] = None
        for e in buf:
            age = t - e.t_exit
            if not (0.0 <= age < m.dt_window):
                continue
            if e.global_id in exclude_gids:
                continue
            if m.eps_dist is not None:
                if pos is None or e.pos is None:
                    continue
                if math.hypot(pos.x - e.pos.x, pos.y - e.pos.y) >= m.eps_dist:
                    continue
            residual = abs(y_rel - e.y_rel)
            if m.strategy is MatchStrategy.LATERAL_AWARE:
                if residual >= m.eps_lat:
                    continue
                key = (residual, e.t_exit, e.seq)
            else:
                key = (e.t_exit, e.seq)
            if best is None or key < best[0]:
                best = (key, e, age, residual)
        return best

    def query_match(
        self,
        edge_key: EdgeKey,
        zone: Zone,
        t: float,
        y_rel: float,
        pos: Optional[Point2] = None,
        exclude_gids: Iterable[int] = (),
    ) -> Optional[BufferEntry]:
        """Consume and return the best parked identity for one buffer."""
        buf = self.buffer(edge_key, zone)
        found = self._scan(buf, t, y_rel, pos, set(exclude_gids))
        if found is None:
            return None
        buf.remove(found[1])
        return found[1]

    # -- timeout sweep -------------------------------------------------------

    def expire(self, now: float, frame_index: Optional[int] = None) -> list[HandoverEvent]:
        """Drop every buffered identity whose age reached the timeout.

        Runs automatically at the end of each snapshot; callable on its own
        to flush buffers at a chosen time, e.g. after the final update.
        """
        ttl, ledger = self.matcher.eps_time, self._ledger
        # t_floor is at or below every t_exit, so no entry is as old as it
        if now - ledger.t_floor < ttl:
            return []
        if frame_index is None:
            frame_index = self._last_frame if self._last_frame is not None else 0
        out = [
            HandoverEvent(
                EventKind.EXPIRED, frame_index, now, entry.camera_id, entry.local_id,
                entry.global_id, edge_key, zone, entry.y_rel, now - entry.t_exit,
            )
            for (edge_key, zone), buf in self._buffers.items()
            if buf._entries
            for entry in buf.sweep_expired(now, ttl)
        ]
        # every head has been seen, and a head holds its buffer's least t_exit
        heads = (next(iter(b)) for b in self._buffers.values() if b._entries)
        ledger.t_floor = min((e.t_exit for e in heads), default=math.inf)
        self._log(out)
        return out

    def _log(self, events: list[HandoverEvent]) -> None:
        # _value_ skips the Python-level Enum.value property
        self.counts.update(ev.kind._value_ for ev in events)
        self.events.extend(events)

    # -- snapshot processing -------------------------------------------------

    def process_snapshot(self, snap: Snapshot) -> list[HandoverEvent]:
        frame_index, t = snap.frame_index, snap.t
        if self._last_frame is not None:
            if frame_index <= self._last_frame:
                raise CausalityError(
                    f"snapshot frame {frame_index} is not after {self._last_frame}"
                )
            # buffers and record retirement rely on time never going back
            if t < self._last_t:
                raise CausalityError(
                    f"snapshot frame {frame_index} at t={t} is before t={self._last_t}"
                )
        # validate before touching any state; sorting puts a repeat next to its twin
        per_camera: list[tuple[int, list[TrackState]]] = []
        for cam, tracks in sorted(snap.per_camera.items()):
            if cam not in self._triggers:
                raise ConfigError(
                    f"snapshot frame {frame_index} names camera {cam}, "
                    "which the topology lacks"
                )
            if not tracks:  # an idle camera has nothing to validate or update
                continue
            for st in tracks:
                if st.camera_id != cam:
                    raise MalformedInputError(
                        f"camera {cam} reports a track of camera {st.camera_id} "
                        f"in frame {frame_index}"
                    )
            tracks = sorted(tracks, key=attrgetter("local_id"))
            for a, b in zip(tracks, tracks[1:]):
                if a.local_id == b.local_id:
                    raise MalformedInputError(
                        f"camera {cam} reports local id {a.local_id} twice "
                        f"in frame {frame_index}"
                    )
            per_camera.append((cam, tracks))
        self._last_frame, self._last_t = frame_index, t

        # kinematics first: every visible track gets an updated estimate;
        # a touched record moves to the back, so records stay in last_t order.
        # The estimate is camchain.kinematics' estimate_speed, motion_status
        # and estimate_heading inlined, float operation for float operation.
        # Only a track inside one of its camera's trigger boxes can push or
        # match, only across the edges whose box holds it, and only it needs
        # its position as a Point2.
        records = self._records
        k = DEFAULT_SPEED_WINDOW
        new = tuple.__new__
        hypot = math.hypot
        ordered: list[tuple[TrackState, _TrackRecord]] = []
        leavers: list[tuple[int, TrackState, _TrackRecord, Point2, tuple[_Trigger, ...]]] = []
        births: list[
            tuple[int, TrackState, _TrackRecord, Optional[Point2], tuple[_Trigger, ...]]
        ] = []
        live: dict[int, set[int]] = {}
        for cam, tracks in per_camera:
            live_here = live[cam] = set()
            triggers = self._triggers[cam]
            cal = self._calibration[cam]
            m_per_px, window_s = cal.m_per_px, k * cal.frame_dt
            for st in tracks:
                _, _, lid, _, x_px, y_px, x, y = st
                key = (cam, lid)
                rec = records.pop(key, None)
                if rec is None:
                    rec = _TrackRecord(px_hist=deque(maxlen=k + 1))
                    heading = None
                else:
                    heading = rec.kin[1]  # held until a step is long enough
                    if frame_index != rec.last_frame + 1:
                        rec.px_hist.clear()  # a gap breaks the uniform-step speed window
                        rec.last_pos = None
                records[key] = rec
                hist = rec.px_hist
                hist.append((x_px, y_px))
                if len(hist) > k:
                    x0, y0 = hist[0]
                    speed = hypot(x_px - x0, y_px - y0) * m_per_px / window_s * MPS_TO_KMH
                    status = _STOPPED if speed < DEFAULT_STOP_SPEED_KMH else _MOVING
                else:
                    speed = status = None
                last = rec.last_pos
                if last is not None:
                    dx = x - last[0]
                    dy = y - last[1]
                    if hypot(dx, dy) >= DEFAULT_STOP_THRESHOLD_M:
                        # wrap_angle(atan2(dy, dx))
                        w = math.fmod(math.atan2(dy, dx) + math.pi, _TWO_PI)
                        if w <= 0.0:
                            w += _TWO_PI
                        heading = w - math.pi
                rec.kin = KinematicState(speed, heading, status)
                rec.last_pos = (x, y)
                rec.last_t = t
                rec.last_frame = frame_index
                ordered.append((st, rec))
                near: tuple[_Trigger, ...] = ()
                for trig in triggers:
                    lo_x, lo_y, hi_x, hi_y = trig.box
                    if not (x < lo_x or x > hi_x or y < lo_y or y > hi_y):
                        near += (trig,)
                pos = new(Point2, (x, y)) if near else None
                if rec.global_id is None:
                    births.append((cam, st, rec, pos, near))
                else:
                    live_here.add(rec.global_id)
                    if near:
                        leavers.append((cam, st, rec, pos, near))

        # identified tracks inside a trigger region park their id downstream
        out: list[HandoverEvent] = []
        seq = self._next_seq
        for cam, st, rec, pos, near in leavers:
            _, heading, status = rec.kin
            gid, lid = rec.global_id, st.local_id
            direction = _direction(heading, status)
            for trig in near:
                zone = _zone(trig, pos, direction)
                if zone is not trig.exit_zone:
                    continue
                edge = trig.edge
                if not point_in_polygon(pos, edge.overlap):
                    continue
                y_rel = lateral_norm(pos, edge.frame)
                buf = trig.exit_buffer
                seq += 1
                buf.push(new(BufferEntry, (gid, cam, lid, t, y_rel, seq, pos)))
                out.append(
                    new(HandoverEvent, (
                        _PUSHED, frame_index, t, cam, lid, gid, buf.edge_key, zone, y_rel,
                        None, None,
                    ))
                )
        self._next_seq = seq

        # unidentified tracks inherit a parked id or mint a fresh one
        for cam, st, rec, pos, near in births:
            _, heading, status = rec.kin
            direction = _direction(heading, status)
            best = None
            for trig in near:
                zone = _zone(trig, pos, direction)
                if zone is trig.exit_zone:  # leaving, not arriving
                    continue
                edge = trig.edge
                if not point_in_polygon(pos, edge.overlap):
                    continue
                y_rel = lateral_norm(pos, edge.frame)
                buf = trig.entry_buffer
                found = self._scan(buf, t, y_rel, pos, live[cam])
                if found is not None and (best is None or found[0] < best[0][0]):
                    best = (found, zone, buf, y_rel)
            if best is not None:
                (_, entry, age, residual), zone, buf, y_rel = best
                buf.remove(entry)
                rec.global_id = entry.global_id
                out.append(
                    new(HandoverEvent, (
                        _MATCHED, frame_index, t, cam, st.local_id, entry.global_id,
                        buf.edge_key, zone, y_rel, age, residual,
                    ))
                )
            else:
                rec.global_id = self._mint_gid()
                out.append(
                    new(HandoverEvent, (
                        _NEW_IDENTITY, frame_index, t, cam, st.local_id, rec.global_id,
                        None, None, None, None, None,
                    ))
                )
            live[cam].add(rec.global_id)

        self._log(out)
        out += self.expire(t, frame_index)

        # one output row per observation
        trajectories = self.trajectories
        for st, rec in ordered:
            gid = rec.global_id
            traj = trajectories.get(gid)
            if traj is None:
                traj = trajectories[gid] = GlobalTrajectory(global_id=gid)
            speed, heading, status = rec.kin
            # the row carries the status as its CSV string; _value_ is read
            # directly because hashing or .value goes through Python-level enum code
            traj.states.append(
                new(TrajRow, (
                    gid, frame_index, st.camera_id, st.local_id, st.t, st.x_m, st.y_m,
                    speed, heading, None if status is None else status._value_,
                ))
            )

        # forget tracks gone long enough that their id can never resurface
        horizon = 2.0 * self.matcher.eps_time
        while records:
            key = next(iter(records))
            if t - records[key].last_t <= horizon:
                break
            del records[key]
        return out
