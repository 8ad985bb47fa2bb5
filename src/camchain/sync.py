"""Frame-index synchronization barrier for per-camera track streams.

Cameras deliver updates tagged with a discrete frame index; the barrier
re-assembles them into per-frame snapshots so the engine always sees one
consistent instant. In strict mode a frame is released only once every
camera has either delivered it or moved past it. With ``max_lag`` set, a
camera trailing more than that many frames behind the fastest stream stops
blocking: the frame is released with an empty track list for it and the
camera is flagged in the snapshot metadata.

A source that already holds whole frames in order, such as
``observations.csv``, hands each one to ``ingest_frame`` instead: it makes
the same checks and counts the same statistics as delivering the frame's
per-camera updates one by one, and returns the frame's snapshot at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import countOf
from typing import Mapping, Optional

from .errors import CausalityError, ConfigError, MalformedInputError
from .tracks import TrackState


@dataclass(frozen=True, slots=True)
class StreamUpdate:
    """Everything one camera saw at one frame."""

    camera_id: int
    frame_index: int
    t: float
    tracks: tuple[TrackState, ...] = ()
    arrival_seq: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        _check_tracks(self.camera_id, self.frame_index, self.t, self.tracks)


def _check_tracks(
    camera_id: int, frame_index: int, t: float, tracks: tuple[TrackState, ...]
) -> None:
    """Every track of one camera's update must carry its camera, frame and time."""
    for ts in tracks:
        if ts.camera_id != camera_id:
            raise MalformedInputError(
                f"track camera {ts.camera_id} inside update for camera {camera_id}"
            )
        if ts.t != t:
            raise MalformedInputError(f"track time {ts.t} differs from update time {t}")
        if ts.frame_index != frame_index:
            raise MalformedInputError(
                f"track frame {ts.frame_index} inside update for frame {frame_index}"
            )


@dataclass(frozen=True, slots=True)
class Snapshot:
    """One released frame: every registered camera maps to its track list."""

    frame_index: int
    t: float
    per_camera: Mapping[int, tuple[TrackState, ...]]
    stalled: frozenset[int] = frozenset()


@dataclass(frozen=True)
class BarrierConfig:
    camera_ids: frozenset[int]
    max_lag: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "camera_ids", frozenset(self.camera_ids))
        if not self.camera_ids:
            raise ConfigError("barrier needs at least one camera")
        if self.max_lag is not None and self.max_lag < 0:
            raise ConfigError(f"max_lag must be >= 0, got {self.max_lag}")


@dataclass
class BarrierStats:
    ingested: int = 0
    released: int = 0
    dropped_late: int = 0
    peak_pending: int = 0


class SyncBarrier:
    """Reorders per-camera updates into monotonically increasing snapshots.

    ``ingest`` may be called from multiple producer threads; calls are
    serialized internally. ``try_release`` returns at most one snapshot per
    call and None when nothing is releasable yet. ``ingest_frame`` takes a
    whole frame at once and returns its snapshot.
    """

    def __init__(self, cfg: BarrierConfig) -> None:
        self.cfg = cfg
        self._lock = threading.Lock()
        self._cams = sorted(cfg.camera_ids)
        self._pending: dict[int, dict[int, StreamUpdate]] = {}  # frame -> camera -> update
        self._pending_total = 0
        self._last_ingested: dict[int, int] = {c: -1 for c in cfg.camera_ids}
        # watermarks over _last_ingested, exact because each entry only grows
        self._low = self._high = -1
        self._at_low = len(self._cams)  # cameras whose last delivery is _low
        self._released_frame = -1
        self.stats = BarrierStats()

    def ingest(self, update: StreamUpdate) -> None:
        with self._lock:
            cam, frame, last = update.camera_id, update.frame_index, self._last_ingested
            if cam not in self.cfg.camera_ids:
                raise ConfigError(f"camera {cam} is not registered with the barrier")
            if frame < 0:
                raise MalformedInputError(f"negative frame index {frame}")
            if frame <= last[cam]:
                raise CausalityError(
                    f"camera {cam} delivered frame {frame} after frame {last[cam]}"
                )
            if last[cam] == self._low:
                self._at_low -= 1
            last[cam] = frame
            if not self._at_low:  # the last camera at the low watermark moved on
                self._low = min(last.values())
                self._at_low = countOf(last.values(), self._low)
            self._high = max(self._high, frame)
            if frame <= self._released_frame:
                # Only reachable when max_lag already forced the frame out.
                self.stats.dropped_late += 1
                return
            self._pending.setdefault(frame, {})[cam] = update
            self.stats.ingested += 1
            self._pending_total += 1
            if self._pending_total > self.stats.peak_pending:
                self.stats.peak_pending = self._pending_total

    def ingest_frame(
        self, frame_index: int, t: float, per_camera: Mapping[int, tuple[TrackState, ...]]
    ) -> Snapshot:
        """Take one whole frame, every registered camera's tracks, and
        release it as a snapshot.

        It checks what ``ingest`` and ``StreamUpdate`` check of each of the
        frame's updates and counts them as ``ingest`` and ``try_release``
        would. Per-camera updates still pending refuse it, because the
        frame would overtake them. The snapshot holds ``per_camera`` itself,
        not a copy.
        """
        with self._lock:
            cams = self.cfg.camera_ids
            if self._pending:
                raise CausalityError(
                    f"frame {frame_index} delivered whole while "
                    f"{self._pending_total} per-camera updates are pending"
                )
            if per_camera.keys() != cams:
                for cam in per_camera:
                    if cam not in cams:
                        raise ConfigError(f"camera {cam} is not registered with the barrier")
                missing = min(cams - per_camera.keys())
                raise MalformedInputError(f"frame {frame_index} lacks camera {missing}")
            if frame_index < 0:
                raise MalformedInputError(f"negative frame index {frame_index}")
            if frame_index <= self._high:
                cam = min(c for c, f in self._last_ingested.items() if f >= frame_index)
                raise CausalityError(
                    f"camera {cam} delivered frame {frame_index} "
                    f"after frame {self._last_ingested[cam]}"
                )
            for cam, tracks in per_camera.items():
                if tracks:
                    _check_tracks(cam, frame_index, t, tracks)
            n = len(self._cams)
            self._last_ingested = dict.fromkeys(self._cams, frame_index)
            self._low = self._high = self._released_frame = frame_index
            self._at_low = n
            stats = self.stats
            stats.ingested += n
            stats.released += 1
            if n > stats.peak_pending:
                stats.peak_pending = n
            return Snapshot(frame_index, t, per_camera)

    def try_release(self) -> Optional[Snapshot]:
        """Release the oldest pending frame once every camera's last delivery
        has reached it, or, with ``max_lag``, once the fastest camera is more
        than ``max_lag`` frames past it; cameras still short of it stall."""
        with self._lock:
            if not self._pending:
                return None
            frame = min(self._pending)
            if self._low < frame and (
                self.cfg.max_lag is None or self._high - frame <= self.cfg.max_lag
            ):
                return None
            updates = self._pending[frame]
            t = updates[min(updates)].t
            per_camera: dict[int, tuple[TrackState, ...]] = {}
            for cam in self._cams:
                upd = updates.get(cam)
                if upd is not None and upd.t != t:
                    raise MalformedInputError(
                        f"frame {frame}: cameras disagree on time ({upd.t} vs {t})"
                    )
                per_camera[cam] = () if upd is None else upd.tracks
            del self._pending[frame]
            self._pending_total -= len(updates)
            self._released_frame = frame
            self.stats.released += 1
            return Snapshot(
                frame_index=frame,
                t=t,
                per_camera=per_camera,
                stalled=frozenset(c for c in self._cams if self._last_ingested[c] < frame),
            )

    def drain(self) -> list[Snapshot]:
        """Release everything currently releasable, in order."""
        out = []
        while True:
            snap = self.try_release()
            if snap is None:
                return out
            out.append(snap)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return self._pending_total
