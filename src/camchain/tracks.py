"""Track-level data carriers shared by the barrier, engine, and writers."""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .geometry import Point2


class TrackState(NamedTuple):
    """One observation of one per-camera track: a row of ``observations.csv``.

    ``x_px, y_px`` is the point in the camera's pixel frame and ``x_m, y_m``
    the same point on the metric ground plane.
    """

    frame_index: int
    camera_id: int
    local_id: int
    t: float
    x_px: float
    y_px: float
    x_m: float
    y_m: float

    @property
    def pos(self) -> Point2:
        return Point2(self.x_m, self.y_m)

    @property
    def pos_px(self) -> Point2:
        return Point2(self.x_px, self.y_px)


class TrajRow(NamedTuple):
    """One stitched observation: a global id plus the engine's kinematics.

    The engine appends one per observation to ``GlobalTrajectory.states``,
    built positionally with ``tuple.__new__``, so a check added here would
    not run there; ``trajectories.csv`` stores the same record, one row each.
    """

    global_id: int
    frame_index: int
    camera_id: int
    local_id: int
    t: float
    x_m: float
    y_m: float
    speed_kmh: Optional[float]
    heading_rad: Optional[float]
    status: Optional[str]


@dataclass
class GlobalTrajectory:
    """All observations stitched under one global identity, across cameras.

    Time-ordered; inside an overlap two cameras may report the same instant,
    so ties are broken by camera id.
    """

    global_id: int
    states: list[TrajRow] = field(default_factory=list)

    @property
    def cameras(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for s in self.states:
            seen.setdefault(s.camera_id, None)
        return tuple(seen)


def gc_paused(fn):
    """Run ``fn`` with the cyclic GC paused; the outermost call restores it.

    The data path's tuple records are never untracked by CPython and form no
    cycles, so a full collection would only rescan them. The pause is
    process-wide: other threads run without cyclic collection meanwhile.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
