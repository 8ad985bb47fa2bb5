"""Speed, heading, and motion status estimators over pixel-domain track windows.

Speed comes from pixel displacement scaled by the camera's ground sampling
scale (meters per pixel), so it stays exact under the pixel<->metric
round trip. Heading is only refreshed when the per-frame displacement is
large enough to be direction, not jitter; below that the previous heading
is held.

``HandoverEngine.process_snapshot`` inlines ``estimate_speed``,
``motion_status`` and ``estimate_heading`` with their default thresholds,
float operation for float operation; a property test in
``tests/test_handover.py`` holds the two to equal results, so a change to
one of these estimators must be made there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConfigError, GeometryError, InsufficientHistoryError, MalformedInputError

DEFAULT_SPEED_WINDOW = 10        # frames between the two chord-speed samples
DEFAULT_STOP_SPEED_KMH = 3.0
DEFAULT_STOP_THRESHOLD_M = 0.15  # per-frame displacement below this holds heading

MPS_TO_KMH = 3.6


class MotionStatus(Enum):
    MOVING = "moving"
    STOPPED = "stopped"


@dataclass(frozen=True)
class Calibration:
    """Per-camera pixel-to-ground scale and frame period."""

    m_per_px: float
    frame_dt: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m_per_px) and self.m_per_px > 0.0):
            raise GeometryError(f"m_per_px must be positive, got {self.m_per_px}")
        if not (math.isfinite(self.frame_dt) and self.frame_dt > 0.0):
            raise GeometryError(f"frame_dt must be positive, got {self.frame_dt}")


class _KinematicFields(NamedTuple):
    speed_kmh: Optional[float]
    heading_rad: Optional[float]
    status: Optional[MotionStatus]


class KinematicState(_KinematicFields):
    """Estimated kinematics for one track at one instant.

    ``speed_kmh`` and ``heading_rad`` are None while the track is too young
    for the respective estimator; unknown speed is reported as unknown,
    never as zero. ``status`` is present exactly when speed is. Every way
    of building one, ``_make`` and ``_replace`` included, runs the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        speed_kmh: Optional[float],
        heading_rad: Optional[float],
        status: Optional[MotionStatus],
    ) -> KinematicState:
        if speed_kmh is not None and speed_kmh < 0.0:
            raise MalformedInputError(f"speed_kmh must be >= 0, got {speed_kmh}")
        if (status is None) != (speed_kmh is None):
            raise MalformedInputError("status must be present exactly when speed is")
        if heading_rad is not None and not (-math.pi < heading_rad <= math.pi):
            raise MalformedInputError(f"heading {heading_rad} outside (-pi, pi]")
        return tuple.__new__(cls, (speed_kmh, heading_rad, status))

    @classmethod
    def _make(cls, iterable: Iterable) -> KinematicState:
        return cls(*iterable)


def wrap_angle(a: float) -> float:
    """Map any angle to (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def estimate_speed(
    positions: Sequence[tuple[float, float]],
    cal: Calibration,
    k: int = DEFAULT_SPEED_WINDOW,
) -> float:
    """Chord speed in km/h over the last k frames of a pixel-position window.

    positions[-1] is the newest sample; positions[-1-k] the comparison
    sample. Reads exactly those two points, so chord length never exceeds
    path length on a curved track.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(positions) < k + 1:
        raise InsufficientHistoryError(
            f"need {k + 1} positions for k={k}, have {len(positions)}"
        )
    x1, y1 = positions[-1 - k]
    x2, y2 = positions[-1]
    dist_px = math.hypot(x2 - x1, y2 - y1)
    return dist_px * cal.m_per_px / (k * cal.frame_dt) * MPS_TO_KMH


def estimate_heading(
    prev: tuple[float, float],
    curr: tuple[float, float],
    prev_heading: Optional[float],
    stop_threshold: float = DEFAULT_STOP_THRESHOLD_M,
) -> Optional[float]:
    """Heading from the metric displacement prev->curr, held when nearly still."""
    dx = curr[0] - prev[0]
    dy = curr[1] - prev[1]
    if math.hypot(dx, dy) >= stop_threshold:
        return wrap_angle(math.atan2(dy, dx))
    return prev_heading


def motion_status(speed_kmh: float, stop_speed_kmh: float = DEFAULT_STOP_SPEED_KMH) -> MotionStatus:
    return MotionStatus.STOPPED if speed_kmh < stop_speed_kmh else MotionStatus.MOVING
