import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camchain.errors import (
    CamchainError,
    ConfigError,
    GeometryError,
    InsufficientHistoryError,
    MalformedInputError,
)
from camchain.geometry import Point2, Zone
from camchain.handover import BufferEntry, EventKind, HandoverEvent
from camchain.kinematics import (
    Calibration,
    KinematicState,
    MotionStatus,
    estimate_heading,
    estimate_speed,
    motion_status,
    wrap_angle,
)


def straight_px_track(n, px_per_frame, start=(0.0, 0.0)):
    return [Point2(start[0] + i * px_per_frame, start[1]) for i in range(n)]


class TestEstimateSpeed:
    def test_worked_value_27_kmh(self):
        # 50 px net over 10 frames at 30 fps with 0.05 m/px -> 7.5 m/s
        cal = Calibration(m_per_px=0.05, frame_dt=1.0 / 30.0)
        positions = [Point2(0.0, 0.0)] * 10 + [Point2(30.0, 40.0)]
        assert estimate_speed(positions, cal, k=10) == pytest.approx(27.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 5, 10, 30])
    def test_constant_velocity_exact_for_any_k(self, k):
        cal = Calibration(m_per_px=0.05, frame_dt=1.0 / 30.0)
        # 10 m/s -> 10/0.05/30 px per frame
        positions = straight_px_track(31, 10.0 / 0.05 / 30.0)
        assert abs(estimate_speed(positions, cal, k=k) - 36.0) < 1e-6

    @pytest.mark.parametrize("k", [1, 5, 10, 30])
    def test_scale_doubling_doubles_speed_exactly(self, k):
        lam = 0.05
        cal1 = Calibration(m_per_px=lam, frame_dt=0.1)
        cal2 = Calibration(m_per_px=2.0 * lam, frame_dt=0.1)
        positions = straight_px_track(31, 13.7, start=(4.2, -9.1))
        assert estimate_speed(positions, cal2, k=k) == 2.0 * estimate_speed(
            positions, cal1, k=k
        )

    def test_only_the_two_endpoints_are_read(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        a = straight_px_track(11, 5.0)
        b = list(a)
        for i in range(1, 10):  # scramble the interior
            b[i] = Point2(-999.0 + i, 777.0)
        assert estimate_speed(a, cal, k=10) == estimate_speed(b, cal, k=10)

    def test_translation_invariance(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        a = straight_px_track(11, 5.0)
        b = [Point2(p.x + 1234.567, p.y - 89.25) for p in a]
        assert estimate_speed(b, cal, k=10) == pytest.approx(
            estimate_speed(a, cal, k=10), abs=1e-9
        )

    def test_history_too_short(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        with pytest.raises(InsufficientHistoryError) as ei:
            estimate_speed(straight_px_track(10, 5.0), cal, k=10)
        assert "need 11" in str(ei.value)

    def test_k_must_be_positive(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        with pytest.raises(ValueError):
            estimate_speed(straight_px_track(5, 1.0), cal, k=0)

    def test_chord_never_exceeds_path(self):
        """On a curve the k-frame chord speed is at most the mean 1-frame speed."""
        cal = Calibration(m_per_px=0.1, frame_dt=0.1)
        pts = [
            Point2(30.0 * math.cos(i * 0.25), 30.0 * math.sin(i * 0.25))
            for i in range(16)
        ]
        k = 15
        chord = estimate_speed(pts, cal, k=k)
        steps = [estimate_speed(pts[: i + 1], cal, k=1) for i in range(1, 16)]
        assert chord <= sum(steps) / k + 1e-12
        assert chord < steps[0]  # strictly shorter on a real curve

    def test_stationary_is_zero(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        assert estimate_speed([Point2(3, 4)] * 11, cal, k=10) == 0.0


class TestHeading:
    def test_cardinal_directions(self):
        assert estimate_heading(Point2(0, 0), Point2(1, 0), None) == 0.0
        assert estimate_heading(Point2(0, 0), Point2(0, 1), None) == pytest.approx(
            math.pi / 2
        )
        assert estimate_heading(Point2(0, 0), Point2(-1, 0), None) == pytest.approx(
            math.pi
        )
        assert estimate_heading(Point2(0, 0), Point2(0, -1), None) == pytest.approx(
            -math.pi / 2
        )

    def test_held_below_threshold(self):
        prev = 2.5
        assert estimate_heading(Point2(0, 0), Point2(0.05, 0.05), prev) == prev
        assert estimate_heading(Point2(0, 0), Point2(0.01, 0.0), None) is None

    def test_refreshes_at_threshold(self):
        # displacement exactly at the limit is direction, not jitter
        assert estimate_heading(Point2(0, 0), Point2(0.15, 0.0), 2.5, 0.15) == 0.0


class TestWrapAngle:
    @pytest.mark.parametrize(
        "a,want",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (2 * math.pi, 0.0),
            (3 * math.pi, math.pi),
            (-math.pi / 2, -math.pi / 2),
        ],
    )
    def test_wrapped_values(self, a, want):
        assert wrap_angle(a) == pytest.approx(want, abs=1e-12)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-6)
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-6)


class TestMotionStatus:
    def test_threshold_is_strict(self):
        assert motion_status(2.9, 3.0) is MotionStatus.STOPPED
        assert motion_status(3.0, 3.0) is MotionStatus.MOVING
        assert motion_status(3.1, 3.0) is MotionStatus.MOVING


class TestValidation:
    def test_calibration(self):
        with pytest.raises(GeometryError):
            Calibration(m_per_px=0.0, frame_dt=0.1)
        with pytest.raises(GeometryError):
            Calibration(m_per_px=0.05, frame_dt=-1.0)
        with pytest.raises(GeometryError):
            Calibration(m_per_px=math.nan, frame_dt=0.1)

    def test_kinematic_state(self):
        KinematicState(None, None, None)
        KinematicState(12.0, math.pi, MotionStatus.MOVING)
        with pytest.raises(ValueError):
            KinematicState(-1.0, None, MotionStatus.MOVING)
        with pytest.raises(ValueError):
            KinematicState(5.0, None, None)  # speed without status
        with pytest.raises(ValueError):
            KinematicState(None, None, MotionStatus.STOPPED)  # status without speed
        with pytest.raises(ValueError):
            KinematicState(5.0, -math.pi, MotionStatus.MOVING)  # open end of range

    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, None, MotionStatus.MOVING),
            (5.0, None, None),
            (None, None, MotionStatus.STOPPED),
            (5.0, -math.pi, MotionStatus.MOVING),
        ],
        ids=["negative-speed", "speed-without-status", "status-without-speed", "heading"],
    )
    def test_kinematic_state_errors_are_typed(self, args):
        good = KinematicState(12.0, 0.5, MotionStatus.MOVING)
        for build in (
            lambda: KinematicState(*args),
            lambda: KinematicState._make(args),
            lambda: good._replace(**dict(zip(KinematicState._fields, args))),
        ):
            with pytest.raises(MalformedInputError) as ei:
                build()
            assert isinstance(ei.value, CamchainError)

    def test_speed_window_error_is_typed(self):
        cal = Calibration(m_per_px=0.05, frame_dt=0.1)
        with pytest.raises(ConfigError) as ei:
            estimate_speed(straight_px_track(5, 1.0), cal, k=0)
        assert isinstance(ei.value, CamchainError)


@pytest.mark.parametrize(
    "record",
    [
        BufferEntry(7, 1, 3, 2.0, 0.5, 1, Point2(15.0, -2.0)),
        HandoverEvent(EventKind.PUSHED, 20, 2.0, 1, 3, 7, (1, 2), Zone.UPPER, 0.5),
        KinematicState(12.0, 0.5, MotionStatus.MOVING),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "extra"
