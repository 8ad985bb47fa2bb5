import dataclasses

import pytest

from camchain.geometry import Point2
from camchain.tracks import GlobalTrajectory, LocalTracklet, TrackState
from helpers import ts


def test_track_state_is_frozen():
    st = ts(1, 1, 0.0, 5.0, -2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.t = 1.0


def test_track_state_defaults_empty():
    st = ts(1, 1, 0.0, 5.0, -2.0)
    assert st.pos == Point2(5.0, -2.0)
    assert st.pos_px == Point2(100.0, -40.0)


class TestLocalTracklet:
    def test_append_and_span(self):
        tr = LocalTracklet(camera_id=1, local_id=3)
        tr.append(ts(1, 3, 0.0, 0.0, 0.0))
        tr.append(ts(1, 3, 0.1, 1.0, 0.0))
        assert tr.t_start == 0.0
        assert tr.t_end == 0.1

    def test_rejects_foreign_states(self):
        tr = LocalTracklet(camera_id=1, local_id=3)
        with pytest.raises(ValueError, match="does not belong"):
            tr.append(ts(2, 3, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="does not belong"):
            tr.append(ts(1, 4, 0.0, 0.0, 0.0))

    def test_rejects_non_increasing_time(self):
        tr = LocalTracklet(camera_id=1, local_id=3)
        tr.append(ts(1, 3, 0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match="strictly"):
            tr.append(ts(1, 3, 0.5, 1.0, 0.0))
        with pytest.raises(ValueError, match="strictly"):
            tr.append(ts(1, 3, 0.4, 1.0, 0.0))


class TestGlobalTrajectory:
    def test_sort_breaks_time_ties_by_camera(self):
        traj = GlobalTrajectory(global_id=9)
        traj.states = [
            ts(2, 1, 0.2, 12.0, -2.0),
            ts(1, 1, 0.2, 12.0, -2.0),  # same instant seen by both cameras
            ts(1, 1, 0.1, 11.0, -2.0),
        ]
        traj.sort()
        assert [(s.t, s.camera_id) for s in traj.states] == [
            (0.1, 1), (0.2, 1), (0.2, 2),
        ]

    def test_cameras_in_first_seen_order(self):
        traj = GlobalTrajectory(global_id=9)
        traj.states = [
            ts(2, 1, 0.0, 12.0, -2.0),
            ts(1, 1, 0.1, 13.0, -2.0),
            ts(2, 1, 0.2, 14.0, -2.0),
        ]
        assert traj.cameras == (2, 1)
