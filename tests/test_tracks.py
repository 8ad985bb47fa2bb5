import pytest

from camchain.geometry import Point2
from camchain.tracks import GlobalTrajectory
from helpers import ts


def test_track_state_is_frozen():
    st = ts(1, 1, 0.0, 5.0, -2.0)
    with pytest.raises(AttributeError):
        st.t = 1.0


def test_track_state_defaults_empty():
    st = ts(1, 1, 0.0, 5.0, -2.0)
    assert st.pos == Point2(5.0, -2.0)
    assert st.pos_px == Point2(100.0, -40.0)


class TestGlobalTrajectory:
    def test_cameras_in_first_seen_order(self):
        traj = GlobalTrajectory(global_id=9)
        traj.states = [
            ts(2, 1, 0.0, 12.0, -2.0),
            ts(1, 1, 0.1, 13.0, -2.0),
            ts(2, 1, 0.2, 14.0, -2.0),
        ]
        assert traj.cameras == (2, 1)
