import ast
from pathlib import Path

import pytest

from camchain.geometry import Point2
from camchain.tracks import GlobalTrajectory
from helpers import ts

SRC = Path(__file__).resolve().parents[1] / "src" / "camchain"


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



def test_only_gc_paused_switches_the_gc():
    """A pause written by hand, outside ``tracks.gc_paused``, fails here."""
    guard = next(
        n for n in ast.parse((SRC / "tracks.py").read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name == "gc_paused"
    )
    inside = range(guard.lineno, guard.end_lineno + 1)
    switches, stray = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                stray.append(where)  # from gc import disable: no gc. prefix to find
            elif isinstance(node, ast.Import) and any(
                a.name == "gc" and a.asname for a in node.names
            ):
                stray.append(where)  # import gc as ...: likewise
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("disable", "enable")
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                if path.name == "tracks.py" and node.lineno in inside:
                    switches.append(node.attr)
                else:
                    stray.append(where)
    assert stray == []
    assert sorted(switches) == ["disable", "enable"]
