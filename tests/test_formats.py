import dataclasses
import math
import random
import re
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camchain import formats
from camchain import pipeline as pl
from camchain.errors import ConfigError, MalformedInputError, ParseError
from camchain.formats import (
    frames_from_rows,
    EVENT_HEADER,
    EVENT_TABLE,
    OBS_HEADER,
    OBS_TABLE,
    TRAJ_HEADER,
    TRAJ_TABLE,
    TRUTH_HANDOVERS_TABLE,
    TRUTH_OBS_TABLE,
    TRUTH_TRACKS_TABLE,
    Table,
    TrajRow,
    dump_json,
    load_json,
    matcher_from_dict,
    matcher_to_dict,
    meta_from_dict,
    parse_topology,
    read_events,
    read_observations,
    read_table,
    read_trajectories,
    read_truth_handovers,
    read_truth_obs,
    read_truth_tracks,
    scenario_from_dict,
    scenario_to_dict,
    topology_from_dict,
    topology_to_dict,
    write_events,
    write_observations,
    write_table,
    write_trajectories,
    write_truth_handovers,
    write_truth_obs,
    write_truth_tracks,
)
from camchain.handover import HandoverEngine, MatcherConfig, MatchStrategy
from camchain.simulator import ScenarioConfig, ScriptedVehicle, run_sim
from helpers import drive, ts, two_cam_graph


# scenario dicts whose scalars break their declared types; JSON can spell
# every one of them (NaN, Infinity, true)
BAD_SCENARIOS = {
    "nan-duration": {"duration_s": math.nan},
    "infinite-flow": {"flow_east_vpm": math.inf},
    "bool-as-int": {"n_cameras": True},
    "number-as-name": {"name": 5},
    "nan-optional": {"merge_pos_m": math.nan},
    "fractional-jitter": {"noise": {"sync_jitter_frames": 1.5}},
    "nan-noise": {"noise": {"pos_sigma_px": math.nan}},
    "infinite-scripted-speed": {"scripted_vehicles": [{"spawn_t": 0.0, "speed_kmh": math.inf}]},
    "bool-scripted-lane": {
        "scripted_vehicles": [{"spawn_t": 0.0, "speed_kmh": 50.0, "lane": False}]
    },
}


def _poison_cell(line, idx):
    cells = line.split(",")
    cells[idx] = "zebra"
    return ",".join(cells)


class TestJson:
    def test_parse_error_carries_line_and_column(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"a": 1,\n  bad}\n')
        with pytest.raises(ParseError) as ei:
            load_json(p)
        assert "broken.json:2:" in str(ei.value)

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{\n  "name": "caf\xe9"\n}\n')
        with pytest.raises(ParseError, match="latin1.json:2: not UTF-8"):
            load_json(p)

    def test_dump_is_canonical(self, tmp_path):
        p = tmp_path / "obj.json"
        dump_json(p, {"b": 2, "a": [1, 2]})
        text = p.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert load_json(p) == {"a": [1, 2], "b": 2}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_json(tmp_path / "absent.json")


class TestFixtureFiles:
    @pytest.mark.parametrize(
        "name",
        [
            "scenario_freeflow.json",
            "scenario_overtaking.json",
            "scenario_congestion.json",
            "scenario_merge.json",
        ],
    )
    def test_scenario_files_round_trip_byte_identical(self, fixtures_dir, tmp_path, name):
        src = fixtures_dir / name
        cfg = scenario_from_dict(load_json(src))
        out = tmp_path / name
        dump_json(out, scenario_to_dict(cfg))
        assert out.read_bytes() == src.read_bytes()

    def test_topology_file_round_trips_byte_identical(self, fixtures_dir, tmp_path):
        src = fixtures_dir / "topology_3cam.json"
        topo, matcher = parse_topology(src)
        out = tmp_path / "topo.json"
        dump_json(out, topology_to_dict(topo, matcher))
        assert out.read_bytes() == src.read_bytes()
        assert sorted(topo.camera_ids) == [1, 2, 3]


class TestMatcherSection:
    def test_round_trip_preserves_disabled_gates(self):
        m = MatcherConfig()
        d = matcher_to_dict(m)
        assert d["eps_dist"] is None
        assert matcher_from_dict(d) == m

    def test_round_trip_with_gates_enabled(self):
        m = MatcherConfig(
            strategy=MatchStrategy.STRICT_FIFO,
            dt_window=2.5,
            eps_lat=0.2,
            eps_time=40.0,
            eps_dist=6.0,
        )
        assert matcher_from_dict(matcher_to_dict(m)) == m

    def test_empty_section_means_defaults(self):
        assert matcher_from_dict({}) == MatcherConfig()

    def test_unknown_strategy_lists_the_valid_ones(self):
        with pytest.raises(ConfigError) as ei:
            matcher_from_dict({"strategy": "psychic"})
        msg = str(ei.value)
        assert "lateral-aware" in msg and "strict-fifo" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            matcher_from_dict({"dt_windw": 3.0})

    @pytest.mark.parametrize("value", [None, 0.5])
    def test_removed_direction_gate_key_rejected(self, value):
        with pytest.raises(ConfigError, match="unknown key"):
            matcher_from_dict({"gamma_dir": value})

    def test_semantic_errors_surface_from_files(self, tmp_path):
        p = tmp_path / "topo.json"
        topo = two_cam_graph()
        d = topology_to_dict(topo)
        d["matcher"] = {"dt_window": 4.0, "eps_time": 2.0}
        dump_json(p, d)
        with pytest.raises(ConfigError):
            parse_topology(p)


class TestTopologySection:
    def test_round_trip(self):
        topo = two_cam_graph()
        again = topology_from_dict(topology_to_dict(topo))
        assert topology_to_dict(again) == topology_to_dict(topo)

    def test_parse_defaults_matcher_when_absent(self, tmp_path):
        p = tmp_path / "topo.json"
        dump_json(p, topology_to_dict(two_cam_graph()))
        _, matcher = parse_topology(p)
        assert matcher == MatcherConfig()

    def test_key_discipline(self):
        d = topology_to_dict(two_cam_graph())
        bad = dict(d)
        bad["camras"] = bad.pop("cameras")
        with pytest.raises(ConfigError):
            topology_from_dict(bad)
        missing = dict(d)
        del missing["edges"]
        with pytest.raises(ConfigError):
            topology_from_dict(missing)
        with pytest.raises(ConfigError):
            topology_from_dict({"cameras": "nope", "edges": []})


class TestScenarioSection:
    def test_empty_dict_means_defaults(self):
        assert scenario_from_dict({}) == ScenarioConfig()

    def test_round_trip_covers_every_field(self):
        cfg = ScenarioConfig(
            name="dense",
            duration_s=33.0,
            blind_gap_m=20.0,
            overlap_m=30.0,
            scripted_vehicles=(
                ScriptedVehicle(spawn_t=1.0, speed_kmh=45.0, lane=0, direction=-1),
            ),
            wave_zone=(100.0, 120.0),
            wave_windows=((5.0, 12.0),),
            drift_amplitude_m=2.0,
        )
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            scenario_from_dict({"durationn_s": 5.0})

    def test_validation_still_applies(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"n_cameras": 0})

    @pytest.mark.parametrize("bad", list(BAD_SCENARIOS.values()), ids=list(BAD_SCENARIOS))
    def test_scalars_must_match_their_declared_type(self, bad):
        with pytest.raises(ConfigError):
            scenario_from_dict(bad)

    def test_values_are_checked_not_converted(self):
        d = scenario_to_dict(scenario_from_dict({"duration_s": 30, "merge_pos_m": None}))
        assert d["duration_s"] == 30 and isinstance(d["duration_s"], int)
        assert d["merge_pos_m"] is None


class TestObservationsCsv:
    def write_small(self, tmp_path):
        cfg = ScenarioConfig(
            duration_s=10.0,
            flow_east_vpm=0.0,
            flow_west_vpm=0.0,
            scripted_vehicles=(ScriptedVehicle(spawn_t=0.0, speed_kmh=54.0),),
        )
        sim = run_sim(cfg, 7)
        p = tmp_path / "obs.csv"
        write_observations(p, sim.updates)
        return sim, p

    def test_round_trip_rebuilds_every_frame(self, tmp_path):
        sim, p = self.write_small(tmp_path)
        rows = list(read_observations(p))
        rebuilt = list(frames_from_rows(
            rows,
            camera_ids=[1, 2, 3],
            frame_count=sim.frame_count,
            frame_rate=sim.config.frame_rate,
        ))
        assert [f for f, _, _ in rebuilt] == list(range(sim.frame_count))
        original = {(u.frame_index, u.camera_id): (u.t, u.tracks) for u in sim.updates}
        for f, t, per_camera in rebuilt:
            assert list(per_camera) == [1, 2, 3]
            for cam, tracks in per_camera.items():
                assert (t, tracks) == original[(f, cam)]

    def test_cells_use_six_decimal_places(self, tmp_path):
        _, p = self.write_small(tmp_path)
        lines = p.read_text().splitlines()
        assert lines[0] == ",".join(OBS_HEADER)
        body = [l for l in lines[1:] if l]
        assert body
        pat = re.compile(r"^\d+,\d+,\d+(,-?\d+\.\d{6}){5}$")
        for line in body:
            assert pat.match(line), line

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda ls: [ls[0]] + ls[2:3] + ls[1:2] + ls[3:], "not sorted"),
            (lambda ls: [ls[0], ls[1], ls[1]] + ls[2:], "not sorted"),
            (lambda ls: [ls[0], _poison_cell(ls[1], 3)] + ls[2:], "bad number"),
            (lambda ls: [ls[0], ls[1].rsplit(",", 2)[0]] + ls[2:], "fields"),
            (lambda ls: ["a,b"] + ls[1:], "bad header"),
            (lambda ls: [], "empty"),
        ],
    )
    def test_reader_rejects_corruption(self, tmp_path, mutate, fragment):
        _, p = self.write_small(tmp_path)
        lines = p.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(mutate(lines)) + "\n" if mutate(lines) else "")
        with pytest.raises(MalformedInputError, match=fragment):
            list(read_observations(bad))

    def test_grid_rebuild_validates_inputs(self, tmp_path):
        sim, p = self.write_small(tmp_path)
        rows = list(read_observations(p))
        with pytest.raises(MalformedInputError, match="frame"):
            list(frames_from_rows(rows, [1, 2, 3], frame_count=5, frame_rate=10.0))
        with pytest.raises(MalformedInputError, match="camera"):
            list(frames_from_rows(rows, [2, 3], frame_count=sim.frame_count, frame_rate=10.0))
        with pytest.raises(MalformedInputError):
            list(frames_from_rows(rows, [1, 2, 3], frame_count=sim.frame_count, frame_rate=25.0))

    def test_grid_rejects_rows_out_of_cell_order(self, tmp_path):
        sim, p = self.write_small(tmp_path)
        rows = list(read_observations(p))
        with pytest.raises(MalformedInputError, match=r"not in \(frame_index, camera_id\) order"):
            list(frames_from_rows(
                [rows[-1], *rows[:-1]], [1, 2, 3], sim.frame_count, sim.config.frame_rate
            ))
        # a lower camera after a higher one in the same frame
        a = ts(2, 1, 0.0, 5.0, -2.0)
        b = ts(1, 1, 0.0, 5.0, -2.0)
        with pytest.raises(MalformedInputError, match="local_id=1: not in"):
            list(frames_from_rows([a, b], [1, 2], 1, 10.0))

    def test_grid_without_rows_is_every_cell_empty(self):
        grid = list(frames_from_rows([], [2, 1], 3, 10.0))
        assert grid == [(f, f / 10.0, {1: (), 2: ()}) for f in range(3)]
        assert [list(per_camera) for _, _, per_camera in grid] == [[1, 2]] * 3
        assert list(frames_from_rows([], [], 3, 10.0)) == [(f, f / 10.0, {}) for f in range(3)]
        assert list(frames_from_rows([], [1, 2], 0, 10.0)) == []

    def test_grid_hands_on_the_rows_it_was_given(self, tmp_path):
        sim, p = self.write_small(tmp_path)
        rows = list(read_observations(p))
        frames = list(frames_from_rows(rows, [1, 2, 3], sim.frame_count, sim.config.frame_rate))
        # the frames are in (frame, camera) order, as the file is
        tracks = [s for _, _, per_camera in frames for c in per_camera.values() for s in c]
        assert len(tracks) == len(rows)
        assert all(s is r for s, r in zip(tracks, rows))
        empty = [c for _, _, per_camera in frames for c in per_camera.values() if not c]
        assert empty and all(e is empty[0] for e in empty)
        # no frame's mapping is shared with, or changed after, another's
        assert len({id(per_camera) for _, _, per_camera in frames}) == len(frames)

    def test_frames_of_a_gapped_stream_are_all_there(self):
        # rows in frames 1 and 4 only; the frames around them come out empty
        rows = [ts(2, 1, 0.1, 5.0, -2.0), ts(2, 2, 0.1, 6.0, -2.0), ts(1, 3, 0.4, 7.0, -2.0)]
        frames = list(frames_from_rows(rows, [1, 2], 6, 10.0))
        assert [(f, t) for f, t, _ in frames] == [(f, round(f / 10.0, 6)) for f in range(6)]
        assert frames[1][2] == {1: (), 2: tuple(rows[:2])}
        assert frames[4][2] == {1: (rows[2],), 2: ()}
        assert all(not any(c.values()) for i, (_, _, c) in enumerate(frames) if i not in (1, 4))

class TestTrajectoriesCsv:
    def test_round_trip_with_missing_kinematics(self, tmp_path):
        rows = [
            TrajRow(1, 0, 1, 1, 0.0, 1.5, -2.0, None, None, None),
            TrajRow(1, 12, 1, 1, 1.2, 19.5, -2.0, 36.0, 0.0, "moving"),
            TrajRow(2, 12, 2, 4, 1.2, 25.0, 2.0, 1.2, 3.141592, "stopped"),
        ]
        p = tmp_path / "traj.csv"
        assert write_trajectories(p, rows) == 3
        text = p.read_text()
        assert text.splitlines()[0] == ",".join(TRAJ_HEADER)
        assert ",NA,NA,NA" in text
        assert list(read_trajectories(p)) == rows

    def test_unknown_status_rejected(self, tmp_path):
        p = tmp_path / "traj.csv"
        write_trajectories(p, [TrajRow(1, 0, 1, 1, 0.0, 1.5, -2.0, 5.0, 0.0, "moving")])
        bad = tmp_path / "bad.csv"
        bad.write_text(p.read_text().replace("moving", "hovering"))
        with pytest.raises(MalformedInputError, match="status"):
            list(read_trajectories(bad))


class TestEventsCsv:
    def engine_events(self):
        g = two_cam_graph()
        eng = HandoverEngine(g)
        drive(eng, g, {"a": (0.0, -2.0, 1.0, {1: 1, 2: 1})}, frames=31)
        return eng.events

    def test_round_trip_preserves_engine_order(self, tmp_path):
        events = self.engine_events()
        p = tmp_path / "events.csv"
        assert write_events(p, events) == len(events)
        rows = list(read_events(p))
        assert [r.kind for r in rows] == [e.kind.value for e in events]
        kinds = {r.kind for r in rows}
        assert {"new_identity", "pushed", "matched"} <= kinds
        first = rows[0]
        assert first.kind == "new_identity"
        assert first.edge_up is None and first.zone is None
        m = next(r for r in rows if r.kind == "matched")
        assert (m.edge_up, m.edge_down, m.zone) == (1, 2, "upper")
        assert m.age == 0.0 and m.residual == 0.0

    def test_vocabulary_is_closed(self, tmp_path):
        p = tmp_path / "events.csv"
        write_events(p, self.engine_events())
        text = p.read_text()
        bad_kind = tmp_path / "k.csv"
        bad_kind.write_text(text.replace("matched", "teleported"))
        with pytest.raises(MalformedInputError, match="kind"):
            list(read_events(bad_kind))
        bad_zone = tmp_path / "z.csv"
        bad_zone.write_text(text.replace("upper", "middle"))
        with pytest.raises(MalformedInputError, match="zone"):
            list(read_events(bad_zone))

    def test_header_is_stable(self):
        assert EVENT_HEADER[:3] == ["kind", "frame_index", "t"]


class TestTruthTables:
    def test_round_trips(self, tmp_path):
        cfg = ScenarioConfig(duration_s=45.0)
        sim = run_sim(cfg, 5)
        p1 = tmp_path / "truth_obs.csv"
        p2 = tmp_path / "truth_tracks.csv"
        p3 = tmp_path / "truth_handovers.csv"
        assert write_truth_obs(p1, sim.truth_obs) == len(sim.truth_obs)
        assert write_truth_tracks(p2, sim.truth_tracks) == len(sim.truth_tracks)
        assert write_truth_handovers(p3, sim.truth_handovers) == len(sim.truth_handovers)
        assert list(read_truth_obs(p1)) == sorted(
            sim.truth_obs, key=lambda o: (o.frame_index, o.camera_id, o.local_id)
        )
        # the writer renders floats at six decimals
        want_tracks = [
            replace(
                t,
                desired_speed_kmh=round(t.desired_speed_kmh, 6),
                spawn_t=round(t.spawn_t, 6),
                despawn_t=round(t.despawn_t, 6),
            )
            for t in sorted(sim.truth_tracks, key=lambda t: t.vehicle_id)
        ]
        assert list(read_truth_tracks(p2)) == want_tracks
        want_hops = [
            replace(h, t_exit=round(h.t_exit, 6), t_enter=round(h.t_enter, 6))
            for h in sim.truth_handovers
        ]
        assert sorted(read_truth_handovers(p3), key=lambda h: (h.vehicle_id, h.from_camera)) == sorted(
            want_hops, key=lambda h: (h.vehicle_id, h.from_camera)
        )
        assert len(sim.truth_handovers) > 0


class TestMeta:
    GOOD = {
        "name": "x",
        "seed": 3,
        "frame_count": 100,
        "frame_rate": 10.0,
        "n_cameras": 3,
        "duration_s": 10.0,
    }

    def test_valid(self):
        assert meta_from_dict(dict(self.GOOD)) == self.GOOD

    def test_missing_and_extra_keys(self):
        short = dict(self.GOOD)
        del short["seed"]
        with pytest.raises(ConfigError, match="seed"):
            meta_from_dict(short)
        extra = dict(self.GOOD)
        extra["vibe"] = "good"
        with pytest.raises(ConfigError, match="unknown key"):
            meta_from_dict(extra)


# -- every table through the one reader -----------------------------------------


class Spec(NamedTuple):
    file: str
    table: Table
    read: Callable
    float_col: Optional[str]  # a required float column, if the table has one
    int_col: str


TABLES = {
    "observations": Spec(pl.OBSERVATIONS, OBS_TABLE, read_observations, "x_m", "frame_index"),
    "trajectories": Spec(pl.TRAJECTORIES, TRAJ_TABLE, read_trajectories, "y_m", "global_id"),
    "events": Spec(pl.EVENTS, EVENT_TABLE, read_events, "t", "global_id"),
    "truth_observations": Spec(
        pl.TRUTH_OBS, TRUTH_OBS_TABLE, read_truth_obs, None, "vehicle_id"
    ),
    "truth_tracks": Spec(
        pl.TRUTH_TRACKS, TRUTH_TRACKS_TABLE, read_truth_tracks, "spawn_t", "lane"
    ),
    "truth_handovers": Spec(
        pl.TRUTH_HANDOVERS, TRUTH_HANDOVERS_TABLE, read_truth_handovers, "t_exit", "to_camera"
    ),
}


@pytest.fixture(scope="module")
def two_car_dir(tmp_path_factory):
    """All six tables of a two-car run, each with at least two data rows."""
    cfg = ScenarioConfig(
        duration_s=40.0,
        flow_east_vpm=0.0,
        scripted_vehicles=(
            ScriptedVehicle(spawn_t=0.0, speed_kmh=54.0),
            ScriptedVehicle(spawn_t=5.0, speed_kmh=50.0),
        ),
    )
    out = tmp_path_factory.mktemp("two_cars")
    pl.run_to_dir(cfg, 7, out)
    return out


def _set_cell(lines, column, value, row=1):
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


# (id, what the table needs, mutation of the file's lines, message fragment,
#  reported line or None)
CORRUPTIONS = [
    ("swapped", "key", lambda ls, s: [ls[0], ls[2], ls[1], *ls[3:]], "not sorted", 3),
    ("duplicated", "key", lambda ls, s: [ls[0], ls[1], *ls[1:]], "not sorted", 3),
    ("zebra", "float", lambda ls, s: _set_cell(ls, s.float_col, "zebra"), "bad number", 2),
    ("nan", "float", lambda ls, s: _set_cell(ls, s.float_col, "nan"), "bad number", 2),
    ("inf", "float", lambda ls, s: _set_cell(ls, s.float_col, "inf"), "bad number", 2),
    ("-inf", "float", lambda ls, s: _set_cell(ls, s.float_col, "-inf", 2), "bad number", 3),
    ("1e400", "float", lambda ls, s: _set_cell(ls, s.float_col, "1e400"), "bad number", 2),
    ("NA", "float", lambda ls, s: _set_cell(ls, s.float_col, "NA"), "bad number", 2),
    ("half", "int", lambda ls, s: _set_cell(ls, s.int_col, "1.5"), "bad integer", 2),
    ("fields", "", lambda ls, s: [ls[0], ls[1].rsplit(",", 1)[0], *ls[2:]], "fields", 2),
    ("header", "", lambda ls, s: ["a,b", *ls[1:]], "bad header", 1),
    ("empty", "", lambda ls, s: [], "empty", None),
    # a lone surrogate is written as the single byte 0xff
    ("not-utf8", "", lambda ls, s: _set_cell(ls, s.int_col, "\udcff", 2), "not UTF-8", 3),
]


def _cases():
    for table, spec in TABLES.items():
        for case, needs, mutate, fragment, line in CORRUPTIONS:
            if (needs == "key" and not spec.table.key) or (needs == "float" and not spec.float_col):
                continue
            yield pytest.param(table, mutate, fragment, line, id=f"{table}-{case}")


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n" if lines else ""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


class TestEveryTable:
    @pytest.mark.parametrize("table,mutate,fragment,line", list(_cases()))
    def test_reader_rejects_corruption(self, two_car_dir, tmp_path, table, mutate, fragment, line):
        spec = TABLES[table]
        lines = (two_car_dir / spec.file).read_text().splitlines()
        assert len(lines) >= 3
        bad = tmp_path / spec.file
        _write_lines(bad, mutate(lines, spec))
        with pytest.raises(MalformedInputError, match=fragment) as ei:
            list(spec.read(bad))
        where = f"{bad}:{line}:" if line is not None else f"{bad}:"
        assert str(ei.value).startswith(where), str(ei.value)

    def test_duplicated_trajectory_row_with_another_gid(self, two_car_dir, tmp_path):
        lines = (two_car_dir / pl.TRAJECTORIES).read_text().splitlines()
        other = _set_cell(lines, "global_id", "999")[1]
        bad = tmp_path / pl.TRAJECTORIES
        _write_lines(bad, [lines[0], lines[1], other, *lines[2:]])
        with pytest.raises(MalformedInputError, match=f"{bad}:3: rows not sorted"):
            list(read_trajectories(bad))

    @pytest.mark.parametrize(
        "nan_row,swap_at,line",
        [(4, 1, 3), (1, 3, 2)],
        ids=["order-fault-first", "bad-cell-first"],
    )
    def test_the_first_faulty_line_is_reported(
        self, two_car_dir, tmp_path, nan_row, swap_at, line
    ):
        lines = (two_car_dir / pl.OBSERVATIONS).read_text().splitlines()
        lines = _set_cell(lines, "x_m", "nan", row=nan_row)
        lines[swap_at], lines[swap_at + 1] = lines[swap_at + 1], lines[swap_at]
        bad = tmp_path / pl.OBSERVATIONS
        _write_lines(bad, lines)
        with pytest.raises(MalformedInputError, match=f"{bad}:{line}: "):
            list(read_observations(bad))

    def test_events_keep_engine_order(self, two_car_dir, tmp_path):
        lines = (two_car_dir / pl.EVENTS).read_text().splitlines()
        swapped = tmp_path / pl.EVENTS
        _write_lines(swapped, [lines[0], lines[2], lines[1], *lines[3:]])
        rows = list(read_events(two_car_dir / pl.EVENTS))
        assert list(read_events(swapped)) == [rows[1], rows[0], *rows[2:]]

    @pytest.mark.parametrize("table", list(TABLES))
    def test_write_read_write_is_byte_identical(self, two_car_dir, tmp_path, table):
        spec = TABLES[table]
        again = tmp_path / spec.file
        rows = list(spec.read(two_car_dir / spec.file))
        assert write_table(again, spec.table, rows) == len(rows) >= 2
        assert again.read_bytes() == (two_car_dir / spec.file).read_bytes()

    @pytest.mark.parametrize("table", [t for t, spec in TABLES.items() if spec.table.key])
    def test_rows_out_of_key_order_are_written_sorted(self, two_car_dir, tmp_path, table):
        spec = TABLES[table]
        rows = list(spec.read(two_car_dir / spec.file))
        random.Random(5).shuffle(rows)
        again = tmp_path / spec.file
        assert write_table(again, spec.table, rows) == len(rows)
        assert again.read_bytes() == (two_car_dir / spec.file).read_bytes()

    def test_a_lone_float_column_is_checked_too(self, tmp_path):
        class Reading(NamedTuple):
            n: int
            x: float

        table = Table(Reading, key=("n",))
        path = tmp_path / "readings.csv"
        assert write_table(path, table, [Reading(2, 0.5), Reading(1, -3.0)]) == 2
        assert list(read_table(path, table)) == [Reading(1, -3.0), Reading(2, 0.5)]
        _write_lines(path, ["n,x", "1,0.5", "2,nan"])
        with pytest.raises(MalformedInputError, match=f"{path}:3: bad number 'nan' in column x"):
            list(read_table(path, table))


class TestLineSplitting:
    """The streaming reader numbers lines as ``str.splitlines`` numbers the
    whole decoded file, whatever the size of the blocks it decodes."""

    @pytest.fixture(autouse=True, params=[1, 100, None], ids=["line", "100B", "default"])
    def block_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(formats, "_BLOCK_BYTES", request.param)

    def lines(self, two_car_dir):
        return (two_car_dir / pl.OBSERVATIONS).read_text().splitlines()

    def test_crlf_reads_as_lf(self, two_car_dir, tmp_path):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes("\r\n".join(self.lines(two_car_dir)).encode() + b"\r\n")
        assert list(read_observations(crlf)) == list(read_observations(two_car_dir / pl.OBSERVATIONS))

    def test_a_line_separator_in_a_cell_splits_the_line(self, two_car_dir, tmp_path):
        lines = self.lines(two_car_dir)
        lines[1] += "\u2028"  # a line break after row 1: line 3 is blank
        lines = _set_cell(lines, "x_m", "1.5\u20282.5", row=2)  # row 2 ends after 1.5
        text = "\n".join(lines) + "\n"
        bad = tmp_path / pl.OBSERVATIONS
        bad.write_text(text, encoding="utf-8")
        assert text.splitlines().index(lines[2].split("\u2028")[0]) + 1 == 4
        with pytest.raises(MalformedInputError, match=f"{bad}:4: expected 8 fields, got 7"):
            list(read_observations(bad))

    def test_blank_lines_are_skipped_but_counted(self, two_car_dir, tmp_path):
        lines = self.lines(two_car_dir)
        spaced = tmp_path / "spaced.csv"
        _write_lines(spaced, [lines[0], "", lines[1], "", "", *lines[2:], ""])
        assert list(read_observations(spaced)) == list(read_observations(two_car_dir / pl.OBSERVATIONS))
        _write_lines(spaced, [lines[0], "", "", _set_cell(lines, "x_m", "nan")[1], *lines[2:]])
        with pytest.raises(MalformedInputError, match=f"{spaced}:4: bad number 'nan'"):
            list(read_observations(spaced))

    def test_a_utf8_fault_names_the_byte_offset_in_the_file(self, two_car_dir, tmp_path):
        lines = _set_cell(self.lines(two_car_dir), "y_px", "\udcff", row=3)
        bad = tmp_path / pl.OBSERVATIONS
        _write_lines(bad, lines)
        at = bad.read_bytes().index(b"\xff")
        assert at > len(lines[0]) + len(lines[1]) + len(lines[2])
        with pytest.raises(MalformedInputError) as ei:
            list(read_observations(bad))
        assert str(ei.value) == f"{bad}:4: not UTF-8 (invalid start byte at byte {at})"

    @pytest.mark.parametrize("nan_row,utf8_row,line,fragment", [
        (1, 3, 2, "bad number 'nan'"), (3, 1, 2, "not UTF-8"),
    ], ids=["bad-cell-first", "utf8-first"])
    def test_the_first_faulty_line_wins_over_a_utf8_fault(
        self, two_car_dir, tmp_path, nan_row, utf8_row, line, fragment
    ):
        lines = _set_cell(self.lines(two_car_dir), "x_m", "nan", row=nan_row)
        lines = _set_cell(lines, "y_px", "\udcff", row=utf8_row)
        bad = tmp_path / pl.OBSERVATIONS
        _write_lines(bad, lines)
        with pytest.raises(MalformedInputError, match=f"{bad}:{line}: {fragment}"):
            list(read_observations(bad))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


CELLS = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400", "NA", "", " ",
        "1_0", "0x1f", "+7", "-0", "1.5", "\u0661\u0662", "9" * 5000, "\udcff", "\u2028",
        "moving", "upper", "matched",
    ]),
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
)


class TestReaderFuzz:
    @pytest.mark.parametrize("table", list(TABLES))
    @given(data=st.data())
    def test_one_replaced_cell_gives_rows_or_malformed_input(
        self, two_car_dir, fuzz_dir, table, data
    ):
        spec = TABLES[table]
        lines = (two_car_dir / spec.file).read_text().splitlines()[:12]
        row = data.draw(st.integers(1, len(lines) - 1), label="row")
        column = data.draw(st.sampled_from(spec.table.header), label="column")
        path = fuzz_dir / spec.file
        _write_lines(path, _set_cell(lines, column, data.draw(CELLS, label="cell"), row))
        try:
            rows = list(spec.read(path))
        except MalformedInputError:
            return
        for r in rows:
            values = r if isinstance(r, tuple) else dataclasses.astuple(r)
            assert all(math.isfinite(v) for v in values if isinstance(v, float))
