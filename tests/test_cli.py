import copy
import gc
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from camchain import cli
from camchain import formats as fmt
from camchain import pipeline as pl
from camchain.errors import MalformedInputError
from camchain.formats import load_json, scenario_from_dict, scenario_to_dict, topology_to_dict
from camchain.handover import MatcherConfig, MatchStrategy
from camchain.simulator import build_topology
from test_formats import BAD_SCENARIOS


def run_cli(*argv):
    return cli.main(list(argv))


class TestHelpAndUsage:
    def test_help_lists_subcommands_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as ei:
            run_cli("--help")
        assert ei.value.code == 0
        out = capsys.readouterr().out
        for word in ("simulate", "stitch", "evaluate", "run", "bench", "exit codes"):
            assert word in out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            run_cli()
        assert ei.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            run_cli("run", "--seed", "1", "--out-dir", "x", "--telepathy")
        assert ei.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--seed", "1", "--out-dir", "x"),
            ("stitch", "--in-dir", "x"),
            ("run", "--seed", "1", "--out-dir", "x"),
        ],
        ids=["simulate", "stitch", "run"],
    )
    def test_format_option_is_gone(self, argv):
        with pytest.raises(SystemExit) as ei:
            run_cli(*argv, "--format", "csv")
        assert ei.value.code == 2

    def test_bad_strategy_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            run_cli("run", "--seed", "1", "--out-dir", "x", "--strategy", "psychic")
        assert ei.value.code == 2

    def test_direction_gate_flag_is_gone(self):
        with pytest.raises(SystemExit) as ei:
            run_cli("run", "--seed", "1", "--out-dir", "x", "--gamma-dir", "0.5")
        assert ei.value.code == 2


class TestFullChain:
    def test_simulate_stitch_evaluate(self, tmp_path, fixtures_dir, capsys):
        d = str(tmp_path / "work")
        assert run_cli(
            "simulate",
            "--scenario", str(fixtures_dir / "scenario_freeflow.json"),
            "--duration", "30",
            "--seed", "5",
            "--out-dir", d,
        ) == 0
        assert run_cli("stitch", "--in-dir", d) == 0
        assert run_cli("evaluate", "--in-dir", d) == 0
        out = capsys.readouterr().out
        assert "hosr=" in out and "idf1=" in out and "id_switches=" in out
        report = load_json(tmp_path / "work" / pl.REPORT)
        assert report["hosr"]["value"] == 1.0

    def test_run_matches_staged_chain(self, tmp_path, fixtures_dir):
        staged = tmp_path / "staged"
        oneshot = tmp_path / "oneshot"
        scenario = str(fixtures_dir / "scenario_freeflow.json")
        for args in (
            ("simulate", "--scenario", scenario, "--duration", "30", "--seed", "5",
             "--out-dir", str(staged)),
            ("stitch", "--in-dir", str(staged)),
            ("evaluate", "--in-dir", str(staged)),
            ("run", "--scenario", scenario, "--duration", "30", "--seed", "5",
             "--out-dir", str(oneshot)),
        ):
            assert run_cli(*args) == 0
        for name in (pl.TRAJECTORIES, pl.EVENTS, pl.REPORT):
            assert (staged / name).read_bytes() == (oneshot / name).read_bytes()

    def test_matcher_flags_reach_the_engine(self, tmp_path, fixtures_dir, capsys):
        d = str(tmp_path / "fifo")
        code = run_cli(
            "run",
            "--scenario", str(fixtures_dir / "scenario_overtaking.json"),
            "--duration", "60",
            "--strategy", "strict-fifo",
            "--seed", "3",
            "--out-dir", d,
        )
        assert code == 0
        topo = load_json(tmp_path / "fifo" / pl.TOPOLOGY)
        assert topo["matcher"]["strategy"] == "strict-fifo"

    @pytest.mark.parametrize(
        "flags", [(), ("--ttl", "40"), ("--topology", "TOPOLOGY", "--strategy", "strict-fifo")],
        ids=["file-matcher", "flag", "override-and-flag"],
    )
    def test_stitch_parses_the_topology_and_builds_the_matcher_once(
        self, tmp_path, monkeypatch, single_vehicle_run, flags
    ):
        src, _, _ = single_vehicle_run  # its topology.json has a matcher section
        calls = {"parse_topology": 0, "matcher_from_dict": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        parse = spy("parse_topology", fmt.parse_topology)
        for module in (fmt, cli, pl):
            monkeypatch.setattr(module, "parse_topology", parse)
        build = spy("matcher_from_dict", fmt.matcher_from_dict)
        monkeypatch.setattr(fmt, "matcher_from_dict", build)
        flags = [str(src / pl.TOPOLOGY) if f == "TOPOLOGY" else f for f in flags]
        out = tmp_path / "out"
        assert run_cli("stitch", "--in-dir", str(src), "--out-dir", str(out), *flags) == 0
        assert calls == {"parse_topology": 1, "matcher_from_dict": 1}
        expected = tmp_path / "expected"
        file_matcher = fmt.parse_topology(src / pl.TOPOLOGY)[1]
        overrides = {
            "--ttl": ("eps_time", 40.0),
            "--strategy": ("strategy", MatchStrategy.STRICT_FIFO),
        }
        kw = dict(overrides[f] for f in flags if f in overrides)
        pl.stitch_dir(src, expected, matcher=replace(file_matcher, **kw))
        for name in (pl.TRAJECTORIES, pl.EVENTS):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_bench_prints_throughput_and_writes_report(self, tmp_path, fixtures_dir, capsys):
        d = tmp_path / "bench"
        code = run_cli(
            "bench",
            "--scenario", str(fixtures_dir / "scenario_freeflow.json"),
            "--duration", "20",
            "--seed", "5",
            "--out-dir", str(d),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshots in" in out and "realtime" in out
        rep = load_json(d / pl.BENCH_REPORT)
        assert rep["throughput"]["snapshots"] == 200

    def test_bench_honours_max_lag(self, tmp_path, fixtures_dir):
        d = tmp_path / "bench"
        scenario = fixtures_dir / "scenario_freeflow.json"
        assert run_cli(
            "bench", "--scenario", str(scenario), "--duration", "10",
            "--jitter", "5", "--max-lag", "0", "--seed", "5", "--out-dir", str(d),
        ) == 0
        rep = load_json(d / pl.BENCH_REPORT)
        assert rep["barrier"]["dropped_late"] > 0
        cfg = scenario_from_dict(load_json(scenario))
        cfg = replace(cfg, duration_s=10.0, noise=replace(cfg.noise, sync_jitter_frames=5))
        _, stitch, _ = pl.run_scenario(cfg, 5, max_lag=0)
        assert rep["barrier"] == stitch.barrier_stats


class TestExitCodes:
    def simulate_small(self, tmp_path, fixtures_dir):
        d = str(tmp_path / "data")
        assert run_cli(
            "simulate",
            "--scenario", str(fixtures_dir / "scenario_freeflow.json"),
            "--duration", "10",
            "--seed", "2",
            "--out-dir", d,
        ) == 0
        return tmp_path / "data"

    def test_bad_json_syntax_is_3(self, tmp_path, fixtures_dir, capsys):
        d = self.simulate_small(tmp_path, fixtures_dir)
        (d / pl.TOPOLOGY).write_text("{not json\n")
        assert run_cli("stitch", "--in-dir", str(d)) == 3
        assert "error:" in capsys.readouterr().err

    def test_semantic_config_errors_are_4(self, tmp_path, fixtures_dir, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({"durationn_s": 10}))
        assert run_cli(
            "run", "--scenario", str(bad), "--seed", "1",
            "--out-dir", str(tmp_path / "o1"),
        ) == 4
        assert run_cli(
            "run", "--dropout", "1.5", "--seed", "1",
            "--out-dir", str(tmp_path / "o2"),
        ) == 4
        # buffer timeout below the match window is contradictory
        assert run_cli(
            "run", "--ttl", "2", "--seed", "1",
            "--out-dir", str(tmp_path / "o3"),
        ) == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 3

    def test_removed_direction_gate_key_is_4(self, tmp_path, fixtures_dir, capsys):
        d = self.simulate_small(tmp_path, fixtures_dir)
        topo = load_json(d / pl.TOPOLOGY)
        topo["matcher"] = {"eps_dist": None, "gamma_dir": None}  # as earlier versions wrote
        (d / pl.TOPOLOGY).write_text(json.dumps(topo))
        assert run_cli("stitch", "--in-dir", str(d)) == 4
        err = capsys.readouterr().err
        assert "topology.matcher" in err and "gamma_dir" in err

    def test_geometry_errors_are_4(self, tmp_path, fixtures_dir):
        d = self.simulate_small(tmp_path, fixtures_dir)
        topo = load_json(d / pl.TOPOLOGY)
        for cam in topo["cameras"]:
            cam["fov"] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]  # collinear
        (d / pl.TOPOLOGY).write_text(json.dumps(topo))
        assert run_cli("stitch", "--in-dir", str(d)) == 4

    def test_malformed_data_is_5(self, tmp_path, fixtures_dir):
        d = self.simulate_small(tmp_path, fixtures_dir)
        lines = (d / pl.OBSERVATIONS).read_text().splitlines()
        assert len(lines) > 3
        lines[1], lines[2] = lines[2], lines[1]
        (d / pl.OBSERVATIONS).write_text("\n".join(lines) + "\n")
        assert run_cli("stitch", "--in-dir", str(d)) == 5

    @pytest.mark.parametrize(
        "command,name,column,value",
        [
            ("stitch", pl.OBSERVATIONS, "x_m", "nan"),
            ("stitch", pl.OBSERVATIONS, "y_px", "\udcff"),  # written as byte 0xff
            ("evaluate", pl.EVENTS, "age", "inf"),
            ("evaluate", pl.TRAJECTORIES, None, None),  # a duplicated row, another gid
        ],
        ids=["nan", "not-utf8", "inf", "duplicate-row"],
    )
    def test_reader_faults_are_5(
        self, tmp_path, fixtures_dir, capsys, command, name, column, value
    ):
        d = self.simulate_small(tmp_path, fixtures_dir)
        assert run_cli("stitch", "--in-dir", str(d)) == 0
        lines = (d / name).read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        if column is None:
            cells[header.index("global_id")] = "999"
            lines.insert(2, ",".join(cells))
        else:
            cells[header.index(column)] = value
            lines[1] = ",".join(cells)
        (d / name).write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        assert run_cli(command, "--in-dir", str(d)) == 5
        assert f"{name}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,name,call",
        [
            ("stitch", pl.OBSERVATIONS, pl.stitch_dir),
            ("evaluate", pl.TRAJECTORIES, pl.evaluate_dir),
        ],
        ids=["stitch", "evaluate"],
    )
    def test_a_malformed_last_row_is_5_and_writes_nothing(
        self, tmp_path, fixtures_dir, capsys, command, name, call
    ):
        d = self.simulate_small(tmp_path, fixtures_dir)
        assert run_cli("stitch", "--in-dir", str(d)) == 0
        lines = (d / name).read_text().splitlines()
        cells = lines[-1].split(",")
        cells[lines[0].split(",").index("x_m")] = "east"
        lines[-1] = ",".join(cells)
        (d / name).write_text("\n".join(lines) + "\n")
        where = f"{d / name}:{len(lines)}: "
        out = tmp_path / "out"
        with pytest.raises(MalformedInputError, match=re.escape(where)):
            call(d, out)
        assert gc.isenabled()
        assert run_cli(command, "--in-dir", str(d), "--out-dir", str(out)) == 5
        assert where in capsys.readouterr().err
        assert gc.isenabled()
        assert not (out / pl.TRAJECTORIES).exists()
        assert not (out / pl.REPORT).exists()

    @pytest.mark.parametrize(
        "key,value", [("frame_rate", 0.0), ("frame_count", -1)], ids=["rate", "count"]
    )
    def test_meta_out_of_range_is_4(self, tmp_path, fixtures_dir, capsys, key, value):
        d = self.simulate_small(tmp_path, fixtures_dir)
        meta = load_json(d / pl.META)
        meta[key] = value
        (d / pl.META).write_text(json.dumps(meta))
        assert run_cli("stitch", "--in-dir", str(d)) == 4
        assert f"meta.{key}" in capsys.readouterr().err

    def test_duration_off_the_frame_count_is_4(self, tmp_path, fixtures_dir, capsys):
        d = self.simulate_small(tmp_path, fixtures_dir)
        meta = load_json(d / pl.META)
        frame_s = 1.0 / meta["frame_rate"]
        meta["duration_s"] += 0.4 * frame_s  # within half a frame: still valid
        (d / pl.META).write_text(json.dumps(meta))
        assert run_cli("stitch", "--in-dir", str(d)) == 0
        meta["duration_s"] += 1.6 * frame_s  # two frames off in all
        (d / pl.META).write_text(json.dumps(meta))
        assert run_cli("stitch", "--in-dir", str(d)) == 4
        assert "meta.duration_s" in capsys.readouterr().err

    def test_frame_dt_off_the_frame_rate_is_4(self, tmp_path, fixtures_dir, capsys):
        d = self.simulate_small(tmp_path, fixtures_dir)
        topo = load_json(d / pl.TOPOLOGY)
        topo["cameras"][1]["frame_dt"] = 1.5  # 10 fps data
        (d / pl.TOPOLOGY).write_text(json.dumps(topo))
        assert run_cli("stitch", "--in-dir", str(d)) == 4
        assert "topology.cameras[1].frame_dt" in capsys.readouterr().err
        assert not (d / pl.TRAJECTORIES).exists()

    @pytest.mark.parametrize("value", [-1, 0, 99])
    def test_n_cameras_off_the_topology_is_4(self, tmp_path, fixtures_dir, capsys, value):
        d = self.simulate_small(tmp_path, fixtures_dir)
        meta = load_json(d / pl.META)
        meta["n_cameras"] = value
        (d / pl.META).write_text(json.dumps(meta))
        assert run_cli("stitch", "--in-dir", str(d)) == 4
        assert "meta.n_cameras" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column,value,fault",
        [
            ("frame_index", "100000", "frame outside"),
            ("camera_id", "99", "unknown camera"),
            ("t", "999.000000", "t=999.0"),
        ],
        ids=["frame", "camera", "time"],
    )
    def test_grid_faults_name_file_and_row_5(
        self, tmp_path, fixtures_dir, capsys, column, value, fault
    ):
        d = self.simulate_small(tmp_path, fixtures_dir)
        lines = (d / pl.OBSERVATIONS).read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[-1].split(",")  # the last row, so the key order survives
        cells[header.index(column)] = value
        lines[-1] = ",".join(cells)
        (d / pl.OBSERVATIONS).write_text("\n".join(lines) + "\n")
        assert run_cli("stitch", "--in-dir", str(d)) == 5
        err = capsys.readouterr().err
        frame, cam, local = cells[:3]
        assert f"{pl.OBSERVATIONS}:{len(lines)}: " in err
        assert f"frame_index={frame}, camera_id={cam}, local_id={local}" in err
        assert fault in err

    @pytest.mark.parametrize(
        "column,value",
        [("x_m", "nan"), ("local_id", "1.5"), ("frame_index", "100000"), ("camera_id", "99")],
        ids=["reader-number", "reader-integer", "grid-frame", "grid-camera"],
    )
    def test_a_stitch_fault_names_its_file_and_line_once(
        self, tmp_path, fixtures_dir, capsys, column, value
    ):
        d = self.simulate_small(tmp_path, fixtures_dir)
        lines = (d / pl.OBSERVATIONS).read_text().splitlines()
        row = len(lines) - 1  # the last row, so the key order survives
        lines = lines[:row] + [",".join(
            value if name == column else cell
            for name, cell in zip(lines[0].split(","), lines[row].split(","))
        )]
        (d / pl.OBSERVATIONS).write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedInputError) as ei:
            pl.stitch_dir(d)
        assert str(ei.value).startswith(f"{d / pl.OBSERVATIONS}:{len(lines)}: ")
        assert str(ei.value).count(pl.OBSERVATIONS) == 1
        assert run_cli("stitch", "--in-dir", str(d)) == 5
        assert capsys.readouterr().err.count(pl.OBSERVATIONS) == 1

    @pytest.mark.parametrize("bad", list(BAD_SCENARIOS.values()), ids=list(BAD_SCENARIOS))
    def test_mistyped_scenario_scalars_are_4(self, tmp_path, bad):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(bad))  # NaN and Infinity as JSON spells them
        assert run_cli(
            "simulate", "--scenario", str(scenario), "--seed", "1",
            "--out-dir", str(tmp_path / "out"),
        ) == 4

    def test_missing_inputs_are_6(self, tmp_path, fixtures_dir):
        assert run_cli("stitch", "--in-dir", str(tmp_path / "void")) == 6
        assert run_cli(
            "run", "--scenario", str(tmp_path / "ghost.json"),
            "--seed", "1", "--out-dir", str(tmp_path / "o"),
        ) == 6
        d = self.simulate_small(tmp_path, fixtures_dir)
        (d / pl.OBSERVATIONS).unlink()
        assert run_cli("stitch", "--in-dir", str(d)) == 6


# -- one JSON scalar replaced, end to end ---------------------------------------

# No large positive numbers: a large frame_count or duration_s legitimately
# allocates that many frames or runs that long.
JSON_VALUES = [math.nan, math.inf, -1, 0, 1.5, True, None, "x", []]

_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
_SMALL = replace(
    scenario_from_dict(load_json(_FIXTURES / "scenario_freeflow.json")), duration_s=10.0
)
_TOPOLOGY = topology_to_dict(build_topology(_SMALL), MatcherConfig())
_SCENARIO = {
    **scenario_to_dict(_SMALL),
    "duration_s": 4.0,
    "scripted_vehicles": [{"spawn_t": 0.0, "speed_kmh": 54.0, "lane": 0, "direction": 1}],
    "wave_zone": [100.0, 200.0],
    "wave_windows": [[1.0, 2.0]],
}


def _leaves(obj, path=()):
    """Path of every scalar, empty list and empty object inside ``obj``."""
    if isinstance(obj, dict) and obj:
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path


def _replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


_LEAVES = {
    pl.META: [(k,) for k in ("duration_s", "frame_count", "frame_rate", "n_cameras", "name", "seed")],
    pl.TOPOLOGY: list(_leaves(_TOPOLOGY)),
    pl.SCENARIO: list(_leaves(_SCENARIO)),
}
_TARGETS = st.sampled_from(sorted(_LEAVES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_LEAVES[name]))
)


@pytest.fixture(scope="module")
def json_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("json_fuzz")
    pl.simulate_to_dir(_SMALL, 2, root / "base")
    return root, load_json(root / "base" / pl.META)


class TestJsonFuzz:
    @given(target=_TARGETS, value=st.sampled_from(JSON_VALUES))
    @example(target=(pl.META, ("frame_rate",)), value=0)
    def test_one_replaced_scalar_exits_with_a_documented_code(
        self, json_fuzz_dir, target, value
    ):
        """meta.json or topology.json then stitch, or a scenario then simulate."""
        root, meta = json_fuzz_dir
        docs = {pl.META: meta, pl.TOPOLOGY: _TOPOLOGY, pl.SCENARIO: _SCENARIO}
        name, path = target
        docs[name] = _replaced(docs[name], path, value)
        if name == pl.SCENARIO:
            (root / pl.SCENARIO).write_text(json.dumps(docs[name]))
            argv = ("simulate", "--scenario", str(root / pl.SCENARIO), "--seed", "2",
                    "--out-dir", str(root / "sim"))
        else:
            for f in (pl.META, pl.TOPOLOGY):
                (root / "base" / f).write_text(json.dumps(docs[f]))
            argv = ("stitch", "--in-dir", str(root / "base"), "--out-dir", str(root / "out"))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli(*argv)
        assert code in (0, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
