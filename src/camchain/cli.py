"""Command line interface.

Subcommands::

    simulate   generate a scenario's observation and truth files
    stitch     turn observations.csv into global trajectories.csv + events.csv
    evaluate   score trajectories.csv against the truth tables
    run        simulate + stitch + evaluate in one go
    bench      timed stitching run, writes bench_report.json

Exit codes: 0 success, 1 internal error, 2 usage error, 3 unparseable
input file, 4 invalid configuration or semantics, 5 malformed or
out-of-order data, 6 missing file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    CamchainError,
    CausalityError,
    ConfigError,
    GeometryError,
    MalformedInputError,
    ParseError,
)
from .formats import load_json, parse_topology, scenario_from_dict
from .handover import MatcherConfig, MatchStrategy
from .pipeline import (
    bench_scenario,
    evaluate_dir,
    run_to_dir,
    simulate_to_dir,
    stitch_observations,
)
from .simulator import NoiseConfig, Regime, ScenarioConfig

_EXIT_CODES = """\
exit codes:
  0  success
  1  internal error
  2  usage error
  3  unparseable input file (bad JSON syntax)
  4  invalid configuration or semantics
  5  malformed or out-of-order data
  6  missing input file
"""


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    p.add_argument(
        "--regime", choices=[r.value for r in Regime], help="override traffic regime"
    )
    p.add_argument("--name", help="override scenario name")
    p.add_argument("--duration", type=float, metavar="S", help="override duration")
    p.add_argument(
        "--drift", type=float, metavar="M",
        help="calibration drift amplitude in meters",
    )
    p.add_argument("--dropout", type=float, metavar="P", help="detection dropout rate")
    p.add_argument(
        "--pos-noise", type=float, metavar="PX", help="pixel position noise sigma"
    )
    p.add_argument(
        "--jitter", type=int, metavar="FRAMES", help="max delivery jitter in frames"
    )


def _add_matcher_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy", choices=[s.value for s in MatchStrategy],
        help="buffer match strategy (default: lateral-aware)",
    )
    p.add_argument(
        "--dt-window", type=float, metavar="S", help="max entry age that can match"
    )
    p.add_argument("--eps-lat", type=float, metavar="F", help="lateral residual gate")
    p.add_argument("--ttl", type=float, metavar="S", help="buffer entry timeout")
    p.add_argument(
        "--eps-dist", type=float, metavar="M", help="optional position gate in meters"
    )
    p.add_argument(
        "--max-lag", type=int, metavar="FRAMES",
        help="release frames without cameras lagging more than this",
    )


def _build_scenario(args) -> ScenarioConfig:
    if args.scenario:
        cfg = scenario_from_dict(load_json(args.scenario))
    else:
        cfg = ScenarioConfig()
    over = {}
    if args.regime is not None:
        over["regime"] = Regime(args.regime)
    if args.name is not None:
        over["name"] = args.name
    if args.duration is not None:
        over["duration_s"] = args.duration
    if args.drift is not None:
        over["drift_amplitude_m"] = args.drift
    noise_over = {}
    if args.dropout is not None:
        noise_over["dropout_rate"] = args.dropout
    if getattr(args, "pos_noise", None) is not None:
        noise_over["pos_sigma_px"] = args.pos_noise
    if args.jitter is not None:
        noise_over["sync_jitter_frames"] = args.jitter
    if noise_over:
        over["noise"] = dataclasses.replace(cfg.noise, **noise_over)
    return dataclasses.replace(cfg, **over) if over else cfg


def _build_matcher(args, base: MatcherConfig | None = None) -> MatcherConfig:
    kw = {}
    if args.strategy is not None:
        kw["strategy"] = MatchStrategy(args.strategy)
    if args.dt_window is not None:
        kw["dt_window"] = args.dt_window
    if args.eps_lat is not None:
        kw["eps_lat"] = args.eps_lat
    if args.ttl is not None:
        kw["eps_time"] = args.ttl
    if args.eps_dist is not None:
        kw["eps_dist"] = args.eps_dist
    if base is not None:
        return dataclasses.replace(base, **kw) if kw else base
    return MatcherConfig(**kw)


def _cmd_simulate(args) -> int:
    cfg = _build_scenario(args)
    sim = simulate_to_dir(cfg, args.seed, args.out_dir)
    print(
        f"simulated {cfg.name!r}: {sim.frame_count} frames, "
        f"{len(sim.truth_tracks)} vehicles, {len(sim.truth_obs)} observations "
        f"-> {args.out_dir}"
    )
    return 0


def _cmd_stitch(args) -> int:
    topo_path = args.topology if args.topology is not None else (
        Path(args.in_dir) / "topology.json"
    )
    topology, file_matcher = parse_topology(topo_path)
    stitch = stitch_observations(
        args.in_dir,
        topology,
        _build_matcher(args, file_matcher),
        out_dir=args.out_dir,
        max_lag=args.max_lag,
    )
    out = args.out_dir if args.out_dir else args.in_dir
    print(
        f"stitched {stitch.snapshots} snapshots: "
        f"{len(stitch.engine.trajectories)} trajectories, "
        f"{len(stitch.events)} events -> {out}"
    )
    return 0


def _print_report(report: dict) -> None:
    hosr = report["hosr"]["value"]
    idf1 = report["idf1"]["value"]
    print(
        f"hosr={'NA' if hosr is None else f'{hosr:.4f}'} "
        f"({report['hosr']['matched']}/{report['hosr']['total']}) "
        f"idf1={'NA' if idf1 is None else f'{idf1:.4f}'} "
        f"id_switches={report['id_switches']}"
    )


def _cmd_evaluate(args) -> int:
    report = evaluate_dir(args.in_dir, args.out_dir)
    _print_report(report)
    return 0


def _cmd_run(args) -> int:
    cfg = _build_scenario(args)
    report = run_to_dir(
        cfg, args.seed, args.out_dir,
        matcher=_build_matcher(args), max_lag=args.max_lag,
    )
    _print_report(report)
    return 0


def _cmd_bench(args) -> int:
    cfg = _build_scenario(args)
    bench = bench_scenario(
        cfg, args.seed, matcher=_build_matcher(args), out_dir=args.out_dir,
        max_lag=args.max_lag,
    )
    tp = bench["throughput"]
    print(
        f"{tp['snapshots']} snapshots in {tp['wall_s']:.3f}s = "
        f"{tp['snapshots_per_s']:.1f}/s "
        f"({tp['realtime_factor']:.1f}x realtime), "
        f"p99 latency {tp['latency_ms']['p99']:.3f}ms"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camchain",
        description="Topology-aware multi-camera trajectory stitching toolkit.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_, epilog=_EXIT_CODES,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate, "generate observation and truth files")
    _add_scenario_flags(p)
    p.add_argument("--seed", type=int, required=True, help="simulation seed")
    p.add_argument("--out-dir", required=True, metavar="DIR")

    p = add("stitch", _cmd_stitch, "stitch observations into global trajectories")
    p.add_argument("--in-dir", required=True, metavar="DIR",
                   help="directory with observations.csv, topology.json, meta.json")
    p.add_argument("--topology", metavar="PATH", help="topology JSON override")
    p.add_argument("--out-dir", metavar="DIR", help="output directory (default: --in-dir)")
    _add_matcher_flags(p)

    p = add("evaluate", _cmd_evaluate, "score trajectories against truth")
    p.add_argument("--in-dir", required=True, metavar="DIR",
                   help="directory with trajectories.csv and truth tables")
    p.add_argument("--out-dir", metavar="DIR", help="where report.json goes")

    p = add("run", _cmd_run, "simulate + stitch + evaluate")
    _add_scenario_flags(p)
    _add_matcher_flags(p)
    p.add_argument("--seed", type=int, required=True, help="simulation seed")
    p.add_argument("--out-dir", required=True, metavar="DIR")

    p = add("bench", _cmd_bench, "timed stitching run")
    _add_scenario_flags(p)
    _add_matcher_flags(p)
    p.add_argument("--seed", type=int, required=True, help="simulation seed")
    p.add_argument("--out-dir", metavar="DIR", help="where bench_report.json goes")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (MalformedInputError, CausalityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return 6
    except CamchainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
