#!/usr/bin/env python3
"""Peak memory and speed of the file path on dense corridor directories.

Usage::

    python scripts/file_path_memory.py [--durations 60,120,240] [--seed 12]

For each duration this simulates a directory shaped like the benchmark's
``dense-online`` workload (ROADMAP B10: 10 cameras, 2+2 lanes, 40+40
vehicles per minute, noise-free) into a temporary directory. It then runs
``stitch_dir`` and ``evaluate_dir`` on it, each in a fresh Python process,
and prints for each the peak RSS of that process (the interpreter and its
imports included), the wall time of the call and the observations per
second. Every stage runs in its own process, so no stage inherits another's
peak. The exit code is 1 if any stage fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10  # bytes, else KiB


def run_stage(stage: str, directory: str, duration_s: float, seed: int) -> dict:
    """One stage in this process; what the parent prints about it."""
    sys.path.insert(0, str(REPO / "src"))
    from camchain import pipeline
    from camchain.simulator import ScenarioConfig

    if stage == "simulate":
        cfg = ScenarioConfig(
            name="dense-online", n_cameras=10, lanes_per_dir=2,
            flow_east_vpm=40.0, flow_west_vpm=40.0, duration_s=duration_s,
        )
        pipeline.simulate_to_dir(cfg, seed, directory)
        return {}
    t0 = time.perf_counter()
    if stage == "stitch":
        stitch = pipeline.stitch_dir(directory)
        wall_s, rss = time.perf_counter() - t0, peak_rss_mb()
        observations = sum(len(t.states) for t in stitch.engine.trajectories.values())
    else:
        report = pipeline.evaluate_dir(directory)
        wall_s, rss = time.perf_counter() - t0, peak_rss_mb()
        observations = report["observations"]
    return {"wall_s": wall_s, "peak_rss_mb": rss, "observations": observations}


def in_fresh_process(stage: str, directory: str, duration_s: float, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--stage", stage, "--dir", directory,
         "--durations", str(duration_s), "--seed", str(seed)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{stage} at {duration_s:g} s failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--durations", default="60,120,240",
                    help="comma-separated run lengths in seconds")
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--stage", choices=["simulate", "stitch", "evaluate"],
                    help=argparse.SUPPRESS)  # one stage, in a process of its own
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    durations = [float(tok) for tok in args.durations.split(",") if tok.strip()]

    if args.stage is not None:
        print(json.dumps(run_stage(args.stage, args.dir, durations[0], args.seed)))
        return 0

    print(f"{'run':>6} {'stage':<8} {'observations':>12} {'peak_rss_mb':>11} "
          f"{'wall_s':>7} {'obs_per_s':>10}")
    try:
        for duration_s in durations:
            with tempfile.TemporaryDirectory(prefix="file-path-memory-") as d:
                in_fresh_process("simulate", d, duration_s, args.seed)
                for stage in ("stitch", "evaluate"):
                    r = in_fresh_process(stage, d, duration_s, args.seed)
                    print(f"{duration_s:>5g}s {stage:<8} {r['observations']:>12,} "
                          f"{r['peak_rss_mb']:>11.1f} {r['wall_s']:>7.2f} "
                          f"{r['observations'] / r['wall_s']:>10,.0f}", flush=True)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
