"""camchain benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-online --seed 1 --seconds 30 --trace 0

Every measured iteration is one fresh single-threaded process
(``child.py``) that builds its inputs from a seed it is given; this process
only starts them one after another, waits for each and aggregates. Until
``--seconds`` have passed, iteration ``i`` runs on the seed
``workloads.iteration_seed(seed, i)``, and the run reports medians over
iterations. With ``--trace 1`` each iteration runs twice on the same seed,
untraced and then traced, and the run reports the per-layer metrics of the
traced runs and the tracing overhead. Set-up is timed in at least five
more fresh processes spread over the run, and every run checks once that
the in-memory and the file path write the same artifacts. The last line of
standard output is the result as JSON; the full record goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a child still running this long after the start is killed

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "stitch_obs_per_s": "obs/s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "hosr": "ratio",
    "idf1": "ratio",
}


def _argv(spec: dict) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]


def _timeout(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def run_child(spec: dict, deadline: float):
    """Run one job in a fresh process; its result, or None when it failed."""
    try:
        p = subprocess.run(_argv(spec), cwd=ROOT, capture_output=True, text=True,
                           timeout=_timeout(deadline))
    except subprocess.TimeoutExpired:
        print(f"error: {spec['job']} job timed out: {spec}", file=sys.stderr)
        return None
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        print(f"error: {spec['job']} job exited with {p.returncode}: {spec}", file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, duration_s, deadline: float) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload's scenario and topology."""
    spec = {"job": "setup", "workload": workload, "duration_s": duration_s}
    t0 = time.perf_counter()
    p = subprocess.Popen(_argv(spec), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
        p.wait(timeout=_timeout(deadline))
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {p.returncode}")
    return t1 - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--duration-s", type=float, default=None,
                    help="override the workload's simulated duration (e.g. 300 for ROADMAP B10)")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "camchain" / "__init__.py").is_file():
        print(f"error: no camchain package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"workload": args.workload, "duration_s": args.duration_s, "workdir": str(workdir)}

    setup_s, plain, layer_rows, records = [], [], [], []
    attempted = failed = 0
    untraced_targets: list[str] = []

    def attempt(spec):
        """One iteration; its result, failed checks included, or None if it crashed."""
        nonlocal attempted, failed
        attempted += 1
        res = run_child({**base, "job": "iteration", **spec}, deadline)
        if res is None or res["failures"]:
            failed += 1
        if res is not None:
            records.append(res)
            for f in res["failures"]:
                print(f"check failed (seed {res['seed']}): {f}", file=sys.stderr)
        return res

    try:
        t_start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t_start < args.seconds:
            # Set-up probes are spread over the run, so a burst of load on
            # the machine moves one of them and not the median.
            setup_s.append(setup_probe(args.workload, args.duration_s, deadline))
            seed = workloads.iteration_seed(args.seed, i)
            it = attempt({"seed": seed, "trace": False, "digests": i == 0})
            if it is not None:
                plain.append(it)
                if args.trace:
                    spans = OUT / f"{tag}-spans.json" if not layer_rows else None
                    traced = attempt({"seed": seed, "trace": True, "digests": False,
                                      "spans": spans and str(spans)})
                    if traced is not None:
                        row = traced["layer"]
                        row["trace.overhead_s"] = traced["wall_s"] - it["wall_s"]
                        row["trace.overhead_share"] = row["trace.overhead_s"] / it["wall_s"]
                        layer_rows.append(row)
                        untraced_targets = traced["untraced_targets"]
            i += 1
        while len(setup_s) < SETUP_PROBES:
            setup_s.append(setup_probe(args.workload, args.duration_s, deadline))

        attempted += 1
        cross = run_child({"job": "cross_path", "seed": args.seed,
                           "workdir": str(workdir / "cross-path")}, deadline)
        if cross is None or not cross["identical"]:
            failed += 1
            print(f"check failed: cross-path artifacts differ: {cross}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain or (args.trace and not layer_rows):
        print("error: every iteration crashed", file=sys.stderr)
        return 1
    med = statistics.median
    if args.trace:
        values = {k: med(r[k] for r in layer_rows) for k in layers.PER_LAYER}
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = {"setup_s": med(setup_s)}
        values.update({k: med(r[k] for r in plain) for k in END_TO_END if k != "setup_s"})
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "scenario": {"duration_s": args.duration_s or w.config.duration_s,
                     "cameras": w.config.n_cameras, "path": w.path},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_probes_s": setup_s,
        "cross_path": cross,
        "untraced_targets": untraced_targets,
        "iterations": records,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    first = plain[0]
    print(f"{w.name} seed {args.seed}: {len(plain)} iterations of "
          f"{record['scenario']['duration_s']:g} s simulated, {first['frames']} frames each; "
          f"events {first['events']}; barrier {first['barrier']}; "
          f"cross-path identical: {bool(cross and cross['identical'])}")
    for k, v in metrics.items():
        print(f"  {k:34s} {v['value']:>14.6g} {v['unit']}")
    if not args.trace:
        # 0 on noise-free workloads, so a per-layer metric (quality.id_switches); shown here too
        print(f"  {'id_switches':34s} {med(r['id_switches'] for r in plain):>14.6g} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
