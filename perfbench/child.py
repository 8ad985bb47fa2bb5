"""One job of the benchmark in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

``run.py`` starts one of these per job and waits for it. Jobs:

* ``setup``: import the package, build the workload's scenario and
  topology, print ``ready``;
* ``iteration``: run one iteration (traced when ``trace`` is set) and print
  its result as one JSON line;
* ``cross_path``: run the cross-path check and print its result.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def pin_to_one_cpu() -> None:
    """Run on the highest-numbered CPU this process may use.

    On the 2-vCPU VM the benchmark was built on, CPU 0 takes the device
    interrupts: unpinned sparse-files iterations that landed there had a
    frame p99 about 30% higher on half of them, while CPU 1 gave steady
    figures. Pinning also stops migrations in the middle of a stage.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def iteration(spec: dict) -> dict:
    import workloads

    w, cfg, _ = workloads.setup(spec["workload"], spec["duration_s"])
    workdir = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(workloads.traced_targets())
        with tracer:
            it = workloads.run_iteration(w, cfg, spec["seed"], workdir, tracer)
    else:
        it = workloads.run_iteration(w, cfg, spec["seed"], workdir, keep_digests=spec["digests"])
    ms = it.frame_ms()
    out = {
        "seed": it.seed,
        "traced": bool(spec["trace"]),
        "failures": it.failures,
        "wall_s": it.wall_s,
        "simulate_s": it.simulate_s,
        "stitch_s": it.stitch_s,
        "evaluate_s": it.evaluate_s,
        "replay_s": it.replay_s,
        "observations": it.observations,
        "stitch_obs_per_s": it.obs_per_s,
        "frame_p50_ms": workloads.quantile(ms, 0.50),
        "frame_p99_ms": workloads.quantile(ms, 0.99),
        "frame_max_ms": max(ms),
        "peak_rss_mb": it.peak_rss_mb,
        **it.summary,
        "digests": it.digests,
    }
    if tracer is not None:
        import layers

        out["layer"] = layers.layer_metrics(it, tracer)
        out["untraced_targets"] = tracer.missing
        if spec.get("spans"):
            tracer.write(Path(spec["spans"]))
    return out


def main() -> int:
    pin_to_one_cpu()
    spec = json.loads(sys.argv[1])
    job = spec["job"]
    import workloads  # after pinning: the set-up probe times this import

    if job == "setup":
        workloads.setup(spec["workload"], spec["duration_s"])
        print("ready", flush=True)
    elif job == "cross_path":
        result = workloads.cross_path_check(spec["seed"], Path(spec["workdir"]))
        print(json.dumps(result))
    elif job == "iteration":
        print(json.dumps(iteration(spec)))
    else:
        print(f"error: unknown job {job!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
