#!/usr/bin/env python3
"""Run each benchmark workload once, briefly, and check its outputs.

Usage::

    python scripts/bench_smoke.py

For every workload and for seed 12 and the held-out seed 20260, this runs
``perfbench/run.py --seed <seed> --seconds 1 --trace 0`` and fails unless
the run reports ``correct: true`` and ``failed: 0``, the in-memory and the
file path wrote identical artifacts, and the digests of iteration 0 equal
the ones recorded for that seed in ``perfbench/baseline.json``. A change
that alters ``trajectories.csv``, ``events.csv`` or ``report.json`` fails
here, as does one that breaks a workload. Timings are not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense-online", "noisy-online", "sparse-files")
SEEDS = (12, 20260)  # the tuning seed and the held-out one


def check(workload: str, seed: int, baseline: dict) -> list[str]:
    """What is wrong with one smoke run of ``workload``; empty when nothing is."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    faults = []
    if result["correct"] is not True or result["failed"] != 0:
        faults.append(f"correct={result['correct']}, failed={result['failed']}")
    record = json.loads(
        (REPO / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    if not (record["cross_path"] or {}).get("identical"):
        faults.append("in-memory and file path artifacts differ")
    first = next(r for r in record["iterations"] if r["seed"] == seed and r["digests"])
    want = baseline["seed_runs"][str(seed)][workload]["iteration0"]["digests"]
    for name, digest in sorted(want.items()):
        if first["digests"].get(name) != digest:
            faults.append(f"{name} digest {first['digests'].get(name)} != baseline {digest}")
    return faults


def main() -> int:
    baseline = json.loads((REPO / "perfbench" / "baseline.json").read_text())
    bad = 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            faults = check(workload, seed, baseline)
            print(f"{workload} seed {seed}: {'ok' if not faults else 'FAILED'}")
            for f in faults:
                print(f"  {f}")
            bad += bool(faults)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
