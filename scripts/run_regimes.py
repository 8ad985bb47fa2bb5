#!/usr/bin/env python3
"""Run every bundled scenario fixture end to end and print a results table.

Usage::

    python scripts/run_regimes.py [--seed N] [--fixtures DIR] [--out report.json]

This is the quickest smoke check of the full pipeline (simulate,
synchronize, stitch, score) on the noise-free fixtures. All but one score
perfect identity continuity. ``congestion-stop`` reads HOSR 0.5 and IDF1
0.669 at seed 7 by design: its stopped vehicle outlasts the buffer timeout,
so its id expires and a fresh one is minted. That is the TTL-expiry case of
acceptance criterion 4, which criterion 1's perfect-score check leaves out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from camchain.formats import load_json, scenario_from_dict
from camchain.pipeline import run_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--fixtures", type=Path, default=REPO / "fixtures")
    ap.add_argument("--out", type=Path, help="also dump the table as JSON")
    args = ap.parse_args(argv)

    rows = []
    for path in sorted(args.fixtures.glob("scenario_*.json")):
        cfg = scenario_from_dict(load_json(path))
        t0 = time.perf_counter()
        sim, stitch, report = run_scenario(cfg, args.seed)
        wall = time.perf_counter() - t0
        rows.append(
            {
                "scenario": cfg.name,
                "regime": cfg.regime.value,
                "vehicles": len(sim.truth_tracks),
                "hosr": report["hosr"]["value"],
                "handovers": report["hosr"]["total"],
                "idf1": report["idf1"]["value"],
                "id_switches": report["id_switches"],
                "wall_s": round(wall, 3),
            }
        )

    if not rows:
        print(f"no scenario_*.json under {args.fixtures}", file=sys.stderr)
        return 1

    hdr = f"{'scenario':<18} {'regime':<14} {'veh':>4} {'handovers':>9} {'hosr':>6} {'idf1':>6} {'sw':>3} {'wall':>7}"
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        hosr = "n/a" if r["hosr"] is None else f"{r['hosr']:.4f}"
        print(
            f"{r['scenario']:<18} {r['regime']:<14} {r['vehicles']:>4} "
            f"{r['handovers']:>9} {hosr:>6} {r['idf1']:>6.4f} "
            f"{r['id_switches']:>3} {r['wall_s']:>6.2f}s"
        )
    if args.out:
        args.out.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
