"""Pinned output digests: the artifacts of ``run_to_dir`` byte for byte.

Refactors and speed-ups of the stitch path must leave every matching
decision, event and output byte unchanged. These digests were recorded
before the engine's output record became one flat row per observation, so
any change to ``trajectories.csv``, ``events.csv`` or ``report.json`` shows
here. A change that alters outputs on purpose records new digests and says
why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from camchain import NoiseConfig, run_to_dir
from camchain.formats import load_json, scenario_from_dict
from camchain.pipeline import EVENTS, REPORT, TRAJECTORIES

GOLDEN = {
    "freeflow": {
        TRAJECTORIES: "513786015ae3b70423a7f0e0e5fcac99b90558a4f12b09a1a7192ce13fc72fad",
        EVENTS: "69df55471ea3be40dd3ebb52871110fb65ec62d8e5518fd4a23133220e9d2fb5",
        REPORT: "58ea95ff05bb9a660bd5f0cf6df16ee1282f054c824890b33b97a04d96391614",
    },
    "freeflow-noisy": {
        TRAJECTORIES: "3bb3005e52dd1003939350504f6947b8678df4f9357785a790f060491210d51b",
        EVENTS: "cd8191ebc2db9316eaa0617c7f4f400bec5aff1b34f556f2e08014895bcb2d47",
        REPORT: "2d9b3fbbcce2ad6f714bc33a63210cf78dd9b4ee59997df8fd48e6fb33309f10",
    },
}


def _config(fixtures_dir, name):
    cfg = scenario_from_dict(load_json(fixtures_dir / "scenario_freeflow.json"))
    if name == "freeflow-noisy":
        cfg = replace(
            cfg,
            noise=NoiseConfig(dropout_rate=0.01, pos_sigma_px=2.0, sync_jitter_frames=5),
        )
    return cfg


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_to_dir_outputs_are_pinned(name, fixtures_dir, tmp_path):
    run_to_dir(_config(fixtures_dir, name), 7, tmp_path)
    digests = {
        f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
