"""Pinned output digests: the artifacts of ``run_to_dir`` byte for byte.

Refactors and speed-ups of the simulator and the stitch path must leave
every observation, matching decision, event and output byte unchanged.
These digests were recorded before the engine's output record became one
flat row per observation, and the simulator entries before its per-frame
selection and record building were reworked, so any change to
``observations.csv``, ``truth_observations.csv``, ``trajectories.csv``,
``events.csv`` or ``report.json`` shows here. A change that alters outputs
on purpose records new digests and says why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from camchain import MatcherConfig, NoiseConfig, run_to_dir
from camchain.formats import load_json, scenario_from_dict
from camchain.pipeline import EVENTS, OBSERVATIONS, REPORT, TRAJECTORIES, TRUTH_OBS

GOLDEN = {
    "freeflow": {
        OBSERVATIONS: "2a24da491432cbfae45bf5c2f058f0ea522fa8e1b1c97f4c582a28f3dadf4346",
        TRUTH_OBS: "6d9268176d065f0881285ea1a291bef8212b75efba57ccc97dc598b6a04a4b0d",
        TRAJECTORIES: "513786015ae3b70423a7f0e0e5fcac99b90558a4f12b09a1a7192ce13fc72fad",
        EVENTS: "69df55471ea3be40dd3ebb52871110fb65ec62d8e5518fd4a23133220e9d2fb5",
        REPORT: "58ea95ff05bb9a660bd5f0cf6df16ee1282f054c824890b33b97a04d96391614",
    },
    "freeflow-noisy": {
        OBSERVATIONS: "9600058487043c8b8819e9547f36aea9b2b378be2ba3c995fcf038974a66dcba",
        TRUTH_OBS: "bb058c4f316a423ef0edf6b7e4f9a52c9b1e088314f3a74ff8e885112bcb2e43",
        TRAJECTORIES: "3bb3005e52dd1003939350504f6947b8678df4f9357785a790f060491210d51b",
        EVENTS: "cd8191ebc2db9316eaa0617c7f4f400bec5aff1b34f556f2e08014895bcb2d47",
        REPORT: "2d9b3fbbcce2ad6f714bc33a63210cf78dd9b4ee59997df8fd48e6fb33309f10",
    },
    # the same run with the position gate on: it changes decisions (more
    # expiries, fewer switches), so a gate reading the wrong field shows here
    "freeflow-noisy-eps-dist": {
        OBSERVATIONS: "9600058487043c8b8819e9547f36aea9b2b378be2ba3c995fcf038974a66dcba",
        TRUTH_OBS: "bb058c4f316a423ef0edf6b7e4f9a52c9b1e088314f3a74ff8e885112bcb2e43",
        TRAJECTORIES: "8b7dd6fb371a770bb35281c389c0b714f868d5beb97cb9b7bd1dd06b5c2d90e6",
        EVENTS: "a8b858942a3f62157ef3529bfe1465d13fe7d69930072b3084e575c15c2bcb4e",
        REPORT: "6c8c6ff982021a462e1b06565a616b1b91f4149bcd8ecc4649bb807eeaf365b2",
    },
    "freeflow-drift": {
        OBSERVATIONS: "eb1ec26fba184d6d49ba413fb72284831cdeb5b9ae33c925050380104aceef88",
        TRUTH_OBS: "082a059e10e3153c218b44995863b816f5ddac8aa5baad96051c6833a8a01643",
        TRAJECTORIES: "c6ac5f2973d31cb377691c97df53fbc2e607766b92da9f869075a73b646ead2f",
        EVENTS: "504b5f21da7c796e018442938108c10dcbae37cf6929f5cd2b382e89c4f07568",
        REPORT: "61bc76ad2a46b86ac4985c8cec9fd7053ac3aa169fd5d21dab72b1ae9c86182a",
    },
    "congestion": {
        OBSERVATIONS: "3f93346364282e7d4852298147f2d2912fd00662bab3b4d24c4c2e51bdac8f2c",
        TRUTH_OBS: "31af60f3a283c9e85f165b9aae9f2cb4ebb2db931533f0e3cd9da801d7ce4788",
        TRAJECTORIES: "77dece54dd7395ecda51fbf9d4f8fea5822ce6f655f26f74141cf45e15d5104b",
        EVENTS: "c59edb78769961365193e86d4e0492fd8af86d0d4d4778215cdea41885862cce",
        REPORT: "2eb3020d953ab4431451c60f9b6189b54ba8fbcac78cc63e15d46e4e50af5f0b",
    },
    "merge": {
        OBSERVATIONS: "227cc8129619869a376998c3defb67ac00f52e3caba3317077bf94b4bf89bb90",
        TRUTH_OBS: "a8bd6f6884ed44e024fb895555e707396e6267a9c4aaeccefbcb2b14198139e7",
        TRAJECTORIES: "8381e95e3dcf5a13c595f751b173f1f79af09496a66d8105125565a2d5508d4f",
        EVENTS: "16e36e455e5353daa33be5f23f0aaa3fe6068df6afa71101464f6ea3c2096784",
        REPORT: "0d33d682c57d8706c16908982026ea0689632b9b53960bc7c05ea41248e53e1b",
    },
    "overtaking": {
        OBSERVATIONS: "408e03a2a34a8dcfe034764cae330a9fd6a69445b67a799cdfb8a55ca8f6c2b6",
        TRUTH_OBS: "429bbce879a7fc48b8e2db4d0f3eedde63420ac90ba11bae6e3885f0185cf626",
        TRAJECTORIES: "c28aad49003949837c2eee253b31f2d3969c66e889e4e593ab25766f1adf1a3c",
        EVENTS: "a19ab4ca27a7547649c8d100822cc62c90f373953768149989f93392bba39068",
        REPORT: "90da0581287cbc5f7cbff0cb24d82435365554137c6bb45efbb6344cd8c60435",
    },
}


def _config(fixtures_dir, name):
    fixture = "freeflow" if name.startswith("freeflow") else name
    cfg = scenario_from_dict(load_json(fixtures_dir / f"scenario_{fixture}.json"))
    if name.startswith("freeflow-noisy"):
        cfg = replace(
            cfg,
            noise=NoiseConfig(dropout_rate=0.01, pos_sigma_px=2.0, sync_jitter_frames=5),
        )
    elif name == "freeflow-drift":
        cfg = replace(cfg, drift_amplitude_m=15.0)
    return cfg


MATCHERS = {"freeflow-noisy-eps-dist": MatcherConfig(eps_dist=2.0)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_to_dir_outputs_are_pinned(name, fixtures_dir, tmp_path):
    run_to_dir(_config(fixtures_dir, name), 7, tmp_path, MATCHERS.get(name))
    digests = {
        f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
