import math

import pytest
from hypothesis import given, strategies as st

from camchain.metrics import (
    HandoverScore,
    IdScore,
    compute_hosr,
    compute_idf1,
    count_id_switches,
    gid_index,
    summarize_throughput,
)
from camchain.simulator import TrueHandover, TruthObs
from camchain.tracks import GlobalTrajectory, TrajRow
from helpers import idf1_oracle


def one_track(n=10, vid=1, cam=1, lid=1):
    return [TruthObs(f, cam, lid, vid) for f in range(n)]


def instance(weights, unlabeled=()):
    """Observations whose overlap counts are ``weights[(vehicle_id, gid)]``.

    Each vehicle in ``unlabeled`` also gets one observation the engine never
    labeled.
    """
    truth, gids = [], {}
    for (vid, gid), w in sorted(weights.items()):
        for _ in range(w):
            gids[(len(truth), 1, 1)] = gid
            truth.append(TruthObs(len(truth), 1, 1, vid))
    truth += [TruthObs(len(truth) + k, 1, 1, vid) for k, vid in enumerate(unlabeled)]
    return truth, gids


@st.composite
def overlap_instances(draw):
    """Up to 6 vehicles x 7 gids, overlaps from 1 to 1,000 observations.

    Each id falls in one of up to three blocks and overlaps only fall inside
    a block, so an instance can hold several connected components, some of
    them a single vehicle or gid.
    """
    n_vid = draw(st.integers(1, 6))
    n_gid = draw(st.integers(1, 7))
    blocks = st.integers(0, draw(st.integers(0, 2)))
    vid_block = draw(st.lists(blocks, min_size=n_vid, max_size=n_vid))
    gid_block = draw(st.lists(blocks, min_size=n_gid, max_size=n_gid))
    weights = {}
    for v in range(n_vid):
        for g in range(n_gid):
            if vid_block[v] == gid_block[g]:
                w = draw(st.one_of(st.just(0), st.integers(1, 1000)))
                if w:
                    weights[(1 + v, 101 + g)] = w
    unlabeled = draw(st.lists(st.integers(1, n_vid), max_size=3))
    return instance(weights, unlabeled)


class TestIdf1:
    def test_six_four_split_scores_point_six(self):
        truth = one_track(10)
        gids = {(f, 1, 1): (1 if f < 6 else 2) for f in range(10)}
        score = compute_idf1(truth, gids)
        assert (score.idtp, score.idfp, score.idfn) == (6, 4, 4)
        assert score.idf1 == 0.6

    def test_permanent_swap_is_perfect(self):
        truth = one_track(10, vid=1, lid=1) + one_track(10, vid=2, lid=2)
        gids = {(f, 1, 1): 2 for f in range(10)}
        gids.update({(f, 1, 2): 1 for f in range(10)})
        score = compute_idf1(truth, gids)
        assert score.idf1 == 1.0
        assert count_id_switches(truth, gids) == 0

    def test_mid_run_swap_scores_half(self):
        truth = one_track(10, vid=1, lid=1) + one_track(10, vid=2, lid=2)
        gids = {}
        for f in range(10):
            a, b = (1, 2) if f < 5 else (2, 1)
            gids[(f, 1, 1)] = a
            gids[(f, 1, 2)] = b
        score = compute_idf1(truth, gids)
        assert score.idf1 == 0.5
        assert count_id_switches(truth, gids) == 2

    def test_unlabeled_observations_are_misses_not_errors(self):
        truth = one_track(10)
        gids = {(f, 1, 1): 1 for f in range(5)}  # second half never stitched
        score = compute_idf1(truth, gids)
        assert (score.idtp, score.idfp, score.idfn) == (5, 0, 5)
        assert score.idf1 == 2 * 5 / (2 * 5 + 0 + 5)

    def test_empty_denominator_is_none_not_one(self):
        assert compute_idf1([], {}).idf1 is None
        assert IdScore(0, 0, 0).idf1 is None
        assert IdScore(0, 3, 0).idf1 == 0.0

    @given(overlap_instances())
    def test_matches_brute_force_on_random_instances(self, case):
        truth, gids = case
        score = compute_idf1(truth, gids)
        idtp, idf1 = idf1_oracle(truth, gids)
        assert score.idtp == idtp
        assert score.idf1 == idf1

    @pytest.mark.parametrize(
        "weights, idtp",
        [
            # taking the heaviest edge first, 1-101 (10), leaves vehicle 2
            # unpaired; 1-102 + 2-101 is 17
            ({(1, 101): 10, (1, 102): 9, (2, 101): 8}, 17),
            # pairing all three (1-103, 2-101, 3-102) scores 9; the best,
            # 1-102 + 2-103, leaves vehicle 3 and id 101 unpaired
            ({(1, 102): 7, (1, 103): 5, (2, 101): 2, (2, 103): 3, (3, 102): 2}, 10),
        ],
    )
    def test_hand_instances(self, weights, idtp):
        truth, gids = instance(weights)
        assert compute_idf1(truth, gids).idtp == idtp == idf1_oracle(truth, gids)[0]


class TestSwitches:
    def test_each_label_change_counts_once(self):
        truth = one_track(9)
        gids = {(f, 1, 1): g for f, g in enumerate([1, 1, 2, 2, 2, 1, 1, 3, 3])}
        assert count_id_switches(truth, gids) == 3

    def test_unlabeled_frames_are_skipped(self):
        truth = one_track(3)
        assert count_id_switches(truth, {(0, 1, 1): 5, (2, 1, 1): 5}) == 0
        assert count_id_switches(truth, {(0, 1, 1): 5, (2, 1, 1): 6}) == 1

    def test_lowest_camera_is_canonical(self):
        # both cameras see every frame; camera 2 flaps but never counts
        truth = []
        gids = {}
        for f in range(4):
            truth.append(TruthObs(f, 1, 1, 7))
            truth.append(TruthObs(f, 2, 9, 7))
            gids[(f, 1, 1)] = 42
            gids[(f, 2, 9)] = 42 + f
        assert count_id_switches(truth, gids) == 0

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=30), st.randoms())
    def test_observation_order_is_irrelevant(self, labels, rnd):
        truth = one_track(len(labels))
        gids = {(f, 1, 1): g for f, g in enumerate(labels)}
        base = count_id_switches(truth, gids)
        shuffled = list(truth)
        rnd.shuffle(shuffled)
        assert count_id_switches(shuffled, gids) == base
        expected = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert base == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(1, 2), st.integers(1, 3)),
            min_size=0,
            max_size=25,
        ),
        st.permutations([101, 102, 103, 104]),
    )
    def test_idf1_invariant_under_gid_relabeling(self, obs, perm):
        truth = [
            TruthObs(f, cam, vid, vid) for f, cam, vid in dict.fromkeys(obs)
        ]
        gids = {
            (o.frame_index, o.camera_id, o.local_id): 101 + (o.vehicle_id + o.frame_index) % 4
            for o in truth
            if o.frame_index % 3
        }
        relabel = dict(zip([101, 102, 103, 104], perm))
        remapped = {k: relabel[g] for k, g in gids.items()}
        a = compute_idf1(truth, gids)
        b = compute_idf1(truth, remapped)
        assert (a.idtp, a.idfp, a.idfn) == (b.idtp, b.idfp, b.idfn)


class TestHosr:
    def crossings(self, n=10, broken=()):
        truth = []
        gids = {}
        hops = []
        for v in range(1, n + 1):
            for f in range(5):
                truth.append(TruthObs(f, 1, v, v))
                gids[(f, 1, v)] = v
            for f in range(5, 10):
                truth.append(TruthObs(f, 2, v, v))
                gids[(f, 2, v)] = 100 + v if v in broken else v
            hops.append(TrueHandover(v, 1, 2, t_exit=0.4, t_enter=0.5))
        return truth, gids, hops

    def test_nine_of_ten_transitions_keep_their_id(self):
        truth, gids, hops = self.crossings(broken={7})
        score = compute_hosr(hops, truth, gids)
        assert (score.total, score.matched) == (10, 9)
        assert score.value == 0.9

    def test_perfect_and_zero(self):
        truth, gids, hops = self.crossings()
        assert compute_hosr(hops, truth, gids).value == 1.0
        truth, gids, hops = self.crossings(broken=set(range(1, 11)))
        assert compute_hosr(hops, truth, gids).value == 0.0

    def test_endpoints_are_last_out_first_in(self):
        # stray middle frames carry wrong labels; only the boundary ones count
        truth = [TruthObs(f, 1, 1, 1) for f in range(5)]
        truth += [TruthObs(f, 2, 1, 1) for f in range(5, 10)]
        gids = {(f, 1, 1): 1 for f in range(5)}
        gids.update({(f, 2, 1): 1 for f in range(5, 10)})
        gids[(2, 1, 1)] = 55
        gids[(7, 2, 1)] = 66
        hop = TrueHandover(1, 1, 2, t_exit=0.4, t_enter=0.5)
        assert compute_hosr([hop], truth, gids).value == 1.0

    def test_unobserved_or_unlabeled_side_fails(self):
        truth = [TruthObs(f, 1, 1, 1) for f in range(5)]
        gids = {(f, 1, 1): 1 for f in range(5)}
        hop = TrueHandover(1, 1, 2, t_exit=0.4, t_enter=0.5)
        assert compute_hosr([hop], truth, gids).value == 0.0
        truth += [TruthObs(f, 2, 1, 1) for f in range(5, 10)]
        assert compute_hosr([hop], truth, gids).value == 0.0  # downstream unlabeled

    def test_no_transitions_is_none(self):
        assert compute_hosr([], [], {}).value is None
        assert HandoverScore(0, 0).value is None
        assert HandoverScore(4, 0).value == 0.0


class TestGidIndex:
    def test_uses_rounded_frame_numbers(self):
        # each row's t rounds to another frame; the stored frame_index wins
        def row(gid, frame, cam, lid, t):
            return TrajRow(gid, frame, cam, lid, t, 0.0, -2.0, None, None, None)

        traj = GlobalTrajectory(
            global_id=9, states=[row(9, 3, 1, 4, 0.7), row(9, 5, 2, 6, 0.1)]
        )
        other = GlobalTrajectory(global_id=11, states=[row(11, 3, 1, 5, 0.44)])
        idx = gid_index([traj, other], frame_rate=10.0)
        assert idx == {(3, 1, 4): 9, (5, 2, 6): 9, (3, 1, 5): 11}


class TestThroughput:
    def test_empty_run_is_flagged_and_finite(self):
        rep = summarize_throughput([], 10.0, [])
        assert rep["empty"] is True
        assert rep["snapshots_per_s"] == 0.0
        assert rep["realtime_factor"] == 0.0
        assert rep["latency_ms"]["max"] == 0.0
        assert rep["buffer_occupancy"] == {"mean": 0.0, "peak": 0}

    def test_rates_and_percentiles(self):
        rep = summarize_throughput([0.01] * 4, 10.0, [1, 2, 3, 2])
        assert rep["empty"] is False
        assert rep["snapshots"] == 4
        assert math.isclose(rep["wall_s"], 0.04)
        assert math.isclose(rep["snapshots_per_s"], 100.0)
        assert math.isclose(rep["realtime_factor"], 10.0)
        lat = rep["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert math.isclose(lat["mean"], 10.0)
        assert rep["buffer_occupancy"]["peak"] == 3
        assert math.isclose(rep["buffer_occupancy"]["mean"], 2.0)

    def test_percentiles_interpolate_linearly(self):
        # sorted ms: 1 2 3 4 5 8 12; percentile q sits at index q/100 * 6,
        # between the two values around it
        rep = summarize_throughput(
            [0.003, 0.001, 0.012, 0.002, 0.005, 0.004, 0.008], 10.0, [0, 3, 1, 4, 1, 5, 7]
        )
        expected = {
            "mean": 35 / 7,
            "p50": 4.0,  # index 3
            "p95": 8.0 + 0.7 * (12.0 - 8.0),  # index 5.7
            "p99": 8.0 + 0.94 * (12.0 - 8.0),  # index 5.94
            "max": 12.0,
        }
        lat = rep["latency_ms"]
        assert lat.keys() == expected.keys()
        for key, want in expected.items():
            assert math.isclose(lat[key], want, rel_tol=1e-12), key
        assert rep["buffer_occupancy"] == {"mean": 3.0, "peak": 7}
