import random
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camchain.errors import CamchainError, CausalityError, ConfigError, MalformedInputError
from camchain.formats import frames_from_rows
from camchain.sync import BarrierConfig, BarrierStats, Snapshot, StreamUpdate, SyncBarrier
from helpers import ts


def upd(cam, frame, n_tracks=0, fps=10.0):
    t = round(frame / fps, 6)
    tracks = tuple(ts(cam, lid + 1, t, float(frame + lid), -2.0) for lid in range(n_tracks))
    return StreamUpdate(camera_id=cam, frame_index=frame, t=t, tracks=tracks)


def barrier(cams=(1, 2), max_lag=None):
    return SyncBarrier(BarrierConfig(camera_ids=frozenset(cams), max_lag=max_lag))


class TestStreamUpdate:
    def test_track_camera_must_match(self):
        with pytest.raises(MalformedInputError, match="camera"):
            StreamUpdate(camera_id=1, frame_index=0, t=0.0, tracks=(ts(2, 1, 0.0, 0, 0),))

    def test_track_time_must_match(self):
        with pytest.raises(MalformedInputError, match="time"):
            StreamUpdate(camera_id=1, frame_index=0, t=0.0, tracks=(ts(1, 1, 0.5, 0, 0),))

    def test_track_frame_must_match(self):
        track = ts(1, 1, 0.5, 0, 0)._replace(frame_index=4)
        with pytest.raises(MalformedInputError, match="track frame 4 inside update for frame 5"):
            StreamUpdate(camera_id=1, frame_index=5, t=0.5, tracks=(track,))


class TestBarrierConfig:
    def test_needs_a_camera(self):
        with pytest.raises(ConfigError):
            BarrierConfig(camera_ids=frozenset())

    def test_negative_max_lag(self):
        with pytest.raises(ConfigError):
            BarrierConfig(camera_ids=frozenset({1}), max_lag=-1)


class TestStrictRelease:
    def test_waits_for_all_cameras(self):
        b = barrier()
        b.ingest(upd(1, 0, n_tracks=2))
        assert b.try_release() is None
        b.ingest(upd(2, 0, n_tracks=1))
        snap = b.try_release()
        assert snap is not None
        assert snap.frame_index == 0
        assert snap.t == 0.0
        assert len(snap.per_camera[1]) == 2
        assert len(snap.per_camera[2]) == 1
        assert snap.stalled == frozenset()
        assert b.try_release() is None

    def test_camera_that_skipped_a_frame_releases_it_empty(self):
        b = barrier()
        b.ingest(upd(1, 0))
        b.ingest(upd(1, 1))
        b.ingest(upd(2, 1))  # camera 2 never produced frame 0
        snap = b.try_release()
        assert snap.frame_index == 0
        assert snap.per_camera[2] == ()
        assert snap.stalled == frozenset()  # moved past, not stalled
        assert b.try_release().frame_index == 1

    def test_time_disagreement_rejected(self):
        b = barrier()
        b.ingest(upd(1, 0))
        b.ingest(StreamUpdate(camera_id=2, frame_index=0, t=0.05))
        with pytest.raises(MalformedInputError, match="disagree"):
            b.try_release()


class TestIngestValidation:
    def test_unregistered_camera(self):
        with pytest.raises(ConfigError, match="not registered"):
            barrier().ingest(upd(3, 0))

    def test_negative_frame(self):
        with pytest.raises(MalformedInputError, match="negative"):
            barrier().ingest(upd(1, -1))

    def test_per_camera_monotonicity(self):
        b = barrier()
        b.ingest(upd(1, 5))
        with pytest.raises(CausalityError):
            b.ingest(upd(1, 5))
        with pytest.raises(CausalityError):
            b.ingest(upd(1, 4))


class TestMaxLag:
    def test_lag_trace(self):
        """Fast camera at 10, slow at 2, max_lag 5: frames 3 and 4 go out
        stalled, frame 5 is exactly at the limit and waits."""
        b = barrier(max_lag=5)
        for f in range(11):
            b.ingest(upd(1, f))
        for f in range(3):
            b.ingest(upd(2, f))
        released = b.drain()
        assert [s.frame_index for s in released] == [0, 1, 2, 3, 4]
        assert [sorted(s.stalled) for s in released] == [[], [], [], [2], [2]]
        assert released[3].per_camera[2] == ()
        assert b.try_release() is None
        assert b.pending_count == 6  # camera 1 frames 5..10 still parked
        # the slow camera catching up unblocks frame 5 the normal way
        b.ingest(upd(2, 5, n_tracks=1))
        snap = b.try_release()
        assert snap.frame_index == 5
        assert snap.stalled == frozenset()
        assert len(snap.per_camera[2]) == 1

    def test_late_delivery_after_forced_release_is_dropped(self):
        b = barrier(max_lag=1)
        for f in range(4):
            b.ingest(upd(1, f))
        released = b.drain()  # frames 0 and 1 forced out without camera 2
        assert [s.frame_index for s in released] == [0, 1]
        assert all(s.stalled == {2} for s in released)
        b.ingest(upd(2, 0, n_tracks=1))  # too late, silently dropped
        assert b.stats.dropped_late == 1
        assert b.try_release() is None  # frame 2 still inside the lag window
        assert b.stats.released == 2

    def test_zero_lag_never_waits_for_a_trailing_camera(self):
        b = barrier(max_lag=0)
        b.ingest(upd(1, 0))
        assert b.try_release() is None  # fastest - frame = 0, not > 0
        b.ingest(upd(1, 1))
        snap = b.try_release()
        assert snap.frame_index == 0
        assert snap.stalled == {2}


class TestOrderingProperties:
    def grid(self, n_cams=3, n_frames=25):
        return [
            [upd(c, f, n_tracks=(f + c) % 3) for f in range(n_frames)]
            for c in range(1, n_cams + 1)
        ]

    def run_interleaved(self, queues, rng):
        b = barrier(cams=range(1, len(queues) + 1))
        out = []
        queues = [list(q) for q in queues]
        while any(queues):
            q = rng.choice([q for q in queues if q])
            b.ingest(q.pop(0))
            out.extend(b.drain())
        out.extend(b.drain())
        return out, b

    @given(st.integers(0, 2**32 - 1))
    def test_delivery_order_does_not_matter(self, seed):
        queues = self.grid()
        baseline, _ = self.run_interleaved(queues, random.Random(0))
        shuffled, b = self.run_interleaved(queues, random.Random(seed))
        assert shuffled == baseline
        assert [s.frame_index for s in shuffled] == list(range(25))
        times = [s.t for s in shuffled]
        assert all(a < z for a, z in zip(times, times[1:]))
        assert b.stats.dropped_late == 0
        assert b.stats.released == 25

    def test_no_observation_loss(self):
        queues = self.grid()
        sent = sum(len(u.tracks) for q in queues for u in q)
        released, b = self.run_interleaved(queues, random.Random(7))
        got = sum(len(tr) for s in released for tr in s.per_camera.values())
        assert got == sent
        assert b.stats.ingested == sum(len(q) for q in queues)
        assert b.pending_count == 0


class TestThreadSafety:
    def test_concurrent_producers(self):
        """One producer thread per camera, each releasing what it can."""
        cams, n_frames = (1, 2, 3, 4), 1000
        b = barrier(cams=cams)
        released = []

        def produce(cam):
            for f in range(n_frames):
                b.ingest(upd(cam, f, n_tracks=1))
                released.extend(b.drain())

        threads = [threading.Thread(target=produce, args=(c,)) for c in cams]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        released.extend(b.drain())
        assert sorted(s.frame_index for s in released) == list(range(n_frames))
        assert all(len(s.per_camera[c]) == 1 for s in released for c in cams)
        delivered = len(cams) * n_frames
        assert b.stats.ingested == delivered
        assert b.stats.released == n_frames
        assert b.stats.peak_pending <= delivered
        assert b.pending_count == 0


class ScanBarrier:
    """Reference barrier: every poll scans every camera's last delivered frame.

    The release rule, errors and stats of ``SyncBarrier``, without its
    watermarks; the equivalence test below runs both side by side.
    """

    def __init__(self, cfg: BarrierConfig) -> None:
        self.cfg = cfg
        self._cams = sorted(cfg.camera_ids)
        self._pending: dict[int, dict[int, StreamUpdate]] = {}
        self._last = {c: -1 for c in cfg.camera_ids}
        self._released_frame = -1
        self.stats = BarrierStats()

    def ingest(self, update: StreamUpdate) -> None:
        cam, frame = update.camera_id, update.frame_index
        if cam not in self.cfg.camera_ids:
            raise ConfigError(f"camera {cam} is not registered with the barrier")
        if frame < 0:
            raise MalformedInputError(f"negative frame index {frame}")
        if frame <= self._last[cam]:
            raise CausalityError(
                f"camera {cam} delivered frame {frame} after frame {self._last[cam]}"
            )
        self._last[cam] = frame
        if frame <= self._released_frame:
            self.stats.dropped_late += 1
            return
        self._pending.setdefault(frame, {})[cam] = update
        self.stats.ingested += 1
        self.stats.peak_pending = max(self.stats.peak_pending, self.pending_count)

    def try_release(self):
        if not self._pending:
            return None
        frame = min(self._pending)
        last = self._last
        if min(last.values()) < frame and (
            self.cfg.max_lag is None or max(last.values()) - frame <= self.cfg.max_lag
        ):
            return None
        updates = self._pending[frame]
        t = updates[min(updates)].t
        per_camera = {}
        for cam in self._cams:
            upd = updates.get(cam)
            if upd is not None and upd.t != t:
                raise MalformedInputError(
                    f"frame {frame}: cameras disagree on time ({upd.t} vs {t})"
                )
            per_camera[cam] = () if upd is None else upd.tracks
        del self._pending[frame]
        self._released_frame = frame
        self.stats.released += 1
        return Snapshot(
            frame_index=frame,
            t=t,
            per_camera=per_camera,
            stalled=frozenset(c for c in self._cams if last[c] < frame),
        )

    @property
    def pending_count(self) -> int:
        return sum(map(len, self._pending.values()))


def _outcome(call):
    """A call's return value, or the type and message of what it raised."""
    try:
        return call()
    except CamchainError as e:
        return type(e), str(e)


# One step: a poll, or a delivery (camera, frames ahead of its last delivery,
# tracks, time off). Cameras above the barrier's count wrap around, except 6,
# which is never registered; a step <= 0 repeats or rewinds a camera's frame,
# and an update with its time off disagrees with the other cameras.
_STEPS = st.lists(
    st.one_of(
        st.just("poll"),
        st.tuples(
            st.integers(1, 6),
            st.sampled_from([1, 1, 1, 1, 2, 2, 3, 0, -1]),
            st.integers(0, 2),
            st.integers(0, 19).map(lambda n: n == 0),
        ),
    ),
    max_size=120,
)


class TestWatermarksMatchAFullScan:
    @given(st.integers(1, 5), st.sampled_from([None, 0, 2]), _STEPS)
    def test_every_poll_agrees_with_the_scanning_reference(self, n_cams, max_lag, steps):
        cfg = BarrierConfig(camera_ids=frozenset(range(1, n_cams + 1)), max_lag=max_lag)
        fast, ref = SyncBarrier(cfg), ScanBarrier(cfg)
        sent = {c: -1 for c in range(1, 7)}
        for step in [*steps, *["poll"] * 130]:
            if step == "poll":
                assert _outcome(fast.try_release) == _outcome(ref.try_release)
            else:
                cam, ahead, n_tracks, off_time = step
                cam = n_cams + 1 if cam == 6 else (cam - 1) % n_cams + 1
                frame = sent[cam] + ahead
                u = upd(cam, frame, n_tracks)
                if off_time:
                    u = StreamUpdate(camera_id=cam, frame_index=frame, t=u.t + 0.05)
                got = _outcome(lambda: fast.ingest(u))
                assert got == _outcome(lambda: ref.ingest(u))
                if got is None:
                    sent[cam] = frame
            assert asdict(fast.stats) == asdict(ref.stats)
            assert fast.pending_count == ref.pending_count


# -- whole frames ----------------------------------------------------------------


def cells(frame, counts, fps=10.0):
    """One whole frame: camera -> that many tracks, as upd builds them."""
    return {cam: upd(cam, frame, n, fps).tracks for cam, n in counts.items()}


class TestIngestFrame:
    def test_releases_the_frame_and_counts_its_updates(self):
        b = barrier(cams=(1, 2, 3))
        snap = b.ingest_frame(0, 0.0, cells(0, {1: 2, 2: 0, 3: 1}))
        assert snap == Snapshot(0, 0.0, cells(0, {1: 2, 2: 0, 3: 1}))
        assert snap.stalled == frozenset()
        b.ingest_frame(4, 0.4, cells(4, {1: 0, 2: 0, 3: 0}))
        assert asdict(b.stats) == asdict(
            BarrierStats(ingested=6, released=2, dropped_late=0, peak_pending=3)
        )
        assert b.pending_count == 0 and b.try_release() is None

    def test_per_camera_updates_may_follow(self):
        b = barrier()
        b.ingest_frame(0, 0.0, cells(0, {1: 1, 2: 1}))
        with pytest.raises(CausalityError, match="camera 1 delivered frame 0 after frame 0"):
            b.ingest(upd(1, 0))
        b.ingest(upd(1, 1))
        b.ingest(upd(2, 1))
        assert b.try_release().frame_index == 1


def _assert_refused(b, frame, t, per_camera, error, match):
    before = asdict(b.stats)
    with pytest.raises(error, match=match):
        b.ingest_frame(frame, t, per_camera)
    assert asdict(b.stats) == before


class TestIngestFrameRejects:
    def test_while_per_camera_updates_are_pending(self):
        b = barrier()
        b.ingest(upd(1, 0))
        _assert_refused(b, 1, 0.1, cells(1, {1: 0, 2: 0}), CausalityError,
                        "1 per-camera updates are pending")

    def test_an_unregistered_camera(self):
        _assert_refused(
            barrier(), 0, 0.0, cells(0, {1: 0, 2: 0, 7: 0}), ConfigError,
            "camera 7 is not registered",
        )

    def test_a_missing_camera(self):
        _assert_refused(barrier(cams=(1, 2, 3)), 0, 0.0, cells(0, {1: 1, 3: 0}),
                        MalformedInputError, "frame 0 lacks camera 2")

    def test_a_negative_frame(self):
        _assert_refused(barrier(), -1, 0.0, {1: (), 2: ()}, MalformedInputError,
                        "negative frame index -1")

    @pytest.mark.parametrize("frame", [3, 2])
    def test_a_frame_not_after_every_camera_s_last(self, frame):
        b = barrier()
        b.ingest(upd(1, 3))
        b.ingest(upd(2, 3))
        b.drain()
        _assert_refused(b, frame, frame / 10.0, cells(frame, {1: 0, 2: 0}), CausalityError,
                        f"camera 1 delivered frame {frame} after frame 3")
        b.ingest_frame(4, 0.4, cells(4, {1: 0, 2: 0}))  # the barrier is as it was

    def test_a_track_of_another_camera(self):
        per_camera = {1: cells(0, {2: 1})[2], 2: ()}
        _assert_refused(barrier(), 0, 0.0, per_camera, MalformedInputError,
                        "track camera 2 inside update for camera 1")

    def test_a_track_at_another_time(self):
        _assert_refused(barrier(), 0, 0.05, cells(0, {1: 1, 2: 0}), MalformedInputError,
                        "track time 0.0 differs from update time 0.05")

    def test_a_track_of_another_frame(self):
        per_camera = {1: (), 2: tuple(s._replace(frame_index=4) for s in cells(5, {2: 1})[2])}
        _assert_refused(barrier(), 5, 0.5, per_camera, MalformedInputError,
                        "track frame 4 inside update for frame 5")


# In-order rows: camera ids, frame count, and per (frame, camera) cell a
# track count.
_ROW_STREAMS = st.tuples(
    st.sets(st.integers(1, 9), min_size=1, max_size=4).map(sorted),
    st.integers(0, 8),
    st.lists(st.integers(0, 3), max_size=40),
    st.sampled_from([None, 0, 2]),
)


class TestWholeFramesMatchPerCameraUpdates:
    @given(_ROW_STREAMS)
    def test_same_snapshots_and_stats(self, stream):
        cams, frame_count, counts, max_lag = stream
        counts = iter(counts)
        rows = [
            s for f in range(frame_count) for c in cams
            for s in upd(c, f, next(counts, 0)).tracks
        ]
        cfg = BarrierConfig(camera_ids=frozenset(cams), max_lag=max_lag)

        # the reference: every (frame, camera) cell as its own update
        ref = SyncBarrier(cfg)
        expected = []
        for f in range(frame_count):
            for c in cams:
                ref.ingest(StreamUpdate(
                    c, f, round(f / 10.0, 6),
                    tuple(s for s in rows if (s.frame_index, s.camera_id) == (f, c)),
                ))
                while (snap := ref.try_release()) is not None:
                    expected.append(snap)
        expected += ref.drain()

        b = SyncBarrier(cfg)
        got = [b.ingest_frame(*fr) for fr in frames_from_rows(rows, cams, frame_count, 10.0)]
        assert got == expected
        assert asdict(b.stats) == asdict(ref.stats)
