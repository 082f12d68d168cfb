"""Event data model, frame accumulation, downsampling, synthetic
generation, and the EVT1 codec."""

import copy
import json
import pickle
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtheremin.events import (
    CodecError,
    EventStream,
    Frame,
    Hand,
    Resolution,
    StreamError,
    Trajectory,
    TrajectorySample,
    _cell_map,
    add_noise_events,
    decode_evt1,
    encode_evt1,
    frame_accumulate,
    frame_downsample,
    synth_hand_events,
    waving_trajectory,
)

RES = Resolution(240, 180)
CHIP = Resolution(86, 65)


@st.composite
def hand_samples(draw, hand, width=RES.width, height=RES.height):
    """1-6 samples of one hand, at strictly increasing times that start
    anywhere in the first 5 ms and are 0.4-6 ms apart, anywhere in frame."""
    t = draw(st.integers(0, 5000))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.floats(0.0, width, exclude_max=True))
        y = draw(st.floats(0.0, height, exclude_max=True))
        out.append(TrajectorySample(t, hand, x, y))
        t += draw(st.integers(400, 6000))
    return out


def stream_of(triples, res=RES):
    stream = EventStream(*zip(*triples), res)
    stream.validate()
    return stream


def scan_validate(stream):
    """The error validate() raised before its one-reduction-per-column
    acceptance: a full scan naming the first offending event, or None."""
    x, y, p, res = stream.x, stream.y, stream.p, stream.resolution
    bad = np.nonzero((x >= res.width) | (y >= res.height))[0]
    if len(bad):
        i = int(bad[0])
        return f"event {i} at ({x[i]},{y[i]}) outside {res}"
    bad = np.nonzero((p != 1) & (p != -1))[0]
    if len(bad):
        i = int(bad[0])
        return f"event {i} has polarity {p[i]}, want +1 or -1"
    return None


@st.composite
def valid_streams(draw, max_events=60):
    """Events anywhere on a small sensor, at times 100-199 in any order."""
    res = Resolution(draw(st.integers(1, 40)), draw(st.integers(1, 30)))
    n = draw(st.integers(0, max_events))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return EventStream(
        rng.integers(100, 200, n, dtype=np.uint64),
        rng.integers(0, res.width, n, dtype=np.uint16),
        rng.integers(0, res.height, n, dtype=np.uint16),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
        res,
    )


class TestEventValidation:
    @given(valid_streams())
    def test_valid_stream_accepted(self, stream):
        assert scan_validate(stream) is None
        stream.validate()

    def test_empty_stream_accepted(self):
        EventStream.empty(RES).validate()
        EventStream.empty(Resolution(1, 1)).validate()

    @settings(max_examples=300)
    @given(valid_streams(), st.data())
    def test_error_names_first_offender_as_full_scan(self, stream, data):
        n, res = len(stream), stream.resolution
        if n == 0:
            stream = EventStream([0], [0], [0], [1], res)
            n = 1
        # One bad value per column, each column's first invalid one or any;
        # injected into one column, or into any of them.
        bad = {
            "x": data.draw(st.one_of(st.just(res.width), st.integers(res.width, 2**16 - 1))),
            "y": data.draw(st.one_of(st.just(res.height), st.integers(res.height, 2**16 - 1))),
            "p": data.draw(st.one_of(st.sampled_from([0, 2, -2]), st.integers(-128, 127).filter(lambda p: p not in (-1, 1)))),
        }
        columns = data.draw(st.sampled_from(["p", "x", "y", "xyp"]))
        for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
            column = data.draw(st.sampled_from(columns))
            getattr(stream, column)[i] = bad[column]
        want = scan_validate(stream)
        assert want is not None
        with pytest.raises(StreamError) as exc:
            stream.validate()
        assert str(exc.value) == want

    def test_negative_time_rejected(self):
        with pytest.raises(StreamError, match="event 1 has negative time -1"):
            EventStream([0, -1, -2], [0, 0, 0], [0, 0, 0], [1, 1, 1], RES)
        with pytest.raises(StreamError, match="event 0 has negative time -0.5"):
            EventStream(np.array([-0.5]), [0], [0], [1], RES)
        s = EventStream(np.array([0, 2**64 - 1], dtype=np.uint64), [0, 0], [0, 0], [1, 1], RES)
        assert s.span_us() == (0, 2**64 - 1)

    def test_bad_polarity_rejected(self):
        for p in (0, 2):
            with pytest.raises(StreamError, match=f"polarity {p}"):
                stream_of([(0, 0, 0, 1), (0, 0, 0, p)])

    def test_out_of_bounds_event_named_in_error(self):
        s = EventStream([0], [240], [0], [1], RES)
        with pytest.raises(StreamError, match=r"\(240,0\)"):
            s.validate()

    def test_resolution_limits(self):
        with pytest.raises(ValueError):
            Resolution(0, 10)
        assert Resolution(1280, 720).npixels == 921_600

    def test_window_and_span(self):
        s = stream_of([(5, 1, 1, 1), (10, 2, 2, -1), (20, 3, 3, 1)])
        assert s.span_us() == (5, 20)
        assert EventStream.empty(RES).span_us() == (0, 0)


class TestFrameAccumulate:
    def test_empty_stream_zero_frame(self):
        f = frame_accumulate(EventStream.empty(RES), 0, 100)
        assert f.cells.sum() == 0
        assert f.cells.shape == (RES.height, RES.width)

    def test_counts_by_hand(self):
        # three in-window events at (5,5), one outside the window
        s = stream_of([(10, 5, 5, 1), (20, 5, 5, -1), (30, 5, 5, 1), (99, 5, 5, 1)])
        f = frame_accumulate(s, 0, 50)
        assert f.cells[5, 5] == 3
        assert f.cells.sum() == 3

    def test_signed_mode_sums_polarity(self):
        s = stream_of([(10, 5, 5, 1), (20, 5, 5, -1), (30, 5, 5, -1)])
        f = frame_accumulate(s, 0, 50, signed=True)
        assert f.cells[5, 5] == -1

    def test_window_partition(self):
        rng = np.random.default_rng(3)
        n = 500
        s = EventStream(
            rng.integers(0, 1000, n),
            rng.integers(0, RES.width, n),
            rng.integers(0, RES.height, n),
            rng.choice([-1, 1], n),
            RES,
        )
        whole = frame_accumulate(s, 0, 1000)
        a = frame_accumulate(s, 0, 400)
        b = frame_accumulate(s, 400, 1000)
        np.testing.assert_array_equal(whole.cells, a.cells + b.cells)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            frame_accumulate(EventStream.empty(RES), 10, 10)

    def test_out_of_bounds_event_rejected(self):
        s = EventStream([1], [0], [500], [1], RES)
        with pytest.raises(StreamError):
            frame_accumulate(s, 0, 10)

    @given(valid_streams(), st.sampled_from(["inside", "edges", "partial", "before", "after"]), st.booleans(), st.data())
    def test_equals_masked_bincount(self, stream, window, signed, data):
        t = stream.t.astype(np.int64)
        lo, hi = (int(t.min()), int(t.max())) if len(t) else (100, 199)
        if window == "inside":
            t0 = data.draw(st.integers(0, lo))
            t1 = data.draw(st.integers(hi + 1, hi + 20))
        elif window == "edges":
            # Within one of the first and last event times; when they are
            # equal and t0 = lo + 1, t1 = t0 + 1 is the nearest valid end.
            t0 = data.draw(st.integers(lo - 1, lo + 1))
            t1 = data.draw(st.integers(max(t0 + 1, hi - 1), max(t0 + 1, hi + 1)))
        elif window == "partial":
            # Edges on event times, so the half-open bounds are exercised.
            t0 = data.draw(st.integers(lo - 5, hi + 1))
            t1 = data.draw(st.integers(t0 + 1, hi + 5))
        elif window == "before":
            t0 = data.draw(st.integers(0, lo - 1))
            t1 = data.draw(st.integers(t0 + 1, lo))
        else:
            t0 = data.draw(st.integers(hi + 1, hi + 20))
            t1 = data.draw(st.integers(t0 + 1, t0 + 20))
        res = stream.resolution
        m = (t >= t0) & (t < t1)
        idx = stream.y[m].astype(np.int64) * res.width + stream.x[m].astype(np.int64)
        weights = stream.p[m].astype(np.int64) if signed else np.ones(len(idx), dtype=np.int64)
        want = np.zeros(res.npixels, dtype=np.int64)
        np.add.at(want, idx, weights)
        want = want.reshape(res.height, res.width)
        got = frame_accumulate(stream, t0, t1, signed=signed)
        assert got.cells.dtype == np.int64
        assert (got.t_start, got.t_end) == (t0, t1)
        np.testing.assert_array_equal(got.cells, want)
        # Straight into a coarser grid: the downsampled sensor frame.
        target = Resolution(data.draw(st.integers(1, res.width)), data.draw(st.integers(1, res.height)))
        got = frame_accumulate(stream, t0, t1, target, signed=signed)
        assert got.resolution == target and got.cells.dtype == np.int64
        assert (got.t_start, got.t_end) == (t0, t1)
        np.testing.assert_array_equal(got.cells, scatter_add_downsample(want, target))
        wider = Resolution(res.width + data.draw(st.integers(1, 5)), res.height)
        taller = Resolution(res.width, res.height + data.draw(st.integers(1, 5)))
        for bigger in (wider, taller):
            with pytest.raises(StreamError, match="cannot accumulate into larger"):
                frame_accumulate(stream, t0, t1, bigger, signed=signed)


def scatter_add_downsample(cells, target):
    """Reference: add source pixel (x, y) into cell (x*tw//sw, y*th//sh)."""
    height, width = cells.shape
    xmap = np.arange(width) * target.width // width
    ymap = np.arange(height) * target.height // height
    expect = np.zeros((target.height, target.width), dtype=np.int64)
    np.add.at(expect, (ymap[:, None], xmap[None, :]), cells)
    return expect


class TestFrameDownsample:
    def test_floor_mapping_oracle(self):
        # source pixel (120, 90) must land in chip cell (43, 32):
        # 120*86//240 = 43, 90*65//180 = 32
        s = stream_of([(1, 120, 90, 1)])
        f = frame_downsample(frame_accumulate(s, 0, 10), CHIP)
        assert f.cells[32, 43] == 1
        assert f.cells.sum() == 1

    def test_identity_when_same_resolution(self):
        s = stream_of([(1, 7, 9, 1), (2, 7, 9, 1)])
        f = frame_accumulate(s, 0, 10)
        g = frame_downsample(f, RES)
        assert g is f

    def test_count_conservation_random(self):
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 5, (RES.height, RES.width))
        f = Frame(RES, cells, 0, 10)
        g = frame_downsample(f, CHIP)
        assert g.cells.sum() == cells.sum()

    def test_against_bruteforce_mapping(self):
        rng = np.random.default_rng(12)
        cells = rng.integers(0, 4, (20, 30))
        f = Frame(Resolution(30, 20), cells, 0, 1)
        target = Resolution(7, 6)
        g = frame_downsample(f, target)
        expect = np.zeros((6, 7), dtype=np.int64)
        for y in range(20):
            for x in range(30):
                expect[y * 6 // 20, x * 7 // 30] += cells[y, x]
        np.testing.assert_array_equal(g.cells, expect)

    @given(st.integers(1, 60), st.integers(1, 60), st.data())
    def test_equals_scatter_add_reference(self, width, height, data):
        target = Resolution(data.draw(st.integers(1, width)), data.draw(st.integers(1, height)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cells = rng.integers(-3, 50, (height, width))
        got = frame_downsample(Frame(Resolution(width, height), cells, 0, 1), target).cells
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, scatter_add_downsample(cells, target))

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
            min_size=2,
            max_size=5,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_interleaved_resolution_pairs(self, dims, seed):
        # Pairs that share a width, a height or a target follow each other,
        # so a map cached under a partial key gives a wrong sum.
        rng = np.random.default_rng(seed)
        pairs = []
        for sw, sh, tw, th in dims:
            for src in (Resolution(sw, sh), Resolution(sw, sh + 1), Resolution(sw + 1, sh)):
                pairs.append((src, Resolution(min(tw, src.width), min(th, src.height))))
        for src, target in pairs + pairs[::-1]:
            cells = rng.integers(-3, 50, (src.height, src.width))
            got = frame_downsample(Frame(src, cells, 0, 1), target).cells
            np.testing.assert_array_equal(got, scatter_add_downsample(cells, target))

    def test_cell_map_read_only(self):
        cell = _cell_map(RES, CHIP)
        assert not cell.flags.writeable
        with pytest.raises(ValueError):
            cell[0] = 5
        assert cell[90 * RES.width + 120] == 32 * CHIP.width + 43

    def test_upsample_rejected(self):
        f = Frame(CHIP, np.zeros((65, 86), dtype=np.int64), 0, 1)
        with pytest.raises(ValueError):
            frame_downsample(f, RES)


class TestTrajectory:
    def test_position_interpolates(self):
        traj = Trajectory(
            [
                TrajectorySample(0, Hand.LEFT, 10.0, 20.0),
                TrajectorySample(1000, Hand.LEFT, 20.0, 40.0),
            ]
        )
        x, y = traj.position_at(Hand.LEFT, 500)
        assert (x, y) == (15.0, 30.0)
        with pytest.raises(KeyError):
            traj.position_at(Hand.RIGHT, 500)

    def test_json_roundtrip(self):
        traj = waving_trajectory(RES, 100)
        text = traj.to_json()
        assert json.loads(text)["unit"] == "px"
        back = Trajectory.from_json(text)
        assert back == traj
        assert back.samples[3] == traj.samples[3]

    def test_json_non_pixel_unit_rejected(self):
        text = json.dumps({"unit": "m", "samples": [[0, "left", 0.5, 0.5]]})
        with pytest.raises(ValueError, match="unit"):
            Trajectory.from_json(text)

    def test_frozen_with_read_only_tracks(self):
        traj = waving_trajectory(RES, 100)
        assert isinstance(traj.samples, tuple)
        with pytest.raises(FrozenInstanceError):
            traj.samples = ()
        with pytest.raises(FrozenInstanceError):
            traj.tracks = {}
        with pytest.raises(TypeError):
            traj.tracks[Hand.LEFT] = traj.tracks[Hand.RIGHT]
        with pytest.raises(ValueError):
            traj.tracks[Hand.LEFT][1][0] = 0.0
        for copied in (copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
            assert copied == traj
            assert copied.hands() == traj.hands()
            assert not copied.tracks[Hand.LEFT][1].flags.writeable

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="left not strictly increasing at t=5"):
            Trajectory(
                [
                    TrajectorySample(5, Hand.LEFT, 1.0, 1.0),
                    TrajectorySample(3, Hand.RIGHT, 1.0, 1.0),
                    TrajectorySample(5, Hand.LEFT, 2.0, 1.0),
                ]
            )

    @given(st.data())
    def test_position_at_matches_interp_over_samples(self, data):
        hands = data.draw(st.sampled_from([[Hand.LEFT], [Hand.RIGHT, Hand.LEFT]]))
        samples = [s for hand in hands for s in data.draw(hand_samples(hand))]
        traj = Trajectory(samples)
        assert traj.hands() == hands
        lo, hi = traj.span_us()
        assert (lo, hi) == (min(s.t for s in samples), max(s.t for s in samples))
        for hand in hands:
            mine = [s for s in samples if s.hand is hand]
            ts = [s.t for s in mine]
            # both clamped ends, every sample time and points in between
            for t in [ts[0] - 1000, ts[0], ts[-1], ts[-1] + 1000, *data.draw(
                st.lists(st.integers(lo - 2000, hi + 2000), max_size=5)
            ), *ts]:
                x, y = traj.position_at(hand, t)
                assert x == np.interp(t, ts, [s.x for s in mine])
                assert y == np.interp(t, ts, [s.y for s in mine])

    def test_waving_stays_in_bounds(self):
        traj = waving_trajectory(RES, 4000)
        for s in traj.samples:
            assert 0 <= s.x < RES.width and 0 <= s.y < RES.height

    def test_waving_hands_move_in_antiphase(self):
        traj = waving_trajectory(RES, 2000)
        lx, _ = traj.position_at(Hand.LEFT, 500_000)
        rx, _ = traj.position_at(Hand.RIGHT, 500_000)
        # left swings right of its center exactly when right swings left
        assert (lx - 0.28 * RES.width) * (rx - 0.72 * RES.width) < 0


def _render_blobs(canvas: np.ndarray, positions, radius: float) -> list[tuple[int, int, int, int]]:
    """Draw soft-edged disks; returns the touched bounding boxes."""
    h, w = canvas.shape
    boxes = []
    pad = int(np.ceil(radius)) + 2
    for cx, cy in positions:
        x0, x1 = max(0, int(cx) - pad), min(w, int(cx) + pad + 1)
        y0, y1 = max(0, int(cy) - pad), min(h, int(cy) + pad + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        dist = np.hypot(np.arange(x0, x1) - cx, np.arange(y0, y1)[:, None] - cy)
        disk = np.clip(radius + 0.5 - dist, 0.0, 1.0)
        np.maximum(canvas[y0:y1, x0:x1], disk, out=canvas[y0:y1, x0:x1])
        boxes.append((y0, y1, x0, x1))
    return boxes


def oracle_synth(traj, resolution, seed, blob_radius=8.0, contrast_threshold=0.05,
                 rate_scale=1.0, micro_step_us=1000):
    """Reference synthesizer, written for clarity over speed: positions
    interpolated from the samples at every step, the change region from a
    full-frame scan of the previous micro-frame, one global stable sort."""

    def position(hand, t):
        mine = [s for s in traj.samples if s.hand is hand]
        ts = np.array([s.t for s in mine], dtype=np.float64)
        return (float(np.interp(t, ts, [s.x for s in mine])),
                float(np.interp(t, ts, [s.y for s in mine])))

    def support_box(img):
        ys, xs = np.nonzero(img)
        if len(ys) == 0:
            return (0, 0, 0, 0)
        return int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1

    def union(a, b):
        if a[0] >= a[1]:
            return b
        if b[0] >= b[1]:
            return a
        return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))

    t_min, t_max = traj.span_us()
    if t_max <= t_min:
        return EventStream.empty(resolution)
    rng = np.random.default_rng(seed)
    hands = traj.hands()
    shape = (resolution.height, resolution.width)
    prev = np.zeros(shape)
    _render_blobs(prev, [position(h, t_min) for h in hands], blob_radius)
    out = []
    n_steps = int(np.ceil((t_max - t_min) / micro_step_us))
    for k in range(1, n_steps + 1):
        t_k = min(t_min + k * micro_step_us, t_max)
        cur = np.zeros(shape)
        boxes = _render_blobs(cur, [position(h, t_k) for h in hands], blob_radius)
        cur_box = (0, 0, 0, 0)
        for b in boxes:
            cur_box = union(cur_box, b)
        py0, py1, px0, px1 = union(cur_box, support_box(prev))
        if py0 < py1:
            diff = cur[py0:py1, px0:px1] - prev[py0:py1, px0:px1]
            mag = np.abs(diff)
            yy, xx = np.nonzero(mag >= contrast_threshold)
            counts = np.floor(rate_scale * mag[yy, xx] / contrast_threshold).astype(np.int64)
            keep = counts > 0
            yy, xx, counts = yy[keep], xx[keep], counts[keep]
            total = int(counts.sum())
            if total:
                t_lo = t_min + (k - 1) * micro_step_us
                ts = (t_lo + rng.random(total) * (t_k - t_lo)).astype(np.uint64)
                out.append((ts, np.repeat(xx + px0, counts), np.repeat(yy + py0, counts),
                            np.repeat(np.sign(diff[yy, xx]).astype(np.int8), counts)))
        prev = cur
    if not out:
        return EventStream.empty(resolution)
    stream = EventStream(*(np.concatenate(c) for c in zip(*out)), resolution)
    return stream.time_sorted()


class TestSynthHandEvents:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_oracle(self, data):
        res = Resolution(data.draw(st.integers(20, 64)), data.draw(st.integers(16, 48)))
        hands = data.draw(st.sampled_from([[Hand.LEFT], [Hand.LEFT, Hand.RIGHT]]))
        samples = [s for hand in hands
                   for s in data.draw(hand_samples(hand, res.width, res.height))]
        traj = Trajectory(samples)
        params = dict(
            seed=data.draw(st.integers(0, 2**32 - 1)),
            blob_radius=data.draw(st.floats(1.0, 15.0)),
            contrast_threshold=data.draw(st.sampled_from([0.05, 0.13, 0.4])),
            rate_scale=data.draw(st.floats(0.0, 4.0)),
            # steps of 700, 1300 and 2900 us fall between most sample times;
            # 70 ms is one step longer than a 16-bit offset
            micro_step_us=data.draw(st.sampled_from([250, 700, 1000, 1300, 2900, 70_000])),
        )
        want = oracle_synth(traj, res, **params)
        got = synth_hand_events(traj, res, **params)
        assert got.resolution == res
        assert got == want
        lo, hi = traj.span_us()
        until = data.draw(st.integers(lo - 1000, hi + 3000))
        cut = synth_hand_events(traj, res, until_us=until, **params)
        assert cut == want[want.t < until]

    def test_batch_edges_equal_oracle(self):
        # Two hands on the full sensor: the left one starts clipped at the
        # frame edge, and they cross, so their disks overlap.  700 us steps
        # batch into 7 ms spans, which no 10 ms tracker window lines up
        # with, over five batches; the cut falls inside the third.
        traj = Trajectory([
            TrajectorySample(0, Hand.LEFT, 3.0, 88.0),
            TrajectorySample(30_000, Hand.LEFT, 70.0, 96.0),
            TrajectorySample(0, Hand.RIGHT, 60.0, 92.0),
            TrajectorySample(30_000, Hand.RIGHT, 12.0, 90.0),
        ])
        params = dict(seed=21, micro_step_us=700, rate_scale=2.0)
        want = oracle_synth(traj, RES, **params)
        got = synth_hand_events(traj, RES, **params)
        assert got == want
        assert got.x.min() == 0 and len(got) > 10_000
        cut = synth_hand_events(traj, RES, until_us=17_850, **params)
        assert cut == want[want.t < 17_850]
        assert 14_000 < cut.t.max() < 17_850

    def test_stop_time_keeps_prefix(self):
        traj = waving_trajectory(RES, 60)
        full = synth_hand_events(traj, RES, seed=4, micro_step_us=700)
        assert np.all(np.diff(full.t.astype(np.int64)) >= 0)
        for until in (0, 1, 20_000, 20_350, 59_999, 60_000, 10**9):
            cut = synth_hand_events(traj, RES, seed=4, micro_step_us=700, until_us=until)
            assert cut == full[full.t < until]

    def test_stationary_blob_emits_nothing(self):
        traj = Trajectory(
            [TrajectorySample(t, Hand.LEFT, 50.0, 50.0) for t in (0, 10_000, 20_000)]
        )
        stream = synth_hand_events(traj, RES, seed=1)
        assert len(stream) == 0

    def test_deterministic_for_seed(self):
        traj = waving_trajectory(RES, 200)
        a = synth_hand_events(traj, RES, seed=9)
        b = synth_hand_events(traj, RES, seed=9)
        assert a == b
        c = synth_hand_events(traj, RES, seed=10)
        assert len(c) != 0 and (len(a) != len(c) or a != c)

    def test_polarity_splits_leading_trailing(self):
        # blob gliding right: brightness rises ahead of the center and
        # falls behind it
        traj = Trajectory(
            [
                TrajectorySample(0, Hand.LEFT, 60.0, 90.0),
                TrajectorySample(50_000, Hand.LEFT, 110.0, 90.0),
            ]
        )
        stream = synth_hand_events(traj, RES, seed=2, rate_scale=2.0)
        assert len(stream) > 0
        mid = stream.t > 20_000
        xs = stream.x[mid].astype(float)
        ps = stream.p[mid]
        assert xs[ps > 0].mean() > xs[ps < 0].mean()

    def test_event_count_follows_differencing_rule(self):
        # one micro-step jump: per-pixel count is floor(rate*|delta|/threshold)
        traj = Trajectory(
            [
                TrajectorySample(0, Hand.LEFT, 40.0, 40.0),
                TrajectorySample(1000, Hand.LEFT, 43.0, 40.0),
            ]
        )
        radius, thresh, rate = 5.0, 0.05, 1.0
        stream = synth_hand_events(
            traj, RES, seed=3, blob_radius=radius, contrast_threshold=thresh,
            rate_scale=rate, micro_step_us=1000,
        )

        def disk(cx):
            ys, xs = np.mgrid[0:RES.height, 0:RES.width]
            return np.clip(radius + 0.5 - np.hypot(xs - cx, ys - 40.0), 0.0, 1.0)

        delta = disk(43.0) - disk(40.0)
        expect = np.where(
            np.abs(delta) >= thresh, np.floor(rate * np.abs(delta) / thresh), 0
        )
        got = np.zeros_like(expect)
        np.add.at(got, (stream.y, stream.x), 1)
        np.testing.assert_array_equal(got, expect)

    def test_bounds_checked(self):
        traj = Trajectory([TrajectorySample(0, Hand.LEFT, 500.0, 50.0)])
        with pytest.raises(ValueError):
            synth_hand_events(traj, RES, seed=1)


class TestNoiseInjection:
    def test_fraction_counts(self):
        traj = waving_trajectory(RES, 300)
        clean = synth_hand_events(traj, RES, seed=5)
        noisy = add_noise_events(clean, 0.2, seed=6)
        assert len(noisy) == len(clean) + int(round(0.2 * len(clean)))
        assert add_noise_events(clean, 0.0, seed=6) is clean

    def test_noise_sorted_and_in_bounds(self):
        traj = waving_trajectory(RES, 300)
        noisy = add_noise_events(synth_hand_events(traj, RES, seed=5), 0.5, seed=7)
        noisy.validate()
        assert np.all(np.diff(noisy.t.astype(np.int64)) >= 0)


class TestEvt1Codec:
    def test_empty_stream_is_bare_header(self):
        data = encode_evt1(EventStream.empty(RES))
        assert data == b"EVT1" + struct.pack("<HHI", 240, 180, 0)
        assert len(data) == 12

    def test_single_event_layout(self):
        s = stream_of([(7, 3, 2, -1)])
        data = encode_evt1(s)
        record = struct.pack("<QHHb", 7, 3, 2, -1) + b"\x00\x00\x00"
        assert data == b"EVT1" + struct.pack("<HHI", 240, 180, 0) + record

    def test_roundtrip(self):
        traj = waving_trajectory(RES, 500)
        s = synth_hand_events(traj, RES, seed=8)
        assert decode_evt1(encode_evt1(s)) == s

    @example(EventStream.empty(Resolution(1, 1)))
    @example(EventStream([5, 5], [0, 0], [0, 0], [1, -1], Resolution(1, 1)))
    @given(valid_streams())
    def test_roundtrip_any_valid_stream(self, stream):
        data = encode_evt1(stream)
        assert len(data) == 12 + 16 * len(stream)
        assert decode_evt1(data) == stream

    def test_bad_magic_rejected(self):
        data = bytearray(encode_evt1(stream_of([(1, 1, 1, 1)])))
        data[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_evt1(bytes(data))

    def test_truncated_record_rejected(self):
        data = encode_evt1(stream_of([(1, 1, 1, 1)]))
        with pytest.raises(CodecError, match="truncated"):
            decode_evt1(data[:-3])

    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError):
            decode_evt1(b"EVT1\x00")

    def test_out_of_bounds_coordinates_rejected(self):
        good = encode_evt1(stream_of([(1, 1, 1, 1)], Resolution(4, 4)))
        bad = bytearray(good)
        bad[12 + 8] = 200  # x coordinate beyond the declared width
        with pytest.raises(CodecError):
            decode_evt1(bytes(bad))
