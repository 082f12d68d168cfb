"""Event data model, frame accumulation, downsampling, synthetic
generation, and the EVT1 codec."""

import copy
import json
import math
import pickle
import struct
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evtheremin import events
from evtheremin.events import (
    CodecError,
    EventStream,
    Hand,
    Resolution,
    StreamError,
    Trajectory,
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
def hand_samples(draw, width=RES.width, height=RES.height):
    """(t, x, y) columns of 1-6 samples of one hand, at strictly increasing
    times that start anywhere in the first 5 ms and are 0.4-6 ms apart,
    anywhere in frame."""
    t = draw(st.integers(0, 5000))
    ts, xs, ys = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        xs.append(draw(st.floats(0.0, width, exclude_max=True)))
        ys.append(draw(st.floats(0.0, height, exclude_max=True)))
        ts.append(t)
        t += draw(st.integers(400, 6000))
    return ts, xs, ys


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


# Each column's (dtype, lowest, highest value).
COLUMN_RANGES = {"t": (np.uint64, 0, 2**64 - 1), "x": (np.uint16, 0, 2**16 - 1),
                 "y": (np.uint16, 0, 2**16 - 1), "p": (np.int8, -128, 127)}
# Integers at and around every column's bounds, and of any size.
bound_ints = (st.integers(-300, 70_000) | st.integers(2**63 - 3, 2**63 + 3)
              | st.integers(2**64 - 3000, 2**64 + 3000) | st.integers(-2**70, 2**70))


@st.composite
def any_columns(draw, n):
    """A column of n values: a NumPy array of an int or float dtype, or a
    list of Python ints, which NumPy may read as int64, uint64, float64 or
    objects."""
    kind = draw(st.sampled_from(["int", "float", "python"]))
    if kind == "python":
        return draw(st.lists(bound_ints, min_size=n, max_size=n))
    if kind == "int":
        info = np.iinfo(draw(st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                              np.uint32, np.int64, np.uint64])))
        return np.array(draw(st.lists(st.integers(info.min, info.max), min_size=n, max_size=n)), info.dtype)
    values = draw(st.lists(bound_ints.map(float) | st.floats(), min_size=n, max_size=n))
    with np.errstate(over="ignore"):
        return np.array(values).astype(draw(st.sampled_from([np.float16, np.float32, np.float64])))


def holds(value, lo, hi):
    """Whether a column of range [lo, hi] holds value exactly."""
    return (isinstance(value, int) or math.isfinite(value) and value.is_integer()) and lo <= value <= hi


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

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(*[any_columns(n)] * 4)))
    @example(([5], [-1], [70_000], [255]))
    @example(([1.5], [1.5], [0], [1]))
    @example((np.array([np.nan]), [0], [0], [1]))
    @example(([1e30], [0], [0], [1]))
    @example(([-1, 2**63 + 1], [0, 0], [0, 0], [1, 1]))
    def test_columns_round_trip_exactly_or_are_refused(self, columns):
        # Every value a column's dtype holds is stored as it is; the first
        # one it cannot hold, in column order, is refused by event and
        # column, without a warning from a cast that wraps or truncates.
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        first_bad = next(((name, i) for name, col in zip("txyp", values)
                          for i, v in enumerate(col) if not holds(v, *COLUMN_RANGES[name][1:])), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if first_bad is None:
                stream = EventStream(*columns, RES)
                for name, want in zip("txyp", values):
                    column = getattr(stream, name)
                    assert column.dtype == COLUMN_RANGES[name][0] and column.flags.c_contiguous
                    assert column.tolist() == want
            else:
                name, i = first_bad
                with pytest.raises(StreamError, match=rf"^event {i} has .*, which the \w+ {name} column cannot hold$"):
                    EventStream(*columns, RES)

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
        assert f.sum() == 0
        assert f.shape == (RES.height, RES.width)

    def test_counts_by_hand(self):
        # three in-window events at (5,5), one outside the window
        s = stream_of([(10, 5, 5, 1), (20, 5, 5, -1), (30, 5, 5, 1), (99, 5, 5, 1)])
        f = frame_accumulate(s, 0, 50)
        assert f[5, 5] == 3
        assert f.sum() == 3

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
        np.testing.assert_array_equal(whole, a + b)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            frame_accumulate(EventStream.empty(RES), 10, 10)

    def test_out_of_bounds_event_rejected(self):
        s = EventStream([1], [0], [500], [1], RES)
        with pytest.raises(StreamError):
            frame_accumulate(s, 0, 10)

    @given(valid_streams(), st.sampled_from(["inside", "edges", "partial", "before", "after"]), st.data())
    def test_equals_masked_bincount(self, stream, window, data):
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
        want = np.zeros(res.npixels, dtype=np.int64)
        np.add.at(want, idx, 1)
        want = want.reshape(res.height, res.width)
        got = frame_accumulate(stream, t0, t1)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        # Straight into a coarser grid: the downsampled sensor frame.
        target = Resolution(data.draw(st.integers(1, res.width)), data.draw(st.integers(1, res.height)))
        got = frame_accumulate(stream, t0, t1, target)
        assert got.shape == (target.height, target.width) and got.dtype == np.int64
        np.testing.assert_array_equal(got, scatter_add_downsample(want, target))
        wider = Resolution(res.width + data.draw(st.integers(1, 5)), res.height)
        taller = Resolution(res.width, res.height + data.draw(st.integers(1, 5)))
        for bigger in (wider, taller):
            with pytest.raises(StreamError, match="cannot accumulate into larger"):
                frame_accumulate(stream, t0, t1, bigger)


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
        f = frame_accumulate(s, 0, 10, CHIP)
        assert f[32, 43] == 1
        assert f.sum() == 1
        np.testing.assert_array_equal(f, scatter_add_downsample(frame_accumulate(s, 0, 10), CHIP))

    def test_identity_when_same_resolution(self):
        s = stream_of([(1, 7, 9, 1), (2, 7, 9, 1)])
        f = frame_accumulate(s, 0, 10)
        g = frame_downsample(f, RES)
        assert g is f

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
        # so maps cached under a partial key give a wrong frame.
        rng = np.random.default_rng(seed)
        pairs = []
        for sw, sh, tw, th in dims:
            for src in (Resolution(sw, sh), Resolution(sw, sh + 1), Resolution(sw + 1, sh)):
                pairs.append((src, Resolution(min(tw, src.width), min(th, src.height))))
        for src, target in pairs + pairs[::-1]:
            n = int(rng.integers(0, 200))
            stream = EventStream(rng.integers(0, 10, n), rng.integers(0, src.width, n),
                                 rng.integers(0, src.height, n), rng.choice([-1, 1], n), src)
            got = frame_accumulate(stream, 0, 10, target)
            np.testing.assert_array_equal(got, scatter_add_downsample(frame_accumulate(stream, 0, 10), target))

    def test_cell_map_read_only(self):
        rows, cols = events._axis_maps(RES, CHIP)
        assert (len(rows), len(cols)) == (RES.height, RES.width)
        for m in (rows, cols):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 5
        assert rows[90] + cols[120] == 32 * CHIP.width + 43

    def test_upsample_rejected(self):
        # Only a frame already at the target size passes: a larger, a
        # smaller or a transposed one is refused.
        chip = np.zeros((65, 86), dtype=np.int64)
        for cells, target in ((chip, RES), (np.zeros((180, 240), dtype=np.int64), CHIP), (chip.T, CHIP)):
            with pytest.raises(ValueError, match=f"not {target}"):
                frame_downsample(cells, target)


class TestTrajectory:
    def test_position_interpolates(self):
        traj = Trajectory({Hand.LEFT: ([0, 1000], [10.0, 20.0], [20.0, 40.0])})
        x, y = traj.position_at(Hand.LEFT, 500)
        assert (x, y) == (15.0, 30.0)
        with pytest.raises(KeyError):
            traj.position_at(Hand.RIGHT, 500)

    def test_json_roundtrip(self):
        traj = waving_trajectory(RES, 100)
        obj = json.loads(traj.to_json())
        assert obj["unit"] == "px"
        samples = obj["samples"]
        assert len(samples) == sum(len(t) for t, _, _ in traj.tracks.values())
        # in (t, hand) order, each hand's samples exactly its columns
        assert [s[:2] for s in samples] == sorted(s[:2] for s in samples)
        for hand, columns in traj.tracks.items():
            mine = [s for s in samples if s[1] == hand.value]
            assert all(isinstance(s[0], int) for s in mine)
            for i, column in zip((0, 2, 3), columns):
                assert [s[i] for s in mine] == column.tolist()

    def test_frozen_with_read_only_tracks(self):
        traj = waving_trajectory(RES, 100)
        with pytest.raises(FrozenInstanceError):
            traj.tracks = {}
        with pytest.raises(TypeError):
            traj.tracks[Hand.LEFT] = traj.tracks[Hand.RIGHT]
        for column in traj.tracks[Hand.LEFT]:
            with pytest.raises(ValueError):
                column[0] = 0.0
        for copied in (copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
            assert copied == traj
            assert list(copied.tracks) == list(traj.tracks)
            assert not copied.tracks[Hand.LEFT][1].flags.writeable

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="left not strictly increasing at t=5"):
            Trajectory({Hand.RIGHT: ([3], [1.0], [1.0]), Hand.LEFT: ([5, 5], [1.0, 2.0], [1.0, 1.0])})
        with pytest.raises(ValueError, match="right must not be negative, got t=-5000"):
            Trajectory({Hand.LEFT: ([0], [1.0], [1.0]), Hand.RIGHT: ([-5000, 0], [1.0, 2.0], [1.0, 1.0])})
        with pytest.raises(ValueError, match="left not strictly increasing at t=nan"):
            Trajectory({Hand.LEFT: ([0, np.nan], [1.0, 2.0], [1.0, 1.0])})
        with pytest.raises(ValueError, match="one length, got 2, 1, 2"):
            Trajectory({Hand.LEFT: ([0, 5], [1.0], [1.0, 1.0])})
        with pytest.raises(ValueError, match="non-empty"):
            Trajectory({Hand.LEFT: ([], [], [])})

    def test_equality_is_per_column(self):
        traj = waving_trajectory(RES, 100)
        assert traj == Trajectory(dict(traj.tracks))
        assert traj != Trajectory({Hand.LEFT: traj.tracks[Hand.LEFT]})
        t, x, y = traj.tracks[Hand.RIGHT]
        assert traj != Trajectory({Hand.LEFT: traj.tracks[Hand.LEFT], Hand.RIGHT: (t, x, y + 1e-9)})
        assert traj != traj.tracks

    def test_shifted_moves_every_time(self):
        traj = waving_trajectory(RES, 100)
        later = traj.shifted(3_600_000)
        assert list(later.tracks) == list(traj.tracks)
        for (t, x, y), (t2, x2, y2) in zip(traj.tracks.values(), later.tracks.values()):
            assert (t2 - t == 3_600_000).all()
            assert np.array_equal(x2, x) and np.array_equal(y2, y)
        assert later.shifted(-3_600_000) == traj
        with pytest.raises(ValueError, match="must not be negative"):
            traj.shifted(-1)

    @given(st.data())
    def test_first_outside_is_earliest_offender(self, data):
        res = Resolution(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        coord = st.floats(-5.0, 45.0) | st.just(float("nan"))
        tracks = {}
        for hand in data.draw(st.sampled_from([[Hand.LEFT], [Hand.RIGHT, Hand.LEFT]])):
            ts = sorted(data.draw(st.sets(st.integers(0, 30), min_size=1, max_size=6)))
            tracks[hand] = (ts, [data.draw(coord) for _ in ts], [data.draw(coord) for _ in ts])
        traj = Trajectory(tracks)
        # a scan of the samples in (t, hand) order
        want = None
        for t, hand, x, y in sorted((t, hand.value, x, y) for hand, cols in tracks.items()
                                    for t, x, y in zip(*cols)):
            if not (0 <= x < res.width and 0 <= y < res.height):
                want = (t, x, y)
                break
        got = traj.first_outside(res)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0] and isinstance(got[0], int)
            np.testing.assert_array_equal(got[1:], want[1:])

    @given(st.data())
    def test_position_at_matches_interp_over_samples(self, data):
        hands = data.draw(st.sampled_from([[Hand.LEFT], [Hand.RIGHT, Hand.LEFT]]))
        tracks = {hand: data.draw(hand_samples()) for hand in hands}
        traj = Trajectory(tracks)
        assert list(traj.tracks) == hands
        lo, hi = traj.span_us()
        every_t = [t for ts, _, _ in tracks.values() for t in ts]
        assert (lo, hi) == (min(every_t), max(every_t))
        for hand, (ts, xs, ys) in tracks.items():
            # both clamped ends, every sample time and points in between
            for t in [ts[0] - 1000, ts[0], ts[-1], ts[-1] + 1000, *data.draw(
                st.lists(st.integers(lo - 2000, hi + 2000), max_size=5)
            ), *ts]:
                x, y = traj.position_at(hand, t)
                assert x == np.interp(t, ts, xs)
                assert y == np.interp(t, ts, ys)

    def test_waving_stays_in_bounds(self):
        traj = waving_trajectory(RES, 4000)
        for _, x, y in traj.tracks.values():
            assert ((0 <= x) & (x < RES.width) & (0 <= y) & (y < RES.height)).all()

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


def oracle_synth(traj, resolution, seed, blob_radius=8.0, rate_scale=1.0):
    """Reference synthesizer, written for clarity over speed: positions
    interpolated from the samples at every 1 ms step, the change region
    from a full-frame scan of the previous micro-frame, events where the
    change reaches 0.05, one global stable sort."""
    contrast_threshold, micro_step_us = 0.05, 1000

    def position(hand, t):
        ts, xs, ys = traj.tracks[hand]
        return float(np.interp(t, ts, xs)), float(np.interp(t, ts, ys))

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
    hands = list(traj.tracks)
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


def stretched(samples, factor):
    """(t, x, y) columns with every time multiplied by factor."""
    t, x, y = samples
    return [factor * v for v in t], x, y


@st.composite
def synth_cases(draw):
    """(resolution, tracks, synthesis parameters, until_us) for one or two
    hands anywhere on a sensor up to 400 px wide, so that the hands' boxes
    are apart in some cases and meet in others.  Times stretched 4-fold
    span several batches."""
    res = Resolution(draw(st.integers(20, 400)), draw(st.integers(16, 48)))
    hands = draw(st.sampled_from([[Hand.LEFT], [Hand.LEFT, Hand.RIGHT]]))
    tracks = {hand: stretched(draw(hand_samples(res.width, res.height)), draw(st.sampled_from([1, 4])))
              for hand in hands}
    params = dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        blob_radius=draw(st.floats(1.0, 15.0)),
        rate_scale=draw(st.floats(0.0, 4.0)),
    )
    lo, hi = min(t[0] for t, _, _ in tracks.values()), max(t[-1] for t, _, _ in tracks.values())
    return res, tracks, params, draw(st.integers(lo - 1000, hi + 3000))


def two_hands(left, right, times=(0, 6_000, 13_000)):
    """Tracks of two hands that each move through the given (x, y) points."""
    return {hand: (list(times), [p[0] for p in points], [p[1] for p in points])
            for hand, points in ((Hand.LEFT, left), (Hand.RIGHT, right))}


STEADY = dict(seed=5, blob_radius=4.0, rate_scale=2.0)


@st.composite
def shared_render_cases(draw):
    """(resolution, two-hand tracks, rendering parameters, segments) where
    each segment is (shift, seed, steps): the first stops before the
    motion's end, the second inside a batch before the first's end, and
    the third runs the whole motion.  Times stretched 4-fold span
    several batches."""
    res = Resolution(draw(st.integers(20, 200)), draw(st.integers(16, 48)))
    factor = draw(st.sampled_from([1, 4]))
    tracks = {hand: stretched(draw(hand_samples(res.width, res.height)), factor) for hand in (Hand.LEFT, Hand.RIGHT)}
    params = dict(
        blob_radius=draw(st.floats(1.0, 12.0)),
        # above 12.75 a pixel's count can pass 255
        rate_scale=draw(st.floats(0.0, 4.0) | st.floats(12.0, 16.0)),
    )
    batch = events._BATCH_STEPS
    t = [c[0] for c in tracks.values()]
    n_steps = -(-(max(x[-1] for x in t) - min(x[0] for x in t)) // events.MICRO_STEP_US)
    assume(n_steps >= 3)
    short = draw(st.integers(1, n_steps - 2).filter(lambda n: n % batch))
    steps = (draw(st.integers(short + 1, n_steps - 1)), short, n_steps)
    return res, tracks, params, [(draw(st.integers(0, 2**52)), draw(st.integers(0, 2**32 - 1)), n)
                                 for n in steps]


class TestSynthHandEvents:
    @settings(max_examples=60, deadline=None)
    @given(synth_cases())
    # Boxes apart: each hand on a canvas of its own.
    @example((Resolution(400, 48), two_hands([(40.5, 20.2), (52.3, 24.9), (47.0, 22.0)],
                                             [(330.7, 25.1), (318.2, 20.6), (325.0, 30.0)]), STEADY, 9_100))
    # Boxes that meet around disks that do not touch: one canvas for both.
    @example((Resolution(120, 40), two_hands([(40.3, 20.1), (42.8, 21.7), (41.0, 19.5)],
                                             [(52.6, 19.8), (54.9, 21.3), (53.3, 22.4)]), STEADY, 4_000))
    # Disks that overlap, as the hands cross.
    @example((Resolution(120, 40), two_hands([(40.3, 20.1), (60.8, 21.7), (80.0, 19.5)],
                                             [(80.6, 19.8), (60.2, 20.3), (40.3, 22.4)]),
              dict(STEADY, blob_radius=8.5), 11_000))
    # Each hand clipped at two sensor edges: left and top, right and bottom.
    @example((Resolution(200, 30), two_hands([(0.4, 0.3), (3.9, 2.2), (1.2, 0.0)],
                                             [(199.6, 29.7), (195.1, 27.4), (198.8, 29.9)]), STEADY, 7_350))
    # 1 ms steps over 160 ms: five batches, cut inside the third.
    @example((Resolution(160, 40), two_hands([(20.5, 12.0), (90.2, 25.5), (130.0, 20.1)],
                                             [(140.4, 30.2), (70.7, 14.9), (25.0, 22.6)], times=(0, 68_000, 160_000)),
              STEADY, 84_520))
    def test_equals_oracle(self, case):
        res, tracks, params, until = case
        traj = Trajectory(tracks)
        want = oracle_synth(traj, res, **params)
        got = synth_hand_events(traj, res, **params)
        assert got.resolution == res
        assert got == want
        cut = synth_hand_events(traj, res, until_us=until, **params)
        assert cut == want[want.t < until]

    @settings(max_examples=40, deadline=None)
    @given(shared_render_cases())
    # Five batches of 1 ms steps with crossing hands: the first segment
    # ends inside its fourth batch, the second inside its third.
    @example((Resolution(160, 40), two_hands([(20.5, 12.0), (90.2, 25.5), (130.0, 20.1)],
                                             [(140.4, 30.2), (70.7, 14.9), (25.0, 22.6)], times=(0, 68_000, 160_000)),
              dict(blob_radius=6.5, rate_scale=2.0),
              [(7, 1, 100), (2**52, 2, 70), (123_456_789, 3, 160)]))
    def test_segments_sharing_a_render_equal_cold_calls(self, case):
        res, tracks, params, segments = case
        traj = Trajectory(tracks)
        t_min = traj.span_us()[0]
        batch = events._BATCH_STEPS
        render = {}
        with mock.patch.object(events, "_changed_pixels", wraps=events._changed_pixels) as draws:
            for i, (shift, seed, n) in enumerate(segments):
                moved = traj.shifted(shift)
                # The last of n steps starts before until.
                until = shift + t_min + (n - 1) * events.MICRO_STEP_US + 1
                before = draws.call_count
                got = synth_hand_events(moved, res, seed, until_us=until, render=render, **params)
                new_draws = draws.call_count - before
                assert got == synth_hand_events(moved, res, seed, until_us=until, **params)
                want = oracle_synth(moved, res, seed, **params)
                assert got == want[want.t < until]
                # The first segment draws its batches, the second none; the
                # third draws the rest and the first's last if it is cut short.
                first = segments[0][2]
                assert new_draws == [-(-first // batch), 0, -(-n // batch) - first // batch][i]
        assert len(render) == 1
        # The same positions at other times are another motion, with a render of its own.
        slow = Trajectory({hand: (2 * t, x, y) for hand, (t, x, y) in traj.tracks.items()})
        assert synth_hand_events(slow, res, 1, render=render, **params) == synth_hand_events(slow, res, 1, **params)
        assert len(render) == 2

    def test_radius_past_the_diagonal_draws_nothing(self, monkeypatch):
        # Every on-sensor pixel lies inside every disk: no frame differs.
        res = Resolution(30, 40)
        traj = Trajectory({Hand.LEFT: ([0, 9_000], [29.9, 10.0], [39.8, 12.0]),
                           Hand.RIGHT: ([0, 4_000, 9_000], [29.95, 20.2, 5.1], [39.95, 30.7, 8.3])})
        # A hair inside the diagonal, the far corner's pixel still changes
        # as the hands leave the opposite corner.
        near = synth_hand_events(traj, res, seed=2, blob_radius=50.0)
        assert near == oracle_synth(traj, res, seed=2, blob_radius=50.0) and len(near) > 0

        def no_drawing(*args):
            raise AssertionError("drew frames no pixel of which can change")

        monkeypatch.setattr(events, "_changed_pixels", no_drawing)
        for radius in (50.5, 1e9):
            got = synth_hand_events(traj, res, seed=2, blob_radius=radius)
            assert got == oracle_synth(traj, res, seed=2, blob_radius=radius) == EventStream.empty(res)

    def test_batch_edges_equal_oracle(self):
        # Two hands on the full sensor: the left one starts clipped at the
        # frame edge, and they cross, so their disks overlap.  1 ms steps
        # batch into 32 ms spans, which no 10 ms tracker window lines up
        # with, over two batches; the cut falls inside the first.
        traj = Trajectory({
            Hand.LEFT: ([0, 50_000], [3.0, 70.0], [88.0, 96.0]),
            Hand.RIGHT: ([0, 50_000], [60.0, 12.0], [92.0, 90.0]),
        })
        params = dict(seed=21, rate_scale=2.0)
        want = oracle_synth(traj, RES, **params)
        got = synth_hand_events(traj, RES, **params)
        assert got == want
        assert got.x.min() == 0 and len(got) > 10_000
        cut = synth_hand_events(traj, RES, until_us=17_850, **params)
        assert cut == want[want.t < 17_850]
        assert 14_000 < cut.t.max() < 17_850

    def test_stop_time_keeps_prefix(self):
        traj = waving_trajectory(RES, 60)
        full = synth_hand_events(traj, RES, seed=4)
        assert np.all(np.diff(full.t.astype(np.int64)) >= 0)
        for until in (0, 1, 20_000, 20_350, 59_999, 60_000, 10**9):
            cut = synth_hand_events(traj, RES, seed=4, until_us=until)
            assert cut == full[full.t < until]

    def test_stationary_blob_emits_nothing(self):
        traj = Trajectory({Hand.LEFT: ([0, 10_000, 20_000], [50.0] * 3, [50.0] * 3)})
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
        traj = Trajectory({Hand.LEFT: ([0, 50_000], [60.0, 110.0], [90.0, 90.0])})
        stream = synth_hand_events(traj, RES, seed=2, rate_scale=2.0)
        assert len(stream) > 0
        mid = stream.t > 20_000
        xs = stream.x[mid].astype(float)
        ps = stream.p[mid]
        assert xs[ps > 0].mean() > xs[ps < 0].mean()

    def test_event_count_follows_differencing_rule(self):
        # one micro-step jump: per-pixel count is floor(rate*|delta|/threshold)
        traj = Trajectory({Hand.LEFT: ([0, 1000], [40.0, 43.0], [40.0, 40.0])})
        radius, thresh, rate = 5.0, 0.05, 1.0
        stream = synth_hand_events(traj, RES, seed=3, blob_radius=radius, rate_scale=rate)

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
        traj = Trajectory({Hand.LEFT: ([0], [500.0], [50.0])})
        with pytest.raises(ValueError, match=r"t=0 \(500.0,50.0\) outside 240x180"):
            synth_hand_events(traj, RES, seed=1)

    @pytest.mark.parametrize("name, value", [
        ("blob_radius", float("inf")), ("blob_radius", float("nan")), ("blob_radius", -1.0), ("blob_radius", 0.0),
        ("rate_scale", float("inf")), ("rate_scale", float("nan")), ("rate_scale", -1.0),
    ])
    def test_bad_parameter_refused_by_name(self, name, value):
        traj = waving_trajectory(RES, 20)
        with pytest.raises(ValueError, match=rf"^bad synthesis parameters: {name} must be .*, got {value}$"):
            synth_hand_events(traj, RES, seed=1, **{name: value})

    def test_memory_follows_events_not_sensor_size(self):
        # The same two-hand motion, in pixels, with the hands at the same
        # fractions of a small and of a large sensor.
        def peak_bytes(res):
            traj = Trajectory({hand: ([0, 20_000, 40_000], [fx * res.width + dx for dx in (0.0, 25.3, 9.1)],
                                      [0.5 * res.height + dy for dy in (0.0, 6.2, -4.4)])
                               for hand, fx in ((Hand.LEFT, 0.28), (Hand.RIGHT, 0.72))})
            tracemalloc.start()
            try:
                stream = synth_hand_events(traj, res, seed=1, rate_scale=2.0)
                return len(stream), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(Resolution(240, 180)), peak_bytes(Resolution(2000, 1500))
        assert small[0] > 50_000 and abs(large[0] - small[0]) < 0.01 * small[0]
        assert large[1] <= 1.5 * small[1]


def unflagged(stream):
    """A stream of copies of the stream's columns, which is checked in full."""
    return EventStream(*(np.array(getattr(stream, c)) for c in "txyp"), stream.resolution)


@st.composite
def sorted_valid_cases(draw):
    """(resolution, tracks, until_us or None) for one or two hands
    anywhere on a sensor from the chip's size up to 640x480."""
    res = Resolution(draw(st.integers(CHIP.width, 640)), draw(st.integers(CHIP.height, 480)))
    hands = draw(st.sampled_from([[Hand.LEFT], [Hand.LEFT, Hand.RIGHT]]))
    tracks = {hand: draw(hand_samples(res.width, res.height)) for hand in hands}
    lo, hi = min(t[0] for t, _, _ in tracks.values()), max(t[-1] for t, _, _ in tracks.values())
    return res, tracks, draw(st.none() | st.integers(lo - 1000, hi + 3000))


# A hand clipped at the left and bottom edges of a chip-sized sensor.
CLIPPED = (CHIP, {Hand.LEFT: ([0, 6_000, 13_000], [0.3, 4.1, 1.2], [64.7, 60.2, 64.9])}, 9_100)


def synth_case(case, seed):
    res, tracks, until = case
    return synth_hand_events(Trajectory(tracks), res, seed, rate_scale=2.0, until_us=until)


class TestSortedValid:
    @settings(max_examples=25, deadline=None)
    @given(sorted_valid_cases(), st.integers(0, 2**32 - 1))
    @example(CLIPPED, 3)
    def test_synthesized_stream_is_flagged_truthfully(self, case, seed):
        stream = synth_case(case, seed)
        assert stream.sorted_valid
        for c in "txyp":
            column = getattr(stream, c)
            with pytest.raises(ValueError):
                column[:1] = 1
            with pytest.raises(ValueError):
                column.flags.writeable = True
        plain = unflagged(stream)
        assert not plain.sorted_valid
        plain.validate()
        assert (plain.t[1:] >= plain.t[:-1]).all()

    @pytest.fixture
    def synthesized(self):
        stream = synth_hand_events(waving_trajectory(RES, 60), RES, seed=5)
        assert len(stream) > 100
        return stream

    def test_contiguous_slice_keeps_the_flag(self, synthesized):
        plain = unflagged(synthesized)
        n = len(synthesized)
        for key in (slice(10, n // 2), slice(n // 2, None), slice(-7, None), slice(3, 40, 1), slice(0, 0)):
            part = synthesized[key]
            assert part.sorted_valid and not part.t.flags.writeable
            assert part == plain[key]

    @pytest.mark.parametrize("derive", [
        lambda s: s[s.p > 0],
        lambda s: s[np.arange(0, len(s), 3)],
        lambda s: s[5:80:3],
        lambda s: s[::-1],
        lambda s: unflagged(s[::-1]).time_sorted(),
        lambda s: add_noise_events(s, 0.3, seed=2),
        lambda s: EventStream(s.t, s.x, s.y, s.p, s.resolution),
        lambda s: decode_evt1(encode_evt1(s)),
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.deepcopy,
    ], ids=["mask", "index", "strided", "reversed", "time_sorted", "noise", "columns", "evt1", "pickle", "deepcopy"])
    def test_every_other_stream_starts_unflagged(self, synthesized, derive):
        derived = derive(synthesized)
        assert not derived.sorted_valid
        derived.validate()

    @pytest.mark.parametrize("name", ["t", "x", "y", "p", "resolution"])
    def test_rebinding_clears_the_flag(self, synthesized, name):
        value = getattr(synthesized, name)
        setattr(synthesized, name, value if name == "resolution" else np.array(value))
        assert not synthesized.sorted_valid
        synthesized.validate()

    def test_a_rebound_resolution_is_checked(self, synthesized):
        assert synthesized.x.max() >= 100
        synthesized.resolution = Resolution(100, 100)
        with pytest.raises(StreamError):
            synthesized.validate()

    def test_flag_skips_the_scans(self, synthesized, monkeypatch):
        assert synthesized.time_sorted() is synthesized

        def no_scan(*args):
            raise AssertionError("scanned a sorted_valid stream")

        monkeypatch.setattr(events, "_check_pixels", no_scan)
        synthesized.validate()
        encode_evt1(synthesized)
        with pytest.raises(AssertionError):
            unflagged(synthesized).validate()

    @settings(max_examples=15, deadline=None)
    # 7.5 ms windows end inside synthesis' 1 ms steps.
    @given(sorted_valid_cases(), st.integers(0, 2**32 - 1), st.integers(500, 12_000))
    @example(CLIPPED, 3, 7_500)
    def test_frames_equal_an_unflagged_copy(self, case, seed, window_us):
        stream = synth_case(case, seed)
        plain = unflagged(stream)
        lo, hi = stream.span_us()
        for t0 in range(max(lo - window_us // 2, 0), hi + 1, window_us):
            t1 = t0 + window_us
            # The window masked out of the whole stream, and cut out of it
            # as HandTracker.run cuts it.
            i0, i1 = np.searchsorted(stream.t, np.array([t0, t1], np.uint64))
            assert stream[i0:i1].sorted_valid
            for target in (stream.resolution, CHIP):
                np.testing.assert_array_equal(frame_accumulate(stream, t0, t1, target),
                                              frame_accumulate(plain, t0, t1, target))
                np.testing.assert_array_equal(frame_accumulate(stream[i0:i1], t0, t1, target),
                                              frame_accumulate(plain[i0:i1], t0, t1, target))


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

    @pytest.mark.parametrize("width, height", [(0, 180), (240, 0), (0, 0)])
    def test_empty_sensor_rejected(self, width, height):
        header = b"EVT1" + struct.pack("<HHI", width, height, 0)
        for data in (header, header + struct.pack("<QHHb", 7, 0, 0, 1) + bytes(3)):
            with pytest.raises(CodecError, match=f"resolution must be positive, got {width}x{height}"):
                decode_evt1(data)

    def test_out_of_bounds_coordinates_rejected(self):
        good = encode_evt1(stream_of([(1, 1, 1, 1)], Resolution(4, 4)))
        bad = bytearray(good)
        bad[12 + 8] = 200  # x coordinate beyond the declared width
        with pytest.raises(CodecError):
            decode_evt1(bytes(bad))
