"""Event data model, frame accumulation, downsampling, synthetic
generation, and the EVT1 codec."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evtheremin.events import (
    CodecError,
    Event,
    EventStream,
    Frame,
    Hand,
    Resolution,
    StreamError,
    Trajectory,
    TrajectorySample,
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


def stream_of(triples, res=RES):
    return EventStream.from_events(
        [Event(t, x, y, p) for t, x, y, p in triples], res
    )


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(StreamError):
            Event(-1, 0, 0, 1)

    def test_bad_polarity_rejected(self):
        with pytest.raises(StreamError):
            Event(0, 0, 0, 0)
        with pytest.raises(StreamError):
            Event(0, 0, 0, 2)

    def test_out_of_bounds_event_named_in_error(self):
        s = EventStream.from_arrays([0], [240], [0], [1], RES)
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
        s = EventStream.from_arrays(
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
        s = EventStream.from_arrays([1], [0], [500], [1], RES)
        with pytest.raises(StreamError):
            frame_accumulate(s, 0, 10)


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
        np.testing.assert_array_equal(f.cells, g.cells)

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
        xmap = np.arange(width) * target.width // width
        ymap = np.arange(height) * target.height // height
        expect = np.zeros((target.height, target.width), dtype=np.int64)
        np.add.at(expect, (ymap[:, None], xmap[None, :]), cells)
        got = frame_downsample(Frame(Resolution(width, height), cells, 0, 1), target).cells
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expect)

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
            ],
            "px",
        )
        x, y = traj.position_at(Hand.LEFT, 500)
        assert (x, y) == (15.0, 30.0)

    def test_json_roundtrip(self):
        traj = waving_trajectory(RES, 100)
        back = Trajectory.from_json(traj.to_json())
        assert back.unit == traj.unit
        assert len(back.samples) == len(traj.samples)
        assert back.samples[3] == traj.samples[3]

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


class TestSynthHandEvents:
    def test_stationary_blob_emits_nothing(self):
        traj = Trajectory(
            [TrajectorySample(t, Hand.LEFT, 50.0, 50.0) for t in (0, 10_000, 20_000)],
            "px",
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
            ],
            "px",
        )
        stream = synth_hand_events(traj, RES, seed=2, rate_scale=2.0)
        assert len(stream) > 0
        mid = stream.data["t"] > 20_000
        xs = stream.data["x"][mid].astype(float)
        ps = stream.data["p"][mid]
        assert xs[ps > 0].mean() > xs[ps < 0].mean()

    def test_event_count_follows_differencing_rule(self):
        # one micro-step jump: per-pixel count is floor(rate*|delta|/threshold)
        traj = Trajectory(
            [
                TrajectorySample(0, Hand.LEFT, 40.0, 40.0),
                TrajectorySample(1000, Hand.LEFT, 43.0, 40.0),
            ],
            "px",
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
        for e in stream.data:
            got[e["y"], e["x"]] += 1
        np.testing.assert_array_equal(got, expect)

    def test_bounds_checked(self):
        traj = Trajectory([TrajectorySample(0, Hand.LEFT, 500.0, 50.0)], "px")
        with pytest.raises(ValueError):
            synth_hand_events(traj, RES, seed=1)

    def test_meter_unit_rejected(self):
        traj = Trajectory([TrajectorySample(0, Hand.LEFT, 0.5, 0.5)], "m")
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
        assert np.all(np.diff(noisy.data["t"].astype(np.int64)) >= 0)


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
