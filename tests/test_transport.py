"""Wire profiles, channel impairment model, and the re-sequencing receiver."""

import math
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtheremin
import safe_oracle
from evtheremin import transport
from evtheremin.sigma_delta import GradedSpike
from evtheremin.transport import (
    BadCrcError,
    BadMagicError,
    BadVersionError,
    ChannelConfig,
    DecodeError,
    LinkStats,
    SafeFrame,
    SafeReceiver,
    TrailingDataError,
    TransportError,
    TruncatedError,
    _bounded_reorder,
    channel_transmit,
    crc32,
    dump_frame,
    raw_encode,
    raw_overhead_bytes_per_event,
    safe_decode,
    safe_encode,
    safe_overhead_bytes_per_event,
)


def scan_reorder(pending, window):
    """The k-bounded merge as a linear scan: while more than `window`
    units wait, emit the one with the least (arrival, index)."""
    out, buf = [], []
    for item in pending:
        buf.append(item)
        if len(buf) > window:
            out.append(buf.pop(min(range(len(buf)), key=lambda k: buf[k][:2])))
    while buf:
        out.append(buf.pop(min(range(len(buf)), key=lambda k: buf[k][:2])))
    return out


def per_draw_transmit(payloads, cfg, t_send):
    """The channel as a loop that calls the generator once per draw, in
    ChannelConfig's documented order: (time_us, payload, sent_index) per
    delivery, in arrival order."""
    rng = np.random.default_rng(cfg.seed)
    pending = []
    for i, payload in enumerate(payloads):
        if rng.random() < cfg.loss_p:
            continue
        data = payload
        if cfg.bitflip_p > 0:
            buf = bytearray(payload)
            for j in np.flatnonzero(rng.random(len(payload)) < cfg.bitflip_p):
                buf[j] ^= 1 << int(rng.integers(0, 8))
            data = bytes(buf)
        jitter = rng.random() if cfg.delay_jitter_us > 0 else 0.0
        pending.append((float(t_send[i]) + cfg.delay_base_us + jitter * cfg.delay_jitter_us, i, data))
    out, clock = [], float("-inf")
    for arrival, i, data in scan_reorder(pending, cfg.reorder_window):
        clock = max(clock, arrival)
        out.append((clock, data, i))
    return out


def as_tuples(deliveries):
    return [(d.time_us, d.payload, d.sent_index) for d in deliveries]


class CountingGenerator:
    """A numpy Generator that records the size of every random() call."""

    def __init__(self, rng, sizes):
        self._rng = rng
        self.sizes = sizes

    def random(self, size=None):
        self.sizes.append(1 if size is None else size)
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def random_calls(monkeypatch):
    """Sizes of the random() calls on generators the transport module makes."""
    sizes = []
    make = np.random.default_rng
    monkeypatch.setattr(transport.np.random, "default_rng", lambda seed: CountingGenerator(make(seed), sizes))
    return sizes


def telemetry_payloads(n=200, seed=0):
    """Hand-estimate frames: x, y and confidence of one hand, or of two on
    four frames in five."""
    rng = np.random.default_rng(seed)
    return [
        safe_encode(
            [GradedSpike(a, int(v)) for a, v in enumerate(rng.integers(300, 15_000, 6 if i % 5 else 3))],
            seq=i,
            timestamp_us=i * 10_000,
        )
        for i in range(n)
    ]


def ref_crc32(data: bytes) -> int:
    """Bit-serial reflected CRC-32, written from the polynomial."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


class TestCrc:
    def test_check_value(self):
        assert ref_crc32(b"123456789") == 0xCBF43926
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_bit_serial_reference(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 64):
            data = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            assert crc32(data) == ref_crc32(data)


class TestRawProfile:
    def test_frozen_word(self):
        # (x=3, y=2, +1) on an 86-wide grid: address 2*86+3 = 175
        spike = GradedSpike(2 * 86 + 3, 1)
        assert raw_encode([spike]) == bytes([0xAF, 0x00, 0x00, 0x01])

    def test_negative_value_sign_byte(self):
        assert raw_encode([GradedSpike(175, -1)]) == bytes([0xAF, 0x00, 0x00, 0xFF])

    def test_four_bytes_per_event(self):
        spikes = [GradedSpike(i, 1) for i in range(9)]
        assert len(raw_encode(spikes)) == 36
        assert raw_overhead_bytes_per_event() == 4.0

    def test_random_words_follow_the_layout(self):
        rng = np.random.default_rng(1)
        addresses = rng.integers(0, 1 << 24, 10_000)
        values = rng.integers(-128, 128, 10_000)
        values[values == 0] = 1
        spikes = [GradedSpike(int(a), int(v)) for a, v in zip(addresses, values)]
        words = np.frombuffer(raw_encode(spikes), dtype="<u4")
        assert words.tolist() == [(v & 0xFF) << 24 | a for a, v in zip(addresses.tolist(), values.tolist())]

    def test_encode_errors(self):
        with pytest.raises(TransportError):
            raw_encode([GradedSpike(1 << 24, 1)])
        with pytest.raises(TransportError):
            raw_encode([GradedSpike(0, 0.5)])
        with pytest.raises(TransportError):
            raw_encode([GradedSpike(0, 200)])
        # Each bad field is a TransportError, as from safe_encode, not
        # whatever int() or the bit packing would raise.
        for spike in (GradedSpike(0, math.nan), GradedSpike(0, math.inf), GradedSpike(1.5, 1)):
            with pytest.raises(TransportError):
                raw_encode([spike])



def encode(frame):
    """Wire bytes of a SafeFrame, through the public encoder."""
    spikes = [GradedSpike(a, v) for a, v, _ in frame.records]
    return safe_encode(spikes, frame.seq, frame.timestamp_us, [dt for _, _, dt in frame.records])


def pack_reference_frame(seq, timestamp, records, flags=None):
    """Independent packing of the documented layout."""
    if flags is None:
        flags = 1 if records else 0
    body = struct.pack("<HBBIQH", 0xAE52, 1, flags, seq, timestamp, len(records))
    for addr, value, dt in records:
        body += struct.pack("<IhH", addr, value, dt)
    return body + struct.pack("<I", ref_crc32(body))


class TestSafeEncode:
    def test_frozen_bytes_match_reference_packing(self):
        spikes = [GradedSpike(175, 1), GradedSpike(300, -2)]
        got = safe_encode(spikes, seq=5, timestamp_us=1000, offsets_us=[0, 10])
        want = pack_reference_frame(5, 1000, [(175, 1, 0), (300, -2, 10)])
        assert got == want

    def test_heartbeat_is_22_bytes(self):
        data = safe_encode([], seq=0, timestamp_us=0)
        assert len(data) == 22
        assert data == pack_reference_frame(0, 0, [])
        assert data[3] == 0  # flags: no payload
        assert safe_decode(data) == SafeFrame(0, 0, [])

    def test_size_formula(self):
        for n in (1, 10, 100, 1000):
            spikes = [GradedSpike(i, 1) for i in range(n)]
            data = safe_encode(spikes, seq=0, timestamp_us=0)
            assert len(data) == 22 + 8 * n

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for seq in (0, 7, 0xFFFFFFFF):
            n = int(rng.integers(0, 40))
            dts = np.sort(rng.integers(0, 1000, n))
            records = [
                (int(rng.integers(0, 1 << 20)), int(rng.integers(1, 100)), int(dt)) for dt in dts
            ]
            frame = SafeFrame(seq, int(rng.integers(0, 1 << 40)), records)
            assert safe_decode(encode(frame)) == frame

    def test_encode_validation(self):
        one = [GradedSpike(0, 1)]
        cases = [
            (one, 0, 0, [5, 6]),  # one offset per spike
            (one * 2, 0, 0, [10, 5]),  # decreasing offsets
            ([SimpleNamespace(address=0, value=0)], 0, 0, None),  # GradedSpike refuses zero
            ([GradedSpike(0, 40_000)], 0, 0, None),  # value past i16
            ([GradedSpike(0, -40_000)], 0, 0, None),
            ([GradedSpike(1 << 32, 1)], 0, 0, None),  # address past u32
            (one, 0, 0, [1 << 16]),  # offset past u16
            (one, 0, 0, [-1]),
            ([], 1 << 32, 0, None),  # seq past u32
            ([], -1, 0, None),
            ([], 0, 1 << 64, None),  # timestamp past u64
            ([], 0, -1, None),
            (one * 65_536, 0, 0, None),  # count past u16
        ]
        for spikes, seq, timestamp, offsets in cases:
            with pytest.raises(TransportError):
                safe_encode(spikes, seq, timestamp, offsets)

    @pytest.mark.parametrize("value", [1.7, 0.5, -2.25, float("nan"), float("inf")])
    def test_non_integral_value_rejected(self, value):
        # Not rounded onto the wire, and not reported as zero-valued.
        with pytest.raises(TransportError, match="not an integer"):
            safe_encode([GradedSpike(3, value)], 0, 0)

    @pytest.mark.parametrize("dt", [1.5, 0.25, float("nan"), float("inf"), 4.0])
    def test_float_offset_rejected(self, dt):
        # Not truncated onto the wire: 1.5 used to decode as offset 1.
        with pytest.raises(TransportError, match="not an integer"):
            safe_encode([GradedSpike(1, 1)], 0, 0, [dt])

    def test_integral_float_value_accepted(self):
        assert safe_encode([GradedSpike(3, 2.0)], 0, 0) == safe_encode([GradedSpike(3, 2)], 0, 0)


@st.composite
def safe_frames(draw):
    """Any valid frame: u32 seq, u64 timestamp, 0-300 records with
    nonzero i16 values and sorted u16 offsets."""
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),
                st.integers(-32768, 32767).filter(bool),
                st.integers(0, 0xFFFF),
            ),
            max_size=300,
        )
    )
    dts = sorted(dt for _, _, dt in records)
    records = [(a, v, dt) for (a, v, _), dt in zip(records, dts)]
    return SafeFrame(
        draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 0xFFFFFFFFFFFFFFFF)), records
    )


# Arbitrary bytes, and arbitrary bytes behind a valid magic and version so
# that the decoder gets past its first two checks.
wire_bytes = st.one_of(
    st.binary(max_size=400), st.binary(max_size=400).map(lambda b: b"\x52\xae\x01" + b)
)


# Frames with a valid CRC whose records may be zero-valued or out of
# order, and whose flags may disagree with the count.
crc_valid_bytes = st.builds(
    lambda seq, records, flags: pack_reference_frame(seq, 0, records, flags),
    st.integers(0, 0xFFFFFFFF),
    st.lists(st.tuples(st.integers(0, 9), st.integers(-2, 2), st.integers(0, 4)), max_size=8),
    st.none() | st.integers(0, 255),
)


@st.composite
def bad_encode_inputs(draw):
    """(spikes, seq, timestamp_us, offsets_us) for safe_encode, each
    field valid or not: values non-integral, nan, inf, zero or past i16;
    addresses past u32; offsets decreasing, negative, float, or one too
    many or too few."""
    values = st.one_of(
        st.integers(-32768, 32767),
        st.sampled_from([0.0, -0.0, 2.0, 0.5, -2.25, math.nan, math.inf, -math.inf]),
        st.integers(32768, 1 << 40),
        st.integers(-(1 << 40), -32769),
    )
    addresses = st.integers(0, 0xFFFFFFFF) | st.integers(1 << 32, 1 << 40) | st.integers(-3, -1)
    spikes = draw(st.lists(st.builds(SimpleNamespace, address=addresses, value=values), max_size=6))
    offsets = st.integers(0, 0xFFFF) | st.integers(-3, -1) | st.floats(allow_nan=True) | st.integers(1 << 16, 1 << 17)
    n = len(spikes) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    offsets_us = draw(st.none() | st.lists(offsets, min_size=max(n, 0), max_size=max(n, 0)))
    if offsets_us is not None and draw(st.booleans()):
        offsets_us.sort(key=lambda dt: math.inf if dt != dt else dt)  # mostly valid: non-decreasing
    return spikes, draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 1 << 40)), offsets_us


def outcome(call, *args):
    """What a codec call returns, or the type and message of the
    TransportError it raises."""
    try:
        return call(*args)
    except TransportError as exc:
        return type(exc), str(exc)


class TestSafeProperties:
    @settings(deadline=None)
    @given(safe_frames())
    def test_roundtrip_matches_reference_packing(self, f):
        data = encode(f)
        assert data == pack_reference_frame(f.seq, f.timestamp_us, f.records)
        assert safe_decode(data) == f

    @given(st.one_of(wire_bytes, crc_valid_bytes))
    def test_arbitrary_bytes_raise_only_decode_error(self, data):
        # The same frame, or the same DecodeError subclass with the same
        # message, as the reference: a bad record is found in one pass,
        # and its index after.
        assert outcome(safe_decode, data) == outcome(safe_oracle.safe_decode, data)
        try:
            f = safe_decode(data)
        except DecodeError:
            return
        assert data == encode(f)

    @settings(deadline=None)
    @given(bad_encode_inputs())
    def test_encode_outcome_matches_reference(self, args):
        # The same bytes, or the same TransportError message, with or
        # without offsets: the first bad field of the first bad record.
        assert outcome(safe_encode, *args) == outcome(safe_oracle.safe_encode, *args)

    @settings(deadline=None)
    @given(safe_frames(), st.data())
    def test_any_single_bit_flip_is_a_decode_error(self, f, data):
        payload = bytearray(encode(f))
        bit = data.draw(st.integers(0, len(payload) * 8 - 1))
        payload[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(DecodeError):
            safe_decode(bytes(payload))


class TestSafeDecode:
    def good(self):
        return safe_encode([GradedSpike(10, 3), GradedSpike(11, -3)], 9, 500, [0, 4])

    def test_bad_magic(self):
        data = bytearray(self.good())
        data[0] ^= 0x01
        with pytest.raises(BadMagicError) as e:
            safe_decode(bytes(data))
        assert e.value.kind == "bad_magic"

    def test_bad_version(self):
        data = bytearray(self.good())
        data[2] = 9
        data = data[:-4] + struct.pack("<I", ref_crc32(bytes(data[:-4])))
        with pytest.raises(BadVersionError) as e:
            safe_decode(bytes(data))
        assert e.value.kind == "bad_version"

    def test_record_corruption_fails_crc(self):
        data = bytearray(self.good())
        data[20] ^= 0x40  # inside the first record
        with pytest.raises(BadCrcError) as e:
            safe_decode(bytes(data))
        assert e.value.kind == "bad_crc"

    def test_truncated(self):
        data = self.good()
        with pytest.raises(TruncatedError) as e:
            safe_decode(data[:-1])
        assert e.value.kind == "truncated"
        with pytest.raises(TruncatedError):
            safe_decode(data[:10])

    def test_trailing_data(self):
        with pytest.raises(TrailingDataError) as e:
            safe_decode(self.good() + b"\x00")
        assert e.value.kind == "trailing_data"

    def test_flags_count_consistency(self):
        data = pack_reference_frame(0, 0, [(5, 1, 0)], flags=0)
        with pytest.raises(DecodeError, match="flags"):
            safe_decode(data)
        data = pack_reference_frame(0, 0, [], flags=1)
        with pytest.raises(DecodeError):
            safe_decode(data)

    def test_zero_record_value_rejected(self):
        data = pack_reference_frame(0, 0, [(5, 0, 0)])
        with pytest.raises(DecodeError, match="zero"):
            safe_decode(data)

    def test_decreasing_dt_rejected(self):
        data = pack_reference_frame(0, 0, [(5, 1, 10), (6, 1, 5)])
        with pytest.raises(DecodeError, match="dt_offset"):
            safe_decode(data)

    def test_every_kind_is_distinct(self):
        kinds = {
            BadMagicError.kind,
            BadVersionError.kind,
            BadCrcError.kind,
            TruncatedError.kind,
            TrailingDataError.kind,
            DecodeError.kind,
        }
        assert len(kinds) == 6


class TestOverhead:
    def test_documented_table(self):
        assert safe_overhead_bytes_per_event(1) == pytest.approx(30.0)
        assert safe_overhead_bytes_per_event(10) == pytest.approx(10.2)
        assert safe_overhead_bytes_per_event(100) == pytest.approx(8.22)
        assert safe_overhead_bytes_per_event(1000) == pytest.approx(8.022)

    def test_decreasing_in_batch_size(self):
        values = [safe_overhead_bytes_per_event(n) for n in (1, 2, 10, 100, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_needs_a_record(self):
        with pytest.raises(ValueError):
            safe_overhead_bytes_per_event(0)


class TestChannel:
    def test_clean_fifo_link(self):
        payloads = [bytes([i]) for i in range(5)]
        out = channel_transmit(payloads, ChannelConfig(seed=0))
        assert [d.sent_index for d in out] == [0, 1, 2, 3, 4]
        assert [d.payload for d in out] == payloads

    def test_delivery_is_immutable(self):
        (dv,) = channel_transmit([b"a"], ChannelConfig(seed=0))
        for name in ("time_us", "payload", "sent_index"):
            with pytest.raises(AttributeError):
                setattr(dv, name, None)

    def test_loss_draws_replay(self):
        cfg = ChannelConfig(loss_p=0.3, seed=42)
        payloads = [bytes([i]) for i in range(200)]
        out = channel_transmit(payloads, cfg)
        rng = np.random.default_rng(42)
        kept = [i for i in range(200) if not rng.random() < 0.3]
        assert [d.sent_index for d in out] == kept

    def test_bitflip_draws_replay(self):
        cfg = ChannelConfig(bitflip_p=0.05, seed=7)
        payloads = [bytes([i] * 12) for i in range(50)]
        out = channel_transmit(payloads, cfg)
        rng = np.random.default_rng(7)
        expect = []
        for payload in payloads:
            rng.random()  # the loss draw happens even at loss_p = 0
            flips = rng.random(len(payload)) < 0.05
            buf = bytearray(payload)
            for j in np.nonzero(flips)[0]:
                buf[j] ^= 1 << int(rng.integers(0, 8))
            expect.append(bytes(buf))
        assert [d.payload for d in out] == expect
        assert any(d.payload != payloads[d.sent_index] for d in out)

    def test_fixed_delay(self):
        cfg = ChannelConfig(delay_base_us=500.0, seed=0)
        out = channel_transmit([b"a", b"b", b"c"], cfg, t_send=[0, 100, 200])
        assert [d.time_us for d in out] == [500.0, 600.0, 700.0]

    def test_jitter_bounds_and_monotone_clock(self):
        cfg = ChannelConfig(delay_base_us=500.0, delay_jitter_us=200.0, seed=3)
        t_send = list(range(0, 4000, 40))
        out = channel_transmit([b"x"] * 100, cfg, t_send=t_send)
        times = [d.time_us for d in out]
        assert all(a <= b for a, b in zip(times, times[1:]))
        for d in out:
            assert d.time_us >= t_send[d.sent_index] + 500.0

    def test_reordering_is_window_bounded(self):
        cfg = ChannelConfig(delay_jitter_us=5000.0, reorder_window=3, seed=1)
        out = channel_transmit([bytes([i]) for i in range(100)], cfg)
        order = [d.sent_index for d in out]
        assert order != sorted(order)
        # a unit may overtake at most `window` earlier-sent units, since
        # all still-unemitted earlier units share its bounded buffer
        for pos, idx in enumerate(order):
            assert idx - pos <= 3

    @settings(max_examples=300)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 250.0, 251.5, 1e4]), max_size=40),
        st.integers(0, 12),
        st.data(),
    )
    def test_reorder_equals_linear_scan(self, arrivals, window, data):
        # Few distinct arrivals, so ties are common; indices rise with
        # gaps, as units lost on the link leave them.
        gaps = data.draw(st.lists(st.integers(1, 3), min_size=len(arrivals), max_size=len(arrivals)))
        index = np.cumsum(gaps).tolist()
        pending = [(a, i, bytes([i % 256])) for a, i in zip(arrivals, index)]
        assert _bounded_reorder(list(pending), window) == scan_reorder(pending, window)

    # Blocks of uniforms drawn once must give every draw, bit indices
    # included, where the per-draw loop puts it.  Payloads up to 5,000
    # bytes fill a block alone; tens of short ones share one, so both
    # cross several blocks.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        st.sampled_from([0.0, 1e-4, 5e-3, 0.3, 1.0]),
        st.booleans(),
        st.integers(0, 12),
        st.one_of(
            st.lists(st.integers(0, 5000), max_size=8),
            st.lists(st.integers(0, 100), min_size=60, max_size=240),
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(0.0, 1.0, True, 0, [0], 1)
    # The first unit's three flips leave a buffered 32-bit half; the
    # second unit is lost, and the third unit's bit index reads that half.
    @example(0.5, 1.0, True, 2, [3, 2, 1, 4, 3, 5], 1)
    # Each unit fills a block alone.  The first unit's one flip needs a
    # bit index past its block's end; the second unit's flip reads the
    # high half of that output, drawn in the block before its own.
    @example(0.0, 1e-4, True, 0, [4095, 4095], 2)
    def test_equals_per_draw_loop(self, loss_p, bitflip_p, jittered, window, sizes, seed):
        rng = np.random.default_rng(seed)
        payloads = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in sizes]
        cfg = ChannelConfig(
            loss_p=loss_p,
            bitflip_p=bitflip_p,
            delay_base_us=500.0,
            delay_jitter_us=5000.0 if jittered else 0.0,
            reorder_window=window,
            seed=seed,
        )
        t_send = [i * 1000.0 for i in range(len(payloads))]
        assert as_tuples(channel_transmit(payloads, cfg, t_send)) == per_draw_transmit(payloads, cfg, t_send)

    def test_in_order_telemetry_draws_a_run_per_call(self, random_calls):
        payloads = telemetry_payloads()
        t_send = [i * 10_000.0 for i in range(len(payloads))]
        cfg = ChannelConfig(loss_p=0.1, bitflip_p=5e-4, delay_base_us=500.0, seed=3)
        expect = per_draw_transmit(payloads, cfg, t_send)
        per_draw = list(random_calls)
        random_calls.clear()
        got = channel_transmit(payloads, cfg, t_send)
        assert as_tuples(got) == expect
        flipped = sum(d.payload != payloads[d.sent_index] for d in got)
        assert flipped > 0 and len(per_draw) > 200
        assert len(random_calls) <= math.ceil(sum(per_draw) / 4096) + flipped
        assert max(random_calls) <= 4096
        # Each uniform is drawn once: what is left unused is less than a block.
        assert sum(random_calls) <= sum(per_draw) + 4096

    def test_runs_end_at_the_budget(self, random_calls):
        # Two draws per unit, one if it is lost.  The first block ends one
        # uniform short of a unit's two, so the second carries that one and
        # draws 4,095; the last draws what the units left need if all survive.
        cfg = ChannelConfig(loss_p=0.3, delay_jitter_us=100.0, seed=8)
        payloads = [b""] * 5000
        t_send = [0.0] * 5000
        expect = per_draw_transmit(payloads, cfg, t_send)
        random_calls.clear()
        assert as_tuples(channel_transmit(payloads, cfg, t_send)) == expect
        assert random_calls == [4096, 4095, 408]

    def test_a_unit_past_the_budget_draws_alone(self, random_calls):
        # Each block holds one unit's 5,001 uniforms.  A lost unit uses one
        # of them and a unit whose bit index lies past its block one more,
        # so the next block carries the rest and draws 1.
        cfg = ChannelConfig(loss_p=0.3, bitflip_p=1e-4, seed=4)
        payloads = [bytes(range(250)) * 20] * 12
        expect = per_draw_transmit(payloads, cfg, [0.0] * 12)
        random_calls.clear()
        assert as_tuples(channel_transmit(payloads, cfg)) == expect
        assert random_calls == [5001, 1, 5001, 1, 5001, 1, 5001, 5001, 5001, 5001, 1, 5001, 1, 5001, 5001]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_bit_indices_read_numpy_outputs(self, seed):
        # The two NumPy facts the channel's bit indices rest on: random()
        # is an output's top 53 bits, and integers(0, 8) reads the top 3
        # bits of an output's low half, then of its high half on the next
        # call, with random() calls in between.  A NumPy release that
        # changes either fails here.
        rng = np.random.default_rng(seed)
        u = np.random.default_rng(seed).random(300).tolist()
        for k in range(0, 300, 3):
            low = int(rng.integers(0, 8))
            assert rng.random() == u[k + 1]
            high = int(rng.integers(0, 8))
            assert rng.random() == u[k + 2]
            assert (low, high) == transport._bit_indices(u[k])

    def test_raw_refuses_reordering_link(self):
        cfg = ChannelConfig(reorder_window=2)
        with pytest.raises(TransportError):
            channel_transmit([b"x"], cfg, raw=True)
        channel_transmit([b"x"], ChannelConfig(), raw=True)

    def test_total_loss(self):
        out = channel_transmit([b"x"] * 10, ChannelConfig(loss_p=1.0, seed=0))
        assert out == []

    def test_deterministic(self):
        cfg = ChannelConfig(loss_p=0.2, bitflip_p=0.01, delay_jitter_us=100.0, seed=9)
        payloads = [bytes([i] * 8) for i in range(50)]
        assert channel_transmit(payloads, cfg) == channel_transmit(payloads, cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(loss_p=1.5)
        with pytest.raises(ValueError):
            ChannelConfig(delay_base_us=-1.0)
        with pytest.raises(ValueError):
            ChannelConfig(reorder_window=-1)
        # nan < 0 is false, so a range check alone lets a nan delay through.
        for name in ("delay_base_us", "delay_jitter_us"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {value!r}$"):
                    ChannelConfig(**{name: value})
        with pytest.raises(ValueError):
            channel_transmit([b"a"], ChannelConfig(), t_send=[0, 1])
        # A nan send time gave a delivery at -inf, and an inf one held an
        # in-order link's clock at inf; a lost unit's time is checked too.
        for value in (math.nan, math.inf, -math.inf):
            for loss_p in (0.0, 1.0):
                with pytest.raises(ValueError, match=f"^send time 1 must be finite, got {value!r}$"):
                    channel_transmit([b"a", b"b", b"c"], ChannelConfig(loss_p=loss_p), t_send=[0.0, value, 2.0])
        # Finite times whose sum overflows are accepted.
        assert len(channel_transmit([b"a", b"b"], ChannelConfig(), t_send=[1e308, 1e308])) == 2
        # A window that is not an int failed later, inside the reorder
        # buffer, or was taken as 1 for True.
        for value in (1.5, True, "2", -1):
            with pytest.raises(ValueError, match=re.escape(f"reorder_window must be an int >= 0, got {value!r}")):
                ChannelConfig(reorder_window=value)


def frame(seq, records=((10, 1, 0),), timestamp=1000):
    return SafeFrame(seq, timestamp, list(records))


def receive_all(frames, reorder_window=8):
    """Ingest decoded frames, then flush; returns (events, stats)."""
    rx = SafeReceiver(reorder_window)
    events = [e for f in frames for e in rx.ingest(f)]
    return events + rx.finalize(), rx.stats


class TestSafeReceiver:
    def test_in_order_delivery_with_absolute_times(self):
        events, stats = receive_all(
            [frame(0, [(10, 1, 0), (11, -2, 10)]), frame(1, [(12, 3, 5)], timestamp=2000)]
        )
        assert events == [(1000, 10, 1), (1010, 11, -2), (2005, 12, 3)]
        assert stats.delivered == 2 and stats.lost == 0

    def test_gap_counts_as_loss(self):
        # frames 0, 1, 3 arrive; 2 never does
        events, stats = receive_all([frame(0), frame(1), frame(3)])
        assert len(events) == 3
        assert stats.delivered == 3
        assert stats.lost == 1
        assert stats.duplicate_dropped == 0

    def test_out_of_order_within_window_reassembled(self):
        events, stats = receive_all([frame(0), frame(2), frame(1)])
        assert [t for t, _, _ in events] == [1000, 1000, 1000]
        assert stats.delivered == 3
        assert stats.lost == 0
        assert stats.reordered == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_order_link_reports_nothing_reordered(self, seed):
        # Frames that only wait behind a lost one arrived in send order.
        payloads = [encode(frame(i)) for i in range(200)]
        rx = SafeReceiver()
        for dv in channel_transmit(payloads, ChannelConfig(loss_p=0.05, seed=seed)):
            rx.receive_payload(dv.payload)
        rx.close(len(payloads))
        assert rx.stats.lost > 0
        assert rx.stats.reordered == 0

    def test_duplicate_dropped_once(self):
        events, stats = receive_all([frame(0), frame(1), frame(1)])
        assert stats.delivered == 2
        assert stats.duplicate_dropped == 1
        assert len(events) == 2

    def test_pending_duplicate_dropped(self):
        _, stats = receive_all([frame(0), frame(2), frame(2)])
        assert stats.duplicate_dropped == 1

    def test_stale_frame_is_duplicate(self):
        rx = SafeReceiver()
        rx.ingest(frame(0))
        rx.ingest(frame(1))
        assert rx.ingest(frame(0)) == []
        assert rx.stats.duplicate_dropped == 1

    def test_corrupted_payload_counts_and_attributes_gap(self):
        rx = SafeReceiver()
        rx.receive_payload(encode(frame(0)))
        bad = bytearray(encode(frame(1)))
        bad[8] ^= 0x10
        assert rx.receive_payload(bytes(bad)) == []
        rx.receive_payload(encode(frame(2)))
        rx.close(3)
        s = rx.stats
        assert s.corrupted_dropped == 1
        assert s.delivered == 2
        assert s.lost == 0  # the gap was the corrupted frame, not a loss
        assert s.delivered + s.lost + s.corrupted_dropped + s.duplicate_dropped == 3

    def test_close_charges_tail_losses(self):
        rx = SafeReceiver()
        rx.ingest(frame(0))
        rx.ingest(frame(1))
        rx.close(4)
        assert rx.stats.lost == 2
        assert rx.stats.delivered == 2

    def test_window_overflow_forces_advance(self):
        rx = SafeReceiver(reorder_window=1)
        rx.ingest(frame(0))
        rx.ingest(frame(2))
        out = rx.ingest(frame(3))
        assert len(out) == 2  # 2 released by force, 3 drained behind it
        rx.close(4)
        s = rx.stats
        assert s.lost == 1
        assert s.delivered + s.lost + s.corrupted_dropped + s.duplicate_dropped == 4

    def test_conservation_through_noisy_channel(self):
        n = 60
        payloads = [
            safe_encode([GradedSpike(i, 1 + i % 5)], seq=i, timestamp_us=i * 100)
            for i in range(n)
        ]
        cfg = ChannelConfig(
            loss_p=0.15, bitflip_p=0.01, delay_jitter_us=300.0, reorder_window=4, seed=13
        )
        deliveries = channel_transmit(payloads, cfg, t_send=[i * 100.0 for i in range(n)])
        rx = SafeReceiver(reorder_window=4)
        for d in deliveries:
            rx.receive_payload(d.payload)
        rx.close(n)
        s = rx.stats
        assert s.delivered + s.lost + s.corrupted_dropped + s.duplicate_dropped == n
        assert s.lost > 0 or s.corrupted_dropped > 0

    def test_stats_dict_and_overhead(self):
        s = LinkStats(bytes_sent=300, events_sent=100)
        assert s.as_dict()["bytes_sent"] == 300

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            SafeReceiver(reorder_window=-1)

    @pytest.mark.parametrize("window", [2.5, True])
    def test_window_must_be_an_int(self, window):
        with pytest.raises(ValueError, match=re.escape(f"reorder_window must be an int >= 0, got {window!r}")):
            SafeReceiver(reorder_window=window)


@st.composite
def arrival_sequences(draw):
    """(start, n, window, payloads in arrival order): n one-record frames
    from sequence `start`, often just short of the 2**32 wrap, each
    dropped, corrupted, duplicated or late by up to 12 places, so past a
    window of 0 to 8 too."""
    start = draw(st.just(0) | st.integers(0xFFFFFFFF - 40, 0xFFFFFFFF) | st.integers(0, 0xFFFFFFFF))
    n = draw(st.integers(0, 40))
    window = draw(st.integers(0, 8))
    lateness = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    out, copies = [], []
    for k in sorted(range(n), key=lambda k: (k + lateness[k], k)):
        payload = safe_encode([GradedSpike(k, 1 + k % 3)], seq=(start + k) & 0xFFFFFFFF, timestamp_us=k * 100)
        fate = draw(st.sampled_from(["deliver"] * 4 + ["drop", "corrupt", "duplicate"]))
        if fate == "corrupt":
            bit = draw(st.integers(0, len(payload) * 8 - 1))
            payload = bytearray(payload)
            payload[bit // 8] ^= 1 << (bit % 8)
            payload = bytes(payload)
        if fate != "drop":
            out.append(payload)
        if fate == "duplicate":
            copies.append(payload)
    for payload in copies:  # anywhere, so often long after the first
        out.insert(draw(st.integers(0, len(out))), payload)
    return start, n, window, out


def receiver_at(rx, start):
    """rx as if `start` frames (mod 2**32) had come before, in order."""
    rx.next_seq, rx._newest = start, (start - 1) & 0xFFFFFFFF
    return rx


@settings(deadline=None)
@given(arrival_sequences())
def test_receiver_matches_reference(case):
    # Every release and every count, the late-frame double count of
    # ROADMAP item 2 included, after every arrival and at close.
    start, n, window, arrivals = case
    rx, ref = receiver_at(SafeReceiver(window), start), receiver_at(safe_oracle.SafeReceiver(window), start)
    for payload in arrivals:
        assert rx.receive_payload(payload) == ref.receive_payload(payload)
        assert rx.stats == ref.stats
    assert rx.close(start + n) == ref.close(start + n)
    assert rx.stats == ref.stats


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a frame that arrives after a forced advance is charged as lost "
    "and then again as a duplicate",
)
@pytest.mark.parametrize("rx_window", [4, 6, 7])
def test_late_frame_counted_once(rx_window):
    # 20 ms of jitter at a 1 ms cadence delivers frames far behind the
    # receiver's window, even one 3 above the channel's.  The sums today
    # are 75, 70 and 68 of 64 sent; a window of 8 gives 64.
    n = 64
    payloads = [safe_encode([GradedSpike(i, 1 + i % 5)], seq=i, timestamp_us=i * 1000) for i in range(n)]
    cfg = ChannelConfig(loss_p=0.1, delay_jitter_us=20_000, reorder_window=4, seed=5)
    rx = SafeReceiver(reorder_window=rx_window)
    for d in channel_transmit(payloads, cfg, t_send=[i * 1000.0 for i in range(n)]):
        rx.receive_payload(d.payload)
    rx.close(n)
    s = rx.stats
    assert s.delivered + s.lost + s.corrupted_dropped + s.duplicate_dropped == n


class TestDumpFrame:
    def test_annotated_fields_present(self):
        text = dump_frame(safe_encode([GradedSpike(175, 1)], 3, 999, [7]))
        assert "magic      0xAE52" in text
        assert "seq        3" in text
        assert "999" in text

    def test_short_buffer(self):
        assert "short buffer" in dump_frame(b"\x01\x02")


# A fresh interpreter that only loads a config and carries SAFE frames
# over a lossy, jittered link: the cluster side of the platform, which
# never tracks and so must never load scipy.
LINK_ONLY_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from evtheremin.harness import load_config, write_demo_files
from evtheremin.sigma_delta import GradedSpike
from evtheremin.transport import ChannelConfig, SafeReceiver, channel_transmit, safe_encode
load_config(write_demo_files(sys.argv[2])["config"])
n = 64
payloads = [safe_encode([GradedSpike(i, i % 7 + 1)], seq=i, timestamp_us=i * 1000) for i in range(n)]
cfg = ChannelConfig(loss_p=0.1, delay_jitter_us=20_000.0, reorder_window=4, seed=5)
rx = SafeReceiver(reorder_window=6)
for d in channel_transmit(payloads, cfg, t_send=[i * 1000.0 for i in range(n)]):
    rx.receive_payload(d.payload)
rx.close(n)
assert rx.stats.delivered > 0 and rx.stats.lost > 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_link_session_leaves_scipy_unloaded(tmp_path):
    src = str(Path(evtheremin.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", LINK_ONLY_CHILD, src, str(tmp_path / "demo")],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# A fresh interpreter that runs the whole demo show, tracker included.
SHOW_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from evtheremin import load_config, run_show
from evtheremin.harness import write_demo_files
report = run_show(load_config(write_demo_files(sys.argv[2])["config"]))
assert report.pitch_samples > 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_demo_show_leaves_scipy_unloaded(tmp_path):
    src = str(Path(evtheremin.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SHOW_CHILD, src, str(tmp_path / "demo")],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
