"""Two-profile address-event transport.

RAW profile, for clean in-order local links only: each spike is one
little-endian u32 word, address in bits [23:0], signed 8-bit value in
bits [31:24].  Exactly 4 bytes per event, no framing, no timestamps,
and no way to detect loss or corruption.

SAFE profile, for links that drop, corrupt, delay, or reorder:

    magic      u16   0xAE52
    version    u8    1
    flags      u8    bit0 = payload present, all other bits zero
    seq        u32   wrapping frame counter, starts at 0
    timestamp  u64   frame reference time, microseconds
    count      u16   number of records
    records    count * (address u32, value i16, dt_offset u16)
    crc        u32   CRC-32 over everything above

All fields little-endian.  Record values must be nonzero integers; a
non-integral value is rejected, never rounded.  dt_offset values are
integer microseconds relative to the frame timestamp (a float offset,
even an integral one, is rejected) and must be non-decreasing.  The
CRC is the reflected 0x04C11DB7 polynomial with init and final xor
0xFFFFFFFF (check value: crc(b"123456789") = 0xCBF43926).  Fixed
overhead is 18 header + 4 crc bytes, so bytes per event = 22/count + 8.

A seeded channel simulator (loss, byte bit-flips, delay, bounded
reordering) and a receiver with sequence accounting close the loop.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

SAFE_MAGIC = 0xAE52
SAFE_VERSION = 1
RAW_WORD_BYTES = 4
ADDRESS_BITS = 24
_HEADER = struct.Struct("<HBBIQH")
_RECORD = struct.Struct("<IhH")
_CRC = struct.Struct("<I")
assert _HEADER.size == 18 and _RECORD.size == 8

SAFE_FIXED_OVERHEAD = _HEADER.size + _CRC.size  # 22

# Uniforms per generator call in the channel simulator, unless one unit
# alone needs more: enough to spread a call's fixed cost over tens of
# telemetry frames, and a bound on what a run that a flipped unit ends
# early leaves drawn and unused.
_RUN_DOUBLES = 4096


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


assert crc32(b"123456789") == 0xCBF43926


class TransportError(ValueError):
    """Anything wrong on the encode side."""


class DecodeError(TransportError):
    """Wire bytes rejected; .kind names the diagnosis."""

    kind = "decode"


class BadMagicError(DecodeError):
    kind = "bad_magic"


class BadVersionError(DecodeError):
    kind = "bad_version"


class BadCrcError(DecodeError):
    kind = "bad_crc"


class TruncatedError(DecodeError):
    kind = "truncated"


class TrailingDataError(DecodeError):
    """Bytes after a CRC-valid frame; not one of the four corruption
    diagnoses, only reachable with malformed framing."""

    kind = "trailing_data"


def raw_encode(spikes) -> bytes:
    """Pack spikes as RAW words.  Values must be nonzero integers in [-128, 127]."""
    spikes = list(spikes)
    words = np.empty(len(spikes), dtype=np.uint32)
    for i, s in enumerate(spikes):
        if not (0 <= s.address < (1 << ADDRESS_BITS)):
            raise TransportError(f"address {s.address} does not fit {ADDRESS_BITS} bits")
        v = s.value
        if v != int(v) or not (-128 <= int(v) <= 127):
            raise TransportError(f"value {v!r} is not an i8 quantized value")
        if int(v) == 0:
            raise TransportError("zero-valued spikes are not transmitted")
        words[i] = (int(v) & 0xFF) << ADDRESS_BITS | s.address
    return words.astype("<u4").tobytes()


class SafeFrame(NamedTuple):
    """A decoded SAFE frame; records are (address, value, dt_offset_us)."""

    seq: int
    timestamp_us: int
    records: list[tuple[int, int, int]]


def safe_encode(spikes, seq: int, timestamp_us: int, offsets_us=None) -> bytes:
    """Encode one SAFE frame; see module docstring for the layout.

    offsets_us gives one dt_offset per spike and defaults to all zero.
    """
    spikes = list(spikes)
    if offsets_us is None:
        offsets_us = [0] * len(spikes)
    elif len(offsets_us) != len(spikes):
        raise TransportError("one offset per spike required")
    flags = 1 if spikes else 0
    try:
        parts = [_HEADER.pack(SAFE_MAGIC, SAFE_VERSION, flags, seq, timestamp_us, len(spikes))]
        last = 0
        for s, dt in zip(spikes, offsets_us):
            if s.value % 1:  # also true for nan and inf
                raise TransportError(f"value {s.value!r} is not an integer")
            if s.value == 0:
                raise TransportError("zero-valued records are not transmitted")
            if dt < last:
                raise TransportError("dt_offsets must be non-decreasing")
            last = dt
            # struct packs only integers: a float offset is rejected.
            parts.append(_RECORD.pack(s.address, int(s.value), dt))
    except struct.error as exc:
        raise TransportError(f"bad SAFE field: {exc}") from None
    body = b"".join(parts)
    return body + _CRC.pack(crc32(body))


def safe_decode(data: bytes) -> SafeFrame:
    """Decode one SAFE frame or raise a DecodeError diagnosing why not."""
    if len(data) < _HEADER.size + _CRC.size:
        raise TruncatedError(f"{len(data)} bytes, need at least {_HEADER.size + _CRC.size}")
    magic, version, flags, seq, timestamp, count = _HEADER.unpack_from(data)
    if magic != SAFE_MAGIC:
        raise BadMagicError(f"magic 0x{magic:04X}, want 0x{SAFE_MAGIC:04X}")
    if version != SAFE_VERSION:
        raise BadVersionError(f"version {version}, want {SAFE_VERSION}")
    body_len = _HEADER.size + count * _RECORD.size
    if len(data) < body_len + _CRC.size:
        raise TruncatedError(f"{len(data)} bytes, frame claims {body_len + _CRC.size}")
    (stored,) = _CRC.unpack_from(data, body_len)
    computed = crc32(data[:body_len])
    if stored != computed:
        raise BadCrcError(f"crc 0x{stored:08X}, computed 0x{computed:08X}")
    if len(data) > body_len + _CRC.size:
        raise TrailingDataError(f"{len(data) - body_len - _CRC.size} bytes after frame")
    if flags != (1 if count else 0):
        raise DecodeError(f"flags 0x{flags:02X} inconsistent with count {count}")
    records = list(_RECORD.iter_unpack(data[_HEADER.size : body_len]))
    last = 0
    for i, (_, value, dt) in enumerate(records):
        if value == 0:
            raise DecodeError(f"record {i} carries a zero value")
        if dt < last:
            raise DecodeError(f"record {i} dt_offset decreases")
        last = dt
    return SafeFrame(seq, timestamp, records)


def raw_overhead_bytes_per_event() -> float:
    return float(RAW_WORD_BYTES)


def safe_overhead_bytes_per_event(count: int) -> float:
    if count < 1:
        raise ValueError("need at least one record")
    return SAFE_FIXED_OVERHEAD / count + _RECORD.size


@dataclass
class ChannelConfig:
    """Impairment model for the link simulator.

    Draw order per unit, from one seeded generator, is part of the
    contract so tests can replay it: one uniform for loss; if the unit
    survives and bitflip_p > 0, one uniform per byte, then one integer
    in [0, 8) per flipped byte; if delay_jitter_us > 0, one uniform for
    the jitter.  Lost units consume only the loss draw.  The simulator
    draws the uniforms of a run of units in one call, then puts the
    generator where this per-unit order leaves it, so the draws are
    unchanged.  Delays must be finite and >= 0.
    """

    loss_p: float = 0.0
    bitflip_p: float = 0.0
    delay_base_us: float = 0.0
    delay_jitter_us: float = 0.0
    reorder_window: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.loss_p <= 1) or not (0 <= self.bitflip_p <= 1):
            raise ValueError("probabilities must be in [0, 1]")
        for name in ("delay_base_us", "delay_jitter_us"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class Delivery(NamedTuple):
    time_us: float
    payload: bytes
    sent_index: int


def channel_transmit(
    payloads, cfg: ChannelConfig, t_send=None, raw: bool = False
) -> list[Delivery]:
    """Push byte units through the impairment model; returns deliveries in
    arrival order with non-decreasing arrival times.

    Loss is applied before corruption.  With reorder_window = 0 the link
    is FIFO; otherwise units are merged by delay so that none is
    displaced more than reorder_window positions.  The RAW profile is
    declared in-order only, so raw traffic refuses a reordering link.
    """
    payloads = list(payloads)
    if raw and cfg.reorder_window > 0:
        raise TransportError("RAW profile requires an in-order link; reorder_window must be 0")
    if t_send is None:
        t_send = [0.0] * len(payloads)
    if len(t_send) != len(payloads):
        raise ValueError("one send time per payload required")
    ordered = _bounded_reorder(_arrivals(payloads, cfg, t_send), cfg.reorder_window)
    deliveries = []
    clock = float("-inf")
    for arrival, i, data in ordered:
        clock = max(clock, arrival)
        deliveries.append(Delivery(clock, data, i))
    return deliveries


def _arrivals(payloads: list[bytes], cfg: ChannelConfig, t_send) -> list[tuple[float, int, bytes]]:
    """(arrival_us, index, data) per surviving unit in send order, by
    ChannelConfig's draw order.  A run's uniforms come from one generator
    call, drawn as if every unit in it survives intact, at most
    _RUN_DOUBLES of them unless one unit alone needs more.  A unit with a
    flipped byte ends the run, since its integer draws come before its
    jitter uniform."""
    rng = np.random.default_rng(cfg.seed)
    bitgen = rng.bit_generator
    loss_p, base_us, jitter_us = cfg.loss_p, cfg.delay_base_us, cfg.delay_jitter_us
    byte_draws = [len(p) if cfg.bitflip_p > 0 else 0 for p in payloads]
    jitter_draws = 1 if jitter_us > 0 else 0
    out = []
    i, n = 0, len(payloads)
    while i < n:
        stop, total = i + 1, 1 + byte_draws[i] + jitter_draws
        while stop < n and total + 1 + byte_draws[stop] + jitter_draws <= _RUN_DOUBLES:
            total += 1 + byte_draws[stop] + jitter_draws
            stop += 1
        saved = bitgen.state
        u = rng.random(total)
        uniform = u.item
        # Positions of the uniforms below bitflip_p, then a sentinel.
        hits = np.flatnonzero(u < cfg.bitflip_p).tolist() + [total]
        h = used = 0
        flipped = False
        for i in range(i, stop):
            used += 1
            if uniform(used - 1) < loss_p:
                continue
            while hits[h] < used:
                h += 1
            used += byte_draws[i]
            if hits[h] < used:
                flipped = True
                break
            jitter = uniform(used) if jitter_draws else 0.0
            out.append((float(t_send[i]) + base_us + jitter * jitter_us, i, payloads[i]))
            used += jitter_draws
        if used < total:
            _advance_from(bitgen, saved, used)
        if flipped:
            buf = bytearray(payloads[i])
            start = used - byte_draws[i]
            flips = hits[h : bisect_left(hits, used, h)]
            # One call gives the same bit indices as one call per byte.
            for j, bit in zip(flips, rng.integers(0, 8, len(flips)).tolist()):
                buf[j - start] ^= 1 << bit
            jitter = rng.random() if jitter_draws else 0.0
            out.append((float(t_send[i]) + base_us + jitter * jitter_us, i, bytes(buf)))
        i += 1
    return out


def _advance_from(bitgen, saved: dict, used: int) -> None:
    """Put the generator `used` draws past the state `saved`.  advance()
    clears the buffered 32-bit half that integers() reads; put it back."""
    bitgen.state = saved
    bitgen.advance(used)
    if saved["has_uint32"]:
        bitgen.state = {**saved, "state": bitgen.state["state"]}


def _bounded_reorder(pending, window: int):
    """Emit by arrival time but never displace a unit more than `window`
    positions from its send order (k-bounded merge).  Each unit's
    (arrival, index) is unique, so a heap emits the same order as a scan
    for the earliest buffered unit."""
    if window == 0:
        return pending
    out: list[tuple[float, int, bytes]] = []
    heap = list(pending[:window])
    heapq.heapify(heap)
    for item in pending[window:]:
        out.append(heapq.heappushpop(heap, item))
    return out + sorted(heap)


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    corrupted_dropped: int = 0
    duplicate_dropped: int = 0
    reordered: int = 0
    bytes_sent: int = 0
    events_sent: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _seq_delta(a: int, b: int) -> int:
    """Wrapping distance a - b as a signed 32-bit quantity."""
    return ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000


class SafeReceiver:
    """Re-sequencing receiver for SAFE frames.

    Out-of-order frames within `reorder_window` are buffered and
    released in order; gaps that cannot close are charged as lost.
    Because a corrupted frame also leaves a sequence gap, gap frames are
    attributed to corruption first so every sent frame is counted
    exactly once across delivered / lost / corrupted / duplicate, except
    a frame that arrives after a forced advance past it: that one is
    charged as lost and then again as a duplicate (ROADMAP item 2).
    """

    def __init__(self, reorder_window: int = 8, stats: LinkStats | None = None):
        if reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        self.reorder_window = reorder_window
        self.stats = stats if stats is not None else LinkStats()
        self.next_seq = 0
        self._newest = 0xFFFFFFFF  # highest seq received; starts just before 0
        self._pending: dict[int, SafeFrame] = {}
        self._gap_frames = 0

    def receive_payload(self, payload: bytes) -> list[tuple[int, int, int]]:
        """Decode and ingest one unit; corrupted units count and emit nothing."""
        try:
            frame = safe_decode(payload)
        except DecodeError:
            self.stats.corrupted_dropped += 1
            self._refresh_lost()
            return []
        return self.ingest(frame)

    def ingest(self, frame: SafeFrame) -> list[tuple[int, int, int]]:
        """Returns (absolute_time_us, address, value) tuples released in order."""
        out: list[tuple[int, int, int]] = []
        delta = _seq_delta(frame.seq, self.next_seq)
        if delta < 0 or frame.seq in self._pending:
            self.stats.duplicate_dropped += 1
            return out
        # Reordered: overtaken by a frame that was sent after it.
        if _seq_delta(frame.seq, self._newest) < 0:
            self.stats.reordered += 1
        else:
            self._newest = frame.seq
        if delta == 0:
            out.extend(self._emit(frame))
            self.next_seq = (self.next_seq + 1) & 0xFFFFFFFF
            out.extend(self._drain())
        else:
            self._pending[frame.seq] = frame
            while len(self._pending) > self.reorder_window:
                out.extend(self._force_advance())
        return out

    def finalize(self) -> list[tuple[int, int, int]]:
        """Flush buffered frames, charging any remaining gaps as lost."""
        out = []
        while self._pending:
            out.extend(self._force_advance())
        return out

    def close(self, total_frames_sent: int) -> list[tuple[int, int, int]]:
        """Finalize and charge tail losses given the sender's frame count.

        The receiver cannot see frames lost after the last arrival; the
        sender-side count closes the books so that delivered + lost +
        corrupted_dropped + duplicate_dropped == sent.
        """
        out = self.finalize()
        tail = _seq_delta(total_frames_sent & 0xFFFFFFFF, self.next_seq)
        if tail > 0:
            self._gap_frames += tail
            self.next_seq = total_frames_sent & 0xFFFFFFFF
            self._refresh_lost()
        return out

    def _force_advance(self) -> list[tuple[int, int, int]]:
        oldest = min(self._pending, key=lambda s: _seq_delta(s, self.next_seq))
        gap = _seq_delta(oldest, self.next_seq)
        self._gap_frames += gap
        self._refresh_lost()
        self.next_seq = oldest
        frame = self._pending.pop(oldest)
        out = self._emit(frame)
        self.next_seq = (self.next_seq + 1) & 0xFFFFFFFF
        out.extend(self._drain())
        return out

    def _drain(self) -> list[tuple[int, int, int]]:
        out = []
        while self.next_seq in self._pending:
            frame = self._pending.pop(self.next_seq)
            out.extend(self._emit(frame))
            self.next_seq = (self.next_seq + 1) & 0xFFFFFFFF
        return out

    def _emit(self, frame: SafeFrame) -> list[tuple[int, int, int]]:
        self.stats.delivered += 1
        t = frame.timestamp_us
        return [(t + dt, address, value) for address, value, dt in frame.records]

    def _refresh_lost(self) -> None:
        self.stats.lost = max(0, self._gap_frames - self.stats.corrupted_dropped)


def dump_frame(data: bytes) -> str:
    """Annotated hex view of one SAFE frame for the CLI."""
    lines = []

    def row(offset, nbytes, label):
        chunk = data[offset : offset + nbytes]
        lines.append(f"{offset:6d}  {chunk.hex(' '):<24}  {label}")

    if len(data) < _HEADER.size:
        return f"short buffer ({len(data)} bytes)"
    magic, version, flags, seq, timestamp, count = _HEADER.unpack_from(data)
    row(0, 2, f"magic      0x{magic:04X}")
    row(2, 1, f"version    {version}")
    row(3, 1, f"flags      0x{flags:02X}")
    row(4, 4, f"seq        {seq}")
    row(8, 8, f"timestamp  {timestamp} us")
    row(16, 2, f"count      {count}")
    for i in range(count):
        off = _HEADER.size + i * _RECORD.size
        if off + _RECORD.size > len(data):
            lines.append(f"{off:6d}  (record {i} truncated)")
            return "\n".join(lines)
        address, value, dt = _RECORD.unpack_from(data, off)
        row(off, 8, f"record {i:<4d} addr={address} value={value} dt=+{dt} us")
    off = _HEADER.size + count * _RECORD.size
    if off + _CRC.size <= len(data):
        (stored,) = _CRC.unpack_from(data, off)
        computed = crc32(data[:off])
        status = "ok" if stored == computed else f"MISMATCH (computed 0x{computed:08X})"
        row(off, 4, f"crc        0x{stored:08X} {status}")
    else:
        lines.append(f"{off:6d}  (crc truncated)")
    return "\n".join(lines)
