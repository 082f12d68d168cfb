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
# telemetry frames, and a bound on what a session leaves drawn and unused.
_RUN_DOUBLES = 4096


crc32 = zlib.crc32  # already unsigned on Python 3
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
    """Pack spikes as RAW words: integer addresses below 2**24, nonzero integer values in [-128, 127]."""
    words = []
    for s in spikes:
        address, v = s.address, s.value
        if address % 1 or not (0 <= address < (1 << ADDRESS_BITS)):  # x % 1 is true for nan and inf too
            raise TransportError(f"address {address!r} is not an integer that fits {ADDRESS_BITS} bits")
        if v % 1 or not (-128 <= v <= 127) or v == 0:
            raise TransportError(f"value {v!r} is not a nonzero i8 quantized value")
        words.append((int(v) & 0xFF) << ADDRESS_BITS | int(address))
    return np.array(words, dtype="<u4").tobytes()


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
    if offsets_us is not None and len(offsets_us) != len(spikes):
        raise TransportError("one offset per spike required")
    pack = _RECORD.pack
    try:
        parts = [_HEADER.pack(SAFE_MAGIC, SAFE_VERSION, 1 if spikes else 0, seq, timestamp_us, len(spikes))]
        if offsets_us is None:
            for s in spikes:
                if s.value % 1 or not s.value:  # the first is also true for nan and inf
                    _refuse_value(s.value)
                parts.append(pack(s.address, int(s.value), 0))
        else:
            last = 0
            for s, dt in zip(spikes, offsets_us):
                if s.value % 1 or not s.value:
                    _refuse_value(s.value)
                if dt < last:
                    raise TransportError("dt_offsets must be non-decreasing")
                last = dt
                # struct packs only integers: a float offset is rejected.
                parts.append(pack(s.address, int(s.value), dt))
    except struct.error as exc:
        raise TransportError(f"bad SAFE field: {exc}") from None
    body = b"".join(parts)
    return body + _CRC.pack(crc32(body))


def _refuse_value(value) -> None:
    if value % 1:
        raise TransportError(f"value {value!r} is not an integer")
    raise TransportError("zero-valued records are not transmitted")


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
    for _, value, dt in records:
        if not value or dt < last:
            raise DecodeError(_record_fault(records))
        last = dt
    return SafeFrame(seq, timestamp, records)


def _record_fault(records) -> str:
    """What is wrong with the first bad record, for a frame that has one."""
    last = 0
    for i, (_, value, dt) in enumerate(records):
        if value == 0:
            return f"record {i} carries a zero value"
        if dt < last:
            return f"record {i} dt_offset decreases"
        last = dt


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
    the jitter.  Lost units consume only the loss draw.  Delays must be
    finite and >= 0; reorder_window is an int >= 0.
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
        _check_window(self.reorder_window)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _check_window(window) -> None:
    # A bool is an int to Python, but a window of True is a mistake, not 1.
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise ValueError(f"reorder_window must be an int >= 0, got {window!r}")


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
    clock = float("-inf")
    return [Delivery(clock := max(clock, arrival), data, i) for arrival, i, data in ordered]


def _arrivals(payloads: list[bytes], cfg: ChannelConfig, t_send) -> list[tuple[float, int, bytes]]:
    """(arrival_us, index, data) per surviving unit in send order, by
    ChannelConfig's draw order, in one walk over blocks of uniforms, each
    of at most _RUN_DOUBLES unless one unit alone needs more.  A unit that
    does not fit the rest of a block starts the next, which carries that
    rest, so each uniform is drawn once, bit indices included."""
    if not math.isfinite(sum(t_send)):  # the sum is finite only if every time is
        for i, t in enumerate(t_send):
            if not math.isfinite(t):
                raise ValueError(f"send time {i} must be finite, got {t!r}")
    rng = np.random.default_rng(cfg.seed)
    loss_p, flip_p, base_us, jitter_us = cfg.loss_p, cfg.bitflip_p, cfg.delay_base_us, cfg.delay_jitter_us
    jitter_draws = 1 if jitter_us > 0 else 0
    n = len(payloads)
    byte_draws = list(map(len, payloads)) if flip_p > 0 else [0] * n
    left = np.cumsum(np.add(byte_draws, 1 + jitter_draws)[::-1])[::-1].tolist()  # left[i]: units i.. draw at most
    out, u = [], np.empty(0)
    halves = []  # the bit index in an output's high half, read but not yet used
    i = pos = need = 0  # need: the draws of a flipped unit its block could not hold
    while i < n:
        size = max(need, 1 + byte_draws[i] + jitter_draws, min(_RUN_DOUBLES, left[i]))
        more = rng.random(size - (len(u) - pos))
        u = np.concatenate((u[pos:], more)) if pos < len(u) else more
        uniform = u.item
        # Positions of the uniforms below bitflip_p, then a sentinel.
        hits = np.flatnonzero(u < flip_p).tolist() + [size] if flip_p > 0 else [size]
        pos = h = need = 0
        for i in range(i, n):
            end = pos + 1 + byte_draws[i]  # past the unit's loss and byte draws
            if end + jitter_draws > size:
                break
            if uniform(pos) < loss_p:
                pos += 1
                continue
            while hits[h] <= pos:
                h += 1
            data = payloads[i]
            if hits[h] < end:
                flips = hits[h : bisect_left(hits, end, h)]
                # Outputs the bit indices read: a buffered half serves one flip, an output two.
                fresh = (len(flips) - len(halves) + 1) // 2
                if end + fresh + jitter_draws > size:
                    need = end + fresh + jitter_draws - pos
                    break
                buf = bytearray(data)
                for j in flips:
                    if not halves:
                        halves, end = list(_bit_indices(uniform(end))), end + 1
                    buf[j - pos - 1] ^= 1 << halves.pop(0)
                data = bytes(buf)
            out.append((float(t_send[i]) + base_us + (uniform(end) * jitter_us if jitter_draws else 0.0), i, data))
            pos = end + jitter_draws
        else:
            break
    return out


def _bit_indices(u: float) -> tuple[int, int]:
    """The two values integers(0, 8) returns, in order, from the 64-bit
    output that random() turned into u; a test checks the NumPy facts this
    rests on.  random() keeps the output's top 53 bits k as u = k * 2**-53.
    integers(0, 8) takes the top 3 bits of a 32-bit half (Lemire's method
    never rejects for a range of 8): the low half of a fresh output, then
    the high half on its next call, even across random() calls."""
    k = int(u * 9007199254740992.0)  # 2**53
    return (k >> 18) & 7, k >> 50  # bits 18-20 and 50-52 of k


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

    Every frame takes one ingest path.  One behind next_seq on the
    wrapping counter ((seq - next_seq) & 0xFFFFFFFF >= 2**31), or already
    held, is a duplicate.  The next frame is released at once, and held
    frames drain behind it only if any are held.  Any other frame is
    held; holding more than `reorder_window` forces an advance past the
    oldest gap, which is charged as lost.
    Because a corrupted frame also leaves a sequence gap, gap frames are
    attributed to corruption first so every sent frame is counted
    exactly once across delivered / lost / corrupted / duplicate, except
    a frame that arrives after a forced advance past it: that one is
    charged as lost and then again as a duplicate (ROADMAP item 2).
    """

    def __init__(self, reorder_window: int = 8, stats: LinkStats | None = None):
        _check_window(reorder_window)
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
        seq = frame.seq
        if (seq - self.next_seq) & 0xFFFFFFFF >= 0x80000000 or seq in self._pending:
            self.stats.duplicate_dropped += 1
            return []
        # Reordered: overtaken by a frame that was sent after it.
        if (seq - self._newest) & 0xFFFFFFFF >= 0x80000000:
            self.stats.reordered += 1
        else:
            self._newest = seq
        if seq == self.next_seq:
            self.next_seq = (seq + 1) & 0xFFFFFFFF
            out = self._emit(frame)
            if self._pending:
                out += self._drain()
            return out
        self._pending[seq] = frame
        out = []
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
