"""The SAFE encoder, decoder and receiver as they were written first, kept
as the references the transport module must equal.

The encoder zips every frame's records with an offset list, all zero
when none is given, and checks their order; the decoder checks records
under `enumerate`; the receiver computes every sequence distance through
`_seq_delta` and drains after every in-order frame.  The transport
module takes shorter paths through the same checks, so every byte, every
error message and every count it gives must be these ones."""

import struct
import zlib

from evtheremin.transport import (
    _CRC,
    _HEADER,
    _RECORD,
    SAFE_MAGIC,
    SAFE_VERSION,
    BadCrcError,
    BadMagicError,
    BadVersionError,
    DecodeError,
    LinkStats,
    SafeFrame,
    TrailingDataError,
    TransportError,
    TruncatedError,
)


def safe_encode(spikes, seq: int, timestamp_us: int, offsets_us=None) -> bytes:
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
            parts.append(_RECORD.pack(s.address, int(s.value), dt))
    except struct.error as exc:
        raise TransportError(f"bad SAFE field: {exc}") from None
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def safe_decode(data: bytes) -> SafeFrame:
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
    computed = zlib.crc32(data[:body_len]) & 0xFFFFFFFF
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


def _seq_delta(a: int, b: int) -> int:
    """Wrapping distance a - b as a signed 32-bit quantity."""
    return ((a - b + 0x80000000) & 0xFFFFFFFF) - 0x80000000


class SafeReceiver:
    """Re-sequencing receiver, with the late-frame double count of
    ROADMAP item 2: a frame that arrives after a forced advance past it
    is charged as lost and then again as a duplicate."""

    def __init__(self, reorder_window: int = 8, stats: LinkStats | None = None):
        self.reorder_window = reorder_window
        self.stats = stats if stats is not None else LinkStats()
        self.next_seq = 0
        self._newest = 0xFFFFFFFF  # highest seq received; starts just before 0
        self._pending: dict[int, SafeFrame] = {}
        self._gap_frames = 0

    def receive_payload(self, payload: bytes) -> list[tuple[int, int, int]]:
        try:
            frame = safe_decode(payload)
        except DecodeError:
            self.stats.corrupted_dropped += 1
            self._refresh_lost()
            return []
        return self.ingest(frame)

    def ingest(self, frame: SafeFrame) -> list[tuple[int, int, int]]:
        out: list[tuple[int, int, int]] = []
        delta = _seq_delta(frame.seq, self.next_seq)
        if delta < 0 or frame.seq in self._pending:
            self.stats.duplicate_dropped += 1
            return out
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
        out = []
        while self._pending:
            out.extend(self._force_advance())
        return out

    def close(self, total_frames_sent: int) -> list[tuple[int, int, int]]:
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
