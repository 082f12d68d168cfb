"""Host-speed yardstick.

The VM the benchmark runs on shares its cores with load from outside
it, and the speed of a core changes in phases that last from seconds to
minutes: the same show takes 0.6 s in one phase and 1.1 s in the next,
in CPU time as in wall time.  No statistic of host times within one run
can tell a slower program from a slower core.

The yardstick is a fixed computation of the benchmark's own, made of
the kinds of work the program does: NumPy convolution, sorting and
masking of large arrays, and interpreted code that packs, checksums and
unpacks small binary frames into objects.  It never calls the program.
Every timed operation runs between two yardstick readings, and its host
time is scaled by ``REF_S / mean(before, after)``: that is its host time
on a core at which the yardstick takes ``REF_S``.  A faster program
lowers the scaled time as much as the raw time; a slower core slows the
yardstick and the operation alike, and the factor cancels it.
"""

from __future__ import annotations

import struct
import time
import zlib

import numpy as np

# Yardstick time on an unloaded core of the 2-core VM the bounds in
# BENCHMARK.json were measured on.  It fixes the scale of every scaled
# host time, so it must not change once a baseline has been measured.
REF_S = 0.020

_HEADER = struct.Struct("<HBBIQH")
_RECORD = struct.Struct("<IhH")
_CRC = struct.Struct("<I")


class _Record:
    __slots__ = ("address", "value", "offset")

    def __init__(self, address, value, offset):
        self.address = address
        self.value = value
        self.offset = offset


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.random(5600)
        self._taps = rng.random(961)
        self._keys = rng.random(200_000)
        self._mask = rng.random(300_000) > 0.5
        self.readings: list[float] = []
        self._last = self.read()

    def read(self) -> float:
        """Host seconds of one yardstick computation."""
        t0 = time.perf_counter()
        for _ in range(4):
            np.convolve(self._signal, self._taps)
            np.nonzero(self._mask)
        np.argsort(self._keys)
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        frames = []
        for seq in range(900):
            records = [_Record(seq * 7 + k, k - 3, k * 10) for k in range(6)]
            body = _HEADER.pack(0xE5A7, 1, 0, seq, seq * 10_000, len(records)) + b"".join(
                _RECORD.pack(r.address, r.value, r.offset) for r in records
            )
            frame = body + _CRC.pack(zlib.crc32(body))
            if _CRC.unpack_from(frame, len(body))[0] != zlib.crc32(frame[: len(body)]):
                raise AssertionError("yardstick checksum mismatch")
            got = [_Record(*_RECORD.unpack_from(frame, _HEADER.size + k * _RECORD.size)) for k in range(6)]
            frames.append((seq, {r.address: r for r in got}))
        frames.sort(key=lambda f: -f[0])
        self.readings.append(time.perf_counter() - t0)
        return self.readings[-1]

    def scale(self) -> float:
        """Scale factor for the operation that ran since the previous
        call: REF_S over the mean of the readings before and after it."""
        before, self._last = self._last, self.read()
        return REF_S / ((before + self._last) / 2)
