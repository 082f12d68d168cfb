"""Event-camera data model: streams, frames, trajectories, synthesis, EVT1 codec.

An EventStream holds (t_us, x, y, polarity) events as four contiguous
columns: t u64, x and y u16, p i8.  The EVT1 container stores them as
little-endian records:

    magic   4 B   ASCII "EVT1"
    width   u16   sensor columns
    height  u16   sensor rows
    rsvd    u32   zero
    record 16 B   t u64, x u16, y u16, polarity i8, 3 pad bytes (zero)

Writers must zero the padding; readers ignore it.  An empty stream is a
valid 12-byte file.

A frame is a plain (height, width) int64 array of per-cell event
counts.  A Trajectory holds each hand's positions as (t, x, y)
float64 columns, the only form synthesis and the show read them in.
"""

from __future__ import annotations

import functools
import json
import numbers
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

# On-wire record layout: 16 bytes with 3 trailing zero pad bytes.
_WIRE_DTYPE = np.dtype({"names": ["t", "x", "y", "p"], "formats": ["<u8", "<u2", "<u2", "<i1"],
                        "offsets": [0, 8, 10, 12], "itemsize": 16})

EVT1_MAGIC = b"EVT1"
_EVT1_HEADER = struct.Struct("<4sHHI")
assert _EVT1_HEADER.size == 12

# An EventStream's t, x, y and p columns, and what an error calls each value.
_COLUMN_DTYPES = (np.uint64, np.uint16, np.uint16, np.int8)
_COLUMN_VALUES = ("time", "x", "y", "polarity")

class StreamError(ValueError):
    """Structurally invalid event data."""


class CodecError(ValueError):
    """Malformed EVT1 bytes."""


class Hand(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Resolution:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"resolution must be positive, got {self.width}x{self.height}")

    @property
    def npixels(self) -> int:
        return self.width * self.height

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"


class EventStream:
    """A batch of events as four columns plus the resolution they were captured at.

    `sorted_valid` is True only for a stream `synth_hand_events` made, and
    for its contiguous slices: its events are valid, its times never
    decrease, and its columns are read-only, all by construction, so
    `validate`, `time_sorted`, `frame_accumulate` and `HandTracker.run`
    skip their scans of it.  Every other stream, from an EVT1 file, from
    columns a caller built, from a copy, or from a mask, an index array or
    a strided slice, is checked in full, and so is this stream once a
    column or its resolution is rebound.
    """

    def __init__(self, t, x, y, p, resolution: Resolution):
        # Written through __dict__, past __setattr__: a window's stream is
        # built once per tracker window.
        d = self.__dict__
        d["t"], d["x"], d["y"], d["p"] = map(_exact_column, "txyp", (t, x, y, p), _COLUMN_DTYPES, _COLUMN_VALUES)
        if not len(self.t) == len(self.x) == len(self.y) == len(self.p):
            raise StreamError(f"column lengths differ: {len(self.t)}, {len(self.x)}, {len(self.y)}, {len(self.p)}")
        d["resolution"] = resolution
        d["_sorted_valid"] = False

    def __setattr__(self, name, value):
        # A rebound column or resolution is no longer what synthesis checked.
        if name in ("t", "x", "y", "p", "resolution"):
            self.__dict__["_sorted_valid"] = False
        object.__setattr__(self, name, value)

    @property
    def sorted_valid(self) -> bool:
        """Valid and time-sorted by construction, with read-only columns."""
        return self._sorted_valid

    def __getstate__(self):
        # Copied or unpickled columns are writeable: the copy is checked in full.
        return {**self.__dict__, "_sorted_valid": False}

    @classmethod
    def empty(cls, resolution: Resolution) -> "EventStream":
        return cls([], [], [], [], resolution)

    def __getitem__(self, key) -> "EventStream":
        """The events a slice, mask or index array picks; a slice gives views.
        A contiguous slice keeps `sorted_valid`."""
        part = EventStream(self.t[key], self.x[key], self.y[key], self.p[key], self.resolution)
        part.__dict__["_sorted_valid"] = self._sorted_valid and isinstance(key, slice) and key.step in (None, 1)
        return part

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.resolution == other.resolution and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in "txyp")

    def validate(self) -> None:
        """Raise StreamError naming the first event off the sensor or of a
        polarity other than +1 or -1, if any.  A `sorted_valid` stream has
        none and is not scanned."""
        if not self._sorted_valid:
            _check_pixels(self.x, self.y, self.p, self.resolution, "event")

    def time_sorted(self) -> "EventStream":
        """The events stably sorted by time; a `sorted_valid` stream as it is."""
        return self if self._sorted_valid else self[np.argsort(self.t, kind="stable")]

    def span_us(self) -> tuple[int, int]:
        if len(self) == 0:
            return (0, 0)
        return int(self.t.min()), int(self.t.max())


def _exact_column(name: str, values, dtype, value: str) -> np.ndarray:
    """values as a contiguous column of dtype.  Raises StreamError naming
    the first event whose value dtype cannot hold exactly, rather than
    wrap or truncate it; a column of dtype already is taken as it is."""
    c = np.asarray(values)
    if c.dtype == dtype:
        return np.ascontiguousarray(c)
    # NumPy reads a list of ints past int64's range, of both signs, as floats.
    if c.dtype.kind == "f" and not isinstance(values, np.ndarray):
        c = np.array(values, dtype=object)
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    if c.dtype.kind not in "biufO":
        raise StreamError(f"the {name} column holds {c.dtype}, not integers")
    if c.dtype.kind == "f":
        # NaN fails every comparison, and hi + 1 is a power of two, exact as a float.
        ok = (c >= np.float64(lo)) & (c < np.float64(hi + 1)) & (np.trunc(c) == c)
    elif c.dtype.kind == "O":
        ok = np.array([isinstance(v, numbers.Real) and lo <= v <= hi and v == int(v) for v in c.flat], dtype=bool)
    else:
        # A bound is compared only where c's dtype reaches past it.
        src = np.iinfo(c.dtype) if c.dtype.kind != "b" else np.iinfo(np.uint8)
        ok = np.ones(c.shape, dtype=bool)
        if src.min < lo:
            ok &= c >= lo
        if src.max > hi:
            ok &= c <= hi
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        v = c.flat[i]
        sign = "negative " if isinstance(v, numbers.Real) and v < 0 <= lo else ""
        raise StreamError(f"event {i} has {sign}{value} {v}, which the {np.dtype(dtype)} {name} column cannot hold")
    if c.dtype.kind == "O":
        c = np.array([int(v) for v in c.flat], dtype).reshape(c.shape)
    return np.ascontiguousarray(c, dtype)


def _check_pixels(x, y, p, res: Resolution, item: str) -> None:
    """Raise StreamError naming the first (x, y, p) item off the sensor or
    of a polarity other than +1 or -1."""
    # A reduction per column accepts valid columns; only invalid ones pay
    # for the scan that names the first offending item.
    if not len(p) or (x.max() < res.width and y.max() < res.height
                      and p.min() >= -1 and p.max() <= 1 and np.count_nonzero(p) == len(p)):
        return
    bad = np.flatnonzero((x >= res.width) | (y >= res.height))
    if len(bad):
        i = int(bad[0])
        raise StreamError(f"{item} {i} at ({x[i]},{y[i]}) outside {res}")
    i = int(np.flatnonzero((p != 1) & (p != -1))[0])
    raise StreamError(f"{item} {i} has polarity {p[i]}, want +1 or -1")


@functools.lru_cache(maxsize=8)
def _axis_maps(src: Resolution, target: Resolution) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols), read-only: source pixel (x, y) lands in flat target
    cell rows[y] + cols[x], that is cell (x*tw//sw, y*th//sh)."""
    cols = np.arange(src.width, dtype=np.int64) * target.width // src.width
    rows = np.arange(src.height, dtype=np.int64) * target.height // src.height * target.width
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def frame_accumulate(
    stream: EventStream,
    t0: int,
    t1: int,
    resolution: Resolution | None = None,
) -> np.ndarray:
    """Count events with t0 <= t < t1 per cell of a (height, width) int64 frame.

    The frame is at `resolution`, the stream's by default.  A coarser one
    bins pixel (x, y) into cell (x*tw//sw, y*th//sh), through one map per
    axis, so its memory follows the sensor's sides, not its area, and no
    sensor-sized frame is built.
    """
    if t1 <= t0:
        raise ValueError(f"bad window [{t0}, {t1})")
    src = stream.resolution
    res = resolution or src
    if res.width > src.width or res.height > src.height:
        raise StreamError(f"stream is {src}, cannot accumulate into larger {res}")
    stream.validate()
    t, x, y = stream.t, stream.x, stream.y
    # A window cut to [t0, t1) beforehand, as HandTracker.run cuts them,
    # needs no mask.  A sorted_valid window's first and last times are its
    # range.
    if len(t):
        lo, hi = (t[0], t[-1]) if stream.sorted_valid else (t.min(), t.max())
        if lo < t0 or hi >= t1:
            mask = (t >= t0) & (t < t1)
            x, y = x[mask], y[mask]
    rows, cols = _axis_maps(src, res)
    idx = rows.take(y)
    idx += cols.take(x)
    counts = np.bincount(idx, minlength=res.npixels)
    return counts.reshape(res.height, res.width).astype(np.int64, copy=False)


def frame_downsample(cells: np.ndarray, target: Resolution) -> np.ndarray:
    """A frame already at the target size, as it is; any other size is
    refused.  `frame_accumulate` bins events straight into target cells,
    so no sensor frame is ever built to downsample."""
    if cells.shape != (target.height, target.width):
        raise ValueError(f"frame is {cells.shape[1]}x{cells.shape[0]}, not {target}")
    return cells


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-hand pixel positions over time.

    `tracks` maps each hand to its (t, x, y) columns: read-only float64
    arrays of one length, with t in µs, non-negative and strictly
    increasing.  Frozen, so the columns always pass those checks.
    """

    tracks: Mapping[Hand, tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __post_init__(self):
        tracks = {}
        for hand, columns in self.tracks.items():
            t, x, y = cols = tuple(np.array(c, dtype=np.float64) for c in columns)
            if not 0 < len(t) == len(x) == len(y):
                raise ValueError(f"columns for {hand.value} must be non-empty and of one length, "
                                 f"got {len(t)}, {len(x)}, {len(y)}")
            back = np.flatnonzero(~(np.diff(t) > 0))
            if len(back):
                raise ValueError(f"timestamps for {hand.value} not strictly increasing at t={t[back[0] + 1]:.15g}")
            if not t[0] >= 0:
                raise ValueError(f"timestamps for {hand.value} must not be negative, got t={t[0]:.15g}")
            for c in cols:
                c.flags.writeable = False
            tracks[hand] = cols
        object.__setattr__(self, "tracks", MappingProxyType(tracks))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.tracks.keys() == other.tracks.keys() and all(
            np.array_equal(a, b) for hand, cols in self.tracks.items() for a, b in zip(cols, other.tracks[hand]))

    def __reduce__(self):
        # A mapping proxy does not pickle; copies rebuild it from a dict.
        return (Trajectory, (dict(self.tracks),))

    def shifted(self, offset_us: int) -> "Trajectory":
        """The same motion offset_us later; exact while times stay below 2**53."""
        return Trajectory({hand: (t + offset_us, x, y) for hand, (t, x, y) in self.tracks.items()})

    def first_outside(self, resolution: Resolution) -> tuple[int, float, float] | None:
        """(t, x, y) of the earliest sample off the sensor, the left hand's
        at equal times, or None when every sample is on it."""
        found = []
        for hand in (h for h in Hand if h in self.tracks):
            t, x, y = self.tracks[hand]
            off = np.flatnonzero(~((x >= 0) & (x < resolution.width) & (y >= 0) & (y < resolution.height)))
            if len(off):
                i = off[0]
                found.append((int(t[i]), float(x[i]), float(y[i])))
        return min(found, key=lambda s: s[0], default=None)

    def position_at(self, hand: Hand, t: float) -> tuple[float, float]:
        """Linearly interpolated position, clamped at the ends."""
        tr = self.tracks.get(hand)
        if tr is None:
            raise KeyError(f"trajectory has no samples for {hand.value}")
        ts, xs, ys = tr
        return float(np.interp(t, ts, xs)), float(np.interp(t, ts, ys))

    def span_us(self) -> tuple[int, int]:
        if not self.tracks:
            return (0, 0)
        ts = [t for t, _, _ in self.tracks.values()]
        return int(min(t[0] for t in ts)), int(max(t[-1] for t in ts))

    def to_json(self) -> str:
        """{"unit": "px", "samples": [[t, hand, x, y], ...]} in (t, hand) order."""
        samples = sorted([int(t), hand.value, x, y] for hand, cols in self.tracks.items()
                         for t, x, y in zip(*(c.tolist() for c in cols)))
        return json.dumps({"unit": "px", "samples": samples})


def waving_trajectory(resolution: Resolution, duration_ms: float) -> Trajectory:
    """Two hands waving in antiphase, so they never collide, around
    (0.28, 0.5) and (0.72, 0.5) of the sensor: 30 px across and 6 px up
    and down, with a 2 s period, sampled every 5 ms.  Deterministic."""
    if not 0 < duration_ms < np.inf:
        raise ValueError(f"duration_ms must be positive and finite, got {duration_ms}")
    n = max(2, int(round(duration_ms / 5.0)) + 1)
    ts = np.linspace(0.0, duration_ms, n)
    cy = 0.5 * resolution.height
    tracks = {}
    for hand, cx, phase in ((Hand.LEFT, 0.28 * resolution.width, 0.0),
                            (Hand.RIGHT, 0.72 * resolution.width, np.pi)):
        rows = [(int(round(t * 1000)),
                 cx + 30.0 * np.sin(2 * np.pi * t / 2000.0 + phase),
                 cy + 6.0 * np.sin(4 * np.pi * t / 2000.0 + phase)) for t in ts]
        tracks[hand] = np.array(rows).T
    traj = Trajectory(tracks)
    bad = traj.first_outside(resolution)
    if bad:
        raise ValueError("trajectory sample at t={} ({:.1f},{:.1f}) outside {}".format(*bad, resolution))
    return traj


# Synthesis renders the hands every MICRO_STEP_US; a pixel whose
# brightness changes by at least CONTRAST_THRESHOLD between two renders
# fires.
CONTRAST_THRESHOLD = 0.05
MICRO_STEP_US = 1000

# Micro-steps synthesized together.  A batch spans at most 65,535 µs, so
# its time offsets fit 16 bits, which leaves 16 for the pixel rank in a
# 32-bit sort word.  The length does not change the output.  A batch
# costs a fixed number of NumPy calls, and each hand's canvas spans its
# moves over the batch: 32 steps measured fastest on the two-note lossy
# show, whose hands move most; the demo's run about 10 % faster at 48.
_BATCH_STEPS = 32
assert _BATCH_STEPS * MICRO_STEP_US <= 0xFFFF


def _disk_patches(left, top, cx, cy, side, radius):
    """Soft-edged disks, clip(radius + 0.5 - distance, 0, 1), one per centre
    (cx, cy), on square patches of len(side) pixels whose corners are at
    (left, top): a (centres, rows, columns) array.

    np.hypot runs only in the band around each disk's edge.  Off it, the
    squared distance shows that the clip gives exactly 1 or 0: its margin,
    1e-9 of the edge's radius, dwarfs its rounding and hypot's.
    """
    n = len(side)
    dx = (left[:, None] + side) - cx[:, None]
    dy = (top[:, None] + side) - cy[:, None]
    edge = radius + 0.5
    margin = 1e-9 * edge
    dx2, dy2 = dx * dx, (dy * dy)[:, :, None]
    inner = dx2[:, None, :] < max(radius - 0.5 - margin, 0.0) ** 2 - dy2
    band = dx2[:, None, :] < (edge + margin) ** 2 - dy2
    band ^= inner
    disk = inner.astype(np.float64)
    at = np.flatnonzero(band)
    row, col = np.divmod(at, n)
    disk.ravel()[at] = np.clip(edge - np.hypot(dx.ravel()[row // n * n + col], dy.ravel()[row]), 0.0, 1.0)
    return disk


def _changed_pixels(left, top, cx, cy, side, radius, rate_scale, resolution):
    """The pixels of one batch whose brightness changes between successive
    frames, as (step, x, y, sign, count) columns in step, then row-major,
    order.  The frames' patch corners and blob centres come as (hand,
    frame) arrays.
    """
    n_side = len(side)
    lo_x, lo_y = left.min(axis=1), top.min(axis=1)
    hi_x, hi_y = left.max(axis=1) + n_side, top.max(axis=1) + n_side
    # A trajectory has at most two hands.  Each is drawn on a canvas of its
    # own unless their boxes meet; then np.maximum composites both on one.
    apart = lo_x.max() >= hi_x.min() or lo_y.max() >= hi_y.min()
    groups = [[j] for j in range(len(left))] if apart else [list(range(len(left)))]
    disks = _disk_patches(left.ravel(), top.ravel(), cx.ravel(), cy.ravel(), side, radius).reshape(
        left.shape + (n_side, n_side))
    parts = []
    for g in groups:
        x0, y0, x1, y1 = int(lo_x[g].min()), int(lo_y[g].min()), int(hi_x[g].max()), int(hi_y[g].max())
        canvas = np.zeros((left.shape[1], y1 - y0, x1 - x0))
        for j in g:
            for frame, disk, px, py in zip(canvas, disks[j], (left[j] - x0).tolist(), (top[j] - y0).tolist()):
                patch = frame[py:py + n_side, px:px + n_side]
                if j == g[0]:
                    patch[...] = disk
                else:
                    np.maximum(patch, disk, out=patch)
        # The canvas cut to the sensor, whose row-major order it keeps.
        sx0, sy0 = max(x0, 0), max(y0, 0)
        frames = canvas[:, sy0 - y0:min(y1, resolution.height) - y0, sx0 - x0:min(x1, resolution.width) - x0]
        diff = (frames[1:] - frames[:-1]).ravel()
        mag = np.abs(diff)
        at = np.flatnonzero(mag >= CONTRAST_THRESHOLD)
        counts = np.floor(rate_scale * mag[at] / CONTRAST_THRESHOLD).astype(np.int64)
        keep = counts > 0
        at, counts = at[keep], counts[keep]
        step, yx = np.divmod(at, frames[0].size)
        y, x = np.divmod(yx, frames.shape[2])
        parts.append((step, x + sx0, y + sy0, np.sign(diff[at]).astype(np.int8), counts))
    if len(parts) == 1:
        return parts[0]
    step, x, y, sign, counts = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort((step * resolution.height + y) * resolution.width + x)
    return step[order], x[order], y[order], sign[order], counts[order]


def synth_hand_events(
    trajectory: Trajectory,
    resolution: Resolution,
    seed: int,
    blob_radius: float = 8.0,
    rate_scale: float = 1.0,
    until_us: int | None = None,
    render: dict | None = None,
) -> EventStream:
    """Generate events from moving hand blobs by luminance frame differencing.

    The trajectory is rendered as soft-edged disks every MICRO_STEP_US;
    wherever the luminance changes by at least CONTRAST_THRESHOLD between
    successive micro-frames, the pixel emits
    floor(rate_scale * |delta| / CONTRAST_THRESHOLD) events with the sign
    of the change, timestamps jittered uniformly inside the step.
    A stationary scene therefore emits nothing.

    The stream is sorted by time, stably within each step.  With until_us,
    only the steps that start before it are computed, each exactly as in a
    full run, and only events with t < until_us are kept: the result is the
    full stream's prefix before until_us.

    The stream is valid and time-sorted by construction, so it comes back
    `sorted_valid`, with read-only columns.  Each batch's changed pixels
    are checked by `validate`'s rules once, when drawn, and every event
    copies one of them.  Each batch's times come out of one sort, the
    batches follow in time, and the until_us cut keeps a prefix.

    The changed pixels depend only on the motion relative to its start and
    on blob_radius and rate_scale.  Calls given one `render` dict draw each
    batch of them once and share it; a show's segments, each its score
    shifted to the segment's start, share the show's render of its score.
    The events' times are drawn per call, so the result is the same without.
    """
    for name, value, ok, want in (
        ("blob_radius", blob_radius, 0 < blob_radius < np.inf, "positive and finite"),
        ("rate_scale", rate_scale, 0 <= rate_scale < np.inf, "non-negative and finite"),
    ):
        if not ok:
            raise ValueError(f"bad synthesis parameters: {name} must be {want}, got {value}")
    bad = trajectory.first_outside(resolution)
    if bad:
        raise ValueError("trajectory sample at t={} ({:.1f},{:.1f}) outside {}".format(*bad, resolution))
    t_min, t_max = trajectory.span_us()
    stop = t_max + 1 if until_us is None else until_us
    n_steps = int(np.ceil((min(stop, t_max) - t_min) / MICRO_STEP_US))
    # A disk whose inner radius reaches the sensor's diagonal covers every
    # on-sensor pixel in every frame, so no pixel changes.
    if n_steps <= 0 or blob_radius - 0.5 >= np.hypot(resolution.width, resolution.height):
        return _sealed([np.empty(0, dtype) for dtype in _COLUMN_DTYPES], 0, resolution)
    rng = np.random.default_rng(seed)
    # Every micro-frame's blob centres as (hand, frame) arrays, one
    # interpolation per hand and axis.
    times = np.minimum(t_min + MICRO_STEP_US * np.arange(n_steps + 1), t_max)
    cx, cy = (np.array([np.interp(times, tr[0], tr[axis]) for tr in trajectory.tracks.values()])
              for axis in (1, 2))
    # Each disk is drawn on a square patch centred on the pixel holding its
    # centre; the patch's pixels outside the sensor are cut off.
    pad = int(np.ceil(blob_radius)) + 2
    side = np.arange(2 * pad + 1)
    left, top = cx.astype(np.int64) - pad, cy.astype(np.int64) - pad
    motion = tuple((hand, (t - t_min).tobytes(), x.tobytes(), y.tobytes())
                   for hand, (t, x, y) in trajectory.tracks.items())
    # Each batch drawn, by its first step k0: (k1, each step's first pixel
    # and events, then the pixels' x, y, sign and count columns).
    drawn = ({} if render is None else
             render.setdefault((motion, resolution, blob_radius, rate_scale), {}))
    changes = []
    for k0 in range(0, n_steps, _BATCH_STEPS):
        k1 = min(k0 + _BATCH_STEPS, n_steps)
        if k0 not in drawn or drawn[k0][0] < k1:
            # Frames k0..k1: the one before the batch's steps, then one per step.
            f = slice(k0, k1 + 1)
            step, x, y, sign, counts = _changed_pixels(left[:, f], top[:, f], cx[:, f], cy[:, f], side,
                                                       blob_radius, rate_scale, resolution)
            x, y = x.astype(np.uint16), y.astype(np.uint16)
            _check_pixels(x, y, sign, resolution, "changed pixel")
            # A pixel's count rarely passes 255; a byte each keeps the render,
            # which lives as long as the show, small.
            drawn[k0] = (k1, np.searchsorted(step, np.arange(k1 - k0 + 1)),
                         np.bincount(step, counts, k1 - k0).astype(np.int64), x, y, sign,
                         counts.astype(np.uint8) if counts.max(initial=0) <= 0xFF else counts)
        # A pixel's brightness in a frame is the largest of the disks over
        # it, whichever canvas draws it, so the first steps of a batch drawn
        # longer change the pixels these steps would.
        _, starts, per_step, x, y, sign, counts = drawn[k0]
        cut = starts[k1 - k0]
        changes.append((k0, k1, per_step[:k1 - k0], x[:cut], y[:cut], sign[:cut], counts[:cut]))
    total = sum(int(c[2].sum()) for c in changes)
    t_out, x_out, y_out, p_out = (np.empty(total, dtype) for dtype in _COLUMN_DTYPES)
    n = 0
    for k0, k1, per_step, x, y, sign, counts in changes:
        if not len(counts):
            continue
        t0, span = int(times[k0]), int(times[k1] - times[k0])
        # One draw for the batch gives the numbers one draw per step would.
        # An event's time is floor(t_lo + r * dt) for its step's start t_lo
        # and length dt.  That sum less t0 is exact in float64, so its floor
        # is the time's offset from t0.
        offset = rng.random(int(per_step.sum()))
        offset *= np.repeat(np.diff(times[k0:k1 + 1]).astype(np.float64), per_step)
        offset += np.repeat(times[k0:k1].astype(np.float64), per_step)
        offset -= t0
        # Events at one time from one pixel are equal, so sorting the
        # offsets with the pixel's rank packed below them sorts the batch
        # as a stable sort of the offsets would: each step stably, and the
        # steps in order.
        bits = (len(counts) - 1).bit_length()
        word_type = np.uint32 if (span + 1) << bits <= 1 << 32 else np.uint64
        word = offset.astype(word_type)
        word <<= bits
        word |= np.repeat(np.arange(len(counts), dtype=word_type), counts)
        word.sort()
        if times[k1] >= stop:
            word = word[:np.searchsorted(word, (stop - t0) << bits)]
        rank = np.bitwise_and(word, (1 << bits) - 1, out=np.empty(len(word), np.intp))
        end = n + len(word)
        np.right_shift(word, bits, out=t_out[n:end])
        t_out[n:end] += np.uint64(t0)
        x_out[n:end], y_out[n:end], p_out[n:end] = x[rank], y[rank], sign[rank]
        n = end
    return _sealed((t_out, x_out, y_out, p_out), n, resolution)


def _sealed(columns, n: int, resolution: Resolution) -> EventStream:
    """The first n events of synthesized columns as a `sorted_valid` stream.
    The whole columns are made read-only, so no view of them can be made
    writeable again."""
    for c in columns:
        c.flags.writeable = False
    stream = EventStream(*(c[:n] for c in columns), resolution)
    stream.__dict__["_sorted_valid"] = True
    return stream


def add_noise_events(stream: EventStream, fraction: float, seed: int) -> EventStream:
    """Mix in uniformly random distractor events, fraction relative to len(stream)."""
    if fraction < 0:
        raise ValueError("fraction must be >= 0")
    n = int(round(len(stream) * fraction))
    if n == 0:
        return stream
    rng = np.random.default_rng(seed)
    t0, t1 = stream.span_us()
    res = stream.resolution
    noise = EventStream(
        rng.integers(t0, max(t1, t0 + 1), n),
        rng.integers(0, res.width, n),
        rng.integers(0, res.height, n),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
        res,
    )
    merged = (np.concatenate([getattr(stream, c), getattr(noise, c)]) for c in "txyp")
    return EventStream(*merged, res).time_sorted()


def check_evt1_resolution(res: Resolution) -> None:
    """EVT1 stores the sensor's width and height as u16 fields."""
    if res.width > 0xFFFF or res.height > 0xFFFF:
        raise CodecError(f"resolution {res} does not fit u16 fields")


def encode_evt1(stream: EventStream) -> bytes:
    """Serialize a stream to EVT1 bytes (see module docstring for layout)."""
    stream.validate()
    res = stream.resolution
    check_evt1_resolution(res)
    header = _EVT1_HEADER.pack(EVT1_MAGIC, res.width, res.height, 0)
    wire = np.zeros(len(stream), dtype=_WIRE_DTYPE)
    wire["t"], wire["x"], wire["y"], wire["p"] = stream.t, stream.x, stream.y, stream.p
    return header + wire.tobytes()


def decode_evt1(data: bytes) -> EventStream:
    """Parse EVT1 bytes; raises CodecError on any structural problem."""
    if len(data) < _EVT1_HEADER.size:
        raise CodecError(f"truncated header: {len(data)} bytes")
    magic, width, height, reserved = _EVT1_HEADER.unpack_from(data)
    if magic != EVT1_MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    body = len(data) - _EVT1_HEADER.size
    if body % _WIRE_DTYPE.itemsize != 0:
        raise CodecError(f"truncated record section: {body} bytes")
    wire = np.frombuffer(data, dtype=_WIRE_DTYPE, offset=_EVT1_HEADER.size)
    try:
        stream = EventStream(wire["t"], wire["x"], wire["y"], wire["p"], Resolution(width, height))
        stream.validate()
    except ValueError as exc:
        raise CodecError(str(exc)) from exc
    return stream
