"""Event-camera data model: streams, frames, synthesis, EVT1 codec.

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
"""

from __future__ import annotations

import functools
import json
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

# On-wire record layout: 16 bytes with 3 trailing zero pad bytes.
_WIRE_DTYPE = np.dtype({"names": ["t", "x", "y", "p"], "formats": ["<u8", "<u2", "<u2", "<i1"],
                        "offsets": [0, 8, 10, 12], "itemsize": 16})

EVT1_MAGIC = b"EVT1"
_EVT1_HEADER = struct.Struct("<4sHHI")
assert _EVT1_HEADER.size == 12

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
    """A batch of events as four columns plus the resolution they were captured at."""

    def __init__(self, t, x, y, p, resolution: Resolution):
        t = np.asarray(t)
        neg = np.flatnonzero(t < 0) if t.dtype.kind in "if" else ()  # u8 would wrap them
        if len(neg):
            raise StreamError(f"event {neg[0]} has negative time {t[neg[0]]}")
        self.t, self.x, self.y, self.p = (np.ascontiguousarray(c, dtype) for c, dtype in
                                          zip((t, x, y, p), (np.uint64, np.uint16, np.uint16, np.int8)))
        if not len(self.t) == len(self.x) == len(self.y) == len(self.p):
            raise StreamError(f"column lengths differ: {len(self.t)}, {len(self.x)}, {len(self.y)}, {len(self.p)}")
        self.resolution = resolution

    @classmethod
    def empty(cls, resolution: Resolution) -> "EventStream":
        return cls([], [], [], [], resolution)

    def __getitem__(self, key) -> "EventStream":
        """The events a slice, mask or index array picks; a slice gives views."""
        return EventStream(self.t[key], self.x[key], self.y[key], self.p[key], self.resolution)

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.resolution == other.resolution and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in "txyp")

    def validate(self) -> None:
        """Raise StreamError naming the first offending event, if any."""
        x, y, p, res = self.x, self.y, self.p, self.resolution
        # A reduction per column accepts a valid stream; only an invalid one
        # pays for the scan that names its first offending event.
        if not len(p) or (x.max() < res.width and y.max() < res.height
                          and p.min() >= -1 and p.max() <= 1 and np.count_nonzero(p) == len(p)):
            return
        bad = np.flatnonzero((x >= res.width) | (y >= res.height))
        if len(bad):
            i = int(bad[0])
            raise StreamError(f"event {i} at ({x[i]},{y[i]}) outside {res}")
        i = int(np.flatnonzero((p != 1) & (p != -1))[0])
        raise StreamError(f"event {i} has polarity {p[i]}, want +1 or -1")

    def time_sorted(self) -> "EventStream":
        return self[np.argsort(self.t, kind="stable")]

    def span_us(self) -> tuple[int, int]:
        if len(self) == 0:
            return (0, 0)
        return int(self.t.min()), int(self.t.max())


@dataclass
class Frame:
    """Accumulated event counts (or signed polarity sums) over a time window."""

    resolution: Resolution
    cells: np.ndarray
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.cells.shape != (self.resolution.height, self.resolution.width):
            raise ValueError(f"cells shape {self.cells.shape} does not match {self.resolution}")


@functools.lru_cache(maxsize=8)
def _cell_map(src: Resolution, target: Resolution) -> np.ndarray:
    """Flat target-cell index of each flat source pixel, read-only."""
    xmap = (np.arange(src.width, dtype=np.int64) * target.width) // src.width
    ymap = (np.arange(src.height, dtype=np.int64) * target.height) // src.height
    cell = (ymap[:, None] * target.width + xmap).ravel()
    cell.flags.writeable = False
    return cell


def frame_accumulate(
    stream: EventStream,
    t0: int,
    t1: int,
    resolution: Resolution | None = None,
    signed: bool = False,
) -> Frame:
    """Accumulate events with t0 <= t < t1 into a frame.

    Unsigned mode counts events per cell; signed mode sums polarities.
    The frame is at `resolution`, the stream's by default.  A coarser one
    bins each event straight into the cell `frame_downsample` maps its
    pixel to, so the frame equals the downsampled sensor frame, which is
    never built.
    """
    if t1 <= t0:
        raise ValueError(f"bad window [{t0}, {t1})")
    src = stream.resolution
    res = resolution or src
    if res.width > src.width or res.height > src.height:
        raise StreamError(f"stream is {src}, cannot accumulate into larger {res}")
    stream.validate()
    t, x, y, p = stream.t, stream.x, stream.y, stream.p
    # A window cut to [t0, t1) beforehand, as HandTracker.run cuts them,
    # needs no mask.
    if len(t) and (t.min() < t0 or t.max() >= t1):
        mask = (t >= t0) & (t < t1)
        x, y, p = x[mask], y[mask], p[mask]
    idx = _cell_map(src, res)[y.astype(np.int64) * src.width + x]
    counts = np.bincount(idx, weights=p if signed else None, minlength=res.npixels)
    cells = counts.reshape(res.height, res.width).astype(np.int64, copy=False)
    return Frame(res, cells, t0, t1)


def frame_downsample(frame: Frame, target: Resolution) -> Frame:
    """Sum source cells into target cells via floor index mapping.

    Source pixel (x, y) lands in target cell (x*tw//sw, y*th//sh).  Total
    count is conserved exactly.  A frame already at the target resolution
    is returned as it is.
    """
    src = frame.resolution
    if target == src:
        return frame
    if target.width > src.width or target.height > src.height:
        raise ValueError(f"cannot downsample {src} to larger {target}")
    cells = frame.cells.astype(np.int64, copy=False).ravel()
    nz = np.flatnonzero(cells)
    # Float sums of integer counts are exact while they stay below 2**53.
    sums = np.bincount(_cell_map(src, target)[nz], weights=cells[nz], minlength=target.npixels)
    return Frame(target, sums.astype(np.int64).reshape(target.height, target.width), frame.t_start, frame.t_end)


@dataclass(frozen=True)
class TrajectorySample:
    t: int
    hand: Hand
    x: float
    y: float


@dataclass(frozen=True)
class Trajectory:
    """Per-hand pixel position samples over time.

    Frozen, so the per-hand (t, x, y) arrays in `tracks`, built once from
    the samples and read-only, always match them.
    """

    samples: tuple[TrajectorySample, ...] = ()
    tracks: Mapping[Hand, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        samples = tuple(self.samples)
        points: dict[Hand, list[tuple[int, float, float]]] = {}
        for s in samples:
            pts = points.setdefault(s.hand, [])
            if pts and s.t <= pts[-1][0]:
                raise ValueError(
                    f"timestamps for {s.hand.value} not strictly increasing at t={s.t}"
                )
            pts.append((s.t, s.x, s.y))
        tracks = {}
        for hand, pts in points.items():
            rows = np.array(pts, dtype=np.float64).T.copy()
            rows.flags.writeable = False
            tracks[hand] = tuple(rows)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "tracks", MappingProxyType(tracks))

    def __reduce__(self):
        # Copies and pickles rebuild their arrays from the samples.
        return (Trajectory, (self.samples,))

    def hands(self) -> list[Hand]:
        return list(self.tracks)

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
        return json.dumps(
            {
                "unit": "px",
                "samples": [[s.t, s.hand.value, s.x, s.y] for s in self.samples],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        obj = json.loads(text)
        if obj.get("unit", "px") != "px":
            raise ValueError(f"trajectory unit must be 'px', got {obj['unit']!r}")
        return cls(
            TrajectorySample(int(t), Hand(h), float(x), float(y))
            for t, h, x, y in obj["samples"]
        )


def waving_trajectory(
    resolution: Resolution,
    duration_ms: float,
    amplitude_px: float = 30.0,
    period_ms: float = 2000.0,
    centers: dict[Hand, tuple[float, float]] | None = None,
    y_amplitude_px: float = 6.0,
    sample_ms: float = 5.0,
) -> Trajectory:
    """Two hands waving sinusoidally around fixed centers.  Deterministic."""
    if centers is None:
        w, h = resolution.width, resolution.height
        centers = {
            Hand.LEFT: (0.28 * w, 0.5 * h),
            Hand.RIGHT: (0.72 * w, 0.5 * h),
        }
    n = max(2, int(round(duration_ms / sample_ms)) + 1)
    ts = np.linspace(0.0, duration_ms, n)
    samples = []
    for hand, (cx, cy) in centers.items():
        # Hands move in antiphase so they never collide.
        phase = 0.0 if hand is Hand.LEFT else np.pi
        for t in ts:
            x = cx + amplitude_px * np.sin(2 * np.pi * t / period_ms + phase)
            y = cy + y_amplitude_px * np.sin(4 * np.pi * t / period_ms + phase)
            samples.append(TrajectorySample(int(round(t * 1000)), hand, float(x), float(y)))
    samples.sort(key=lambda s: (s.t, s.hand.value))
    traj = Trajectory(samples)
    _check_trajectory_bounds(traj, resolution)
    return traj


def _check_trajectory_bounds(traj: Trajectory, resolution: Resolution) -> None:
    for s in traj.samples:
        if not (0 <= s.x < resolution.width and 0 <= s.y < resolution.height):
            raise ValueError(
                f"trajectory sample at t={s.t} ({s.x:.1f},{s.y:.1f}) outside {resolution}"
            )


# Micro-steps synthesized together.  A batch's events sort on their offset
# from its start, so a span under 65.5 ms keeps the key in 16 bits, which
# NumPy radix-sorts.  Ten steps measured fastest: longer batches scan a box
# that grows as the hands move.
_BATCH_STEPS = 10


def synth_hand_events(
    trajectory: Trajectory,
    resolution: Resolution,
    seed: int,
    blob_radius: float = 8.0,
    contrast_threshold: float = 0.05,
    rate_scale: float = 1.0,
    micro_step_us: int = 1000,
    until_us: int | None = None,
) -> EventStream:
    """Generate events from moving hand blobs by luminance frame differencing.

    The trajectory is rendered as soft-edged disks at micro_step_us
    intervals; wherever the luminance changes by at least
    contrast_threshold between successive micro-frames, the pixel emits
    floor(rate_scale * |delta| / contrast_threshold) events with the sign
    of the change, timestamps jittered uniformly inside the step.
    A stationary scene therefore emits nothing.

    The stream is sorted by time, stably within each step.  With until_us,
    only the steps that start before it are computed, each exactly as in a
    full run, and only events with t < until_us are kept: the result is the
    full stream's prefix before until_us.
    """
    if contrast_threshold <= 0 or rate_scale < 0 or micro_step_us <= 0:
        raise ValueError("bad synthesis parameters")
    _check_trajectory_bounds(trajectory, resolution)
    t_min, t_max = trajectory.span_us()
    stop = t_max + 1 if until_us is None else until_us
    n_steps = int(np.ceil((min(stop, t_max) - t_min) / micro_step_us))
    if n_steps <= 0:
        return EventStream.empty(resolution)
    rng = np.random.default_rng(seed)
    # Every micro-frame's blob centres as (hand, frame) arrays, one
    # interpolation per hand and axis.
    times = np.minimum(t_min + micro_step_us * np.arange(n_steps + 1), t_max)
    cx, cy = (np.array([np.interp(times, tr[0], tr[axis]) for tr in trajectory.tracks.values()])
              for axis in (1, 2))
    # Each disk is drawn on a square patch centred on the pixel holding its
    # centre; the patch's pixels outside the sensor are cut off below.
    pad = int(np.ceil(blob_radius)) + 2
    side = np.arange(2 * pad + 1)
    left, top = cx.astype(np.int64) - pad, cy.astype(np.int64) - pad
    batch = max(1, min(_BATCH_STEPS, 0xFFFF // micro_step_us))
    out = []
    for k0 in range(0, n_steps, batch):
        k1 = min(k0 + batch, n_steps)
        # Frames k0..k1: the one before the batch's steps, then one per step,
        # each on a canvas that holds every patch of all of them.
        f = slice(k0, k1 + 1)
        x0, y0 = int(left[:, f].min()), int(top[:, f].min())
        w, h = int(left[:, f].max()) - x0 + len(side), int(top[:, f].max()) - y0 + len(side)
        canvas = np.zeros((k1 - k0 + 1) * h * w)
        origin = np.arange(k1 - k0 + 1) * (h * w)
        for hl, ht, hx, hy in zip(left[:, f], top[:, f], cx[:, f], cy[:, f]):
            dx = (hl[:, None] + side) - hx[:, None]
            dy = (ht[:, None] + side) - hy[:, None]
            disk = np.clip(blob_radius + 0.5 - np.hypot(dx[:, None, :], dy[:, :, None]), 0.0, 1.0)
            at = (origin + (ht - y0) * w + (hl - x0))[:, None, None] + side[:, None] * w + side
            canvas[at] = np.maximum(canvas[at], disk)
        # Change can only happen inside the frames' blobs, which the box cut
        # to the sensor holds.  Its nonzero() order, step then row-major,
        # is each step's order over any box that holds them.
        sx0, sy0 = max(x0, 0), max(y0, 0)
        frames = canvas.reshape(-1, h, w)[:, sy0 - y0:min(h, resolution.height - y0),
                                          sx0 - x0:min(w, resolution.width - x0)]
        diff = (frames[1:] - frames[:-1]).ravel()
        mag = np.abs(diff)
        at = np.flatnonzero(mag >= contrast_threshold)
        counts = np.floor(rate_scale * mag[at] / contrast_threshold).astype(np.int64)
        keep = counts > 0
        at, counts = at[keep], counts[keep]
        total = int(counts.sum())
        if not total:
            continue
        ss, yx = np.divmod(at, frames[0].size)
        yy, xx = np.divmod(yx, frames.shape[2])
        per_step = np.bincount(ss, counts, k1 - k0).astype(np.int64)
        t_lo, dt = np.repeat(times[k0:k1], per_step), np.repeat(np.diff(times[f]), per_step)
        # One draw for the batch gives the numbers one draw per step would.
        ts = (t_lo + rng.random(total) * dt).astype(np.uint64)
        # Steps follow each other in time, so a stable sort of the batch on
        # the offset into it sorts each step stably and keeps them in order.
        key = (ts - np.uint64(times[k0])).astype(np.min_scalar_type(times[k1] - times[k0]))
        order = np.argsort(key, kind="stable")
        if times[k1] >= stop:
            order = order[ts[order] < stop]
        pixel = np.repeat(np.arange(len(counts)), counts)[order]
        out.append((
            ts[order],
            (xx + sx0).astype(np.uint16)[pixel],
            (yy + sy0).astype(np.uint16)[pixel],
            np.sign(diff[at]).astype(np.int8)[pixel],
        ))
    if not out:
        return EventStream.empty(resolution)
    return EventStream(*(np.concatenate(c) for c in zip(*out)), resolution)


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


def encode_evt1(stream: EventStream) -> bytes:
    """Serialize a stream to EVT1 bytes (see module docstring for layout)."""
    stream.validate()
    res = stream.resolution
    if res.width > 0xFFFF or res.height > 0xFFFF:
        raise CodecError(f"resolution {res} does not fit u16 fields")
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
    res = Resolution(width, height)
    wire = np.frombuffer(data, dtype=_WIRE_DTYPE, offset=_EVT1_HEADER.size)
    stream = EventStream(wire["t"], wire["x"], wire["y"], wire["p"], res)
    try:
        stream.validate()
    except StreamError as exc:
        raise CodecError(str(exc)) from exc
    return stream
