"""Hand tracking: event frames in, labeled pitch/volume hand estimates out.

Pipeline per step: accumulate the window's events straight into the
on-chip grid's cells, a plain (height, width) int64 count array, through
one map per sensor axis built once per sensor and chip size (`run` cuts each
window inside its span, so no time mask is needed, and no sensor-sized
frame is built), turn counts into a heatmap with the one detector (a
Gaussian blur of the counts, weights built once, sent through one
sigma-delta boundary: `blob` is its theta 0, where every change is sent,
`sd_net` its SD_THETA), drive the neural field one step with the heatmap,
and read peaks back out as upscaled hand positions.  The field's inertia
is what rejects distractor events; when nothing is detected the previous
estimate is held with its confidence halved each step.

The arithmetic is exact in any order.  The blur's weights are multiples
of 2**-16 that sum to exactly 1, so a blurred count frame holds integer
counts of 2**-32 below 2**53: its float64 sums, and the sigma-delta
boundary's differences and accumulations, lose no bit, and a threshold
acts as the integer ceil(theta * 2**32) on them.  The heatmap is an int64
count of 2**-16 (U_ONE is full scale): the gain rounds each cell's
share of its reference level there, once, and the field
(`neural_field`) takes it times INPUT_GAIN as its input.

A window costs what the hands touch, not the whole grid: the blur is two
banded products on the box around the window's nonzero cells, handed on
as that box and its values; the boundary encodes only the union of this
window's box and the last one's, because after each window every cell
outside its box holds a last-sent value that a zero input leaves unsent;
the field's lateral term reads only its firing cells, and peak regions
are joined from the row runs of the field's supra-threshold cells.  Exact
sums make each equal to its full-grid pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .events import EventStream, Resolution, StreamError, frame_accumulate, frame_downsample
from .neural_field import (
    U_ONE,
    Field,
    FieldParams,
    KernelParams,
    LateralKernel,
    Peak,
    _band,
    detect_peaks,
    field_step,
    make_kernel,
)

# A (rows, columns) pair of slices of the chip grid.
Box = tuple[slice, slice]


class HandLabel(Enum):
    PITCH = "pitch_hand"
    VOLUME = "volume_hand"


@dataclass(frozen=True)
class HandPoint:
    x: float
    y: float
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass
class HandEstimate:
    t_us: int
    hands: dict[HandLabel, HandPoint] = dataclass_field(default_factory=dict)


def tracker_field_params() -> tuple[FieldParams, KernelParams]:
    """Field preset for tracking: quick integration so the peak follows a
    moving hand within a few windows, mild local excitation for pooling,
    no global inhibition so both hands can hold a peak.

    Excitation is kept weak on purpose.  A self-sustaining bump parks
    itself where the input used to be and the peak centroid then lags a
    moving hand by several cells; with input-dominated dynamics the bump
    dies where the input dies and re-forms where it moved."""
    return (
        FieldParams(tau=3.0, h=-5.0, beta=4.0, dt=1.0),
        KernelParams(c_exc=2.0, sigma_exc=2.0, c_inh=2.0, sigma_inh=4.0, g_inh=0.0),
    )


# The tracker's one tuning.  Peaks are read off the field above
# DETECT_THRESHOLD, at least MIN_SEPARATION_CELLS apart and of at least
# MIN_PEAK_MASS; the argmax baseline ignores heat below ARGMAX_FLOOR.
# The heatmap's reference level decays by GAIN_DECAY per step and rises
# by at most GAIN_GROWTH.
INPUT_GAIN = 15
DETECT_THRESHOLD = 0.0
MIN_SEPARATION_CELLS = 6.0
MIN_PEAK_MASS = 1.0
CONFIDENCE_DECAY = 0.5  # a held hand's confidence, per window without peaks
BLUR_SIGMA_CELLS = 1.5
SD_THETA = 0.02
ARGMAX_FLOOR = 0.2
GAIN_DECAY = 0.9
GAIN_GROWTH = 1.5
# A window's count saturates at COUNT_CAP per cell, which keeps every
# blurred value, a count of 2**-32, below 2**53.
COUNT_CAP = 1 << 20
# The on-chip grid the field runs on.
CHIP_RES = Resolution(86, 65)
# The one detector's settings by name, (theta, blur radius); the first is
# the default.  blob's radius truncates the blur as `gaussian_filter` does.
DETECTORS = {"blob": (0.0, int(4 * BLUR_SIGMA_CELLS + 0.5)),
             "sd_net": (SD_THETA, max(1, math.ceil(3 * BLUR_SIGMA_CELLS)))}
# A run keeps one estimate per window: about 250 B without hands and 660 B
# with two (tracemalloc, 10,000 windows), so a run of MAX_WINDOWS, 2.9 h of
# 10 ms windows, holds at most about 0.7 GB.
MAX_WINDOWS = 1 << 20


@dataclass
class TrackerConfig:
    input_res: Resolution = Resolution(240, 180)
    window_us: int = 10_000
    detector: str = next(iter(DETECTORS))  # a DETECTORS key
    use_field: bool = True  # False = raw argmax baseline, no field filtering

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if CHIP_RES.width > self.input_res.width or CHIP_RES.height > self.input_res.height:
            raise ValueError(f"chip {CHIP_RES} exceeds input {self.input_res}")
        if self.window_us <= 0:
            raise ValueError("window must be positive")
        # Window ends are u64 event times, and a window of 2**63 or more
        # can push one past 2**64.
        if self.window_us >= 2**63:
            raise ValueError(f"window_us must be below 2**63, got {self.window_us}")


class GainControl:
    """Decaying reference level for heatmap normalization.

    Normalizing each frame by its own maximum erases the difference
    between strong evidence and noise: in a window where the hands are
    nearly still (event cameras see nothing at a motion turning point)
    the brightest pixel is a stray event, and per-frame scaling promotes
    it to full strength.  A reference that tracks the recent peak and
    decays a little per step keeps quiet windows quiet.  Upward slew is
    capped so a one-hand event burst (a fast note jump) cannot crush the
    other, slower hand out of the normalized map.
    """

    def __init__(self):
        self.ref = 0.0

    def normalize(self, img: np.ndarray, peak: float | None = None) -> np.ndarray:
        """A non-negative img over ref, at most 1, as int64 counts of
        2**-16 rounded half to even: the gain's one rounding.  A caller
        that knows img's maximum passes it as peak."""
        m = float(img.max() if peak is None else peak)
        if self.ref <= 0:
            self.ref = m
        else:
            self.ref = min(max(self.ref * GAIN_DECAY, m), self.ref * GAIN_GROWTH)
        scale = U_ONE / self.ref if self.ref > 0 else math.inf
        # A long quiet stretch decays ref toward 0: one so small that the
        # scaled frame would overflow counts as none.
        if not math.isfinite(scale * max(m, 1.0)):
            self.ref = 0.0
            return np.zeros(img.shape, dtype=np.int64)
        heat = img * scale
        np.rint(heat, out=heat)
        np.minimum(heat, U_ONE, out=heat)
        return heat.astype(np.int64)


class GaussianBlur:
    """Zero-padded Gaussian blur of a count frame truncated at `radius`
    cells, along axis 0 then 1.  Its 1-D weights are `gaussian_filter1d`'s
    rounded to multiples of 2**-16, the centre taking the remainder
    so that they sum to exactly 1.  Counts above COUNT_CAP count as it."""

    def __init__(self, sigma: float, radius: int):
        x = np.arange(-radius, radius + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x**2)
        w = np.rint(phi / phi.sum() * U_ONE)
        w[radius] += U_ONE - w.sum()
        self.weights = w / U_ONE
        self._bands: dict = {}

    def bands(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) on an (h, w) grid, built on first use: the blur of
        x is rows @ x @ cols, where cols is _band(weights, w).T."""
        if shape not in self._bands:
            h, w = shape
            self._bands[shape] = _band(self.weights, h), _band(self.weights[::-1], w)
        return self._bands[shape]

    def boxed(self, cells: np.ndarray) -> tuple[Box, np.ndarray] | None:
        """(box, values): the blur is values on the grid's box and 0
        outside it; None when every cell is 0."""
        # Outside the box around the nonzero cells, widened by the radius,
        # input and blur are both zero; inside it, the products need only
        # the bands' rows and columns of those cells.
        h, w = cells.shape
        ys = np.flatnonzero(cells.any(axis=1))
        if len(ys) == 0:
            return None
        xs = np.flatnonzero(cells.any(axis=0))
        (y0, y1), (x0, x1) = (int(ys[0]), int(ys[-1]) + 1), (int(xs[0]), int(xs[-1]) + 1)
        r = len(self.weights) // 2
        box = (slice(max(y0 - r, 0), min(y1 + r, h)), slice(max(x0 - r, 0), min(x1 + r, w)))
        rows, cols = self.bands(cells.shape)
        counts = np.minimum(cells[y0:y1, x0:x1], COUNT_CAP).astype(np.float64)
        return box, rows[box[0], y0:y1] @ counts @ cols[x0:x1, box[1]]

    def __call__(self, cells: np.ndarray) -> np.ndarray:
        """The blur on the whole grid: the reference the detector's tests use."""
        out = np.zeros(cells.shape)
        if (boxed := self.boxed(cells)) is not None:
            out[boxed[0]] = boxed[1]
        return out


class SigmaDeltaDetector:
    """The tracker's detector: the count frame's Gaussian blur, truncated
    at `radius` cells and sent through one sigma-delta boundary each step,
    so between-step redundancy is carried by spikes only and the decoded
    blur is within theta of the true one in every cell.  Its values are
    exact, so the decoder's accumulator is the encoder's last-sent grid,
    `last_sent`, to the bit: the heatmap normalizes that grid, which is
    never below 0.  At theta 0 every change is sent, `last_sent` is the
    blur and the heatmap is the gain's of the blur.

    Invariant: once a window is encoded, every cell outside its blur box
    holds a last-sent value that a zero input does not spike, below theta
    (0 at theta 0).  So the next window can spike only in the union of its
    box and this one's, and a union maximum of at least theta is the
    grid's.  The boundary updates last_sent in place there and counts its
    spikes, with no spike batch built: values, counts and heatmaps equal
    `delta_encode`'s over the whole grid, the reference the tests use."""

    def __init__(self, resolution: Resolution, sigma_cells: float, theta: float, radius: int):
        if not theta >= 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.blur = GaussianBlur(sigma_cells, radius)
        self.theta = theta
        self.gain = GainControl()
        self.last_sent = np.zeros((resolution.height, resolution.width))
        self.total_spikes = 0
        self._box: Box | None = None  # the last window's blur box

    def heatmap(self, cells: np.ndarray) -> np.ndarray:
        sent = self.last_sent
        if cells.shape != sent.shape:
            raise ValueError(f"got a {cells.shape} frame for a {sent.shape} detector")
        boxed = self.blur.boxed(cells)
        box = None if boxed is None else boxed[0]
        union, self._box = _union(box, self._box), box
        if union is None:
            return self.gain.normalize(sent)
        blurred = np.zeros(sent.shape)
        if boxed is not None:
            blurred[box] = boxed[1]
        blurred = blurred[union]
        last = sent[union]
        # At theta 0 every change is sent: the union takes the blur's values.
        spiking = np.abs(blurred - last) >= self.theta if self.theta > 0 else blurred != last
        np.copyto(last, blurred, where=spiking)
        self.total_spikes += int(np.count_nonzero(spiking))
        m = last.max()
        return self.gain.normalize(sent, m if m >= self.theta else None)


def _union(a: Box | None, b: Box | None) -> Box | None:
    """The smallest box holding both; None when neither is a box."""
    if a is None or b is None:
        return a or b
    (ay, ax), (by, bx) = a, b
    return slice(min(ay.start, by.start), max(ay.stop, by.stop)), slice(min(ax.start, bx.start), max(ax.stop, bx.stop))


def detect_heatmap(frame: np.ndarray, detector) -> np.ndarray:
    """Normalized detection heatmap of the frame's shape: int64 counts of
    2**-16, from 0 to U_ONE."""
    return detector.heatmap(frame)


def assign_hands(peaks: list[Peak]) -> dict[HandLabel, Peak]:
    """Label up to two peaks.  A single peak is the pitch hand.  With two,
    the image-left peak is the pitch hand: a camera facing the player
    sees their right hand on the image left."""
    if not peaks:
        return {}
    if len(peaks) == 1:
        return {HandLabel.PITCH: peaks[0]}
    a, b = sorted(peaks[:2], key=lambda p: (p.x, p.y))
    return {HandLabel.PITCH: a, HandLabel.VOLUME: b}


class HandTracker:
    """Stateful window-by-window tracker; see module docstring."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        cfg = self.config
        self.detector = SigmaDeltaDetector(CHIP_RES, BLUR_SIGMA_CELLS, *DETECTORS[cfg.detector])
        self.field_params, kernel_params = tracker_field_params()
        self.kernel: LateralKernel = make_kernel(kernel_params)
        self.field = Field.at_rest(CHIP_RES, self.field_params)
        self.previous: HandEstimate | None = None

    def _upscale(self, p: Peak) -> tuple[float, float]:
        cfg = self.config
        sx = cfg.input_res.width / CHIP_RES.width
        sy = cfg.input_res.height / CHIP_RES.height
        # Cell-center rule: undoes the half-cell bias of floor downsampling.
        return ((p.x + 0.5) * sx, (p.y + 0.5) * sy)

    def step(self, window: EventStream, t_end: int) -> HandEstimate:
        cfg = self.config
        t_start = t_end - cfg.window_us
        if window.resolution != cfg.input_res:
            raise StreamError(f"window is {window.resolution}, tracker input is {cfg.input_res}")
        # An identity on a chip-resolution frame; kept as the stage bench/tracing.py times.
        chip = frame_downsample(frame_accumulate(window, t_start, t_end, CHIP_RES), CHIP_RES)
        heat = detect_heatmap(chip, self.detector)
        if cfg.use_field:
            self.field = field_step(self.field, heat * INPUT_GAIN, self.kernel)
            peaks = detect_peaks(self.field, DETECT_THRESHOLD, MIN_SEPARATION_CELLS)
            peaks = [p for p in peaks if p.mass >= MIN_PEAK_MASS][:2]
        else:
            peaks = _argmax_peaks(heat)
        if peaks:
            hands = {k: HandPoint(*self._upscale(p), 1.0) for k, p in assign_hands(peaks).items()}
        else:
            # No peak: hold the last positions with decayed confidence.
            held = self.previous.hands if self.previous is not None else {}
            hands = {k: HandPoint(p.x, p.y, p.confidence * CONFIDENCE_DECAY) for k, p in held.items()}
        self.previous = HandEstimate(t_end, hands)
        return self.previous

    def run(self, stream: EventStream, t_start: int | None = None, t_end: int | None = None) -> list[HandEstimate]:
        """Track a whole stream in fixed windows; timestamps at window ends.
        A last window that would end past the u64 time limit is refused, and
        so is a span of more than MAX_WINDOWS windows."""
        cfg = self.config
        if t_start is None or t_end is None:
            if len(stream) == 0:
                return []
            lo, hi = stream.span_us()
            t_start = lo if t_start is None else t_start
            t_end = hi + 1 if t_end is None else t_end
        t = stream.t
        # A synthesized stream is sorted by construction; any other is scanned.
        if not stream.sorted_valid and not (t[1:] >= t[:-1]).all():
            stream = stream.time_sorted()
        ends = range(t_start + cfg.window_us, t_end + cfg.window_us, cfg.window_us)
        # Window ends are keys of the u64 time column.
        if ends and ends[-1] >= 2**64:
            raise StreamError(f"events up to time {t_end - 1} need a window ending at {ends[-1]}, "
                              "past the u64 time limit 2**64 - 1")
        # len(ends), which len() cannot take past 2**63 - 1.
        windows = max(0, -(-(t_end - t_start) // cfg.window_us))
        if windows > MAX_WINDOWS:
            raise StreamError(f"a span from time {t_start} to {t_end - 1} needs {windows} windows "
                              f"of {cfg.window_us} us, more than the {MAX_WINDOWS} a run tracks")
        # Keys of the column's dtype: Python-int keys make NumPy cast the whole column.
        edges = np.searchsorted(stream.t, np.array([t_start, *ends], dtype=t.dtype))
        return [self.step(stream[i0:i1], w_end) for w_end, i0, i1 in zip(ends, edges[:-1], edges[1:])]


def _argmax_peaks(heat: np.ndarray) -> list[Peak]:
    """Raw detector baseline: greedy argmax for two hands with local suppression."""
    work = heat.copy()
    h, w = work.shape
    peaks = []
    r = max(1, int(round(MIN_SEPARATION_CELLS)))
    for _ in range(2):
        if work.max() <= ARGMAX_FLOOR * U_ONE:
            break
        iy, ix = np.unravel_index(int(np.argmax(work)), work.shape)
        peaks.append(Peak(float(ix), float(iy), float(work[iy, ix]) / U_ONE))
        y0, y1 = max(0, iy - r), min(h, iy + r + 1)
        x0, x1 = max(0, ix - r), min(w, ix + r + 1)
        work[y0:y1, x0:x1] = 0
    return peaks


def format_estimates(estimates: list[HandEstimate]) -> str:
    """One line per hand per step: t_us,label,x,y,confidence."""
    lines = []
    for est in estimates:
        for label in (HandLabel.PITCH, HandLabel.VOLUME):
            p = est.hands.get(label)
            if p is not None:
                lines.append(
                    f"{est.t_us},{label.value},{p.x:.3f},{p.y:.3f},{p.confidence:.4f}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
