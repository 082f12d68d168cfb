"""Hand tracking: event frames in, labeled pitch/volume hand estimates out.

Pipeline per step: accumulate the window's events straight into the
on-chip grid's cells through a pixel-to-cell map built once per sensor
and chip size (`run` cuts each window inside its span, so no time mask
is needed, and no sensor-sized frame is built), turn counts into a
detector heatmap (a Gaussian blur of the counts, weights
built once per detector, sent as is by the blob detector or through one
sigma-delta boundary by the `sd_net` detector), drive the neural field
one step with the heatmap, and read peaks back out as upscaled hand
positions.  The field's inertia is what rejects distractor events; when
nothing is detected the previous estimate is held with its confidence
halved each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from .events import EventStream, Frame, Resolution, StreamError, frame_accumulate, frame_downsample
from .neural_field import Field, FieldParams, KernelParams, LateralKernel, Peak, detect_peaks, field_step, make_kernel
from .sigma_delta import SdState, delta_encode, sigma_decode


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


@dataclass
class TrackerConfig:
    input_res: Resolution = Resolution(240, 180)
    chip_res: Resolution = Resolution(86, 65)
    window_us: int = 10_000
    detector: str = "blob"  # "blob" or "sd_net"
    field_params: FieldParams = dataclass_field(default_factory=lambda: tracker_field_params()[0])
    kernel_params: KernelParams = dataclass_field(default_factory=lambda: tracker_field_params()[1])
    input_gain: float = 15.0
    detect_threshold: float = 0.0
    min_separation_cells: float = 6.0
    min_peak_mass: float = 1.0
    mirror: bool = True
    confidence_decay: float = 0.5
    blur_sigma_cells: float = 1.5
    sd_theta: float = 0.02
    use_field: bool = True  # False = raw argmax baseline, no field filtering
    argmax_floor: float = 0.2  # baseline ignores heat below this
    max_hands: int = 2

    def __post_init__(self):
        if self.detector not in ("blob", "sd_net"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.chip_res.width > self.input_res.width or self.chip_res.height > self.input_res.height:
            raise ValueError(f"chip {self.chip_res} exceeds input {self.input_res}")
        if self.window_us <= 0:
            raise ValueError("window must be positive")
        if not (0.0 < self.confidence_decay < 1.0):
            raise ValueError("confidence decay must be in (0, 1)")
        if self.max_hands not in (1, 2):
            raise ValueError("tracker handles 1 or 2 hands")
        if not (0.0 < self.blur_sigma_cells < math.inf):
            raise ValueError(f"blur_sigma_cells must be finite and > 0, got {self.blur_sigma_cells}")
        if not (0.0 <= self.sd_theta < math.inf):
            raise ValueError(f"sd_theta must be finite and >= 0, got {self.sd_theta}")


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

    def __init__(self, decay: float = 0.9, growth: float = 1.5):
        if not (0.0 < decay < 1.0) or growth <= 1.0:
            raise ValueError("need 0 < decay < 1 and growth > 1")
        self.decay = decay
        self.growth = growth
        self.ref = 0.0

    def normalize(self, img: np.ndarray) -> np.ndarray:
        m = float(img.max())
        if self.ref <= 0:
            self.ref = m
        else:
            self.ref = min(max(self.ref * self.decay, m), self.ref * self.growth)
        if self.ref <= 0:
            return np.zeros_like(img)
        return np.clip(img / self.ref, 0.0, 1.0)

    def reset(self) -> None:
        self.ref = 0.0


class GaussianBlur:
    """Zero-padded Gaussian blur truncated at `radius` cells, bit-equal to
    `gaussian_filter(cells, sigma, mode="constant", radius=radius)`: its 1-D
    weights, built once from `gaussian_filter1d`, along axis 0 then 1."""

    def __init__(self, sigma: float, radius: int):
        # scipy is imported where it is used, so a process that never
        # builds a tracker (link, control, synthesis) never loads it.
        from scipy.ndimage import gaussian_filter1d

        impulse = np.zeros(2 * radius + 1)
        impulse[radius] = 1.0
        self.weights = gaussian_filter1d(impulse, sigma, mode="constant", radius=radius)

    def __call__(self, cells: np.ndarray) -> np.ndarray:
        from scipy.ndimage import correlate1d

        # An explicit output dtype skips scipy's slower dtype-name lookup.
        rows = correlate1d(cells.astype(np.float64), self.weights, axis=0, output=np.float64, mode="constant")
        return correlate1d(rows, self.weights, axis=1, output=np.float64, mode="constant")


class BlobDetector:
    """Normalized local event density: Gaussian blur of the count frame,
    truncated at int(4 sigma + 0.5) cells as `gaussian_filter` truncates."""

    def __init__(self, sigma_cells: float):
        self.blur = GaussianBlur(sigma_cells, int(4 * sigma_cells + 0.5))
        self.gain = GainControl()

    def heatmap(self, frame: Frame) -> np.ndarray:
        return self.gain.normalize(self.blur(frame.cells))

    def reset(self) -> None:
        self.gain.reset()


class SigmaDeltaDetector:
    """Spiking detector: the count frame's Gaussian blur, sent through one
    sigma-delta boundary each step, so between-step redundancy is carried
    by spikes only and the decoded blur is within theta of the true one
    in every cell.  The blur is truncated at ceil(3 sigma) cells."""

    def __init__(self, resolution: Resolution, sigma_cells: float, theta: float):
        self.resolution = resolution
        self.blur = GaussianBlur(sigma_cells, max(1, math.ceil(3 * sigma_cells)))
        self.theta = theta
        self.gain = GainControl()
        self.reset()

    def heatmap(self, frame: Frame) -> np.ndarray:
        spikes = delta_encode(self.state, self.blur(frame.cells).ravel(), self.theta)
        self.total_spikes += len(spikes)
        sigma_decode(self.decoded, spikes)
        img = np.clip(self.decoded, 0.0, None).reshape(self.resolution.height, self.resolution.width)
        return self.gain.normalize(img)

    def reset(self) -> None:
        self.state = SdState.zeros(self.resolution.npixels)
        self.decoded = np.zeros(self.resolution.npixels)
        self.total_spikes = 0
        self.gain.reset()


def detect_heatmap(frame: Frame, detector) -> np.ndarray:
    """Normalized [0, 1] detection heatmap at the frame's resolution."""
    heat = detector.heatmap(frame)
    if heat.shape != frame.cells.shape:
        raise ValueError("detector returned a heatmap of the wrong shape")
    return heat


def assign_hands(peaks: list[Peak], mirror: bool = True) -> dict[HandLabel, Peak]:
    """Label up to two peaks.  A single peak is the pitch hand.  With two,
    the image-left peak is the pitch hand when mirror is set (a camera
    facing the player sees their right hand on the image left); mirror
    off swaps the roles."""
    if not peaks:
        return {}
    if len(peaks) == 1:
        return {HandLabel.PITCH: peaks[0]}
    a, b = sorted(peaks[:2], key=lambda p: (p.x, p.y))
    if mirror:
        return {HandLabel.PITCH: a, HandLabel.VOLUME: b}
    return {HandLabel.PITCH: b, HandLabel.VOLUME: a}


class HandTracker:
    """Stateful window-by-window tracker; see module docstring."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        cfg = self.config
        if cfg.detector == "blob":
            self.detector = BlobDetector(cfg.blur_sigma_cells)
        else:
            self.detector = SigmaDeltaDetector(cfg.chip_res, cfg.blur_sigma_cells, cfg.sd_theta)
        self.kernel: LateralKernel = make_kernel(cfg.kernel_params)
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        self.field = Field.at_rest(cfg.chip_res, cfg.field_params)
        self.previous: HandEstimate | None = None
        self.detector.reset()

    def _upscale(self, p: Peak) -> tuple[float, float]:
        cfg = self.config
        sx = cfg.input_res.width / cfg.chip_res.width
        sy = cfg.input_res.height / cfg.chip_res.height
        # Cell-center rule: undoes the half-cell bias of floor downsampling.
        return ((p.x + 0.5) * sx, (p.y + 0.5) * sy)

    def step(self, window: EventStream, t_end: int) -> HandEstimate:
        cfg = self.config
        t_start = t_end - cfg.window_us
        if window.resolution != cfg.input_res:
            raise StreamError(f"window is {window.resolution}, tracker input is {cfg.input_res}")
        # An identity on a chip-resolution frame; kept as the stage bench/tracing.py times.
        chip = frame_downsample(frame_accumulate(window, t_start, t_end, cfg.chip_res), cfg.chip_res)
        heat = detect_heatmap(chip, self.detector)
        if cfg.use_field:
            self.field = field_step(self.field, heat * cfg.input_gain, self.kernel)
            peaks = detect_peaks(self.field, cfg.detect_threshold, cfg.min_separation_cells)
            peaks = [p for p in peaks if p.mass >= cfg.min_peak_mass][: cfg.max_hands]
        else:
            peaks = _argmax_peaks(heat, cfg.max_hands, cfg.min_separation_cells, cfg.argmax_floor)
        if peaks:
            hands = {k: HandPoint(*self._upscale(p), 1.0) for k, p in assign_hands(peaks, cfg.mirror).items()}
        else:
            # No peak: hold the last positions with decayed confidence.
            held = self.previous.hands if self.previous is not None else {}
            hands = {k: HandPoint(p.x, p.y, p.confidence * cfg.confidence_decay) for k, p in held.items()}
        self.previous = HandEstimate(t_end, hands)
        return self.previous

    def run(self, stream: EventStream, t_start: int | None = None, t_end: int | None = None) -> list[HandEstimate]:
        """Track a whole stream in fixed windows; timestamps at window ends."""
        cfg = self.config
        if t_start is None or t_end is None:
            if len(stream) == 0:
                return []
            lo, hi = stream.span_us()
            t_start = lo if t_start is None else t_start
            t_end = hi + 1 if t_end is None else t_end
        t = stream.t
        if not (t[1:] >= t[:-1]).all():
            stream = stream.time_sorted()
        ends = range(t_start + cfg.window_us, t_end + cfg.window_us, cfg.window_us)
        # Keys of the column's dtype: Python-int keys make NumPy cast the whole column.
        edges = np.searchsorted(stream.t, np.array([t_start, *ends], dtype=t.dtype))
        return [self.step(stream[i0:i1], w_end) for w_end, i0, i1 in zip(ends, edges[:-1], edges[1:])]


def _argmax_peaks(
    heat: np.ndarray, max_hands: int, min_separation: float, floor: float = 0.0
) -> list[Peak]:
    """Raw detector baseline: greedy argmax with local suppression."""
    work = heat.copy()
    h, w = work.shape
    peaks = []
    r = max(1, int(round(min_separation)))
    for _ in range(max_hands):
        if work.max() <= floor:
            break
        iy, ix = np.unravel_index(int(np.argmax(work)), work.shape)
        peaks.append(Peak(float(ix), float(iy), float(work[iy, ix])))
        y0, y1 = max(0, iy - r), min(h, iy + r + 1)
        x0, x1 = max(0, ix - r), min(w, ix + r + 1)
        work[y0:y1, x0:x1] = 0.0
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
