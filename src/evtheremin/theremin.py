"""Theremin control model: pitch/volume laws, scores, calibration.

Pitch follows an exponential distance law around a reference point,

    freq(d) = f_ref * 2 ** ((d_ref - d) / octave_m)

so every octave_m meters toward the pitch antenna raises the pitch one
octave.  Volume is a linear ramp of the volume hand's height over
VOL_RANGE_M.  Both are read off one camera: PIXEL_M meters per pixel,
the pitch antenna at image column 0 and heights measured up from the
bottom of an IMAGE_HEIGHT_PX tall image.  Scores are text files of
NOTE/VOL lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .events import Hand, Resolution, Trajectory
from .tracker import HandEstimate, HandLabel

# Every show's volume-hand height range (m), score sample period (ms) and
# pitch-hand ramp between notes (ms).
VOL_RANGE_M = (0.05, 0.30)
SAMPLE_MS = 10.0
RAMP_MS = 30.0


class ScoreError(ValueError):
    """Unparseable or unplayable score content."""


class CalibrationError(ValueError):
    """Calibration samples cannot pin down the pitch law."""


def note_freq(midi: int) -> float:
    """Equal-tempered frequency for a MIDI note number (A4 = 69 = 440 Hz)."""
    if midi != int(midi) or not (0 <= midi <= 127):
        raise ValueError(f"MIDI note must be an integer in [0, 127], got {midi!r}")
    return 440.0 * 2.0 ** ((int(midi) - 69) / 12.0)


def cents_between(f_a: float, f_b: float) -> float:
    if f_a <= 0 or f_b <= 0:
        raise ValueError("frequencies must be positive")
    return 1200.0 * math.log2(f_a / f_b)


@dataclass(frozen=True)
class PitchCalibration:
    d_ref_m: float
    f_ref_hz: float
    octave_m: float

    def __post_init__(self):
        if self.d_ref_m <= 0 or self.f_ref_hz <= 0 or self.octave_m <= 0:
            raise ValueError("calibration parameters must be positive")

    def freq_at(self, d_m: float) -> float:
        return self.f_ref_hz * 2.0 ** ((self.d_ref_m - d_m) / self.octave_m)

    def distance_for(self, freq_hz: float) -> float:
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.d_ref_m - self.octave_m * math.log2(freq_hz / self.f_ref_hz)


# Every show's pitch law: middle C at 0.40 m, one octave per 0.24 m.
CALIBRATION = PitchCalibration(0.40, note_freq(60), 0.24)

# Every show's camera: meters per pixel and the height of the image its
# heights are measured in.  The pitch antenna sits at image column 0.
PIXEL_M = 0.002
IMAGE_HEIGHT_PX = 180
# How far one pixel of pitch-hand error moves the pitch.
CENTS_PER_PIXEL = 1200.0 * PIXEL_M / CALIBRATION.octave_m


def pitch_distance_m(x_px):
    """Meters from the antenna to a pitch hand at image column x_px."""
    return abs(x_px) * PIXEL_M


def pitch_x_px(d_m):
    return d_m / PIXEL_M


def height_m(y_px):
    """The volume hand's height above the image bottom at row y_px."""
    return (IMAGE_HEIGHT_PX - y_px) * PIXEL_M


def y_px_for_height(h_m):
    return IMAGE_HEIGHT_PX - h_m / PIXEL_M


@dataclass(frozen=True)
class ControlPoint:
    t_us: int
    freq_hz: float
    amp: float

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.freq_hz}")
        if not (0.0 <= self.amp <= 1.0):
            raise ValueError(f"amplitude must be in [0, 1], got {self.amp}")


def hands_to_control(est: HandEstimate) -> ControlPoint:
    """Map a tracked-hand estimate to a theremin control point.

    The pitch hand must be present.  A missing volume hand plays at full
    amplitude, like a theremin with nothing near its volume loop.
    """
    pitch = est.hands.get(HandLabel.PITCH)
    if pitch is None:
        raise ValueError("estimate has no pitch hand")
    freq = CALIBRATION.freq_at(pitch_distance_m(pitch.x))
    vol = est.hands.get(HandLabel.VOLUME)
    if vol is None:
        amp = 1.0
    else:
        h_min, h_max = VOL_RANGE_M
        amp = float(np.clip((height_m(vol.y) - h_min) / (h_max - h_min), 0.0, 1.0))
    return ControlPoint(est.t_us, freq, amp)


@dataclass(frozen=True)
class Note:
    midi: int
    duration_ms: float

    def __post_init__(self):
        if not 0 < self.duration_ms < math.inf:
            raise ValueError(f"note duration must be positive and finite, got {self.duration_ms}")
        note_freq(self.midi)


@dataclass
class Score:
    notes: list[Note] = field(default_factory=list)
    volumes: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        for i, point in enumerate(self.volumes):
            _check_vol(point, self.volumes[i - 1] if i else None)

    def onsets_ms(self, tempo: float = 1.0) -> np.ndarray:
        """The note table: each note's onset in ms at tempo, then the last
        note's end.  It is the running sum of duration_ms / tempo, added
        in score order."""
        return np.fromiter(accumulate((n.duration_ms / tempo for n in self.notes), initial=0.0), np.float64)

    def level_at_ms(self, t_ms):
        """Volume level at each time in t_ms, interpolated between VOL points."""
        if not self.volumes:
            return 1.0
        ts = [v[0] for v in self.volumes]
        ls = [v[1] for v in self.volumes]
        return np.interp(t_ms, ts, ls)


def _check_vol(point: tuple[float, float], previous: tuple[float, float] | None) -> None:
    """A VOL point is a finite time no earlier than the previous point's
    (any finite time, if it is the first) and a level in [0, 1]."""
    t_ms, level = point
    if not math.isfinite(t_ms):
        raise ScoreError(f"VOL time must be finite, got {t_ms}")
    if previous is not None and t_ms < previous[0]:
        raise ScoreError("VOL timestamps must be non-decreasing")
    if not (0.0 <= level <= 1.0):
        raise ScoreError(f"VOL level {level} outside [0, 1]")


def note_at(onsets: np.ndarray, t_ms, ramp_ms: float):
    """The note sounding at each time in t_ms, and whether the pitch hand
    is still ramping into it from the previous note.

    onsets is a Score.onsets_ms table.  A time before the score falls in
    the first note and one after it in the last; the first note has no
    ramp.
    """
    i = np.maximum(np.searchsorted(onsets[:-1], t_ms, side="right") - 1, 0)
    return i, (i > 0) & (t_ms < onsets[i] + ramp_ms)


def parse_score(text: str) -> Score:
    """NOTE <midi> <duration_ms> and VOL <t_ms> <level> lines; # comments."""
    notes, volumes = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "NOTE" and len(parts) == 3:
                notes.append(Note(int(parts[1]), float(parts[2])))
            elif parts[0] == "VOL" and len(parts) == 3:
                point = (float(parts[1]), float(parts[2]))
                _check_vol(point, volumes[-1] if volumes else None)
                volumes.append(point)
            else:
                raise ScoreError(f"unrecognized directive {parts[0]!r}")
        except (ValueError, ScoreError) as exc:
            raise ScoreError(f"line {lineno}: {exc}") from exc
    return Score(notes, volumes)


def score_to_trajectory(
    score: Score,
    tempo: float = 1.0,
    resolution: Resolution = Resolution(240, 180),
    sample_ms: float = SAMPLE_MS,
    ramp_ms: float = RAMP_MS,
    vibrato_px: float = 2.5,
) -> Trajectory:
    """Plant hand positions that would play the score.

    The pitch hand holds the distance for each note, moving linearly
    over ramp_ms at note changes; outside those ramps the realized pitch
    center is exact.  If the score has VOL points the volume hand tracks
    the interpolated level as a height, otherwise it is omitted entirely.
    Positions are emitted in image pixels on a sample_ms grid, the pitch
    hand's at half the sensor's height and the volume hand's at 0.9 of
    its width.

    Both hands carry a small periodic wobble (pitch vibrato, volume bob).
    Besides being idiomatic, this is what keeps them visible: a change
    camera emits nothing for a perfectly still hand, and a tracker fed
    silence can only hold a stale position.  Set vibrato_px to 0 for the
    mathematically frozen trajectory.
    """
    if not 0 < tempo < math.inf:
        raise ValueError(f"tempo must be positive and finite, got {tempo!r}")
    if not sample_ms > 0:  # also rejects nan
        raise ValueError("sample_ms must be positive")
    if not score.notes:
        raise ScoreError("empty score")
    pitch_y_px = 0.5 * resolution.height
    volume_x_px = 0.9 * resolution.width
    onsets = score.onsets_ms(tempo)
    total_ms = onsets[-1]
    dists = []
    for n in score.notes:
        d = CALIBRATION.distance_for(note_freq(n.midi))
        if d <= 0:
            raise ScoreError(
                f"note {n.midi} needs distance {d:.3f} m, outside playable range"
            )
        dists.append(d)
    if score.volumes:
        # The tracker labels hands by image x order, so the pitch hand must
        # stay clearly left of the volume hand for every note in the score.
        x_worst = max(pitch_x_px(d) for d in dists) + vibrato_px
        if x_worst >= volume_x_px - 8.0:
            raise ScoreError(
                f"lowest note puts the pitch hand at x={x_worst:.0f} px, too close "
                f"to the volume hand at x={volume_x_px:.0f} px; raise the score"
            )

    # Wobble speed must clear the sensor's contrast threshold or the
    # hand fades from view; 6 Hz sits comfortably above it.
    vibrato_hz = 6.0
    bob_px = 0.8 * vibrato_px
    bob_hz = 0.9 * vibrato_hz
    n_samples = max(2, int(math.floor(total_ms / sample_ms)) + 1)
    t_ms = np.minimum(np.arange(n_samples) * sample_ms, total_ms)
    t_us = np.rint(t_ms * 1000)
    note, ramp = note_at(onsets, t_ms, ramp_ms)
    dists = np.array(dists)
    dist = dists[note]
    into = note[ramp]
    frac = (t_ms[ramp] - onsets[into]) / ramp_ms
    dist[ramp] = dists[into - 1] + (dists[into] - dists[into - 1]) * frac

    def per_sample(fn, phase):
        # math's sin and cos, not numpy's: those can be an ulp off.
        return np.fromiter(map(fn, phase.tolist()), np.float64, len(phase))

    # Quadrature pairs trace a small ellipse, so hand speed never
    # reaches zero and the event stream never goes dark.  The cross
    # axis is the one that does not affect the played sound.
    ph_v = 2 * math.pi * vibrato_hz * t_ms / 1000.0
    x = pitch_x_px(dist) + vibrato_px * per_sample(math.sin, ph_v)
    y = pitch_y_px + bob_px * per_sample(math.cos, ph_v)
    tracks = {Hand.LEFT: (t_us, x, y)}
    if score.volumes:
        h_min, h_max = VOL_RANGE_M
        h = h_min + score.level_at_ms(t_ms * tempo) * (h_max - h_min)
        ph_b = 2 * math.pi * bob_hz * t_ms / 1000.0
        vy = y_px_for_height(h) + bob_px * per_sample(math.sin, ph_b)
        vx = volume_x_px + bob_px * per_sample(math.cos, ph_b)
        tracks[Hand.RIGHT] = (t_us, vx, vy)
    traj = Trajectory(tracks)
    bad = traj.first_outside(resolution)
    if bad:
        raise ScoreError("score drives a hand to ({1:.1f},{2:.1f}), outside {3}".format(*bad, resolution))
    return traj


def calibrate_pitch(samples: list[tuple[float, float]]) -> PitchCalibration:
    """Least-squares fit of the exponential pitch law to (distance, freq)
    pairs, minimizing squared residuals in log2 frequency.

    The fitted reference distance is anchored at the mean sample
    distance, which makes the parameterization unique; refitting on
    samples of a fitted model at the same distances returns that model.
    """
    if len(samples) < 2:
        raise CalibrationError("need at least 2 samples")
    d = np.array([s[0] for s in samples], dtype=np.float64)
    f = np.array([s[1] for s in samples], dtype=np.float64)
    if np.any(f <= 0) or np.any(d <= 0):
        raise CalibrationError("distances and frequencies must be positive")
    if np.ptp(d) == 0:
        raise CalibrationError("samples must cover at least 2 distinct distances")
    y = np.log2(f)
    slope, intercept = np.polyfit(d, y, 1)
    if slope >= 0:
        raise CalibrationError(
            "pitch must fall with distance; samples fit a non-negative slope"
        )
    octave_m = -1.0 / slope
    d_ref = float(d.mean())
    f_ref = float(2.0 ** (intercept + slope * d_ref))
    return PitchCalibration(d_ref, f_ref, octave_m)
