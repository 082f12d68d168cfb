"""The per-sample score schedule, kept as the reference the note table
is tested against: every call walks the score from its first note."""

import math

import numpy as np

from evtheremin.events import Hand, Resolution, Trajectory
from evtheremin.theremin import (
    CALIBRATION,
    RAMP_MS,
    SAMPLE_MS,
    VOL_RANGE_M,
    Score,
    ScoreError,
    note_freq,
    pitch_x_px,
    y_px_for_height,
)


def freq_at_ms(score: Score, t_ms: float) -> float:
    """Nominal score frequency at a time, ignoring transition ramps."""
    if not score.notes:
        raise ScoreError("empty score")
    acc = 0.0
    for n in score.notes:
        acc += n.duration_ms
        if t_ms < acc:
            return note_freq(n.midi)
    return note_freq(score.notes[-1].midi)


def level_at_ms(score: Score, t_ms: float) -> float:
    if not score.volumes:
        return 1.0
    ts = [v[0] for v in score.volumes]
    ls = [v[1] for v in score.volumes]
    return float(np.interp(t_ms, ts, ls))


def in_ramp(t_ms: float, score: Score, tempo: float = 1.0) -> bool:
    """True when the pitch hand is mid-transition between notes."""
    acc = 0.0
    for i, n in enumerate(score.notes):
        if i > 0 and acc <= t_ms < acc + RAMP_MS:
            return True
        acc += n.duration_ms / tempo
    return False


def score_to_trajectory(
    score: Score,
    tempo: float = 1.0,
    resolution: Resolution = Resolution(240, 180),
    vibrato_px: float = 2.5,
) -> Trajectory:
    if not 0 < tempo < math.inf:
        raise ValueError(f"tempo must be positive and finite, got {tempo!r}")
    if not score.notes:
        raise ScoreError("empty score")
    h_min, h_max = VOL_RANGE_M
    pitch_y_px = 0.5 * resolution.height
    volume_x_px = 0.9 * resolution.width
    durations = [n.duration_ms / tempo for n in score.notes]
    starts, acc = [], 0.0
    for d in durations:
        starts.append(acc)
        acc += d
    total_ms = acc
    dists = []
    for n in score.notes:
        d = CALIBRATION.distance_for(note_freq(n.midi))
        if d <= 0:
            raise ScoreError(
                f"note {n.midi} needs distance {d:.3f} m, outside playable range"
            )
        dists.append(d)
    if score.volumes:
        x_worst = max(pitch_x_px(d) for d in dists) + vibrato_px
        if x_worst >= volume_x_px - 8.0:
            raise ScoreError(
                f"lowest note puts the pitch hand at x={x_worst:.0f} px, too close "
                f"to the volume hand at x={volume_x_px:.0f} px; raise the score"
            )

    def dist_at(t_ms: float) -> float:
        i = 0
        while i + 1 < len(starts) and t_ms >= starts[i + 1]:
            i += 1
        if i > 0 and t_ms < starts[i] + RAMP_MS:
            frac = (t_ms - starts[i]) / RAMP_MS
            return dists[i - 1] + (dists[i] - dists[i - 1]) * frac
        return dists[i]

    vibrato_hz = 6.0
    bob_px = 0.8 * vibrato_px
    bob_hz = 0.9 * vibrato_hz
    n_samples = max(2, int(math.floor(total_ms / SAMPLE_MS)) + 1)
    pitch, volume = [], []
    for k in range(n_samples):
        t_ms = min(k * SAMPLE_MS, total_ms)
        t_us = int(round(t_ms * 1000))
        ph_v = 2 * math.pi * vibrato_hz * t_ms / 1000.0
        x = pitch_x_px(dist_at(t_ms)) + vibrato_px * math.sin(ph_v)
        y = pitch_y_px + bob_px * math.cos(ph_v)
        pitch.append((t_us, x, y))
        if score.volumes:
            h = h_min + level_at_ms(score, t_ms * tempo) * (h_max - h_min)
            ph_b = 2 * math.pi * bob_hz * t_ms / 1000.0
            vy = y_px_for_height(h) + bob_px * math.sin(ph_b)
            vx = volume_x_px + bob_px * math.cos(ph_b)
            volume.append((t_us, vx, vy))
    tracks = {Hand.LEFT: np.array(pitch).T}
    if volume:
        tracks[Hand.RIGHT] = np.array(volume).T
    traj = Trajectory(tracks)
    bad = traj.first_outside(resolution)
    if bad:
        raise ScoreError("score drives a hand to ({1:.1f},{2:.1f}), outside {3}".format(*bad, resolution))
    return traj
