"""Pitch/volume laws, scores, trajectory planting, calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtheremin.events import Hand, Resolution
from evtheremin.theremin import (
    CENTS_PER_PIXEL,
    RAMP_MS,
    CalibrationError,
    ControlPoint,
    Note,
    PitchCalibration,
    Score,
    ScoreError,
    calibrate_pitch,
    cents_between,
    hands_to_control,
    height_m,
    note_at,
    note_freq,
    parse_score,
    pitch_distance_m,
    pitch_x_px,
    score_to_trajectory,
    y_px_for_height,
)
from evtheremin.tracker import HandEstimate, HandLabel, HandPoint
import score_oracle

CAL = PitchCalibration(d_ref_m=0.4, f_ref_hz=note_freq(60), octave_m=0.24)


class TestNoteFreq:
    def test_concert_pitch_exact(self):
        assert note_freq(69) == 440.0

    def test_scale_endpoints(self):
        assert note_freq(60) == pytest.approx(261.6256, abs=5e-5)
        assert note_freq(72) == pytest.approx(523.2511, abs=5e-5)

    def test_octave_ratio(self):
        for m in (0, 33, 60, 100):
            assert note_freq(m + 12) / note_freq(m) == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            note_freq(-1)
        with pytest.raises(ValueError):
            note_freq(128)
        with pytest.raises(ValueError):
            note_freq(60.5)


class TestCentsBetween:
    def test_octave_and_identity(self):
        assert cents_between(880.0, 440.0) == pytest.approx(1200.0)
        assert cents_between(440.0, 440.0) == 0.0

    def test_semitone_is_100(self):
        assert cents_between(note_freq(61), note_freq(60)) == pytest.approx(100.0, abs=1e-9)

    def test_signed(self):
        assert cents_between(440.0, 880.0) == pytest.approx(-1200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cents_between(0.0, 440.0)


class TestPitchCalibrationLaw:
    def test_octave_toward_antenna(self):
        # 0.24 m closer than the reference doubles the frequency
        assert CAL.freq_at(0.16) == pytest.approx(523.2511, abs=5e-5)
        assert CAL.freq_at(0.4) == CAL.f_ref_hz

    def test_distance_for_inverts_freq_at(self):
        for d in (0.1, 0.25, 0.4, 0.7):
            assert CAL.distance_for(CAL.freq_at(d)) == pytest.approx(d, rel=1e-12)

    def test_monotone_decreasing(self):
        ds = np.linspace(0.05, 1.0, 40)
        fs = [CAL.freq_at(d) for d in ds]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PitchCalibration(0.0, 440.0, 0.24)
        with pytest.raises(ValueError):
            PitchCalibration(0.4, 440.0, -0.1)
        with pytest.raises(ValueError):
            CAL.distance_for(0.0)


class TestPixelGeometry:
    def test_pitch_distance(self):
        assert pitch_distance_m(80.0) == pytest.approx(0.16)
        assert pitch_x_px(0.16) == pytest.approx(80.0)

    def test_height(self):
        assert height_m(180.0) == 0.0
        assert height_m(30.0) == pytest.approx(0.30)
        assert y_px_for_height(0.30) == pytest.approx(30.0)

    def test_cents_per_pixel(self):
        assert CENTS_PER_PIXEL == pytest.approx(10.0)


class TestHandsToControl:
    def estimate(self, pitch_x=80.0, vol_y=105.0, with_volume=True):
        hands = {HandLabel.PITCH: HandPoint(pitch_x, 90.0, 1.0)}
        if with_volume:
            hands[HandLabel.VOLUME] = HandPoint(216.0, vol_y, 1.0)
        return HandEstimate(50_000, hands)

    def test_pitch_and_volume_mapping(self):
        cp = hands_to_control(self.estimate())
        assert cp.t_us == 50_000
        assert cp.freq_hz == pytest.approx(523.2511, abs=5e-5)
        # y=105 is 0.15 m high: 40 percent of the 0.05..0.30 range
        assert cp.amp == pytest.approx(0.4)

    def test_missing_volume_hand_plays_full(self):
        cp = hands_to_control(self.estimate(with_volume=False))
        assert cp.amp == 1.0

    def test_amp_clipped_to_unit_range(self):
        assert hands_to_control(self.estimate(vol_y=180.0)).amp == 0.0
        assert hands_to_control(self.estimate(vol_y=0.0)).amp == 1.0

    def test_missing_pitch_hand_rejected(self):
        est = HandEstimate(0, {HandLabel.VOLUME: HandPoint(216.0, 90.0, 1.0)})
        with pytest.raises(ValueError, match="pitch"):
            hands_to_control(est)

    def test_control_point_validation(self):
        with pytest.raises(ValueError):
            ControlPoint(0, -1.0, 0.5)
        with pytest.raises(ValueError):
            ControlPoint(0, 440.0, 1.5)


class TestScore:
    def two_notes(self):
        return parse_score("NOTE 60 500\nNOTE 62 500\n")

    def test_nominal_freq_steps_at_note_boundary(self):
        onsets = self.two_notes().onsets_ms()
        notes, _ = note_at(onsets, np.array([0.0, 499.9, 500.0, 5000.0]), RAMP_MS)
        assert notes.tolist() == [0, 0, 1, 1]

    def test_durations_and_starts(self):
        score = self.two_notes()
        assert score.onsets_ms().tolist() == [0.0, 500.0, 1000.0]
        assert score.onsets_ms(tempo=2.0).tolist() == [0.0, 250.0, 500.0]

    def test_level_interpolation(self):
        score = parse_score("NOTE 60 1000\nVOL 0 0\nVOL 1000 1\n")
        assert score.level_at_ms(500.0) == pytest.approx(0.5)
        assert score.level_at_ms(-10.0) == 0.0
        assert score.level_at_ms(2000.0) == 1.0

    def test_no_volume_lines_means_full_level(self):
        assert self.two_notes().level_at_ms(100.0) == 1.0

    def test_empty_score_has_no_freq(self):
        assert Score().onsets_ms().tolist() == [0.0]

    def test_volume_ordering_enforced(self):
        with pytest.raises(ScoreError):
            Score(volumes=[(100.0, 0.5), (50.0, 0.6)])
        with pytest.raises(ScoreError):
            Score(volumes=[(0.0, 1.5)])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_refused(self, value):
        with pytest.raises(ValueError, match="finite"):
            Note(60, value)
        with pytest.raises(ScoreError, match="finite"):
            Score(volumes=[(0.0, 0.5), (value, 0.5)])
        with pytest.raises(ScoreError, match="outside"):
            Score(volumes=[(0.0, value)])


class TestParseScore:
    def test_comments_and_blanks(self):
        score = parse_score("# tune\n\nNOTE 60 400  # C4\nVOL 0 0.8\n")
        assert len(score.notes) == 1 and len(score.volumes) == 1

    def test_format_roundtrip(self):
        text = "NOTE 60 400\nNOTE 72 250.5\nVOL 0 0.8\nVOL 650.5 0.25\n"
        score = parse_score(text)
        lines = [f"NOTE {n.midi} {n.duration_ms:g}" for n in score.notes]
        lines += [f"VOL {t:g} {level:g}" for t, level in score.volumes]
        assert "\n".join(lines) + "\n" == text

    def test_line_numbers_in_errors(self):
        with pytest.raises(ScoreError, match="line 2"):
            parse_score("NOTE 60 400\nWAIT 100\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("NOTE 60 inf\n", 1),
            ("NOTE 60 nan\n", 1),
            ("NOTE 60 400\nVOL nan 0.5\n", 2),
            ("NOTE 60 400\nVOL inf 0.5\n", 2),
            ("NOTE 60 400\nVOL 0 nan\n", 2),
            ("VOL 100 0.5\nNOTE 60 400\nVOL 50 0.5\n", 3),
            ("NOTE 60 400\nVOL -5 0.5\nVOL -6 0.5\n", 3),
        ],
    )
    def test_bad_values_name_their_line(self, text, line):
        with pytest.raises(ScoreError, match=f"^line {line}: "):
            parse_score(text)

    def test_first_vol_may_be_any_finite_time(self):
        # Nothing precedes the first VOL point, so no time is too early.
        for t in (-5.0, -1e9):
            assert parse_score(f"NOTE 60 400\nVOL {t:g} 0.5\n").volumes == [(t, 0.5)]
            assert Score(volumes=[(t, 0.5)]).volumes == [(t, 0.5)]

    def test_bad_note_values(self):
        with pytest.raises(ScoreError):
            parse_score("NOTE 200 400\n")
        with pytest.raises(ScoreError):
            parse_score("NOTE 60 -5\n")
        with pytest.raises(ScoreError):
            parse_score("NOTE 60\n")


class TestScoreToTrajectory:
    def test_single_note_holds_exact_distance(self):
        score = parse_score("NOTE 60 1000\n")
        traj = score_to_trajectory(score, vibrato_px=0.0)
        _, xs, ys = traj.tracks[Hand.LEFT]
        assert len(xs) == 101
        for x, y in zip(xs, ys):
            assert x == pytest.approx(200.0, abs=1e-9)
            assert y == pytest.approx(90.0, abs=1e-9)
        assert Hand.RIGHT not in traj.tracks

    def test_volume_hand_tracks_level(self):
        score = parse_score("NOTE 60 1000\nVOL 0 0\nVOL 1000 1\n")
        traj = score_to_trajectory(score, vibrato_px=0.0)
        ts, xs, ys = traj.tracks[Hand.RIGHT]
        right = {int(t): (x, y) for t, x, y in zip(ts, xs, ys)}
        assert right[0][1] == pytest.approx(y_px_for_height(0.05))
        assert right[500_000][1] == pytest.approx(y_px_for_height(0.175))
        assert right[1_000_000][1] == pytest.approx(y_px_for_height(0.30))
        assert right[0][0] == pytest.approx(216.0)

    def test_note_change_ramps_linearly(self):
        score = parse_score("NOTE 60 500\nNOTE 72 500\n")
        traj = score_to_trajectory(score, vibrato_px=0.0)
        ts, xs, _ = traj.tracks[Hand.LEFT]
        x_at = dict(zip(ts.astype(int).tolist(), xs))
        assert x_at[490_000] == pytest.approx(200.0)
        # 10 ms into the 30 ms ramp: a third of the way from 0.4 m to 0.16 m
        assert x_at[510_000] == pytest.approx(160.0, abs=1e-9)
        assert x_at[540_000] == pytest.approx(80.0)

    def test_tempo_scales_time(self):
        score = parse_score("NOTE 60 1000\n")
        traj = score_to_trajectory(score, tempo=2.0, vibrato_px=0.0)
        assert traj.span_us() == (0, 500_000)

    def test_vibrato_wobbles_both_axes(self):
        score = parse_score("NOTE 60 2000\n")
        traj = score_to_trajectory(score, vibrato_px=2.5)
        _, xs, ys = traj.tracks[Hand.LEFT]
        assert xs.max() == pytest.approx(202.5, abs=0.1)
        assert xs.min() == pytest.approx(197.5, abs=0.1)
        assert ys.max() > 90.5 and ys.min() < 89.5

    def test_unplayable_high_note_rejected(self):
        with pytest.raises(ScoreError, match="playable"):
            score_to_trajectory(parse_score("NOTE 108 400\n"))

    def test_low_note_walks_out_of_frame(self):
        with pytest.raises(ScoreError):
            score_to_trajectory(parse_score("NOTE 24 400\n"), vibrato_px=0.0)

    def test_low_note_collides_with_volume_hand(self):
        score = parse_score("NOTE 48 400\nVOL 0 0.5\n")
        with pytest.raises(ScoreError, match="volume hand"):
            score_to_trajectory(score)

    def test_empty_and_bad_tempo(self):
        with pytest.raises(ScoreError):
            score_to_trajectory(Score())
        for tempo in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tempo"):
                score_to_trajectory(parse_score("NOTE 60 100\n"), tempo=tempo)


class TestInRamp:
    @staticmethod
    def in_ramp(t_ms, score, tempo=1.0):
        return bool(note_at(score.onsets_ms(tempo), t_ms, RAMP_MS)[1])

    def test_windows(self):
        score = parse_score("NOTE 60 500\nNOTE 62 500\n")
        assert not self.in_ramp(0.0, score)
        assert not self.in_ramp(499.0, score)
        assert self.in_ramp(500.0, score)
        assert self.in_ramp(529.9, score)
        assert not self.in_ramp(530.0, score)

    def test_tempo_shifts_boundaries(self):
        score = parse_score("NOTE 60 500\nNOTE 62 500\n")
        assert self.in_ramp(260.0, score, tempo=2.0)
        assert not self.in_ramp(300.0, score, tempo=2.0)

    def test_first_note_attack_is_not_a_ramp(self):
        assert not self.in_ramp(5.0, parse_score("NOTE 60 500\n"))


@st.composite
def schedules(draw):
    """A score of 1-12 notes with fractional durations and 0-4 VOL points,
    a tempo, a sample period and a ramp, 0 or longer than some notes.
    Half the scores may reach notes that are out of frame, too close to
    the volume hand or unplayable."""
    low, high = draw(st.sampled_from([(60, 79), (50, 84)]))
    notes = draw(st.lists(st.builds(Note, st.integers(low, high), st.floats(0.5, 120.0)), min_size=1, max_size=12))
    times = sorted(draw(st.lists(st.floats(0.0, 1500.0), max_size=4)))
    volumes = [(t, draw(st.floats(0.0, 1.0))) for t in times]
    tempo = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.3, 3.0))
    sample_ms = draw(st.floats(0.5, 40.0))
    ramp_ms = draw(st.just(0.0) | st.floats(0.0, 200.0))
    return Score(notes, volumes), tempo, sample_ms, ramp_ms


def outcome(plant, *args, **kwargs):
    """A trajectory's JSON bytes, or the error planting it raised."""
    try:
        return plant(*args, **kwargs).to_json()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(schedules(), st.lists(st.floats(-10.0, 3000.0), max_size=20))
def test_note_table_equals_per_sample_walk(schedule, probes):
    score, tempo, sample_ms, ramp_ms = schedule
    kwargs = dict(tempo=tempo, sample_ms=sample_ms, ramp_ms=ramp_ms)
    assert outcome(score_to_trajectory, score, **kwargs) == outcome(
        score_oracle.score_to_trajectory, score, **kwargs)

    onsets = score.onsets_ms(tempo)
    # Each onset, just before it and where its ramp ends, samples, and probes.
    times = np.concatenate([onsets, np.nextafter(onsets, -np.inf), onsets + ramp_ms,
                            np.arange(0.0, onsets[-1], sample_ms), probes])
    notes, ramps = note_at(onsets, times, ramp_ms)
    for t, note, ramp in zip(times.tolist(), notes.tolist(), ramps.tolist()):
        assert ramp == score_oracle.in_ramp(t, score, tempo, ramp_ms)
        # Off powers of two, t * tempo against raw sums may round across a boundary.
        if tempo in (0.5, 1.0, 2.0):
            assert note_freq(score.notes[note].midi) == score_oracle.freq_at_ms(score, t * tempo)


class TestCalibratePitch:
    def test_recovers_noiseless_model(self):
        ds = [0.1, 0.2, 0.3, 0.4, 0.5]
        fitted = calibrate_pitch([(d, CAL.freq_at(d)) for d in ds])
        for d in np.linspace(0.05, 0.8, 31):
            assert fitted.freq_at(d) == pytest.approx(CAL.freq_at(d), rel=1e-9)

    def test_idempotent(self):
        ds = [0.15, 0.28, 0.41]
        first = calibrate_pitch([(d, CAL.freq_at(d)) for d in ds])
        second = calibrate_pitch([(d, first.freq_at(d)) for d in ds])
        assert second.d_ref_m == pytest.approx(first.d_ref_m, rel=1e-12)
        assert second.f_ref_hz == pytest.approx(first.f_ref_hz, rel=1e-12)
        assert second.octave_m == pytest.approx(first.octave_m, rel=1e-12)

    def test_two_points_fit_exactly(self):
        fitted = calibrate_pitch([(0.2, 400.0), (0.44, 200.0)])
        assert fitted.octave_m == pytest.approx(0.24, rel=1e-12)
        assert fitted.freq_at(0.2) == pytest.approx(400.0, rel=1e-12)
        assert fitted.freq_at(0.44) == pytest.approx(200.0, rel=1e-12)

    def test_matches_least_squares_closed_form(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.1, 0.6, 25)
        f = CAL.freq_at(d) * 2.0 ** rng.normal(0, 0.01, 25)
        fitted = calibrate_pitch(list(zip(d, f)))
        y = np.log2(f)
        slope = ((d - d.mean()) * (y - y.mean())).sum() / ((d - d.mean()) ** 2).sum()
        assert fitted.octave_m == pytest.approx(-1.0 / slope, rel=1e-9)
        assert fitted.d_ref_m == pytest.approx(d.mean(), rel=1e-12)
        assert fitted.f_ref_hz == pytest.approx(2.0 ** y.mean(), rel=1e-9)
        assert fitted.octave_m == pytest.approx(0.24, abs=0.02)

    def test_degenerate_inputs(self):
        with pytest.raises(CalibrationError):
            calibrate_pitch([(0.2, 400.0)])
        with pytest.raises(CalibrationError):
            calibrate_pitch([(0.2, 400.0), (0.2, 300.0)])
        with pytest.raises(CalibrationError):
            calibrate_pitch([(0.2, -1.0), (0.3, 300.0)])
        with pytest.raises(CalibrationError):
            calibrate_pitch([(0.2, 200.0), (0.4, 400.0)])  # rising with distance

