"""Acceptance gate: one test per shipped guarantee, one printed verdict
line each.  Run `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from evtheremin.events import (
    Hand,
    Resolution,
    add_noise_events,
    synth_hand_events,
    waving_trajectory,
)
from evtheremin.harness import (
    SimConfig,
    compute_rtf,
    power_ratio,
    run_show,
    single_bit_fuzz,
)
from evtheremin.neural_field import (
    U_ONE,
    Field,
    FieldParams,
    KernelParams,
    detect_peaks,
    field_step,
    make_kernel,
    selective_params,
    to_units,
)
from evtheremin.orchestrator import (
    ControllerState,
    Intention,
    ShowState,
    control_signals,
    transition,
)
from evtheremin.sigma_delta import GradedSpike, delta_encode, sigma_decode
from evtheremin.theremin import (
    CALIBRATION,
    PitchCalibration,
    calibrate_pitch,
    cents_between,
    hands_to_control,
    note_freq,
    parse_score,
    score_to_trajectory,
)
from evtheremin.tracker import HandEstimate, HandLabel, HandPoint, HandTracker, TrackerConfig
from evtheremin.transport import (
    ChannelConfig,
    LinkStats,
    SafeReceiver,
    channel_transmit,
    crc32,
    raw_encode,
    raw_overhead_bytes_per_event,
    safe_encode,
    safe_overhead_bytes_per_event,
)
from score_oracle import in_ramp

CHIP = Resolution(86, 65)
SENSOR = Resolution(240, 180)

SCALE_SCORE = "\n".join(f"NOTE {m} 400" for m in (60, 62, 64, 65, 67, 69, 71, 72)) + "\n"
DUET_SCENARIO = (
    "AT 0 INTENT StartConversation\n"
    "AT 200 INTENT AskDuet\n"
    "AT 3600 INTENT Done\n"
)


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {n}: {desc}")
        raise
    print(f"\n[PASS] criterion {n}: {desc}")


# --- criteria 1 and 2: threshold coding ----------------------------------

N_SEQUENCES = 10_000
SEQ_STEPS = 100
THETAS = (0.0, 0.1, 0.5, 2.0)


@pytest.fixture(scope="module")
def coding_corpus():
    """10k random activation sequences with lengths <= 100; after a
    sequence ends its value holds, which adds no further error."""
    rng = np.random.default_rng(2026)
    raw = rng.uniform(-10.0, 10.0, size=(SEQ_STEPS, N_SEQUENCES))
    lengths = rng.integers(1, SEQ_STEPS + 1, N_SEQUENCES)
    step_idx = np.minimum(np.arange(SEQ_STEPS)[:, None], lengths[None, :] - 1)
    return raw[step_idx, np.arange(N_SEQUENCES)[None, :]]


@pytest.fixture(scope="module")
def coding_results(coding_corpus):
    """Worst per-step reconstruction error and total spikes per theta."""
    t0 = time.perf_counter()
    results = {}
    for theta in THETAS:
        last_sent = np.zeros(N_SEQUENCES)
        acc = np.zeros(N_SEQUENCES)
        worst = 0.0
        total = 0
        for step in range(SEQ_STEPS):
            batch = delta_encode(last_sent, coding_corpus[step], theta)
            total += len(batch)
            sigma_decode(acc, batch)
            if theta > 0:
                worst = max(worst, float(np.max(np.abs(acc - coding_corpus[step]))))
            else:
                rel = np.abs(acc - coding_corpus[step]) / np.maximum(
                    1.0, np.abs(coding_corpus[step])
                )
                worst = max(worst, float(rel.max()))
        results[theta] = (worst, total)
    return results, time.perf_counter() - t0


def test_c1_reconstruction_error_bound(coding_results):
    results, elapsed = coding_results
    with criterion(1, "threshold coding error < theta at every step, exact at theta 0"):
        for theta in (0.1, 0.5, 2.0):
            assert results[theta][0] < theta
        assert results[0.0][0] <= 1e-9
        assert elapsed < 10.0


def test_c2_spike_count_monotone_in_theta(coding_results):
    results, _ = coding_results
    with criterion(2, "total spikes non-increasing as the threshold grows"):
        totals = [results[theta][1] for theta in THETAS]
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] > 0


# --- criterion 3: field dynamics -----------------------------------------


def gaussian_input(res, cx, cy, amp=6.0, sigma=2.0):
    """A Gaussian bump of input, in the field's units."""
    ys, xs = np.mgrid[0 : res.height, 0 : res.width]
    return to_units(amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2)))


def run_field(field, kernel, s, steps):
    for _ in range(steps):
        field = field_step(field, s, kernel)
    return field


def test_c3_field_property_suite():
    with criterion(3, "field dynamics: decay, impulse rejection, coexistence, "
                      "selection, translation"):
        t0 = time.perf_counter()
        params = FieldParams()
        kernel = make_kernel(KernelParams())
        zero = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)

        # Sub-ignition perturbations decay back exactly to the no-input rest state.
        baseline = run_field(Field.at_rest(CHIP), kernel, zero, 300)
        bumped = Field(
            Field.at_rest(CHIP).u + gaussian_input(CHIP, 43, 32, amp=2.0), params
        )
        settled = run_field(bumped, kernel, zero, 300)
        np.testing.assert_array_equal(settled.u, baseline.u)
        assert np.all(settled.u == round(params.h * U_ONE))

        # A single-step impulse never crosses the detection threshold.
        f = field_step(Field.at_rest(CHIP), gaussian_input(CHIP, 43, 32), kernel)
        assert detect_peaks(f) == []
        for _ in range(50):
            f = field_step(f, zero, kernel)
            assert detect_peaks(f) == []

        # Two inputs separated by more than four inhibition widths coexist.
        s2 = gaussian_input(CHIP, 20, 32) + gaussian_input(CHIP, 60, 32)
        f2 = run_field(Field.at_rest(CHIP), kernel, s2, 150)
        peaks = detect_peaks(f2, min_separation=6.0)
        assert len(peaks) == 2
        assert sorted(round(p.x) for p in peaks) == pytest.approx([20, 60], abs=2)

        # Global inhibition turns the same input into a single winner.
        sel_fp, sel_kp = selective_params()
        f3 = run_field(Field.at_rest(CHIP, sel_fp), make_kernel(sel_kp), s2, 150)
        sel_peaks = detect_peaks(f3, min_separation=6.0)
        assert len(sel_peaks) == 1

        # Shifting the input shifts the interior solution identically.
        dx, dy = 5, 3
        fa = run_field(Field.at_rest(CHIP), kernel, gaussian_input(CHIP, 40, 30), 120)
        fb = run_field(
            Field.at_rest(CHIP), kernel, gaussian_input(CHIP, 40 + dx, 30 + dy), 120
        )
        rolled = np.roll(fa.u, (dy, dx), axis=(0, 1))
        m = 25
        assert np.allclose(fb.u[m:-m, m:-m], rolled[m:-m, m:-m], atol=0.05 * U_ONE)

        assert time.perf_counter() - t0 < 30.0


# --- criterion 4: tracker accuracy ---------------------------------------

HAND_FOR_LABEL = {HandLabel.PITCH: Hand.LEFT, HandLabel.VOLUME: Hand.RIGHT}


def tracking_errors(estimates, traj):
    devs = []
    for est in estimates:
        for label, hand in HAND_FOR_LABEL.items():
            if label not in est.hands:
                continue
            tx, ty = traj.position_at(hand, est.t_us)
            p = est.hands[label]
            devs.append((p.x - tx, p.y - ty))
    return np.array(devs)


def test_c4_tracker_accuracy_and_noise_rejection():
    with criterion(4, "waving-hands mean error <= 8 px; field filtering beats "
                      "raw argmax under distractors"):
        traj = waving_trajectory(SENSOR, 5000.0)
        stream = synth_hand_events(traj, SENSOR, blob_radius=8.0)
        clean = HandTracker(TrackerConfig(input_res=SENSOR)).run(stream)
        assert len(clean) == 500
        devs = tracking_errors(clean, traj)
        assert len(devs) > 900
        mean_err = float(np.mean(np.hypot(devs[:, 0], devs[:, 1])))
        assert mean_err <= 8.0

        noisy = add_noise_events(stream, 0.2, seed=18)
        field_est = HandTracker(TrackerConfig(input_res=SENSOR)).run(noisy)
        argmax_est = HandTracker(TrackerConfig(input_res=SENSOR, use_field=False)).run(noisy)
        var_field = float(np.var(tracking_errors(field_est, traj)))
        var_argmax = float(np.var(tracking_errors(argmax_est, traj)))
        assert var_field < var_argmax


# --- criterion 5: wire protocol ------------------------------------------


def test_c5_protocol_overheads_and_integrity():
    with criterion(5, "frame overheads exact, single-bit corruption always "
                      "detected, loss accounting exact"):
        rng = np.random.default_rng(8)
        spikes = [
            GradedSpike(int(a), int(v))
            for a, v in zip(
                rng.integers(0, 86 * 65, 1000),
                rng.choice(np.array([-2, -1, 1, 2]), 1000),
            )
        ]
        assert raw_overhead_bytes_per_event() == 4.0
        assert len(raw_encode(spikes)) / len(spikes) == 4.0
        for count in (1, 10, 100, 1000):
            measured = len(safe_encode(spikes[:count], seq=0, timestamp_us=0)) / count
            assert measured == pytest.approx(22.0 / count + 8.0, abs=0.01)
            assert measured == pytest.approx(safe_overhead_bytes_per_event(count), abs=1e-9)

        fuzz = single_bit_fuzz(n_records=100, seed=0)
        assert fuzz.total_bits == (22 + 100 * 8) * 8
        assert fuzz.detected == fuzz.total_bits
        assert fuzz.undetected == []

        frames = [
            safe_encode(spikes[i : i + 10], seq=i // 10, timestamp_us=i * 100)
            for i in range(0, 500, 10)
        ]
        cfg = ChannelConfig(loss_p=0.3, seed=21)
        out = channel_transmit(frames, cfg, [float(i) for i in range(len(frames))])
        oracle = np.random.default_rng(21)
        expect_lost = sum(oracle.random() < 0.3 for _ in frames)
        stats = LinkStats(sent=len(frames))
        rx = SafeReceiver(8, stats)
        for dv in out:
            rx.receive_payload(dv.payload)
        rx.close(len(frames))
        assert stats.lost == expect_lost
        assert stats.delivered == len(frames) - expect_lost

        assert crc32(b"123456789") == 0xCBF43926


# --- criterion 6: pitch round trip and calibration -----------------------

def test_c6_score_round_trip_and_calibration():
    with criterion(6, "scale round trip within 1 cent outside ramps; "
                      "calibration recovers the model"):
        # The show's pitch law, which the 1-cent round trip is judged on.
        assert CALIBRATION == PitchCalibration(0.40, note_freq(60), 0.24)
        score = parse_score(SCALE_SCORE)
        traj = score_to_trajectory(score, vibrato_px=0.0)
        midis = (60, 62, 64, 65, 67, 69, 71, 72)
        checked = 0
        for t, x, y in zip(*(c.tolist() for c in traj.tracks[Hand.LEFT])):
            t_ms = t / 1000.0
            if in_ramp(t_ms, score):
                continue
            est = HandEstimate(int(t), {HandLabel.PITCH: HandPoint(x, y, 1.0)})
            point = hands_to_control(est)
            midi = midis[min(int(t_ms // 400), len(midis) - 1)]
            oracle_hz = 440.0 * 2.0 ** ((midi - 69) / 12.0)
            assert abs(cents_between(point.freq_hz, oracle_hz)) <= 1.0
            checked += 1
        assert checked > 250

        # The fit anchors its reference at the mean sample distance, so a
        # grid centered on the true anchor recovers the parameters
        # verbatim; off-sample probes pin the whole curve.
        truth = PitchCalibration(0.37, 310.0, 0.21)
        samples = [(float(d), truth.freq_at(float(d))) for d in np.linspace(0.17, 0.57, 9)]
        fitted = calibrate_pitch(samples)
        assert fitted.d_ref_m == pytest.approx(truth.d_ref_m, rel=1e-9)
        assert fitted.f_ref_hz == pytest.approx(truth.f_ref_hz, rel=1e-9)
        assert fitted.octave_m == pytest.approx(truth.octave_m, rel=1e-9)
        for d in np.linspace(0.12, 0.61, 7):
            assert fitted.freq_at(float(d)) == pytest.approx(
                truth.freq_at(float(d)), rel=1e-9
            )


# --- criterion 7: power and real-time arithmetic -------------------------


def test_c7_power_and_rtf_figures():
    with criterion(7, "cluster-vs-boards power ratios 5.42 and 13.54; "
                      "real-time factor 0.45"):
        assert round(power_ratio(6.5, 120.0, 10), 2) == 5.42
        assert round(power_ratio(6.5, 48.0, 10), 2) == 13.54
        assert compute_rtf(45.0, 100.0) == 0.45


# --- criterion 8: show controller ----------------------------------------


def test_c8_controller_exhaustive_and_replayable():
    with criterion(8, "state machine total, deterministic, fully reachable; "
                      "100 identical scenario replays"):
        for show in ShowState:
            for resume in ShowState:
                for intent in Intention:
                    state = ControllerState(show, resume)
                    first = transition(state, intent)
                    assert isinstance(first, ControllerState)
                    assert transition(state, intent) == first

        seen = set()
        frontier = [ControllerState()]
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            frontier.extend(transition(state, intent) for intent in Intention)
        assert {s.show for s in seen} == set(ShowState)

        script = [Intention.START_CONVERSATION, Intention.ASK_DUET, Intention.DONE]
        traces = []
        for _ in range(100):
            state = ControllerState()
            trace = []
            for intent in script:
                state = transition(state, intent)
                trace.append((state.show, control_signals(state.show)))
            traces.append(trace)
        assert [t[0] for t in traces[0]] == [
            ShowState.CONVERSING, ShowState.DUET, ShowState.CONVERSING,
        ]
        assert all(t == traces[0] for t in traces)


# --- criterion 9: end-to-end duet ----------------------------------------


def test_c9_duet_error_bound_and_replayable_report():
    with criterion(9, "duet pitch error within the propagated tracking bound; "
                      "report identical across reruns"):
        score = SCALE_SCORE + "VOL 0 0.8\nVOL 3200 0.8\n"
        cfg = SimConfig(seed=7)
        first = run_show(cfg, scenario_text=DUET_SCENARIO, score_text=score)
        assert first.pitch_samples > 0
        assert first.cents_per_pixel == pytest.approx(10.0)
        assert first.pitch_bound_cents == pytest.approx(
            first.cents_per_pixel * first.track_mean_x_px + 1.0
        )
        assert first.pitch_mean_cents <= first.pitch_bound_cents
        link = first.link
        assert link["lost"] == 0 and link["corrupted_dropped"] == 0
        assert link["delivered"] == link["sent"]

        again = run_show(cfg, scenario_text=DUET_SCENARIO, score_text=score)
        assert again.to_kv_lines(include_wall=False) == first.to_kv_lines(include_wall=False)
