"""Each output check rejects a deliberately wrong output.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import (  # noqa: E402
    CheckError,
    check_conservation,
    check_released,
    check_replay,
    check_replayed_counts,
    check_show,
    expected_windows,
    replay_channel,
)
from workloads import CADENCE_US, Session, link_round, run_session  # noqa: E402

ev = run.load_program()


# --- shows -----------------------------------------------------------------

SCORE = "NOTE 60 100\nNOTE 64 100\n"
SCENARIO = (
    "AT 0 INTENT StartConversation\nAT 10 INTENT AskDuet\nAT 150 INTENT Done\n"
    "AT 200 INTENT AskTeaching\nAT 330 INTENT Done\n"
)
SEGMENTS = [(10.0, 150.0), (200.0, 330.0)]


@pytest.fixture(scope="module")
def report():
    cfg = ev.harness.SimConfig(seed=3)
    return ev.harness.run_show(cfg, SCENARIO, SCORE)


def good(report):
    windows = expected_windows(SEGMENTS, 200.0, 10_000)
    check_show(report, windows, 330.0, ev.harness.POS_SCALE)
    return windows


def test_expected_windows_follow_segments_and_score():
    # A segment longer than the score stops with the score; a partial
    # window counts as one.
    assert expected_windows(SEGMENTS, 200.0, 10_000) == 14 + 13
    assert expected_windows([(0.0, 500.0)], 200.0, 10_000) == 20
    assert expected_windows([(200.0, 3600.0)], 3200.0, 10_000) == 320
    assert expected_windows([(0.0, 25.0)], 200.0, 10_000) == 3


def test_real_show_passes(report):
    assert good(report) == report.counts["windows"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.counts.__setitem__("windows", r.counts["windows"] + 1),
        lambda r: r.counts.__setitem__("frames_sent", r.counts["frames_sent"] - 1),
        lambda r: r.link.__setitem__("sent", r.link["sent"] + 1),
        lambda r: r.link.__setitem__("lost", r.link["lost"] + 1),
        lambda r: setattr(r, "sim_duration_us", r.sim_duration_us + 1000),
        lambda r: setattr(r, "pitch_mean_cents", r.pitch_mean_cents + 1.0),
        lambda r: setattr(r, "track_mean_x_px", r.track_mean_x_px * 1.5),
        lambda r: setattr(r, "pitch_samples", 0),
        lambda r: setattr(r, "calibration_drift_cents", 2e-6),
    ],
)
def test_show_check_rejects(report, mutate):
    wrong = copy.deepcopy(report)
    mutate(wrong)
    with pytest.raises(CheckError):
        good(wrong)


def test_replay_rejects_a_changed_line(report):
    lines = report.to_kv_lines(include_wall=False)
    check_replay(lines, list(lines))
    changed = list(lines)
    changed[3] += "0"
    with pytest.raises(CheckError):
        check_replay(lines, changed)
    with pytest.raises(CheckError):
        check_replay(lines, lines[:-1])


def test_conservation_rejects_double_count():
    link = {"sent": 10, "delivered": 7, "lost": 2, "corrupted_dropped": 1, "duplicate_dropped": 0}
    check_conservation(link)
    with pytest.raises(CheckError):
        check_conservation(dict(link, duplicate_dropped=1))


# --- link sessions ---------------------------------------------------------


@pytest.fixture(scope="module")
def sessions():
    return {s.kind: s for s in link_round(ev, 5)}


def test_every_session_kind_passes_except_the_double_count(sessions):
    for kind, s in sessions.items():
        assert run_session(ev, s).failed == (kind == "telemetry_jitter_equal"), kind


def test_replayed_channel_counts(sessions):
    s = sessions["telemetry_in_order"]
    payloads = [
        ev.transport.safe_encode(sp, seq=i, timestamp_us=i * CADENCE_US)
        for i, sp in enumerate(s.spikes)
    ]
    lost, corrupted = replay_channel(payloads, s.channel)
    assert lost > 0 and corrupted > 0
    link = {"lost": lost, "corrupted_dropped": corrupted}
    check_replayed_counts(link, lost, corrupted)
    for wrong in (dict(link, lost=lost + 1), dict(link, corrupted_dropped=corrupted - 1)):
        with pytest.raises(CheckError):
            check_replayed_counts(wrong, lost, corrupted)


def frames3():
    return [[(i * CADENCE_US + dt, a, v) for dt, a, v in ((0, 1, 5), (7, 2, -3))] for i in range(3)]


def test_released_accepts_intact_frames_in_order():
    frames = frames3()
    check_released(frames[0] + frames[2], frames, {0, 2}, CADENCE_US, complete=True)


@pytest.mark.parametrize(
    "released, intact, complete",
    [
        # a value changed
        (lambda f: f[0] + [(f[1][0][0], 1, 6)] + f[1][1:], {0, 1, 2}, False),
        # a record missing from a frame
        (lambda f: f[0] + f[1][:1], {0, 1, 2}, False),
        # a frame released twice
        (lambda f: f[0] + f[1] + f[1], {0, 1, 2}, False),
        # out of order
        (lambda f: f[1] + f[0], {0, 1, 2}, False),
        # a corrupted frame released
        (lambda f: f[0] + f[1], {0, 2}, False),
        # an intact frame never released
        (lambda f: f[0] + f[2], {0, 1, 2}, True),
        # a record of no sent frame
        (lambda f: f[0] + [(5 * CADENCE_US, 1, 5)], {0, 1, 2}, False),
    ],
)
def test_released_rejects(released, intact, complete):
    frames = frames3()
    with pytest.raises(CheckError):
        check_released(released(frames), frames, intact, CADENCE_US, complete)


def test_session_rejects_a_receiver_that_drops_records(sessions, monkeypatch):
    s: Session = sessions["spikes_in_order"]
    original = ev.transport.SafeReceiver.receive_payload

    def lossy(self, payload):
        return original(self, payload)[1:]

    monkeypatch.setattr(ev.transport.SafeReceiver, "receive_payload", lossy)
    with pytest.raises(CheckError):
        run_session(ev, s)


def test_tracer_restores_what_it_wraps():
    import tracing

    targets = tracing.show_targets(ev) + tracing.link_targets(ev)
    before = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a, _, _ in targets]
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        ev.transport.channel_transmit([b"x"], ev.transport.ChannelConfig())
    assert tracer.spans and tracer.spans[0][0] == "transport.channel_transmit"
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original
