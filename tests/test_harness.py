"""Harness tests: telemetry codec, run reports, config
files, protocol benchmarks, and short end-to-end show runs."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtheremin import harness
from evtheremin.harness import (
    CH_PITCH_CONF,
    CH_PITCH_X,
    CH_PITCH_Y,
    CH_VOL_CONF,
    CH_VOL_X,
    CH_VOL_Y,
    CONF_SCALE,
    POS_SCALE,
    LatencyStat,
    RunReport,
    SimConfig,
    _estimate_to_spikes,
    _pos_scale,
    _scenario_segments,
    _spikes_to_estimate,
    compute_rtf,
    config_from_dict,
    config_to_dict,
    load_config,
    power_ratio,
    protocol_bench,
    run_show,
    single_bit_fuzz,
    write_demo_files,
)
from evtheremin.events import Resolution, synth_hand_events
from evtheremin.orchestrator import ControllerState, Intention, ShowState, parse_scenario, transition
from evtheremin.theremin import CAMERA_RES, ScoreError, parse_score
from evtheremin.tracker import HandEstimate, HandLabel, HandPoint, TrackerConfig
from evtheremin.transport import ChannelConfig, safe_encode

# Two 400 ms notes; short enough that a full duet run stays under a
# second of wall time.
SHORT_SCORE = "NOTE 60 400\nNOTE 64 400\nVOL 0 0.8\nVOL 800 0.8\n"
DUET_SCENARIO = (
    "AT 0 INTENT StartConversation\n"
    "AT 100 INTENT AskDuet\n"
    "AT 900 INTENT Done\n"
)
SOLO_SCENARIO = (
    "AT 0 INTENT StartConversation\n"
    "AT 100 INTENT AskSolo\n"
    "AT 900 INTENT Done\n"
)
TEACHING_SCENARIO = (
    "AT 0 INTENT StartConversation\n"
    "AT 100 INTENT AskTeaching\n"
    "AT 900 INTENT Done\n"
)
CALIBRATION_SCENARIO = "AT 0 INTENT RequestCalibration\nAT 400 INTENT Done\n"


class TestPowerAndRtf:
    def test_power_ratio_values(self):
        assert power_ratio(6.5, 120.0, 10) == pytest.approx(6500.0 / 1200.0)
        assert round(power_ratio(6.5, 120.0, 10), 2) == 5.42
        assert round(power_ratio(6.5, 48.0, 10), 2) == 13.54

    def test_power_ratio_rejects_nonpositive(self):
        for args in [(0.0, 120.0, 10), (6.5, 0.0, 10), (6.5, 120.0, 0), (-1.0, 120.0, 10)]:
            with pytest.raises(ValueError, match="positive"):
                power_ratio(*args)
        # nan passed the sign test and printed nanx; inf printed infx or 0.00x.
        for args, name, value in [
            ((math.nan, 120.0, 10), "cluster_kw", "nan"),
            ((math.inf, 120.0, 10), "cluster_kw", "inf"),
            ((6.5, math.nan, 10), "board_w", "nan"),
            ((6.5, math.inf, 10), "board_w", "inf"),
            ((6.5, -math.inf, 10), "board_w", "-inf"),
            ((6.5, 120.0, math.inf), "boards", "inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                power_ratio(*args)

    def test_rtf_values(self):
        assert compute_rtf(45.0, 100.0) == 0.45
        assert compute_rtf(200.0, 100.0) == 2.0
        assert compute_rtf(0.0, 5.0) == 0.0

    def test_rtf_rejects_bad_times(self):
        with pytest.raises(ValueError, match="wall"):
            compute_rtf(1.0, 0.0)
        with pytest.raises(ValueError, match="wall"):
            compute_rtf(1.0, -2.0)
        with pytest.raises(ValueError):
            compute_rtf(-1.0, 5.0)


class TestLatencyStat:
    def test_empty_dict_is_zeroed(self):
        assert LatencyStat().as_dict() == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        assert LatencyStat().mean == 0.0

    def test_accumulates(self):
        st = LatencyStat()
        for v in (10.0, 30.0, 20.0):
            st.add(v)
        assert st.as_dict() == {"count": 3, "mean": 20.0, "min": 10.0, "max": 30.0}


class TestTelemetryCodec:
    # The private codec pair is the wire contract for hand estimates;
    # everything below run_show depends on it, so it is pinned directly.

    def two_hand_estimate(self):
        return HandEstimate(
            123,
            {
                HandLabel.PITCH: HandPoint(100.125, 90.5, 1.0),
                HandLabel.VOLUME: HandPoint(216.0, 40.25, 0.75),
            },
        )

    def test_channel_layout_and_scaling(self):
        spikes = _estimate_to_spikes(self.two_hand_estimate())
        by_ch = {s.address: s.value for s in spikes}
        assert sorted(by_ch) == [
            CH_PITCH_X, CH_PITCH_Y, CH_PITCH_CONF, CH_VOL_X, CH_VOL_Y, CH_VOL_CONF,
        ]
        assert by_ch[CH_PITCH_X] == round(100.125 * POS_SCALE)
        assert by_ch[CH_PITCH_Y] == round(90.5 * POS_SCALE)
        assert by_ch[CH_PITCH_CONF] == round(1.0 * CONF_SCALE)
        assert by_ch[CH_VOL_X] == round(216.0 * POS_SCALE)
        assert by_ch[CH_VOL_CONF] == 750

    def test_roundtrip_exact_on_grid_values(self):
        # 100.125 and 90.5 sit on the 1/64 px grid, so they survive intact.
        est = self.two_hand_estimate()
        spikes = _estimate_to_spikes(est)
        back = _spikes_to_estimate(123, [(s.address, s.value) for s in spikes])
        assert back.t_us == 123
        p = back.hands[HandLabel.PITCH]
        assert (p.x, p.y, p.confidence) == (100.125, 90.5, 1.0)
        v = back.hands[HandLabel.VOLUME]
        assert (v.x, v.y, v.confidence) == (216.0, 40.25, 0.75)

    def test_roundtrip_error_bounded_by_quantization(self):
        est = HandEstimate(
            0,
            {
                HandLabel.PITCH: HandPoint(123.456, 7.89, 0.333),
                HandLabel.VOLUME: HandPoint(0.7071, 179.99, 0.5001),
            },
        )
        spikes = _estimate_to_spikes(est)
        back = _spikes_to_estimate(0, [(s.address, s.value) for s in spikes])
        for label in (HandLabel.PITCH, HandLabel.VOLUME):
            a, b = est.hands[label], back.hands[label]
            assert abs(a.x - b.x) <= 0.5 / POS_SCALE + 1e-12
            assert abs(a.y - b.y) <= 0.5 / POS_SCALE + 1e-12
            assert abs(a.confidence - b.confidence) <= 0.5 / CONF_SCALE + 1e-12

    def test_confidence_rounding_to_zero_drops_the_hand(self):
        est = HandEstimate(0, {HandLabel.PITCH: HandPoint(10.0, 10.0, 0.0004)})
        assert _estimate_to_spikes(est) == []

    def test_zero_coordinate_clamps_to_one_step(self):
        est = HandEstimate(0, {HandLabel.PITCH: HandPoint(0.0, 50.0, 1.0)})
        spikes = {s.address: s.value for s in _estimate_to_spikes(est)}
        assert spikes[CH_PITCH_X] == 1
        back = _spikes_to_estimate(0, list(spikes.items()))
        assert back.hands[HandLabel.PITCH].x == 1.0 / POS_SCALE

    def test_decode_keyed_on_confidence_channel(self):
        # Position spikes without a confidence spike describe no hand.
        back = _spikes_to_estimate(5, [(CH_PITCH_X, 640), (CH_PITCH_Y, 640)])
        assert back.hands == {}
        only_vol = _spikes_to_estimate(5, [(CH_VOL_CONF, 1000)])
        assert set(only_vol.hands) == {HandLabel.VOLUME}

    def test_empty_estimate_emits_heartbeat(self):
        assert _estimate_to_spikes(HandEstimate(9, {})) == []


class TestScenarioSegments:
    def test_demo_scenario_segments(self):
        events = parse_scenario(
            "AT 0 INTENT StartConversation\n"
            "AT 200 INTENT AskDuet\n"
            "AT 3600 INTENT Done\n"
            "AT 3800 INTENT AskSolo\n"
            "AT 7200 INTENT Done\n"
        )
        segs = [(s.t0_ms, s.t1_ms, s.state) for s in _scenario_segments(events)]
        assert segs == [
            (0.0, 200.0, ShowState.CONVERSING),
            (200.0, 3600.0, ShowState.DUET),
            (3600.0, 3800.0, ShowState.CONVERSING),
            (3800.0, 7200.0, ShowState.SOLO),
        ]

    def test_zero_length_segments_are_skipped(self):
        events = parse_scenario(
            "AT 0 INTENT StartConversation\nAT 0 INTENT AskDuet\nAT 500 INTENT Done\n"
        )
        segs = [(s.t0_ms, s.t1_ms, s.state) for s in _scenario_segments(events)]
        assert segs == [(0.0, 500.0, ShowState.DUET)]

    def test_empty_scenario(self):
        assert _scenario_segments([]) == []


def small_report(**overrides):
    fields = dict(
        seed=1,
        sim_duration_us=1000.0,
        state_ms={"Idle": 1.0, "Duet": 0.5},
        latency_model_us={"sensor": 220.0, "tracker": 1000.0},
        latency_us={"link": {"count": 2, "mean": 500.0, "min": 400.0, "max": 600.0}},
        link={"sent": 2, "delivered": 2},
        counts={"windows": 2, "frames_sent": 2},
        pitch_mean_cents=0.5,
        pitch_max_cents=1.25,
        pitch_nominal_mean_cents=2.0,
        pitch_samples=2,
        track_mean_px=0.25,
        track_mean_x_px=0.125,
        cents_per_pixel=10.0,
        pitch_bound_cents=2.25,
        calibration_drift_cents=0.0,
        energy={"tracker_active_s": 0.0005},
        wall_s=0.125,
        rtf=0.008,
        sub_realtime=True,
    )
    fields.update(overrides)
    return RunReport(**fields)


class TestRunReportSerialization:
    def test_kv_lines_sorted_and_dotted(self):
        lines = small_report().to_kv_lines()
        assert lines == sorted(lines)
        assert "counts.windows=2" in lines
        assert "latency_model_us.sensor=220.0" in lines
        assert "latency_us.link.mean=500.0" in lines
        assert "state_ms.Duet=0.5" in lines

    def test_kv_floats_use_repr(self):
        lines = small_report(pitch_mean_cents=0.1 + 0.2).to_kv_lines()
        assert f"pitch_mean_cents={(0.1 + 0.2)!r}" in lines

    def test_kv_wall_exclusion(self):
        rep = small_report()
        full = rep.to_kv_lines(include_wall=True)
        trimmed = rep.to_kv_lines(include_wall=False)
        dropped = set(full) - set(trimmed)
        assert dropped == {"wall_s=0.125", "rtf=0.008", "sub_realtime=True"}

    def test_json_roundtrip(self):
        rep = small_report()
        assert RunReport.from_json(rep.to_json()) == rep

    def test_to_text_smoke(self):
        text = small_report().to_text()
        assert "show run (seed 1)" in text
        assert "rtf" in text


class TestConfigCodec:
    def test_default_roundtrip(self):
        cfg = SimConfig(seed=3)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_custom_roundtrip_through_json(self):
        cfg = SimConfig(
            seed=9,
            scenario_path="s.txt",
            score_path="m.txt",
            reorder_window=3,
            tracker=TrackerConfig(
                input_res=Resolution(320, 240),
                window_us=5000,
                detector="sd_net",
            ),
            channel=ChannelConfig(loss_p=0.1, delay_base_us=400.0, seed=4),
            tempo=2.0,
        )
        wire = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(wire) == cfg

    @pytest.mark.parametrize("window", [True, 2.5, "3"])
    def test_reorder_window_must_be_an_int(self, window):
        # Built in Python, a window of True or 2.5 was taken, and the show
        # failed later inside the receiver with no config key named.
        with pytest.raises(ValueError, match=f"^reorder_window must be an int >= 0, got {window!r}$"):
            SimConfig(seed=1, reorder_window=window)

    def test_seed_is_required(self):
        with pytest.raises(ValueError, match="seed"):
            config_from_dict({})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match=r"unknown config keys.*bogus"):
            config_from_dict({"seed": 1, "bogus": 2})

    def test_unknown_nested_keys(self):
        with pytest.raises(ValueError, match=r"unknown key tracker\.bogus"):
            config_from_dict({"seed": 1, "tracker": {"bogus": 1}})
        with pytest.raises(ValueError, match=r"unknown key channel\.zap"):
            config_from_dict({"seed": 1, "channel": {"zap": 1}})

    def test_constants_are_not_keys(self):
        # The tracker tuning and chip grid, and the geometry, energy,
        # synthesis, stage latency, calibration, volume range, sample period
        # and ramp values are constants in code; a config that sets one is
        # refused by name.
        for key in ("field_params", "kernel_params", "input_gain", "detect_threshold", "min_separation_cells",
                    "min_peak_mass", "mirror", "confidence_decay", "blur_sigma_cells", "sd_theta",
                    "argmax_floor", "max_hands", "chip_res"):
            with pytest.raises(ValueError, match=rf"^unknown key tracker\.{key}$"):
                config_from_dict({"seed": 1, "tracker": {key: 1}})
        for key in ("geometry", "energy", "synth", "latencies", "calibration", "vol_range_m", "sample_ms", "ramp_ms"):
            with pytest.raises(ValueError, match=rf"^unknown config keys: \['{key}'\]$"):
                config_from_dict({"seed": 1, key: {}})

    def test_resolution_from_list(self):
        cfg = config_from_dict({"seed": 1, "tracker": {"input_res": [320, 240]}})
        assert cfg.tracker.input_res == Resolution(320, 240)

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "tempo": 2.0}))
        cfg = load_config(path)
        assert cfg.seed == 5
        assert cfg.tempo == 2.0


class TestDemoFiles:
    def test_demo_files_are_usable(self, tmp_path):
        paths = write_demo_files(tmp_path / "demo")
        assert sorted(paths) == ["config", "scenario", "score"]
        score = parse_score(Path(paths["score"]).read_text())
        assert len(score.notes) == 8
        assert score.onsets_ms()[-1] == pytest.approx(3200.0)
        events = parse_scenario(Path(paths["scenario"]).read_text())
        assert len(events) == 5
        cfg = load_config(paths["config"])
        assert cfg.seed == 7
        assert cfg.scenario_path == paths["scenario"]
        assert cfg.score_path == paths["score"]


@pytest.fixture(scope="module")
def duet_report():
    return run_show(SimConfig(seed=11), scenario_text=DUET_SCENARIO, score_text=SHORT_SCORE)


class TestDuetRun:
    def test_counts(self, duet_report):
        c = duet_report.counts
        assert c["windows"] == 80
        assert c["frames_sent"] == 80
        assert c["events_generated"] > 0
        assert c["control_points"] > 0
        assert c["gui_messages"] > 0
        assert c["routed_dropped"] == 0

    def test_state_durations(self, duet_report):
        assert duet_report.state_ms["Conversing"] == 100.0
        assert duet_report.state_ms["Duet"] == 800.0
        assert duet_report.state_ms["Idle"] == 0.0
        assert duet_report.sim_duration_us == 900_000.0

    def test_link_conservation_on_clean_channel(self, duet_report):
        link = duet_report.link
        assert link["sent"] == 80
        assert (
            link["delivered"] + link["lost"] + link["corrupted_dropped"] + link["duplicate_dropped"]
            == link["sent"]
        )
        assert link["lost"] == 0
        assert link["delivered"] == 80

    def test_latency_budget_closes(self, duet_report):
        assert_latency_budget_closes(duet_report)

    def test_configured_stage_latencies_reported(self, duet_report):
        assert duet_report.latency_model_us == {
            "sensor": 220.0, "tracker": 1000.0, "orchestrator": 200.0, "theremin": 100.0,
        }
        lat = duet_report.latency_us
        assert sorted(lat) == ["end_to_end", "link"]
        # Default channel has no delay, so the link contributes nothing.
        assert lat["link"]["mean"] == 0.0
        assert lat["end_to_end"]["mean"] == pytest.approx(1520.0)

    def test_pitch_error_within_bound(self, duet_report):
        assert 0 < duet_report.pitch_samples <= 80
        assert duet_report.cents_per_pixel == pytest.approx(10.0)
        assert duet_report.pitch_bound_cents == pytest.approx(
            10.0 * duet_report.track_mean_x_px + 1.0
        )
        assert duet_report.pitch_mean_cents <= duet_report.pitch_bound_cents
        # Pitch is exponential in distance and distance is linear in x, so
        # mean cents error equals cents/px times mean x error exactly.
        assert duet_report.pitch_mean_cents == pytest.approx(
            10.0 * duet_report.track_mean_x_px, rel=1e-6
        )

    def test_energy_block(self, duet_report):
        e = duet_report.energy
        assert e["tracker_active_s"] == pytest.approx(0.8)
        assert e["edge_tracker_j"] == pytest.approx(0.004 * 0.8)
        assert e["gpu_alt_j_min"] == pytest.approx(5.0 * 0.8)
        assert e["gpu_alt_j_max"] == pytest.approx(10.0 * 0.8)
        assert e["power_ratio_min"] == pytest.approx(6500.0 / 1200.0)
        assert e["power_ratio_max"] == pytest.approx(6500.0 / 480.0)

    def test_wall_fields(self, duet_report):
        assert duet_report.wall_s > 0
        assert duet_report.rtf > 0
        assert duet_report.sub_realtime == (duet_report.rtf < 1.0)

    def test_rerun_is_byte_identical_without_wall(self, duet_report):
        again = run_show(SimConfig(seed=11), scenario_text=DUET_SCENARIO, score_text=SHORT_SCORE)
        assert again.to_kv_lines(include_wall=False) == duet_report.to_kv_lines(
            include_wall=False
        )

    def test_report_json_roundtrip(self, duet_report):
        back = RunReport.from_json(duet_report.to_json())
        assert back.to_kv_lines() == duet_report.to_kv_lines()


# A 120 ms duet over a lossy, jittered, reordering link.
BRIEF_SCORE = "NOTE 60 60\nNOTE 67 60\nVOL 0 0.3\nVOL 60 0.9\n"
BRIEF_SCENARIO = "AT 0 INTENT StartConversation\nAT 20 INTENT AskDuet\nAT 140 INTENT Done\n"


def brief_config(seed: int) -> SimConfig:
    return SimConfig(seed=seed, channel=ChannelConfig(
        loss_p=0.1, bitflip_p=5e-4, delay_base_us=500.0, delay_jitter_us=15_000.0,
        reorder_window=3, seed=seed,
    ))


def brief_show(seed: int) -> tuple[list[str], list[str]]:
    """(kv lines without wall keys, sha256 per SAFE payload) of one run."""
    cfg = brief_config(seed)
    digests = []
    encode = harness.safe_encode

    def hashing_encode(*args, **kwargs):
        payload = encode(*args, **kwargs)
        digests.append(hashlib.sha256(payload).hexdigest())
        return payload

    harness.safe_encode = hashing_encode
    try:
        report = run_show(cfg, scenario_text=BRIEF_SCENARIO, score_text=BRIEF_SCORE)
    finally:
        harness.safe_encode = encode
    return report.to_kv_lines(include_wall=False), digests


def assert_latency_budget_closes(report):
    """Each tracked control point's end-to-end time is the fixed stage
    latencies plus its link time."""
    lat = report.latency_us
    assert lat["end_to_end"]["count"] == lat["link"]["count"] > 0
    assert lat["end_to_end"]["mean"] == pytest.approx(
        sum(report.latency_model_us.values()) + lat["link"]["mean"], abs=1e-6
    )


def test_latency_budget_closes_over_a_link_that_adds_latency():
    report = run_show(brief_config(5), scenario_text=BRIEF_SCENARIO, score_text=BRIEF_SCORE)
    assert report.latency_us["link"]["mean"] > 0
    assert_latency_budget_closes(report)


class TestReplay:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rerun_is_byte_identical_for_any_seed(self, seed):
        kv, digests = brief_show(seed)
        assert len(digests) == 12
        assert brief_show(seed) == (kv, digests)


class TestOtherShowStates:
    def test_solo_plays_without_tracking(self):
        rep = run_show(SimConfig(seed=2), scenario_text=SOLO_SCENARIO, score_text=SHORT_SCORE)
        assert rep.counts["windows"] == 0
        assert rep.counts["frames_sent"] == 0
        # The robot plays from the score: no frame, so no control point.
        assert rep.counts["control_points"] == 0
        assert rep.pitch_samples == 0
        assert rep.pitch_bound_cents == 0.0
        assert rep.latency_us["end_to_end"]["count"] == 0
        assert rep.state_ms["Solo"] == 800.0
        assert rep.energy["tracker_active_s"] == 0.0

    @pytest.mark.parametrize("score, message", [
        ("", "empty score"),
        ("NOTE 108 100\n", "needs distance -0.560 m"),
    ])
    def test_solo_refuses_a_score_it_cannot_play(self, score, message):
        # The solo tracks nothing, yet it plays the score, so it is planted.
        with pytest.raises(ScoreError, match=message):
            run_show(SimConfig(seed=2), scenario_text=SOLO_SCENARIO, score_text=score)

    def test_teaching_tracks_but_never_plays(self):
        rep = run_show(SimConfig(seed=2), scenario_text=TEACHING_SCENARIO, score_text=SHORT_SCORE)
        assert rep.counts["windows"] == 80
        assert rep.counts["gui_messages"] > 0
        # The synth route is gated off, so its copies are dropped and no
        # pitch metrics accumulate.
        assert rep.counts["control_points"] == 0
        assert rep.counts["routed_dropped"] > 0
        assert rep.pitch_samples == 0
        assert rep.state_ms["Teaching"] == 800.0
        assert rep.energy["tracker_active_s"] == pytest.approx(0.8)

    def test_late_duet_plays_as_an_early_one(self):
        # The score shifted to any start below 2**53 us is the same motion.
        def duet(start_ms):
            scenario = f"AT 0 INTENT StartConversation\nAT {start_ms} INTENT AskDuet\nAT {start_ms + 100} INTENT Done\n"
            return run_show(SimConfig(seed=2), scenario_text=scenario, score_text=SHORT_SCORE)

        early, late = duet(200), duet(9e12)
        assert early.counts["events_generated"] > 0 and early.pitch_samples > 0
        assert late.counts == early.counts and late.link == early.link
        for name in ("pitch_mean_cents", "pitch_samples", "track_mean_px", "track_mean_x_px"):
            assert getattr(late, name) == getattr(early, name), name

    def test_conversation_only_show_needs_no_score(self):
        # No state plays the score, so an empty one is never turned into
        # hand positions.
        scenario = "AT 0 INTENT StartConversation\nAT 100 INTENT Done\n"
        rep = run_show(SimConfig(seed=2), scenario_text=scenario, score_text="")
        assert rep.counts["windows"] == 0
        assert rep.counts["control_points"] == 0
        assert rep.state_ms["Conversing"] == 100.0
        assert rep.sim_duration_us == 100_000.0

    def test_time_before_the_first_line_is_idle(self):
        scenario = "AT 100 INTENT StartConversation\nAT 300 INTENT Done\n"
        rep = run_show(SimConfig(seed=2), scenario_text=scenario, score_text="")
        assert rep.state_ms["Idle"] == 100.0
        assert rep.state_ms["Conversing"] == 200.0
        assert rep.sim_duration_us == 300_000.0

    def test_negative_zero_time_reports_as_zero(self):
        def kv(time):
            scenario = f"AT {time} INTENT StartConversation\n"
            rep = run_show(SimConfig(seed=2), scenario_text=scenario, score_text="")
            return rep.to_kv_lines(include_wall=False)

        assert kv("-0") == kv("0")

    def test_calibration_refit_has_negligible_drift(self):
        rep = run_show(
            SimConfig(seed=2), scenario_text=CALIBRATION_SCENARIO, score_text=SHORT_SCORE
        )
        assert rep.state_ms["Calibrating"] == 400.0
        assert 0.0 <= rep.calibration_drift_cents < 1e-6

    def test_lossy_channel_accounting(self):
        cfg = SimConfig(seed=11, channel=ChannelConfig(loss_p=0.2, seed=5))
        rep = run_show(cfg, scenario_text=DUET_SCENARIO, score_text=SHORT_SCORE)
        link = rep.link
        assert link["sent"] == 80
        assert link["lost"] > 0
        assert (
            link["delivered"] + link["lost"] + link["corrupted_dropped"] + link["duplicate_dropped"]
            == link["sent"]
        )
        assert 0 < rep.pitch_samples < 80


class TestAnyResolution:
    def test_position_scale_fits_i16(self):
        assert _pos_scale(Resolution(240, 180)) == POS_SCALE
        assert _pos_scale(Resolution(511, 100)) == 64.0
        assert _pos_scale(Resolution(100, 512)) == 32.0
        assert _pos_scale(Resolution(1023, 768)) == 32.0
        assert _pos_scale(Resolution(1024, 768)) == 16.0
        assert _pos_scale(Resolution(2000, 1500)) == 16.0

    # The brief two-note score with its VOL lines, on a lossy link that
    # does not reorder, over any sensor a show config accepts, from the
    # show's camera up to 1024 px a side, and the largest an EVT1 header
    # can name: sides of 512 px and more send positions at a scale below 64.
    @settings(max_examples=6, deadline=None)
    @example(CAMERA_RES.width, CAMERA_RES.height)
    @example(640, 480)
    @example(65535, 65535)
    @given(st.integers(CAMERA_RES.width, 1024), st.integers(CAMERA_RES.height, 1024))
    def test_show_runs_at_any_accepted_size(self, width, height):
        cfg = SimConfig(seed=3, tracker=TrackerConfig(input_res=Resolution(width, height)),
                        channel=ChannelConfig(loss_p=0.2, seed=5))
        rep = run_show(cfg, scenario_text=BRIEF_SCENARIO, score_text=BRIEF_SCORE)
        link = rep.link
        assert rep.counts["frames_sent"] == rep.counts["windows"] == 12
        assert (
            link["delivered"] + link["lost"] + link["corrupted_dropped"] + link["duplicate_dropped"]
            == link["sent"]
        )


class TestSynthesisStopTime:
    # A 93 ms score sampled every 10 ms spans 90 ms, and the teaching
    # segment cuts its replay at 43 ms: with 6.5 ms windows neither is a
    # whole number of windows, and odd windows end inside 1 ms
    # micro-steps, the teaching segment's last at 45.5 ms.
    SCORE = "NOTE 60 45\nNOTE 64 48\nVOL 0 0.8\nVOL 60 0.3\n"
    SCENARIO = (
        "AT 0 INTENT StartConversation\n"
        "AT 100 INTENT AskDuet\n"
        "AT 300 INTENT Done\n"
        "AT 320 INTENT AskTeaching\n"
        "AT 363 INTENT Done\n"
    )

    def run(self, monkeypatch, stop=True):
        payloads = []

        def recording_encode(*args, **kwargs):
            payloads.append(safe_encode(*args, **kwargs))
            return payloads[-1]

        def synth(*args, until_us=None, **kwargs):
            # Without stop, the whole trajectory is synthesised.
            return synth_hand_events(*args, until_us=until_us if stop else None, **kwargs)

        monkeypatch.setattr(harness, "safe_encode", recording_encode)
        monkeypatch.setattr(harness, "synth_hand_events", synth)
        cfg = SimConfig(
            seed=5,
            tracker=TrackerConfig(window_us=6500),
            channel=ChannelConfig(loss_p=0.2, seed=3),
        )
        rep = run_show(cfg, scenario_text=self.SCENARIO, score_text=self.SCORE)
        return rep, payloads

    def test_last_window_sees_every_event(self, monkeypatch):
        rep, payloads = self.run(monkeypatch)
        full, full_payloads = self.run(monkeypatch, stop=False)
        # 14 windows over the duet's 90 ms, 7 over the teaching's 43 ms.
        assert rep.counts["windows"] == 21
        assert payloads == full_payloads
        lines = rep.to_kv_lines(include_wall=False)
        full_lines = full.to_kv_lines(include_wall=False)
        changed = [(a, b) for a, b in zip(lines, full_lines) if a != b]
        assert len(lines) == len(full_lines)
        assert [a.split("=")[0] for a, _ in changed] == ["counts.events_generated"]
        assert 0 < rep.counts["events_generated"] < full.counts["events_generated"]


class TestProtocolBench:
    def test_bytes_per_event_table(self):
        result = protocol_bench(n_events=2000, seed=0)
        assert result.safe_stats is None
        by_key = {(r.profile, r.batch): r.bytes_per_event for r in result.rows}
        assert len(result.rows) == 8
        for batch in (1, 10, 100, 1000):
            assert by_key[("raw", batch)] == 4.0
            assert by_key[("safe", batch)] == pytest.approx(22.0 / batch + 8.0)
        safe_col = [by_key[("safe", b)] for b in (1, 10, 100, 1000)]
        assert safe_col == sorted(safe_col, reverse=True)

    def test_frozen_overhead_values(self):
        result = protocol_bench(n_events=1000, seed=1)
        by_key = {(r.profile, r.batch): r.bytes_per_event for r in result.rows}
        assert by_key[("safe", 1)] == pytest.approx(30.0)
        assert by_key[("safe", 10)] == pytest.approx(10.2)
        assert by_key[("safe", 100)] == pytest.approx(8.22)
        assert by_key[("safe", 1000)] == pytest.approx(8.022)

    def test_batch_larger_than_events(self):
        with pytest.raises(ValueError, match="batch"):
            protocol_bench(n_events=500, seed=0)

    def test_channel_path_accounting(self):
        result = protocol_bench(
            n_events=2000, seed=0, channel=ChannelConfig(loss_p=0.2, seed=3)
        )
        st = result.safe_stats
        assert st is not None
        assert st.sent == 20
        assert st.delivered + st.lost + st.corrupted_dropped + st.duplicate_dropped == st.sent
        assert st.lost > 0
        assert result.raw_sent == 1000
        assert 0 < result.raw_delivered < result.raw_sent

    def test_clean_channel_delivers_everything(self):
        result = protocol_bench(n_events=2000, seed=0, channel=ChannelConfig())
        assert result.safe_stats.delivered == result.safe_stats.sent == 20
        assert result.raw_delivered == result.raw_sent == 1000

    def test_to_text_smoke(self):
        text = protocol_bench(n_events=1000, seed=0, channel=ChannelConfig()).to_text()
        assert "bytes/event" in text
        assert "safe link:" in text
        assert "raw link:" in text


class TestSingleBitFuzz:
    def test_small_frame_fully_detected(self):
        # 5 records: 22 header/CRC bytes plus 40 record bytes, 496 bits.
        result = single_bit_fuzz(n_records=5, seed=0)
        assert result.total_bits == (22 + 5 * 8) * 8
        assert result.detected == result.total_bits
        assert result.undetected == []
        assert sum(result.kinds.values()) == result.total_bits
        assert "bad_crc" in result.kinds
        assert "bad_magic" in result.kinds

    def test_to_text_reports_percentage(self):
        text = single_bit_fuzz(n_records=2, seed=1).to_text()
        assert "(100.00%)" in text
        assert "UNDETECTED" not in text


# A two-note score of 40 ms each: a tracking segment is at most 8 windows.
WHOLE_SHOW_SCORE = "NOTE 60 40\nNOTE 67 40\nVOL 0 0.3\nVOL 40 0.9\n"
WHOLE_SHOW_SCORE_MS = 80


def oracle_windows(scenario_text, score_ms, window_us):
    """The windows a show tracks: each line's stretch, up to the next
    line, that leaves the controller in Duet or Teaching, cut into
    window_us steps up to the stretch's end or the score's, whichever
    comes first (bench/checks.expected_windows' rule)."""
    lines = parse_scenario(scenario_text)
    state, total = ControllerState(), 0
    for line, following in zip(lines, lines[1:]):
        state = transition(state, line.intent)
        if state.show in (ShowState.DUET, ShowState.TEACHING):
            t0 = round(line.t_ms * 1000)
            end = min(round(following.t_ms * 1000), t0 + score_ms * 1000)
            total += max(0, -(-(end - t0) // window_us))
    return total


@st.composite
def scenarios(draw):
    """Scenario text: 1-6 lines of any intent at whole-ms times that
    start at 0 or later and never decrease, repeats and zero-length
    segments included."""
    t = draw(st.sampled_from([0, 0, 30]))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        lines.append(f"AT {t} INTENT {draw(st.sampled_from(list(Intention))).value}")
        t += draw(st.sampled_from([0, 10, 25, 60]))
    return "\n".join(lines) + "\n"


class TestWholeScenarios:
    """Properties of whole shows over drawn scenarios, links and detectors."""

    @settings(max_examples=25, deadline=None)
    @given(
        scenarios(),
        st.sampled_from(["blob", "sd_net"]),
        # Sides that do not divide by the chip's, and a wider sensor.
        st.sampled_from([Resolution(240, 180), Resolution(257, 193), Resolution(640, 480)]),
        st.builds(
            ChannelConfig,
            loss_p=st.sampled_from([0.0, 0.2, 0.5]),
            bitflip_p=st.sampled_from([0.0, 5e-4]),
            delay_jitter_us=st.sampled_from([0.0, 30_000.0]),
            reorder_window=st.integers(0, 8),
            seed=st.integers(0, 2**16),
        ),
        st.integers(0, 10),
        st.integers(0, 2**16),
    )
    @example("AT 100 INTENT StartConversation\nAT 300 INTENT Done\n", "blob", Resolution(240, 180), ChannelConfig(), 8, 0)
    # Teaching resumed after a calibration detour, for longer than the score.
    @example("AT 0 INTENT StartConversation\nAT 10 INTENT AskTeaching\nAT 45 INTENT RequestCalibration\n"
             "AT 60 INTENT Done\nAT 155 INTENT Done\n", "sd_net", Resolution(240, 180), ChannelConfig(loss_p=0.2), 8, 1)
    # A solo plays from the score: it sends no frame and makes no control point.
    @example("AT 0 INTENT StartConversation\nAT 0 INTENT AskSolo\nAT 60 INTENT Done\n", "blob", Resolution(240, 180),
             ChannelConfig(), 8, 0)
    def test_states_fill_the_show_and_a_rerun_is_identical(self, scenario, detector, res, channel, window, seed):
        cfg = SimConfig(seed=seed, tracker=TrackerConfig(input_res=res, detector=detector), channel=channel,
                        reorder_window=window)
        first = run_show(cfg, scenario_text=scenario, score_text=WHOLE_SHOW_SCORE)
        assert sum(first.state_ms.values()) == first.sim_duration_us / 1000
        assert first.counts["windows"] == oracle_windows(scenario, WHOLE_SHOW_SCORE_MS, cfg.tracker.window_us)
        # Every control point is played from a frame the link delivered.
        assert first.counts["control_points"] <= first.link["delivered"]
        again = run_show(cfg, scenario_text=scenario, score_text=WHOLE_SHOW_SCORE)
        kv = "\n".join(first.to_kv_lines(include_wall=False)).encode()
        assert "\n".join(again.to_kv_lines(include_wall=False)).encode() == kv
