"""End-to-end smoke tests for the command-line interface."""

import dataclasses
import hashlib
import json

import pytest
from click.testing import CliRunner

from evtheremin import cli
from evtheremin.cli import main
from evtheremin.events import EventStream, Resolution, decode_evt1, encode_evt1
from evtheremin.harness import RunReport
from evtheremin.tracker import MAX_WINDOWS
from evtheremin.transport import safe_encode


def invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


class TestSynthAndTrack:
    def test_pipeline(self, tmp_path):
        ev = tmp_path / "hands.evt1"
        csv = tmp_path / "estimates.csv"
        out = invoke(
            ["synth", "--out", str(ev), "--duration-ms", "300"]
        )
        assert "events over" in out.output
        assert ev.read_bytes()[:4] == b"EVT1"

        out = invoke(["track", "--in", str(ev), "--out", str(csv)])
        assert "windows" in out.output
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert rows
        assert all(len(r) == 5 and r[1] in ("pitch_hand", "volume_hand") for r in rows)

    def test_track_writes_field_snapshot(self, tmp_path):
        ev = tmp_path / "hands.evt1"
        pgm = tmp_path / "field.pgm"
        invoke(["synth", "--out", str(ev), "--duration-ms", "200"])
        invoke(
            ["track", "--in", str(ev), "--out", str(tmp_path / "e.csv"),
             "--field-pgm", str(pgm)]
        )
        assert pgm.read_bytes().startswith(b"P5\n")

    # sha256 of the EVT1 and the --trajectory-out JSON, pinned so a change to
    # how trajectories are built or stored cannot move a single byte.  The
    # EVT1 digests were re-pinned when synthesis began stamping each event
    # with its step's start.
    @pytest.mark.parametrize(
        "args, evt1_sha, json_sha",
        [
            (["--duration-ms", "400"],
             "6aef801d34102d46367c1d969d743f395ee1cc1de30c7d03070ed19f7b4a95a3",
             "1a904d2e61adcfa0e2276bd2e98d4b242dbb984c86ffe9e1e60c47aa660291f1"),
            (["--pattern", "score", "--score", "{demo}/score.txt"],
             "0123ec6a6aa36a1d90c2fa7003523fda7781d24d61277073b97b3669753bb7c1",
             "cf56854de6c11f3555c581cc909fade9f5f45c53f06eabdb4981b7661b05c4e8"),
            # The lossy show's two-hand score on a sensor taller than the
            # 180 px the camera geometry assumes, so that image height and
            # sensor height cannot stand in for each other.
            (["--pattern", "score", "--score", "{lossy}", "--resolution", "640x480"],
             "3f457489f640d329c978f71e0159f4441cda6771dbf5c02e0461e0575d70c21b",
             "548001e0805a9dc055877cf786181dacdaf56ad18fb2b008f2fce9aee9c24b5e"),
        ],
        ids=["wave", "score", "lossy-640x480"],
    )
    def test_trajectory_out_bytes_pinned(self, tmp_path, args, evt1_sha, json_sha):
        demo, lossy = tmp_path / "demo", tmp_path / "lossy.txt"
        invoke(["demo", "--dir", str(demo)])
        lossy.write_text("NOTE 60 80\nNOTE 67 80\nVOL 0 0.2\nVOL 80 0.9\nVOL 160 0.4\n")
        ev, traj = tmp_path / "hands.evt1", tmp_path / "traj.json"
        invoke(["synth", "--out", str(ev), "--trajectory-out", str(traj),
                *(a.format(demo=demo, lossy=lossy) for a in args)])
        assert hashlib.sha256(ev.read_bytes()).hexdigest() == evt1_sha
        assert hashlib.sha256(traj.read_bytes()).hexdigest() == json_sha

    def test_score_pattern_needs_score_file(self, tmp_path):
        result = CliRunner().invoke(
            main,
            ["synth", "--out", str(tmp_path / "x.evt1"),
             "--pattern", "score"],
        )
        assert result.exit_code != 0
        assert "--score" in result.output

    @pytest.mark.parametrize(
        "text", ["NOTE 60 inf\n", "NOTE 60 nan\n", "VOL nan 0.5\nNOTE 60 400\n", "VOL inf 0.5\nNOTE 60 400\n"]
    )
    def test_non_finite_score_value_fails_cleanly(self, tmp_path, text):
        score = tmp_path / "score.txt"
        score.write_text(text)
        out = tmp_path / "x.evt1"
        result = CliRunner().invoke(
            main, ["synth", "--out", str(out), "--pattern", "score", "--score", str(score)]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "line 1: " in result.output
        assert not out.exists()

    def test_bad_resolution(self, tmp_path):
        result = CliRunner().invoke(
            main,
            ["synth", "--out", str(tmp_path / "x.evt1"),
             "--resolution", "abc"],
        )
        assert result.exit_code != 0


class TestShowAndReport:
    def test_show_runs_config(self, tmp_path):
        score = tmp_path / "score.txt"
        scenario = tmp_path / "scenario.txt"
        config = tmp_path / "config.json"
        report_path = tmp_path / "report.json"
        score.write_text("NOTE 60 400\nNOTE 64 400\nVOL 0 0.8\nVOL 800 0.8\n")
        scenario.write_text(
            "AT 0 INTENT StartConversation\nAT 100 INTENT AskDuet\nAT 900 INTENT Done\n"
        )
        config.write_text(
            json.dumps({"seed": 5, "scenario": str(scenario), "score": str(score)})
        )

        out = invoke(
            ["show", "--config", str(config), "--format", "kv",
             "--report-out", str(report_path)]
        )
        assert "counts.windows=80" in out.output
        rep = RunReport.from_json(report_path.read_text())
        assert rep.seed == 5

        out = invoke(["report", "--in", str(report_path), "--format", "kv", "--no-wall"])
        assert "counts.windows=80" in out.output
        assert "wall_s=" not in out.output

        out = invoke(["report", "--in", str(report_path)])
        assert "show run (seed 5)" in out.output
        assert "latency model per stage (us): orchestrator=200, sensor=220, theremin=100, tracker=1000" in out.output

    def test_demo_writes_files(self, tmp_path):
        out = invoke(["demo", "--dir", str(tmp_path / "demo")])
        assert "try: evtheremin show" in out.output
        assert (tmp_path / "demo" / "config.json").exists()

    def test_bad_config_key_fails_cleanly(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed": 1, "oops": 2}))
        result = CliRunner().invoke(main, ["show", "--config", str(config)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "unknown config keys" in result.output

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tracker": {"input_res": [240]}}, "tracker.input_res must be [width, height]"),
            ({"channel": 5}, "channel must be an object"),
            ({"vol_range_m": 0.2}, "unknown config keys: ['vol_range_m']"),
            ({"tracker": {"field_params": [1]}}, "unknown key tracker.field_params"),
            ({"scenario": "missing-scenario.txt"}, "missing-scenario.txt"),
            ({"score": "missing-score.txt"}, "missing-score.txt"),
            ({"tracker": {"blur_sigma_cells": -1}}, "unknown key tracker.blur_sigma_cells"),
            ({"tracker": {"window_us": 0}}, "tracker: window must be positive"),
            ({"tracker": {"confidence_decay": 1.0}}, "unknown key tracker.confidence_decay"),
            ({"tracker": {"chip_res": [300, 200]}}, "unknown key tracker.chip_res"),
            ({"tracker": {"input_res": [80, 60]}}, "tracker: chip 86x65 exceeds input 80x60"),
            ({"tracker": {"field_params": {"tau": -1}}}, "unknown key tracker.field_params"),
            ({"ramp_ms": -5}, "unknown config keys: ['ramp_ms']"),
            ({"tempo": -1}, "config: tempo must be positive and finite, got -1.0"),
            ({"calibration": {"octave_m": 0.24}}, "unknown config keys: ['calibration']"),
            ({"tracker": {"window_us": 2**64}}, "tracker: window_us must be below 2**63, got 18446744073709551616"),
            ({"seed": -1}, "config: seed must be non-negative, got -1"),
            ({"channel": {"seed": -3}}, "channel: seed must be non-negative, got -3"),
            ({"latencies": {"sensor_us": 220.0}}, "unknown config keys: ['latencies']"),
            ({"reorder_window": -1}, "config: reorder_window must be an int >= 0, got -1"),
            ({"channel": {"delay_base_us": float("nan")}},
             "channel: delay_base_us must be finite and >= 0, got nan"),
            ({"tracker": {"input_res": [239, 180]}},
             "config: tracker.input_res must be at least the show's camera, 240x180, got 239x180"),
            ({"tracker": {"input_res": [240, 179]}},
             "config: tracker.input_res must be at least the show's camera, 240x180, got 240x179"),
        ],
    )
    def test_malformed_config_fails_cleanly(self, tmp_path, fields, message):
        score = tmp_path / "score.txt"
        scenario = tmp_path / "scenario.txt"
        score.write_text("NOTE 60 100\n")
        scenario.write_text("AT 0 INTENT StartConversation\n")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed": 1, "scenario": str(scenario), "score": str(score), **fields}))
        result = CliRunner().invoke(main, ["show", "--config", str(config)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output

    # The sample period is a constant, so a config that sets it is
    # refused by name before the show runs.
    @pytest.mark.parametrize("sample_ms", [0, -5])
    def test_nonpositive_sample_ms_fails_cleanly(self, tmp_path, sample_ms):
        score = tmp_path / "score.txt"
        scenario = tmp_path / "scenario.txt"
        score.write_text("NOTE 60 100\n")
        scenario.write_text(
            "AT 0 INTENT StartConversation\nAT 10 INTENT AskSolo\nAT 110 INTENT Done\n"
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"seed": 1, "scenario": str(scenario), "score": str(score), "sample_ms": sample_ms}
            )
        )
        result = CliRunner().invoke(main, ["show", "--config", str(config)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "unknown config keys: ['sample_ms']" in result.output

    # A scenario time is finite, >= 0 and below 2**53 us, where whole us
    # stop being exact; the refusal names the line instead of a traceback.
    @pytest.mark.parametrize("time, message", [
        ("inf", "line 3: time must be finite, got inf"),
        ("nan", "line 3: time must be finite, got nan"),
        ("1e13", "line 3: time must be below 2**53 us, got 1e13 ms"),
        ("-50", "line 3: time must be >= 0, got -50"),
    ])
    def test_unusable_scenario_time_fails_cleanly(self, tmp_path, time, message):
        score = tmp_path / "score.txt"
        scenario = tmp_path / "scenario.txt"
        score.write_text("NOTE 60 100\n")
        scenario.write_text(f"AT 0 INTENT StartConversation\nAT 10 INTENT AskDuet\nAT {time} INTENT Done\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "scenario": str(scenario), "score": str(score)}))
        result = CliRunner().invoke(main, ["show", "--config", str(config)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message}\n"

    def test_truncated_report_fails_cleanly(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"seed": 3}))
        result = CliRunner().invoke(main, ["report", "--in", str(path)])
        assert result.exit_code == 1
        assert "missing field" in result.output
        # JSON that is not an object is refused by its type.
        for doc, kind in (([1, 2], "list"), ("x", "str")):
            path.write_text(json.dumps(doc))
            result = CliRunner().invoke(main, ["report", "--in", str(path)])
            assert result.exit_code == 1
            assert result.output == f"Error: report must be a JSON object, got {kind}\n"
        # A report saved before the stage latencies moved to latency_model_us.
        old = {f.name: 0 for f in dataclasses.fields(RunReport) if f.name != "latency_model_us"}
        old["latency_us"] = {"sensor": {"count": 2, "mean": 220.0, "min": 220.0, "max": 220.0}}
        path.write_text(json.dumps(old))
        result = CliRunner().invoke(main, ["report", "--in", str(path)])
        assert result.exit_code == 1
        assert result.output == "Error: missing field 'latency_model_us'\n"

    def test_corrupt_event_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "junk.evt1"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        result = CliRunner().invoke(
            main, ["track", "--in", str(path), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_window_past_the_last_u64_time_fails_cleanly(self, tmp_path):
        path = tmp_path / "late.evt1"
        path.write_bytes(encode_evt1(EventStream([2**64 - 1], [3], [4], [1], Resolution(240, 180))))
        csv = tmp_path / "o.csv"
        result = CliRunner().invoke(main, ["track", "--in", str(path), "--out", str(csv)])
        assert result.exit_code == 1 and "past the u64 time limit 2**64 - 1" in result.output
        assert isinstance(result.exception, SystemExit) and not csv.exists()

    def test_span_of_too_many_windows_fails_cleanly(self, tmp_path):
        # 9.2e14 windows between the two events: refused, not unpacked.
        path = tmp_path / "far.evt1"
        path.write_bytes(encode_evt1(EventStream([5, 2**63], [3, 3], [4, 4], [1, 1], Resolution(240, 180))))
        csv = tmp_path / "o.csv"
        result = CliRunner().invoke(main, ["track", "--in", str(path), "--out", str(csv)])
        assert result.exit_code == 1 and "needs 922337203685478 windows" in result.output
        assert f"more than the {MAX_WINDOWS} a run tracks" in result.output
        assert isinstance(result.exception, SystemExit) and not csv.exists()

    def test_track_at_the_largest_sensor(self, tmp_path):
        path = tmp_path / "wide.evt1"
        res = Resolution(65535, 65535)
        path.write_bytes(encode_evt1(EventStream([5], [65534], [3], [1], res)))
        csv = tmp_path / "o.csv"
        assert "1 windows" in invoke(["track", "--in", str(path), "--out", str(csv)]).output


class TestProtoCommands:
    def test_bench_table(self):
        out = invoke(["proto", "bench", "--events", "2000", "--seed", "1"])
        assert "bytes/event" in out.output
        assert "4.0000" in out.output

    def test_bench_with_impairments(self):
        out = invoke(
            ["proto", "bench", "--events", "2000", "--seed", "1", "--loss", "0.1"]
        )
        assert "safe link:" in out.output

    # sha256 of the whole output, pinned so a change to how the channel
    # draws its loss, bit-flip and bit-index values cannot move a count.
    # A jittered link is left out: its counts carry ROADMAP item 2's
    # double count.
    @pytest.mark.parametrize(
        "seed, sha",
        [
            ("3", "5da00c2bf504990b988d5a58911dcd448d648da5b22c7073e03ba1dc7580501c"),
            ("5", "6867732fb3c6a07b619bf4f558c784eb44a2de7e5e0a2498fe04c64785b3e0a5"),
        ],
    )
    def test_bench_link_accounting_pinned(self, seed, sha):
        out = invoke(["proto", "bench", "--loss", "0.1", "--bitflip", "5e-4", "--seed", seed])
        assert hashlib.sha256(out.output.encode()).hexdigest() == sha

    def test_fuzz(self):
        out = invoke(["proto", "fuzz", "--records", "3"])
        assert "(100.00%)" in out.output

    def test_dump(self, tmp_path):
        frame = tmp_path / "frame.bin"
        frame.write_bytes(safe_encode([], seq=9, timestamp_us=0))
        out = invoke(["proto", "dump", str(frame)])
        assert "0xAE52" in out.output


class TestPowerCommand:
    def test_default_range(self):
        out = invoke(["power"])
        assert "5.42x" in out.output
        assert "13.54x" in out.output

    def test_single_board(self):
        out = invoke(["power", "--board-w", "60"])
        assert "10.83x" in out.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["power", "--board-w", "0"], "power figures must be positive"),
        (["power", "--board-w", "-5"], "power figures must be positive"),
        (["power", "--boards", "0"], "power figures must be positive"),
        (["proto", "bench", "--events", "5", "--seed", "1"], "need at least 10 events"),
        (["proto", "bench", "--loss", "2", "--seed", "1"], "probabilities must be in [0, 1]"),
        (["proto", "fuzz", "--records", "70000"], "bad SAFE field"),
        (["synth", "--out", "{tmp}/x.evt1", "--rate-scale", "-1"], "bad synthesis parameters"),
        (["synth", "--out", "{tmp}/x.evt1", "--resolution", "20x20"], "outside 20x20"),
        (["track", "--in", "{tmp}/240x180.evt1", "--out", "{tmp}/e.csv", "--window-us", "0"],
         "window must be positive"),
        (["track", "--in", "{tmp}/20x20.evt1", "--out", "{tmp}/e.csv"], "chip 86x65 exceeds input 20x20"),
        (["synth", "--out", "{tmp}/x.evt1", "--duration-ms", "-5"], "duration_ms must be positive"),
        (["synth", "--out", "{tmp}/x.evt1", "--duration-ms", "0"], "duration_ms must be positive"),
        (["synth", "--out", "{tmp}/x.evt1", "--duration-ms", "nan"], "duration_ms must be positive"),
        (["track", "--in", "{tmp}/240x180.evt1", "--out", "{tmp}/e.csv", "--window-us", "18446744073709551615"],
         "window_us must be below 2**63"),
        (["synth", "--out", "{tmp}/x.evt1", "--rate-scale", "inf"], "rate_scale must be"),
        (["synth", "--out", "{tmp}/x.evt1", "--rate-scale", "nan"], "rate_scale must be"),
        (["synth", "--out", "{tmp}/x.evt1", "--blob-radius", "inf"], "blob_radius must be"),
        (["synth", "--out", "{tmp}/x.evt1", "--blob-radius", "nan"], "blob_radius must be"),
        (["synth", "--out", "{tmp}/x.evt1", "--blob-radius", "-1"], "blob_radius must be"),
        (["proto", "bench", "--seed", "1", "--jitter-us", "nan"], "delay_jitter_us must be finite and >= 0, got nan"),
        (["proto", "bench", "--seed", "1", "--jitter-us", "inf"], "delay_jitter_us must be finite and >= 0, got inf"),
        (["power", "--board-w", "nan"], "board_w must be finite, got nan"),
        (["power", "--board-w", "inf"], "board_w must be finite, got inf"),
        (["power", "--cluster-kw", "inf"], "cluster_kw must be finite, got inf"),
    ],
)
def test_out_of_range_option_fails_cleanly(tmp_path, args, message):
    for res in (Resolution(240, 180), Resolution(20, 20)):
        (tmp_path / f"{res}.evt1").write_bytes(encode_evt1(EventStream.empty(res)))
    result = CliRunner().invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and message in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["20x20.evt1", "240x180.evt1"]


def test_blob_past_the_sensor_diagonal_writes_no_events(tmp_path):
    # Every pixel lies inside the disk in every frame, so nothing changes;
    # the frames are never drawn.
    out = tmp_path / "x.evt1"
    result = invoke(["synth", "--out", str(out), "--blob-radius", "1e9"])
    assert result.output.startswith("0 events ")
    assert decode_evt1(out.read_bytes()) == EventStream.empty(Resolution(240, 180))


@pytest.mark.parametrize("pattern", [["--pattern", "wave"], ["--pattern", "score", "--score", "{tmp}/score.txt"]])
def test_synth_refuses_wide_resolution_before_synthesis(tmp_path, monkeypatch, pattern):
    # EVT1 stores the width as u16; the refusal must not wait for the events.
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized before refusing the resolution")

    monkeypatch.setattr(cli, "synth_hand_events", no_synthesis)
    (tmp_path / "score.txt").write_text("NOTE 72 400\n")
    out = tmp_path / "x.evt1"
    args = ["synth", "--out", str(out), "--resolution", "70000x100"]
    result = CliRunner().invoke(main, args + [a.format(tmp=tmp_path) for a in pattern])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and "does not fit u16" in result.output
    assert not out.exists()


# A seed is a non-negative integer; click refuses a negative one by the
# option's name before the command runs, not with numpy's unnamed error.
@pytest.mark.parametrize(
    "args",
    [
        ["proto", "bench", "--seed", "-1"],
        ["proto", "fuzz", "--records", "3", "--seed", "-1"],
    ],
    ids=["proto-bench", "proto-fuzz"],
)
def test_negative_seed_is_refused_by_option(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Invalid value for '--seed'" in result.output


# A count is a non-negative integer; click refuses a negative one by the
# option's name, not with numpy's "negative dimensions are not allowed".
@pytest.mark.parametrize(
    "args, option",
    [
        (["proto", "bench", "--seed", "1", "--events", "-5"], "--events"),
        (["proto", "fuzz", "--records", "-3"], "--records"),
    ],
    ids=["proto-bench-events", "proto-fuzz-records"],
)
def test_negative_count_is_refused_by_option(args, option):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{option}'" in result.output
    assert "negative dimensions" not in result.output
