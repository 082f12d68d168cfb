"""End-to-end smoke tests for the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from evtheremin.cli import main
from evtheremin.events import EventStream, Resolution, encode_evt1
from evtheremin.harness import RunReport
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
            ["synth", "--out", str(ev), "--seed", "3", "--duration-ms", "300"]
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
        invoke(["synth", "--out", str(ev), "--seed", "1", "--duration-ms", "200"])
        invoke(
            ["track", "--in", str(ev), "--out", str(tmp_path / "e.csv"),
             "--field-pgm", str(pgm)]
        )
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_score_pattern_needs_score_file(self, tmp_path):
        result = CliRunner().invoke(
            main,
            ["synth", "--out", str(tmp_path / "x.evt1"), "--seed", "1",
             "--pattern", "score"],
        )
        assert result.exit_code != 0
        assert "--score" in result.output

    def test_bad_resolution(self, tmp_path):
        result = CliRunner().invoke(
            main,
            ["synth", "--out", str(tmp_path / "x.evt1"), "--seed", "1",
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
            ({"vol_range_m": 0.2}, "vol_range_m must be a list of 2"),
            ({"tracker": {"field_params": [1]}}, "tracker.field_params must be an object"),
            ({"scenario": "missing-scenario.txt"}, "missing-scenario.txt"),
            ({"score": "missing-score.txt"}, "missing-score.txt"),
            ({"tracker": {"blur_sigma_cells": -1}}, "blur_sigma_cells must be finite and > 0"),
            ({"tracker": {"window_us": 0}}, "tracker: window must be positive"),
            ({"tracker": {"confidence_decay": 1.0}}, "tracker: confidence decay must be in (0, 1)"),
            ({"tracker": {"chip_res": [300, 200]}}, "tracker: chip 300x200 exceeds input 240x180"),
            ({"tracker": {"chip_res": [0, 65]}}, "tracker.chip_res: resolution must be positive"),
            ({"tracker": {"field_params": {"tau": -1}}}, "tracker.field_params: tau and dt must be positive"),
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
        assert "sample_ms must be positive" in result.output

    def test_truncated_report_fails_cleanly(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"seed": 3}))
        result = CliRunner().invoke(main, ["report", "--in", str(path)])
        assert result.exit_code == 1
        assert "missing field" in result.output

    def test_corrupt_event_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "junk.evt1"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        result = CliRunner().invoke(
            main, ["track", "--in", str(path), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)


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
        (["synth", "--out", "{tmp}/x.evt1", "--seed", "1", "--rate-scale", "-1"], "bad synthesis parameters"),
        (["synth", "--out", "{tmp}/x.evt1", "--seed", "1", "--resolution", "20x20"], "outside 20x20"),
        (["track", "--in", "{tmp}/240x180.evt1", "--out", "{tmp}/e.csv", "--window-us", "0"],
         "window must be positive"),
        (["track", "--in", "{tmp}/20x20.evt1", "--out", "{tmp}/e.csv"], "chip 86x65 exceeds input 20x20"),
    ],
)
def test_out_of_range_option_fails_cleanly(tmp_path, args, message):
    for res in (Resolution(240, 180), Resolution(20, 20)):
        (tmp_path / f"{res}.evt1").write_bytes(encode_evt1(EventStream.empty(res)))
    result = CliRunner().invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and message in result.output
