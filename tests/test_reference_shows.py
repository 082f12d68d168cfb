"""The reference shows' report and wire bytes, pinned.

A refactor must leave `RunReport.to_kv_lines(include_wall=False)` and
every SAFE payload a show sends byte-identical.  For each reference
show, `tests/golden/` holds the kv lines (`<show>.kv`) and one sha256 per
`safe_encode` payload in call order (`<show>.safe`).  The configs are
the ones the benchmark writes (`bench/workloads.py`).

A deliberate behaviour change regenerates the files with

    PYTHONPATH=src python tests/test_reference_shows.py

and declares the diff.
"""

import hashlib
import importlib.util
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from evtheremin import events, harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"

# name: (bench/workloads.py show, seed, detector override)
SHOWS = {
    "demo_duet-7": ("demo_duet", 7, None),
    "duet_teach_lossy-1": ("duet_teach_lossy", 1, None),
    "duet_teach_lossy-7": ("duet_teach_lossy", 7, None),
    "demo_duet-7-sd_net": ("demo_duet", 7, "sd_net"),
}


@cache
def load_workloads():
    """bench/workloads.py, loaded by path; it imports its sibling
    `checks` by name, so the bench directory is on the path meanwhile."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def reference_config(name: str, workdir) -> harness.SimConfig:
    show, seed, detector = SHOWS[name]
    spec = getattr(load_workloads(), show)(SimpleNamespace(harness=harness), seed, str(workdir))
    cfg = harness.load_config(spec.config_path)
    if detector is not None:
        cfg = replace(cfg, tracker=replace(cfg.tracker, detector=detector))
    return cfg


def run_reference_show(name: str, workdir) -> tuple[list[str], list[str]]:
    """(kv lines without wall keys, sha256 per SAFE payload) of one show."""
    return run_config(reference_config(name, workdir))


def run_config(cfg: harness.SimConfig) -> tuple[list[str], list[str]]:
    """(kv lines without wall keys, sha256 per SAFE payload) of a show."""
    digests = []
    encode = harness.safe_encode

    def hashing_encode(*args, **kwargs):
        payload = encode(*args, **kwargs)
        digests.append(hashlib.sha256(payload).hexdigest())
        return payload

    harness.safe_encode = hashing_encode
    try:
        report = harness.run_show(cfg)
    finally:
        harness.safe_encode = encode
    return report.to_kv_lines(include_wall=False), digests


def golden_lines(name: str, suffix: str) -> list[str]:
    return (GOLDEN / f"{name}.{suffix}").read_text().splitlines()


@pytest.mark.parametrize("name", list(SHOWS))
def test_report_and_wire_bytes_unchanged(name, tmp_path):
    kv, digests = run_reference_show(name, tmp_path)
    assert kv == golden_lines(name, "kv")
    want = golden_lines(name, "safe")
    first = next((i for i, (a, b) in enumerate(zip(digests, want)) if a != b), None)
    assert first is None, f"SAFE payload {first} differs"
    assert len(digests) == len(want)


# A show renders its score once, however many segments replay it, and the
# render ends with the show: 160 ms of duet, 80 of teaching and 100 of
# resumed teaching need the score's five 32-step batches; the demo's one
# 3.2 s duet needs 100.
@pytest.mark.parametrize("name, batches", [("duet_teach_lossy-1", 5), ("demo_duet-7", 100)])
def test_each_show_draws_its_score_once(name, batches, tmp_path):
    cfg = reference_config(name, tmp_path)
    with mock.patch.object(events, "_changed_pixels", wraps=events._changed_pixels) as draws:
        for run in (1, 2):
            harness.run_show(cfg)
            assert draws.call_count == run * batches


def test_sd_net_report_counts_every_spike(tmp_path):
    # The decoder's accumulator is the encoder's last-sent state, which
    # tests/test_sigma_delta.py checks window by window.
    cfg = reference_config("duet_teach_lossy-1", tmp_path)
    assert cfg.tracker.detector == "sd_net"
    trackers, make = [], harness.HandTracker

    def tracker(*args):
        trackers.append(make(*args))
        return trackers[-1]

    with mock.patch.object(harness, "HandTracker", side_effect=tracker):
        report = harness.run_show(cfg)
    (detector,) = (t.detector for t in trackers)
    assert report.counts["detector_spikes"] == detector.total_spikes > 0


def test_show_seed_moves_only_its_echo(tmp_path):
    # Synthesis draws nothing at random and the link draws from the
    # channel's seed, so under one channel seed two show seeds send the
    # same payloads and report the same, but for the seed itself.
    cfg = reference_config("duet_teach_lossy-1", tmp_path)
    (kv, digests), (other_kv, other_digests) = (run_config(replace(cfg, seed=seed)) for seed in (1, 7))
    assert cfg.channel.seed == 1 and len(digests) > 0
    assert other_digests == digests
    assert [line for line in other_kv if not line.startswith("seed=")] == [
        line for line in kv if not line.startswith("seed=")]
    assert "seed=1" in kv and "seed=7" in other_kv


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in SHOWS:
        with tempfile.TemporaryDirectory() as d:
            kv, digests = run_reference_show(name, d)
        (GOLDEN / f"{name}.kv").write_text("\n".join(kv) + "\n")
        (GOLDEN / f"{name}.safe").write_text("\n".join(digests) + "\n")
        print(f"{name}: {len(kv)} kv lines, {len(digests)} payloads")
