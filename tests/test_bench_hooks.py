"""The names the benchmark wraps and calls must exist on the program.

`bench/tracing.py` installs span wrappers on module and class attributes
looked up by name; a renamed or deleted attribute would only fail once
the traced benchmark runs.  This pins every such name in the unit suite.
"""

import importlib.util
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

import evtheremin
from evtheremin import events, harness, tracker, transport
from evtheremin.sigma_delta import GradedSpike

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The namespace bench/run.py hands to the workloads and the tracer.
EV = SimpleNamespace(
    harness=harness, tracker=tracker, events=events, transport=transport, GradedSpike=GradedSpike
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(owner, attr):
    # Class attributes are read through __dict__, as Tracer.installed does,
    # so an inherited name does not count.
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


@pytest.mark.parametrize("kind", ["show_targets", "link_targets"])
def test_traced_targets_resolve(kind):
    targets = getattr(load_tracing(), kind)(EV)
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(lookup(owner, attr)), f"{span}: {owner!r} has no {attr}"


def test_benchmark_entry_points_resolve():
    assert isinstance(harness.POS_SCALE, float)
    for owner, attr in [
        (evtheremin, "load_config"),  # bench/run.py's set-up child
        (harness, "write_demo_files"),
        (harness, "load_config"),
        (harness, "run_show"),
        (transport, "LinkStats"),
        (transport.SafeReceiver, "close"),
    ]:
        assert callable(lookup(owner, attr)), f"{owner!r} has no {attr}"


def test_benchmark_config_reads_resolve():
    # bench/run.py reads a loaded show config's tempo and tracker window;
    # bench/checks.py:replay_channel reads a channel's seed and impairments.
    # Each must stay a config field, not become a constant.
    assert {"tempo", "tracker"} <= {f.name for f in fields(harness.SimConfig)}
    assert "window_us" in {f.name for f in fields(tracker.TrackerConfig)}
    assert {"seed", "loss_p", "bitflip_p", "delay_jitter_us"} <= {f.name for f in fields(transport.ChannelConfig)}
