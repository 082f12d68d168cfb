"""Span tracing for the benchmark's traced run.

The tracer replaces public functions of the program with wrappers in the
style of ``functools.wraps`` and puts the originals back afterwards.
Each call records one span (name, start, end, parent) in memory; counts
taken at the same boundaries go next to the spans.  Nothing under
``src/`` is changed: the wrappers are installed on the module or class
attribute that the caller looks up at call time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder.  Spans are lists [name, start, end, parent]
    where parent is the index of the enclosing span or None."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, on_call=None):
        """Wrap fn so each call records a span; on_call(tracer, args,
        result) may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Install wrappers for (owner, attribute, span name, on_call)
        targets; restore the originals on exit, also on error."""
        saved = []
        try:
            for owner, attr, name, on_call in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_call))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}))
                f.write("\n")


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Inclusive time, self time and call count per span name.  Self
    time is a span's duration minus the durations of its direct
    children."""
    inclusive: dict[str, float] = {}
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent in spans:
        d = end - start
        inclusive[name] = inclusive.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + d
    self_time: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(i, 0.0)
    return inclusive, self_time, calls


def synth_target(ev):
    """World synthesis, timed where run_show looks it up."""

    def synthesized(tr, args, stream):
        tr.count("events.synthesized", len(stream))

    return (ev.harness, "synth_hand_events", "events.synth_hand_events", synthesized)


def show_targets(ev):
    """Wrap points for a traced show: every public call run_show makes
    into another module, looked up where run_show finds it."""
    harness, tracker, events, transport = ev.harness, ev.tracker, ev.events, ev.transport

    def windowed(tr, args, frame):
        # frame_accumulate(window, t0, t1, res): the window is what the
        # harness cut out of the synthesized stream for this step.
        tr.count("events.windowed", len(args[0]))

    return [
        synth_target(ev),
        (events.Trajectory, "position_at", "events.position_at", None),
        (tracker.HandTracker, "step", "tracker.step", None),
        (tracker, "frame_accumulate", "events.frame_accumulate", windowed),
        (tracker, "frame_downsample", "events.frame_downsample", None),
        (tracker, "detect_heatmap", "tracker.detect_heatmap", None),
        (tracker, "field_step", "neural_field.field_step", None),
        (tracker, "detect_peaks", "neural_field.detect_peaks", None),
        (harness, "safe_encode", "transport.safe_encode", None),
        (harness, "channel_transmit", "transport.channel_transmit", None),
        (transport.SafeReceiver, "receive_payload", "transport.receive_payload", None),
        (harness, "route_messages", "orchestrator.route_messages", None),
        (harness, "hands_to_control", "theremin.hands_to_control", None),
    ]


def link_targets(ev):
    """Wrap points for link sessions, which call the transport module."""
    transport = ev.transport
    return [
        (transport, "safe_encode", "transport.safe_encode", None),
        (transport, "channel_transmit", "transport.channel_transmit", None),
        (transport.SafeReceiver, "receive_payload", "transport.receive_payload", None),
    ]
