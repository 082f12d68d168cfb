"""Show control: transition table, gate table, gated message routing.

Three layers, each one table: `transition` reads the transition table to
decide what the show is doing; `control_signals` reads the gate table for
the set of runtime modules that state switches on; `route_messages`
delivers a message on one of the fixed `ROUTES` when both its ends are
in that set and drops it otherwise.  Routing never reads the show state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ShowState(Enum):
    IDLE = "Idle"
    CONVERSING = "Conversing"
    CALIBRATING = "Calibrating"
    SOLO = "Solo"
    DUET = "Duet"
    TEACHING = "Teaching"


class Intention(Enum):
    ASK_SOLO = "AskSolo"
    ASK_DUET = "AskDuet"
    ASK_TEACHING = "AskTeaching"
    START_CONVERSATION = "StartConversation"
    REQUEST_CALIBRATION = "RequestCalibration"
    DONE = "Done"
    NONE = "None"


class Module(Enum):
    TRACKER = "tracker"
    THEREMIN_SYNTH = "theremin_synth"
    GUI_DUET = "gui_duet"
    CONVERSATION = "conversation"


@dataclass(frozen=True)
class ControllerState:
    """Show state plus the state a calibration detour will return to."""

    show: ShowState = ShowState.IDLE
    resume: ShowState = ShowState.IDLE


_TABLE: dict[tuple[ShowState, Intention], ShowState] = {
    (ShowState.IDLE, Intention.START_CONVERSATION): ShowState.CONVERSING,
    (ShowState.CONVERSING, Intention.ASK_SOLO): ShowState.SOLO,
    (ShowState.CONVERSING, Intention.ASK_DUET): ShowState.DUET,
    (ShowState.CONVERSING, Intention.ASK_TEACHING): ShowState.TEACHING,
    (ShowState.SOLO, Intention.DONE): ShowState.CONVERSING,
    (ShowState.DUET, Intention.DONE): ShowState.CONVERSING,
    (ShowState.TEACHING, Intention.DONE): ShowState.CONVERSING,
}


def transition(state: ControllerState, intent: Intention) -> ControllerState:
    """Total and deterministic: unlisted pairs leave the state unchanged.

    Calibration can interrupt any state and Done returns to whoever
    asked; a calibration request while already calibrating is a no-op.
    """
    if intent is Intention.REQUEST_CALIBRATION:
        if state.show is ShowState.CALIBRATING:
            return state
        return ControllerState(ShowState.CALIBRATING, resume=state.show)
    if state.show is ShowState.CALIBRATING:
        if intent is Intention.DONE:
            return ControllerState(state.resume, resume=ShowState.IDLE)
        return state
    nxt = _TABLE.get((state.show, intent))
    if nxt is None:
        return state
    return ControllerState(nxt, resume=state.resume)


_ON: dict[ShowState, frozenset[Module]] = {
    ShowState.IDLE: frozenset(),
    ShowState.CONVERSING: frozenset({Module.CONVERSATION}),
    ShowState.CALIBRATING: frozenset({Module.TRACKER, Module.THEREMIN_SYNTH}),
    ShowState.SOLO: frozenset({Module.THEREMIN_SYNTH}),
    ShowState.DUET: frozenset({Module.TRACKER, Module.THEREMIN_SYNTH, Module.GUI_DUET}),
    ShowState.TEACHING: frozenset({Module.TRACKER, Module.GUI_DUET}),
}


def control_signals(state: ShowState) -> frozenset[Module]:
    """The modules a show state switches on; every other module is off."""
    return _ON[state]


@dataclass(frozen=True)
class Route:
    source: Module
    destination: Module


ROUTES = (
    Route(Module.TRACKER, Module.THEREMIN_SYNTH),
    Route(Module.TRACKER, Module.GUI_DUET),
    Route(Module.CONVERSATION, Module.THEREMIN_SYNTH),
)


def route_messages(
    on: frozenset[Module], inbox: list[tuple[Route, object]]
) -> tuple[list[tuple[Route, object]], int]:
    """Deliver each (route, message) whose two ends are both on; returns
    (delivered, dropped_count).  A route outside ROUTES is an error, not
    a drop."""
    delivered, dropped = [], 0
    for route, message in inbox:
        if route not in ROUTES:
            raise KeyError(f"route {route.source.value}->{route.destination.value} not in ROUTES")
        if route.source in on and route.destination in on:
            delivered.append((route, message))
        else:
            dropped += 1
    return delivered, dropped


@dataclass(frozen=True)
class ScenarioEvent:
    t_ms: float
    intent: Intention


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Lines of `AT <t_ms> INTENT <name>`; # comments; times non-decreasing,
    finite, >= 0 and below 2**53 µs, where whole µs stop being exact floats."""
    events = []
    last = float("-inf")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "AT" or parts[2] != "INTENT":
            raise ValueError(f"line {lineno}: want 'AT <t_ms> INTENT <name>'")
        try:
            t_ms = float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad time {parts[1]!r}") from exc
        if not math.isfinite(t_ms):
            raise ValueError(f"line {lineno}: time must be finite, got {parts[1]}")
        if t_ms < 0:
            raise ValueError(f"line {lineno}: time must be >= 0, got {parts[1]}")
        t_ms += 0.0  # -0 becomes +0, so AT -0 and AT 0 report the same bytes
        if t_ms * 1000 >= 2**53:
            raise ValueError(f"line {lineno}: time must be below 2**53 us, got {parts[1]} ms")
        try:
            intent = Intention(parts[3])
        except ValueError as exc:
            valid = ", ".join(i.value for i in Intention)
            raise ValueError(f"line {lineno}: unknown intent {parts[3]!r} (one of {valid})") from exc
        if t_ms < last:
            raise ValueError(f"line {lineno}: times must be non-decreasing")
        last = t_ms
        events.append(ScenarioEvent(t_ms, intent))
    return events
