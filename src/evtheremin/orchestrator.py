"""Show control: state machine, per-module gates, and gated message routing.

Three separate concerns, kept in three layers: `transition` decides what
the show is doing, `control_signals` turns that into on/off gates for
the four runtime modules, and `route_messages` delivers or drops
messages purely from those gates.  Routing never looks at the show
state directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


_GATES: dict[ShowState, dict[Module, bool]] = {
    ShowState.IDLE: {
        Module.TRACKER: False,
        Module.THEREMIN_SYNTH: False,
        Module.GUI_DUET: False,
        Module.CONVERSATION: False,
    },
    ShowState.CONVERSING: {
        Module.TRACKER: False,
        Module.THEREMIN_SYNTH: False,
        Module.GUI_DUET: False,
        Module.CONVERSATION: True,
    },
    ShowState.CALIBRATING: {
        Module.TRACKER: True,
        Module.THEREMIN_SYNTH: True,
        Module.GUI_DUET: False,
        Module.CONVERSATION: False,
    },
    ShowState.SOLO: {
        Module.TRACKER: False,
        Module.THEREMIN_SYNTH: True,
        Module.GUI_DUET: False,
        Module.CONVERSATION: False,
    },
    ShowState.DUET: {
        Module.TRACKER: True,
        Module.THEREMIN_SYNTH: True,
        Module.GUI_DUET: True,
        Module.CONVERSATION: False,
    },
    ShowState.TEACHING: {
        Module.TRACKER: True,
        Module.THEREMIN_SYNTH: False,
        Module.GUI_DUET: True,
        Module.CONVERSATION: False,
    },
}


@dataclass(frozen=True)
class ControlSignals:
    gates: tuple[tuple[Module, bool], ...]

    def __post_init__(self):
        names = [m for m, _ in self.gates]
        if sorted(names, key=lambda m: m.value) != sorted(Module, key=lambda m: m.value) or len(
            names
        ) != len(Module):
            raise ValueError("gates must cover every module exactly once")

    def is_on(self, module: Module) -> bool:
        for m, on in self.gates:
            if m is module:
                return on
        raise KeyError(module)

    def as_dict(self) -> dict[str, bool]:
        return {m.value: on for m, on in self.gates}


def control_signals(state: ShowState) -> ControlSignals:
    """Gate table for a show state; total over every module."""
    table = _GATES[state]
    return ControlSignals(tuple((m, table[m]) for m in Module))


@dataclass(frozen=True)
class Route:
    source: Module
    destination: Module


@dataclass
class RoutingTable:
    routes: list[Route] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.routes)) != len(self.routes):
            raise ValueError("duplicate routes")

    def enabled(self, signals: ControlSignals) -> dict[Route, bool]:
        """Derived purely from gates: a route is live when both ends are on."""
        return {
            r: signals.is_on(r.source) and signals.is_on(r.destination)
            for r in self.routes
        }


def default_routes() -> RoutingTable:
    return RoutingTable(
        [
            Route(Module.TRACKER, Module.THEREMIN_SYNTH),
            Route(Module.TRACKER, Module.GUI_DUET),
            Route(Module.CONVERSATION, Module.THEREMIN_SYNTH),
        ]
    )


def route_messages(
    signals: ControlSignals, table: RoutingTable, inbox: list[tuple[Route, object]]
) -> tuple[list[tuple[Route, object]], int]:
    """Deliver each (route, message) whose route is live; returns
    (delivered, dropped_count).  Unknown routes are an error, not a drop."""
    live = table.enabled(signals)
    delivered, dropped = [], 0
    for route, message in inbox:
        if route not in live:
            raise KeyError(f"route {route.source.value}->{route.destination.value} not in table")
        if live[route]:
            delivered.append((route, message))
        else:
            dropped += 1
    return delivered, dropped


class Orchestrator:
    """Thin stateful wrapper used by the harness."""

    def __init__(self):
        self.state = ControllerState()

    @property
    def show(self) -> ShowState:
        return self.state.show

    def signals(self) -> ControlSignals:
        return control_signals(self.state.show)

    def apply(self, intent: Intention) -> ControllerState:
        self.state = transition(self.state, intent)
        return self.state


@dataclass(frozen=True)
class ScenarioEvent:
    t_ms: float
    intent: Intention


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Lines of `AT <t_ms> INTENT <name>`; # comments; times non-decreasing."""
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
