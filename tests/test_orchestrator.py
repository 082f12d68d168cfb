"""Show state machine, module gates, and gated routing."""

import math

import pytest

from evtheremin.orchestrator import (
    ROUTES,
    ControllerState,
    Intention,
    Module,
    Route,
    ScenarioEvent,
    ShowState,
    control_signals,
    parse_scenario,
    route_messages,
    transition,
)

S = ShowState
I = Intention


def expected_transition(state: ControllerState, intent: Intention) -> ControllerState:
    """The transition rules restated flat, as this test's oracle."""
    if intent is I.REQUEST_CALIBRATION:
        if state.show is S.CALIBRATING:
            return state
        return ControllerState(S.CALIBRATING, resume=state.show)
    if state.show is S.CALIBRATING:
        if intent is I.DONE:
            return ControllerState(state.resume, resume=S.IDLE)
        return state
    moves = {
        (S.IDLE, I.START_CONVERSATION): S.CONVERSING,
        (S.CONVERSING, I.ASK_SOLO): S.SOLO,
        (S.CONVERSING, I.ASK_DUET): S.DUET,
        (S.CONVERSING, I.ASK_TEACHING): S.TEACHING,
        (S.SOLO, I.DONE): S.CONVERSING,
        (S.DUET, I.DONE): S.CONVERSING,
        (S.TEACHING, I.DONE): S.CONVERSING,
    }
    nxt = moves.get((state.show, intent))
    if nxt is None:
        return state
    return ControllerState(nxt, resume=state.resume)


class TestTransition:
    def test_exhaustive_against_oracle(self):
        for show in ShowState:
            for resume in (S.IDLE, S.DUET):
                state = ControllerState(show, resume)
                for intent in Intention:
                    assert transition(state, intent) == expected_transition(
                        state, intent
                    ), f"{show} + {intent}"

    def test_total_and_pure(self):
        state = ControllerState(S.CONVERSING)
        for intent in Intention:
            a = transition(state, intent)
            b = transition(state, intent)
            assert a == b
        assert state == ControllerState(S.CONVERSING)

    def test_calibration_detour_resumes(self):
        state = ControllerState(S.DUET)
        state = transition(state, I.REQUEST_CALIBRATION)
        assert state == ControllerState(S.CALIBRATING, resume=S.DUET)
        state = transition(state, I.ASK_SOLO)  # ignored while calibrating
        assert state.show is S.CALIBRATING
        state = transition(state, I.DONE)
        assert state == ControllerState(S.DUET, resume=S.IDLE)

    def test_calibration_while_calibrating_is_noop(self):
        state = ControllerState(S.CALIBRATING, resume=S.SOLO)
        assert transition(state, I.REQUEST_CALIBRATION) == state

    def test_every_state_reachable_from_idle(self):
        seen = {ControllerState()}
        frontier = [ControllerState()]
        while frontier:
            state = frontier.pop()
            for intent in Intention:
                nxt = transition(state, intent)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert {c.show for c in seen} == set(ShowState)

    def test_activities_return_to_conversing(self):
        for activity, ask in [
            (S.SOLO, I.ASK_SOLO),
            (S.DUET, I.ASK_DUET),
            (S.TEACHING, I.ASK_TEACHING),
        ]:
            state = transition(ControllerState(S.CONVERSING), ask)
            assert state.show is activity
            assert transition(state, I.DONE).show is S.CONVERSING


EXPECTED_GATES = {
    S.IDLE: {"tracker": False, "theremin_synth": False, "gui_duet": False, "conversation": False},
    S.CONVERSING: {"tracker": False, "theremin_synth": False, "gui_duet": False, "conversation": True},
    S.CALIBRATING: {"tracker": True, "theremin_synth": True, "gui_duet": False, "conversation": False},
    S.SOLO: {"tracker": False, "theremin_synth": True, "gui_duet": False, "conversation": False},
    S.DUET: {"tracker": True, "theremin_synth": True, "gui_duet": True, "conversation": False},
    S.TEACHING: {"tracker": True, "theremin_synth": False, "gui_duet": True, "conversation": False},
}


class TestGates:
    def test_exact_table(self):
        for show, expected in EXPECTED_GATES.items():
            assert {m.value: m in control_signals(show) for m in Module} == expected

    def test_is_on(self):
        signals = control_signals(S.DUET)
        assert Module.TRACKER in signals
        assert Module.CONVERSATION not in signals


class TestRouting:
    def test_liveness_is_conjunction_of_endpoint_gates(self):
        for show in ShowState:
            on = control_signals(show)
            for route in ROUTES:
                inbox = [(route, "a"), (route, "b")]
                live = route.source in on and route.destination in on
                want = (inbox, 0) if live else ([], 2)
                assert route_messages(on, inbox) == want, f"{show} {route}"

    def test_duet_delivery_and_drop_counts(self):
        inbox = [
            (Route(Module.TRACKER, Module.THEREMIN_SYNTH), "a"),
            (Route(Module.CONVERSATION, Module.THEREMIN_SYNTH), "b"),
            (Route(Module.TRACKER, Module.GUI_DUET), "c"),
        ]
        delivered, dropped = route_messages(control_signals(S.DUET), inbox)
        assert delivered == [inbox[0], inbox[2]]
        assert dropped == 1

    def test_solo_drops_tracker_traffic(self):
        inbox = [(Route(Module.TRACKER, Module.THEREMIN_SYNTH), k) for k in range(5)]
        delivered, dropped = route_messages(control_signals(S.SOLO), inbox)
        assert delivered == [] and dropped == 5

    def test_unknown_route_is_an_error(self):
        rogue = Route(Module.GUI_DUET, Module.CONVERSATION)
        with pytest.raises(KeyError):
            route_messages(control_signals(S.DUET), [(rogue, "x")])

    def test_empty_inbox(self):
        assert route_messages(control_signals(S.IDLE), []) == ([], 0)


SCENARIO = (
    "AT 0 INTENT StartConversation\n"
    "AT 200 INTENT AskDuet\n"
    "AT 3600 INTENT Done\n"
    "AT 3800 INTENT AskSolo\n"
    "AT 7200 INTENT Done\n"
)


class TestOrchestrator:
    def run_trace(self):
        state = ControllerState()
        trace = []
        for event in parse_scenario(SCENARIO):
            state = transition(state, event.intent)
            trace.append((state.show, control_signals(state.show)))
        return trace

    def test_scenario_walk(self):
        shows = [show for show, _ in self.run_trace()]
        assert shows == [S.CONVERSING, S.DUET, S.CONVERSING, S.SOLO, S.CONVERSING]

    def test_hundred_replays_identical(self):
        first = self.run_trace()
        for _ in range(99):
            assert self.run_trace() == first


class TestScenarioIo:
    def test_parse(self):
        events = parse_scenario("# warmup\nAT 0 INTENT StartConversation\nAT 10.5 INTENT Done\n")
        assert events == [
            ScenarioEvent(0.0, I.START_CONVERSATION),
            ScenarioEvent(10.5, I.DONE),
        ]

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("AT 0 StartConversation\n")

    def test_unknown_intent_lists_choices(self):
        with pytest.raises(ValueError, match="AskDuet"):
            parse_scenario("AT 0 INTENT Dance\n")

    def test_times_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            parse_scenario("AT 100 INTENT Done\nAT 50 INTENT Done\n")

    def test_bad_time(self):
        with pytest.raises(ValueError, match="bad time"):
            parse_scenario("AT soon INTENT Done\n")

    @pytest.mark.parametrize("time", ["inf", "-inf", "nan", "Infinity"])
    def test_time_must_be_finite(self, time):
        with pytest.raises(ValueError, match=rf"^line 2: time must be finite, got {time}$"):
            parse_scenario(f"AT 0 INTENT StartConversation\nAT {time} INTENT Done\n")

    # A negative time is refused by its line: the show's clock starts at 0.
    @pytest.mark.parametrize("time", ["-50", "-0.001", "-1e13"])
    def test_time_must_not_be_negative(self, time):
        with pytest.raises(ValueError, match=rf"^line 2: time must be >= 0, got {time}$"):
            parse_scenario(f"AT 0 INTENT StartConversation\nAT {time} INTENT Done\n")

    def test_negative_first_time_names_line_1(self):
        with pytest.raises(ValueError, match=r"^line 1: time must be >= 0, got -50$"):
            parse_scenario("AT -50 INTENT AskDuet\nAT 50 INTENT Done\n")

    def test_zero_and_negative_zero_are_accepted(self):
        events = parse_scenario("AT -0 INTENT StartConversation\nAT 0 INTENT AskSolo\nAT 10 INTENT Done\n")
        assert [e.t_ms for e in events] == [0.0, 0.0, 10.0]
        assert [math.copysign(1.0, e.t_ms) for e in events] == [1.0, 1.0, 1.0]

    # Whole µs are exact floats below 2**53, so every shift of the score is.
    @pytest.mark.parametrize("time", ["9007199254740.992", "1e13", "2e13"])
    def test_time_must_be_below_2_53_us(self, time):
        with pytest.raises(ValueError, match=rf"^line 2: time must be below 2\*\*53 us, got {time} ms$"):
            parse_scenario(f"AT 0 INTENT StartConversation\nAT {time} INTENT Done\n")

    def test_time_just_below_2_53_us(self):
        events = parse_scenario("AT 9e12 INTENT AskDuet\nAT 9007199254740.991 INTENT Done\n")
        assert [e.t_ms for e in events] == [9e12, 9007199254740.991]
