"""Closed-loop show simulation on a virtual clock, plus protocol and
power benchmarks and deterministic run reports.

The simulator never sleeps: every timestamp is computed.  Pipeline
stages (sensor, tracker, link, orchestrator, theremin) are sequential
passes over ordered batches; stage latencies are fixed constants,
link latency comes from the channel simulator, and each batch's
end-to-end time is by construction the sum of its stage times.  Run in
a single thread the whole simulation is deterministic: identical config
and seed give byte-identical reports modulo wall-clock fields.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, is_dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import get_type_hints

import numpy as np

from .events import (
    Hand,
    Resolution,
    Trajectory,
    synth_hand_events,
)
from .orchestrator import (
    ControllerState,
    Module,
    Route,
    ScenarioEvent,
    ShowState,
    control_signals,
    parse_scenario,
    route_messages,
    transition,
)
from .sigma_delta import GradedSpike
from .theremin import (
    CALIBRATION,
    CAMERA_RES,
    CENTS_PER_PIXEL,
    Score,
    calibrate_pitch,
    cents_between,
    hands_to_control,
    note_at,
    note_freq,
    parse_score,
    pitch_distance_m,
    score_to_trajectory,
)
from .tracker import (
    CHIP_RES,
    HandEstimate,
    HandLabel,
    HandPoint,
    HandTracker,
    TrackerConfig,
)
from .transport import (
    ChannelConfig,
    DecodeError,
    LinkStats,
    SafeReceiver,
    _check_window,
    channel_transmit,
    raw_encode,
    raw_overhead_bytes_per_event,
    safe_decode,
    safe_encode,
    safe_overhead_bytes_per_event,
)

# Telemetry channel addresses for hand estimates on the SAFE link.
# Values are fixed-point: positions times POS_SCALE (halved for sensors
# too wide for i16 values, see _pos_scale), confidence times 1000.
CH_PITCH_X, CH_PITCH_Y, CH_PITCH_CONF = 0, 1, 2
CH_VOL_X, CH_VOL_Y, CH_VOL_CONF = 3, 4, 5
POS_SCALE = 64.0
CONF_SCALE = 1000.0


# Each stage's latency on the virtual clock (us); the link's comes from
# the channel simulator.
SENSOR_US = 220.0
TRACKER_US = 1000.0
ORCHESTRATOR_US = 200.0
THEREMIN_US = 100.0
LATENCY_MODEL_US = dict(sensor=SENSOR_US, tracker=TRACKER_US, orchestrator=ORCHESTRATOR_US, theremin=THEREMIN_US)


# Per-platform electrical constants; the energy report is linear in these.
EDGE_TRACKER_W = 0.004
GPU_ALT_W = (5.0, 10.0)
CLUSTER_KW = 6.5
BOARD_W = (48.0, 120.0)
BOARDS = 10

# The show's synthesis rate; its other synthesis values are
# synth_hand_events' defaults.
SYNTH_RATE_SCALE = 2.0


@dataclass
class SimConfig:
    seed: int
    # Config files name the two paths "scenario" and "score".
    scenario_path: str = field(default="", metadata={"key": "scenario"})
    score_path: str = field(default="", metadata={"key": "score"})
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    reorder_window: int = 8
    tempo: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        _check_window(self.reorder_window)
        if not 0 < self.tempo < math.inf:
            raise ValueError(f"tempo must be positive and finite, got {self.tempo!r}")
        res = self.tracker.input_res
        if res.width < CAMERA_RES.width or res.height < CAMERA_RES.height:
            raise ValueError(f"tracker.input_res must be at least the show's camera, {CAMERA_RES}, got {res}")


def power_ratio(cluster_kw: float, board_w: float, boards: int) -> float:
    """Cluster watts over total board watts."""
    for name, value in (("cluster_kw", cluster_kw), ("board_w", board_w), ("boards", boards)):
        if not math.isfinite(value):  # nan passes the sign test, and inf reads as a ratio
            raise ValueError(f"{name} must be finite, got {value!r}")
    if cluster_kw <= 0 or board_w <= 0 or boards <= 0:
        raise ValueError("power figures must be positive")
    return cluster_kw * 1000.0 / (board_w * boards)


def compute_rtf(simulated_s: float, wall_s: float) -> float:
    """Real-time factor; a wall time of zero is an error, not infinity."""
    if wall_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    if simulated_s < 0:
        raise ValueError("simulated time must be >= 0")
    return simulated_s / wall_s


@dataclass
class LatencyStat:
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, v: float) -> None:
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {"count": self.count, "mean": self.mean, "min": self.min, "max": self.max}


@dataclass
class RunReport:
    seed: int
    sim_duration_us: float
    state_ms: dict[str, float]
    # The fixed stage latencies; latency_us holds the measured link and end_to_end.
    latency_model_us: dict[str, float]
    latency_us: dict[str, dict]
    link: dict
    counts: dict[str, int]
    pitch_mean_cents: float
    pitch_max_cents: float
    pitch_nominal_mean_cents: float
    pitch_samples: int
    track_mean_px: float
    track_mean_x_px: float
    cents_per_pixel: float
    pitch_bound_cents: float
    calibration_drift_cents: float
    energy: dict[str, float]
    wall_s: float
    rtf: float
    sub_realtime: bool

    WALL_KEYS = ("wall_s", "rtf", "sub_realtime")

    def to_kv_lines(self, include_wall: bool = True) -> list[str]:
        """Flat key=value lines, sorted by key; floats via repr so equal
        reports serialize byte-identically."""
        flat: dict[str, object] = {}

        def put(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    put(f"{prefix}.{k}", v)
            else:
                flat[prefix] = value

        for f in dataclass_fields(self):
            if not include_wall and f.name in self.WALL_KEYS:
                continue
            put(f.name, getattr(self, f.name))
        lines = []
        for key in sorted(flat):
            v = flat[key]
            lines.append(f"{key}={v!r}" if isinstance(v, float) else f"{key}={v}")
        return lines

    def to_json(self) -> str:
        obj = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"report must be a JSON object, got {type(obj).__name__}")
        kwargs = {f.name: obj[f.name] for f in dataclass_fields(cls)}
        return cls(**kwargs)

    def to_text(self) -> str:
        lines = [
            f"show run (seed {self.seed})",
            f"  simulated {self.sim_duration_us / 1e6:.3f} s, wall {self.wall_s:.3f} s, "
            f"rtf {self.rtf:.2f}{' (sub-real-time)' if self.sub_realtime else ''}",
            "  state durations (ms): "
            + ", ".join(f"{k}={v:g}" for k, v in self.state_ms.items() if v),
            "  latency model per stage (us): "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(self.latency_model_us.items())),
            "  latency per tracked control point (us):",
        ]
        for name, st in sorted(self.latency_us.items()):
            if st["count"]:
                lines.append(
                    f"    {name:<12} mean {st['mean']:9.1f}  min {st['min']:9.1f}  max {st['max']:9.1f}"
                )
        lines.append("  link: " + ", ".join(f"{k}={v}" for k, v in self.link.items()))
        lines.append("  counts: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())))
        lines.append(
            f"  pitch error: mean {self.pitch_mean_cents:.3f} cents, max {self.pitch_max_cents:.3f} "
            f"cents over {self.pitch_samples} samples (bound {self.pitch_bound_cents:.3f}, "
            f"vs written notes {self.pitch_nominal_mean_cents:.3f})"
        )
        lines.append(
            f"  tracking error: mean {self.track_mean_px:.3f} px "
            f"(x only {self.track_mean_x_px:.3f} px, {self.cents_per_pixel:.3f} cents/px)"
        )
        lines.append(f"  calibration drift: {self.calibration_drift_cents:.6f} cents")
        lines.append("  energy: " + ", ".join(f"{k}={v:g}" for k, v in sorted(self.energy.items())))
        return "\n".join(lines)


# Each hand's x, y and confidence channels, in sending order.
_HAND_CHANNELS = {HandLabel.PITCH: (CH_PITCH_X, CH_PITCH_Y, CH_PITCH_CONF),
                  HandLabel.VOLUME: (CH_VOL_X, CH_VOL_Y, CH_VOL_CONF)}


def _pos_scale(res: Resolution) -> float:
    """POS_SCALE, halved until every coordinate on the sensor fits an i16 value."""
    scale = POS_SCALE
    while max(res.width, res.height) * scale > 0x7FFF:
        scale /= 2
    return scale


def _estimate_to_spikes(est: HandEstimate, scale: float = POS_SCALE) -> list[GradedSpike]:
    spikes: list[GradedSpike] = []
    for label, chans in _HAND_CHANNELS.items():
        p = est.hands.get(label)
        conf = 0 if p is None else int(round(p.confidence * CONF_SCALE))
        if conf == 0:
            continue  # no hand, or it faded out entirely; stop reporting it
        for ch, v in zip(chans, (p.x * scale, p.y * scale, conf)):
            spikes.append(GradedSpike(ch, int(round(v)) or 1))  # 0 cannot be sent: smallest step
    return spikes


def _spikes_to_estimate(t_us: int, group: list[tuple[int, int]], scale: float = POS_SCALE) -> HandEstimate:
    vals = dict(group)
    hands = {
        label: HandPoint(vals.get(x, 0) / scale, vals.get(y, 0) / scale, min(1.0, vals[c] / CONF_SCALE))
        for label, (x, y, c) in _HAND_CHANNELS.items()
        if c in vals
    }
    return HandEstimate(t_us, hands)


@dataclass
class _Segment:
    t0_ms: float
    t1_ms: float
    state: ShowState


def _scenario_segments(events: list[ScenarioEvent]) -> list[_Segment]:
    """Replay intents; returns the state active over each interval."""
    state = ControllerState()
    segments = []
    for i, ev in enumerate(events):
        state = transition(state, ev.intent)
        t1 = events[i + 1].t_ms if i + 1 < len(events) else ev.t_ms
        if t1 > ev.t_ms:
            segments.append(_Segment(ev.t_ms, t1, state.show))
    return segments


class _ShowRun:
    """Mutable accumulator state for one run_show call."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.pos_scale = _pos_scale(cfg.tracker.input_res)
        self.tracker = HandTracker(cfg.tracker)
        # The score's changed pixels, drawn once for all tracking segments.
        self.render: dict = {}
        self.link_stats = LinkStats()
        self.receiver = SafeReceiver(cfg.reorder_window, self.link_stats)
        self.lat = {"link": LatencyStat(), "end_to_end": LatencyStat()}
        # Windows and frames sent are one count, link_stats.sent,
        # which also numbers the next frame; records sent is
        # link_stats.events_sent.  run_show fills those keys in.
        self.counts = {
            "events_generated": 0,
            "control_points": 0,
            "gui_messages": 0,
            "routed_dropped": 0,
            "detector_spikes": 0,
        }
        self.state_ms = {s.value: 0.0 for s in ShowState}
        self.pitch_err = LatencyStat()
        self.pitch_nominal_err = LatencyStat()
        self.track_err = LatencyStat()
        self.track_err_x = LatencyStat()
        self.calibration_drift = 0.0


def run_show(
    cfg: SimConfig, scenario_text: str | None = None, score_text: str | None = None
) -> RunReport:
    """Simulate a full show.  Scenario and score may be passed inline or
    read from the paths in the config."""
    run = _ShowRun(cfg)
    wall_start = time.perf_counter()
    if scenario_text is None:
        with open(cfg.scenario_path) as f:
            scenario_text = f.read()
    if score_text is None:
        with open(cfg.score_path) as f:
            score_text = f.read()
    scenario = parse_scenario(scenario_text)
    score = parse_score(score_text)
    segments = _scenario_segments(scenario)
    # Every playing state needs a playable score.  The robot plays its solo
    # from the score with no camera, so only the duet and teaching segments
    # track the hand positions, but a solo still refuses a score it cannot
    # play.  A show that never plays may carry an empty score.
    traj = None
    if any(seg.state in (ShowState.DUET, ShowState.TEACHING, ShowState.SOLO) for seg in segments):
        traj = score_to_trajectory(score, tempo=cfg.tempo, resolution=cfg.tracker.input_res)

    # The show's clock starts at 0 ms, idle until the scenario's first line.
    if scenario:
        run.state_ms[ShowState.IDLE.value] += scenario[0].t_ms
    for seg_idx, seg in enumerate(segments):
        run.state_ms[seg.state.value] += seg.t1_ms - seg.t0_ms
        t0_us = int(round(seg.t0_ms * 1000))
        t1_us = int(round(seg.t1_ms * 1000))
        if seg.state in (ShowState.DUET, ShowState.TEACHING):
            _run_tracking_segment(run, score, traj, seg.state, t0_us, t1_us, seg_idx)
        elif seg.state is ShowState.CALIBRATING:
            run.calibration_drift = max(run.calibration_drift, _run_calibration(score))

    run.receiver.close(run.link_stats.sent)
    sim_us = scenario[-1].t_ms * 1000 if scenario else 0.0
    tracker_active_s = (
        run.state_ms[ShowState.DUET.value]
        + run.state_ms[ShowState.TEACHING.value]
        + run.state_ms[ShowState.CALIBRATING.value]
    ) / 1000.0
    energy = {
        "tracker_active_s": tracker_active_s,
        "edge_tracker_j": EDGE_TRACKER_W * tracker_active_s,
        "gpu_alt_j_min": GPU_ALT_W[0] * tracker_active_s,
        "gpu_alt_j_max": GPU_ALT_W[1] * tracker_active_s,
        "power_ratio_min": power_ratio(CLUSTER_KW, BOARD_W[1], BOARDS),
        "power_ratio_max": power_ratio(CLUSTER_KW, BOARD_W[0], BOARDS),
    }
    wall_s = max(time.perf_counter() - wall_start, 1e-9)
    rtf = compute_rtf(sim_us / 1e6, wall_s)
    frames, records = run.link_stats.sent, run.link_stats.events_sent
    bound = CENTS_PER_PIXEL * run.track_err_x.mean + 1.0 if run.track_err_x.count else 0.0
    return RunReport(
        seed=cfg.seed,
        sim_duration_us=sim_us,
        state_ms=dict(run.state_ms),
        latency_model_us=dict(LATENCY_MODEL_US),
        latency_us={name: st.as_dict() for name, st in run.lat.items()},
        link=run.link_stats.as_dict(),
        counts={**run.counts, "windows": frames, "frames_sent": frames, "records_sent": records},
        pitch_mean_cents=run.pitch_err.mean,
        pitch_max_cents=run.pitch_err.max if run.pitch_err.count else 0.0,
        pitch_nominal_mean_cents=run.pitch_nominal_err.mean,
        pitch_samples=run.pitch_err.count,
        track_mean_px=run.track_err.mean,
        track_mean_x_px=run.track_err_x.mean,
        cents_per_pixel=CENTS_PER_PIXEL,
        pitch_bound_cents=bound,
        calibration_drift_cents=run.calibration_drift,
        energy=energy,
        wall_s=wall_s,
        rtf=rtf,
        sub_realtime=rtf < 1.0,
    )


def _run_tracking_segment(
    run: _ShowRun,
    score: Score,
    score_traj: Trajectory,
    state: ShowState,
    t0_us: int,
    t1_us: int,
    seg_idx: int,
) -> None:
    """Score-driven hands seen by the sensor, tracked, shipped over the
    link, routed by the orchestrator, and (in a duet) played back."""
    cfg = run.cfg
    on = control_signals(state)
    traj = score_traj.shifted(t0_us)
    onsets = score.onsets_ms(cfg.tempo)
    span_end = min(t1_us, traj.span_us()[1])
    # The tracker's last window may end past span_end; synthesise up to it.
    window_us = cfg.tracker.window_us
    stream = synth_hand_events(
        traj,
        cfg.tracker.input_res,
        rate_scale=SYNTH_RATE_SCALE,
        until_us=t0_us + -(-(span_end - t0_us) // window_us) * window_us,
        render=run.render,
    )
    run.counts["events_generated"] += len(stream)
    payloads, send_times = [], []
    sent_at: dict[int, float] = {}
    for est in run.tracker.run(stream, t0_us, span_end):
        w_end = est.t_us
        t_sent = float(w_end) + SENSOR_US + TRACKER_US
        spikes = _estimate_to_spikes(est, run.pos_scale)
        payload = safe_encode(spikes, seq=run.link_stats.sent & 0xFFFFFFFF, timestamp_us=w_end)
        payloads.append(payload)
        send_times.append(t_sent)
        sent_at[w_end] = t_sent
        run.link_stats.sent += 1
        run.link_stats.bytes_sent += len(payload)
        run.link_stats.events_sent += len(spikes)
    # Spikes are counted with a threshold only: at theta 0 every change is one.
    if run.tracker.detector.theta > 0:
        run.counts["detector_spikes"] = run.tracker.detector.total_spikes
    # Fresh sub-seed per segment so repeat visits to a state do not reuse
    # the identical impairment sequence.
    chan = replace(cfg.channel, seed=cfg.channel.seed + seg_idx)
    route_synth = Route(Module.TRACKER, Module.THEREMIN_SYNTH)
    route_gui = Route(Module.TRACKER, Module.GUI_DUET)
    for dv in channel_transmit(payloads, chan, send_times):
        released = run.receiver.receive_payload(dv.payload)
        # Frames are released whole and in order, and each carries its
        # window's end time, so one run of equal times is one estimate.
        for t_abs, group in groupby(released, key=itemgetter(0)):
            est = _spikes_to_estimate(int(t_abs), [(addr, value) for _, addr, value in group], run.pos_scale)
            delivered, dropped = route_messages(on, [(route_synth, est), (route_gui, est)])
            run.counts["routed_dropped"] += dropped
            for route, message in delivered:
                if route == route_gui:
                    run.counts["gui_messages"] += 1
                    continue
                if HandLabel.PITCH not in message.hands:
                    continue
                point = hands_to_control(message)
                run.counts["control_points"] += 1
                t_capture = float(t_abs)
                t_sent = sent_at.get(int(t_abs))
                if t_sent is None:
                    continue
                t_control = dv.time_us + ORCHESTRATOR_US + THEREMIN_US
                run.lat["link"].add(dv.time_us - t_sent)
                run.lat["end_to_end"].add(t_control - t_capture)
                note, ramp = note_at(onsets, (t_capture - t0_us) / 1000.0)
                if ramp:
                    continue
                tx, ty = traj.position_at(Hand.LEFT, t_capture)
                # Bound-facing error is against the pitch the hand really
                # played at capture time (vibrato included); the drift
                # from the written note is reported separately.
                f_played = CALIBRATION.freq_at(pitch_distance_m(tx))
                f_nominal = note_freq(score.notes[note].midi)
                run.pitch_err.add(abs(cents_between(point.freq_hz, f_played)))
                run.pitch_nominal_err.add(abs(cents_between(point.freq_hz, f_nominal)))
                p = message.hands[HandLabel.PITCH]
                run.track_err.add(float(np.hypot(p.x - tx, p.y - ty)))
                run.track_err_x.add(abs(p.x - tx))


def _run_calibration(score: Score) -> float:
    """Sweep the true pitch law and refit; returns the worst drift in cents."""
    midis = sorted({n.midi for n in score.notes}) or [60, 72]
    dists = [CALIBRATION.distance_for(note_freq(m)) for m in midis]
    sweep = np.linspace(min(dists), max(dists), max(5, len(dists)))
    samples = [(float(d), CALIBRATION.freq_at(float(d))) for d in sweep]
    fitted = calibrate_pitch(samples)
    return float(
        max(abs(cents_between(fitted.freq_at(float(d)), CALIBRATION.freq_at(float(d)))) for d in sweep)
    )


@dataclass
class BenchRow:
    profile: str
    batch: int
    bytes_per_event: float


@dataclass
class BenchResult:
    rows: list[BenchRow]
    safe_stats: LinkStats | None
    raw_sent: int
    raw_delivered: int

    def to_text(self) -> str:
        lines = ["profile  batch  bytes/event"]
        for r in self.rows:
            lines.append(f"{r.profile:<8} {r.batch:>5}  {r.bytes_per_event:.4f}")
        if self.safe_stats is not None:
            lines.append(
                "safe link: "
                + ", ".join(f"{k}={v}" for k, v in self.safe_stats.as_dict().items())
            )
            lines.append(
                f"raw link: sent={self.raw_sent} delivered={self.raw_delivered} "
                "(losses invisible to the receiver)"
            )
        return "\n".join(lines)


BENCH_BATCHES = (1, 10, 100, 1000)


def protocol_bench(
    n_events: int = 10_000,
    channel: ChannelConfig | None = None,
    seed: int = 0,
) -> BenchResult:
    """Measure bytes/event for both wire profiles at each of BENCH_BATCHES'
    frame sizes, and optionally push the traffic through the channel
    simulator with receiver accounting."""
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, CHIP_RES.npixels, n_events)
    values = rng.choice(np.array([-3, -2, -1, 1, 2, 3]), n_events)
    spikes = [GradedSpike(int(a), int(v)) for a, v in zip(addresses, values)]
    rows = []
    for batch in BENCH_BATCHES:
        if batch > n_events:
            raise ValueError(f"need at least {batch} events for batch size {batch}")
        group = spikes[:batch]
        raw_bpe = len(raw_encode(group)) / batch
        safe_bpe = len(safe_encode(group, seq=0, timestamp_us=0)) / batch
        rows.append(BenchRow("raw", batch, raw_bpe))
        rows.append(BenchRow("safe", batch, safe_bpe))
        assert abs(safe_bpe - safe_overhead_bytes_per_event(batch)) < 1e-9
        assert raw_bpe == raw_overhead_bytes_per_event()
    safe_stats = None
    raw_sent = raw_delivered = 0
    if channel is not None:
        batch = 100
        stats = LinkStats()
        payloads = []
        for i in range(0, n_events - batch + 1, batch):
            frame = safe_encode(spikes[i : i + batch], seq=i // batch, timestamp_us=i)
            payloads.append(frame)
            stats.sent += 1
            stats.bytes_sent += len(frame)
            stats.events_sent += batch
        deliveries = channel_transmit(payloads, channel, [float(i) for i in range(len(payloads))])
        rx = SafeReceiver(reorder_window=max(8, channel.reorder_window), stats=stats)
        for dv in deliveries:
            rx.receive_payload(dv.payload)
        rx.close(len(payloads))
        safe_stats = stats
        # RAW has no framing, so run it once per spike on an in-order link;
        # whatever vanishes is silent data loss.
        raw_payloads = [raw_encode([s]) for s in spikes[:1000]]
        raw_cfg = replace(channel, reorder_window=0)
        raw_out = channel_transmit(
            raw_payloads, raw_cfg, [float(i) for i in range(len(raw_payloads))], raw=True
        )
        raw_sent, raw_delivered = len(raw_payloads), len(raw_out)
    return BenchResult(rows, safe_stats, raw_sent, raw_delivered)


@dataclass
class FuzzResult:
    total_bits: int
    detected: int
    undetected: list[int]
    kinds: dict[str, int]

    def to_text(self) -> str:
        pct = 100.0 * self.detected / self.total_bits if self.total_bits else 0.0
        lines = [f"single-bit fuzz: {self.detected}/{self.total_bits} detected ({pct:.2f}%)"]
        for kind in sorted(self.kinds):
            lines.append(f"  {kind}: {self.kinds[kind]}")
        if self.undetected:
            lines.append(f"  UNDETECTED at bit offsets: {self.undetected[:20]}")
        return "\n".join(lines)


def single_bit_fuzz(n_records: int = 100, seed: int = 0) -> FuzzResult:
    """Flip every bit of a valid frame, one at a time; every flip must be
    rejected with a diagnosed decode error."""
    rng = np.random.default_rng(seed)
    spikes = [
        GradedSpike(int(a), int(v))
        for a, v in zip(
            rng.integers(0, 1 << 16, n_records),
            rng.choice(np.array([-5, -1, 1, 2, 7]), n_records),
        )
    ]
    payload = safe_encode(
        spikes, seq=42, timestamp_us=123456, offsets_us=list(range(n_records))
    )
    safe_decode(payload)  # must be valid before fuzzing
    total = len(payload) * 8
    detected = 0
    undetected = []
    kinds: dict[str, int] = {}
    for bit in range(total):
        mutated = bytearray(payload)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            safe_decode(bytes(mutated))
        except DecodeError as exc:
            detected += 1
            kinds[exc.kind] = kinds.get(exc.kind, 0) + 1
        else:
            undetected.append(bit)
    return FuzzResult(total, detected, undetected, kinds)


def write_demo_files(directory) -> dict[str, str]:
    """Author a small demo: an eight-note scale score, a scenario that
    converses, duets, then plays solo, and a config wired to both."""
    os.makedirs(directory, exist_ok=True)
    score = "\n".join(
        ["# one octave up, eight notes"]
        + [f"NOTE {m} 400" for m in (60, 62, 64, 65, 67, 69, 71, 72)]
        + ["VOL 0 0.8", "VOL 3200 0.8"]
    ) + "\n"
    scenario = "\n".join(
        [
            "AT 0 INTENT StartConversation",
            "AT 200 INTENT AskDuet",
            "AT 3600 INTENT Done",
            "AT 3800 INTENT AskSolo",
            "AT 7200 INTENT Done",
        ]
    ) + "\n"
    score_path = os.path.join(directory, "score.txt")
    scenario_path = os.path.join(directory, "scenario.txt")
    config_path = os.path.join(directory, "config.json")
    with open(score_path, "w") as f:
        f.write(score)
    with open(scenario_path, "w") as f:
        f.write(scenario)
    with open(config_path, "w") as f:
        json.dump({"seed": 7, "scenario": scenario_path, "score": score_path}, f, indent=2)
        f.write("\n")
    return {"score": score_path, "scenario": scenario_path, "config": config_path}


# --- config file handling -------------------------------------------------
# The JSON form follows the dataclass type hints: a nested dataclass is an
# object, a Resolution is [width, height].


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _encode(value):
    if isinstance(value, Resolution):
        return [value.width, value.height]
    if is_dataclass(value):
        return {_key(f): _encode(getattr(value, f.name)) for f in dataclass_fields(value)}
    return value


def config_to_dict(cfg: SimConfig) -> dict:
    return _encode(cfg)


def _decode(tp, value, path: str):
    """Build a value of type tp from parsed JSON; ValueError names the
    dotted key of anything malformed or unknown."""
    if tp is Resolution:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"{path} must be [width, height], got {value!r}")
        return _build(path, Resolution, *(_decode(int, v, path) for v in value))
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{path or 'config'} must be an object, got {value!r}")
        by_key = {_key(f): f for f in dataclass_fields(tp)}
        unknown = sorted(set(value) - set(by_key))
        if unknown and path:
            raise ValueError(f"unknown key {path}.{unknown[0]}")
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        hints = get_type_hints(tp)
        kwargs = {}
        for key, f in by_key.items():
            sub = f"{path}.{key}" if path else key
            if key in value:
                kwargs[f.name] = _decode(hints[f.name], value[key], sub)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"config needs a {sub}")
        return _build(path, tp, **kwargs)
    # JSON has one number type; an integer is a valid float, a bool is neither.
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ValueError(f"{path} must be of type {tp.__name__}, got {value!r}")
    return float(value) if tp is float else value


def _build(path: str, tp, *args, **kwargs):
    """tp(*args, **kwargs); a range error it raises names the dotted key."""
    try:
        return tp(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(obj: dict) -> SimConfig:
    """Build a SimConfig from parsed JSON.  Unknown keys are errors so a
    typo cannot silently fall back to a default."""
    return _decode(SimConfig, obj, "")


def load_config(path) -> SimConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))
