"""Benchmark for the evtheremin show simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and used as a black box through its public
functions.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
the per-layer ones, from a run that alternates untraced and traced
operations and writes the spans to ``bench/out/``.  End-to-end host
times are scaled to a fixed core speed by the yardstick
(``yardstick.py``).  See bench/README.md.
"""

from __future__ import annotations

import os

# One program thread: no BLAS or OpenMP worker threads in this process
# or in the set-up children, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9

# Runs in a fresh interpreter: host time of `import evtheremin` and of
# load_config on the workload's config file.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import evtheremin
t1 = time.perf_counter()
evtheremin.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"file": evtheremin.__file__, "import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


def load_program():
    """Import evtheremin from this checkout's src/, never from elsewhere."""
    if not (SRC / "evtheremin" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import evtheremin
    from evtheremin import events, harness, tracker, transport
    from evtheremin.sigma_delta import GradedSpike

    if Path(evtheremin.__file__).resolve().parent != SRC / "evtheremin":
        sys.exit(f"bench: imported evtheremin from {evtheremin.__file__}, not from {SRC}")
    return SimpleNamespace(
        harness=harness, tracker=tracker, events=events, transport=transport, GradedSpike=GradedSpike
    )


def measure_setup(config_path: str, ys) -> dict:
    """Median over fresh interpreters of import and load_config time,
    with the bytecode compiled beforehand; each child's times are scaled
    by the yardstick readings taken just before and after it."""
    compileall.compile_dir(SRC / "evtheremin", quiet=1)
    samples = []
    ys.scale()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), config_path],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        scale = ys.scale()
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["file"]).resolve().parent != SRC / "evtheremin":
            sys.exit(f"bench: set-up child imported {sample['file']}")
        samples.append({"import_s": sample["import_s"] * scale, "load_config_s": sample["load_config_s"] * scale})
    return {
        "setup_s": median(s["import_s"] + s["load_config_s"] for s in samples),
        "setup.import_s": median(s["import_s"] for s in samples),
        "setup.load_config_s": median(s["load_config_s"] for s in samples),
    }


def median(values) -> float:
    return float(statistics.median(values))


def rounds(seconds: float, trace: int, minimum: int = 2):
    """Closed batch of whole rounds: yields whether to trace the next
    round while that round is expected to end within `seconds`, and at
    least `minimum` times.  A traced run alternates untraced and traced
    rounds, starting untraced."""
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < minimum or (
        time.perf_counter() - start + statistics.mean(durations) <= seconds
    ):
        t = time.perf_counter()
        yield bool(trace) and len(durations) % 2 == 1
        durations.append(time.perf_counter() - t)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead(untraced_s, traced_s) -> dict:
    """Tracing overhead: median scaled time of a traced operation against
    that of an untraced one."""
    base = median(untraced_s)
    extra = median(traced_s) - base
    return {"trace.overhead_s": extra, "trace.overhead_share": extra / base}


def link_counts(link: dict) -> dict:
    return {
        "transport.sent": link["sent"],
        "transport.delivered": link["delivered"],
        "transport.lost": link["lost"],
        "transport.corrupted": link["corrupted_dropped"],
        "transport.duplicate": link["duplicate_dropped"],
        "transport.reordered": link["reordered"],
    }


def write_trace(tracer, args) -> None:
    tracer.write_jsonl(OUT / f"trace-{args.workload}-{args.seed}.jsonl")


# --- shows -----------------------------------------------------------------


def run_shows(ev, show, args, ys):
    import tracing
    from checks import CheckError, check_replay, check_show, expected_windows

    cfg = ev.harness.load_config(show.config_path)
    windows = expected_windows(show.tracking_ms, show.score_ms / cfg.tempo, cfg.tracker.window_us)
    done = []  # per show: report, host and synthesis seconds, scale, tracer if traced
    first_kv = None
    correct, attempted, failed = True, 0, 0
    for traced in rounds(args.seconds, args.trace):
        attempted += 1
        tracer = tracing.Tracer()
        targets = tracing.show_targets(ev) if traced else [tracing.synth_target(ev)]
        try:
            with tracer.installed(targets), tracer.span("harness.run_show"):
                report = ev.harness.run_show(cfg)
        except Exception as exc:  # a show that crashes is a failed operation
            print(f"bench: show failed: {exc!r}", file=sys.stderr)
            failed += 1
            ys.scale()
            continue
        scale = ys.scale()
        try:
            check_show(report, windows, show.sim_ms, ev.harness.POS_SCALE)
            kv = report.to_kv_lines(include_wall=False)
            first_kv = first_kv or kv
            check_replay(first_kv, kv)
        except CheckError as exc:
            print(f"bench: check failed: {exc}", file=sys.stderr)
            correct = False
        inclusive, _, _ = tracing.span_totals(tracer.spans)
        done.append({
            "report": report,
            "host": inclusive["harness.run_show"],
            "synth": inclusive.get("events.synth_hand_events", 0.0),
            "scale": scale,
            "tracer": tracer if traced else None,
        })
    untraced = [d for d in done if d["tracer"] is None]
    traced = [d for d in done if d["tracer"] is not None]
    if not args.trace:
        # Host times are the median over the run's shows, each scaled by
        # the yardstick; see README ("Scaled host time").
        sim_s = show.sim_ms / 1000.0
        host = median(d["host"] * d["scale"] for d in untraced)
        counts = untraced[0]["report"].counts
        metrics = {
            "rtf": sim_s / host,
            "pipeline_rtf": sim_s / median((d["host"] - d["synth"]) * d["scale"] for d in untraced),
            "frames_per_s": counts["frames_sent"] / host,
            "records_per_s": counts["records_sent"] / host,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        fastest = min(traced, key=lambda d: d["host"])
        metrics = show_layers(fastest)
        metrics.update(overhead([d["host"] * d["scale"] for d in untraced], [d["host"] * d["scale"] for d in traced]))
        metrics["host.yardstick_ms"] = median(ys.readings) * 1000.0
        write_trace(fastest["tracer"], args)
    return correct, attempted, failed, metrics


def show_layers(d) -> dict:
    """Per-layer metrics of one traced show."""
    import tracing

    spans = d["tracer"].spans
    counts = d["tracer"].counts
    inclusive, self_time, calls = tracing.span_totals(spans)
    pos_synth = pos_other = 0.0
    step_ms = []
    for name, start, end, parent in spans:
        if name == "events.position_at":
            if spans[parent][0] == "events.synth_hand_events":
                pos_synth += end - start
            else:
                pos_other += end - start
        elif name == "tracker.step":
            step_ms.append((end - start) * 1000.0)
    r = d["report"]
    synthesized = counts.get("events.synthesized", 0)
    return {
        "events.synth_s": inclusive.get("events.synth_hand_events", 0.0),
        "events.synth_calls": calls.get("events.synth_hand_events", 0),
        "events.synthesized": synthesized,
        "events.used_ratio": counts.get("events.windowed", 0) / synthesized,
        "events.position_at_synth_s": pos_synth,
        "events.position_at_score_s": pos_other,
        "events.position_at_calls": calls.get("events.position_at", 0),
        "events.frame_accumulate_s": inclusive.get("events.frame_accumulate", 0.0),
        "events.frame_downsample_s": inclusive.get("events.frame_downsample", 0.0),
        "tracker.step_s": inclusive.get("tracker.step", 0.0),
        "tracker.step_p50_ms": float(np.percentile(step_ms, 50)),
        "tracker.step_p95_ms": float(np.percentile(step_ms, 95)),
        "tracker.windows": calls.get("tracker.step", 0),
        "tracker.detect_heatmap_s": inclusive.get("tracker.detect_heatmap", 0.0),
        "sigma_delta.spikes": r.counts["detector_spikes"],
        "neural_field.field_step_s": inclusive.get("neural_field.field_step", 0.0),
        "neural_field.detect_peaks_s": inclusive.get("neural_field.detect_peaks", 0.0),
        "transport.encode_s": inclusive.get("transport.safe_encode", 0.0),
        "transport.channel_s": inclusive.get("transport.channel_transmit", 0.0),
        "transport.receive_s": inclusive.get("transport.receive_payload", 0.0),
        "transport.link_latency_us": r.latency_us["link"]["mean"],
        "orchestrator.route_s": inclusive.get("orchestrator.route_messages", 0.0),
        "orchestrator.routed_dropped": r.counts["routed_dropped"],
        "theremin.hands_to_control_s": inclusive.get("theremin.hands_to_control", 0.0),
        "theremin.control_points": r.counts["control_points"],
        "harness.self_s": self_time["harness.run_show"],
        "sim.latency_us": r.latency_us["end_to_end"]["mean"],
        "sim.pitch_err_cents": r.pitch_mean_cents,
        **link_counts(r.link),
    }


# --- link sessions ---------------------------------------------------------


def run_links(ev, args, ys):
    import tracing
    from checks import CheckError
    from workloads import CADENCE_US, link_round, run_session

    sessions = link_round(ev, args.seed)
    tele = [i for i, s in enumerate(sessions) if s.kind.startswith("telemetry")]
    spikes = [i for i, s in enumerate(sessions) if s.kind.startswith("spikes")]
    untraced_rounds = []  # scaled host seconds: (all sessions, telemetry, spikes)
    traced_rounds = []
    round_host = {False: [], True: []}  # scaled host seconds per round
    correct, attempted, failed = True, 0, 0
    for traced in rounds(args.seconds, args.trace):
        attempted += len(sessions)
        tracer = tracing.Tracer()
        try:
            with tracer.installed(tracing.link_targets(ev) if traced else []):
                results = []
                for s in sessions:
                    with tracer.span("bench.session"):
                        results.append(run_session(ev, s))
        except CheckError as exc:
            print(f"bench: check failed: {exc}", file=sys.stderr)
            correct = False
            ys.scale()
            continue
        scale = ys.scale()
        failed += sum(r.failed for r in results)
        round_host[traced].append(sum(r.host_s for r in results) * scale)
        if traced:
            traced_rounds.append((round_host[True][-1], tracer, results))
        else:
            untraced_rounds.append((
                round_host[False][-1],
                sum(results[i].host_s for i in tele) * scale,
                sum(results[i].host_s for i in spikes) * scale,
            ))
    if not args.trace:
        # Host times are the median over the run's rounds, each scaled
        # by the yardstick; see README ("Scaled host time").
        sim_s = sum(len(s.spikes) for s in sessions) * CADENCE_US / 1e6
        rtf = sim_s / median(r[0] for r in untraced_rounds)
        metrics = {
            "rtf": rtf,
            "pipeline_rtf": rtf,  # no world synthesis runs in a link session
            "frames_per_s": sum(len(sessions[i].spikes) for i in tele) / median(r[1] for r in untraced_rounds),
            "records_per_s": sum(sessions[i].records for i in spikes) / median(r[2] for r in untraced_rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        _, tracer, results = min(traced_rounds, key=lambda t: t[0])
        inclusive, _, _ = tracing.span_totals(tracer.spans)
        latency = float(np.mean([x for r in results for x in r.latencies_us]))
        metrics = {
            "transport.encode_s": inclusive["transport.safe_encode"],
            "transport.channel_s": inclusive["transport.channel_transmit"],
            "transport.receive_s": inclusive["transport.receive_payload"],
            "transport.link_latency_us": latency,
            "sim.latency_us": latency,
        }
        for r in results:
            for k, v in link_counts(r.link).items():
                metrics[k] = metrics.get(k, 0) + v
        metrics.update(overhead(round_host[False], round_host[True]))
        metrics["host.yardstick_ms"] = median(ys.readings) * 1000.0
        write_trace(tracer, args)
    return correct, attempted, failed, metrics


# --- main ------------------------------------------------------------------


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sys.path.insert(0, str(BENCH))
    from workloads import SHOWS, demo_duet

    # demo_duet runs too, as the unbounded reference show.
    names = sorted({w["name"] for w in spec["workloads"]} | set(SHOWS))
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ev = load_program()
    from yardstick import Yardstick

    ys = Yardstick()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.workload in SHOWS:
            show = SHOWS[args.workload](ev, args.seed, workdir)
            setup = measure_setup(show.config_path, ys)
            correct, attempted, failed, values = run_shows(ev, show, args, ys)
        else:
            # Link sessions load no show config; set-up loads the demo one.
            setup = measure_setup(demo_duet(ev, args.seed, workdir).config_path, ys)
            correct, attempted, failed, values = run_links(ev, args, ys)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values.update(setup)

    unknown = set(values) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if unknown:
        sys.exit(f"bench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if not args.trace and names - set(values):
        sys.exit(f"bench: end-to-end metrics not measured: {sorted(names - set(values))}")
    # A per-layer metric of a layer the workload does not exercise is 0;
    # set-up figures not asked for in this mode are dropped.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
