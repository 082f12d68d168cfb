"""Command-line front end.

Simulation commands take an explicit seed (or read one from the config
file) so every run is reproducible; there is no wall-clock entropy
anywhere in the pipeline.
"""

from __future__ import annotations

import sys

import click

from .events import (
    Resolution,
    decode_evt1,
    encode_evt1,
    synth_hand_events,
    waving_trajectory,
)
from .harness import (
    RunReport,
    load_config,
    power_ratio,
    protocol_bench,
    run_show,
    single_bit_fuzz,
    write_demo_files,
)
from .neural_field import field_to_pgm
from .theremin import (
    PitchCalibration,
    note_freq,
    parse_score,
    score_to_trajectory,
)
from .tracker import HandTracker, TrackerConfig, format_estimates
from .transport import ChannelConfig, dump_frame


def _parse_resolution(value: str) -> Resolution:
    try:
        w, h = value.lower().split("x")
        return Resolution(int(w), int(h))
    except ValueError as exc:
        raise click.BadParameter(f"want WIDTHxHEIGHT, got {value!r}") from exc


def _or_fail(fn, *args, **kwargs):
    """Turn domain errors into clean CLI errors instead of tracebacks."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    except KeyError as exc:
        raise click.ClickException(f"missing field {exc}") from exc
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc


@click.group()
def main():
    """Event-camera theremin: synthesis, tracking, transport, and the
    full simulated show."""


@main.command()
@click.option("--out", "out_path", required=True, type=click.Path(writable=True, dir_okay=False))
@click.option("--seed", required=True, type=int, help="RNG seed; required, no default.")
@click.option("--pattern", type=click.Choice(["wave", "score"]), default="wave", show_default=True)
@click.option("--score", "score_path", type=click.Path(exists=True, dir_okay=False),
              help="Score file for --pattern score.")
@click.option("--duration-ms", type=float, default=2000.0, show_default=True,
              help="Length of the wave pattern.")
@click.option("--resolution", default="240x180", show_default=True)
@click.option("--blob-radius", type=float, default=8.0, show_default=True)
@click.option("--rate-scale", type=float, default=2.0, show_default=True)
@click.option("--trajectory-out", type=click.Path(writable=True, dir_okay=False),
              help="Also save the ground-truth trajectory as JSON.")
def synth(out_path, seed, pattern, score_path, duration_ms, resolution, blob_radius,
          rate_scale, trajectory_out):
    """Generate a synthetic event stream and write it as an EVT1 file."""
    res = _parse_resolution(resolution)
    if pattern == "wave":
        traj = _or_fail(waving_trajectory, res, duration_ms)
    else:
        if not score_path:
            raise click.UsageError("--pattern score needs --score")
        with open(score_path) as f:
            score = _or_fail(parse_score, f.read())
        cal = PitchCalibration(0.40, note_freq(60), 0.24)
        traj = _or_fail(score_to_trajectory, score, cal, resolution=res)
    stream = _or_fail(synth_hand_events, traj, res, seed=seed, blob_radius=blob_radius,
                      rate_scale=rate_scale)
    data = _or_fail(encode_evt1, stream)
    with open(out_path, "wb") as f:
        f.write(data)
    if trajectory_out:
        with open(trajectory_out, "w") as f:
            f.write(traj.to_json())
    click.echo(f"{len(stream)} events over {stream.span_us()[1] / 1000.0:.1f} ms -> {out_path}")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(writable=True, dir_okay=False))
@click.option("--detector", type=click.Choice(["blob", "sd_net"]), default="blob",
              show_default=True)
@click.option("--window-us", type=int, default=10_000, show_default=True)
@click.option("--no-field", is_flag=True, help="Raw argmax baseline, skip the field filter.")
@click.option("--field-pgm", type=click.Path(writable=True, dir_okay=False),
              help="Write the final field activity as a PGM image.")
def track(in_path, out_path, detector, window_us, no_field, field_pgm):
    """Track hands in an EVT1 event file; writes estimate CSV lines."""
    with open(in_path, "rb") as f:
        stream = _or_fail(decode_evt1, f.read())
    cfg = _or_fail(
        TrackerConfig,
        input_res=stream.resolution,
        detector=detector,
        window_us=window_us,
        use_field=not no_field,
    )
    tracker = HandTracker(cfg)
    estimates = tracker.run(stream)
    with open(out_path, "w") as f:
        f.write(format_estimates(estimates))
    if field_pgm:
        with open(field_pgm, "wb") as f:
            f.write(field_to_pgm(tracker.field))
    n_hands = sum(len(e.hands) for e in estimates)
    click.echo(f"{len(estimates)} windows, {n_hands} hand points -> {out_path}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--report-out", type=click.Path(writable=True, dir_okay=False),
              help="Save the full report as JSON.")
@click.option("--format", "fmt", type=click.Choice(["text", "kv"]), default="text",
              show_default=True)
def show(config_path, report_out, fmt):
    """Run the whole simulated show described by a config file."""
    cfg = _or_fail(load_config, config_path)
    report = _or_fail(run_show, cfg)
    if fmt == "text":
        click.echo(report.to_text())
    else:
        click.echo("\n".join(report.to_kv_lines()))
    if report_out:
        with open(report_out, "w") as f:
            f.write(report.to_json())
            f.write("\n")


@main.group()
def proto():
    """Wire-format tools."""


@proto.command()
@click.option("--events", type=int, default=10_000, show_default=True)
@click.option("--seed", required=True, type=int)
@click.option("--loss", type=float, default=0.0, show_default=True)
@click.option("--bitflip", type=float, default=0.0, show_default=True)
@click.option("--jitter-us", type=float, default=0.0, show_default=True)
@click.option("--reorder", type=int, default=0, show_default=True)
def bench(events, seed, loss, bitflip, jitter_us, reorder):
    """Bytes-per-event table, plus link accounting when impairments are set."""
    channel = None
    if loss or bitflip or jitter_us or reorder:
        channel = _or_fail(ChannelConfig, loss_p=loss, bitflip_p=bitflip, delay_jitter_us=jitter_us,
                           reorder_window=reorder, seed=seed)
    result = _or_fail(protocol_bench, n_events=events, channel=channel, seed=seed)
    click.echo(result.to_text())


@proto.command()
@click.option("--records", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def fuzz(records, seed):
    """Exhaustive single-bit corruption sweep over one frame."""
    result = _or_fail(single_bit_fuzz, n_records=records, seed=seed)
    click.echo(result.to_text())
    if result.undetected:
        sys.exit(1)


@proto.command()
@click.argument("frame_file", type=click.Path(exists=True, dir_okay=False))
def dump(frame_file):
    """Annotated hex view of a binary frame file."""
    with open(frame_file, "rb") as f:
        click.echo(dump_frame(f.read()))


@main.command()
@click.option("--cluster-kw", type=float, default=6.5, show_default=True)
@click.option("--board-w", type=float, default=None,
              help="Single board power draw; defaults to both ends of the range.")
@click.option("--boards", type=int, default=10, show_default=True)
def power(cluster_kw, board_w, boards):
    """Power ratio of a datacenter cluster vs a rack of neuromorphic boards."""
    rows = [(board_w,)] if board_w is not None else [(120.0,), (48.0,)]
    for (w,) in rows:
        r = _or_fail(power_ratio, cluster_kw, w, boards)
        click.echo(f"{cluster_kw} kW cluster vs {boards} x {w:g} W boards: {r:.2f}x")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "kv", "json"]), default="text",
              show_default=True)
@click.option("--no-wall", is_flag=True, help="Omit wall-clock fields from kv output.")
def report(in_path, fmt, no_wall):
    """Render a saved run report."""
    with open(in_path) as f:
        rep = _or_fail(RunReport.from_json, f.read())
    if fmt == "text":
        click.echo(rep.to_text())
    elif fmt == "kv":
        click.echo("\n".join(rep.to_kv_lines(include_wall=not no_wall)))
    else:
        click.echo(rep.to_json())


@main.command()
@click.option("--dir", "directory", default="demo", show_default=True,
              type=click.Path(file_okay=False))
def demo(directory):
    """Write a ready-to-run score, scenario, and config."""
    paths = write_demo_files(directory)
    for name, path in paths.items():
        click.echo(f"{name}: {path}")
    click.echo(f"try: evtheremin show --config {paths['config']}")


if __name__ == "__main__":
    main()
