"""Output checks that do not trust the program.

Each check compares an output with a value the benchmark derives on its
own (from the inputs it generated, or from a property the method must
have) and raises CheckError on a mismatch.  None of them compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

# Largest calibration drift a refit of the exact pitch law may show.
MAX_DRIFT_CENTS = 1e-6


class CheckError(AssertionError):
    """An output of the program is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def expected_windows(tracking_segments_ms, score_ms: float, window_us: int) -> int:
    """Windows the show must track: every duet or teaching segment
    [t0, t1) is cut into window_us steps up to the end of the segment or
    of the score played from t0, whichever comes first."""
    total = 0
    for t0_ms, t1_ms in tracking_segments_ms:
        t0 = int(round(t0_ms * 1000))
        end = min(int(round(t1_ms * 1000)), t0 + int(round(score_ms * 1000)))
        if end > t0:
            total += -(-(end - t0) // window_us)
    return total


def check_conservation(link: dict) -> None:
    """delivered + lost + corrupted + duplicate == sent."""
    total = link["delivered"] + link["lost"] + link["corrupted_dropped"] + link["duplicate_dropped"]
    expect(
        total == link["sent"],
        f"link accounts for {total} frames, {link['sent']} were sent ({link})",
    )


def check_show(report, windows: int, sim_ms: float, pos_scale: float) -> None:
    """Checks on one show report that need no second show."""
    c = report.counts
    expect(c["windows"] == windows, f"{c['windows']} windows tracked, the scenario gives {windows}")
    expect(c["frames_sent"] == windows, f"{c['frames_sent']} frames sent for {windows} windows")
    expect(report.link["sent"] == windows, f"link sent {report.link['sent']} frames for {windows} windows")
    expect(
        report.sim_duration_us == sim_ms * 1000,
        f"simulated {report.sim_duration_us} us, the scenario lasts {sim_ms} ms",
    )
    check_conservation(report.link)
    # Pitch error is |cents(f(x_est), f(x_true))| = cents_per_pixel * |dx| for
    # the exponential law, so the two means agree up to the position
    # quantization of the wire (1 / pos_scale px).
    want = report.cents_per_pixel * report.track_mean_x_px
    tol = report.cents_per_pixel / pos_scale
    expect(report.pitch_samples > 0, "no pitch samples were scored")
    expect(
        abs(report.pitch_mean_cents - want) <= tol,
        f"pitch error {report.pitch_mean_cents} cents, cents/px x mean |dx| gives {want}",
    )
    expect(
        0 <= report.calibration_drift_cents < MAX_DRIFT_CENTS,
        f"calibration drift {report.calibration_drift_cents} cents",
    )


def check_replay(first_lines: list[str], lines: list[str]) -> None:
    """A rerun of the same config reports the same simulated outcome."""
    if first_lines != lines:
        diff = next(
            (f"{a} != {b}" for a, b in zip(first_lines, lines) if a != b),
            f"{len(first_lines)} vs {len(lines)} lines",
        )
        raise CheckError(f"rerun differs: {diff}")


def replay_channel(payloads, cfg) -> tuple[int, int]:
    """Lost and corrupted unit counts by the draw order ChannelConfig
    documents: one loss uniform per unit; for a survivor, one uniform per
    byte and then one integer in [0, 8) per flipped byte; then one jitter
    uniform if there is jitter."""
    rng = np.random.default_rng(cfg.seed)
    lost = corrupted = 0
    for payload in payloads:
        if rng.random() < cfg.loss_p:
            lost += 1
            continue
        if cfg.bitflip_p > 0:
            flips = rng.random(len(payload)) < cfg.bitflip_p
            n = int(flips.sum())
            for _ in range(n):
                rng.integers(0, 8)
            corrupted += n > 0
        if cfg.delay_jitter_us > 0:
            rng.random()
    return lost, corrupted


def check_replayed_counts(link: dict, lost: int, corrupted: int) -> None:
    expect(
        (link["lost"], link["corrupted_dropped"]) == (lost, corrupted),
        f"receiver counts lost={link['lost']} corrupted={link['corrupted_dropped']}, "
        f"the channel draws give lost={lost} corrupted={corrupted}",
    )


def check_released(released, frames, intact, cadence_us: int, complete: bool) -> None:
    """Records a receiver released, checked against what was sent.

    released: (time_us, address, value) tuples in release order.
    frames: per sequence number, the sent (time_us, address, value)
    tuples; frame seq has timestamp seq * cadence_us and its records lie
    in [timestamp, timestamp + cadence_us).  intact: sequence numbers
    that reached the receiver with their bytes unchanged.  Each released
    frame must be an intact one, whole, released once and in sequence
    order; with complete set, every intact frame must be released."""
    seqs = []
    i = 0
    while i < len(released):
        seq = released[i][0] // cadence_us
        j = i
        while j < len(released) and released[j][0] // cadence_us == seq:
            j += 1
        expect(0 <= seq < len(frames), f"released record at t={released[i][0]} matches no sent frame")
        expect(not seqs or seq > seqs[-1], f"frame {seq} released after frame {seqs[-1] if seqs else None}")
        expect(seq in intact, f"frame {seq} was corrupted or never arrived but was released")
        expect(
            [tuple(r) for r in released[i:j]] == frames[seq],
            f"frame {seq}: released records differ from the sent ones",
        )
        seqs.append(seq)
        i = j
    if complete:
        missing = sorted(set(intact) - set(seqs))
        expect(not missing, f"intact frames never released: {missing[:10]}")
