"""Hand tracker: gain control, detectors, labeling, windowing, estimate IO."""

import copy
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter
from scipy.signal import convolve2d

from evtheremin import tracker as tracker_module
from evtheremin.events import (
    EventStream,
    Hand,
    Resolution,
    StreamError,
    Trajectory,
    synth_hand_events,
    waving_trajectory,
)
from evtheremin.harness import config_from_dict
from evtheremin.neural_field import U_ONE, Peak
from evtheremin.tracker import (
    BLUR_SIGMA_CELLS,
    COUNT_CAP,
    DETECTORS,
    MAX_WINDOWS,
    GainControl,
    GaussianBlur,
    HandEstimate,
    HandLabel,
    HandPoint,
    HandTracker,
    SigmaDeltaDetector,
    TrackerConfig,
    assign_hands,
    detect_heatmap,
    format_estimates,
    tracker_field_params,
)

RES = Resolution(240, 180)
CHIP = Resolution(86, 65)
CELL_W = RES.width / CHIP.width
CELL_H = RES.height / CHIP.height


def cluster_window(clusters, t0, t1, res=RES):
    """Events repeated at fixed pixels, timestamps spread over [t0, t1)."""
    xs = [x for (x, _), count in clusters for _ in range(count)]
    ys = [y for (_, y), count in clusters for _ in range(count)]
    p = [1 if i % 2 == 0 else -1 for _, count in clusters for i in range(count)]
    t = [t0 + (t1 - t0) * k // len(xs) for k in range(len(xs))]
    return EventStream(t, xs, ys, p, res)


class TestGainControl:
    def test_first_frame_sets_reference(self):
        g = GainControl()
        out = g.normalize(np.full((2, 2), 10.0))
        assert g.ref == 10.0
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, U_ONE)

    def test_reference_decays_toward_quiet_frames(self):
        g = GainControl()
        g.normalize(np.full((2, 2), 10.0))
        out = g.normalize(np.full((2, 2), 5.0))
        assert g.ref == pytest.approx(9.0)
        # 5 / 9 rounded to the nearest 2**-16, once.
        assert np.all(np.abs(out - 5.0 / 9.0 * U_ONE) <= 0.5)

    def test_upward_slew_is_capped(self):
        g = GainControl()
        g.normalize(np.full((2, 2), 10.0))
        out = g.normalize(np.full((2, 2), 100.0))
        assert g.ref == pytest.approx(15.0)  # 1.5x the old reference
        np.testing.assert_array_equal(out, U_ONE)  # clipped, not rescaled

    def test_all_zero_frames_stay_zero(self):
        g = GainControl()
        out = g.normalize(np.zeros((3, 3)))
        assert g.ref == 0.0
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, 0)


def detector(name, res=CHIP):
    """The tracker's detector of the given DETECTORS name."""
    return SigmaDeltaDetector(res, BLUR_SIGMA_CELLS, *DETECTORS[name])


def radii(sigma):
    """The blob and sd_net radius rules: int(4 sigma + 0.5), as
    `gaussian_filter` truncates, and ceil(3 sigma) cells."""
    return [int(4 * sigma + 0.5), max(1, math.ceil(3 * sigma))]


def blurs(img, sigma):
    """(blur, radius) for each detector's radius rule at sigma."""
    return [(GaussianBlur(sigma, radius), radius) for radius in radii(sigma)]


def assert_blur_within_rounding_of_gaussian_filter(blur, radius, img, sigma):
    """The blur against gaussian_filter with the same radius: each output
    is off by at most the input's largest count times the absolute
    difference of the rounded and the float 2-D weights."""
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    exact = np.outer(phi, phi) / phi.sum() ** 2
    tol = img.max(initial=0) * np.abs(np.outer(blur.weights, blur.weights) - exact).sum() + 1e-12 * img.sum()
    want = gaussian_filter(img.astype(np.float64), sigma, mode="constant", radius=radius)
    assert np.abs(blur(img) - want).max() <= tol


def assert_blurs_exact(img, sigma):
    """Each detector's blur on the box around the nonzero cells is its
    dense banded product over the whole frame to the last bit, and close
    to gaussian_filter with that detector's radius rule."""
    for blur, radius in blurs(img, sigma):
        rows, cols = blur.bands(img.shape)
        got = blur(img)
        want = rows @ img.astype(np.float64) @ cols
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # The transposed product reversed sums in another order.
        np.testing.assert_array_equal(got, (cols.T @ img.T.astype(np.float64) @ rows.T).T)
        assert_blur_within_rounding_of_gaussian_filter(blur, radius, img, sigma)


class TestBlurOperator:
    """The detectors' blur."""

    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
    def test_matches_dense_convolution(self, width, height, sigma, seed):
        # One 2-D convolution with the outer product of the rounded 1-D
        # weights: sums of multiples of 2**-32 below 2**53, so equal to the bit.
        rng = np.random.default_rng(seed)
        img = rng.poisson(rng.uniform(0.0, 8.0), (height, width))
        blur = GaussianBlur(sigma, max(1, math.ceil(3 * sigma)))
        want = convolve2d(img, np.outer(blur.weights, blur.weights), mode="same", boundary="fill")
        np.testing.assert_array_equal(blur(img), want)

    def test_detector_radii_follow_their_rules(self):
        assert [radius for _, radius in DETECTORS.values()] == radii(BLUR_SIGMA_CELLS)
        assert [len(detector(name).blur.weights) // 2 for name in DETECTORS] == radii(BLUR_SIGMA_CELLS)

    @pytest.mark.parametrize("sigma", [0.3, 1.5, 3.0])
    def test_weights_are_rounded_and_sum_to_one(self, sigma):
        for blur, radius in blurs(np.zeros((1, 1)), sigma):
            w = blur.weights * U_ONE
            assert len(w) == 2 * radius + 1 and w.sum() == U_ONE
            assert np.all(w == np.rint(w)) and np.all(w == w[::-1])

    @given(st.integers(1, 86), st.integers(1, 65), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
    def test_close_to_gaussian_filter(self, width, height, sigma, seed):
        rng = np.random.default_rng(seed)
        img = rng.poisson(rng.uniform(0.0, 8.0), (height, width))
        for blur, radius in blurs(img, sigma):
            assert_blur_within_rounding_of_gaussian_filter(blur, radius, img, sigma)

    @given(st.integers(1, 86), st.integers(1, 65), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
    def test_box_products_bit_equal_to_dense_bands(self, width, height, sigma, seed):
        rng = np.random.default_rng(seed)
        assert_blurs_exact(rng.poisson(rng.uniform(0.0, 8.0), (height, width)), sigma)

    def test_counts_saturate_below_exact_limit(self):
        # A cell's count saturates at COUNT_CAP, where the largest partial
        # sum, the cap times the weights' total 2**32, is still below 2**53.
        assert tracker_module.COUNT_CAP * U_ONE**2 < 2**53
        img = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
        img[30, 40] = 2**62
        blur = detector("blob").blur
        np.testing.assert_array_equal(blur(img), blur(np.minimum(img, tracker_module.COUNT_CAP)))

    @settings(deadline=None)
    @given(
        st.integers(1, 86),
        st.integers(1, 65),
        st.floats(0.3, 3.0),
        st.lists(
            st.tuples(st.integers(0, 85), st.integers(0, 64), st.integers(0, 2), st.integers(1, 60)),
            max_size=4,
        ),
    )
    @example(86, 65, 1.5, [])
    @example(86, 65, 1.5, [(3, 3, 1, 20), (80, 60, 2, 7)])
    @example(86, 65, 3.0, [(2, 30, 1, 9), (84, 63, 0, 4), (40, 1, 2, 5)])
    @example(86, 65, 0.3, [(0, 0, 0, 1), (85, 64, 0, 2)])
    def test_bit_equal_to_dense_bands_on_sparse_frames(self, width, height, sigma, clusters):
        # A few square clusters, anywhere: the blur runs on the box around
        # the nonzero cells, which the dense frames above never crop.
        img = np.zeros((height, width), dtype=np.int64)
        for x, y, r, count in clusters:
            x, y = x % width, y % height
            img[max(y - r, 0) : y + r + 1, max(x - r, 0) : x + r + 1] += count
        assert_blurs_exact(img, sigma)

    @pytest.mark.parametrize("x, y", [(0, 0), (85, 0), (0, 64), (85, 64), (40, 0), (40, 64), (0, 30), (85, 30)])
    @pytest.mark.parametrize("sigma", [0.3, 1.5, 3.0])
    def test_single_cell_on_edge_or_corner_bit_equal(self, x, y, sigma):
        img = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
        img[y, x] = 3
        assert_blurs_exact(img, sigma)

    def test_interior_mass_preserved(self):
        img = np.zeros((20, 20), dtype=np.int64)
        img[10, 10] = 4
        out = detector("sd_net", Resolution(20, 20)).blur(img)
        assert out.sum() == 4.0


class TestDetectors:
    def blob_frame(self, cx, cy, count=40):
        cells = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
        cells[cy, cx] = count
        return cells

    def test_blob_heatmap_peaks_at_cluster(self):
        heat = detect_heatmap(self.blob_frame(43, 32), detector("blob"))
        assert heat.shape == (CHIP.height, CHIP.width)
        assert np.unravel_index(np.argmax(heat), heat.shape) == (32, 43)
        assert heat.dtype == np.int64 and heat.max() == U_ONE

    def test_blob_sigma_validated(self):
        # The blur width is the tracker's constant, not a config value.
        assert 0.0 < tracker_module.BLUR_SIGMA_CELLS < math.inf
        for sigma in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match=r"unknown key tracker\.blur_sigma_cells"):
                config_from_dict({"seed": 1, "tracker": {"blur_sigma_cells": sigma}})

    def test_sd_detector_matches_blob_argmax(self):
        res = Resolution(20, 15)
        cells = np.zeros((15, 20), dtype=np.int64)
        cells[7, 12] = 30
        det = detector("sd_net", res)
        heat = det.heatmap(cells)
        assert np.unravel_index(np.argmax(heat), heat.shape) == (7, 12)
        assert det.total_spikes > 0

    def test_sd_detector_goes_quiet_on_repeats(self):
        res = Resolution(20, 15)
        cells = np.zeros((15, 20), dtype=np.int64)
        cells[7, 12] = 30
        det = detector("sd_net", res)
        det.heatmap(cells)
        before = det.total_spikes
        det.heatmap(cells)
        assert det.total_spikes == before


def chip_frame(blobs):
    """A chip count frame of square blobs, each (x, y, radius, count)."""
    frame = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
    for x, y, r, count in blobs:
        frame[max(y - r, 0) : y + r + 1, max(x - r, 0) : x + r + 1] += count
    return frame


# Up to three blobs anywhere on the chip, edges included, with counts up
# to past the cap; an empty list is a window without events.
chip_blobs = st.lists(st.tuples(st.integers(0, CHIP.width - 1), st.integers(0, CHIP.height - 1),
                                st.integers(0, 3), st.integers(1, 60) | st.just(2 * COUNT_CAP)), max_size=3)


class TestBlobIsThetaZero:
    """The blob detector sends its blur through a sigma-delta boundary at
    theta 0, which sends every change: its heat is the gain's of the
    plain blur, which is what blob was before the two detectors merged."""

    @settings(deadline=None)
    @given(st.lists(chip_blobs, min_size=1, max_size=12))
    # A hand that moves, vanishes, comes back elsewhere and is joined by a second.
    @example([[(40, 30, 2, 30)], [(44, 31, 2, 30)], [], [], [(5, 60, 1, 12)], [(5, 60, 1, 12), (80, 3, 2, 9)], []])
    # A hand at a corner, then a burst that the gain's slew caps, then quiet.
    @example([[(0, 0, 0, 3)], [(85, 64, 3, 2 * COUNT_CAP)], [], [(0, 0, 0, 3)], [], [], []])
    @example([[]])
    def test_heat_and_gain_are_the_blur_formula(self, windows):
        det = detector("blob")
        theta, radius = DETECTORS["blob"]
        assert theta == 0
        blur, gain = GaussianBlur(BLUR_SIGMA_CELLS, radius), GainControl()
        for blobs in windows:
            cells = chip_frame(blobs)
            heat, want = det.heatmap(cells), gain.normalize(blur(cells))
            assert heat.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(heat, want)
            assert det.gain.ref.hex() == gain.ref.hex()


class TestAssignHands:
    def peak(self, x, y=10.0):
        return Peak(x, y, 5.0)

    def test_empty(self):
        assert assign_hands([]) == {}

    def test_single_peak_is_pitch(self):
        out = assign_hands([self.peak(50.0)])
        assert set(out) == {HandLabel.PITCH}

    def test_mirrored_two_hands(self):
        out = assign_hands([self.peak(70.0), self.peak(10.0)])
        assert out[HandLabel.PITCH].x == 10.0
        assert out[HandLabel.VOLUME].x == 70.0

    def test_extra_peaks_ignored(self):
        out = assign_hands([self.peak(10.0), self.peak(70.0), self.peak(40.0)])
        assert {p.x for p in out.values()} == {10.0, 70.0}


class TestHandTracker:
    def test_static_cluster_lands_within_one_cell(self):
        tracker = HandTracker()
        est = None
        for k in range(3):
            w = cluster_window([((120, 90), 40)], k * 10_000, (k + 1) * 10_000)
            est = tracker.step(w, (k + 1) * 10_000)
        assert set(est.hands) == {HandLabel.PITCH}
        p = est.hands[HandLabel.PITCH]
        assert abs(p.x - 120.0) <= CELL_W
        assert abs(p.y - 90.0) <= CELL_H
        assert p.confidence == 1.0

    def test_two_clusters_labeled_left_pitch(self):
        tracker = HandTracker()
        for k in range(3):
            w = cluster_window(
                [((60, 90), 40), ((180, 90), 40)], k * 10_000, (k + 1) * 10_000
            )
            est = tracker.step(w, (k + 1) * 10_000)
        assert set(est.hands) == {HandLabel.PITCH, HandLabel.VOLUME}
        assert abs(est.hands[HandLabel.PITCH].x - 60.0) <= CELL_W
        assert abs(est.hands[HandLabel.VOLUME].x - 180.0) <= CELL_W

    def test_quiet_windows_hold_position_with_decayed_confidence(self):
        cfg = TrackerConfig(use_field=False)
        tracker = HandTracker(cfg)
        w = cluster_window([((120, 90), 40)], 0, 10_000)
        first = tracker.step(w, 10_000)
        held = tracker.step(EventStream.empty(RES), 20_000)
        assert held.t_us == 20_000
        p0, p1 = first.hands[HandLabel.PITCH], held.hands[HandLabel.PITCH]
        assert (p1.x, p1.y) == (p0.x, p0.y)
        assert p1.confidence == pytest.approx(0.5)
        again = tracker.step(EventStream.empty(RES), 30_000)
        assert again.hands[HandLabel.PITCH].confidence == pytest.approx(0.25)

    def test_stray_event_below_floor_does_not_move_estimate(self):
        cfg = TrackerConfig(use_field=False)
        tracker = HandTracker(cfg)
        tracker.step(cluster_window([((120, 90), 40)], 0, 10_000), 10_000)
        stray = cluster_window([((30, 30), 1)], 10_000, 20_000)
        est = tracker.step(stray, 20_000)
        p = est.hands[HandLabel.PITCH]
        assert abs(p.x - 120.0) <= CELL_W
        assert p.confidence == pytest.approx(0.5)

    def test_empty_stream_gives_empty_estimate(self):
        tracker = HandTracker()
        est = tracker.step(EventStream.empty(RES), 10_000)
        assert est.hands == {}
        assert est.t_us == 10_000

    def test_close_clusters_merge_to_one_hand(self):
        tracker = HandTracker()
        # chip cells 43 and 48, inside the 6-cell separation radius
        for k in range(3):
            w = cluster_window(
                [((120, 90), 40), ((134, 90), 40)], k * 10_000, (k + 1) * 10_000
            )
            est = tracker.step(w, (k + 1) * 10_000)
        assert set(est.hands) == {HandLabel.PITCH}
        assert 115.0 <= est.hands[HandLabel.PITCH].x <= 140.0

    def test_sd_net_detector_tracks(self):
        cfg = TrackerConfig(detector="sd_net")
        tracker = HandTracker(cfg)
        for k in range(3):
            w = cluster_window([((120, 90), 40)], k * 10_000, (k + 1) * 10_000)
            est = tracker.step(w, (k + 1) * 10_000)
        assert abs(est.hands[HandLabel.PITCH].x - 120.0) <= CELL_W
        assert tracker.detector.total_spikes > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(detector="cnn")
        with pytest.raises(ValueError, match="chip 86x65 exceeds input 80x60"):
            TrackerConfig(input_res=Resolution(80, 60))
        with pytest.raises(ValueError):
            TrackerConfig(window_us=0)
        with pytest.raises(ValueError, match=r"window_us must be below 2\*\*63"):
            TrackerConfig(window_us=2**63)
        assert TrackerConfig(window_us=2**63 - 1).window_us == 2**63 - 1

    def test_tracking_preset_is_fast_and_nonselective(self):
        fp, kp = tracker_field_params()
        assert fp.tau < 10.0
        assert kp.g_inh == 0.0


class TestRun:
    def test_window_partitioning(self):
        traj = waving_trajectory(RES, 300)
        stream = synth_hand_events(traj, RES)
        tracker = HandTracker()
        out = tracker.run(stream, t_start=0, t_end=30_000)
        assert [e.t_us for e in out] == [10_000, 20_000, 30_000]
        out = tracker.run(stream, t_start=5_000, t_end=25_001)
        assert [e.t_us for e in out] == [15_000, 25_000, 35_000]
        assert tracker.run(stream, t_start=30_000, t_end=30_000) == []

    def test_unsorted_stream_tracks_like_sorted(self):
        traj = waving_trajectory(RES, 400)
        stream = synth_hand_events(traj, RES)
        shuffled = stream[np.random.default_rng(0).permutation(len(stream))]
        a = HandTracker().run(stream, t_start=0, t_end=40_000)
        b = HandTracker().run(shuffled, t_start=0, t_end=40_000)
        assert any(e.hands for e in a)
        assert a == b

    @pytest.mark.parametrize("detector", ["blob", "sd_net"])
    def test_synthesized_stream_tracks_like_an_unflagged_copy(self, detector):
        stream = synth_hand_events(waving_trajectory(RES, 400), RES, rate_scale=2.0)
        copy = EventStream(*(np.array(getattr(stream, c)) for c in "txyp"), RES)
        assert stream.sorted_valid and not copy.sorted_valid
        # 7.5 ms windows end inside synthesis' 1 ms steps.
        config = TrackerConfig(detector=detector, window_us=7_500)
        for span in ((), (3_000, 397_000)):
            got = HandTracker(config).run(stream, *span)
            assert sum(bool(e.hands) for e in got) > 20
            assert got == HandTracker(config).run(copy, *span)

    def test_deterministic(self):
        traj = waving_trajectory(RES, 400)
        stream = synth_hand_events(traj, RES)
        a = HandTracker().run(stream, t_start=0, t_end=40_000)
        b = HandTracker().run(stream, t_start=0, t_end=40_000)
        assert a == b

    def test_empty_stream_without_span(self):
        assert HandTracker().run(EventStream.empty(RES)) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(CHIP.width, 1024), st.integers(CHIP.height, 1024),
           st.sampled_from(["blob", "sd_net"]), st.integers(0, 2**32 - 1))
    def test_chip_frame_is_downsampled_sensor_frame(self, width, height, detector, seed):
        # The golden shows pin only 240x180: at any sensor size, the frame
        # each window hands the detector is its sensor frame downsampled.
        res = Resolution(width, height)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 3000))
        stream = EventStream(np.sort(rng.integers(0, 30_000, n)), rng.integers(0, width, n),
                             rng.integers(0, height, n), rng.choice([-1, 1], n), res)
        tracker = HandTracker(TrackerConfig(input_res=res, detector=detector))
        with mock.patch.object(tracker_module, "detect_heatmap", wraps=detect_heatmap) as spy:
            estimates = tracker.run(stream, t_start=0, t_end=30_000)
        assert len(estimates) == spy.call_count == 3
        for est, call in zip(estimates, spy.call_args_list):
            chip, t0 = call.args[0], est.t_us - 10_000
            # Scatter-add reference: event pixel (x, y) counts in cell (x*cw//w, y*ch//h).
            m = (stream.t >= t0) & (stream.t < est.t_us)
            want = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
            np.add.at(want, (stream.y[m].astype(np.int64) * CHIP.height // height,
                             stream.x[m].astype(np.int64) * CHIP.width // width), 1)
            assert chip.shape == (CHIP.height, CHIP.width) and chip.dtype == np.int64
            np.testing.assert_array_equal(chip, want)

    def test_memory_follows_the_sensors_sides(self):
        # One event on a 4096x4096 sensor: a per-pixel cell table would
        # take 134 MB, the per-axis maps take 64 kB.
        res = Resolution(4096, 4096)
        tracker = HandTracker(TrackerConfig(input_res=res))
        tracemalloc.start()
        try:
            estimates = tracker.run(EventStream([5], [4095], [2048], [1], res))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.t_us for e in estimates] == [10_005]
        assert peak < 2_000_000

    # Spans from the stream, and given: the first's last window passes the
    # last u64 time, the second's ends on it.
    @pytest.mark.parametrize("past, on", [
        ((), ()),
        ((2**64 - 20_000, 2**64 - 5_000), (2**64 - 20_001, 2**64 - 1)),
    ])
    def test_window_past_the_u64_time_limit_refused(self, past, on):
        last = 2**64 - 1
        with pytest.raises(StreamError, match=r"need a window ending at \d+, past the u64 time limit 2\*\*64 - 1"):
            HandTracker().run(EventStream([last], [3], [4], [1], RES), *past)
        stream = EventStream([last - 10_000], [3], [4], [1], RES)
        assert HandTracker().run(stream, *on)[-1].t_us == last

    def test_span_of_too_many_windows_refused(self):
        # Two events 2**63 us apart would need 9.2e14 window ends.
        stream = EventStream([5, 2**63], [3, 3], [4, 4], [1, 1], RES)
        with pytest.raises(StreamError, match=rf"needs 922337203685478 windows of 10000 us, "
                                              rf"more than the {MAX_WINDOWS} a run tracks"):
            HandTracker().run(stream)
        with mock.patch.object(tracker_module, "MAX_WINDOWS", 3):
            assert len(HandTracker().run(stream, 0, 30_000)) == 3
            with pytest.raises(StreamError, match="needs 4 windows"):
                HandTracker().run(stream, 0, 30_001)

    def test_window_at_other_resolution_rejected(self):
        window = cluster_window([((10, 10), 5)], 0, 10_000, res=Resolution(320, 240))
        with pytest.raises(StreamError, match="tracker input is 240x180"):
            HandTracker().step(window, 10_000)


def waving(duration_ms, start_us, hands=(Hand.LEFT, Hand.RIGHT)):
    """The events of `waving_trajectory`'s given hands, from start_us on."""
    traj = waving_trajectory(RES, duration_ms)
    return synth_hand_events(Trajectory({h: traj.tracks[h] for h in hands}).shifted(start_us), RES)


def joined(*streams):
    return EventStream(*(np.concatenate([getattr(s, c) for s in streams]) for c in "txyp"), RES)


class TestQuietStretches:
    """Windows without events, which no golden show has: blur boxes that
    empty, jump and come back."""

    # sha256 of format_estimates over 300 ms of both hands waving, a 500 ms
    # pause, 200 ms of the left hand alone and 300 ms of both hands again,
    # pinned when synthesis began stamping each event with its step's start,
    # and read the same from the tracker before that change.
    DIGESTS = {
        "blob": "a3771c6a3224e133111635df4466eb2d27ad890227e166684521b99290cbef85",
        "sd_net": "d82ea0e0081b69c118257965aaf0f5a64683691919914a8bb708e828996560e8",
    }

    @pytest.mark.parametrize("detector", ["blob", "sd_net"])
    def test_estimates_pinned(self, detector):
        stream = joined(waving(300, 0), waving(200, 800_000, (Hand.LEFT,)), waving(300, 1_000_000))
        out = format_estimates(HandTracker(TrackerConfig(detector=detector)).run(stream))
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[detector]

    @pytest.mark.parametrize("detector", ["blob", "sd_net"])
    def test_long_pause_keeps_the_gain_finite(self, detector):
        # Without events the gain's reference decays by GAIN_DECAY a window:
        # some 6,600 windows on, U_ONE over it overflows.  A pause of 80 s
        # must leave heat in [0, U_ONE], warn of nothing, and track what
        # follows as after a 75 s pause, when the reference is 0.
        heat_range = [U_ONE, 0]

        def recorded(frame, det):
            heat = detect_heatmap(frame, det)
            heat_range[:] = min(heat_range[0], heat.min()), max(heat_range[1], heat.max())
            return heat

        def resumed(tracker, start):
            return [(e.t_us - start, e.hands) for e in tracker.run(waving(200, start), start, start + 200_000)]

        quiet = EventStream.empty(RES)
        tracker = HandTracker(TrackerConfig(detector=detector))
        with mock.patch.object(tracker_module, "detect_heatmap", recorded):
            tracker.run(waving(200, 0), 0, 200_000)
            tracker.run(quiet, 200_000, 75_200_000)
            after_75 = resumed(copy.deepcopy(tracker), 75_200_000)
            tracker.run(quiet, 75_200_000, 80_200_000)
            after_80 = resumed(tracker, 80_200_000)
        assert 0 <= heat_range[0] and heat_range[1] <= U_ONE
        assert any(hands for _, hands in after_80)
        assert after_80 == after_75


def parse_estimates(text):
    """Read format_estimates' lines back, skipping blanks and comments."""
    by_t = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: want t,label,x,y,confidence")
        hands = by_t.setdefault(int(parts[0]), {})
        hands[HandLabel(parts[1])] = HandPoint(*map(float, parts[2:]))
    return [HandEstimate(t, hands) for t, hands in by_t.items()]


class TestEstimateIo:
    def sample(self):
        return [
            HandEstimate(
                10_000,
                {
                    HandLabel.PITCH: HandPoint(100.125, 90.5, 1.0),
                    HandLabel.VOLUME: HandPoint(200.25, 45.75, 1.0),
                },
            ),
            HandEstimate(20_000, {HandLabel.PITCH: HandPoint(100.125, 90.5, 0.5)}),
            HandEstimate(30_000, {}),
        ]

    def test_roundtrip(self):
        text = format_estimates(self.sample())
        back = parse_estimates(text)
        # the empty estimate has no lines to carry it
        assert back == self.sample()[:2]

    def test_format_layout(self):
        text = format_estimates(self.sample()[:1])
        lines = text.splitlines()
        assert lines[0] == "10000,pitch_hand,100.125,90.500,1.0000"
        assert lines[1] == "10000,volume_hand,200.250,45.750,1.0000"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n10000,pitch_hand,1.0,2.0,0.5\n"
        out = parse_estimates(text)
        assert len(out) == 1
        assert out[0].hands[HandLabel.PITCH].confidence == 0.5

    def test_bad_field_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_estimates("10000,pitch_hand,1.0,2.0\n")

    def test_bad_label(self):
        with pytest.raises(ValueError):
            parse_estimates("10000,elbow,1.0,2.0,0.5\n")

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            parse_estimates("10000,pitch_hand,1.0,2.0,1.5\n")
