"""Hand tracker: gain control, detectors, labeling, windowing, estimate IO."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.signal import convolve2d

from evtheremin.events import (
    Event,
    EventStream,
    Frame,
    Resolution,
    frame_accumulate,
    frame_downsample,
    synth_hand_events,
    waving_trajectory,
)
from evtheremin.neural_field import Peak
from evtheremin.sigma_delta import DenseNet, Layer
from evtheremin.tracker import (
    BlobDetector,
    GainControl,
    HandEstimate,
    HandLabel,
    HandPoint,
    HandTracker,
    SigmaDeltaDetector,
    TrackerConfig,
    assign_hands,
    blur_operator,
    detect_heatmap,
    format_estimates,
    parse_estimates,
    tracker_field_params,
)

RES = Resolution(240, 180)
CHIP = Resolution(86, 65)
CELL_W = RES.width / CHIP.width
CELL_H = RES.height / CHIP.height


def cluster_window(clusters, t0, t1, res=RES):
    """Events repeated at fixed pixels, timestamps spread over [t0, t1)."""
    events = []
    k = 0
    for (x, y), count in clusters:
        for i in range(count):
            t = t0 + (t1 - t0) * k // sum(c for _, c in clusters)
            events.append(Event(t, x, y, 1 if i % 2 == 0 else -1))
            k += 1
    return EventStream.from_events(sorted(events, key=lambda e: e.t), res)


class TestGainControl:
    def test_first_frame_sets_reference(self):
        g = GainControl()
        out = g.normalize(np.full((2, 2), 10.0))
        assert g.ref == 10.0
        np.testing.assert_array_equal(out, 1.0)

    def test_reference_decays_toward_quiet_frames(self):
        g = GainControl(decay=0.9, growth=1.5)
        g.normalize(np.full((2, 2), 10.0))
        out = g.normalize(np.full((2, 2), 5.0))
        assert g.ref == pytest.approx(9.0)
        np.testing.assert_allclose(out, 5.0 / 9.0)

    def test_upward_slew_is_capped(self):
        g = GainControl(decay=0.9, growth=1.5)
        g.normalize(np.full((2, 2), 10.0))
        out = g.normalize(np.full((2, 2), 100.0))
        assert g.ref == pytest.approx(15.0)  # 1.5x the old reference
        np.testing.assert_array_equal(out, 1.0)  # clipped, not rescaled

    def test_all_zero_frames_stay_zero(self):
        g = GainControl()
        out = g.normalize(np.zeros((3, 3)))
        assert g.ref == 0.0
        np.testing.assert_array_equal(out, 0.0)

    def test_reset(self):
        g = GainControl()
        g.normalize(np.full((2, 2), 7.0))
        g.reset()
        assert g.ref == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GainControl(decay=1.0)
        with pytest.raises(ValueError):
            GainControl(decay=0.0)
        with pytest.raises(ValueError):
            GainControl(growth=1.0)


def loop_blur_operator(resolution, sigma_cells, radius=None):
    """Reference builder: one COO block per (dy, dx) offset."""
    if radius is None:
        radius = max(1, int(np.ceil(3 * sigma_cells)))
    ax = np.arange(-radius, radius + 1)
    kern = np.exp(-(ax[None, :] ** 2 + ax[:, None] ** 2) / (2 * sigma_cells**2))
    kern /= kern.sum()
    w, h = resolution.width, resolution.height
    rows, cols, vals = [], [], []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            ys = np.arange(max(0, -dy), min(h, h - dy))
            xs = np.arange(max(0, -dx), min(w, w - dx))
            if len(ys) == 0 or len(xs) == 0:
                continue
            yy, xx = np.meshgrid(ys, xs, indexing="ij")
            rows.append((yy * w + xx).ravel())
            cols.append(((yy + dy) * w + (xx + dx)).ravel())
            vals.append(np.full(yy.size, kern[dy + radius, dx + radius]))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(resolution.npixels, resolution.npixels),
    )
    return mat.tocsr()


class TestBlurOperator:
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.3, 3.0),
        st.one_of(st.none(), st.integers(1, 8)),
    )
    @example(CHIP.width, CHIP.height, 1.5, None)
    def test_arrays_equal_loop_builder(self, width, height, sigma, radius):
        # Equal arrays, not just equal matrices: the entry order within a
        # row fixes the float sums of the sigma-delta matvec.
        res = Resolution(width, height)
        got, want = blur_operator(res, sigma, radius), loop_blur_operator(res, sigma, radius)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_matches_dense_convolution(self):
        res = Resolution(16, 12)
        sigma, radius = 1.2, 3
        op = blur_operator(res, sigma, radius=radius)
        ax = np.arange(-radius, radius + 1)
        kern = np.exp(-(ax[None, :] ** 2 + ax[:, None] ** 2) / (2 * sigma**2))
        kern /= kern.sum()
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 3, (12, 16))
        got = (op @ img.ravel()).reshape(12, 16)
        want = convolve2d(img, kern, mode="same", boundary="fill")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_interior_mass_preserved(self):
        res = Resolution(20, 20)
        op = blur_operator(res, 1.5)
        img = np.zeros((20, 20))
        img[10, 10] = 4.0
        out = op @ img.ravel()
        assert out.sum() == pytest.approx(4.0)


class TestDetectors:
    def blob_frame(self, cx, cy, count=40):
        cells = np.zeros((CHIP.height, CHIP.width), dtype=np.int64)
        cells[cy, cx] = count
        return Frame(CHIP, cells, 0, 10_000)

    def test_blob_heatmap_peaks_at_cluster(self):
        det = BlobDetector(1.5)
        heat = detect_heatmap(self.blob_frame(43, 32), det)
        assert heat.shape == (CHIP.height, CHIP.width)
        assert np.unravel_index(np.argmax(heat), heat.shape) == (32, 43)
        assert heat.max() == pytest.approx(1.0)

    def test_blob_sigma_validated(self):
        with pytest.raises(ValueError):
            BlobDetector(0.0)

    def test_detector_shape_enforced(self):
        class Bad:
            def heatmap(self, frame):
                return np.zeros((3, 3))

        with pytest.raises(ValueError):
            detect_heatmap(self.blob_frame(10, 10), Bad())

    def test_sd_detector_matches_blob_argmax(self):
        res = Resolution(20, 15)
        cells = np.zeros((15, 20), dtype=np.int64)
        cells[7, 12] = 30
        frame = Frame(res, cells, 0, 10_000)
        det = SigmaDeltaDetector(res, 1.5, theta=0.02)
        heat = det.heatmap(frame)
        assert np.unravel_index(np.argmax(heat), heat.shape) == (7, 12)
        assert det.total_spikes > 0

    def test_sd_detector_goes_quiet_on_repeats(self):
        res = Resolution(20, 15)
        cells = np.zeros((15, 20), dtype=np.int64)
        cells[7, 12] = 30
        frame = Frame(res, cells, 0, 10_000)
        det = SigmaDeltaDetector(res, 1.5, theta=0.02)
        det.heatmap(frame)
        before = det.total_spikes
        det.heatmap(frame)
        assert det.last_spike_counts == [0]
        assert det.total_spikes == before

    def test_sd_detector_reset_clears_counters(self):
        res = Resolution(10, 10)
        det = SigmaDeltaDetector(res, 1.0, theta=0.02)
        cells = np.zeros((10, 10), dtype=np.int64)
        cells[5, 5] = 10
        det.heatmap(Frame(res, cells, 0, 1))
        det.reset()
        assert det.total_spikes == 0

    def test_sd_detector_network_size_checked(self):
        net = DenseNet([Layer(np.zeros((4, 4)), np.zeros(4))])
        with pytest.raises(ValueError):
            SigmaDeltaDetector(Resolution(10, 10), 1.0, 0.02, net=net)


class TestAssignHands:
    def peak(self, x, y=10.0):
        return Peak(x, y, 5.0)

    def test_empty(self):
        assert assign_hands([]) == {}

    def test_single_peak_is_pitch(self):
        out = assign_hands([self.peak(50.0)])
        assert set(out) == {HandLabel.PITCH}

    def test_mirrored_two_hands(self):
        out = assign_hands([self.peak(70.0), self.peak(10.0)], mirror=True)
        assert out[HandLabel.PITCH].x == 10.0
        assert out[HandLabel.VOLUME].x == 70.0

    def test_unmirrored_swaps_roles(self):
        out = assign_hands([self.peak(70.0), self.peak(10.0)], mirror=False)
        assert out[HandLabel.PITCH].x == 70.0
        assert out[HandLabel.VOLUME].x == 10.0

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

    def test_max_hands_one_keeps_strongest(self):
        cfg = TrackerConfig(use_field=False, max_hands=1)
        tracker = HandTracker(cfg)
        w = cluster_window([((60, 90), 60), ((180, 90), 20)], 0, 10_000)
        est = tracker.step(w, 10_000)
        assert set(est.hands) == {HandLabel.PITCH}
        assert abs(est.hands[HandLabel.PITCH].x - 60.0) <= CELL_W

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
        with pytest.raises(ValueError):
            TrackerConfig(chip_res=Resolution(300, 200))
        with pytest.raises(ValueError):
            TrackerConfig(window_us=0)
        with pytest.raises(ValueError):
            TrackerConfig(confidence_decay=1.0)
        with pytest.raises(ValueError):
            TrackerConfig(max_hands=3)

    def test_tracking_preset_is_fast_and_nonselective(self):
        fp, kp = tracker_field_params()
        assert fp.tau < 10.0
        assert kp.g_inh == 0.0


class TestRun:
    def test_window_partitioning(self):
        traj = waving_trajectory(RES, 300)
        stream = synth_hand_events(traj, RES, seed=4)
        tracker = HandTracker()
        out = tracker.run(stream, t_start=0, t_end=30_000)
        assert [e.t_us for e in out] == [10_000, 20_000, 30_000]
        out = tracker.run(stream, t_start=5_000, t_end=25_001)
        assert [e.t_us for e in out] == [15_000, 25_000, 35_000]
        assert tracker.run(stream, t_start=30_000, t_end=30_000) == []

    def test_unsorted_stream_tracks_like_sorted(self):
        traj = waving_trajectory(RES, 400)
        stream = synth_hand_events(traj, RES, seed=5)
        shuffled = stream.data[np.random.default_rng(0).permutation(len(stream))]
        a = HandTracker().run(stream, t_start=0, t_end=40_000)
        b = HandTracker().run(EventStream(shuffled, RES), t_start=0, t_end=40_000)
        assert any(e.hands for e in a)
        assert a == b

    def test_deterministic(self):
        traj = waving_trajectory(RES, 400)
        stream = synth_hand_events(traj, RES, seed=5)
        a = HandTracker().run(stream, t_start=0, t_end=40_000)
        b = HandTracker().run(stream, t_start=0, t_end=40_000)
        assert a == b

    def test_empty_stream_without_span(self):
        assert HandTracker().run(EventStream.empty(RES)) == []


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
