"""Sigma-delta encode/decode pair and the detector's one-layer network."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evtheremin.events import Resolution
from evtheremin.sigma_delta import (
    GradedSpike,
    SpikeBatch,
    delta_encode,
    sigma_decode,
)
from evtheremin.harness import config_from_dict
from evtheremin.tracker import SD_THETA, GainControl, SigmaDeltaDetector


class TestDeltaEncode:
    def test_hand_stepped_walkthrough(self):
        # theta 0.5 on the scalar path 0 -> 0.3 -> 0.9 -> 1.0
        state = np.zeros(1)
        acc = np.zeros(1)

        out = delta_encode(state, [0.3], 0.5)
        assert len(out) == 0  # moved only 0.3, below threshold
        sigma_decode(acc, out)
        assert acc[0] == 0.0

        out = delta_encode(state, [0.9], 0.5)
        assert len(out) == 1
        assert list(out.addresses) == [0] and list(out.values) == [0.9]
        sigma_decode(acc, out)
        assert acc[0] == 0.9

        out = delta_encode(state, [1.0], 0.5)
        assert len(out) == 0  # only 0.1 past the last sent value
        sigma_decode(acc, out)
        assert abs(1.0 - acc[0]) < 0.5

    def test_threshold_boundary_is_inclusive(self):
        state = np.zeros(1)
        assert len(delta_encode(state, [0.5], 0.5)) == 1
        state = np.zeros(1)
        assert len(delta_encode(state, [0.5 - 1e-12], 0.5)) == 0

    def test_zero_theta_sends_every_change(self):
        state = np.zeros(3)
        out = delta_encode(state, [1e-300, 0.0, -2.0], 0.0)
        assert list(out.addresses) == [0, 2]
        out = delta_encode(state, [1e-300, 0.0, -2.0], 0.0)
        assert len(out) == 0

    def test_reconstruction_error_stays_below_theta(self):
        rng = np.random.default_rng(0)
        for theta in (0.1, 0.5, 2.0):
            state = np.zeros(8)
            acc = np.zeros(8)
            x = np.zeros(8)
            for _ in range(200):
                x = x + rng.normal(0, 1, 8)
                sigma_decode(acc, delta_encode(state, x, theta))
                assert np.abs(acc - x).max() < theta

    def test_spike_values_carry_full_residual(self):
        # after a spike the decoded value matches the activation to rounding
        rng = np.random.default_rng(1)
        state = np.zeros(4)
        acc = np.zeros(4)
        for _ in range(50):
            x = rng.uniform(-10, 10, 4)
            out = delta_encode(state, x, 0.5)
            sigma_decode(acc, out)
            for a in out.addresses:
                assert acc[a] == pytest.approx(x[a], rel=1e-12, abs=1e-12)

    def test_errors(self):
        state = np.zeros(2)
        with pytest.raises(ValueError):
            delta_encode(state, [1.0, 2.0], -0.1)
        with pytest.raises(ValueError):
            delta_encode(state, [1.0], 0.5)
        with pytest.raises(ValueError):
            delta_encode(state, [np.nan, 0.0], 0.5)


class TestSigmaDecode:
    def test_accumulates_in_place(self):
        acc = np.zeros(3)
        got = sigma_decode(acc, SpikeBatch(np.array([1, 1]), np.array([2.0, 0.5])))
        assert got is acc
        assert list(acc) == [0.0, 2.5, 0.0]

    def test_address_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_decode(np.zeros(2), SpikeBatch(np.array([2]), np.array([1.0])))

    def test_spike_validation(self):
        with pytest.raises(ValueError):
            GradedSpike(-1, 1.0)
        with pytest.raises(ValueError):
            GradedSpike(0, 0.0)


@st.composite
def count_frames(draw):
    """A chip grid of 1x1 to 40x40 cells, a blur sigma of 0.3-3 cells and
    one to six Poisson count frames."""
    res = Resolution(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    sigma = draw(st.floats(0.3, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(rng.uniform(0.0, 8.0), (draw(st.integers(1, 6)), res.height, res.width))
    return res, sigma, list(counts)


CHIP = Resolution(86, 65)


def hand(x, y, res=CHIP, radius=2, count=30):
    """A count frame holding one square blob of events at cell (x, y)."""
    frame = np.zeros((res.height, res.width), dtype=np.int64)
    frame[max(y - radius, 0) : y + radius + 1, max(x - radius, 0) : x + radius + 1] = count
    return frame


def empty(res=CHIP):
    return np.zeros((res.height, res.width), dtype=np.int64)


@st.composite
def sparse_count_frames(draw):
    """A grid of 1x1 to 86x65 cells, a blur sigma of 0.3-3 cells and one
    to eight count frames, each empty or holding up to three square blobs
    at drawn cells: blur boxes that appear, move, jump and empty, where
    `count_frames`' dense frames fill the whole grid."""
    res = Resolution(draw(st.integers(1, 86)), draw(st.integers(1, 65)))
    sigma = draw(st.floats(0.3, 3.0))
    blob = st.tuples(st.integers(0, res.width - 1), st.integers(0, res.height - 1),
                     st.integers(0, 3), st.integers(1, 60))
    frames = []
    for blobs in draw(st.lists(st.lists(blob, max_size=3), min_size=1, max_size=8)):
        frame = empty(res)
        for x, y, radius, count in blobs:
            frame += hand(x, y, res, radius, count)
        frames.append(frame)
    return res, sigma, frames


def sd_detector(res, sigma, theta):
    """The detector with sd_net's radius rule, ceil(3 sigma) cells."""
    return SigmaDeltaDetector(res, sigma, theta, max(1, math.ceil(3 * sigma)))


def run_detector(res, sigma, theta, frames):
    det = sd_detector(res, sigma, theta)
    for frame in frames:
        det.heatmap(frame)
    return det


class TestSigmaDeltaNetwork:
    """The sd_net detector: the count frame's blur through one delta
    encoder, read back as the encoder's last-sent state."""

    @given(count_frames(), st.floats(0.0, 2.0))
    def test_decoder_accumulator_is_last_sent(self, case, theta):
        # The blur's values are exact, so a sigma decoder fed the reference
        # encoder's spikes each window holds the detector's last-sent state
        # to the bit, and the two count the same spikes.
        res, sigma, frames = case
        det = sd_detector(res, sigma, theta)
        reference, acc = np.zeros(res.npixels), np.zeros(res.npixels)
        for frame in frames:
            before = det.total_spikes
            det.heatmap(frame)
            spikes = delta_encode(reference, det.blur(frame).ravel(), theta)
            sigma_decode(acc, spikes)
            np.testing.assert_array_equal(acc.view(np.uint64), det.last_sent.ravel().view(np.uint64))
            assert det.total_spikes - before == len(spikes)

    @given(sparse_count_frames(), st.sampled_from([0.0, SD_THETA]) | st.floats(0.0, 2.0))
    @example((CHIP, 1.5, [hand(10, 10), hand(10, 10), empty(), hand(80, 60), empty(), empty()]), SD_THETA)
    @example((CHIP, 1.5, [hand(40, 30), hand(45, 32), hand(70, 5), empty(), hand(0, 64)]), 0.0)
    # Two cells left below theta outside the union, the larger the grid's
    # maximum once the gain's reference has decayed to it.
    @example((CHIP, 1.5, [hand(20, 20, radius=0, count=28) + hand(40, 40, radius=0, count=26),
                          hand(20, 20, radius=0, count=13) + hand(40, 40, radius=0, count=11), empty()]
              + [hand(70, 50, radius=0, count=1)] * 9), 1.0)
    def test_boxed_boundary_is_the_full_grid_encoder(self, case, theta):
        # The detector encodes only the union of this window's blur box and
        # the last one's, and takes the gain's peak from there: last-sent
        # values, spike counts and heatmaps are those of delta_encode over
        # the whole grid followed by the gain's full-grid maximum.
        res, sigma, frames = case
        det = sd_detector(res, sigma, theta)
        reference, gain, total = np.zeros(res.npixels), GainControl(), 0
        for frame in frames:
            heat = det.heatmap(frame)
            total += len(delta_encode(reference, det.blur(frame).ravel(), theta))
            np.testing.assert_array_equal(det.last_sent.ravel().view(np.uint64), reference.view(np.uint64))
            assert det.total_spikes == total
            np.testing.assert_array_equal(heat, gain.normalize(reference.reshape(frame.shape)))

    @given(count_frames())
    def test_zero_theta_matches_dense_forward(self, case):
        res, sigma, frames = case
        det = sd_detector(res, sigma, 0.0)
        for frame in frames:
            det.heatmap(frame)
            want = det.blur(frame)
            np.testing.assert_allclose(det.last_sent, want, rtol=0, atol=1e-12 * max(1.0, want.max()))

    @given(count_frames(), st.floats(1e-3, 2.0))
    def test_output_error_bounded_by_propagated_theta(self, case, theta):
        # One boundary, so the decoded blur is off by less than theta.
        res, sigma, frames = case
        det = sd_detector(res, sigma, theta)
        for frame in frames:
            det.heatmap(frame)
            assert np.abs(det.last_sent - det.blur(frame)).max() < theta

    @given(count_frames(), st.floats(0.0, 2.0))
    def test_constant_input_goes_quiet(self, case, theta):
        res, sigma, frames = case
        det = run_detector(res, sigma, theta, frames)
        before = det.total_spikes
        det.heatmap(frames[-1])
        assert det.total_spikes == before

    @given(count_frames(), st.floats(1e-3, 0.5))
    def test_spike_totals_do_not_increase_with_theta(self, case, theta):
        """Totals are not monotone in theta for every pair: one cell fed
        1.1, 1.8, 0.1, 0.5 spikes once at theta 1.1 and twice at 1.2.  But
        between two spikes at theta2 >= 2 theta1 the input moved by at
        least theta2 while the theta1 decoder stayed within theta1 of it,
        so the theta1 encoder spiked in between; and theta 0 spikes on
        every change."""
        res, sigma, frames = case
        totals = [
            run_detector(res, sigma, th, frames).total_spikes
            for th in (0.0, theta, 2 * theta, 4 * theta)
        ]
        assert totals == sorted(totals, reverse=True)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        res = Resolution(20, 15)
        frames = list(rng.poisson(2.0, (30, 15, 20)))
        a = sd_detector(res, 1.5, 0.05)
        b = sd_detector(res, 1.5, 0.05)
        for frame in frames:
            np.testing.assert_array_equal(a.heatmap(frame), b.heatmap(frame))
        np.testing.assert_array_equal(a.last_sent, b.last_sent)
        assert a.total_spikes == b.total_spikes

    def test_frame_of_another_shape_rejected(self):
        det = sd_detector(Resolution(20, 15), 1.5, 0.02)
        with pytest.raises(ValueError, match=r"got a \(15, 21\) frame for a \(15, 20\) detector"):
            det.heatmap(np.ones((15, 21), dtype=np.int64))
        assert det.total_spikes == 0 and not det.last_sent.any()

    def test_negative_theta_rejected(self):
        # The tracker's theta is a constant, not a config value.
        assert 0.0 <= SD_THETA < np.inf
        for theta in (-1.0, 0.02):
            with pytest.raises(ValueError, match=r"unknown key tracker\.sd_theta"):
                config_from_dict({"seed": 1, "tracker": {"detector": "sd_net", "sd_theta": theta}})
