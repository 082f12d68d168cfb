"""Sigma-delta encode/decode pair and the streaming network runner."""

import numpy as np
import pytest
import scipy.sparse as sp

from evtheremin.sigma_delta import (
    DenseNet,
    GradedSpike,
    Layer,
    SdState,
    SigmaDeltaNetwork,
    SpikeBatch,
    delta_encode,
    sigma_decode,
)


class TestDeltaEncode:
    def test_hand_stepped_walkthrough(self):
        # theta 0.5 on the scalar path 0 -> 0.3 -> 0.9 -> 1.0
        state = SdState.zeros(1)
        acc = np.zeros(1)

        out = delta_encode(state, [0.3], 0.5)
        assert len(out) == 0  # moved only 0.3, below threshold
        sigma_decode(acc, out)
        assert acc[0] == 0.0

        out = delta_encode(state, [0.9], 0.5)
        assert len(out) == 1
        assert list(out) == [GradedSpike(0, 0.9)]
        sigma_decode(acc, out)
        assert acc[0] == 0.9

        out = delta_encode(state, [1.0], 0.5)
        assert len(out) == 0  # only 0.1 past the last sent value
        sigma_decode(acc, out)
        assert abs(1.0 - acc[0]) < 0.5

    def test_threshold_boundary_is_inclusive(self):
        state = SdState.zeros(1)
        assert len(delta_encode(state, [0.5], 0.5)) == 1
        state = SdState.zeros(1)
        assert len(delta_encode(state, [0.5 - 1e-12], 0.5)) == 0

    def test_zero_theta_sends_every_change(self):
        state = SdState.zeros(3)
        out = delta_encode(state, [1e-300, 0.0, -2.0], 0.0)
        assert list(out.addresses) == [0, 2]
        out = delta_encode(state, [1e-300, 0.0, -2.0], 0.0)
        assert len(out) == 0

    def test_reconstruction_error_stays_below_theta(self):
        rng = np.random.default_rng(0)
        for theta in (0.1, 0.5, 2.0):
            state = SdState.zeros(8)
            acc = np.zeros(8)
            x = np.zeros(8)
            for _ in range(200):
                x = x + rng.normal(0, 1, 8)
                sigma_decode(acc, delta_encode(state, x, theta))
                assert np.abs(acc - x).max() < theta

    def test_spike_values_carry_full_residual(self):
        # after a spike the decoded value matches the activation to rounding
        rng = np.random.default_rng(1)
        state = SdState.zeros(4)
        acc = np.zeros(4)
        for _ in range(50):
            x = rng.uniform(-10, 10, 4)
            out = delta_encode(state, x, 0.5)
            sigma_decode(acc, out)
            for a in out.addresses:
                assert acc[a] == pytest.approx(x[a], rel=1e-12, abs=1e-12)

    def test_errors(self):
        state = SdState.zeros(2)
        with pytest.raises(ValueError):
            delta_encode(state, [1.0, 2.0], -0.1)
        with pytest.raises(ValueError):
            delta_encode(state, [1.0], 0.5)
        with pytest.raises(ValueError):
            delta_encode(state, [np.nan, 0.0], 0.5)
        with pytest.raises(ValueError):
            SdState.zeros(0)


class TestSigmaDecode:
    def test_accumulates_in_place(self):
        acc = np.zeros(3)
        got = sigma_decode(acc, SpikeBatch(np.array([1, 1]), np.array([2.0, 0.5])))
        assert got is acc
        assert list(acc) == [0.0, 2.5, 0.0]

    def test_accepts_spike_list(self):
        acc = np.zeros(2)
        sigma_decode(acc, [GradedSpike(0, -1.5)])
        assert acc[0] == -1.5

    def test_address_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_decode(np.zeros(2), SpikeBatch(np.array([2]), np.array([1.0])))

    def test_spike_validation(self):
        with pytest.raises(ValueError):
            GradedSpike(-1, 1.0)
        with pytest.raises(ValueError):
            GradedSpike(0, 0.0)


def tiny_net(seed=0, sizes=(6, 5, 4)):
    rng = np.random.default_rng(seed)
    layers = []
    for nin, nout in zip(sizes, sizes[1:]):
        layers.append(
            Layer(rng.normal(0, 0.7, (nout, nin)), rng.normal(0, 0.3, nout), "relu")
        )
    return DenseNet(layers)


class TestLayerAndNet:
    def test_relu_and_identity(self):
        layer = Layer(np.array([[1.0, -1.0]]), np.array([0.0]), "relu")
        assert layer.apply(np.array([1.0, 3.0]))[0] == 0.0
        layer = Layer(np.array([[1.0, -1.0]]), np.array([0.0]), "identity")
        assert layer.apply(np.array([1.0, 3.0]))[0] == -2.0

    def test_inf_norm_is_max_abs_row_sum(self):
        layer = Layer(np.array([[1.0, -2.0], [0.5, 0.25]]), np.zeros(2))
        assert layer.inf_norm() == 3.0

    def test_sparse_weights_match_dense(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (4, 6))
        w[np.abs(w) < 0.8] = 0.0
        dense = Layer(w, np.zeros(4))
        sparse = Layer(sp.csr_matrix(w), np.zeros(4))
        x = rng.normal(0, 1, 6)
        np.testing.assert_allclose(sparse.apply(x), dense.apply(x))
        assert sparse.inf_norm() == dense.inf_norm()

    def test_validation(self):
        with pytest.raises(ValueError):
            Layer(np.zeros((2, 2)), np.zeros(2), "tanh")
        with pytest.raises(ValueError):
            Layer(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            Layer(np.array([[np.inf]]), np.zeros(1))
        with pytest.raises(ValueError):
            DenseNet([])
        with pytest.raises(ValueError):
            DenseNet([Layer(np.zeros((3, 2)), np.zeros(3)),
                      Layer(np.zeros((2, 4)), np.zeros(2))])


class TestSigmaDeltaNetwork:
    def test_zero_theta_matches_dense_forward(self):
        net = tiny_net(3)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-10, 10, (40, net.in_size))
        runner = SigmaDeltaNetwork(net, 0.0)
        for x in xs:
            out, _ = runner.step(x)
            ref = net.forward(x)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(out - ref).max() / scale <= 1e-9

    def test_output_error_bounded_by_propagated_theta(self):
        # boundary k adds < theta; the next weight matrix inflates what it
        # receives by at most its max-abs-row-sum
        net = tiny_net(5)
        theta = 0.5
        bound = theta * (net.layers[1].inf_norm() + 1.0)
        rng = np.random.default_rng(6)
        runner = SigmaDeltaNetwork(net, theta)
        x = np.zeros(net.in_size)
        for _ in range(100):
            x = x + rng.normal(0, 0.8, net.in_size)
            out, _ = runner.step(x)
            assert np.abs(out - net.forward(x)).max() < bound

    def test_constant_input_goes_quiet(self):
        net = tiny_net(7)
        runner = SigmaDeltaNetwork(net, 0.1)
        x = np.full(net.in_size, 2.0)
        runner.step(x)
        for _ in range(5):
            _, counts = runner.step(x)
            assert counts == [0, 0]

    def test_spike_totals_do_not_increase_with_theta(self):
        net = tiny_net(8)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-10, 10, (60, net.in_size))
        totals = []
        for theta in (0.0, 0.1, 0.5, 2.0):
            runner = SigmaDeltaNetwork(net, theta)
            totals.append(sum(sum(runner.step(x)[1]) for x in xs))
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_deterministic(self):
        net = tiny_net(10)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-5, 5, (30, net.in_size))
        runner_a, runner_b = SigmaDeltaNetwork(net, 0.5), SigmaDeltaNetwork(net, 0.5)
        for x in xs:
            out_a, counts_a = runner_a.step(x)
            out_b, counts_b = runner_b.step(x)
            assert counts_a == counts_b
            np.testing.assert_array_equal(out_a, out_b)

    def test_reset_restores_initial_state(self):
        net = tiny_net(12)
        runner = SigmaDeltaNetwork(net, 0.5)
        x = np.full(net.in_size, 3.0)
        _, first = runner.step(x)
        runner.reset()
        _, again = runner.step(x)
        assert first == again

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            SigmaDeltaNetwork(tiny_net(), -1.0)

