"""Sigma-delta spike coding for dense activations.

A delta encoder sends a graded spike for a neuron only when its
activation has moved at least `theta` away from the last value it sent;
the spike carries the full residual, so a sigma decoder that accumulates
spike values reconstructs the activation to within `theta` at every
step.  With theta = 0 any change at all is sent and the reconstruction
is exact.

`SigmaDeltaNetwork` runs a small dense network where every inter-layer
boundary communicates only through this encode/decode pair: layer k
computes its activations from the decoded output of layer k-1, encodes
them, and the next consumer decodes.  Per boundary the reconstruction
adds at most theta of error; a weight matrix W inflates incoming error
by at most its max-absolute-row-sum norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class GradedSpike:
    """Address-value pair; zero-valued spikes are never produced."""

    address: int
    value: float

    def __post_init__(self):
        if self.address < 0:
            raise ValueError(f"negative address {self.address}")
        if self.value == 0:
            raise ValueError("zero-valued spike")


@dataclass
class SpikeBatch:
    """Column view of the spikes one encode step produced."""

    addresses: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self):
        for a, v in zip(self.addresses, self.values):
            yield GradedSpike(int(a), float(v))


@dataclass
class SdState:
    """Per-neuron last-sent values for one encoder."""

    last_sent: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "SdState":
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        return cls(np.zeros(size, dtype=np.float64))

    @property
    def size(self) -> int:
        return len(self.last_sent)


def delta_encode(state: SdState, activations: np.ndarray, theta: float) -> SpikeBatch:
    """Emit residual spikes for neurons that moved >= theta from last_sent.

    theta = 0 means any change spikes.  Updates state in place.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    activations = np.asarray(activations, dtype=np.float64)
    if activations.shape != (state.size,):
        raise ValueError(f"got {activations.shape} activations for size-{state.size} state")
    if not np.all(np.isfinite(activations)):
        raise ValueError("activations must be finite")
    diff = activations - state.last_sent
    if theta > 0:
        mask = np.abs(diff) >= theta
    else:
        mask = diff != 0
    addresses = np.nonzero(mask)[0]
    values = diff[addresses].copy()
    state.last_sent[addresses] = activations[addresses]
    return SpikeBatch(addresses, values)


def sigma_decode(accumulator: np.ndarray, spikes) -> np.ndarray:
    """Add spike values into the accumulator (in place) and return it."""
    if isinstance(spikes, SpikeBatch):
        addresses, values = spikes.addresses, spikes.values
    else:
        pairs = [(s.address, s.value) for s in spikes]
        addresses = np.array([p[0] for p in pairs], dtype=np.int64)
        values = np.array([p[1] for p in pairs], dtype=np.float64)
    if len(addresses) and (addresses.min() < 0 or addresses.max() >= len(accumulator)):
        raise ValueError("spike address outside accumulator")
    np.add.at(accumulator, addresses, values)
    return accumulator


@dataclass
class Layer:
    weights: object  # ndarray or scipy.sparse matrix, shape (out, in)
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if sp.issparse(self.weights):
            if not np.all(np.isfinite(self.weights.data)):
                raise ValueError("non-finite weights")
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if not np.all(np.isfinite(self.weights)):
                raise ValueError("non-finite weights")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.out_size,):
            raise ValueError(f"bias shape {self.bias.shape} vs {self.out_size} outputs")

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        z = self.weights @ x + self.bias
        z = np.asarray(z).ravel()
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return z

    def inf_norm(self) -> float:
        """Max absolute row sum; the per-layer error inflation factor."""
        return float(np.abs(self.weights).sum(axis=1).max())


@dataclass
class DenseNet:
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_size != prev.out_size:
                raise ValueError(
                    f"layer size mismatch: {prev.out_size} outputs into {nxt.in_size} inputs"
                )

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Plain dense forward pass, the reference the spiking path must match."""
        h = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            h = layer.apply(h)
        return h


class SigmaDeltaNetwork:
    """Streaming sigma-delta execution of a DenseNet.

    Keeps one encoder state and one decoder accumulator per layer
    boundary so activations can be fed step by step.
    """

    def __init__(self, net: DenseNet, theta: float):
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.net = net
        self.theta = theta
        self.reset()

    def reset(self) -> None:
        self.states = [SdState.zeros(layer.out_size) for layer in self.net.layers]
        self.accumulators = [np.zeros(layer.out_size) for layer in self.net.layers]

    def step(self, x: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Feed one input vector; returns (decoded output, spikes per layer)."""
        h = np.asarray(x, dtype=np.float64)
        counts = []
        for k, layer in enumerate(self.net.layers):
            a = layer.apply(h)
            spikes = delta_encode(self.states[k], a, self.theta)
            counts.append(len(spikes))
            sigma_decode(self.accumulators[k], spikes)
            h = self.accumulators[k]
        return h.copy(), counts
