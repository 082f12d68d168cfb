"""Sigma-delta coding: threshold-coded residual spikes.

A delta encoder sends a graded spike for a neuron only when its
activation has moved at least `theta` away from the last value it sent;
the spike carries the full residual, so a sigma decoder that accumulates
spike values reconstructs the activation to within `theta` at every
step.  With theta = 0 any change at all is sent and the reconstruction
is exact.

The tracker's `SigmaDeltaDetector` sends its blurred count frame through
one such encode/decode boundary (O'Connor & Welling, "Sigma Delta
Quantized Networks", arXiv:1611.02024).  The blur's values are exact, so
the decoder's accumulator is the encoder's last-sent state to the bit.
The detector keeps that state itself: it updates it in place and counts
its spikes only where a window's blur can change it, and builds no spike
batch.  `delta_encode` and `sigma_decode` are the reference pair the
tests check it against, window by window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sigma_decode(accumulator: np.ndarray, spikes: SpikeBatch) -> np.ndarray:
    """Add spike values into the accumulator (in place) and return it."""
    addresses, values = spikes.addresses, spikes.values
    if len(addresses) and (addresses.min() < 0 or addresses.max() >= len(accumulator)):
        raise ValueError("spike address outside accumulator")
    np.add.at(accumulator, addresses, values)
    return accumulator
