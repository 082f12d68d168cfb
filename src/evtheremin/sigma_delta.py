"""Sigma-delta coding: threshold-coded residual spikes.

A delta encoder sends a graded spike for a neuron only when its
activation has moved at least `theta` away from the last value it sent;
the spike carries the full residual, so a sigma decoder that accumulates
spike values reconstructs the activation to within `theta` at every
step.  With theta = 0 any change at all is sent and the reconstruction
is exact.

The tracker's one detector, `SigmaDeltaDetector`, sends its blurred count
frame through one such boundary (O'Connor & Welling, "Sigma Delta
Quantized Networks", arXiv:1611.02024); `blob` is its theta 0.  The
blur's values are exact, so the decoder's accumulator is the encoder's
last-sent grid to the bit.  The detector keeps that grid itself: it
updates it in place and counts its spikes only where a window's blur can
change it, and builds no spike batch.  `delta_encode`, on a plain array
of last-sent values, and `sigma_decode` are the reference pair the tests
check it against, window by window.
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


def delta_encode(last_sent: np.ndarray, activations: np.ndarray, theta: float) -> SpikeBatch:
    """Emit residual spikes for neurons that moved >= theta from last_sent,
    a 1-D float64 array of one value per neuron, addressed by index.

    theta = 0 means any change spikes.  Updates last_sent in place.
    """
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    activations = np.asarray(activations, dtype=np.float64)
    if activations.shape != last_sent.shape:
        raise ValueError(f"got {activations.shape} activations for {last_sent.shape} last-sent values")
    if not np.all(np.isfinite(activations)):
        raise ValueError("activations must be finite")
    diff = activations - last_sent
    if theta > 0:
        mask = np.abs(diff) >= theta
    else:
        mask = diff != 0
    addresses = np.nonzero(mask)[0]
    values = diff[addresses].copy()
    last_sent[addresses] = activations[addresses]
    return SpikeBatch(addresses, values)


def sigma_decode(accumulator: np.ndarray, spikes: SpikeBatch) -> np.ndarray:
    """Add spike values into the accumulator (in place) and return it."""
    addresses, values = spikes.addresses, spikes.values
    if len(addresses) and (addresses.min() < 0 or addresses.max() >= len(accumulator)):
        raise ValueError("spike address outside accumulator")
    np.add.at(accumulator, addresses, values)
    return accumulator
