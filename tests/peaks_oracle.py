"""Earlier forms of peak detection, kept as the references
`detect_peaks` is tested against.

`detect_peaks` is the form before the one-pass reduction: every region's
mass and first moments come from its own scan of the label grid.
`detect_peaks_full_grid` is the one-pass reduction as it was before
labelling moved to the supra-threshold cells' bounding box: it labels
the whole grid.  Both read the field's int64 state in its units of
2**-16, as `detect_peaks` does."""

import numpy as np
from scipy.ndimage import label

from evtheremin.neural_field import U_ONE, Field, Peak, _merge_close


def detect_peaks(field: Field, threshold: float = 0.0, min_separation: float = 0.0) -> list[Peak]:
    u = field.u / U_ONE
    mask = u > threshold
    labels, n = label(mask, structure=np.ones((3, 3), dtype=int))
    peaks: list[Peak] = []
    for region in range(1, n + 1):
        ys, xs = np.nonzero(labels == region)
        w = u[ys, xs] - threshold
        mass = float(w.sum())
        peaks.append(Peak(float((w * xs).sum() / mass), float((w * ys).sum() / mass), mass))
    if min_separation > 0:
        peaks = _merge_close(peaks, min_separation)
    peaks.sort(key=lambda p: (-p.mass, p.y, p.x))
    return peaks


def detect_peaks_full_grid(field: Field, threshold: float = 0.0, min_separation: float = 0.0) -> list[Peak]:
    mask = field.u > threshold * U_ONE
    labels, n = label(mask, structure=np.ones((3, 3), dtype=int))
    ys, xs = np.nonzero(mask)
    region = labels[ys, xs]
    w = (field.u[ys, xs] - threshold * U_ONE) * (1.0 / U_ONE)
    mass, wx, wy = (np.bincount(region, v, n + 1)[1:] for v in (w, w * xs, w * ys))
    peaks = [Peak(float(x / m), float(y / m), float(m)) for m, x, y in zip(mass, wx, wy)]
    if min_separation > 0:
        peaks = _merge_close(peaks, min_separation)
    peaks.sort(key=lambda p: (-p.mass, p.y, p.x))
    return peaks
