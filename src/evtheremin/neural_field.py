"""Two-dimensional neural field with difference-of-Gaussians lateral coupling.

The field is a leaky integrator over a grid of activations u:

    u += (dt / tau) * (-u + h + s + K * f(u) - g_inh * sum(f(u)))

with sigmoid rate function f(u) = 1 / (1 + exp(-beta * u)), a local
excitation / surround inhibition kernel K, and optional global
inhibition g_inh.  K is a difference of two Gaussians, each the outer
product of a 1-D profile g with itself, so K * f(u) is separable: per
Gaussian, a zero-padded 1-D correlation along each axis (K is
symmetric, so correlation equals convolution).  Each such correlation
is a banded matrix, built once per grid shape, so the lateral term is
one matrix product over the columns of every term at once, then one per
term over the rows.
Localized input ignites a self-stabilizing supra-threshold peak; with
g_inh > 0 the field becomes selective and at most one peak survives.

Grids are indexed [row, column] i.e. [y, x].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import Resolution


@dataclass(frozen=True)
class FieldParams:
    """Integration constants.  tie_break adds a vanishing input ramp that
    favors earlier row-major cells so exactly symmetric inputs still
    resolve deterministically in selective mode."""

    tau: float = 10.0
    h: float = -5.0
    beta: float = 4.0
    dt: float = 1.0
    tie_break: float = 0.0

    def __post_init__(self):
        if self.tau <= 0 or self.dt <= 0:
            raise ValueError("tau and dt must be positive")
        if self.dt > self.tau:
            raise ValueError(f"dt {self.dt} must not exceed tau {self.tau}")
        if self.h >= 0:
            raise ValueError(f"resting level must be negative, got {self.h}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.tie_break < 0:
            raise ValueError("tie_break must be >= 0")


@dataclass(frozen=True)
class KernelParams:
    c_exc: float = 15.0
    sigma_exc: float = 3.0
    c_inh: float = 10.0
    sigma_inh: float = 6.0
    g_inh: float = 0.0

    def __post_init__(self):
        if not (0 < self.sigma_exc < self.sigma_inh):
            raise ValueError(
                f"need 0 < sigma_exc < sigma_inh, got {self.sigma_exc}, {self.sigma_inh}"
            )
        if self.c_exc < 0 or self.c_inh < 0 or self.g_inh < 0:
            raise ValueError("kernel amplitudes and g_inh must be >= 0")


def selective_params() -> tuple[FieldParams, KernelParams]:
    """Winner-take-all regime: global inhibition plus a tiny deterministic
    scan-order bias so exact ties resolve to the earlier cell."""
    return FieldParams(tie_break=0.05), KernelParams(g_inh=1.5)


@dataclass
class LateralKernel:
    """Lateral coupling as a sum of separable terms.  Each term is a
    signed amplitude and an odd-length 1-D profile g; it contributes
    amplitude * outer(g, g).  A difference of Gaussians has two terms."""

    terms: tuple[tuple[float, np.ndarray], ...]
    g_inh: float = 0.0

    def __post_init__(self):
        lengths = {len(g) if np.ndim(g) == 1 else 0 for _, g in self.terms}
        if len(lengths) != 1 or lengths.pop() % 2 == 0:
            raise ValueError("kernel profiles must be 1-D, of one odd length")
        self._bands: dict = {}

    @property
    def weights(self) -> np.ndarray:
        """The 2-D kernel the terms add up to."""
        return sum(a * np.outer(g, g) for a, g in self.terms)

    def bands(self, shape: tuple[int, int]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The terms as matrices on an (h, w) grid, built on first use:
        cols stacks a * _band(g, h) of every term, (2h, h) for a
        difference of Gaussians, and rows holds _band(g, w).T per term.
        Term k adds (cols @ x)[k*h:(k+1)*h] @ rows[k] to K * x."""
        if shape not in self._bands:
            h, w = shape
            cols = np.vstack([a * _band(g, h) for a, g in self.terms])
            rows = tuple(np.ascontiguousarray(_band(g, w).T) for _, g in self.terms)
            self._bands[shape] = cols, rows
        return self._bands[shape]


def _band(g: np.ndarray, n: int) -> np.ndarray:
    """The (n, n) matrix of g's zero-padded correlation over n samples:
    _band(g, n) @ x is correlate1d(x, g, mode="constant")."""
    d = np.arange(n)[None, :] - np.arange(n)[:, None] + len(g) // 2
    return np.where((d >= 0) & (d < len(g)), g[np.clip(d, 0, len(g) - 1)], 0.0)


def make_kernel(params: KernelParams, radius: int | None = None) -> LateralKernel:
    """Difference-of-Gaussians interaction kernel on a (2r+1)^2 grid."""
    if radius is None:
        radius = int(np.ceil(3.0 * params.sigma_inh))
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    ax2 = np.arange(-radius, radius + 1, dtype=np.float64) ** 2
    terms = (
        (params.c_exc, np.exp(-ax2 / (2 * params.sigma_exc**2))),
        (-params.c_inh, np.exp(-ax2 / (2 * params.sigma_inh**2))),
    )
    return LateralKernel(terms, params.g_inh)


@dataclass
class Field:
    u: np.ndarray
    params: FieldParams

    @classmethod
    def at_rest(cls, resolution: Resolution, params: FieldParams | None = None) -> "Field":
        params = params or FieldParams()
        u = np.full((resolution.height, resolution.width), params.h, dtype=np.float64)
        return cls(u, params)


def _scan_ramp(shape: tuple[int, int]) -> np.ndarray:
    n = shape[0] * shape[1]
    denom = max(n - 1, 1)
    return (np.arange(n, dtype=np.float64) / denom).reshape(shape)


def _rate(u: np.ndarray, beta: float) -> np.ndarray:
    """f(u) = 1 / (1 + exp(-beta u)), in one new buffer.  Where -beta u
    passes 709, exp overflows to inf and f is exactly 0.0."""
    f = -beta * u
    with np.errstate(over="ignore", under="ignore"):
        np.exp(f, out=f)
        f += 1.0
        return np.divide(1.0, f, out=f)


def field_step(field: Field, s: np.ndarray, kernel: LateralKernel) -> Field:
    """One Euler step of the field dynamics.  Pure: returns a new Field."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != field.u.shape:
        raise ValueError(f"input shape {s.shape} vs field {field.u.shape}")
    p = field.params
    rate = _rate(field.u, p.beta)
    # K * f(u): every term's scaled column pass in one product, then each
    # term's row pass on its own block of rows, summed in term order.
    cols, rows = kernel.bands(rate.shape)
    h = rate.shape[0]
    by_cols = cols @ rate
    lateral = by_cols[:h] @ rows[0]
    for k in range(1, len(rows)):
        lateral += by_cols[k * h : (k + 1) * h] @ rows[k]
    # drive = ((-u + h) + s) + lateral in that order, in one buffer (h - u
    # is -u + h to the bit); zero global inhibition would subtract 0.0.
    u_new = np.subtract(p.h, field.u)
    u_new += s
    u_new += lateral
    if kernel.g_inh:
        u_new -= kernel.g_inh * rate.sum()
    if p.tie_break > 0:
        u_new -= p.tie_break * _scan_ramp(field.u.shape)
    u_new *= p.dt / p.tau
    u_new += field.u
    return Field(u_new, p)


@dataclass(frozen=True)
class Peak:
    x: float
    y: float
    mass: float


def detect_peaks(
    field: Field, threshold: float = 0.0, min_separation: float = 0.0
) -> list[Peak]:
    """Supra-threshold connected regions reduced to weighted centroids.

    Weights are (u - threshold) over each 8-connected region; regions
    whose centroids fall closer than min_separation merge.  The result
    is sorted by mass, largest first, ties broken row-major.
    """
    if threshold <= field.params.h:
        raise ValueError(
            f"threshold {threshold} must exceed resting level {field.params.h}"
        )
    mask = field.u > threshold
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return []
    # One pass over the supra-threshold cells sums each region's mass and
    # first moments, indexed by region number.
    region = _regions(ys, xs)
    w = field.u[ys, xs] - threshold
    mass, wx, wy = (np.bincount(region, v) for v in (w, w * xs, w * ys))
    peaks = [Peak(float(x / m), float(y / m), float(m)) for m, x, y in zip(mass, wx, wy)]
    if min_separation > 0:
        peaks = _merge_close(peaks, min_separation)
    peaks.sort(key=lambda p: (-p.mass, p.y, p.x))
    return peaks


def _regions(ys: np.ndarray, xs: np.ndarray) -> list[int]:
    """The 8-connected region of each cell (ys, xs), given in raster
    order, numbered from 0 in the raster order of each region's first
    cell: for the cells of a mask, `label(mask, np.ones((3, 3)))[0][mask]
    - 1` with scipy.ndimage's `label`.

    Row runs are labelled in two scans (He, Chao & Suzuki, IEEE TIP
    2008): a run joins every run of the row above whose columns touch or
    overlap its own, under the earliest run; then each run takes its
    root's number."""
    runs: list[list[int]] = []  # [row, first column, last column + 1]
    run_of = []
    for y, x in zip(ys.tolist(), xs.tolist()):
        if runs and runs[-1][0] == y and runs[-1][2] == x:
            runs[-1][2] += 1
        else:
            runs.append([y, x, x + 1])
        run_of.append(len(runs) - 1)
    root = list(range(len(runs)))
    for j, (y, c0, c1) in enumerate(runs):
        for i in range(j - 1, -1, -1):
            if runs[i][0] < y - 1:
                break
            if runs[i][0] == y - 1 and runs[i][1] <= c1 and c0 <= runs[i][2]:
                a, b = i, j
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                root[max(a, b)] = min(a, b)
    for k, r in enumerate(root):
        root[k] = root[r]
    number = {r: n for n, r in enumerate(sorted(set(root)))}
    return [number[root[r]] for r in run_of]


def _merge_close(peaks: list[Peak], min_separation: float) -> list[Peak]:
    peaks = list(peaks)
    while len(peaks) > 1:
        best = None
        for i in range(len(peaks)):
            for j in range(i + 1, len(peaks)):
                d = float(np.hypot(peaks[i].x - peaks[j].x, peaks[i].y - peaks[j].y))
                if d < min_separation and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        a, b = peaks[i], peaks[j]
        m = a.mass + b.mass
        merged = Peak((a.x * a.mass + b.x * b.mass) / m, (a.y * a.mass + b.y * b.mass) / m, m)
        peaks = [p for k, p in enumerate(peaks) if k not in (i, j)] + [merged]
    return peaks


def field_to_pgm(field: Field) -> bytes:
    """Render activations as a 16-bit binary PGM (maxval 65535, big-endian
    samples per the format).  Linear scale over the field's value range."""
    u = field.u
    lo, hi = float(u.min()), float(u.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((u - lo) / span * 65535.0).astype(">u2")
    h, w = u.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    return header + scaled.tobytes()
