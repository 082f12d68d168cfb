"""Two-dimensional neural field with difference-of-Gaussians lateral coupling.

The field is a leaky integrator over a grid of activations u:

    u += (dt / tau) * (-u + h + s + K * f(u) - g_inh * sum(f(u)))

with sigmoid rate function f(u) = 1 / (1 + exp(-beta * u)), a local
excitation / surround inhibition kernel K, and optional global
inhibition g_inh.  K is a difference of two Gaussians, each the outer
product of a 1-D profile g with itself, so K * f(u) is separable: per
Gaussian, a zero-padded 1-D correlation along each axis (K is
symmetric, so correlation equals convolution).  Each such correlation
is a banded matrix, built once per grid shape.
Localized input ignites a self-stabilizing supra-threshold peak; with
g_inh > 0 the field becomes selective and at most one peak survives.

The field runs in integers, as a neuromorphic chip's neurons do:
- u, the input s, h and the tie ramp are int64 counts of 2**-16 (U_ONE
  is 1.0), rounded half to even (`to_units`);
- the kernel's profiles and g_inh are integers in units of 2**-12
  (K_ONE), rounded half to even;
- the rate f(u) is a count of 2**-16 read from a table over u in steps
  of 2**-8, built once per beta: each entry is f at its step rounded
  half to even, and u reads the nearest step.  A resting cell's rate is
  exactly 0, so the lateral term reads only the cells that fire;
- global inhibition is g_inh * sum(f) rounded half up to U_ONE;
- dt / tau is the fraction with denominator at most 2**16 nearest to it
  (exact for ratios such as 1/3 or 1/10), and each step moves u by
  drive * dt / tau rounded away from zero, so a cell with no input and
  no firing neighbour returns exactly to rest and stays there.

The lateral term is two banded float64 products of integers, rounded to
U_ONE after each.  Their partial sums stay below 2**53
(`LateralKernel.max_partial_sum`), so each sum is exact in any order:
the step is the same to the bit on any BLAS, thread count or SIMD path,
and the products on the box of firing cells give what the full grid
gives.

Grids are indexed [row, column] i.e. [y, x].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .events import Resolution

U_ONE = 1 << 16
K_ONE = 1 << 12
RATE_STEP_BITS = 8
EXACT_LIMIT = 1 << 53
# dt / tau is applied as a fraction whose denominator is at most this.
EULER_DEN_MAX = 1 << 16
# The rate table spans |u| < 17 ln 2 / beta in 2**-8 steps: about 386 k
# entries at this least beta, 1.5 k at the tracker's 4.
BETA_MIN = 2.0**-6


def to_units(x) -> np.ndarray:
    """Real values as int64 counts of 2**-16, rounded half to even."""
    return np.rint(np.multiply(x, U_ONE, dtype=np.float64)).astype(np.int64)


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
        if _euler_ratio(self.dt, self.tau)[0] == 0:
            raise ValueError(f"dt / tau must be at least 2**-17, got {self.dt} / {self.tau}")
        if self.h >= 0:
            raise ValueError(f"resting level must be negative, got {self.h}")
        if not self.beta >= BETA_MIN:
            raise ValueError(f"beta must be at least 2**-6, got {self.beta}")
        if self.tie_break < 0:
            raise ValueError("tie_break must be >= 0")


@cache
def _euler_ratio(dt: float, tau: float) -> tuple[int, int]:
    """dt / tau as (numerator, denominator), denominator <= 2**16."""
    # Imported here: fractions loads decimal, which the package import need not pay for.
    from fractions import Fraction

    ratio = (Fraction(dt) / Fraction(tau)).limit_denominator(EULER_DEN_MAX)
    return ratio.numerator, ratio.denominator


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
    amplitude * outer(g, g).  A difference of Gaussians has two terms.
    The field applies each term as the integer profiles
    (amplitude * g, g) and g_inh, rounded to K_ONE units."""

    terms: tuple[tuple[float, np.ndarray], ...]
    g_inh: float = 0.0

    def __post_init__(self):
        lengths = {len(g) if np.ndim(g) == 1 else 0 for _, g in self.terms}
        if len(lengths) != 1 or lengths.pop() % 2 == 0:
            raise ValueError("kernel profiles must be 1-D, of one odd length")
        self.radius = len(self.terms[0][1]) // 2
        self.int_terms = tuple((np.rint(a * g * K_ONE), np.rint(g * K_ONE)) for a, g in self.terms)
        self.g_inh_units = round(self.g_inh * K_ONE)
        if self.max_partial_sum >= EXACT_LIMIT:
            raise ValueError(f"kernel too strong for exact sums: {self.max_partial_sum} >= 2**53")
        self._bands: dict = {}

    @property
    def max_partial_sum(self) -> int:
        """The largest magnitude any partial sum of the lateral term can
        reach, for rates up to U_ONE: the column pass sums rate times
        amplitude * g in units of 2**-28; rounded to U_ONE, the row
        pass sums those times g, over every term."""
        by_cols = [U_ONE * int(np.abs(ag).sum()) for ag, _ in self.int_terms]
        by_rows = sum(-(-c // K_ONE) * int(np.abs(g).sum()) for c, (_, g) in zip(by_cols, self.int_terms))
        return max(*by_cols, by_rows)

    @property
    def weights(self) -> np.ndarray:
        """The 2-D kernel the terms add up to."""
        return sum(a * np.outer(g, g) for a, g in self.terms)

    def bands(self, shape: tuple[int, int]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The integer terms as matrices on an (h, w) grid, built on first
        use: cols stacks _band(amplitude * g, h) of every term, (2h, h)
        for a difference of Gaussians, and rows holds _band(g, w).T, that
        is _band(g[::-1], w), per term.  Term k adds
        (cols @ x)[k*h:(k+1)*h] @ rows[k] to K * x, in units of K_ONE**2."""
        if shape not in self._bands:
            h, w = shape
            cols = np.vstack([_band(ag, h) for ag, _ in self.int_terms])
            rows = tuple(_band(g[::-1], w) for _, g in self.int_terms)
            self._bands[shape] = cols, rows
        return self._bands[shape]


def _band(g: np.ndarray, n: int) -> np.ndarray:
    """The (n, n) matrix of g's zero-padded correlation over n samples:
    _band(g, n) @ x is correlate1d(x, g, mode="constant").  Read-only, and
    built once for the profiles and sizes in recent use, so trackers built
    one after another share their bands."""
    return _band_of(np.asarray(g, dtype=np.float64).tobytes(), n)


@lru_cache(maxsize=16)
def _band_of(g_bytes: bytes, n: int) -> np.ndarray:
    g = np.frombuffer(g_bytes)
    d = np.arange(n)[None, :] - np.arange(n)[:, None] + len(g) // 2
    band = np.where((d >= 0) & (d < len(g)), g[np.clip(d, 0, len(g) - 1)], 0.0)
    band.flags.writeable = False
    return band


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
    """Activations u as int64 counts of 2**-16 (U_ONE is 1.0)."""

    u: np.ndarray
    params: FieldParams

    def __post_init__(self):
        if self.u.dtype != np.int64:
            raise TypeError(f"field state must be int64 counts of 2**-16, got {self.u.dtype}")

    @classmethod
    def at_rest(cls, resolution: Resolution, params: FieldParams | None = None) -> "Field":
        params = params or FieldParams()
        rest = round(params.h * U_ONE)
        return cls(np.full((resolution.height, resolution.width), rest, dtype=np.int64), params)


def _scan_ramp(shape: tuple[int, int]) -> np.ndarray:
    n = shape[0] * shape[1]
    denom = max(n - 1, 1)
    return (np.arange(n, dtype=np.float64) / denom).reshape(shape)


@cache
def _tie_ramp(shape: tuple[int, int], tie_break: float) -> np.ndarray:
    return to_units(tie_break * _scan_ramp(shape))


@cache
def _rate_table(beta: float) -> tuple[int, np.ndarray]:
    """(offset, table): the rate in U_ONE units, as float64 integers, at
    u = k * 2**-8 for k from the last step where it rounds (half to
    even) to 0 to the first where it rounds to U_ONE, with u in 2**-16
    units at table[(u + offset) >> 8], which rounds u to the nearest
    step (halves up).  Built once per beta: a last-bit difference in the
    host's exp moves an entry only where f * 2**16 lies that close to a
    rounding tie."""
    # f rounds to 0 below u = -17 ln 2 / beta, and to U_ONE above its negative.
    n = int(np.ceil(17 * np.log(2) / beta * (1 << RATE_STEP_BITS))) + 1
    ks = np.arange(-n, n + 1)
    with np.errstate(over="ignore"):
        f = np.rint(U_ONE / (1.0 + np.exp(-beta * ks / (1 << RATE_STEP_BITS))))
    lo = int(np.flatnonzero(f > 0)[0]) - 1
    hi = int(np.flatnonzero(f == U_ONE)[0])
    return (1 << (RATE_STEP_BITS - 1)) - (int(ks[lo]) << RATE_STEP_BITS), f[lo : hi + 1]


def _rate(u: np.ndarray, beta: float) -> np.ndarray:
    """f(u) in U_ONE units, as float64 integers, for u in 2**-16 units;
    u past the table's ends reads its end values."""
    offset, table = _rate_table(beta)
    return np.take(table, (u + offset) >> RATE_STEP_BITS, mode="clip")


def _lateral(kernel: LateralKernel, rate: np.ndarray, y0: int, x0: int, shape: tuple[int, int]):
    """K * f in U_ONE units from the rates of a box at (y0, x0) of a grid
    of `shape`, where every rate outside the box is 0: the slices of the
    grid it reaches and the term there.  Only the box's rows and columns
    of the bands enter the products."""
    cols, rows = kernel.bands(shape)
    (h, w), (ny, nx), r = shape, rate.shape, kernel.radius
    ys = slice(max(y0 - r, 0), min(y0 + ny + r, h))
    xs = slice(max(x0 - r, 0), min(x0 + nx + r, w))
    # Column pass for every term at once, rounded from 2**-28 to U_ONE units.
    by_cols = cols[:, y0 : y0 + ny] @ rate
    by_cols *= 1.0 / K_ONE
    np.rint(by_cols, out=by_cols)
    lateral = by_cols[ys] @ rows[0][x0 : x0 + nx, xs]
    for k in range(1, len(rows)):
        lateral += by_cols[k * h :][ys] @ rows[k][x0 : x0 + nx, xs]
    lateral *= 1.0 / K_ONE
    return ys, xs, np.rint(lateral, out=lateral).astype(np.int64)


def field_step(field: Field, s: np.ndarray, kernel: LateralKernel) -> Field:
    """One Euler step of the field dynamics, for input s in int64 counts
    of 2**-16.  Pure: returns a new Field."""
    u, p = field.u, field.params
    if s.shape != u.shape:
        raise ValueError(f"input shape {s.shape} vs field {u.shape}")
    if s.dtype != np.int64:
        raise TypeError(f"input must be int64 counts of 2**-16, got {s.dtype}")
    # drive = s - u + h + K * f(u) - g_inh * sum(f(u)) - tie ramp, in U_ONE units.
    drive = s - u
    drive += round(p.h * U_ONE)
    # Only cells past the table's first entry, where the rate is 0, fire;
    # the rest add nothing.
    onset = (1 << RATE_STEP_BITS) - _rate_table(p.beta)[0]
    ys, xs = np.divmod(np.flatnonzero(u >= onset), u.shape[1])
    if len(ys):
        y0, x0 = ys[0], xs.min()
        rate = _rate(u[y0 : ys[-1] + 1, x0 : xs.max() + 1], p.beta)
        ys, xs, lateral = _lateral(kernel, rate, y0, x0, u.shape)
        drive[ys, xs] += lateral
        if kernel.g_inh_units:
            drive -= (kernel.g_inh_units * int(rate.sum()) + K_ONE // 2) // K_ONE
    if p.tie_break > 0:
        drive -= _tie_ramp(u.shape, p.tie_break)
    # u moves by drive * num / den, rounded away from zero: up where the
    # drive is positive, down (floor division) where it is negative.
    num, den = _euler_ratio(p.dt, p.tau)
    if num > 1:
        drive *= num
    if den > 1:
        np.add(drive, den - 1, out=drive, where=drive > 0)
        drive //= den
    drive += u
    return Field(drive, p)


@dataclass(frozen=True)
class Peak:
    x: float
    y: float
    mass: float


def detect_peaks(
    field: Field, threshold: float = 0.0, min_separation: float = 0.0
) -> list[Peak]:
    """Supra-threshold connected regions reduced to weighted centroids.

    Weights are (u - threshold), in real units, over each 8-connected
    region; regions whose centroids fall closer than min_separation
    merge.  The result is sorted by mass, largest first, ties broken
    row-major.
    """
    if threshold <= field.params.h:
        raise ValueError(
            f"threshold {threshold} must exceed resting level {field.params.h}"
        )
    # u > threshold is u > floor(threshold) in 2**-16 units.
    ys, xs = np.divmod(np.flatnonzero(field.u > math.floor(threshold * U_ONE)), field.u.shape[1])
    if len(ys) == 0:
        return []
    # One pass over the supra-threshold cells sums each region's mass and
    # first moments, indexed by region number.
    region = _regions(ys, xs)
    w = (field.u[ys, xs] - threshold * U_ONE) * (1.0 / U_ONE)
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
