"""Lateral-interaction field: kernel construction, Euler dynamics, peak
detection, and the PGM dump."""

import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import correlate1d, label
from scipy.signal import convolve2d
from scipy.special import expit

import evtheremin
import field_oracle
import peaks_oracle
from evtheremin.events import Resolution
from evtheremin.neural_field import (
    Field,
    FieldParams,
    KernelParams,
    LateralKernel,
    _rate,
    _regions,
    detect_peaks,
    field_step,
    field_to_pgm,
    make_kernel,
    selective_params,
)
from evtheremin.tracker import tracker_field_params

CHIP = Resolution(86, 65)


def gaussian_input(res, cx, cy, amp=6.0, sigma=2.0):
    ys, xs = np.mgrid[0 : res.height, 0 : res.width]
    return amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))


def run_steps(field, s, kernel, n):
    for _ in range(n):
        field = field_step(field, s, kernel)
    return field


class TestParams:
    def test_field_param_validation(self):
        with pytest.raises(ValueError):
            FieldParams(tau=0)
        with pytest.raises(ValueError):
            FieldParams(dt=0)
        with pytest.raises(ValueError):
            FieldParams(tau=1.0, dt=2.0)
        with pytest.raises(ValueError):
            FieldParams(h=0.0)
        with pytest.raises(ValueError):
            FieldParams(beta=-1.0)
        with pytest.raises(ValueError):
            FieldParams(tie_break=-0.1)

    def test_kernel_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(sigma_exc=6.0, sigma_inh=3.0)
        with pytest.raises(ValueError):
            KernelParams(sigma_exc=3.0, sigma_inh=3.0)
        with pytest.raises(ValueError):
            KernelParams(c_exc=-1.0)
        with pytest.raises(ValueError):
            KernelParams(g_inh=-0.5)

    def test_presets(self):
        fp, kp = selective_params()
        assert kp.g_inh > 0.0 and fp.tie_break > 0.0


class TestMakeKernel:
    def test_center_value_is_amplitude_difference(self):
        k = make_kernel(KernelParams())
        r = k.weights.shape[0] // 2
        assert k.weights[r, r] == pytest.approx(15.0 - 10.0)

    def test_default_radius_covers_three_inhibitory_sigmas(self):
        k = make_kernel(KernelParams(sigma_inh=6.0))
        assert k.weights.shape == (37, 37)

    def test_radially_symmetric(self):
        k = make_kernel(KernelParams(), radius=8).weights
        np.testing.assert_allclose(k, k[::-1, :])
        np.testing.assert_allclose(k, k[:, ::-1])
        np.testing.assert_allclose(k, k.T)

    def test_excitatory_center_inhibitory_surround(self):
        k = make_kernel(KernelParams()).weights
        r = k.shape[0] // 2
        assert k[r, r] > 0
        assert k[r, r + 10] < 0

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            LateralKernel(((1.0, np.zeros(4)),))
        with pytest.raises(ValueError):
            LateralKernel(((1.0, np.zeros(5)), (-1.0, np.zeros(7))))
        with pytest.raises(ValueError):
            LateralKernel(((1.0, np.zeros((5, 5))),))
        with pytest.raises(ValueError):
            make_kernel(KernelParams(), radius=0)


class TestFieldBasics:
    def test_at_rest(self):
        f = Field.at_rest(CHIP)
        assert f.u.shape == (65, 86)
        assert np.all(f.u == -5.0)

    def test_rate_is_sigmoid_of_activation(self):
        # No lateral term and dt == tau: one step leaves h - g_inh * sum(f(u)).
        f = Field.at_rest(Resolution(4, 3), FieldParams(tau=1.0, dt=1.0, beta=4.0))
        kernel = LateralKernel(((0.0, np.ones(1)),), g_inh=1.0)
        f.u[:] = 0.0
        assert np.all(field_step(f, np.zeros((3, 4)), kernel).u == -5.0 - 12 * 0.5)
        f.u[:] = 2.0
        assert field_step(f, np.zeros((3, 4)), kernel).u[0, 0] == pytest.approx(-5.0 - 12 * expit(8.0))

    def test_rate_within_4_ulp_of_expit(self):
        # numpy's SIMD exp, where the CPU has one, may be 1 ulp off libm's;
        # where 1 + exp(-u) lies just above 2**53 (u near -36.8) the sum's
        # rounding adds to that, and the reciprocal of a denominator just
        # above a power of two doubles the count.  With libm's exp the two
        # are equal.
        u = np.concatenate([np.linspace(-800.0, 800.0, 1_600_001), np.linspace(-37.5, -36.0, 300_001)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _rate(u, 1.0)
        ulps = np.abs(got.view(np.int64) - expit(u).view(np.int64))
        assert ulps.max() <= 4
        assert got[0] == 0.0 and got[1_600_000] == 1.0

    def test_step_is_pure(self):
        f = Field.at_rest(Resolution(10, 8))
        before = f.u.copy()
        kernel = make_kernel(KernelParams(), radius=2)
        g = field_step(f, np.ones((8, 10)), kernel)
        np.testing.assert_array_equal(f.u, before)
        assert g is not f

    def test_input_shape_checked(self):
        f = Field.at_rest(Resolution(10, 8))
        kernel = make_kernel(KernelParams(), radius=2)
        with pytest.raises(ValueError):
            field_step(f, np.ones((10, 8)), kernel)


def reference_step(field, s, kernel):
    """field_step with the 2-D kernel applied by one zero-padded
    convolve2d, as the tracker did before the separable passes."""
    p = field.params
    rate = expit(p.beta * field.u)
    lateral = convolve2d(rate, kernel.weights, mode="same", boundary="fill", fillvalue=0.0)
    drive = -field.u + p.h + s + lateral - kernel.g_inh * rate.sum()
    n = field.u.size
    ramp = (np.arange(n, dtype=np.float64) / max(n - 1, 1)).reshape(field.u.shape)
    return field.u + (p.dt / p.tau) * (drive - p.tie_break * ramp)


@st.composite
def kernel_params(draw):
    sigma_exc = draw(st.floats(0.3, 5.0))
    return KernelParams(
        c_exc=draw(st.floats(0.0, 20.0)),
        sigma_exc=sigma_exc,
        c_inh=draw(st.floats(0.0, 20.0)),
        sigma_inh=draw(st.floats(sigma_exc + 0.1, 8.0)),
        g_inh=draw(st.floats(0.0, 2.0)),
    )


class TestSeparableStep:
    @settings(deadline=None)
    @given(
        kernel_params(),
        st.one_of(st.none(), st.integers(1, 12)),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.0, 0.1),
        st.integers(0, 2**32 - 1),
    )
    @example(KernelParams(), 12, 1, 1, 0.0, 0)
    @example(KernelParams(), 12, 8, 10, 0.05, 1)
    def test_matches_2d_convolution(self, kp, radius, height, width, tie_break, seed):
        rng = np.random.default_rng(seed)
        f = Field(rng.uniform(-10.0, 5.0, (height, width)), FieldParams(tie_break=tie_break))
        s = rng.uniform(0.0, 15.0, (height, width))
        kernel = make_kernel(kp, radius)
        # Rates are at most 1, so no lateral input exceeds the kernel's
        # absolute mass; both forms round at that scale.
        tol = 1e-12 * max(1.0, float(np.abs(kernel.weights).sum()))
        np.testing.assert_allclose(
            field_step(f, s, kernel).u, reference_step(f, s, kernel), rtol=0, atol=tol
        )

    @pytest.mark.parametrize("height, width", [(1, 1), (8, 10)])
    def test_bands_equal_correlate1d_of_an_impulse(self, height, width):
        # Radius 12 is wider than either grid, so every band is cut at both edges.
        kernel = make_kernel(KernelParams(), 12)
        cols, rows = kernel.bands((height, width))
        assert cols.shape == (2 * height, height)
        for k, (a, g) in enumerate(kernel.terms):
            # Column j of a band is the correlation of the impulse at j.
            by_col, by_row = (correlate1d(np.eye(n), g, axis=0, mode="constant") for n in (height, width))
            np.testing.assert_array_equal(cols[k * height : (k + 1) * height], a * by_col)
            np.testing.assert_array_equal(rows[k], by_row.T)

    @settings(deadline=None)
    @given(
        st.sampled_from([tracker_field_params(), selective_params()]),
        st.sampled_from([0.0, 1.5]),
        st.sampled_from([0.0, 0.05]),
        st.integers(1, 65),
        st.integers(1, 86),
        st.integers(0, 2**32 - 1),
    )
    @example(tracker_field_params(), 0.0, 0.0, 65, 86, 0)
    @example(selective_params(), 1.5, 0.05, 65, 86, 1)
    def test_bit_equal_to_expression_oracle(self, preset, g_inh, tie_break, height, width, seed):
        # The step's arithmetic runs in one buffer in the expression's
        # order, and skips global inhibition only where it is zero.
        fp, kp = preset
        fp, kernel = replace(fp, tie_break=tie_break), make_kernel(replace(kp, g_inh=g_inh))
        rng = np.random.default_rng(seed)
        got = want = Field(rng.uniform(-10.0, 5.0, (height, width)), fp)
        for _ in range(3):
            s = rng.uniform(0.0, 15.0, (height, width))
            got, want = field_step(got, s, kernel), field_oracle.field_step(want, s, kernel)
            np.testing.assert_array_equal(got.u.view(np.uint64), want.u.view(np.uint64))

    @pytest.mark.parametrize("module", ["scipy", "scipy.signal", "scipy.sparse"])
    def test_import_leaves_module_unloaded(self, module):
        src = str(Path(evtheremin.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import evtheremin; "
            "print(sorted(m for m in sys.modules if m.startswith(sys.argv[2])))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, src, module], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestLinearizedDynamics:
    """With a zero-amplitude kernel the update is a scalar leaky
    integrator, so the fixed point and decay rate have closed forms."""

    def kernel(self):
        return make_kernel(KernelParams(c_exc=0.0, c_inh=0.0), radius=2)

    def test_fixed_point_is_rest_plus_input(self):
        params = FieldParams(tau=10, h=-5, dt=1)
        res = Resolution(6, 5)
        f = Field.at_rest(res, params)
        s = np.full((5, 6), 2.0)
        f = run_steps(f, s, self.kernel(), 400)
        np.testing.assert_allclose(f.u, -3.0, atol=1e-12)

    def test_geometric_decay_ratio(self):
        params = FieldParams(tau=10, h=-5, dt=1)
        f = Field.at_rest(Resolution(6, 5), params)
        f.u[2, 2] = 3.0
        zero = np.zeros((5, 6))
        g = field_step(f, zero, self.kernel())
        gg = field_step(g, zero, self.kernel())
        # deviation from rest shrinks by exactly (1 - dt/tau) per step
        assert (g.u[2, 2] + 5.0) == pytest.approx(0.9 * 8.0)
        assert (gg.u[2, 2] + 5.0) == pytest.approx(0.9**2 * 8.0)


class TestPeakDynamics:
    def test_localized_input_ignites_then_self_sustains(self):
        fp, kp = FieldParams(), KernelParams()
        kernel = make_kernel(kp)
        s = gaussian_input(CHIP, 43, 32)
        f = run_steps(Field.at_rest(CHIP, fp), s, kernel, 150)
        peaks = detect_peaks(f, threshold=0.0)
        assert len(peaks) == 1
        assert np.hypot(peaks[0].x - 43, peaks[0].y - 32) < 2.0

        # drop the input to 20 percent; the peak must hold its position
        f = run_steps(f, 0.2 * s, kernel, 60)
        peaks = detect_peaks(f, threshold=0.0)
        assert len(peaks) == 1
        assert np.hypot(peaks[0].x - 43, peaks[0].y - 32) < 2.0

    def test_single_step_impulse_never_ignites(self):
        fp, kp = FieldParams(), KernelParams()
        kernel = make_kernel(kp)
        s = gaussian_input(CHIP, 43, 32)
        f = field_step(Field.at_rest(CHIP, fp), s, kernel)
        zero = np.zeros((CHIP.height, CHIP.width))
        horizon = int(5 * fp.tau / fp.dt)
        for _ in range(horizon):
            f = field_step(f, zero, kernel)
            assert not detect_peaks(f, threshold=0.0)

    def test_two_distant_peaks_coexist_without_global_inhibition(self):
        fp, kp = FieldParams(), KernelParams(g_inh=0.0)
        kernel = make_kernel(kp)
        s = gaussian_input(CHIP, 20, 32) + gaussian_input(CHIP, 60, 32)
        f = run_steps(Field.at_rest(CHIP, fp), s, kernel, 150)
        peaks = detect_peaks(f, threshold=0.0, min_separation=6.0)
        assert len(peaks) == 2
        xs = sorted(p.x for p in peaks)
        assert abs(xs[0] - 20) < 2.0 and abs(xs[1] - 60) < 2.0

    def test_global_inhibition_selects_single_winner(self):
        fp, kp = selective_params()
        kernel = make_kernel(kp)
        s = gaussian_input(CHIP, 20, 32) + gaussian_input(CHIP, 60, 32)
        f = run_steps(Field.at_rest(CHIP, fp), s, kernel, 120)
        peaks = detect_peaks(f, threshold=0.0, min_separation=6.0)
        assert len(peaks) == 1
        # equal inputs: the scan-order bias must pick the earlier cell
        assert abs(peaks[0].x - 20) < 2.0 and abs(peaks[0].y - 32) < 2.0

    def test_interior_translation_equivariance(self):
        fp, kp = FieldParams(), KernelParams()
        kernel = make_kernel(kp)
        base = run_steps(
            Field.at_rest(CHIP, fp), gaussian_input(CHIP, 30, 25), kernel, 120
        )
        moved = run_steps(
            Field.at_rest(CHIP, fp), gaussian_input(CHIP, 35, 28), kernel, 120
        )
        p0 = detect_peaks(base, threshold=0.0)[0]
        p1 = detect_peaks(moved, threshold=0.0)[0]
        assert p1.x - p0.x == pytest.approx(5.0, abs=0.05)
        assert p1.y - p0.y == pytest.approx(3.0, abs=0.05)


class TestDetectPeaks:
    def constructed(self, bumps, res=Resolution(40, 30)):
        f = Field.at_rest(res)
        ys, xs = np.mgrid[0 : res.height, 0 : res.width]
        for cx, cy, amp in bumps:
            f.u = f.u + amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * 2.0**2))
        return f

    def test_centroids_within_half_cell(self):
        f = self.constructed([(10.0, 10.0, 9.0), (30.0, 20.0, 9.0)])
        peaks = detect_peaks(f, threshold=0.0)
        assert len(peaks) == 2
        got = sorted((p.x, p.y) for p in peaks)
        for (gx, gy), (ex, ey) in zip(got, [(10.0, 10.0), (30.0, 20.0)]):
            assert abs(gx - ex) <= 0.5 and abs(gy - ey) <= 0.5

    def test_sorted_by_mass_descending(self):
        f = self.constructed([(10.0, 10.0, 6.0), (30.0, 20.0, 12.0)])
        peaks = detect_peaks(f, threshold=0.0)
        assert peaks[0].mass > peaks[1].mass
        assert abs(peaks[0].x - 30.0) < 1.0

    def test_close_centroids_merge(self):
        f = self.constructed([(14.0, 10.0, 9.0), (20.0, 10.0, 9.0)])
        apart = detect_peaks(f, threshold=0.0, min_separation=0.0)
        merged = detect_peaks(f, threshold=0.0, min_separation=10.0)
        if len(apart) == 2:
            assert len(merged) == 1
            assert abs(merged[0].x - 17.0) < 1.0
            assert merged[0].mass == pytest.approx(sum(p.mass for p in apart))

    def test_diagonal_cells_are_one_region(self):
        f = Field.at_rest(Resolution(8, 8))
        f.u[2, 2] = 1.0
        f.u[3, 3] = 1.0
        assert len(detect_peaks(f, threshold=0.0)) == 1

    def test_threshold_must_exceed_resting_level(self):
        f = Field.at_rest(Resolution(8, 8))
        with pytest.raises(ValueError):
            detect_peaks(f, threshold=-5.0)

    def test_empty_when_subthreshold(self):
        assert detect_peaks(Field.at_rest(Resolution(8, 8)), threshold=0.0) == []

    @settings(deadline=None)
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(-4.0, 3.0),
        st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_per_region_oracle(self, height, width, threshold, min_separation, seed):
        # Random activations on either side of the threshold make many
        # regions of every size, and ties in mass or distance have
        # probability zero.
        rng = np.random.default_rng(seed)
        f = Field(rng.uniform(-5.0, 5.0, (height, width)), FieldParams())
        got = detect_peaks(f, threshold, min_separation)
        want = peaks_oracle.detect_peaks(f, threshold, min_separation)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_allclose([g.x, g.y, g.mass], [w.x, w.y, w.mass], rtol=1e-9, atol=0)

    @settings(deadline=None)
    @given(
        st.integers(1, 65),
        st.integers(1, 86),
        st.lists(
            st.tuples(st.integers(0, 85), st.integers(0, 64), st.floats(0.0, 12.0), st.floats(0.3, 3.0)),
            max_size=4,
        ),
        st.floats(-4.0, 3.0),
        st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
    )
    @example(65, 86, [], 0.0, 6.0)
    @example(65, 86, [(20, 30, 4.0, 2.0), (60, 10, 4.5, 1.0)], 0.0, 6.0)
    @example(65, 86, [(0, 0, 9.0, 1.5), (85, 64, 9.0, 1.5)], 0.0, 6.0)
    @example(65, 86, [(85, 0, 9.0, 2.0), (0, 64, 7.0, 1.0), (40, 0, 8.0, 2.5), (0, 30, 8.0, 0.5)], 0.0, 0.0)
    @example(65, 86, [(85, 30, 9.0, 2.0), (40, 64, 9.0, 3.0), (42, 60, 9.0, 1.0)], 0.0, 6.0)
    def test_equals_full_grid_labelling(self, height, width, bumps, threshold, min_separation):
        # A field at rest with a few bumps, any of which may sit on the
        # border or stay below threshold: labelling on the bounding box of
        # the supra-threshold cells gives exactly the full grid's peaks.
        f = Field.at_rest(Resolution(width, height))
        ys, xs = np.mgrid[0:height, 0:width]
        for cx, cy, amp, sigma in bumps:
            f.u = f.u + amp * np.exp(-((xs - cx % width) ** 2 + (ys - cy % height) ** 2) / (2 * sigma**2))
        got = detect_peaks(f, threshold, min_separation)
        assert got == peaks_oracle.detect_peaks_full_grid(f, threshold, min_separation)


    @settings(deadline=None, max_examples=300)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24)))
    @example(np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool))  # a U that closes on its last row
    @example(np.eye(7, dtype=bool)[::-1])  # a diagonal chain
    @example(np.ones((1, 1), dtype=bool))
    @example(np.ones((5, 9), dtype=bool))
    def test_regions_number_as_scipy_label(self, mask):
        ys, xs = np.nonzero(mask)
        assert _regions(ys, xs) == (label(mask, np.ones((3, 3)))[0][mask] - 1).tolist()


class TestPgmDump:
    def test_frozen_two_by_two(self):
        f = Field.at_rest(Resolution(2, 2))
        f.u = np.array([[0.0, 1.0], [2.0, 3.0]])
        data = field_to_pgm(f)
        assert data == b"P5\n2 2\n65535\n" + bytes(
            [0x00, 0x00, 0x55, 0x55, 0xAA, 0xAA, 0xFF, 0xFF]
        )

    def test_flat_field_renders_zero(self):
        f = Field.at_rest(Resolution(3, 2))
        data = field_to_pgm(f)
        assert data == b"P5\n3 2\n65535\n" + b"\x00" * 12

    def test_size(self):
        f = Field.at_rest(CHIP)
        data = field_to_pgm(f)
        header = f"P5\n{CHIP.width} {CHIP.height}\n65535\n".encode()
        assert len(data) == len(header) + 2 * CHIP.width * CHIP.height
