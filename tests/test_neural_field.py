"""Lateral-interaction field: kernel construction, Euler dynamics, peak
detection, and the PGM dump.

The field runs in integers (units in `neural_field`'s docstring).  Its
step is tested for exactness (the same bits in any order, on any box)
and for closeness to the float dynamics it rounds, with scipy's `expit`
and a 2-D convolution as the float references."""

import subprocess
import sys
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
    EXACT_LIMIT,
    K_ONE,
    U_ONE,
    Field,
    FieldParams,
    KernelParams,
    LateralKernel,
    _euler_ratio,
    _lateral,
    _rate,
    _regions,
    detect_peaks,
    field_step,
    field_to_pgm,
    make_kernel,
    selective_params,
    to_units,
)
from evtheremin.tracker import tracker_field_params

CHIP = Resolution(86, 65)


def gaussian_input(res, cx, cy, amp=6.0, sigma=2.0):
    """A Gaussian bump of input, in the field's units."""
    ys, xs = np.mgrid[0 : res.height, 0 : res.width]
    return to_units(amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2)))


def zeros(shape):
    return np.zeros(shape, dtype=np.int64)


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
        # The rate table's length grows as 1 / beta.
        for beta in (2.0**-7, float("nan")):
            with pytest.raises(ValueError, match="beta"):
                FieldParams(beta=beta)
        assert FieldParams(beta=2.0**-6).beta == 2.0**-6
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

    @pytest.mark.parametrize(
        "dt, tau, ratio",
        [(1.0, 3.0, (1, 3)), (1.0, 10.0, (1, 10)), (0.5, 2.0, (1, 4)), (2.0, 2.0, (1, 1)), (0.1, 1.0, (1, 10))],
    )
    def test_euler_ratio_is_the_nearest_small_fraction(self, dt, tau, ratio):
        assert _euler_ratio(dt, tau) == ratio
        assert FieldParams(dt=dt, tau=tau)

    def test_euler_ratio_that_rounds_to_zero_rejected(self):
        # The nearest fraction with denominator <= 2**16 to 1e-6 is 0: the field would never move.
        with pytest.raises(ValueError, match="dt / tau"):
            FieldParams(dt=1e-6, tau=1.0)
        assert _euler_ratio(1.0, 65536.0) == (1, 65536)


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

    @pytest.mark.parametrize(
        "kernel",
        [make_kernel(KernelParams()), make_kernel(tracker_field_params()[1]), make_kernel(selective_params()[1])],
        ids=["default", "tracker", "selective"],
    )
    def test_largest_partial_sum_below_2_53(self, kernel):
        # The bound is reached by a grid that fires at full rate: every
        # product's terms share a sign per band row, so its sum is the
        # largest any order of its partial sums reaches.
        assert kernel.max_partial_sum < EXACT_LIMIT == 2**53
        n = 2 * kernel.radius + 1
        cols, rows = kernel.bands((n, n))
        by_cols = np.abs(cols) @ np.full((n, n), float(U_ONE))
        assert by_cols.max() <= kernel.max_partial_sum
        by_rows = sum(np.ceil(by_cols[k * n : (k + 1) * n] / K_ONE) @ np.abs(r) for k, r in enumerate(rows))
        assert by_rows.max() <= kernel.max_partial_sum

    def test_kernel_too_strong_for_exact_sums_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            LateralKernel(((2.0**30, np.ones(25)),))

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
        assert f.u.shape == (65, 86) and f.u.dtype == np.int64
        assert np.all(f.u == -5 * U_ONE)

    def test_state_must_be_int64(self):
        with pytest.raises(TypeError, match="int64"):
            Field(np.full((2, 2), -5.0), FieldParams())

    def test_rate_is_sigmoid_of_activation(self):
        # No lateral term and dt == tau: one step leaves h - g_inh * sum(f(u)).
        f = Field.at_rest(Resolution(4, 3), FieldParams(tau=1.0, dt=1.0, beta=4.0))
        kernel = LateralKernel(((0.0, np.ones(1)),), g_inh=1.0)
        f.u[:] = 0
        assert np.all(field_step(f, zeros((3, 4)), kernel).u == -5 * U_ONE - 12 * U_ONE // 2)
        f.u[:] = 2 * U_ONE
        want = -5 * U_ONE - 12 * round(U_ONE * expit(8.0))
        assert np.all(field_step(f, zeros((3, 4)), kernel).u == want)

    @pytest.mark.parametrize("beta", [2.0**-6, 0.5, 1.0, 4.0, 13.0])
    def test_rate_table_close_to_expit(self, beta):
        # Each rate is f at u's nearest 2**-8 step, rounded to U_ONE units:
        # within half a unit plus half a step times f's largest slope.
        real = np.concatenate([np.linspace(-800.0, 800.0, 160_001), np.linspace(-40 / beta, 40 / beta, 200_001)])
        u = to_units(real)
        got = _rate(u, beta)
        want = U_ONE * expit(beta * u / U_ONE)
        assert np.abs(got - want).max() <= 0.5 + U_ONE * beta / 4 * 2.0**-9
        assert np.all(got == np.rint(got)) and np.all(np.diff(got[np.argsort(u)]) >= 0)
        assert got.min() == 0.0 and got.max() == U_ONE

    @pytest.mark.parametrize("preset", [FieldParams(), tracker_field_params()[0], selective_params()[0]])
    def test_rate_at_rest_is_exactly_zero(self, preset):
        assert _rate(Field.at_rest(CHIP, preset).u, preset.beta).max() == 0.0

    def test_step_is_pure(self):
        f = Field.at_rest(Resolution(10, 8))
        before = f.u.copy()
        kernel = make_kernel(KernelParams(), radius=2)
        g = field_step(f, np.full((8, 10), U_ONE), kernel)
        np.testing.assert_array_equal(f.u, before)
        assert g is not f

    def test_input_shape_checked(self):
        f = Field.at_rest(Resolution(10, 8))
        kernel = make_kernel(KernelParams(), radius=2)
        with pytest.raises(ValueError):
            field_step(f, np.ones((10, 8), dtype=np.int64), kernel)
        with pytest.raises(TypeError, match="int64"):
            field_step(f, np.ones((8, 10)), kernel)


def reference_step(field, s, kernel, rate=None, weights=None, g_inh=None, ratio=None):
    """The step in float64 real units with the 2-D kernel applied by one
    zero-padded convolve2d, as the tracker did before the separable
    passes.  By default it is the float field: `expit` rates, the float
    kernel, g_inh and dt / tau."""
    p = field.params
    u = field.u / U_ONE
    rate = expit(p.beta * u) if rate is None else rate
    weights = kernel.weights if weights is None else weights
    g_inh = kernel.g_inh if g_inh is None else g_inh
    lateral = convolve2d(rate, weights, mode="same", boundary="fill", fillvalue=0.0)
    drive = -u + p.h + s / U_ONE + lateral - g_inh * rate.sum()
    n = u.size
    ramp = (np.arange(n, dtype=np.float64) / max(n - 1, 1)).reshape(u.shape)
    return u + (p.dt / p.tau if ratio is None else ratio) * (drive - p.tie_break * ramp)


def int_weights(kernel):
    """The 2-D kernel the integer terms add up to, in real units."""
    return sum(np.outer(ag, g) for ag, g in kernel.int_terms) / K_ONE**2


def step_rounding(kernel):
    """How far, in units of 2**-16, the step's roundings can move its
    drive: the column pass rounds by half a unit, which the row pass
    scales by its profile's mass, and the lateral term, the global
    inhibition and the tie ramp round by half a unit each."""
    return 0.5 * (1 + sum(np.abs(g).sum() for _, g in kernel.int_terms) / K_ONE) + 1.0


def random_field(rng, height, width, params):
    return Field(to_units(rng.uniform(-10.0, 5.0, (height, width))), params)


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
        # The separable passes against one 2-D convolution of the same
        # integer kernel and rates, in float: they differ by the step's
        # roundings only, and by less than a unit where the step rounds
        # away from zero.
        rng = np.random.default_rng(seed)
        fp = FieldParams(tie_break=tie_break)
        f = random_field(rng, height, width, fp)
        s = to_units(rng.uniform(0.0, 15.0, (height, width)))
        kernel = make_kernel(kp, radius)
        num, den = _euler_ratio(fp.dt, fp.tau)
        rate = _rate(f.u, fp.beta) / U_ONE
        want = reference_step(f, s, kernel, rate, int_weights(kernel), kernel.g_inh_units / K_ONE, num / den)
        tol = (num / den * step_rounding(kernel) + 1.0) / U_ONE + 1e-12 * max(1.0, float(np.abs(kernel.weights).sum()))
        np.testing.assert_allclose(field_step(f, s, kernel).u / U_ONE, want, rtol=0, atol=tol)

    @settings(deadline=None)
    @given(
        st.sampled_from([tracker_field_params(), (FieldParams(), KernelParams())]),
        st.integers(1, 65),
        st.integers(1, 86),
        st.integers(0, 2**32 - 1),
    )
    @example((FieldParams(), KernelParams()), 65, 86, 0)
    def test_close_to_float_field(self, preset, height, width, seed):
        # One step against the float field it rounds (expit rates, float
        # kernel): the rate table is off by at most half a unit plus half
        # a 2**-8 step times f's largest slope, beta / 4, which the integer
        # kernel's absolute mass scales; the integer kernel is off by its
        # own absolute difference; and the step rounds as above.
        fp, kp = preset
        kernel = make_kernel(kp)
        rng = np.random.default_rng(seed)
        f = random_field(rng, height, width, fp)
        s = to_units(rng.uniform(0.0, 15.0, (height, width)))
        rate_err = 0.5 / U_ONE + fp.beta / 4 * 2.0**-9
        kernel_err = np.abs(int_weights(kernel) - kernel.weights).sum()
        tol = fp.dt / fp.tau * (np.abs(int_weights(kernel)).sum() * rate_err + kernel_err + step_rounding(kernel) / U_ONE)
        got = field_step(f, s, kernel).u / U_ONE
        assert np.abs(got - reference_step(f, s, kernel)).max() <= tol + 1.0 / U_ONE

    @pytest.mark.parametrize("height, width", [(1, 1), (8, 10)])
    def test_bands_equal_correlate1d_of_an_impulse(self, height, width):
        # Radius 12 is wider than either grid, so every band is cut at both edges.
        kernel = make_kernel(KernelParams(), 12)
        cols, rows = kernel.bands((height, width))
        assert cols.shape == (2 * height, height)
        for k, ((a, g), (ag_units, g_units)) in enumerate(zip(kernel.terms, kernel.int_terms)):
            # The integer profiles are the float ones rounded to K_ONE units.
            np.testing.assert_array_equal(ag_units, np.rint(a * g * K_ONE))
            np.testing.assert_array_equal(g_units, np.rint(g * K_ONE))
            # Column j of a band is the correlation of the impulse at j.
            by_col = correlate1d(np.eye(height), ag_units, axis=0, mode="constant")
            by_row = correlate1d(np.eye(width), g_units, axis=0, mode="constant")
            np.testing.assert_array_equal(cols[k * height : (k + 1) * height], by_col)
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
        # The oracle sums in another order over the whole grid: bands
        # transposed and products reversed, every rate looked up.  The
        # step reads the firing cells' box only.
        fp, kp = preset
        fp, kernel = replace(fp, tie_break=tie_break), make_kernel(replace(kp, g_inh=g_inh))
        rng = np.random.default_rng(seed)
        got = want = random_field(rng, height, width, fp)
        for _ in range(3):
            s = to_units(rng.uniform(0.0, 15.0, (height, width)))
            got, want = field_step(got, s, kernel), field_oracle.field_step(want, s, kernel)
            np.testing.assert_array_equal(got.u, want.u)

    @settings(deadline=None)
    @given(
        st.integers(1, 65),
        st.integers(1, 86),
        st.lists(st.tuples(st.integers(0, 85), st.integers(0, 64), st.integers(1, 6)), max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @example(65, 86, [(0, 0, 1), (85, 64, 1)], 0)
    @example(65, 86, [(40, 30, 6)], 1)
    def test_lateral_on_firing_box_equals_full_grid(self, height, width, patches, seed):
        # Rates on a few patches, zero elsewhere: the products on the box
        # around the nonzero rates give the full grid's term to the bit.
        kernel = make_kernel(tracker_field_params()[1])
        rng = np.random.default_rng(seed)
        rate = np.zeros((height, width))
        for x, y, r in patches:
            x, y = x % width, y % height
            patch = rate[max(y - r, 0) : y + r, max(x - r, 0) : x + r]
            patch[:] = rng.integers(0, U_ONE + 1, patch.shape)
        full = np.zeros((height, width), dtype=np.int64)
        ys, xs, lateral = _lateral(kernel, rate, 0, 0, rate.shape)
        full[ys, xs] = lateral
        box = np.zeros_like(full)
        rows, cols = np.flatnonzero(rate.any(axis=1)), np.flatnonzero(rate.any(axis=0))
        if len(rows):
            y0, y1, x0, x1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
            ys, xs, lateral = _lateral(kernel, rate[y0:y1, x0:x1], y0, x0, rate.shape)
            box[ys, xs] = lateral
        np.testing.assert_array_equal(box, full)

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
        # Each step moves u at least one unit towards h + s and never past
        # it, so the fixed point is reached exactly.
        params = FieldParams(tau=10, h=-5, dt=1)
        res = Resolution(6, 5)
        f = Field.at_rest(res, params)
        s = np.full((5, 6), 2 * U_ONE)
        f = run_steps(f, s, self.kernel(), 400)
        np.testing.assert_array_equal(f.u, -3 * U_ONE)

    def test_geometric_decay_ratio(self):
        self.test_decay_rounds_away_from_zero(8 * U_ONE)

    @pytest.mark.parametrize("deviation", [8 * U_ONE, -8 * U_ONE, 7, -7, 1, -1])
    def test_decay_rounds_away_from_zero(self, deviation):
        # The deviation from rest shrinks by (1 - dt/tau) per step, its
        # change rounded away from zero, that is by
        # deviation * dt / tau rounded up in magnitude.
        params = FieldParams(tau=10, h=-5, dt=1)
        f = Field.at_rest(Resolution(6, 5), params)
        f.u[2, 2] += deviation
        zero = zeros((5, 6))
        g = field_step(f, zero, self.kernel())
        gg = field_step(g, zero, self.kernel())
        one = deviation - np.sign(deviation) * -(-abs(deviation) // 10)
        assert g.u[2, 2] + 5 * U_ONE == one
        assert gg.u[2, 2] + 5 * U_ONE == one - np.sign(one) * -(-abs(one) // 10)
        assert abs(one - 0.9 * deviation) < 1
        assert np.all(np.delete(g.u.ravel(), 2 * 6 + 2) == -5 * U_ONE)

    @pytest.mark.parametrize(
        "params, kernel_params",
        [tracker_field_params(), (FieldParams(), KernelParams()), selective_params()],
        ids=["tracker", "default", "selective"],
    )
    def test_resting_field_stays_exactly_at_rest(self, params, kernel_params):
        # Without input a resting cell's rate is exactly 0, so no cell
        # drives another; the selective preset's tie ramp is the one input.
        params = replace(params, tie_break=0.0)
        rest = Field.at_rest(CHIP, params)
        f = run_steps(rest, zeros((CHIP.height, CHIP.width)), make_kernel(kernel_params), 20)
        np.testing.assert_array_equal(f.u, rest.u)

    @pytest.mark.parametrize(
        "params, kernel_params",
        [tracker_field_params(), (FieldParams(), KernelParams())],
        ids=["tracker", "default"],
    )
    def test_sub_ignition_bump_returns_exactly_to_rest(self, params, kernel_params):
        # Floor division would leave cells a unit or two below rest for
        # good; rounding each step away from zero brings every cell back.
        rest = Field.at_rest(CHIP, params)
        f = Field(rest.u + gaussian_input(CHIP, 43, 32, amp=2.0) - gaussian_input(CHIP, 20, 20, amp=1.0), params)
        f = run_steps(f, zeros((CHIP.height, CHIP.width)), make_kernel(kernel_params), 400)
        np.testing.assert_array_equal(f.u, rest.u)


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
        f = run_steps(f, s // 5, kernel, 60)
        peaks = detect_peaks(f, threshold=0.0)
        assert len(peaks) == 1
        assert np.hypot(peaks[0].x - 43, peaks[0].y - 32) < 2.0

    def test_single_step_impulse_never_ignites(self):
        fp, kp = FieldParams(), KernelParams()
        kernel = make_kernel(kp)
        s = gaussian_input(CHIP, 43, 32)
        f = field_step(Field.at_rest(CHIP, fp), s, kernel)
        zero = zeros((CHIP.height, CHIP.width))
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
            f.u = f.u + to_units(amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * 2.0**2)))
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
        f.u[2, 2] = U_ONE
        f.u[3, 3] = U_ONE
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
        f = Field(to_units(rng.uniform(-5.0, 5.0, (height, width))), FieldParams())
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
            f.u = f.u + to_units(amp * np.exp(-((xs - cx % width) ** 2 + (ys - cy % height) ** 2) / (2 * sigma**2)))
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
