"""The field step over the whole grid with its sums in another order,
kept as the reference `field_step` must equal to the last bit.

Every rate is looked up, firing or not, and each band product is taken
transposed and reversed, with its summation index run backwards:
(rate[::-1].T @ cols[:, ::-1].T).T for the column pass, and likewise
for the row pass.  Only exact sums can make this equal `field_step`,
which reads the firing cells' box.  The float step of the same
dynamics, in this order, differed in the last bits in 3,780 of 5,590
cells of a random 65x86 field under the tracker's preset (OpenBLAS,
one thread)."""

import numpy as np

from evtheremin.neural_field import K_ONE, U_ONE, Field, LateralKernel, _euler_ratio, _rate, _tie_ramp


def field_step(field: Field, s, kernel: LateralKernel) -> Field:
    p, u = field.params, field.u
    rate = _rate(u, p.beta)
    cols, rows = kernel.bands(u.shape)
    h = u.shape[0]
    by_cols = np.rint((rate[::-1].T @ cols[:, ::-1].T).T / K_ONE)
    lateral = sum((row[::-1].T @ by_cols[k * h : (k + 1) * h, ::-1].T).T for k, row in enumerate(rows))
    drive = np.rint(lateral / K_ONE).astype(np.int64) + s - u + round(p.h * U_ONE)
    drive -= (kernel.g_inh_units * int(rate.sum()) + K_ONE // 2) // K_ONE
    if p.tie_break > 0:
        drive -= _tie_ramp(u.shape, p.tie_break)
    num, den = _euler_ratio(p.dt, p.tau)
    step = -(-np.abs(drive) * num // den)
    return Field(u + np.sign(drive) * step, p)
