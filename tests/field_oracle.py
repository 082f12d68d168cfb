"""The field step as one array expression, as it was before its
arithmetic moved into one buffer; kept as the reference `field_step`
must equal to the last bit."""

import numpy as np

from evtheremin.neural_field import Field, LateralKernel, _scan_ramp


def field_step(field: Field, s, kernel: LateralKernel) -> Field:
    p = field.params
    with np.errstate(over="ignore"):
        rate = 1.0 / (1.0 + np.exp(-(p.beta * field.u)))
    cols, rows = kernel.bands(rate.shape)
    h = rate.shape[0]
    by_cols = cols @ rate
    lateral = sum(by_cols[k * h : (k + 1) * h] @ row for k, row in enumerate(rows))
    drive = -field.u + p.h + s + lateral - kernel.g_inh * rate.sum()
    if p.tie_break > 0:
        drive = drive - p.tie_break * _scan_ramp(field.u.shape)
    return Field(field.u + (p.dt / p.tau) * drive, p)
