"""The reference margin path: the semantic oracle of the fused kernel.

This is, verbatim, the pre-kernel-layer body of
:func:`repro.sram.failures.compute_failure_margins`: one vectorized
bisection per node equation, each driven through the device/inverter
object model (:mod:`repro.sram.read_path`,
:mod:`repro.sram.write_margin`, :mod:`repro.sram.bitcell`).  The tests
and the margin-kernel benchmark compare :class:`~repro.kernels.FusedKernel`
against it bit for bit, and the fused kernel delegates to it the inputs
it does not stack.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.sram.bitcell import BitcellBase
from repro.sram.failures import FailureMargins
from repro.sram.read_path import BitlineModel, read_delay
from repro.sram.write_margin import write_node_voltage

ArrayLike = Union[float, np.ndarray]


def reference_margins(
    cell: BitcellBase,
    vdd: float,
    dvt: ArrayLike,
    bitline: BitlineModel,
    read_cycle: float,
) -> FailureMargins:
    """Per-mechanism margin evaluation through the object model.

    ``bitline`` and ``read_cycle`` arrive concrete (defaults already
    resolved by :func:`repro.sram.failures.compute_failure_margins`).
    """
    delay = np.asarray(
        read_delay(cell, vdd, dvt=dvt, bitline=bitline), dtype=float
    )
    with np.errstate(divide="ignore"):
        read_access = np.log(read_cycle) - np.log(delay)

    node = np.asarray(write_node_voltage(cell, vdd, dvt=dvt), dtype=float)
    trip_r = np.asarray(cell.trip_voltage_right(vdd, dvt=dvt), dtype=float)
    write = trip_r - node

    if cell.has_read_disturb:
        bump = np.asarray(cell.read_bump_voltage(vdd, dvt=dvt), dtype=float)
        trip_l = np.asarray(cell.trip_voltage_left(vdd, dvt=dvt), dtype=float)
        read_disturb = trip_l - bump
    else:
        read_disturb = None

    return FailureMargins(
        read_access=read_access, write=write, read_disturb=read_disturb
    )
