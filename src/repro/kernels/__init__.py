"""The failure-margin kernel behind
:func:`repro.sram.failures.compute_failure_margins`.

:mod:`repro.kernels.fused` holds :class:`FusedKernel`, the stacked
bisection every margin in the stack goes through.
:mod:`repro.kernels.reference` holds :func:`reference_margins`, the
original per-mechanism path: the oracle the fused kernel is tested
bit-identical against, and where it sends the inputs it does not stack.
"""

from repro.kernels.reference import reference_margins
from repro.kernels.fused import FusedKernel

__all__ = ["FusedKernel", "reference_margins"]
