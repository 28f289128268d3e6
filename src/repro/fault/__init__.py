"""Bit-level fault injection for synaptic memories.

Implements the paper's system-level failure model (Sec. V): "read access
and write failures are modeled by introducing bit flips while accessing
and updating the synaptic weights ... the distribution of bit failures
depends on the synaptic memory configuration — uniform for a 6T SRAM,
only the LSBs affected in a hybrid 8T-6T SRAM".

* :mod:`~repro.fault.bitflip` — vectorized XOR flip-mask machinery on
  fixed-point code arrays.
* :mod:`~repro.fault.model` — per-bit-position failure probabilities
  derived from the bitcell characterizations and a word's MSB split.
* :mod:`~repro.fault.injector` — applies sampled faults to a network's
  quantized memory image.
* :mod:`~repro.fault.evaluate` — accuracy-under-faults measurement with
  repeated trials.
"""

from repro.fault.bitflip import apply_flip_mask, count_flipped_bits, random_flip_mask
from repro.fault.model import BitErrorRates, word_bit_error_rates
from repro.fault.injector import WeightFaultInjector
from repro.fault.evaluate import (
    CleanReference,
    FaultEvaluation,
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)

__all__ = [
    "apply_flip_mask",
    "count_flipped_bits",
    "random_flip_mask",
    "BitErrorRates",
    "word_bit_error_rates",
    "WeightFaultInjector",
    "CleanReference",
    "FaultEvaluation",
    "FaultTrialSpec",
    "evaluate_many_under_faults",
    "evaluate_under_faults",
]
