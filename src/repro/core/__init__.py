"""The paper's contribution: significance/sensitivity-driven hybrid
synaptic memory design, and the circuit-to-system simulation framework
that evaluates it.

* :mod:`~repro.core.framework` — benchmark ANN profiles (paper Table I),
  cached training, and the :class:`CircuitToSystemSimulator` pipeline.
* :mod:`~repro.core.significance` — voltage-scaling and hybrid-
  configuration studies (paper Fig. 7 and Fig. 8).
* :mod:`~repro.core.sensitivity` — per-layer synaptic sensitivity
  analysis (the intuition behind Config 2, paper Sec. VI-C / Fig. 9).
* :mod:`~repro.core.optimizer` — sensitivity-driven MSB allocation
  search under an accuracy constraint.
* :mod:`~repro.core.report` — plain-text table formatting for benches
  and the CLI.
"""

from repro.core.framework import (
    CircuitToSystemSimulator,
    TrainedModel,
    benchmark_weights_path,
    fast_ann_spec,
    paper_ann_spec,
    resolve_profile,
    train_benchmark_ann,
)
from repro.core.significance import (
    HybridConfigResult,
    VoltagePointResult,
    hybrid_configuration_study,
    voltage_scaling_study,
)
from repro.core.sensitivity import (
    LayerSensitivity,
    SensitivityProfile,
    layer_sensitivity_profile,
)
from repro.core.optimizer import AllocationResult, allocate_msbs
from repro.core.pareto import (
    FrontierPoint,
    allocation_vulnerability,
    explore_allocations,
    pareto_mask,
)
from repro.core.report import format_table

__all__ = [
    "CircuitToSystemSimulator",
    "TrainedModel",
    "benchmark_weights_path",
    "fast_ann_spec",
    "paper_ann_spec",
    "resolve_profile",
    "train_benchmark_ann",
    "HybridConfigResult",
    "VoltagePointResult",
    "hybrid_configuration_study",
    "voltage_scaling_study",
    "LayerSensitivity",
    "SensitivityProfile",
    "layer_sensitivity_profile",
    "AllocationResult",
    "allocate_msbs",
    "FrontierPoint",
    "allocation_vulnerability",
    "explore_allocations",
    "pareto_mask",
    "format_table",
]
