"""Voltage-scaling and hybrid-configuration studies (paper Fig. 7 / 8).

Two parameter sweeps over the :class:`~repro.core.framework.
CircuitToSystemSimulator`:

* :func:`voltage_scaling_study` — the all-6T memory across supply
  voltages: classification accuracy (Fig. 7(a)) plus access/leakage
  power savings relative to nominal (Fig. 7(b)).
* :func:`hybrid_configuration_study` — Config-1 hybrids ``(n, 8-n)`` for
  a range of protected-MSB counts at scaled voltages: accuracy
  (Fig. 8(a)), power reduction vs the iso-stability 6T baseline
  (Fig. 8(b)) and area overhead (Fig. 8(c)).

Each study evaluates all its memories in one
:meth:`~repro.core.framework.CircuitToSystemSimulator.evaluate_batch`
call, in-process: a point's flip masks derive from its own seed, so the
batch equals evaluating the points one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.framework import CircuitToSystemSimulator
from repro.fault.evaluate import FaultEvaluation
from repro.mem.accounting import ComparisonReport
from repro.rng import SeedLike, derive_seed, resolve_seed


@dataclass(frozen=True)
class VoltagePointResult:
    """One voltage point of the all-6T scaling study."""

    vdd: float
    evaluation: FaultEvaluation
    comparison_vs_nominal: ComparisonReport

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.evaluation.mean_accuracy

    @property
    def accuracy_drop_pct(self) -> float:
        return 100.0 * self.evaluation.accuracy_drop

    @property
    def access_power_saving_pct(self) -> float:
        return self.comparison_vs_nominal.access_power_reduction_pct

    @property
    def leakage_saving_pct(self) -> float:
        return self.comparison_vs_nominal.leakage_power_reduction_pct


def voltage_scaling_study(
    sim: CircuitToSystemSimulator,
    vdds: Sequence[float] = (0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65),
    seed: SeedLike = None,
) -> List[VoltagePointResult]:
    """Sweep the all-6T synaptic memory across supply voltages.

    Returns one :class:`VoltagePointResult` per voltage (descending or in
    the order given).  Savings are measured against the same memory at
    the nominal voltage, which is how Fig. 7(b) is normalized.  Point
    ``i`` is seeded by ``derive_seed(seed, i)``.
    """
    base_seed = resolve_seed(seed)
    nominal = sim.base_memory(float(sim.tables.table_6t.points[-1].vdd))
    memories = [sim.base_memory(vdd) for vdd in vdds]
    evaluations = sim.evaluate_batch([
        (memory, None, derive_seed(base_seed, i))
        for i, memory in enumerate(memories)
    ])
    return [
        VoltagePointResult(
            vdd=float(vdd),
            evaluation=evaluation,
            comparison_vs_nominal=sim.compare(memory, baseline=nominal),
        )
        for vdd, memory, evaluation in zip(vdds, memories, evaluations)
    ]


@dataclass(frozen=True)
class HybridConfigResult:
    """One (msb_in_8t, vdd) point of the Config-1 study."""

    vdd: float
    msb_in_8t: int
    evaluation: FaultEvaluation
    comparison_vs_baseline: ComparisonReport

    @property
    def label(self) -> str:
        """Paper notation, e.g. ``(3,5)``."""
        n_bits = 8
        return f"({self.msb_in_8t},{n_bits - self.msb_in_8t})"

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.evaluation.mean_accuracy

    @property
    def access_power_reduction_pct(self) -> float:
        return self.comparison_vs_baseline.access_power_reduction_pct

    @property
    def leakage_reduction_pct(self) -> float:
        return self.comparison_vs_baseline.leakage_power_reduction_pct

    @property
    def area_overhead_pct(self) -> float:
        return self.comparison_vs_baseline.area_overhead_pct


def hybrid_configuration_study(
    sim: CircuitToSystemSimulator,
    vdds: Sequence[float] = (0.65, 0.70),
    msb_counts: Sequence[int] = (1, 2, 3, 4),
    seed: SeedLike = None,
) -> List[HybridConfigResult]:
    """Sweep Config-1 hybrid words across protected-MSB counts.

    The power/area comparison uses the paper's iso-stability baseline
    (all-6T at 0.75 V).  Returns a flat list ordered voltage-major.
    The point of voltage index ``vi`` and MSB count ``n`` is seeded by
    ``derive_seed(seed, vi, n)``.
    """
    base_seed = resolve_seed(seed)
    points = [
        (float(vdd), int(n), sim.config1_memory(float(vdd), msb_in_8t=int(n)),
         derive_seed(base_seed, vi, n))
        for vi, vdd in enumerate(vdds)
        for n in msb_counts
    ]
    evaluations = sim.evaluate_batch([
        (memory, None, point_seed) for _, _, memory, point_seed in points
    ])
    baseline = sim.baseline_memory()
    return [
        HybridConfigResult(
            vdd=vdd,
            msb_in_8t=n,
            evaluation=evaluation,
            comparison_vs_baseline=sim.compare(memory, baseline=baseline),
        )
        for (vdd, n, memory, _), evaluation in zip(points, evaluations)
    ]
