"""Sensitivity-driven MSB allocation (the design step behind Config 2).

The paper chooses each bank's protected-MSB count "based on their
sensitivity so as to gain power benefits with minimal area overheads".
:func:`allocate_msbs` automates that judgement as a greedy area descent:

1. start from a uniform allocation that is known accuracy-safe (the
   Config-1 operating point, e.g. 3 MSBs everywhere at 0.65 V);
2. repeatedly try removing one protected MSB from the bank where that
   removal saves the most area (largest bank first), re-evaluating the
   fault-injected accuracy each time;
3. keep the removal if the accuracy drop stays within the target,
   otherwise freeze that bank;
4. stop when every bank is frozen or unprotected.

Greedy-by-area-saving naturally strips the resilient central banks
first (they are small *and* insensitive) and keeps protection on the
first hidden and output banks — reproducing the paper's hand-chosen
shape without hand-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.framework import CircuitToSystemSimulator
from repro.errors import ConfigurationError
from repro.fault.evaluate import FaultEvaluation
from repro.mem.accounting import ComparisonReport
from repro.rng import SeedLike, derive_seed


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of the greedy MSB allocation search."""

    msb_per_layer: tuple
    evaluation: FaultEvaluation
    comparison: ComparisonReport
    steps_taken: int
    evaluations_run: int

    @property
    def accuracy_drop_pct(self) -> float:
        return 100.0 * self.evaluation.accuracy_drop

    def summary(self) -> str:
        alloc = ",".join(map(str, self.msb_per_layer))
        return (
            f"allocation ({alloc}): drop {self.accuracy_drop_pct:.2f}%, "
            f"access power {self.comparison.access_power_reduction_pct:+.2f}%, "
            f"area {self.comparison.area_overhead_pct:+.2f}% "
            f"({self.evaluations_run} evaluations)"
        )


def allocate_msbs(
    sim: CircuitToSystemSimulator,
    vdd: float = 0.65,
    max_accuracy_drop: float = 0.01,
    start_msb: int = 3,
    n_trials: int = 3,
    seed: SeedLike = None,
    order_hint: Optional[Sequence[int]] = None,
) -> AllocationResult:
    """Greedy sensitivity-driven MSB allocation under an accuracy budget.

    Parameters
    ----------
    sim:
        The circuit-to-system simulator carrying the trained model.
    vdd:
        Hybrid operating voltage.
    max_accuracy_drop:
        Accuracy budget relative to the clean quantized baseline
        (the paper's headline uses <1%, i.e. 0.01).
    start_msb:
        Uniform accuracy-safe starting allocation.
    n_trials:
        Fault trials per candidate evaluation.
    order_hint:
        Optional layer priority for tie-breaking (e.g. a
        :class:`~repro.core.sensitivity.SensitivityProfile` ranking,
        least-sensitive first).  Defaults to bank size.
    """
    if not 0.0 <= max_accuracy_drop < 1.0:
        raise ConfigurationError(
            f"max_accuracy_drop must lie in [0, 1), got {max_accuracy_drop}"
        )
    if start_msb < 0:
        raise ConfigurationError(f"start_msb must be >= 0, got {start_msb}")
    if n_trials <= 0:
        raise ConfigurationError(f"n_trials must be positive, got {n_trials}")

    counts = sim.model.layer_synapse_counts
    n_layers = len(counts)
    allocation: List[int] = [start_msb] * n_layers
    frozen = [False] * n_layers
    evaluations = 0
    steps = 0

    def evaluate(alloc: List[int], tag: int) -> FaultEvaluation:
        nonlocal evaluations
        evaluations += 1
        memory = sim.config2_memory(vdd, alloc)
        return sim.evaluate(memory, n_trials=n_trials,
                            seed=derive_seed(seed, tag))

    current = evaluate(allocation, 0)
    if current.accuracy_drop > max_accuracy_drop:
        raise ConfigurationError(
            f"starting allocation {allocation} already violates the accuracy "
            f"budget ({100 * current.accuracy_drop:.2f}% > "
            f"{100 * max_accuracy_drop:.2f}%); raise start_msb or the budget"
        )

    # Candidate order: largest area saving first (bank size), with the
    # optional hint breaking ties toward resilient layers.
    def candidate_order() -> list:
        order = sorted(range(n_layers), key=lambda i: -counts[i])
        if order_hint is not None:
            hint_rank = {int(l): r for r, l in enumerate(order_hint)}
            order.sort(key=lambda i: (-counts[i], hint_rank.get(i, n_layers)))
        return order

    while True:
        progressed = False
        for layer in candidate_order():
            if frozen[layer] or allocation[layer] == 0:
                continue
            trial_alloc = list(allocation)
            trial_alloc[layer] -= 1
            steps += 1
            result = evaluate(trial_alloc, steps)
            if result.accuracy_drop <= max_accuracy_drop:
                allocation = trial_alloc
                current = result
                progressed = True
            else:
                frozen[layer] = True
        if not progressed:
            break

    memory = sim.config2_memory(vdd, allocation)
    comparison = sim.compare(memory)
    return AllocationResult(
        msb_per_layer=tuple(allocation),
        evaluation=current,
        comparison=comparison,
        steps_taken=steps,
        evaluations_run=evaluations,
    )
