"""Regenerate ``golden_fast_profile.json`` — run only for a *deliberate*
physics/stream/model change, never to make a red test green.

Usage (from the repository root)::

    PYTHONPATH=src python tests/core/regen_golden.py

Uses exactly the fixture parameters of ``tests/core/conftest.py`` so the
golden numbers and the regression test see the same simulator.
"""

import json
import os

from repro.core import CircuitToSystemSimulator, train_benchmark_ann
from repro.devices import ptm22
from repro.mem import CellTables

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_fast_profile.json")

#: The pinned reproduction points: nominal, scaled-6T, and the paper's
#: (3-MSB) hybrid at its headline voltage — 2 VDD decades of Fig. 8.
POINTS = (
    {"config": "base", "vdd": 0.90},
    {"config": "base", "vdd": 0.70},
    {"config": "config1", "vdd": 0.65, "msb_in_8t": 3},
)

#: Fault seed of every pinned evaluation.
SEED = 123


def build_simulator() -> CircuitToSystemSimulator:
    model = train_benchmark_ann(
        profile="fast", seed=0, n_train=4000, n_val=400, n_test=1000, epochs=10
    )
    tables = CellTables.build(technology=ptm22(), n_samples=8000)
    return CircuitToSystemSimulator(model, tables=tables, n_trials=3)


def request_memory(sim: CircuitToSystemSimulator, request: dict):
    """The memory one pinned ``request`` names (``base`` or ``config1``)."""
    if request["config"] == "config1":
        return sim.config1_memory(request["vdd"], request["msb_in_8t"])
    return sim.base_memory(request["vdd"])


def golden_entries(sim: CircuitToSystemSimulator) -> list:
    entries = []
    for spec in POINTS:
        memory = request_memory(sim, spec)
        evaluation = sim.evaluate(memory, seed=SEED)
        entries.append(
            {
                "request": dict(spec),
                "seed": SEED,
                "baseline_accuracy": evaluation.baseline_accuracy,
                "trial_accuracies": list(evaluation.trial_accuracies),
                "mean_accuracy": evaluation.mean_accuracy,
                "expected_flips": evaluation.expected_flips,
                "access_power": memory.access_power,
                "leakage_power": memory.leakage_power,
                "area": memory.area,
            }
        )
    return entries


def main() -> int:
    document = {
        "_comment": (
            "Golden reproduction numbers for the fast profile (paper Fig. 8 "
            "reproduction scale): model fast/seed0/4000 train/10 epochs, "
            "ptm22 tables at 8000 MC samples, 3 fault trials, fault seed "
            "123. Regenerate ONLY for a deliberate, understood change of "
            "the physics, the sampling streams or the model: "
            "PYTHONPATH=src python tests/core/regen_golden.py"
        ),
        "points": golden_entries(build_simulator()),
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
