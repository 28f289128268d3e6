"""Session-scoped trained model + simulator for the core tests.

Training the fast-profile benchmark takes ~10 s; sharing one instance
keeps the core suite quick.  Tests never mutate the model (the fault
evaluator restores parameters), so sharing is safe.
"""

import pytest

from repro.core import CircuitToSystemSimulator, train_benchmark_ann
from repro.mem import CellTables


@pytest.fixture(scope="session")
def model():
    """The golden model; ``test_golden_regression.py`` pins its 8-bit
    image (trained with one BLAS thread)."""
    return train_benchmark_ann(
        profile="fast", seed=0, n_train=4000, n_val=400, n_test=1000, epochs=10
    )


@pytest.fixture(scope="session")
def tables(tech):
    return CellTables.build(technology=tech, n_samples=8000)


@pytest.fixture(scope="session")
def sim(model, tables):
    return CircuitToSystemSimulator(model, tables=tables, n_trials=3)
