"""Batch-split determinism of ``evaluate_many_under_faults``.

The contract the simulator's
:meth:`~repro.core.framework.CircuitToSystemSimulator.evaluate_batch`
stands on: element ``i`` of a batched evaluation depends on spec ``i``
alone — never on its neighbours or its position — so *any* contiguous
split of a spec list into blocks concatenates bit-for-bit to the
unsplit batch, and to the one-by-one ``evaluate_under_faults`` oracle.
This is what lets a study batch its memories however it likes (one
call per study, per voltage or per memory) without changing a byte of
output.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault.evaluate import (
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn import FeedforwardANN, NetworkSpec, quantize_network

N_SPECS = 6


def _rates(p):
    return BitErrorRates(
        vdd=0.65, n_bits=8, msb_in_8t=2,
        p_read=np.full(8, p), p_write=np.full(8, p / 4),
    )


@pytest.fixture(scope="module")
def case():
    """One network, one image, one eval set, one spec list — shared by
    every example (everything downstream is pure and side-effect free)."""
    net = FeedforwardANN(NetworkSpec(layer_sizes=(16, 12, 4), seed=5))
    image = quantize_network(net, n_bits=8)
    rng = np.random.default_rng(0)
    x = rng.random((48, 16))
    y = rng.integers(0, 4, 48)
    injector = WeightFaultInjector([_rates(0.05)] * 2)
    hot = WeightFaultInjector([_rates(0.3)] * 2)
    specs = [
        FaultTrialSpec(injector=injector, n_trials=2, seed=0),
        FaultTrialSpec(injector=None, n_trials=1, seed=None),
        FaultTrialSpec(injector=hot, n_trials=3, seed=1),
        FaultTrialSpec(injector=injector, n_trials=1, seed=2),
        FaultTrialSpec(injector=hot, n_trials=2, seed=0),
        FaultTrialSpec(injector=injector, n_trials=2, seed=3),
    ]
    assert len(specs) == N_SPECS
    reference = [
        e.to_dict()
        for e in evaluate_many_under_faults(net, image, specs, x, y)
    ]
    return net, image, specs, x, y, reference


def canon(evaluations):
    return json.dumps(evaluations, sort_keys=True)


@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=N_SPECS - 1),
        unique=True, max_size=N_SPECS - 1,
    )
)
@settings(max_examples=40, deadline=None)
def test_any_contiguous_split_concatenates_exactly(case, cuts):
    """Split the spec list at any cut set; per-block evaluation must
    concatenate byte-identically to the unsplit batch."""
    net, image, specs, x, y, reference = case
    bounds = [0] + sorted(cuts) + [len(specs)]
    merged = []
    for lo, hi in zip(bounds, bounds[1:]):
        merged.extend(
            e.to_dict()
            for e in evaluate_many_under_faults(net, image, specs[lo:hi], x, y)
        )
    assert canon(merged) == canon(reference)


def test_batch_matches_one_by_one_oracle(case):
    """The batched pass equals N standalone evaluate_under_faults calls
    bit-for-bit — the docstring's contract, asserted."""
    net, image, specs, x, y, reference = case
    singles = [
        evaluate_under_faults(
            net, image, spec.injector, x, y,
            n_trials=spec.n_trials, seed=spec.seed,
        ).to_dict()
        for spec in specs
    ]
    assert canon(singles) == canon(reference)


def test_permuting_specs_permutes_results(case):
    """Position independence from the other direction: evaluating a
    permuted spec list returns the same per-spec bytes, permuted."""
    net, image, specs, x, y, reference = case
    order = [3, 0, 5, 1, 4, 2]
    permuted = [
        e.to_dict()
        for e in evaluate_many_under_faults(
            net, image, [specs[i] for i in order], x, y
        )
    ]
    assert canon(permuted) == canon([reference[i] for i in order])
