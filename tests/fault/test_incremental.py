"""The incremental trial path of :mod:`repro.fault.evaluate`.

A die that changes few first-layer rows is classified from its
:class:`~repro.fault.evaluate.CleanReference`'s clean activations, and
its predictions count only when a rounding-error bound certifies that
the full pass has the same argmax on every image.  These checks hold
that path to the full pass (``network.predict`` with the die's
parameters) as the oracle: byte-equal evaluations for every die shape,
a fallback on a forced tie, and the bound against observed errors.
Evaluations run on ``resolve_jobs(None)`` threads, so ``REPRO_JOBS=2``
reruns them pipelined.
"""

import contextlib
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fault.evaluate import (
    _SIGMOID_ERR,
    CleanReference,
    FaultEvaluation,
    FaultTrialSpec,
    _gamma,
    _logit_error,
    _sample,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.fault.injector import WeightFaultInjector
from repro.fault.model import BitErrorRates
from repro.nn import FeedforwardANN, NetworkSpec, quantize_network
from repro.nn.metrics import accuracy
from repro.rng import derive_seed

N_BITS = 8
SEED = 17
DEEP = (12, 9, 7, 5, 4)     # layers past the second one run densely
SHALLOW = (16, 12, 4)       # the second layer is the output layer


def _rates(p=0.0):
    return BitErrorRates(
        vdd=0.7, n_bits=N_BITS, msb_in_8t=0,
        p_read=np.full(N_BITS, p), p_write=np.zeros(N_BITS),
    )


@functools.lru_cache(maxsize=None)
def _case(sizes, tie=False):
    """A network, its image and an evaluation set (shared read-only).
    ``tie`` makes the last two output neurons identical and dominant, so
    every image's top-two logits are tied."""
    network = FeedforwardANN(NetworkSpec(layer_sizes=sizes, seed=4))
    if tie:
        out = network.layers[-1]
        out.weights[:-2] = 0.0
        out.weights[-2:] = out.weights[-2] / 16
        out.biases[:] = -0.5
        out.biases[-2:] = 0.5
    image = quantize_network(network, n_bits=N_BITS)
    rng = np.random.default_rng(9)
    x = rng.random((48, sizes[0]))
    y = rng.integers(0, sizes[-1], 48)
    return network, image, x, y


class FixedDies(WeightFaultInjector):
    """Trial ``t`` of seed ``SEED`` flips ``dies[t]``: a list of
    ``(array kind "w"/"b", layer, flat index, bit)``."""

    def __init__(self, n_layers, dies):
        super().__init__([_rates()] * n_layers)
        self.dies = {derive_seed(SEED, t): die for t, die in enumerate(dies)}

    def inject(self, image, seed=None):
        out = image.clone()
        for kind, layer, index, bit in self.dies[seed]:
            codes = (out.weight_codes if kind == "w" else out.bias_codes)[layer]
            codes.flat[index] ^= np.uint16(1 << bit)
        return out


@contextlib.contextmanager
def certified():
    """Record, per classified die, whether the incremental path was
    certified (``True``) or sent it to the full pass (``False``)."""
    paths = []
    original = CleanReference.predictions

    def spy(reference, die):
        predictions = original(reference, die)
        paths.append(predictions is not None)
        return predictions

    CleanReference.predictions = spy
    try:
        yield paths
    finally:
        CleanReference.predictions = original


def _oracle(case, injector, n_trials):
    """The evaluation every die's full pass gives."""
    network, image, x, y = case
    trials = tuple(
        accuracy(network.predict(
            x, params=injector.inject(image, derive_seed(SEED, t)).dequantized()
        ), y)
        for t in range(n_trials)
    )
    return FaultEvaluation(
        baseline_accuracy=accuracy(
            network.predict(x, params=image.dequantized()), y),
        trial_accuracies=trials,
        expected_flips=0.0,
    ).to_dict()


def _evaluate(case, injector, n_trials):
    network, image, x, y = case
    reference = CleanReference(network, image, x, y)
    [batched] = evaluate_many_under_faults(
        network, image, [FaultTrialSpec(injector, n_trials, SEED)], x, y,
        reference=reference, jobs=None,
    )
    single = evaluate_under_faults(
        network, image, injector, x, y, n_trials=n_trials, seed=SEED,
        reference=reference,
    )
    assert single.to_dict() == batched.to_dict()
    return batched.to_dict()


@st.composite
def dies(draw, sizes, kind):
    """One die of ``kind`` on a network of ``sizes``: distinct flips."""
    shapes = {("w", i): (n_out, n_in)
              for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))}
    shapes.update({("b", i): (n_out,) for i, n_out in enumerate(sizes[1:])})
    if kind == "every_row":
        cols = draw(st.lists(st.integers(0, sizes[0] - 1),
                             min_size=sizes[1], max_size=sizes[1]))
        flips = {("w", 0, r * sizes[0] + c, draw(st.integers(0, N_BITS - 1)))
                 for r, c in enumerate(cols)}
        return sorted(flips)
    arrays = {
        "no_row": [a for a in shapes if a != ("w", 0) and a != ("b", 0)],
        "one_row": [("w", 0)],
        "bias_only": [a for a in shapes if a[0] == "b"],
        "layer2_only": [("w", 1)],
        "deep_only": [a for a in shapes if a[1] >= 2],
    }[kind]
    row = draw(st.integers(0, sizes[1] - 1))
    flips = set()
    for _ in range(draw(st.integers(1, 4))):
        array = draw(st.sampled_from(arrays))
        index = (row * sizes[0] + draw(st.integers(0, sizes[0] - 1))
                 if array == ("w", 0)
                 else draw(st.integers(0, int(np.prod(shapes[array])) - 1)))
        flips.add((*array, index, draw(st.integers(0, N_BITS - 1))))
    return sorted(flips)


@st.composite
def die_cases(draw):
    sizes = draw(st.sampled_from([DEEP, SHALLOW]))
    kinds = ["no_row", "one_row", "bias_only", "layer2_only", "every_row"]
    if len(sizes) > 3:
        kinds.append("deep_only")
    kind = draw(st.sampled_from(kinds))
    trials = draw(st.lists(dies(sizes, kind), min_size=1, max_size=3))
    return sizes, kind, trials


class TestIncrementalEqualsFullPass:
    @settings(max_examples=60, deadline=None)
    @given(die_cases())
    def test_every_die_shape(self, drawn):
        """Identical evaluations on every die shape; only a die whose
        every first-layer row changed takes the full pass."""
        sizes, kind, trials = drawn
        case = _case(sizes)
        injector = FixedDies(len(sizes) - 1, trials)
        with certified() as paths:
            got = _evaluate(case, injector, len(trials))
        assert got == _oracle(case, injector, len(trials))
        assert paths == [kind != "every_row"] * (2 * len(trials))

    @pytest.mark.parametrize("sizes", [DEEP, SHALLOW])
    def test_sampled_light_dies(self, sizes):
        """Dies drawn by the real sampler at a low rate, several on
        threads, equal the full passes."""
        network, image, x, y = _case(sizes)
        injector = WeightFaultInjector([_rates(0.004)] * (len(sizes) - 1))
        spec = FaultTrialSpec(injector, n_trials=8, seed=SEED)
        with certified() as paths:
            [got] = evaluate_many_under_faults(
                network, image, [spec], x, y, jobs=None)
        assert any(paths)
        baseline = accuracy(network.predict(x, params=image.dequantized()), y)
        full = []
        for t in range(8):
            die = _sample(image, injector, derive_seed(SEED, t))
            full.append(baseline if die is None else accuracy(
                network.predict(x, params=die.params), y))
        assert got.trial_accuracies == tuple(full)
        assert got.baseline_accuracy == baseline

    def test_forced_tie_falls_back(self):
        """Two identical output neurons tie every image's top two
        logits: no die can be certified, every light die takes the full
        pass and the evaluation is the full pass's."""
        case = _case(DEEP, tie=True)
        injector = FixedDies(4, [[("w", 0, 3, 6)], [("b", 0, 2, 1)]])
        with certified() as paths:
            got = _evaluate(case, injector, 2)
        assert paths == [False] * 4
        assert got == _oracle(case, injector, 2)


class TestCertificate:
    @pytest.mark.parametrize("gap,certified_", [
        (4.0e-9, False), (4.03e-9, False), (4.05e-9, True), (1.0, True),
    ])
    def test_gap_must_exceed_twice_both_bounds(self, monkeypatch, gap,
                                               certified_):
        """Predictions count only when every image's top-two gap beats
        ``2 * (full + incremental bound)`` with its 1 % margin."""
        network, image, x, y = _case(SHALLOW)
        reference = CleanReference(network, image, x, y)
        logits = np.zeros((3, 4))
        logits[:, 2] = [3.0, 1.0, 2.0]
        logits[:, 0] = logits[:, 2] - [5.0, gap, 7.0]
        monkeypatch.setattr(
            CleanReference, "_incremental_logits",
            lambda self, die: (logits, 1.5e-9, 0.5e-9))
        got = reference.predictions(None)
        if certified_:
            assert list(got) == [2, 2, 2]
        else:
            assert got is None


class TestErrorBound:
    @pytest.mark.parametrize("sizes", [DEEP, SHALLOW, (30, 20, 10, 5)])
    def test_bound_covers_observed_errors(self, sizes):
        """On random light dies, the incremental logits lie within the
        sum of both bounds of the full pass's; against a long-double
        pass, each pass lies within its own bound."""
        network = FeedforwardANN(NetworkSpec(layer_sizes=sizes, seed=2))
        image = quantize_network(network, n_bits=N_BITS)
        x = np.random.default_rng(3).random((64, sizes[0]))
        reference = CleanReference(network, image, x, np.zeros(64, int))
        injector = WeightFaultInjector([_rates(0.003)] * (len(sizes) - 1))
        extended = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
        checked = 0
        for t in range(40):
            die = _sample(image, injector, derive_seed(SEED, t))
            result = None if die is None else reference._incremental_logits(die)
            if result is None:
                continue
            logits, full_err, inc_err = result
            full = network.forward(x, params=die.params)
            assert np.max(np.abs(full - logits)) <= full_err + inc_err
            assert 0 < full_err + inc_err < 1e-10
            if extended:
                exact = _long_double_forward(network, x, die.params)
                assert np.max(np.abs(full - exact)) <= full_err
                assert np.max(np.abs(logits - exact)) <= inc_err
            checked += 1
        assert checked >= 10


    def test_layer_bounds_compose(self):
        """Observed errors sit far below the worst case, so the bound's
        form is pinned directly: each layer's rounding, plus its input
        error through ‖W‖_∞, through a 1/4-Lipschitz sigmoid."""
        first = _gamma(785) * (1.5 * 40.0 + 0.9)
        hidden = first / 4 + _SIGMOID_ERR
        assert _logit_error([(784, 40.0, 0.9)], 0.0, 1.5) == first
        assert _logit_error([(784, 40.0, 0.9), (300, 12.0, 0.5)], 0.0, 1.5) \
            == _gamma(301) * (12.0 + 0.5) + 12.0 * hidden
        assert _gamma(300) == 300 * 2.0 ** -53 / (1 - 300 * 2.0 ** -53)


def _long_double_forward(network, x, params):
    a = x.astype(np.longdouble)
    for i, (w, b) in enumerate(zip(*params)):
        z = a @ w.astype(np.longdouble).T + b.astype(np.longdouble)
        if i == len(network.layers) - 1:
            return z
        a = 1 / (1 + np.exp(-np.clip(z, -60, 60)))


class TestCleanReference:
    def test_refused_for_another_evaluation_set(self):
        network, image, x, y = _case(DEEP)
        reference = CleanReference(network, image, x, y)
        with pytest.raises(ConfigurationError, match="clean reference"):
            evaluate_under_faults(network, image, None, x[:10], y[:10],
                                  reference=reference)

    def test_one_build_under_many_threads(self):
        """Eight threads classifying light dies through one fresh
        reference build its clean activations once, and agree with the
        serial pass."""
        network, _, x, y = _case(DEEP)
        image = quantize_network(network, n_bits=N_BITS)
        builds = []
        dequantized = image.dequantized

        def counting():
            builds.append(None)
            return dequantized()

        image.dequantized = counting
        reference = CleanReference(network, image, x, y, 0.5)
        injector = FixedDies(4, [[("w", 0, 7 * t, t % N_BITS)]
                                 for t in range(16)])
        spec = [FaultTrialSpec(injector, 16, SEED)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            [threaded] = evaluate_many_under_faults(
                network, image, spec, x, y, reference=reference, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        [serial] = evaluate_many_under_faults(
            network, image, spec, x, y,
            reference=CleanReference(network, image, x, y, 0.5))
        assert threaded.to_dict() == serial.to_dict()
