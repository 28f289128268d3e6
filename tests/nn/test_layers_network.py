"""Tests of dense layers, the network container, and backprop gradients."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import CrossEntropyLoss, DenseLayer, FeedforwardANN, NetworkSpec


class TestDenseLayer:
    def test_forward_shape(self):
        layer = DenseLayer(5, 3, seed=0)
        out = layer.forward(np.zeros((7, 5)))
        assert out.shape == (7, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            DenseLayer(0, 3)

    def test_backward_requires_forward(self):
        layer = DenseLayer(4, 2, seed=0)
        with pytest.raises(ConfigurationError):
            layer.backward(np.zeros((1, 2)))

    def test_synapse_count_includes_biases(self):
        assert DenseLayer(10, 4).n_synapses == 44

    @pytest.mark.parametrize("activation",
                             ["sigmoid", "tanh", "relu", "identity"])
    def test_inference_forward_matches_training_forward(self, activation):
        """The in-place inference pass computes the training pass's bytes,
        including at the sigmoid's clip bounds."""
        layer = DenseLayer(6, 5, activation=activation, seed=2)
        layer.biases = np.linspace(-0.5, 0.5, 5)
        x = np.random.default_rng(3).normal(scale=30.0, size=(9, 6))
        trained = layer.forward(x, train=True)
        assert layer.forward(x).tobytes() == trained.tobytes()


class TestNetworkSpec:
    def test_paper_table1_arithmetic(self):
        """Table I: 6 layers, 2594 neurons, 1,406,810 synapses."""
        spec = NetworkSpec(layer_sizes=(784, 1000, 500, 200, 100, 10))
        assert spec.n_layers == 6
        assert spec.n_neurons == 2594
        assert spec.n_synapses == 1_406_810

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(layer_sizes=(784,))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(layer_sizes=(784, 0, 10))


class TestFeedforward:
    def test_forward_shape_and_1d_promotion(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        assert net.forward(np.zeros((5, 8))).shape == (5, 3)
        assert net.forward(np.zeros(8)).shape == (1, 3)

    def test_input_width_checked(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        with pytest.raises(ConfigurationError):
            net.forward(np.zeros((5, 9)))

    def test_training_pass_takes_the_parameters_dtype(self):
        """A training pass on float32 parameters stays float32 in every
        layer; inference keeps its float64 cast."""
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        for layer in net.layers:
            layer.weights = layer.weights.astype(np.float32)
            layer.biases = layer.biases.astype(np.float32)
        x = np.random.default_rng(1).random((5, 8))
        assert net.forward(x, train=True).dtype == np.float32
        assert all(layer._a.dtype == np.float32 for layer in net.layers)
        assert net.forward(x).dtype == np.float64

    def test_deterministic_init(self):
        a = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=42))
        b = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=42))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_explicit_params_match_loaded_params(self):
        """``forward(x, params=...)`` returns what loading the parameters
        would, and writes nothing into the network."""
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        other = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=1))
        params = ([layer.weights for layer in other.layers],
                  [layer.biases + 0.25 for layer in other.layers])
        before = [layer.weights.tobytes() for layer in net.layers]
        x = np.random.default_rng(0).random((4, 8))
        got = net.forward(x, params=params)
        assert [layer.weights.tobytes() for layer in net.layers] == before
        for layer, b in zip(other.layers, params[1]):
            layer.biases = b
        assert got.tobytes() == other.forward(x).tobytes()
        np.testing.assert_array_equal(net.predict(x, params=params),
                                      other.predict(x))

    def test_explicit_params_checked(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        weights = [layer.weights for layer in net.layers]
        biases = [layer.biases for layer in net.layers]
        x = np.zeros((2, 8))
        with pytest.raises(ConfigurationError):
            net.forward(x, params=(weights[:1], biases[:1]))
        with pytest.raises(ConfigurationError):
            net.forward(x, params=(weights[::-1], biases))
        with pytest.raises(ConfigurationError):
            net.forward(x, train=True, params=(weights, biases))

    def test_set_weight_matrices_shape_checked(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(8, 6, 3), seed=0))
        with pytest.raises(ConfigurationError):
            net.set_weight_matrices([np.zeros((6, 8))])


class TestBackpropGradients:
    """Finite-difference check of the full backward pass."""

    def test_weight_gradients_match_numeric(self):
        rng = np.random.default_rng(3)
        net = FeedforwardANN(NetworkSpec(layer_sizes=(5, 4, 3), seed=7))
        loss = CrossEntropyLoss()
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)

        scores = net.forward(x, train=True)
        _, grad = loss.value_and_grad(scores, y)
        net.backward(grad)

        layer = net.layers[0]
        analytic = layer.grad_weights.copy()
        eps = 1e-6
        for (i, j) in [(0, 0), (1, 2), (3, 4)]:
            layer.weights[i, j] += eps
            up, _ = loss.value_and_grad(net.forward(x), y)
            layer.weights[i, j] -= 2 * eps
            down, _ = loss.value_and_grad(net.forward(x), y)
            layer.weights[i, j] += eps
            numeric = (up - down) / (2 * eps)
            assert analytic[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_bias_gradients_match_numeric(self):
        rng = np.random.default_rng(4)
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 3, 2), seed=9))
        loss = CrossEntropyLoss()
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5)
        scores = net.forward(x, train=True)
        _, grad = loss.value_and_grad(scores, y)
        net.backward(grad)
        layer = net.layers[-1]
        analytic = layer.grad_biases.copy()
        eps = 1e-6
        layer.biases[1] += eps
        up, _ = loss.value_and_grad(net.forward(x), y)
        layer.biases[1] -= 2 * eps
        down, _ = loss.value_and_grad(net.forward(x), y)
        layer.biases[1] += eps
        assert analytic[1] == pytest.approx((up - down) / (2 * eps), abs=1e-4)
