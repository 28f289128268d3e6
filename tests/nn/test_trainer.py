"""Tests of the SGD trainer on a small learnable problem."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import FeedforwardANN, NetworkSpec, SGDTrainer
from repro.nn.loss import get_loss


def two_blob_problem(n=400, seed=0):
    """Linearly separable 2-class blobs: trainable in a couple of epochs."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=-1.0, scale=0.5, size=(n // 2, 4))
    x1 = rng.normal(loc=+1.0, scale=0.5, size=(n // 2, 4))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    order = rng.permutation(n)
    return x[order], y[order]


class TestValidation:
    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ConfigurationError):
            SGDTrainer(epochs=0)
        with pytest.raises(ConfigurationError):
            SGDTrainer(learning_rate=-1.0)
        with pytest.raises(ConfigurationError):
            SGDTrainer(momentum=1.0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("lr_decay", float("inf")),
        ("lr_decay", -1.0),
        ("weight_clip", float("nan")),
    ])
    def test_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SGDTrainer(**{field: value})

    def test_rejects_mismatched_data(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        with pytest.raises(ConfigurationError):
            SGDTrainer(epochs=1).train(net, np.zeros((10, 4)), np.zeros(9, dtype=int))

    def test_patience_requires_validation(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        x, y = two_blob_problem()
        with pytest.raises(ConfigurationError):
            SGDTrainer(epochs=1, patience=2).train(net, x, y)

    @pytest.mark.parametrize("val", [
        {"x_val": "x"},                      # x_val without y_val
        {"y_val": "y"},                      # y_val without x_val
        {"x_val": "x", "y_val": "y_short"},  # unequal lengths
    ])
    def test_bad_validation_split_rejected_before_training(self, val,
                                                           monkeypatch):
        x, y = two_blob_problem()
        data = {"x": x[:20], "y": y[:20], "y_short": y[:19]}
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))

        def no_forward(*args, **kwargs):
            raise AssertionError("trained before validating its inputs")

        monkeypatch.setattr(net, "forward", no_forward)
        with pytest.raises(ConfigurationError):
            SGDTrainer(epochs=1).train(
                net, x, y, **{k: data[v] for k, v in val.items()}
            )

    def test_rejects_empty_training_split(self):
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        with pytest.raises(ConfigurationError):
            SGDTrainer(epochs=1).train(net, np.zeros((0, 4)),
                                       np.zeros(0, dtype=int))


def reference_training(net, x, y, trainer):
    """The trainer's arithmetic written out the plain way: a full backward
    pass (input gradient included), ``v -= lr * g`` with temporaries and
    an end-of-epoch pass over the training split, in float32 (inputs and
    parameters cast in, parameters cast back to float64 at the end).
    Returns the per-epoch running accuracy (minibatch predictions before
    each update)."""
    x = x.astype(np.float32)
    for layer in net.layers:
        layer.weights = layer.weights.astype(np.float32)
        layer.biases = layer.biases.astype(np.float32)
    rng = np.random.default_rng(trainer.seed)
    loss = get_loss("cross_entropy")
    lr = trainer.learning_rate
    velocity = [(np.zeros_like(l.weights), np.zeros_like(l.biases))
                for l in net.layers]
    running = []
    for _ in range(trainer.epochs):
        order = rng.permutation(len(x))
        correct = 0
        for lo in range(0, len(order), trainer.batch_size):
            idx = order[lo:lo + trainer.batch_size]
            scores = net.forward(x[idx], train=True)
            correct += int(np.sum(np.argmax(scores, axis=1) == y[idx]))
            _, grad = loss.value_and_grad(scores, y[idx])
            for layer in reversed(net.layers):
                grad = layer.backward(grad)
            for layer, (vw, vb) in zip(net.layers, velocity):
                vw *= trainer.momentum
                vw -= lr * layer.grad_weights
                vb *= trainer.momentum
                vb -= lr * layer.grad_biases
                layer.weights += vw
                layer.biases += vb
                np.clip(layer.weights, -trainer.weight_clip,
                        trainer.weight_clip, out=layer.weights)
                np.clip(layer.biases, -trainer.weight_clip,
                        trainer.weight_clip, out=layer.biases)
        lr *= trainer.lr_decay
        net.predict(x)
        running.append(correct / len(y))
    for layer in net.layers:
        layer.weights = layer.weights.astype(np.float64)
        layer.biases = layer.biases.astype(np.float64)
    return running


class TestWorkDone:
    """The trainer computes only what the weights and history read."""

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        original = FeedforwardANN.predict

        def counting(network, x, *args, **kwargs):
            calls.append(len(x))
            return original(network, x, *args, **kwargs)

        monkeypatch.setattr(FeedforwardANN, "predict", counting)
        return calls

    def test_weights_equal_reference_loop(self):
        x, y = two_blob_problem(n=230)
        y = y + 2 * (x[:, 0] > 1.0)  # four classes, not all separable
        spec = NetworkSpec(layer_sizes=(4, 9, 7, 4), seed=3)
        trainer = SGDTrainer(epochs=3, batch_size=32, learning_rate=0.4,
                             momentum=0.9, lr_decay=0.95, weight_clip=0.8,
                             seed=11)
        net = FeedforwardANN(spec)
        result = trainer.train(net, x, y)
        reference = FeedforwardANN(spec)
        running = reference_training(reference, x, y, trainer)
        for a, b in zip(net.layers, reference.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)
        assert result.train_accuracy == running

    def test_returns_float64_parameters_of_a_float32_run(self):
        """Training computes in float32 and hands back float64 parameters,
        exactly the float32 values, whatever the input dtype."""
        x, y = two_blob_problem()
        for x_in in (x, x.astype(np.float32)):
            net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
            SGDTrainer(epochs=2, seed=1).train(net, x_in, y)
            for layer in net.layers:
                for p in (layer.weights, layer.biases):
                    assert p.dtype == np.float64
                    assert np.array_equal(p.astype(np.float32), p)
                assert layer.grad_weights.dtype == np.float32

    def test_no_pass_without_validation(self, predict_calls):
        x, y = two_blob_problem()
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        SGDTrainer(epochs=3, seed=1).train(net, x, y)
        assert predict_calls == []

    def test_one_validation_pass_per_epoch(self, predict_calls):
        x, y = two_blob_problem()
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        SGDTrainer(epochs=3, seed=1).train(net, x, y, x_val=x[:20],
                                           y_val=y[:20])
        assert predict_calls == [20, 20, 20]


class TestLearning:
    def test_learns_blobs(self):
        x, y = two_blob_problem()
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 16, 2), seed=0))
        result = SGDTrainer(epochs=10, batch_size=32, learning_rate=0.3,
                            seed=1).train(net, x, y)
        assert result.final_train_accuracy > 0.95
        assert result.train_loss[-1] < result.train_loss[0]

    def test_deterministic_training(self):
        x, y = two_blob_problem()
        accs = []
        for _ in range(2):
            net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 16, 2), seed=0))
            res = SGDTrainer(epochs=3, seed=5).train(net, x, y)
            accs.append(res.train_accuracy[-1])
        assert accs[0] == accs[1]

    def test_mse_loss_with_sigmoid_output_learns(self):
        """The DeepLearnToolbox-fidelity configuration must also train."""
        x, y = two_blob_problem()
        spec = NetworkSpec(layer_sizes=(4, 16, 2), output_activation="sigmoid")
        net = FeedforwardANN(spec)
        res = SGDTrainer(epochs=12, loss="mse", learning_rate=0.5,
                         seed=2).train(net, x, y)
        assert res.final_train_accuracy > 0.9

    def test_early_stopping_halts(self):
        x, y = two_blob_problem()
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 16, 2), seed=0))
        res = SGDTrainer(epochs=50, patience=2, seed=3).train(
            net, x, y, x_val=x[:50], y_val=y[:50]
        )
        assert res.epochs_run < 50

    def test_history_lengths_consistent(self):
        x, y = two_blob_problem()
        net = FeedforwardANN(NetworkSpec(layer_sizes=(4, 8, 2), seed=0))
        res = SGDTrainer(epochs=4, seed=1).train(net, x, y, x_val=x[:20], y_val=y[:20])
        assert len(res.train_loss) == res.epochs_run
        assert len(res.val_accuracy) == res.epochs_run
        assert res.wall_seconds > 0
