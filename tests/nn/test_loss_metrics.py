"""Tests of losses and metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import CrossEntropyLoss, MeanSquaredError, get_loss
from repro.nn.activations import softmax
from repro.nn.loss import one_hot
from repro.nn.metrics import accuracy, confusion_matrix, per_class_accuracy


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            one_hot(np.array([0, 3]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        scores = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = CrossEntropyLoss().value_and_grad(scores, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_k(self):
        scores = np.zeros((4, 10))
        loss, _ = CrossEntropyLoss().value_and_grad(scores, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(6, 5))
        _, grad = CrossEntropyLoss().value_and_grad(scores, rng.integers(0, 5, 6))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_the_scores_dtype(self, dtype):
        """Float32 scores give a float32 gradient (the targets are cast,
        not the scores); float64 gives ``softmax(s) - onehot``'s bytes."""
        scores = np.random.default_rng(0).normal(size=(6, 4)).astype(dtype)
        labels = np.array([0, 3, 1, 2, 2, 0])
        _, grad = CrossEntropyLoss().value_and_grad(scores, labels)
        want = softmax(scores) - one_hot(labels, 4).astype(dtype)
        assert grad.dtype == dtype
        assert grad.tobytes() == want.tobytes()
        _, diff = MeanSquaredError().value_and_grad(scores, labels)
        assert diff.dtype == dtype


class TestMse:
    def test_zero_for_exact_onehot(self):
        scores = one_hot(np.array([1, 0]), 3)
        loss, grad = MeanSquaredError().value_and_grad(scores, np.array([1, 0]))
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0)

    def test_registry(self):
        assert get_loss("mse").name == "mse"
        assert get_loss("cross_entropy").name == "cross_entropy"
        with pytest.raises(ConfigurationError):
            get_loss("hinge")


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
        assert cm[0, 0] == 1
        assert cm[1, 1] == 1
        assert cm[2, 1] == 1
        assert cm[2, 2] == 1
        assert cm.sum() == 4

    def test_per_class_accuracy_handles_absent_class(self):
        acc = per_class_accuracy(np.array([0, 0]), np.array([0, 0]), 3)
        assert acc[0] == pytest.approx(1.0)
        assert np.isnan(acc[1]) and np.isnan(acc[2])
