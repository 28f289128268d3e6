"""Tests of activation functions and their derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.nn.activations import ReLU, Sigmoid, Tanh, get_activation, softmax

FLOATS = st.floats(-50.0, 50.0)


def numeric_derivative(act, z, eps=1e-6):
    return (act.forward(z + eps) - act.forward(z - eps)) / (2 * eps)


class TestSigmoid:
    def test_range(self):
        s = Sigmoid()
        z = np.linspace(-100, 100, 1001)
        out = s.forward(z)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_midpoint(self):
        assert Sigmoid().forward(np.array([0.0]))[0] == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(z=arrays(float, 7, elements=st.floats(-20, 20)))
    def test_derivative_matches_numeric(self, z):
        s = Sigmoid()
        a = s.forward(z)
        np.testing.assert_allclose(
            s.derivative(z, a), numeric_derivative(s, z), atol=1e-5
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_keeps_its_input_dtype(self, dtype, in_place):
        """Float32 stays float32 (the training pass) and float64 stays
        float64, with the bytes of ``1 / (1 + exp(-clip(z)))`` in the
        input's dtype."""
        z = np.linspace(-70.0, 70.0, 101).astype(dtype)
        want = (1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))).tobytes()
        out = Sigmoid().forward(z.copy(), in_place=in_place)
        assert out.dtype == dtype
        assert out.tobytes() == want
        assert Sigmoid().derivative(z, out).dtype == dtype

    def test_extreme_inputs_do_not_overflow(self):
        out = Sigmoid().forward(np.array([-1e6, 1e6]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestTanhRelu:
    @settings(max_examples=50, deadline=None)
    @given(z=arrays(float, 5, elements=st.floats(-5, 5)))
    def test_tanh_derivative(self, z):
        t = Tanh()
        a = t.forward(z)
        np.testing.assert_allclose(
            t.derivative(z, a), numeric_derivative(t, z), atol=1e-5
        )

    def test_relu_kink(self):
        r = ReLU()
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(r.forward(z), [0.0, 0.0, 3.0])
        np.testing.assert_array_equal(r.derivative(z, r.forward(z)), [0.0, 0.0, 1.0])


class TestRegistry:
    def test_lookup_all(self):
        for name in ("sigmoid", "tanh", "relu", "identity"):
            assert get_activation(name).name == name

    def test_lookup_case_insensitive(self):
        assert get_activation("Sigmoid").name == "sigmoid"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_activation("swish")


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(8, 10))
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)

    def test_large_logits_stable(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)
