"""Tests of fixed-point quantization (including hypothesis roundtrips)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.nn import (
    FeedforwardANN,
    NetworkSpec,
    QFormat,
    dequantize_array,
    quantize_array,
    quantize_network,
)
from repro.nn.quantize import choose_qformat


class TestQFormat:
    def test_q1_6_range(self):
        fmt = QFormat(n_bits=8, frac_bits=6)
        assert fmt.min_value == pytest.approx(-2.0)
        assert fmt.max_value == pytest.approx(2.0 - 1 / 64)

    def test_bit_weights_double(self):
        fmt = QFormat(n_bits=8, frac_bits=6)
        weights = [fmt.bit_weight(b) for b in range(8)]
        for lo, hi in zip(weights[:-1], weights[1:]):
            assert hi == pytest.approx(2 * lo)
        assert weights[-1] == pytest.approx(2.0)  # MSB flip magnitude

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QFormat(n_bits=1)
        with pytest.raises(ConfigurationError):
            QFormat(n_bits=8, frac_bits=8)
        with pytest.raises(ConfigurationError):
            QFormat(n_bits=8, frac_bits=6).bit_weight(8)


class TestChooseQFormat:
    def test_small_weights_get_fine_resolution(self):
        assert choose_qformat(0.9, 8).frac_bits == 7

    def test_q1_6_for_weights_up_to_2(self):
        assert choose_qformat(1.5, 8).frac_bits == 6

    def test_larger_weights_coarser(self):
        assert choose_qformat(3.0, 8).frac_bits == 5

    def test_degenerate_zero(self):
        assert choose_qformat(0.0, 8).frac_bits == 7

    def test_unrepresentable_raises(self):
        with pytest.raises(ConfigurationError):
            choose_qformat(1e9, 8)


class TestRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(
        values=arrays(float, 16, elements=st.floats(-1.9, 1.9)),
        frac=st.integers(3, 7),
    )
    def test_roundtrip_error_within_half_lsb(self, values, frac):
        fmt = QFormat(n_bits=8, frac_bits=frac)
        clipped = np.clip(values, fmt.min_value, fmt.max_value)
        codes = quantize_array(clipped, fmt)
        restored = dequantize_array(codes, fmt)
        assert np.max(np.abs(restored - clipped)) <= 0.5 / fmt.scale + 1e-12

    def test_codes_within_mask(self):
        fmt = QFormat(8, 6)
        codes = quantize_array(np.linspace(-3, 3, 100), fmt)
        assert codes.dtype == np.uint16
        assert codes.max() <= fmt.code_mask

    def test_saturation_at_extremes(self):
        fmt = QFormat(8, 6)
        codes = quantize_array(np.array([-100.0, 100.0]), fmt)
        values = dequantize_array(codes, fmt)
        assert values[0] == pytest.approx(fmt.min_value)
        assert values[1] == pytest.approx(fmt.max_value)

    def test_dequantize_rejects_wide_codes(self):
        with pytest.raises(ConfigurationError):
            dequantize_array(np.array([256], dtype=np.uint16), QFormat(8, 6))

    def test_sign_bit_semantics(self):
        fmt = QFormat(8, 6)
        assert dequantize_array(np.array([0x80]), fmt)[0] == pytest.approx(-2.0)
        assert dequantize_array(np.array([0x7F]), fmt)[0] == pytest.approx(2.0 - 1 / 64)


class TestTableDequantization:
    """Unsigned codes are dequantized by table lookup; the table holds
    the arithmetic sign extension's bytes for every code."""

    @pytest.mark.parametrize("n_bits", range(2, 17))
    def test_table_equals_arithmetic_on_every_code(self, n_bits):
        codes = np.arange(1 << n_bits)
        for frac in {0, n_bits // 2, n_bits - 1}:
            fmt = QFormat(n_bits=n_bits, frac_bits=frac)
            arithmetic = dequantize_array(codes.astype(np.int64), fmt)
            for dtype in (np.uint16, np.uint32, np.uint64):
                table = dequantize_array(codes.astype(dtype), fmt)
                assert table.dtype == arithmetic.dtype == np.float64
                assert table.tobytes() == arithmetic.tobytes()

    def test_shape_and_empty_arrays(self):
        fmt = QFormat(8, 7)
        codes = np.arange(24, dtype=np.uint16).reshape(2, 3, 4)
        assert dequantize_array(codes, fmt).shape == (2, 3, 4)
        empty = dequantize_array(np.zeros((0, 5), dtype=np.uint16), fmt)
        assert empty.shape == (0, 5) and empty.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_range_error_unchanged(self, dtype):
        with pytest.raises(ConfigurationError, match="exceed"):
            dequantize_array(np.array([3, 16], dtype=dtype), QFormat(4, 2))

    def test_negative_signed_input_keeps_arithmetic(self):
        fmt = QFormat(8, 6)
        assert dequantize_array(np.array([-1, 5]), fmt).tolist() == [
            -1 / 64, 5 / 64]


class TestNonFiniteWeights:
    """NaN and inf have no fixed-point code: quantizing one is an error,
    not a silent code 0 (NaN) or saturated word (inf)."""

    @pytest.fixture()
    def net(self):
        return FeedforwardANN(NetworkSpec(layer_sizes=(12, 8, 6, 5), seed=3))

    def test_nan_in_a_later_layer_names_it(self, net):
        # Not first in the max over layers, which Python's max skips.
        net.layers[1].weights[0, :2] = np.nan
        with pytest.raises(ConfigurationError,
                           match=rf"{net.layers[1].name} weights: 2 non-finite"):
            quantize_network(net)

    def test_inf_bias_is_rejected_with_an_explicit_format(self, net):
        net.layers[2].biases[0] = -np.inf
        with pytest.raises(ConfigurationError,
                           match=rf"{net.layers[2].name} biases: 1 non-finite"):
            quantize_network(net, fmt=QFormat(8, 6))

    def test_quantize_array_rejects_nan(self):
        with pytest.raises(ConfigurationError, match="1 non-finite"):
            quantize_array(np.array([0.5, np.nan]), QFormat(8, 6))


class TestQuantizeNetwork:
    @pytest.fixture()
    def net(self):
        return FeedforwardANN(NetworkSpec(layer_sizes=(12, 8, 5), seed=3))

    def test_synapse_accounting(self, net):
        q = quantize_network(net)
        assert q.total_synapses == net.spec.n_synapses
        assert q.total_bits == 8 * net.spec.n_synapses

    def test_apply_changes_weights_slightly(self, net):
        before = [w.copy() for w in net.weight_matrices()]
        q = quantize_network(net, n_bits=8)
        q.apply_to(net)
        for b, a in zip(before, net.weight_matrices()):
            assert np.max(np.abs(b - a)) <= 0.5 / q.fmt.scale + 1e-12

    def test_clone_is_independent(self, net):
        q = quantize_network(net)
        c = q.clone()
        c.weight_codes[0][0, 0] ^= 0xFF
        assert q.weight_codes[0][0, 0] != c.weight_codes[0][0, 0]

    def test_layer_count_checked(self, net):
        q = quantize_network(net)
        other = FeedforwardANN(NetworkSpec(layer_sizes=(12, 8, 6, 5), seed=1))
        with pytest.raises(ConfigurationError):
            q.apply_to(other)

    def test_explicit_format_respected(self, net):
        fmt = QFormat(n_bits=6, frac_bits=4)
        q = quantize_network(net, fmt=fmt)
        assert q.fmt == fmt
        assert q.total_bits == 6 * net.spec.n_synapses
