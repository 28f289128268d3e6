"""Fixed-point quantization of synaptic weights.

The paper stores synapses as 8-bit words ("We use a synaptic precision
of 8 bits since the observed degradation in accuracy is less than 0.5%
from the nominal value", Sec. VI).  This module converts a trained
network's float parameters to two's-complement fixed-point codes and
back.  Codes are exposed as unsigned integer arrays so the fault
injector can flip *physical* bit positions with XOR masks — bit 7 is the
sign/MSB that the hybrid memory protects, bit 0 the LSB.

Format notation: a :class:`QFormat` with ``n_bits=8, frac_bits=6`` is
the classic Q1.6 + sign layout covering [-2.0, 2.0) with 2^-6 steps.
:func:`choose_qformat` picks the fraction width from the largest weight
magnitude so that training-free clipping loss stays negligible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.network import FeedforwardANN


@dataclass(frozen=True)
class QFormat:
    """Two's-complement fixed-point format."""

    n_bits: int = 8
    frac_bits: int = 6

    def __post_init__(self) -> None:
        if not 2 <= self.n_bits <= 16:
            raise ConfigurationError(f"n_bits must lie in [2, 16], got {self.n_bits}")
        if not 0 <= self.frac_bits <= self.n_bits - 1:
            raise ConfigurationError(
                f"frac_bits must lie in [0, n_bits-1], got {self.frac_bits}"
            )

    @property
    def scale(self) -> float:
        """LSB weight: one code step equals ``1 / scale``."""
        return float(2**self.frac_bits)

    @property
    def min_value(self) -> float:
        return -(2 ** (self.n_bits - 1)) / self.scale

    @property
    def max_value(self) -> float:
        return (2 ** (self.n_bits - 1) - 1) / self.scale

    @property
    def code_mask(self) -> int:
        return (1 << self.n_bits) - 1

    def bit_weight(self, bit: int) -> float:
        """Magnitude impact of flipping ``bit`` (0 = LSB).

        The MSB (sign bit) of a two's-complement word carries weight
        ``2^(n_bits-1) / scale`` — for Q1.6 that is 2.0, which is why MSB
        failures devastate the network (paper Sec. III).
        """
        if not 0 <= bit < self.n_bits:
            raise ConfigurationError(f"bit must lie in [0, {self.n_bits}), got {bit}")
        return (2**bit) / self.scale


def choose_qformat(max_abs: float, n_bits: int = 8) -> QFormat:
    """Pick the fraction width that covers ``[-max_abs, max_abs]``.

    Chooses the largest ``frac_bits`` (finest resolution) whose positive
    full scale still reaches ``max_abs``.
    """
    if max_abs <= 0:
        return QFormat(n_bits=n_bits, frac_bits=n_bits - 1)
    for frac in range(n_bits - 1, -1, -1):
        fmt = QFormat(n_bits=n_bits, frac_bits=frac)
        if fmt.max_value >= max_abs:
            return fmt
    raise ConfigurationError(
        f"cannot represent |w|={max_abs} with {n_bits} bits; "
        "normalize the weights first"
    )


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise ConfigurationError(
            f"{what}: {bad} non-finite value(s) (NaN or inf) cannot be quantized"
        )


def quantize_array(values: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Float array -> unsigned two's-complement codes (np.uint16).

    NaN and inf have no code: they raise :class:`ConfigurationError`
    rather than cast to an arbitrary (NaN) or saturated (inf) word.
    """
    values = np.asarray(values, dtype=float)
    _require_finite(values, "values")
    lo = -(2 ** (fmt.n_bits - 1))
    hi = 2 ** (fmt.n_bits - 1) - 1
    q = np.clip(np.rint(values * fmt.scale), lo, hi).astype(np.int32)
    return (q & fmt.code_mask).astype(np.uint16)


def _sign_extend(codes: np.ndarray, fmt: QFormat) -> np.ndarray:
    signed = codes.astype(np.int32)
    sign_bit = 1 << (fmt.n_bits - 1)
    signed = np.where(signed >= sign_bit, signed - (1 << fmt.n_bits), signed)
    return signed.astype(float) / fmt.scale


@functools.lru_cache(maxsize=16)
def _dequantize_table(fmt: QFormat) -> np.ndarray:
    """The value of every code of ``fmt``, indexed by code (read-only,
    since every caller shares it)."""
    table = _sign_extend(np.arange(fmt.code_mask + 1), fmt)
    table.setflags(write=False)
    return table


def dequantize_array(codes: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Unsigned codes -> float values (sign-extended).

    Unsigned integer codes (what :class:`QuantizedWeights` holds) are
    looked up in a per-format table of all ``2**n_bits`` values: the
    same elementwise function, hence the same bytes, in one pass.  Any
    other dtype is sign-extended arithmetically.
    """
    codes = np.asarray(codes)
    if codes.size and int(codes.max(initial=0)) > fmt.code_mask:
        raise ConfigurationError("codes exceed the format's bit width")
    if codes.dtype.kind == "u":
        return _dequantize_table(fmt)[codes]
    return _sign_extend(codes, fmt)


class QuantizedWeights:
    """All synaptic parameters of a network in fixed-point code form.

    One code array per layer for weights and one for biases, in
    input-to-output layer order.  This object is the "memory image" that
    the fault injector perturbs; :meth:`apply_to` writes (possibly
    perturbed) values back into a live network.
    """

    def __init__(
        self,
        fmt: QFormat,
        weight_codes: Sequence[np.ndarray],
        bias_codes: Sequence[np.ndarray],
    ):
        if len(weight_codes) != len(bias_codes):
            raise ConfigurationError("weight/bias layer count mismatch")
        self.fmt = fmt
        self.weight_codes: List[np.ndarray] = [np.array(c, dtype=np.uint16)
                                               for c in weight_codes]
        self.bias_codes: List[np.ndarray] = [np.array(c, dtype=np.uint16)
                                             for c in bias_codes]

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.weight_codes)

    def layer_synapse_count(self, index: int) -> int:
        """Weights + biases stored for one layer (its fan-in synapses)."""
        return self.weight_codes[index].size + self.bias_codes[index].size

    @property
    def total_synapses(self) -> int:
        return sum(self.layer_synapse_count(i) for i in range(self.n_layers))

    @property
    def total_bits(self) -> int:
        return self.total_synapses * self.fmt.n_bits

    def clone(self) -> "QuantizedWeights":
        return QuantizedWeights(
            self.fmt,
            [c.copy() for c in self.weight_codes],
            [c.copy() for c in self.bias_codes],
        )

    def dequantized(self) -> tuple:
        """``(weights, biases)`` float lists."""
        weights = [dequantize_array(c, self.fmt) for c in self.weight_codes]
        biases = [dequantize_array(c, self.fmt) for c in self.bias_codes]
        return weights, biases

    def apply_to(self, network: FeedforwardANN) -> None:
        """Write the (de)quantized parameters into ``network`` in place."""
        if network.n_weight_layers != self.n_layers:
            raise ConfigurationError(
                f"network has {network.n_weight_layers} layers, "
                f"codes have {self.n_layers}"
            )
        weights, biases = self.dequantized()
        for layer, w, b in zip(network.layers, weights, biases):
            if w.shape != layer.weights.shape or b.shape != layer.biases.shape:
                raise ConfigurationError(f"{layer.name}: quantized shape mismatch")
            layer.weights = w
            layer.biases = b


def quantize_network(
    network: FeedforwardANN,
    n_bits: int = 8,
    fmt: QFormat = None,
) -> QuantizedWeights:
    """Quantize every parameter of ``network`` to fixed point.

    A single format is chosen for the whole network (from the global
    maximum magnitude) unless an explicit ``fmt`` is given — matching the
    single synaptic word format of the paper's memory.  A NaN or inf
    parameter raises :class:`ConfigurationError` naming its layer.
    """
    all_params = [layer.weights for layer in network.layers] + [
        layer.biases for layer in network.layers
    ]
    for layer in network.layers:
        _require_finite(layer.weights, f"{layer.name} weights")
        _require_finite(layer.biases, f"{layer.name} biases")
    if fmt is None:
        max_abs = max(float(np.max(np.abs(p))) for p in all_params)
        fmt = choose_qformat(max_abs, n_bits=n_bits)
    weight_codes = [quantize_array(layer.weights, fmt) for layer in network.layers]
    bias_codes = [quantize_array(layer.biases, fmt) for layer in network.layers]
    return QuantizedWeights(fmt, weight_codes, bias_codes)
