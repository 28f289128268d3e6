"""Per-bit failure probabilities for a hybrid synaptic word.

Bridges the circuit level to the system level: given the Monte-Carlo
characterizations of the 6T and 8T cells at an operating voltage, and a
word layout with the top ``msb_in_8t`` bits in 8T cells, produce the
LSB-first vector of per-bit flip probabilities that drives the injector.

Following the paper's modelling assumptions (Sec. V):

* a faulty cell manifests as a flipped bit on access;
* read-access and write failures are mutually exclusive per cell (they
  require conflicting device corners), so the per-cell fault probability
  is their sum plus the (negligible) read-disturb term;
* 8T bits use the 8T cell's probabilities, which are effectively zero in
  the paper's voltage range — this is what "protecting the MSBs" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.sram.characterize import CellCharacterization, CharacterizationPoint


@dataclass(frozen=True)
class BitErrorRates:
    """Per-bit-position fault probabilities for one word layout.

    ``p_read``/``p_write`` are LSB-first vectors of the read-access and
    write components; ``p_total`` is the injected probability (their sum,
    clipped to 1).  ``msb_in_8t`` records the layout for reporting.
    """

    vdd: float
    n_bits: int
    msb_in_8t: int
    p_read: np.ndarray
    p_write: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.msb_in_8t <= self.n_bits:
            raise ConfigurationError(
                f"msb_in_8t must lie in [0, {self.n_bits}], got {self.msb_in_8t}"
            )
        for name, vec in (("p_read", self.p_read), ("p_write", self.p_write)):
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.n_bits,):
                raise ConfigurationError(
                    f"{name} must have shape ({self.n_bits},), got {arr.shape}"
                )
            if np.any((arr < 0) | (arr > 1)):
                raise ConfigurationError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, arr)

    @property
    def p_total(self) -> np.ndarray:
        """Injected per-bit flip probability (read + write, exclusive)."""
        return np.minimum(self.p_read + self.p_write, 1.0)

    @property
    def expected_flips_per_word(self) -> float:
        return float(self.p_total.sum())

    def scaled(self, factor: float) -> "BitErrorRates":
        """Uniformly scaled rates (used by sensitivity stress sweeps)."""
        return BitErrorRates(
            vdd=self.vdd,
            n_bits=self.n_bits,
            msb_in_8t=self.msb_in_8t,
            p_read=np.minimum(self.p_read * factor, 1.0),
            p_write=np.minimum(self.p_write * factor, 1.0),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; ``from_dict`` round-trips it bit-exactly.

        Probabilities survive the trip unchanged because Python floats
        serialize via shortest round-tripping repr — the distributed
        job specs (:mod:`repro.distributed.jobs`) rely on this to make
        the wire form double as the cache identity.
        """
        return {
            "vdd": self.vdd,
            "n_bits": self.n_bits,
            "msb_in_8t": self.msb_in_8t,
            "p_read": [float(p) for p in self.p_read],
            "p_write": [float(p) for p in self.p_write],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "BitErrorRates":
        if not isinstance(doc, Mapping):
            raise ConfigurationError(
                f"BitErrorRates document must be a mapping, got {type(doc)!r}"
            )
        missing = {"vdd", "n_bits", "msb_in_8t", "p_read", "p_write"} - set(doc)
        if missing:
            raise ConfigurationError(
                f"BitErrorRates document missing fields: {sorted(missing)}"
            )
        try:
            return cls(
                vdd=float(doc["vdd"]),
                n_bits=int(doc["n_bits"]),
                msb_in_8t=int(doc["msb_in_8t"]),
                p_read=np.asarray(doc["p_read"], dtype=float),
                p_write=np.asarray(doc["p_write"], dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"BitErrorRates document is malformed: {exc}"
            ) from None


def _point(table, vdd: float) -> CharacterizationPoint:
    if isinstance(table, CharacterizationPoint):
        return table
    if isinstance(table, CellCharacterization):
        return table.point_at(vdd)
    raise ConfigurationError(
        f"expected CellCharacterization or CharacterizationPoint, got {type(table)!r}"
    )


def word_bit_error_rates(
    vdd: float,
    table_6t,
    table_8t,
    n_bits: int = 8,
    msb_in_8t: int = 0,
    include_write_failures: bool = True,
    include_read_disturb: bool = True,
) -> BitErrorRates:
    """Build the per-bit fault vector for a hybrid word at ``vdd``.

    Bits ``n_bits-1 .. n_bits-msb_in_8t`` (the MSBs) take the 8T cell's
    probabilities; the rest take the 6T cell's.  The two include flags
    support the failure-model ablations.
    """
    if not 0 <= msb_in_8t <= n_bits:
        raise ConfigurationError(
            f"msb_in_8t must lie in [0, {n_bits}], got {msb_in_8t}"
        )
    p6 = _point(table_6t, vdd)
    p8 = _point(table_8t, vdd)

    def read_component(point) -> float:
        total = point.p_read_access
        if include_read_disturb:
            total += point.p_read_disturb
        return min(total, 1.0)

    p_read = np.empty(n_bits)
    p_write = np.empty(n_bits)
    for bit in range(n_bits):
        is_8t = bit >= n_bits - msb_in_8t
        point = p8 if is_8t else p6
        p_read[bit] = read_component(point)
        p_write[bit] = point.p_write if include_write_failures else 0.0

    return BitErrorRates(
        vdd=float(vdd), n_bits=n_bits, msb_in_8t=msb_in_8t,
        p_read=p_read, p_write=p_write,
    )
