"""Failure mechanisms and their continuous Monte-Carlo margins.

The paper (Sec. IV) considers three parametric failure mechanisms, all
driven by random threshold-voltage fluctuation:

1. **Read access failure** — the cell cannot develop the sense margin on
   the bitline within the read cycle.
2. **Write failure** — the cell cannot be flipped within the write cycle.
3. **Read disturb failure** — a read unintentionally flips the cell.

For each sampled ΔVT vector we compute a *continuous margin* whose sign
decides pass/fail.  Keeping the margin (rather than only the boolean)
enables Gaussian-tail estimation of rare failure probabilities that a
plain 10^4–10^5-sample Monte Carlo cannot resolve — the same reason the
SRAM yield literature works with margin distributions.

Margins (positive = pass):

* read access: ``log(T_read / delay)`` — log-domain because delay is a
  reciprocal of current and therefore heavily right-skewed.
* write: ``V_trip(right inverter) - V(written node)`` at full wordline
  drive — the static criterion of Mukhopadhyay et al. (paper ref [10]).
* read disturb: ``V_trip(left inverter) - V_bump`` — the read bump must
  stay below the opposing trip point.  8T cells are disturb-free by
  construction and get ``+inf``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sram.bitcell import BitcellBase
from repro.sram.read_path import BitlineModel, nominal_read_cycle


class FailureType(enum.Enum):
    """The three SRAM failure mechanisms analysed by the paper."""

    READ_ACCESS = "read_access"
    WRITE = "write"
    READ_DISTURB = "read_disturb"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FailureMargins:
    """Per-sample continuous margins for one (cell, VDD) analysis.

    Attributes are arrays of shape ``(n_samples,)``; ``read_disturb`` may
    be ``None`` for disturb-free (8T) cells.
    """

    read_access: np.ndarray
    write: np.ndarray
    read_disturb: Optional[np.ndarray]

    def margin(self, failure_type: FailureType) -> Optional[np.ndarray]:
        """The margin array for one mechanism (``None`` if not applicable)."""
        return {
            FailureType.READ_ACCESS: self.read_access,
            FailureType.WRITE: self.write,
            FailureType.READ_DISTURB: self.read_disturb,
        }[failure_type]

    def fail_mask(self, failure_type: FailureType) -> np.ndarray:
        """Boolean per-sample failure mask for one mechanism."""
        m = self.margin(failure_type)
        if m is None:
            return np.zeros(self.read_access.shape, dtype=bool)
        return ~(m > 0.0)  # NaN counts as failure

    def any_fail_mask(self, exclusive_read_write: bool = True) -> np.ndarray:
        """Per-sample mask of cells failing by *any* mechanism.

        ``exclusive_read_write`` implements the paper's modelling
        assumption that "a 6T bitcell cannot simultaneously have read
        access and write failures since they necessitate conflicting
        requirements": where both margins are negative, the sample is
        attributed to the mechanism with the worse normalized margin and
        still counts exactly once here (union semantics make this a
        no-op for the union; the attribution matters for the per-type
        conditional rates exposed by the Monte-Carlo analyzer).
        """
        del exclusive_read_write  # union is attribution-independent
        mask = self.fail_mask(FailureType.READ_ACCESS) | self.fail_mask(FailureType.WRITE)
        if self.read_disturb is not None:
            mask = mask | self.fail_mask(FailureType.READ_DISTURB)
        return mask


def check_vdd(vdd: Any) -> float:
    """``vdd`` as a float; :class:`ConfigurationError` unless finite and > 0.

    The one supply-voltage check of the API boundary (margins, Monte
    Carlo, memory architectures), so NaN, infinite and non-positive
    supplies fail here instead of deep inside a solver.
    """
    try:
        value = float(vdd)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"vdd must be a finite positive voltage, got {vdd!r}"
        )
    return value


def compute_failure_margins(
    cell: BitcellBase,
    vdd: float,
    dvt: np.ndarray,
    bitline: Optional[BitlineModel] = None,
    read_cycle: Optional[float] = None,
) -> FailureMargins:
    """Evaluate all applicable failure margins for a ΔVT sample matrix.

    Parameters
    ----------
    cell:
        6T or 8T bitcell.
    vdd:
        Operating supply voltage (possibly scaled below nominal).
    dvt:
        ``(n_samples, n_devices)`` ΔVT matrix from the cell's
        :class:`~repro.devices.variation.VariationModel`.
    bitline:
        Bitline load (defaults to the 256-row paper sub-array).
    read_cycle:
        Read time budget; defaults to the guard-banded nominal-voltage
        delay of this cell (see :func:`~repro.sram.read_path.nominal_read_cycle`).

    The margins come from the fused kernel (:mod:`repro.kernels`),
    bit-identical to the per-mechanism reference path.

    Raises :class:`ConfigurationError` for a supply that is not finite
    and positive, and for a ΔVT vector or matrix whose last axis does
    not have one entry per cell device.
    """
    # Lazy import: repro.kernels builds on this module's FailureMargins.
    from repro.kernels.fused import FUSED

    vdd_f = check_vdd(vdd)
    n_devices = len(cell.devices)
    if np.ndim(dvt) and np.shape(dvt)[-1] != n_devices:
        raise ConfigurationError(
            f"dvt has {np.shape(dvt)[-1]} columns; the {cell.kind} cell "
            f"has {n_devices} devices"
        )
    bl = bitline or BitlineModel(cell.technology)
    t_read = nominal_read_cycle(cell, bitline=bl) if read_cycle is None else read_cycle
    return FUSED.margins(cell, vdd_f, dvt, bl, t_read)


def margin_statistics(margins: FailureMargins) -> Dict[str, Dict[str, float]]:
    """Mean/std/min summary per mechanism, for reports and debugging."""
    stats: Dict[str, Dict[str, float]] = {}
    for ftype in FailureType:
        m = margins.margin(ftype)
        if m is None:
            continue
        finite = m[np.isfinite(m)]
        if finite.size == 0:
            stats[ftype.value] = {"mean": float("nan"), "std": float("nan"),
                                  "min": float("nan")}
            continue
        stats[ftype.value] = {
            "mean": float(np.mean(finite)),
            "std": float(np.std(finite)),
            "min": float(np.min(finite)),
        }
    return stats
