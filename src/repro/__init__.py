"""repro — reproduction of "Significance Driven Hybrid 8T-6T SRAM for
Energy-Efficient Synaptic Storage in Artificial Neural Networks"
(Srinivasan et al., DATE 2016).

The package is organised as a circuit-to-system pipeline:

* :mod:`repro.devices` — 22 nm-class compact MOSFET model + VT variation.
* :mod:`repro.sram` — 6T/8T bitcells, stability margins, Monte-Carlo
  failure analysis, power/area models, array characterization.
* :mod:`repro.mem` — synaptic word formats, hybrid 8T-6T banks and the
  three memory configurations of the paper (base / Config 1 / Config 2).
* :mod:`repro.nn` — numpy feedforward ANN substrate (training,
  quantization, synthetic digit dataset).
* :mod:`repro.fault` — bit-level fault injection driven by the bitcell
  failure statistics.
* :mod:`repro.core` — the paper's contribution: significance-driven and
  sensitivity-driven hybrid memory design plus the end-to-end simulator.
* :mod:`repro.kernels` — the stacked-bisection fused margin kernel
  behind the failure-margin hot path, and the per-mechanism reference
  path it is tested bit-identical against (see ``docs/performance.md``).
* :mod:`repro.runtime` — parallel sweep executor, content-addressed
  result cache, sharded Monte Carlo.
* :mod:`repro.distributed` — dispatcher/worker fleet over one
  JSON-lines protocol (see ``docs/distributed.md``).
* :mod:`repro.obs` — metrics, tracing, flight recorder and the ``top``
  dashboard.

See ``docs/architecture.md`` for the layer-by-layer system walkthrough
and ``docs/reproducing.md`` for the paper-versus-reproduced map of every
table and figure.
"""

from repro.version import __version__

__all__ = ["__version__"]
