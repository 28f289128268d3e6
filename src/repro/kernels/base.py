"""Margin-kernel backend interface, registry and selection.

Every failure-margin estimate in the stack — Monte-Carlo tallies,
importance sampling, characterization tables and distributed shard
workers — funnels through
:func:`repro.sram.failures.compute_failure_margins`.  This module puts a
*backend* seam behind that function: a :class:`MarginKernel` evaluates
the per-sample failure margins of one ``(cell, vdd, ΔVT-block)`` and
registered backends are interchangeable because they are required to be
**bit-identical** — same inputs, same output arrays, to the last ULP.

Two backends ship:

* ``reference`` — the original per-mechanism code path (one vectorized
  bisection per node equation, straight through :mod:`repro.sram`).
* ``fused`` — compiles the cell into a flat per-device coefficient
  table and solves *all* independent node equations of a sample block
  in one stacked bisection with preallocated scratch buffers (see
  :mod:`repro.kernels.fused`).  The default.

Selection, in precedence order:

1. an explicit ``backend=`` argument (a name or a kernel instance)
   threaded through the analysis APIs — this is what pins the backend
   across process boundaries (spawned sweep workers, remote shard
   workers receive the analyzer's pinned name);
2. a process-wide override installed with :func:`set_backend`;
3. the ``REPRO_BACKEND`` environment variable (inherited by spawned
   worker processes, so it also steers ``--jobs`` fan-outs);
4. the library default, :data:`DEFAULT_BACKEND`.

Cache identity: backends with ``rev == 0`` implement the canonical
margin semantics and deliberately contribute *nothing* to cache
payloads — reference and fused runs address the very same
content-addressed entries and dedupe each other's work.  A future
backend with intentionally different numerics (e.g. a reduced-precision
GPU path) must declare a nonzero ``rev``; :func:`payload_fields` then
records ``{"margin_kernel": {"backend": name, "rev": rev}}`` in every
cache payload so its results can never collide with canonical ones.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sram.bitcell import BitcellBase
    from repro.sram.failures import FailureMargins
    from repro.sram.read_path import BitlineModel

ArrayLike = Union[float, np.ndarray]

#: Environment variable naming the default backend for this process
#: (and, because environments are inherited, its spawned workers).
ENV_VAR = "REPRO_BACKEND"

#: Library default when nothing else selects a backend.
DEFAULT_BACKEND = "fused"


class MarginKernel(abc.ABC):
    """One evaluation strategy for the per-sample failure margins.

    Subclasses set ``name`` (the registry key) and may raise ``rev``
    *only* if they intentionally deviate from the canonical bit-exact
    margin semantics (see module docstring).
    """

    #: Registry name; must be unique among registered backends.
    name: str = ""

    #: Semantic revision of the produced margins.  0 = canonical
    #: (bit-identical to ``reference``); nonzero revisions get their own
    #: cache entries via :func:`payload_fields`.
    rev: int = 0

    @abc.abstractmethod
    def margins(
        self,
        cell: "BitcellBase",
        vdd: float,
        dvt: ArrayLike,
        bitline: "BitlineModel",
        read_cycle: float,
    ) -> "FailureMargins":
        """Evaluate all applicable failure margins of one sample block.

        ``bitline`` and ``read_cycle`` arrive concrete (defaults already
        resolved by :func:`repro.sram.failures.compute_failure_margins`).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MarginKernel {self.name!r} rev={self.rev}>"


_REGISTRY: Dict[str, MarginKernel] = {}

#: Process-wide override installed by :func:`set_backend` (None = none).
_OVERRIDE: Optional[MarginKernel] = None


def register_backend(kernel: MarginKernel) -> MarginKernel:
    """Register (or replace) a backend under ``kernel.name``."""
    if not kernel.name:
        raise ConfigurationError("margin kernel must define a non-empty name")
    _REGISTRY[kernel.name] = kernel
    return kernel


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def _lookup(name: str) -> MarginKernel:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends()) or "(none)"
        raise ConfigurationError(
            f"unknown margin-kernel backend {name!r}; known: {known}"
        ) from None


def set_backend(name: Optional[str]) -> MarginKernel:
    """Install (or, with ``None``, clear) the process-wide backend override.

    Returns the backend that is now active.  The override outranks
    ``REPRO_BACKEND`` but not an explicit ``backend=`` argument; it does
    *not* propagate to spawned worker processes — pin the analyzer's
    ``backend`` field or export the environment variable for that.
    """
    global _OVERRIDE
    _OVERRIDE = None if name is None else _lookup(name)
    return get_backend()


def get_backend() -> MarginKernel:
    """The currently-selected backend (override > env > default)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return _lookup(env)
    return _lookup(DEFAULT_BACKEND)


def resolve_backend(
    backend: Union[None, str, MarginKernel] = None
) -> MarginKernel:
    """Collapse a backend spec (name, instance or ``None``) to a kernel."""
    if backend is None:
        return get_backend()
    if isinstance(backend, MarginKernel):
        return backend
    return _lookup(backend)


def payload_fields(
    backend: Union[None, str, MarginKernel] = None
) -> Dict[str, Any]:
    """Cache-payload contribution of a backend spec.

    Empty for canonical (``rev == 0``) backends — their results are
    bit-identical, so reference/fused runs must share cache entries and
    the default path's historical cache keys must not churn.  A nonzero
    ``rev`` records the backend identity, giving semantically different
    numerics their own content addresses.
    """
    kernel = resolve_backend(backend)
    if kernel.rev == 0:
        return {}
    return {"margin_kernel": {"backend": kernel.name, "rev": kernel.rev}}
