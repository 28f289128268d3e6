"""The fused margin kernel: one stacked bisection for every margin.

The reference path answers "what are this block's failure margins" with
up to five *independent* 60-iteration vectorized bisections (read bump,
write node, both trip voltages, 8T read-stack node — and it solves the
read bump twice, once for the read current and once for the disturb
margin), each iteration re-deriving per-device constants from the
``Mosfet``/``Inverter`` object model and allocating dozens of fresh
temporaries.  This kernel removes that overhead while producing
**bit-identical** arrays:

* **Coefficient table** — :func:`_compile` flattens the cell into one
  row per (equation, device) term: the precombined ``k' * W/L`` drive,
  alpha exponent, subthreshold ``n * vT``, Pelgrom-shifted threshold
  base, DIBL/CLM coefficients, and the map from the node voltage to the
  device's ``(vgs, vds)`` bias.  Bisection iterations are pure array
  math with no dataclass attribute chasing.
* **Stacked bisection** — all independent node equations of a sample
  block are solved in one ``(n_equations, n_samples)`` bisection with a
  single midpoint update, one device-model evaluation over the whole
  ``(n_terms, n_samples)`` stack, and preallocated ``out=`` scratch (no
  per-iteration temporaries).  Samples are processed in cache-sized
  column chunks, each run through all its iterations while its state is
  hot.
* **Converged-lane skipping** — lanes pinned at a supply rail are
  detected from the bracket evaluations exactly as the reference solver
  does; monotonicity then fixes their bisection direction, so samples
  whose every lane is pinned drop out of the model evaluation entirely
  (their results are the rail overrides, and their bracket-width
  trajectories collapse to two scalar recurrences shared by all such
  lanes).
* **Replay from a root estimate** — the bisection's output depends only
  on the sign of ``f`` at each midpoint.  Each chunk takes
  ``_EXACT_STEPS`` exact steps, runs ``_ILLINOIS_STEPS`` Illinois
  regula-falsi evaluations to a root estimate ``r̂``, replays the
  remaining steps with the decision ``mid < r̂`` (same midpoint
  arithmetic, same bracket select, no model evaluation), and evaluates
  ``f`` exactly at the final ``lo`` and ``hi``.  A lane is accepted only
  if ``f(lo) < 0 <= f(hi)``; every sample owning a rejected lane (NaN
  lanes included) is re-solved by the exact bisection.  Why an accepted
  lane is exact: ``lo`` only ever moves up to a midpoint, so a midpoint
  the replay sent to ``lo`` is the final ``lo`` itself or lies at least
  one final bracket width ``w = vdd * 2**-k_stop`` (0.5-1 nV) below it;
  likewise above the final ``hi``.  If the *computed* ``f`` is
  sign-monotone at resolution ``w``, the two end signs therefore fix
  the sign at every replayed midpoint, the exact solver would have made
  the same decisions, and the trajectories agree bit for bit.
  Monotonicity at ``w``: every stacked term rises with the node voltage
  (pull-down biases follow ``v``, pull-up and access biases follow
  ``vdd - v``, and each drain current grows in ``vgs`` and ``vds``),
  and the CLM factor alone gives each current a relative ``vds``
  slope of at least ``lambda / (1 + lambda * vdd)`` (0.0196 /V for the
  shipped ``lambda = 0.02``), so ``|f'| >= 0.0196 * sum|I_t|`` per volt.
  The evaluation error is at most ~1e-13 ``sum|I_t|`` (a few tens of
  ulps through exp/log1p/pow/expm1, the softplus branch seams at
  ``|u| = 30`` and the term sum), so sign errors stay within ~10 pV of
  the root: 50x narrower than ``w``.  Measured on x2-widened blocks at
  0.35, 0.7 and 1.1 V, the computed sign never interleaves over more
  than 1 fV.

Iteration count.  The reference solver stops when ``max(hi - lo)`` over
the batch drops below ``_V_TOL``; every lane starts from the same
``[0, vdd]`` bracket and each step halves the bracket up to one rounding
of at most ``u * vdd`` (``u`` = 2^-53), so after ``k`` iterations every
lane's tested width is within ``3 u vdd`` of ``vdd * 2**-k``.  Whenever
``vdd * 2**-k`` clears the tolerance by more than that slack (checked
with a 1e-12 safety band, thousands of times the rigorous bound for any
realistic supply), the stop iteration is a pure function of ``vdd`` and
is precomputed — chunks then run fully independently with no width
bookkeeping.  A ``vdd`` inside the tiny ambiguous band (no supply of the
characterization grid; every one stops at iteration 30) goes to the
reference path whole.

Exactness discipline: every floating-point operation either follows the
reference path's order and associativity, or is replaced by an
operation proven to produce the same bits (sign-symmetric folds of
negations, ``min``-clipped saturation blending, bitwise bracket
selection).  The property suite in ``tests/kernels/`` locks the
contract elementwise.

Inputs the stacked path does not cover (scalar or 1-D ΔVT probes, empty
blocks, cell kinds without a compiled topology, supplies without a
provable stop iteration) delegate to
:func:`~repro.kernels.reference.reference_margins` unchanged.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.devices.inverter import _MAX_BISECTIONS, _V_TOL
from repro.devices.mosfet import Mosfet
from repro.devices.technology import THERMAL_VOLTAGE
from repro.kernels.reference import ArrayLike, reference_margins
from repro.sram.bitcell import (
    PD_L,
    PD_R,
    PG_L,
    PG_R,
    PU_L,
    PU_R,
    RPD,
    RPG,
    BitcellBase,
    EightTCell,
)
from repro.sram.failures import FailureMargins
from repro.sram.read_path import BitlineModel

#: Bias sources: the node voltage itself, its VDD complement, or a rail.
_V, _W, _VDD, _ZERO = "v", "w", "vdd", "zero"

#: Samples per solver chunk.  Chosen so one chunk's full working set
#: (term scratch + bracket state) stays cache-resident while ufunc
#: dispatch overhead remains negligible.
_CHUNK = 8192

#: Safety band around the width-tolerance crossing inside which the
#: stop iteration is not predicted but measured (see module docstring).
#: The rigorous trajectory bound is ``3 * 2**-53 * vdd`` — this band is
#: ~3000x wider for a 1 V supply.
_WIDTH_SAFETY = 1e-12

#: Exact bisection steps before the root estimate, and Illinois steps
#: that produce it (see :func:`_replay`).  A chunk then costs
#: ``_EXACT_STEPS + _ILLINOIS_STEPS + 2`` model evaluations instead of
#: ``k_stop`` (30 across the 0.60-0.95 V characterization grid).
_EXACT_STEPS = 4
_ILLINOIS_STEPS = 6

#: All-ones / all-zeros masks for the bitwise bracket select.
_U64 = np.uint64
_ZERO_U64 = _U64(0)


def _sign_mask(x: np.ndarray, out: np.ndarray) -> None:
    """All-ones where ``x``'s sign bit is set, zero elsewhere (u64 ``out``)."""
    np.right_shift(x.view(np.int64), 63, out=out.view(np.int64))


def _select(
    mask: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """``out = x`` where ``mask`` is all-ones, ``y`` where it is zero.

    All operands are u64 views; ``out`` may alias ``x`` or ``y``.  The
    xor form ``y ^ ((x ^ y) & mask)`` is exact for every payload and
    several times faster than a masked numpy store.
    """
    np.bitwise_xor(x, y, out=tmp)
    np.bitwise_and(tmp, mask, out=tmp)
    np.bitwise_xor(y, tmp, out=out)


def _fixed_stop_iteration(vdd: float) -> Optional[int]:
    """The reference solver's stop iteration, when provable from ``vdd``.

    Returns ``None`` when ``vdd * 2**-k`` lands inside the safety band
    around ``_V_TOL`` for some ``k`` before clearing it — the caller
    must then hand the block to the reference path, which measures the
    widths.
    """
    for k in range(1, _MAX_BISECTIONS + 1):
        width = vdd * 2.0 ** -k  # exact: scaling by a power of two
        if width < _V_TOL - _WIDTH_SAFETY:
            return k
        if width <= _V_TOL + _WIDTH_SAFETY:
            return None
    return _MAX_BISECTIONS


class _CellTable:
    """Flat per-term coefficient table of one cell's node equations.

    Term order matters: within each equation the terms appear in the
    reference path's accumulation order — one positive pull-down term
    followed by the negative pull-up/access terms — so the folded sum
    below reproduces its exact sequence of subtractions.
    """

    __slots__ = (
        "n_eqs", "eq_idx", "vgs_src", "vds_src", "cols", "vt0",
        "k_aspect", "alpha", "n_vt", "dibl", "lambda_cl", "vdsat_factor",
        "accum",
    )

    def __init__(
        self,
        n_eqs: int,
        terms: List[Tuple[int, int, Mosfet, str, str, int]],
    ) -> None:
        self.n_eqs = n_eqs
        self.eq_idx = tuple(t[0] for t in terms)
        self.vgs_src = tuple(t[3] for t in terms)
        self.vds_src = tuple(t[4] for t in terms)
        self.cols = tuple(t[5] for t in terms)
        # Accumulation program per equation: the term rows in reference
        # order.  The scratch holds p_t = -i_t (the drain-clamp negation
        # is folded into the expm1 argument), so the reference chain
        # (i_0 - i_1) - i_2 is exactly ((p_1 - p_0) + p_2): IEEE
        # negation is a sign flip and x - (-y) == x + y bit-for-bit.
        per_eq: List[List[int]] = [[] for _ in range(n_eqs)]
        for t, term in enumerate(terms):
            per_eq[term[0]].append(t)
        for e, rows in enumerate(per_eq):
            assert len(rows) >= 2, f"equation {e} needs >= 2 terms"
            signs = [terms[t][1] for t in rows]
            assert signs[0] > 0 and all(s < 0 for s in signs[1:]), (
                "stacked equations must be (pull-down) - sum(pull-ups)"
            )
        self.accum = tuple(tuple(rows) for rows in per_eq)
        devices = [t[2] for t in terms]
        # Scalar model-card constants, combined exactly as Mosfet.current
        # combines them, stored as (T, 1) columns for row broadcasting.
        self.vt0 = tuple(d.params.vt0 for d in devices)
        self.k_aspect = self._column(
            [d.params.k_prime * d.aspect for d in devices]
        )
        self.alpha = self._column([d.params.alpha for d in devices])
        self.n_vt = self._column(
            [d.params.ideality * THERMAL_VOLTAGE for d in devices]
        )
        self.dibl = self._column([d.params.dibl for d in devices])
        self.lambda_cl = self._column([d.params.lambda_cl for d in devices])
        self.vdsat_factor = self._column(
            [d.params.vdsat_factor for d in devices]
        )

    @staticmethod
    def _column(values: List[float]) -> np.ndarray:
        return np.asarray(values, dtype=float)[:, np.newaxis]

    @property
    def n_terms(self) -> int:
        return len(self.eq_idx)


def _compile(cell: BitcellBase) -> Optional[_CellTable]:
    """Stack the cell's independent node equations into a term table.

    Equation roles (6T): 0 = read bump (solved once, reused for both the
    read current and the disturb margin — the reference path bisects it
    twice), 1 = write node at full wordline drive, 2 = right trip
    voltage, 3 = left trip voltage.  For 8T: 0 = RPG/RPD internal stack
    node, 1 = write node, 2 = right trip voltage (no disturb equation —
    the decoupled read port is disturb-free by construction).
    """
    if cell.kind == "6t":
        return _CellTable(4, [
            # read bump: PD_R pulls down; PU_R (gate at VL=VDD -> Vsg=0)
            # and the precharged-bitline access device PG_R push up.
            (0, +1, cell.pull_down_right, _VDD, _V, PD_R),
            (0, -1, cell.pull_up_right, _ZERO, _W, PU_R),
            (0, -1, cell.pass_gate_right, _W, _W, PG_R),
            # write node: PG_L into the grounded bitline vs PU_L.
            (1, +1, cell.pass_gate_left, _VDD, _V, PG_L),
            (1, -1, cell.pull_up_left, _VDD, _W, PU_L),
            # trip voltages: vin = vout = v on each inverter.
            (2, +1, cell.pull_down_right, _V, _V, PD_R),
            (2, -1, cell.pull_up_right, _W, _W, PU_R),
            (3, +1, cell.pull_down_left, _V, _V, PD_L),
            (3, -1, cell.pull_up_left, _W, _W, PU_L),
        ])
    if cell.kind == "8t":
        assert isinstance(cell, EightTCell)
        return _CellTable(3, [
            (0, +1, cell.read_down, _VDD, _V, RPD),
            (0, -1, cell.read_pass, _W, _W, RPG),
            (1, +1, cell.pass_gate_left, _VDD, _V, PG_L),
            (1, -1, cell.pull_up_left, _VDD, _W, PU_L),
            (2, +1, cell.pull_down_right, _V, _V, PD_R),
            (2, -1, cell.pull_up_right, _W, _W, PU_R),
        ])
    return None


class _ChunkKernel:
    """Preallocated solver scratch for up to ``cs`` samples.

    All buffers are row-major ``(n_terms, cs)`` / ``(n_eqs, cs)`` so
    every term/equation row is contiguous; one allocation serves every
    chunk of a block.  ``u64`` views of the bracket buffers drive the
    bitwise conditional update.
    """

    def __init__(self, table: _CellTable, vdd: float, cs: int) -> None:
        t_count, e_count = table.n_terms, table.n_eqs
        self.table = table
        self.vdd = vdd
        self.cs = cs
        self.VG = np.empty((t_count, cs))
        self.VD = np.empty((t_count, cs))
        self.A = np.empty((t_count, cs))
        self.B = np.empty((t_count, cs))
        self.C = np.empty((t_count, cs))
        self.D = np.empty((t_count, cs))
        self.M1 = np.empty((t_count, cs), dtype=bool)
        self.M2 = np.empty((t_count, cs), dtype=bool)
        self.W = np.empty((e_count, cs))
        self.F = np.empty((e_count, cs))
        self.MID = np.empty((e_count, cs))
        self.LO = np.zeros((e_count, cs))
        self.HI = np.full((e_count, cs), vdd)
        self.GO = np.empty((e_count, cs), dtype=bool)
        # Replay state (see _replay): f at both bracket ends, the
        # Illinois bracket and its last-moved-end mask, the root
        # estimate and the acceptance mask.
        self.FLO = np.empty((e_count, cs))
        self.FHI = np.empty((e_count, cs))
        self.IA = np.empty((e_count, cs))
        self.IB = np.empty((e_count, cs))
        self.RH = np.empty((e_count, cs))
        self.PREV = np.empty((e_count, cs), dtype=_U64)
        self.OK = np.empty((e_count, cs), dtype=bool)
        # The bitwise-select scratch overlays the term buffers: by
        # bracket-update time the freshly accumulated F is the only
        # live product of eval_f, so A..D's storage is free (n_terms >=
        # n_eqs always holds for the compiled topologies).
        assert t_count >= e_count
        self.GOU = self.C.view(_U64)[:e_count]
        self.S1 = self.A.view(_U64)[:e_count]
        self.S2 = self.B.view(_U64)[:e_count]
        self.S3 = self.D.view(_U64)[:e_count]
        self.LOU = self.LO.view(_U64)
        self.HIU = self.HI.view(_U64)
        self.MIDU = self.MID.view(_U64)
        # Constant gate rows (VDD-driven and grounded gates) never change.
        for t, src in enumerate(table.vgs_src):
            if src == _VDD:
                self.VG[t].fill(vdd)
            elif src == _ZERO:
                self.VG[t].fill(0.0)

    def reset_brackets(self, m: int) -> None:
        """Fresh ``[0, vdd]`` brackets for a chunk of ``m`` samples."""
        self.LO[:, :m].fill(0.0)
        self.HI[:, :m].fill(self.vdd)

    def eval_f(self, v_nodes: np.ndarray, vt_base: np.ndarray, m: int) -> np.ndarray:
        """Net pull-down of every equation at ``v_nodes`` (first ``m`` lanes).

        Mirrors :meth:`repro.devices.mosfet.Mosfet.current` operation
        for operation (``Mosfet.current`` additionally clips vds to
        >= 0, but every stacked bias is the node voltage or its VDD
        complement and floating-point midpoints of in-range values stay
        in range, so the clip is the identity and is elided).
        """
        tb = self.table
        sl = np.s_[:, :m]
        VG, VD = self.VG[sl], self.VD[sl]
        A, B, C, D = self.A[sl], self.B[sl], self.C[sl], self.D[sl]
        W = self.W[sl]
        np.subtract(self.vdd, v_nodes, out=W)
        for t in range(tb.n_terms):
            e = tb.eq_idx[t]
            src = tb.vgs_src[t]
            if src == _V:
                np.copyto(VG[t], v_nodes[e])
            elif src == _W:
                np.copyto(VG[t], W[e])
            np.copyto(VD[t], v_nodes[e] if tb.vds_src[t] == _V else W[e])
        np.multiply(VD, tb.dibl, out=A)
        np.subtract(vt_base, A, out=A)                   # vt_eff
        np.subtract(VG, A, out=A)
        np.divide(A, tb.n_vt, out=A)                     # u
        self._softplus(A, B, m)                          # softplus(u)
        np.multiply(B, tb.n_vt, out=B)                   # vov
        np.power(B, tb.alpha, out=C)
        np.multiply(C, tb.k_aspect, out=C)               # k' W/L vov^a
        np.multiply(VD, tb.lambda_cl, out=D)
        np.add(D, 1.0, out=D)
        np.multiply(C, D, out=C)                         # id_sat
        # Linear/saturation blend.  The reference computes
        #   x = where(vdsat > 0, vds / max(vdsat, 1e-30), inf)
        #   region = where(x < 1, x * (2 - x), 1)
        # Masked selection is slow, so use the exact-product
        # equivalent: clip x at 1 (min(x, 1) = 1 wherever x >= 1, and
        # 1 * (2 - 1) == 1.0 exactly) and skip the vdsat > 0 guard
        # (vdsat <= 0 requires vov == 0 or NaN, where id_sat is 0 or
        # NaN and the drain current matches bit-for-bit either way).
        np.multiply(B, tb.vdsat_factor, out=B)           # vdsat
        np.maximum(B, 1e-30, out=D)
        np.divide(VD, D, out=D)                          # x = vds/vdsat
        np.minimum(D, 1.0, out=D)
        np.subtract(2.0, D, out=B)
        np.multiply(D, B, out=B)                         # region
        np.multiply(C, B, out=C)
        # Drain clamp, sign-folded: the reference multiplies by
        # -expm1(-vds/vT); dividing by -vT gives the same expm1
        # argument (IEEE division sign symmetry), so C holds
        # p_t = -i_t and the folded accumulation below restores the
        # reference's exact subtraction chain.
        np.divide(VD, -THERMAL_VOLTAGE, out=D)
        np.expm1(D, out=D)
        np.multiply(C, D, out=C)                         # p_t = -i_t
        f = self.F[sl]
        for e, rows in enumerate(tb.accum):
            np.subtract(C[rows[1]], C[rows[0]], out=f[e])
            for t in rows[2:]:
                np.add(f[e], C[t], out=f[e])
        return f

    def _softplus(self, x: np.ndarray, out: np.ndarray, m: int) -> None:
        """Numerically safe ``log1p(exp(x))`` into preallocated scratch.

        Same region split as :func:`repro.devices.mosfet._softplus`; the
        all-interior case (every realistic bias) runs alloc-free.
        """
        pos, neg = self.M1[:, :m], self.M2[:, :m]
        np.greater(x, 30.0, out=pos)
        np.less(x, -30.0, out=neg)
        if not pos.any() and not neg.any():
            tmp = self.D[:, :m]
            np.exp(x, out=tmp)
            np.log1p(tmp, out=out)
            return
        mid = ~(pos | neg)
        out[pos] = x[pos]
        out[neg] = np.exp(x[neg])
        out[mid] = np.log1p(np.exp(x[mid]))

    def update_brackets(self, m: int) -> None:
        """One bisection step from the freshly evaluated ``F``.

        ``lo = where(f < 0, mid, lo)``; ``hi = where(f < 0, hi, mid)`` —
        realised as a bitwise :func:`_select` on the u64 views (exact
        for every payload, including infinities and NaNs).  Leaves the
        all-ones-where-``f < 0`` mask in ``GOU``.
        """
        sl = np.s_[:, :m]
        go, gou, tmp = self.GO[sl], self.GOU[sl], self.S1[sl]
        lou, hiu, midu = self.LOU[sl], self.HIU[sl], self.MIDU[sl]
        np.less(self.F[sl], 0.0, out=go)
        np.copyto(gou, go, casting="unsafe")             # 0 / 1
        # 0 - x, not np.negative: numpy 2.4's SIMD negate of a u64
        # column with a 64-byte stride (8-sample blocks, one lane
        # re-solved) writes only the first element.
        np.subtract(_ZERO_U64, gou, out=gou)             # 0 / all-ones
        _select(gou, midu, lou, lou, tmp)                # lo
        _select(gou, hiu, midu, hiu, tmp)                # hi

    def replay_step(self, r_hat: np.ndarray, m: int) -> None:
        """One bisection step decided by ``mid < r_hat``, not by the model.

        The midpoint arithmetic is :meth:`midpoint`'s; the decision mask
        is the sign bit of ``mid - r_hat`` (an arithmetic shift of its
        i64 view).  Any decision rule is sound here — :func:`_replay`'s
        two-point check proves or rejects the trajectory — so signed
        zeros and NaN estimates need no special care.
        """
        sl = np.s_[:, :m]
        mid = self.midpoint(m)
        f, mask, tmp = self.F[sl], self.S1[sl], self.S2[sl]
        np.subtract(mid, r_hat, out=f)
        _sign_mask(f, mask)
        midu = self.MIDU[sl]
        _select(mask, midu, self.LOU[sl], self.LOU[sl], tmp)
        _select(mask, self.HIU[sl], midu, self.HIU[sl], tmp)

    def midpoint(self, m: int) -> np.ndarray:
        """``0.5 * (lo + hi)`` into the MID buffer (reference order)."""
        mid = self.MID[:, :m]
        np.add(self.LO[:, :m], self.HI[:, :m], out=mid)
        np.multiply(mid, 0.5, out=mid)
        return mid


def _bisect(
    kern: _ChunkKernel, vt: np.ndarray, m: int, k_stop: int
) -> np.ndarray:
    """``k_stop`` exact bisection steps from ``[0, vdd]``; the final midpoint."""
    kern.reset_brackets(m)
    for _ in range(k_stop):
        mid = kern.midpoint(m)
        kern.eval_f(mid, vt, m)
        kern.update_brackets(m)
    return kern.midpoint(m)


def _false_position(
    a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
    out: np.ndarray, tmp: np.ndarray,
) -> None:
    """``b - fb * (b - a) / (fb - fa)``, clipped into ``[a, b]`` so the
    model is only ever evaluated at in-range biases."""
    np.subtract(b, a, out=out)
    np.multiply(out, fb, out=out)
    np.subtract(fb, fa, out=tmp)
    np.divide(out, tmp, out=out)
    np.subtract(b, out, out=out)
    np.maximum(out, a, out=out)
    np.minimum(out, b, out=out)


def _root_estimate(kern: _ChunkKernel, vt: np.ndarray, m: int) -> np.ndarray:
    """Illinois regula falsi from the current bracket; the estimate ``r̂``.

    Copies the bracket ``LO``/``HI`` (the replay continues from it) and
    takes over the ``f`` values at its ends (``FLO``/``FHI``), then runs
    ``_ILLINOIS_STEPS`` model evaluations (Dowell & Jarratt, BIT 1971:
    when the same end moves twice running, the retained end's ``f`` is
    halved).  The estimate is the false-position point of the
    final bracket, so the last evaluation still counts.  Lanes without
    a sign change produce garbage (even NaN): harmless, because the
    estimate only steers the replay and the two-point check proves or
    rejects every replayed decision.
    """
    sl = np.s_[:, :m]
    a, b, fa, fb = kern.IA[sl], kern.IB[sl], kern.FLO[sl], kern.FHI[sl]
    c, half = kern.RH[sl], kern.MID[sl]
    au, bu, fau, fbu = (x.view(_U64) for x in (a, b, fa, fb))
    cu, halfu = c.view(_U64), half.view(_U64)
    moved_a, prev, halve = kern.GOU[sl], kern.PREV[sl], kern.S3[sl]
    tmp = kern.S1[sl]
    np.copyto(a, kern.LO[sl])
    np.copyto(b, kern.HI[sl])
    for step in range(_ILLINOIS_STEPS):
        _false_position(a, b, fa, fb, c, half)
        fc = kern.eval_f(c, vt, m)
        fcu = fc.view(_U64)
        _sign_mask(fc, moved_a)                          # f(c) < 0
        if step:
            # Same end twice running: halve the other end's f.
            np.bitwise_and(moved_a, prev, out=halve)
            np.multiply(fb, 0.5, out=half)
            _select(halve, halfu, fbu, fbu, tmp)
            np.bitwise_or(moved_a, prev, out=halve)
            np.invert(halve, out=halve)
            np.multiply(fa, 0.5, out=half)
            _select(halve, halfu, fau, fau, tmp)
        _select(moved_a, cu, au, au, tmp)
        _select(moved_a, fcu, fau, fau, tmp)
        _select(moved_a, bu, cu, bu, tmp)
        _select(moved_a, fbu, fcu, fbu, tmp)
        np.copyto(prev, moved_a)
    _false_position(a, b, fa, fb, c, half)
    return c


def _replay(
    kern: _ChunkKernel,
    vt: np.ndarray,
    m: int,
    k_stop: int,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> np.ndarray:
    """The bisection of one chunk, replayed from a root estimate.

    ``_EXACT_STEPS`` exact steps (tracking ``f`` at both bracket ends,
    seeded with the rail values ``f_lo = f(0)``, ``f_hi = f(vdd)``),
    then the remaining ``k_stop - _EXACT_STEPS`` steps decided by
    ``mid < r̂`` (:meth:`_ChunkKernel.replay_step`), and finally one
    exact evaluation at each end of the final bracket.  Leaves the
    final bracket in ``LO``/``HI`` and returns the per-lane acceptance
    mask ``f(lo) < 0 <= f(hi)`` (see the module docstring for why it
    proves every replayed decision).
    """
    sl = np.s_[:, :m]
    kern.reset_brackets(m)
    flo, fhi, go = kern.FLO[sl], kern.FHI[sl], kern.GO[sl]
    np.copyto(flo, f_lo)
    np.copyto(fhi, f_hi)
    flou, fhiu, fu = flo.view(_U64), fhi.view(_U64), kern.F[sl].view(_U64)
    for _ in range(_EXACT_STEPS):
        mid = kern.midpoint(m)
        kern.eval_f(mid, vt, m)
        kern.update_brackets(m)
        # f follows the midpoint to whichever end it replaced.
        _select(kern.GOU[sl], fu, flou, flou, kern.S1[sl])
        _select(kern.GOU[sl], fhiu, fu, fhiu, kern.S1[sl])
    r_hat = _root_estimate(kern, vt, m)
    for _ in range(k_stop - _EXACT_STEPS):
        kern.replay_step(r_hat, m)
    ok = kern.OK[sl]
    np.less(kern.eval_f(kern.LO[sl], vt, m), 0.0, out=ok)
    np.greater_equal(kern.eval_f(kern.HI[sl], vt, m), 0.0, out=go)
    np.logical_and(ok, go, out=ok)
    return ok


def _solve_fixed(
    kern: _ChunkKernel,
    vt_base: np.ndarray,
    n: int,
    k_stop: int,
    out: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
) -> Tuple[int, int]:
    """Chunked stacked bisection with a precomputed stop iteration.

    Chunks are independent (no width synchronization needed), so each
    runs all its iterations while its bracket state and scratch stay
    cache-hot.  Each chunk is :func:`_replay`-ed from a root estimate;
    the samples owning a rejected lane are then re-solved by the exact
    :func:`_bisect` on a compacted sub-block (lanes are independent, so
    the sub-block's bits are those of the full one).  Returns the
    number of lanes the two-point check saw and accepted.
    """
    cs = kern.cs
    # The replay saves model evaluations only past this many steps.
    fast = k_stop > _EXACT_STEPS + _ILLINOIS_STEPS + 2
    checked = accepted = 0
    for start in range(0, n, cs):
        m = min(cs, n - start)
        span = np.s_[:, start:start + m]
        vt = vt_base[span]
        if not fast:
            out[span] = _bisect(kern, vt, m, k_stop)
            continue
        ok = _replay(kern, vt, m, k_stop, f_lo[span], f_hi[span])
        out[span] = kern.midpoint(m)
        checked += ok.size
        accepted += int(np.count_nonzero(ok))
        redo = np.nonzero(~ok.all(axis=0))[0]
        if redo.size:
            vt_redo = np.ascontiguousarray(vt[:, redo])
            out[:, start + redo] = _bisect(kern, vt_redo, redo.size, k_stop)
    return checked, accepted


class FusedKernel:
    """Stacked-bisection margin evaluation over a compiled cell table."""

    def __init__(self) -> None:
        #: Lanes the two-point check has seen and accepted (diagnostics
        #: for the margin-kernel benchmark; never read by the solver).
        self.lanes_checked = 0
        self.lanes_accepted = 0
        self._count_lock = threading.Lock()

    def margins(
        self,
        cell: BitcellBase,
        vdd: float,
        dvt: ArrayLike,
        bitline: BitlineModel,
        read_cycle: float,
    ) -> FailureMargins:
        """Every applicable failure margin of one ``(cell, vdd, ΔVT)`` block.

        ``bitline`` and ``read_cycle`` arrive concrete (defaults already
        resolved by :func:`repro.sram.failures.compute_failure_margins`).
        """
        dvt_arr = np.asarray(dvt, dtype=float)
        table = _compile(cell)
        vdd_f = float(vdd)
        k_stop = _fixed_stop_iteration(vdd_f)
        if (table is None or k_stop is None or dvt_arr.ndim != 2
                or dvt_arr.shape[0] == 0):
            # Scalar/1-D probes, unknown topologies and supplies in the
            # ambiguous stop band: nothing to stack.
            return reference_margins(cell, vdd, dvt, bitline, read_cycle)
        n = dvt_arr.shape[0]
        e_count = table.n_eqs

        # Pelgrom-shifted threshold base per term (vt0 + dvt, the
        # reference association), iteration-invariant.
        vt_base = np.empty((table.n_terms, n))
        for t, col in enumerate(table.cols):
            np.add(dvt_arr[:, col], table.vt0[t], out=vt_base[t])

        kern = _ChunkKernel(table, vdd_f, min(n, _CHUNK))

        # Bracket evaluations (the reference solver's pinned-rail test).
        pinned_lo = np.empty((e_count, n), dtype=bool)
        pinned_hi = np.empty((e_count, n), dtype=bool)
        forced_up = np.empty((e_count, n), dtype=bool)
        f_zero = np.empty((e_count, n))
        f_vdd = np.empty((e_count, n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for start in range(0, n, kern.cs):
                m = min(kern.cs, n - start)
                span = np.s_[:, start:start + m]
                vt = vt_base[span]
                rail = kern.MID[:, :m]
                rail.fill(0.0)
                f = kern.eval_f(rail, vt, m)
                np.copyto(f_zero[span], f)
                np.greater_equal(f, 0.0, out=pinned_lo[span])
                rail.fill(vdd_f)
                f = kern.eval_f(rail, vt, m)
                np.copyto(f_vdd[span], f)
                np.less_equal(f, 0.0, out=pinned_hi[span])
                np.less(f, 0.0, out=forced_up[span])

            # Monotonicity forces the bisection direction of pinned
            # lanes: rows where every lane is pinned never need another
            # model evaluation — only the rail overrides below.
            lane_det = pinned_lo | forced_up
            row_det = lane_det.all(axis=0)
            compacted = bool(row_det.any())
            if compacted:
                idx = np.nonzero(~row_det)[0]
                vt_act = np.ascontiguousarray(vt_base[:, idx])
                f_zero, f_vdd = f_zero[:, idx], f_vdd[:, idx]
                n_act = idx.size
            else:
                vt_act = vt_base
                n_act = n

            # Det-lane width recurrences stop at the same provable
            # iteration, so they need no bookkeeping here.
            v_act = np.empty((e_count, max(n_act, 1)))[:, :n_act]
            checked, accepted = _solve_fixed(
                kern, vt_act, n_act, k_stop, v_act, f_zero, f_vdd
            )
            with self._count_lock:
                self.lanes_checked += checked
                self.lanes_accepted += accepted
            if compacted:
                v = np.zeros((e_count, n))
                v[:, idx] = v_act
            else:
                v = v_act
            # Rail overrides, in the reference order (hi, then lo).
            np.copyto(v, vdd_f, where=pinned_hi)
            np.copyto(v, 0.0, where=pinned_lo)

        # Margins from the solved nodes (same expressions, same order).
        if cell.kind == "6t":
            bump, node, trip_r, trip_l = v[0], v[1], v[2], v[3]
            current = np.asarray(
                cell.pull_down_right.current(
                    vdd_f, bump, dvt=dvt_arr[:, PD_R]
                ),
                dtype=float,
            )
        else:
            assert isinstance(cell, EightTCell)
            node, trip_r = v[1], v[2]
            current = np.asarray(
                cell.read_down.current(vdd_f, v[0], dvt=dvt_arr[:, RPD]),
                dtype=float,
            )
        charge = bitline.for_cell(cell).capacitance * cell.technology.sense_margin
        with np.errstate(divide="ignore"):
            delay = np.where(
                current > 0.0, charge / np.maximum(current, 1e-30), np.inf
            )
            read_access = np.log(read_cycle) - np.log(delay)
        write = trip_r - node
        read_disturb = (trip_l - bump) if cell.kind == "6t" else None
        return FailureMargins(
            read_access=read_access, write=write, read_disturb=read_disturb
        )


#: The process's production kernel, behind every
#: :func:`repro.sram.failures.compute_failure_margins` call.
FUSED = FusedKernel()
