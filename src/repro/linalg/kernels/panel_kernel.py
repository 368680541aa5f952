"""Panel-lockstep Batch-OMP kernel in plain numpy (the default backend).

The reference kernel (:mod:`repro.linalg.kernels.numpy_ref`) runs the
greedy loop one column at a time and pays python and scipy-wrapper
overhead for every atom of every column: at the usual encode shapes
that overhead, not arithmetic, is most of the encode's wall time.  This
kernel advances *every column of a panel in lockstep*, one atom per
step, so each numpy call works on a whole ``(B, L)`` slab:

* an **active set** that shrinks (rows are compacted away) as columns
  converge, exhaust their candidates or hit ``max_atoms``;
* a batched **argmax** over ``|α|`` with selected and banned atoms
  masked by a ``-inf`` penalty;
* a batched **progressive-Cholesky append**, banning numerically
  dependent atoms at the reference's ``1e-12`` pivot tolerance;
* a batched **correlation and residual update**;
* support **capacity that grows by doubling**.

The per-step work uses the Batch-OMP identities (Rubinstein et al.)
with ``U = L⁻¹ G[S, :]`` kept per column, so each step costs a fixed
number of numpy calls plus one multiply-subtract per support
entry, and none is a triangular solve:

* pivot of candidate ``k``: ``L_tt² = G_kk − Σ_s U_s[k]²``, read from a
  running ``Σ U²``;
* new forward-solve entry: ``y_t = α_k / L_tt``;
* new row of ``U``: ``U_t = (G[k, :] − Σ_s U_s[k]·U_s) / L_tt``;
* ``α ← α − y_t·U_t`` and ``‖r‖² ← ‖r‖² − y_t²``;
* the coefficients ``c = L⁻ᵀ y`` by one back-substitution per column,
  when the column leaves the active set.

Grouping invariance
-------------------
A column's output bits depend only on ``(G, its DᵀA column, ‖a‖²)`` —
never on which other columns share its panel.  The serial sweep, the
fork-pool chunks, SPMD shards, streaming blocks and the serve
micro-batcher all regroup columns, and each of them promises output
bit-identical to the others.  So every operation here is elementwise
across the batch (or a per-row argmax/gather), every reduction over the
support index is a python loop of elementwise updates in a fixed order,
no ``sum``/``einsum``/``matmul`` reduces over the support, and no code
path depends on the batch size.  All active columns of a group share
one support size (a column that bans a dependent atom picks again in
the same step), so no padded support slot is ever computed on.

Coefficients are not bit-identical to the ``numpy`` reference (the
identities round differently from LAPACK's triangular solves); they
meet the package tolerance contract with identical supports, iteration
counts and convergence verdicts, which the conformance suite checks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.linalg.kernels import OMPKernelBackend, PanelCodes, register_backend

__all__ = ["PanelBackend"]

#: Same numerical-dependence threshold as IncrementalCholesky's default.
PIVOT_TOL = 1e-12
#: Support slots allocated per column before the first doubling.
INITIAL_CAPACITY = 16
#: Bytes one lockstep group may hold in its ``U`` stack.  A group that
#: would outgrow it on a capacity doubling continues as two half-size
#: groups instead; rows are independent, so this changes no output bit.
U_BUDGET_BYTES = 64 << 20


class _Group:
    """Row-aligned state of a set of columns at a common support size."""

    _ROW_ARRAYS = ("rows", "alpha", "pen", "usq", "support", "y", "diag",
                   "res", "stop")
    __slots__ = _ROW_ARRAYS + ("u",)

    @classmethod
    def start(cls, dta_panel, rows, col_sq, stop_sq, cap: int) -> "_Group":
        """The group of panel columns ``rows`` before any selection."""
        g = cls()
        g.rows = rows
        g.alpha = np.ascontiguousarray(
            np.asarray(dta_panel, dtype=np.float64).T[rows])
        a, l = g.alpha.shape
        g.pen, g.usq = np.zeros((2, a, l))
        g.u = np.empty((cap, a, l))
        g.support = np.empty((a, cap), dtype=np.int64)
        g.y, g.diag = np.empty((2, a, cap))
        g.res = col_sq[rows]
        g.stop = stop_sq[rows]
        return g

    def take(self, keep, t: int) -> "_Group":
        """A new group holding (copies of) rows ``keep``."""
        g = _Group()
        for name in self._ROW_ARRAYS:
            setattr(g, name, getattr(self, name)[keep])
        g.u = np.empty_like(self.u[:, :g.rows.size])
        g.u[:t] = self.u[:t, keep]
        return g

    def drop(self, done, t: int, *extra):
        """Remove rows ``done`` (boolean mask) in place.

        The surviving rows from the tail move into the holes the done
        rows leave in the kept prefix, so a step that retires ``f`` rows
        copies ``O(f·t·L)`` values instead of the whole group.  Row
        order carries no meaning (every operation is per row), so the
        reordering changes no output bit.  ``extra`` row-aligned arrays
        get the same treatment and are returned.
        """
        n = done.size - int(np.count_nonzero(done))
        holes = np.flatnonzero(done[:n])
        movers = n + np.flatnonzero(~done[n:])
        if holes.size:
            self.u[:t, holes] = self.u[:t, movers]
        self.u = self.u[:, :n]
        arrays = [getattr(self, name) for name in self._ROW_ARRAYS]
        arrays += extra
        for i, arr in enumerate(arrays):
            if holes.size:
                arr[holes] = arr[movers]
            arrays[i] = arr[:n]
        for name, arr in zip(self._ROW_ARRAYS, arrays):
            setattr(self, name, arr)
        return arrays[len(self._ROW_ARRAYS):]

    def grow(self, t: int, cap: int) -> None:
        """Reallocate the per-column support arrays to ``cap`` slots."""
        n = self.rows.size
        u = np.empty((cap, n) + self.u.shape[2:])
        u[:t] = self.u[:t]
        self.u = u
        for name in ("support", "y", "diag"):
            old = getattr(self, name)
            new = np.empty((n, cap), dtype=old.dtype)
            new[:, :t] = old[:, :t]
            setattr(self, name, new)


def _finish(g: _Group, done, t: int, out: list) -> None:
    """Back-substitute ``c = L⁻ᵀ y`` for rows ``done`` and record them.

    ``done`` is a boolean row mask, or ``None`` for every row.  ``L`` is
    rebuilt from ``U``: its strictly lower entry ``L[i, s]`` is
    ``U_s[support_i]`` (the cross term the append at step ``i`` used)
    and its diagonal was stored as the columns grew.  Column-oriented
    substitution: each ``c_s`` receives its updates in the fixed order
    ``i = t−1, …, s+1``, elementwise across the finishing rows.
    """
    if done is None:
        sel, idx = slice(None), np.arange(g.rows.size)
    else:
        sel = idx = done.nonzero()[0]
    support = g.support[sel, :t]
    coef = g.y[sel, :t].T.copy()                    # [i, row]
    if t:
        lower = g.u[:t, idx[:, None], support]      # [s, row, i]
        diag = g.diag[sel, :t].T
        for i in range(t - 1, 0, -1):
            coef[i] /= diag[i]
            coef[:i] -= lower[:i, :, i] * coef[i]
        coef[0] /= diag[0]
    out.append((g.rows[sel], support, coef.T, g.res[sel], t))


def _run(g: _Group, t: int, cap: int, gram, gdiag, budget: int,
         out: list) -> None:
    """Advance group ``g`` (support size ``t < budget``) to completion."""
    ar = np.arange(g.rows.size)
    while True:
        if t == cap:
            grown = min(2 * cap, budget)
            if ar.size > 1 and \
                    g.u.itemsize * grown * g.alpha.size > U_BUDGET_BYTES:
                half = ar.size // 2
                for part in (ar[:half], ar[half:]):
                    _run(g.take(part, t), t, cap, gram, gdiag, budget, out)
                return
            g.grow(t, grown)
            cap = grown
        scores = np.abs(g.alpha)
        scores += g.pen
        k = scores.argmax(axis=1)
        best = scores[ar, k]
        piv = gdiag[k] - g.usq[ar, k]
        # Two scalar tests stand in for the per-row ones: a sum over
        # the rows is finite only if every row's best score is (an
        # overflow merely takes the exact per-row path below).
        if not (piv.min() > PIVOT_TOL and math.isfinite(best.sum())):
            # Rare path.  A row whose best candidate is dependent bans it
            # and picks again within this step; a row with no candidate
            # left stops where it is, as the reference loop breaks.
            ok = (piv > PIVOT_TOL) & np.isfinite(best)
            stuck = np.zeros(ar.size, dtype=bool)
            bad = np.flatnonzero(~ok)
            while bad.size:
                found = np.isfinite(best[bad])
                stuck[bad[~found]] = True
                dep = bad[found]
                g.pen[dep, k[dep]] = -np.inf
                scores[dep, k[dep]] = -np.inf
                k[dep] = scores[dep].argmax(axis=1)
                best[dep] = scores[dep, k[dep]]
                piv[dep] = gdiag[k[dep]] - g.usq[dep, k[dep]]
                ok[dep] = (piv[dep] > PIVOT_TOL) & np.isfinite(best[dep])
                bad = dep[~ok[dep]]
            if stuck.any():
                _finish(g, stuck, t, out)
                k, piv = g.drop(stuck, t, k, piv)
                ar = np.arange(g.rows.size)
                if not ar.size:
                    return
        # Progressive-Cholesky append of atom k_j to every row j.
        ltt = np.sqrt(piv)
        yt = g.alpha[ar, k] / ltt
        ut = g.u[t]
        np.take(gram, k, axis=0, out=ut, mode="clip")
        if t:
            u = g.u
            cross = u[:t, ar, k][:, :, None]          # L[t, :t] per row
            for s in range(t):
                ut -= u[s] * cross[s]
        ut /= ltt[:, None]
        g.usq += ut * ut
        g.alpha -= yt[:, None] * ut
        g.res = g.res - yt * yt
        g.pen[ar, k] = -np.inf
        g.support[:, t] = k
        g.y[:, t] = yt
        g.diag[:, t] = ltt
        t += 1
        if t >= budget:
            _finish(g, None, t, out)
            return
        going = g.res > g.stop
        if not going.all():
            if not going.any():
                _finish(g, None, t, out)
                return
            _finish(g, ~going, t, out)
            g.drop(~going, t)
            ar = np.arange(g.rows.size)
            if not ar.size:
                return


@register_backend
class PanelBackend(OMPKernelBackend):
    """Default backend: every column of a panel advanced in lockstep."""

    name = "panel"
    compiled = False

    def encode_panel(self, gram, dta_panel, col_sq, eps: float,
                     max_atoms: int | None) -> PanelCodes:
        """Lockstep Batch-OMP over every column of one panel."""
        gram = np.ascontiguousarray(gram, dtype=np.float64)
        l = gram.shape[0]
        b = dta_panel.shape[1]
        budget = l if max_atoms is None else min(int(max_atoms), l)
        col_sq = np.asarray(col_sq, dtype=np.float64)
        # The reference's stop floor: targets under √ε_machine·‖a‖ are
        # unreachable through the ‖r‖² recurrence (see numpy_ref).
        stop_sq = np.maximum((eps * np.sqrt(col_sq)) ** 2, col_sq * 1e-12)
        out: list = []
        if budget > 0:
            rows = (col_sq > stop_sq).nonzero()[0]
            cap = min(INITIAL_CAPACITY, budget)
            if rows.size:
                _run(_Group.start(dta_panel, rows, col_sq, stop_sq, cap),
                     0, cap, gram, gram.diagonal(), budget, out)
        width = max([part[4] for part in out], default=0)
        support = np.empty((b, width), dtype=np.int64)
        support.fill(-1)
        coef = np.zeros((b, width))
        res_sq = col_sq.copy()
        iterations = np.zeros(b, dtype=np.int64)
        for part_rows, part_support, part_coef, part_res, t in out:
            support[part_rows, :t] = part_support
            coef[part_rows, :t] = part_coef
            res_sq[part_rows] = part_res
            iterations[part_rows] = t
        # The ‖r‖² recurrence is clamped once, here: a row whose running
        # value went negative stopped at that step (stop targets are ≥ 0).
        np.maximum(res_sq, 0.0, out=res_sq)
        converged = res_sq <= stop_sq + 1e-12 * col_sq
        return PanelCodes(support, coef, res_sq, iterations, converged)

    def batch_omp_columns(self, gram, dta_panel, col_sq, eps: float,
                          max_atoms: int | None):
        return self.encode_panel(gram, dta_panel, col_sq, eps,
                                 max_atoms).columns()
