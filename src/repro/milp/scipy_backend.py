"""The LP engines: SciPy's HiGHS solver.

Branch-and-bound solves its node relaxations on one :class:`NodeLP` per
search: a persistent HiGHS model, built once at the root, whose column
bounds are the only thing a node changes, so HiGHS's dual simplex
hot-starts every node from the previous basis.  The per-neuron LPs of
the ``"lp"`` bound mode go through :func:`solve_lp`, a thin stateless
wrapper over :func:`scipy.optimize.linprog`.  :func:`farkas_ray`
extracts the infeasibility evidence behind proof-certificate leaves
from ``linprog``'s public duals.

:class:`NodeLP` drives ``scipy.optimize._highspy._core._Highs``, a
private class scipy ships from 1.15 on; ``pyproject.toml`` pins the
tested range and this module fails at import, not mid-search, when the
class is missing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

try:
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
    )
except ImportError as exc:  # pragma: no cover - depends on scipy build
    raise ImportError(
        "repro needs scipy.optimize._highspy._core._Highs, the HiGHS "
        "handle scipy ships from 1.15 on; install scipy>=1.15,<1.18"
    ) from exc

from repro.milp.solution import LPResult
from repro.milp.status import SolveStatus

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ERROR,       # iteration limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


#: The only HiGHS model statuses that decide a node LP.  Everything else
#: (``kUnboundedOrInfeasible``, time and iteration limits, ``kNotset``,
#: solve errors) is :attr:`SolveStatus.ERROR`: such a node is never
#: pruned as infeasible.
_MODEL_STATUS_MAP = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}


def model_status(status: HighsModelStatus) -> SolveStatus:
    """The :class:`SolveStatus` a HiGHS model status stands for."""
    return _MODEL_STATUS_MAP.get(status, SolveStatus.ERROR)


def _highs_bounds(bounds: Sequence[Tuple[float, float]]) -> list:
    return [
        (None if lb == -math.inf else lb, None if ub == math.inf else ub)
        for lb, ub in bounds
    ]


def solve_lp(
    c: np.ndarray,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
) -> LPResult:
    """Minimise ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``.

    ``bounds`` holds one ``(lower, upper)`` pair per column (infinite
    entries allowed) and defaults to ``x >= 0``.  HiGHS's iteration
    limit and numerical failures both map to :attr:`SolveStatus.ERROR`.
    """
    n = len(c)
    if bounds is None:
        bounds = [(0.0, math.inf)] * n
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=_highs_bounds(bounds),
        method="highs",
    )
    status = _STATUS_MAP.get(res.status, SolveStatus.ERROR)
    iterations = int(getattr(res, "nit", 0) or 0)
    if status is SolveStatus.OPTIMAL:
        return LPResult(
            status,
            x=np.asarray(res.x, dtype=float),
            objective=float(res.fun),
            iterations=iterations,
        )
    return LPResult(status, iterations=iterations)


class NodeLP:
    """One persistent HiGHS model for every node LP of a search.

    Built once from ``Model.dense_arrays()`` output (``<=`` rows, then
    ``=`` rows, as a CSC matrix) over the root column box.  Each
    :meth:`solve` changes the column bounds only and re-runs, so HiGHS
    hot-starts its dual simplex from the basis the previous node left.
    """

    def __init__(
        self,
        c: np.ndarray,
        A_ub: Optional[np.ndarray],
        b_ub: Optional[np.ndarray],
        A_eq: Optional[np.ndarray],
        b_eq: Optional[np.ndarray],
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> None:
        n = len(c)
        blocks = [A for A in (A_ub, A_eq) if A is not None]
        A = csc_array(np.vstack(blocks) if blocks else np.zeros((0, n)))
        b_ub = np.empty(0) if A_ub is None else b_ub
        b_eq = np.empty(0) if A_eq is None else b_eq
        lp = HighsLp()
        lp.num_col_ = n
        lp.num_row_ = A.shape[0]
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.asarray(lb, dtype=float)
        lp.col_upper_ = np.asarray(ub, dtype=float)
        lp.row_lower_ = np.concatenate([np.full(len(b_ub), -math.inf), b_eq])
        lp.row_upper_ = np.concatenate([b_ub, b_eq])
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        if self._highs.passModel(lp) == HighsStatus.kError:
            raise ValueError("HiGHS rejected the node-LP model")
        self._n = n
        self._cols = np.arange(n, dtype=np.int32)

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> LPResult:
        """Minimise over the column box ``[lb, ub]``.

        ``iterations`` counts this run's simplex iterations only.
        """
        highs = self._highs
        highs.changeColsBounds(self._n, self._cols, lb, ub)
        if highs.run() == HighsStatus.kError:
            status = SolveStatus.ERROR
        else:
            status = model_status(highs.getModelStatus())
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count)
        if status is SolveStatus.OPTIMAL:
            return LPResult(
                status,
                x=np.array(highs.getSolution().col_value),
                objective=float(info.objective_function_value),
                iterations=iterations,
            )
        return LPResult(status, iterations=iterations)


def farkas_ray(
    A_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    A_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    bounds: Sequence[Tuple[float, float]],
) -> Optional[np.ndarray]:
    """A Farkas vector proving the LP's constraint system is empty.

    Solves the elastic LP: minimise ``1ᵀs`` over the column box subject
    to ``A_ub x - s <= b_ub``, ``A_eq x + s⁺ - s⁻ = b_eq`` and
    ``s >= 0``.  Its optimum is the least total violation any point of
    the box can reach; when that is positive, the optimal duals
    ``y = -marginals`` (``y >= 0`` on the inequality rows) aggregate the
    rows into ``yᵀA x <= yᵀb`` with ``min_box yᵀA x - yᵀb`` equal to the
    optimum — infeasibility by weak duality.  Returns one entry per
    row, inequality rows first, or ``None`` when the system is feasible
    or HiGHS fails.
    """
    n = len(bounds)
    m_ub = 0 if A_ub is None else A_ub.shape[0]
    m_eq = 0 if A_eq is None else A_eq.shape[0]
    # Columns: x, then one slack per inequality row, then s⁺ and s⁻ per
    # equality row.
    n_slack = m_ub + 2 * m_eq
    c = np.concatenate([np.zeros(n), np.ones(n_slack)])
    elastic_ub = elastic_eq = None
    if m_ub:
        elastic_ub = np.hstack([
            A_ub, -np.eye(m_ub), np.zeros((m_ub, 2 * m_eq)),
        ])
    if m_eq:
        elastic_eq = np.hstack([
            A_eq, np.zeros((m_eq, m_ub)), np.eye(m_eq), -np.eye(m_eq),
        ])
    res = linprog(
        c,
        A_ub=elastic_ub,
        b_ub=b_ub if m_ub else None,
        A_eq=elastic_eq,
        b_eq=b_eq if m_eq else None,
        bounds=_highs_bounds(bounds) + [(0.0, None)] * n_slack,
        method="highs",
    )
    if res.status != 0 or not res.fun > 0.0:
        return None
    # A positive optimum needs at least one row, so ``parts`` is non-empty.
    parts = []
    if m_ub:
        parts.append(-np.asarray(res.ineqlin.marginals, dtype=float))
    if m_eq:
        parts.append(-np.asarray(res.eqlin.marginals, dtype=float))
    return np.concatenate(parts)
