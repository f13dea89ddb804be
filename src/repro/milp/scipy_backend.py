"""The LP engines: SciPy's HiGHS solver.

Every LP the verifier solves in bulk runs on a :class:`NodeLP`: a
persistent HiGHS model passed once, after which only column bounds
(:meth:`NodeLP.solve`) or only costs (:meth:`NodeLP.minimize`) change,
so HiGHS's simplex hot-starts each run from the previous basis.
Branch-and-bound keeps one handle per search and changes bounds per
node; the ``"lp"`` bound mode keeps one per layer and changes the cost
per neuron side.  :func:`farkas_ray` extracts the infeasibility
evidence behind proof-certificate leaves from
:func:`scipy.optimize.linprog`'s public duals.

:class:`NodeLP` drives ``scipy.optimize._highspy._core._Highs``, a
private class scipy ships from 1.15 on; ``pyproject.toml`` pins the
tested range and this module fails at import, not mid-search, when the
class is missing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array, sparray, vstack

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

#: The only HiGHS model statuses that decide an LP.  Everything else
#: (``kUnboundedOrInfeasible``, time and iteration limits, ``kNotset``,
#: solve errors) is :attr:`SolveStatus.ERROR`: such a node is never
#: pruned as infeasible, and such a bound LP never tightens a bound.
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


class NodeLP:
    """One persistent HiGHS model for a family of related LPs.

    Built once from ``<=`` rows, then ``=`` rows (dense arrays or
    scipy sparse matrices), over a column box.  :meth:`solve` changes
    the column bounds only and :meth:`minimize` the cost only; either
    way HiGHS hot-starts its simplex from the basis the previous run
    left.
    """

    def __init__(
        self,
        c: np.ndarray,
        A_ub: Optional[Union[np.ndarray, sparray]],
        b_ub: Optional[np.ndarray],
        A_eq: Optional[Union[np.ndarray, sparray]],
        b_eq: Optional[np.ndarray],
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> None:
        n = len(c)
        blocks = [csc_array(A) for A in (A_ub, A_eq) if A is not None]
        A = vstack(blocks, format="csc") if blocks else csc_array((0, n))
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
            raise ValueError("HiGHS rejected the LP model")
        self._n = n
        self._cols = np.arange(n, dtype=np.int32)

    def _run(self, with_x: bool) -> LPResult:
        """Re-run HiGHS on the current model.

        ``iterations`` counts this run's simplex iterations only.
        """
        highs = self._highs
        if highs.run() == HighsStatus.kError:
            status = SolveStatus.ERROR
        else:
            status = model_status(highs.getModelStatus())
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count)
        if status is not SolveStatus.OPTIMAL:
            return LPResult(status, iterations=iterations)
        return LPResult(
            status,
            x=np.array(highs.getSolution().col_value) if with_x else None,
            objective=float(info.objective_function_value),
            iterations=iterations,
        )

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> LPResult:
        """Minimise over the column box ``[lb, ub]``."""
        self._highs.changeColsBounds(self._n, self._cols, lb, ub)
        return self._run(with_x=True)

    def minimize(self, c: np.ndarray) -> LPResult:
        """Minimise ``c @ x`` over the current box: the optimum only.

        The result carries no ``x``; the bound sweeps read only the
        optimal value, so copying the primal back would be wasted.
        """
        self._highs.changeColsCost(self._n, self._cols, c)
        return self._run(with_x=False)


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
