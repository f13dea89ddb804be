"""The node-LP engine: SciPy's HiGHS solver.

Every LP relaxation branch-and-bound solves, and every per-neuron LP of
the ``"lp"`` bound mode, goes through :func:`solve_lp`, a thin wrapper
over :func:`scipy.optimize.linprog`.  :func:`farkas_ray` extracts the
infeasibility evidence behind proof-certificate leaves from the same
solver, using only ``linprog``'s public duals.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.milp.solution import LPResult
from repro.milp.status import SolveStatus

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ERROR,       # iteration limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


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
