"""Solution containers returned by the LP and MILP solvers."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.milp.status import SolveStatus


@dataclasses.dataclass
class LPResult:
    """Result of a single linear-programming solve.

    Attributes:
        status: Outcome of the solve.
        x: Primal solution in original column order (``None`` unless
            the status is OPTIMAL).
        objective: Objective value in the *original* sense of the model.
        iterations: Solver iterations performed.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0


@dataclasses.dataclass
class MILPResult:
    """Result of a branch-and-bound solve.

    Attributes:
        status: Outcome; TIMEOUT / NODE_LIMIT may still carry an incumbent.
        x: Best feasible point found, in original column order.
        objective: Objective value of ``x`` in the model's own sense.
        best_bound: Proven bound on the optimum (dual bound).  For a
            maximisation problem this is an upper bound on the achievable
            objective; the optimality gap is ``best_bound - objective``.
        nodes: Branch-and-bound nodes processed.
        lp_iterations: Total LP iterations over all node LPs.
        wall_time: Seconds spent inside the solver.
        metrics: Flat solver-telemetry snapshot from the search's
            :class:`repro.obs.metrics.MetricsRegistry` (``lp_failures``:
            node LPs HiGHS failed to solve).
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    best_bound: float = float("nan")
    nodes: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Leaf-cover proof record (``MILPOptions.record_proof``): a dict
    #: with ``"leaves"`` — one entry per pruned leaf carrying the fixed
    #: integer columns and the LP's Farkas vector — and ``"complete"``
    #: — False when any proving path could not be recorded (presolve,
    #: an unrecordable leaf, a rejected incumbent, a missing ray).
    #: Consumed by :func:`repro.proof.emit.assemble_milp_certificate`.
    proof: Optional[Dict] = None

    @property
    def has_incumbent(self) -> bool:
        return self.x is not None

    @property
    def gap(self) -> float:
        """Absolute optimality gap (0 for proven-optimal solves)."""
        if self.status is SolveStatus.OPTIMAL:
            return 0.0
        if np.isnan(self.best_bound) or np.isnan(self.objective):
            return float("inf")
        return abs(self.best_bound - self.objective)

    def values_by_name(self, model) -> Dict[str, float]:
        """Map variable names to solution values for a solved model."""
        if self.x is None:
            return {}
        return {var.name: float(self.x[var.index]) for var in model.variables}
