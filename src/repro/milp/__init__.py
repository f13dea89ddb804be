"""Mixed-integer linear programming for the big-M network encoding.

The paper's verification methodology (Cheng et al., ATVA 2017) encodes ReLU
networks as mixed integer linear constraints; this package provides the
solver stack for that encoding:

* :mod:`repro.milp.expr` / :mod:`repro.milp.model` — algebraic modelling
  layer (variables, linear expressions, constraints, objective);
* :mod:`repro.milp.scipy_backend` — the LP engines: one persistent
  HiGHS model per branch-and-bound search and per LP-bound layer, and
  the Farkas rays behind proof certificates;
* :mod:`repro.milp.presolve` — bound propagation;
* :mod:`repro.milp.branch_and_bound` — best-first/plunging MILP search with
  pseudocost branching, rounding heuristics, node/time budgets and proven
  dual bounds.
"""

from repro.milp.branch_and_bound import MILPOptions, solve_milp
from repro.milp.io import model_to_lp, write_lp
from repro.milp.expr import (
    Constraint,
    ConstraintOp,
    LinExpr,
    Sense,
    Variable,
    VarType,
)
from repro.milp.model import Model
from repro.milp.solution import LPResult, MILPResult
from repro.milp.status import SolveStatus

__all__ = [
    "Constraint",
    "ConstraintOp",
    "LinExpr",
    "LPResult",
    "MILPOptions",
    "MILPResult",
    "Model",
    "Sense",
    "SolveStatus",
    "Variable",
    "VarType",
    "solve_milp",
    "model_to_lp",
    "write_lp",
]
