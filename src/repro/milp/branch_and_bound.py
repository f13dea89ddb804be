"""Branch-and-bound for mixed-integer linear programs.

The engine is classical in shape — an LP relaxation per node, pruning by
bound, an LP-rounding primal heuristic — with every node LP solved on
one persistent HiGHS model per search
(:class:`repro.milp.scipy_backend.NodeLP`): a node changes only the
column bounds, so the dual simplex hot-starts from the last basis.

* **pseudocost branching** (the default) learns per-column objective
  degradations from every solved child and steers branching toward
  columns that move the bound; the classic rules remain selectable;
* node selection is a **best-first/plunging hybrid**: after branching the
  search dives on the most promising child to find incumbents early,
  returning to the global best-bound node when a dive is pruned;
* a node LP that HiGHS fails to decide (any model status but optimal,
  infeasible or unbounded) is never mistaken for an infeasible one: its
  subtree stays undecided, so the search cannot end INFEASIBLE or
  OPTIMAL.

Wall-clock and node budgets make ``time-out`` a first-class answer,
matching the paper's Table II where the widest network exhausts its
budget.  With a :class:`repro.obs.Tracer` attached the search emits one
``node`` event per processed node (depth, branch variable, LP
iterations, status, bound) — enough to reconstruct the search tree —
guarded by a single ``if`` so disabled tracing costs nothing on the hot
loop.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.milp.expr import Sense
from repro.milp.model import Model
from repro.tolerances import GAP_TOL, INTEGRALITY_TOL
from repro.milp import presolve as presolve_mod
from repro.milp import scipy_backend
from repro.milp.solution import LPResult, MILPResult
from repro.milp.status import SolveStatus
from repro.obs.metrics import MetricsRegistry

#: The node-LP engines :attr:`MILPOptions.lp_backend` accepts.
_LP_BACKENDS = ("highs",)


@dataclasses.dataclass
class MILPOptions:
    """Tunables for :func:`solve_milp`.

    Attributes:
        lp_backend: Node-LP engine; only ``"highs"`` (SciPy) exists.
        time_limit: Wall-clock budget in seconds.
        node_limit: Maximum branch-and-bound nodes to process.
        int_tol: Integrality tolerance.
        gap_tol: Absolute bound-vs-incumbent gap at which to stop.
        branching: ``"pseudocost"`` (default), ``"most_fractional"``,
            ``"first"`` or ``"random"``.
        node_selection: ``"hybrid"`` (best-first with plunging dives,
            default) or ``"best_first"`` (pure best-bound order).
        presolve: Run bound propagation before the search.
        rounding_heuristic: Try rounding each node's LP point into an
            incumbent.
        seed: RNG seed for the ``"random"`` branching rule.
        record_proof: Record a leaf-cover infeasibility proof on the
            result (:attr:`repro.milp.solution.MILPResult.proof`): per
            pruned leaf, the fixed integer columns and a Farkas vector
            (:func:`repro.milp.scipy_backend.farkas_ray`).  Only a
            search over the *original* encoding can be replayed
            independently, so presolve or any unrecordable pruning
            marks the proof incomplete rather than emitting an unsound
            one.  Meant to be used with ``presolve=False``.
    """

    lp_backend: str = "highs"
    time_limit: float = math.inf
    node_limit: int = 200000
    int_tol: float = INTEGRALITY_TOL
    gap_tol: float = GAP_TOL
    branching: str = "pseudocost"
    node_selection: str = "hybrid"
    presolve: bool = True
    rounding_heuristic: bool = True
    seed: int = 0
    record_proof: bool = False


_BRANCH_RULES = ("pseudocost", "most_fractional", "first", "random")
_NODE_SELECTIONS = ("hybrid", "best_first")


@dataclasses.dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    lb: np.ndarray = dataclasses.field(compare=False)
    ub: np.ndarray = dataclasses.field(compare=False)
    depth: int = dataclasses.field(compare=False, default=0)
    #: Parent node's tiebreak id (-1 at the root) — tree telemetry only.
    parent: int = dataclasses.field(compare=False, default=-1)
    #: Column branched on to create this node (-1 at the root).
    branch_var: int = dataclasses.field(compare=False, default=-1)
    #: Down (-1) or up (+1) child of the branching.
    branch_dir: int = dataclasses.field(compare=False, default=0)
    #: Fractional part of the branch column in the parent's LP point.
    branch_frac: float = dataclasses.field(compare=False, default=0.0)
    #: Parent LP objective (pseudocost updates measure against it).
    parent_obj: float = dataclasses.field(
        compare=False, default=math.nan
    )


class _Pseudocosts:
    """Per-column objective-degradation estimates, learned online."""

    def __init__(self, n: int) -> None:
        self.sum_down = np.zeros(n)
        self.cnt_down = np.zeros(n, dtype=np.int64)
        self.sum_up = np.zeros(n)
        self.cnt_up = np.zeros(n, dtype=np.int64)

    def update(
        self,
        j: int,
        direction: int,
        parent_obj: float,
        child_obj: float,
        frac: float,
    ) -> None:
        gain = max(child_obj - parent_obj, 0.0)
        if direction < 0:
            denom = max(frac, 1e-6)
            self.sum_down[j] += gain / denom
            self.cnt_down[j] += 1
        else:
            denom = max(1.0 - frac, 1e-6)
            self.sum_up[j] += gain / denom
            self.cnt_up[j] += 1

    def _estimate(self, sums, counts, j: int) -> float:
        if counts[j]:
            return sums[j] / counts[j]
        total = counts.sum()
        if total:
            return float(sums.sum() / total)  # average of initialised
        return 1.0

    def score(self, j: int, frac: float) -> float:
        down = self._estimate(self.sum_down, self.cnt_down, j) * frac
        up = self._estimate(self.sum_up, self.cnt_up, j) * (1.0 - frac)
        return max(down, 1e-6) * max(up, 1e-6)

    def initialised(self) -> bool:
        return bool(self.cnt_down.sum() or self.cnt_up.sum())


def _pick_branch_var(
    fractional: List[Tuple[int, float]],
    rule: str,
    rng: np.random.Generator,
    pseudocosts: Optional[_Pseudocosts] = None,
) -> int:
    """Choose the column to branch on among fractional integer columns."""
    if rule == "first":
        return fractional[0][0]
    if rule == "random":
        return fractional[int(rng.integers(len(fractional)))][0]
    if rule == "pseudocost" and pseudocosts is not None \
            and pseudocosts.initialised():
        return max(
            fractional,
            key=lambda item: pseudocosts.score(
                item[0], item[1] - math.floor(item[1])
            ),
        )[0]
    # most_fractional (also the pseudocost rule's cold-start fallback):
    # largest distance to the nearest integer.
    return max(
        fractional,
        key=lambda item: min(item[1] - math.floor(item[1]),
                             math.ceil(item[1]) - item[1]),
    )[0]


class _Search:
    """One branch-and-bound run; owns all node-loop state."""

    def __init__(
        self, work: Model, options: MILPOptions, start: float,
        tracer=None,
    ) -> None:
        self.options = options
        self.work = work
        self.start = start
        #: ``None`` when tracing is off — the hot node loop pays one
        #: ``is not None`` check and nothing else.
        self.trace = (
            tracer if tracer is not None and tracer.enabled else None
        )
        (self.c, self.A_ub, self.b_ub, self.A_eq, self.b_eq,
         bounds) = work.dense_arrays()
        self.n = work.num_vars
        self.int_idx = np.array(work.integer_indices, dtype=int)
        self.root_lb = np.array([b[0] for b in bounds])
        self.root_ub = np.array([b[1] for b in bounds])
        #: One HiGHS model for the whole search; nodes change bounds only.
        self.lp = scipy_backend.NodeLP(
            self.c, self.A_ub, self.b_ub, self.A_eq, self.b_eq,
            self.root_lb, self.root_ub,
        )
        self.rng = np.random.default_rng(options.seed)
        self.pseudocosts = _Pseudocosts(self.n)
        self.incumbent_x: Optional[np.ndarray] = None
        self.incumbent_obj = math.inf  # internal minimisation objective
        self.nodes = 0
        self.lp_iterations = 0
        self.metrics = MetricsRegistry()
        self.lp_failures = self.metrics.counter("lp_failures")
        #: Bounds of the nodes whose LP failed: their subtrees stay
        #: undecided, and each parent objective still bounds its subtree.
        self.failed_bounds: List[float] = []
        self.counter = itertools.count()
        self.heap: List[_Node] = []
        self.dive_stack: List[_Node] = []
        # -- infeasibility-proof recording ----------------------------------
        self.record_proof = options.record_proof
        #: Per pruned leaf: ``(fixed literals, node lb, node ub)``.  The
        #: Farkas rays are solved only once the search ends INFEASIBLE.
        self.proof_leaves: List[Tuple[dict, np.ndarray, np.ndarray]] = []
        # Presolve rewrites the encoding the checker replays against.
        self.proof_incomplete = options.presolve

    # -- helpers -----------------------------------------------------------
    def _timed_out(self) -> bool:
        return time.monotonic() - self.start > self.options.time_limit

    def _node_lp(self, node: _Node) -> LPResult:
        """Solve a node's LP relaxation, hot-started from the last node."""
        return self.lp.solve(node.lb, node.ub)

    def _try_incumbent(self, x: np.ndarray) -> None:
        obj = float(self.c @ x)
        if obj < self.incumbent_obj - 1e-12 and self.work.is_feasible(
            x, tol=1e-5
        ):
            self.incumbent_obj = obj
            self.incumbent_x = x.copy()
            if self.trace is not None:
                self.trace.event(
                    "incumbent", objective=obj, nodes=self.nodes
                )

    def _rounding_candidates(self, x: np.ndarray) -> None:
        if not self.options.rounding_heuristic or self.int_idx.size == 0:
            return
        rounded = x.copy()
        rounded[self.int_idx] = np.round(rounded[self.int_idx])
        rounded = np.clip(rounded, self.root_lb, self.root_ub)
        self._try_incumbent(rounded)

    # -- infeasibility-proof recording --------------------------------------
    def _record_leaf(self, node_lb: np.ndarray, node_ub: np.ndarray) -> None:
        """Record an infeasible leaf's fixed literals and box.

        A leaf is recordable only when every integer column is either
        fully fixed by branching or still at its root bounds (so the
        fixed literals describe the leaf exactly).  Anything else
        poisons the proof — better no certificate than a wrong one.
        """
        if not self.record_proof or self.proof_incomplete:
            return
        fixed: dict = {}
        for j in map(int, self.int_idx):
            if node_lb[j] == node_ub[j]:
                if self.root_lb[j] != self.root_ub[j]:
                    fixed[j] = int(round(node_lb[j]))
            elif (
                node_lb[j] != self.root_lb[j]
                or node_ub[j] != self.root_ub[j]
            ):
                self.proof_incomplete = True
                return
        self.proof_leaves.append((fixed, node_lb, node_ub))

    def _proof_payload(self, status: SolveStatus) -> Optional[dict]:
        """The ``MILPResult.proof`` dict (``None`` unless recording).

        Only a complete INFEASIBLE search pays for the leaves' Farkas
        rays; a leaf whose elastic LP finds no ray leaves the proof
        incomplete.
        """
        if not self.record_proof:
            return None
        complete = (
            status is SolveStatus.INFEASIBLE and not self.proof_incomplete
        )
        leaves = []
        if complete:
            for fixed, lb, ub in self.proof_leaves:
                ray = scipy_backend.farkas_ray(
                    self.A_ub, self.b_ub, self.A_eq, self.b_eq,
                    list(zip(lb, ub)),
                )
                if ray is None:
                    complete = False
                    leaves = []
                    break
                leaves.append({"fixed": fixed, "farkas": ray})
        return {"complete": complete, "leaves": leaves}

    def _fractional(self, x: np.ndarray) -> List[Tuple[int, float]]:
        """Integer columns whose LP value is fractional at ``x``."""
        tol = self.options.int_tol
        return [
            (int(j), float(x[j]))
            for j in self.int_idx
            if abs(x[j] - round(x[j])) > tol
        ]

    def _push_children(self, node: _Node, result: LPResult, j: int) -> None:
        """Branch on column ``j``; dive on the more promising child."""
        xj = float(result.x[j])
        frac = xj - math.floor(xj)
        children: List[_Node] = []
        down_ub = node.ub.copy()
        down_ub[j] = math.floor(xj)
        if down_ub[j] >= node.lb[j] - 1e-9:
            children.append(_Node(
                result.objective, next(self.counter),
                node.lb.copy(), down_ub, node.depth + 1,
                parent=node.tiebreak,
                branch_var=j, branch_dir=-1,
                branch_frac=frac, parent_obj=result.objective,
            ))
        up_lb = node.lb.copy()
        up_lb[j] = math.ceil(xj)
        if up_lb[j] <= node.ub[j] + 1e-9:
            children.append(_Node(
                result.objective, next(self.counter),
                up_lb, node.ub.copy(), node.depth + 1,
                parent=node.tiebreak,
                branch_var=j, branch_dir=+1,
                branch_frac=frac, parent_obj=result.objective,
            ))
        if len(children) < 2:
            # A skipped child leaves part of the node's box uncovered.
            self.proof_incomplete = True
        if not children:
            return
        if self.options.node_selection == "best_first":
            for child in children:
                heapq.heappush(self.heap, child)
            return
        # Hybrid: dive on the child the LP point leans toward (the
        # rounding direction) — it is the cheapest route to an incumbent.
        dive_dir = -1 if frac < 0.5 else +1
        dive = max(
            children,
            key=lambda ch: (ch.branch_dir == dive_dir),
        )
        for child in children:
            if child is dive:
                self.dive_stack.append(child)
            else:
                heapq.heappush(self.heap, child)

    def _open_bounds(self) -> List[float]:
        return (
            [node.bound for node in self.heap]
            + [node.bound for node in self.dive_stack]
        )

    def _node_event(self, node: _Node, result: LPResult) -> None:
        """One search-tree telemetry event (tracing enabled only)."""
        attrs = {
            "node": node.tiebreak,
            "parent": node.parent,
            "depth": node.depth,
            "branch_var": node.branch_var,
            "branch_dir": node.branch_dir,
            "lp_iterations": result.iterations,
            "status": result.status.value,
        }
        if result.status is SolveStatus.OPTIMAL:
            attrs["bound"] = float(result.objective)
        self.trace.event("node", **attrs)

    # -- main loop ---------------------------------------------------------
    def run(self) -> MILPResult:
        options = self.options
        sign = -1.0 if self.work.sense is Sense.MAXIMIZE else 1.0
        objective_constant = self.work.objective.constant

        root_node = _Node(
            -math.inf, next(self.counter), self.root_lb, self.root_ub, 0
        )
        root = self._node_lp(root_node)
        self.lp_iterations += root.iterations
        if self.trace is not None:
            self._node_event(root_node, root)
        if root.status is SolveStatus.INFEASIBLE:
            self._record_leaf(self.root_lb, self.root_ub)
            return self._finish(SolveStatus.INFEASIBLE, sign,
                                objective_constant, -math.inf)
        if root.status is SolveStatus.UNBOUNDED:
            return self._finish(SolveStatus.UNBOUNDED, sign,
                                objective_constant, -math.inf)
        if root.status is not SolveStatus.OPTIMAL:
            self.lp_failures.inc()
            return self._finish(SolveStatus.ERROR, sign,
                                objective_constant, -math.inf)

        x = root.x
        fractional = self._fractional(x)
        if not fractional:
            # An integral relaxation point is never part of an
            # infeasibility cover (even a tolerance-rejected incumbent
            # leaves this leaf unaccounted for).
            self.proof_incomplete = True
            self._try_incumbent(x)
            if self.incumbent_x is not None:
                return self._finish(SolveStatus.OPTIMAL, sign,
                                    objective_constant, root.objective)
        self._rounding_candidates(x)
        if fractional:
            j = _pick_branch_var(
                fractional, options.branching, self.rng, self.pseudocosts
            )
            self._push_children(root_node, root, j)

        best_open_bound = root.objective
        status = SolveStatus.OPTIMAL
        while self.heap or self.dive_stack:
            if self._timed_out():
                status = SolveStatus.TIMEOUT
                break
            if self.nodes >= options.node_limit:
                status = SolveStatus.NODE_LIMIT
                break
            if self.dive_stack:
                node = self.dive_stack.pop()
                if node.bound >= self.incumbent_obj - options.gap_tol:
                    continue
            else:
                node = heapq.heappop(self.heap)
                best_open_bound = node.bound
                if node.bound >= self.incumbent_obj - options.gap_tol:
                    # Best-first order: every remaining node is at least
                    # as bad (the dive stack is empty here by construction).
                    best_open_bound = self.incumbent_obj
                    self.heap.clear()
                    break
            self.nodes += 1
            result = self._node_lp(node)
            self.lp_iterations += result.iterations
            if self.trace is not None:  # sole tracing cost when disabled
                self._node_event(node, result)
            if result.status is SolveStatus.INFEASIBLE:
                self._record_leaf(node.lb, node.ub)
                continue
            if result.status is not SolveStatus.OPTIMAL:
                # A failed LP proves nothing about the node: its subtree
                # stays undecided, bounded only by the parent objective.
                self.lp_failures.inc()
                self.failed_bounds.append(node.bound)
                continue
            if (
                options.branching == "pseudocost"
                and node.branch_var >= 0
                and math.isfinite(node.parent_obj)
            ):
                self.pseudocosts.update(
                    node.branch_var, node.branch_dir,
                    node.parent_obj, result.objective, node.branch_frac,
                )
            if result.objective >= self.incumbent_obj - options.gap_tol:
                continue
            x = result.x
            assert x is not None
            fractional = self._fractional(x)
            if not fractional:
                # Integral leaf — never part of an infeasibility cover
                # (even when the incumbent is tolerance-rejected).
                self.proof_incomplete = True
                self._try_incumbent(x)
                continue
            self._rounding_candidates(x)
            j = _pick_branch_var(
                fractional, options.branching, self.rng, self.pseudocosts
            )
            self._push_children(node, result, j)

        if status is SolveStatus.OPTIMAL and self.failed_bounds:
            # Undecided subtrees: neither optimality nor infeasibility
            # is proven, though an incumbent may still be reported.
            status = SolveStatus.ERROR
        return self._finish(status, sign, objective_constant,
                            best_open_bound)

    def _finish(
        self,
        status: SolveStatus,
        sign: float,
        objective_constant: float,
        best_open_bound: float,
    ) -> MILPResult:
        if status is SolveStatus.OPTIMAL and self.incumbent_x is None:
            status = SolveStatus.INFEASIBLE
        proof = self._proof_payload(status)
        wall = time.monotonic() - self.start
        metrics = self.metrics.snapshot()
        if self.trace is not None:
            self.trace.event(
                "search_done", status=status.value, nodes=self.nodes,
                lp_iterations=self.lp_iterations, **metrics,
            )
        if status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED) or (
            status is SolveStatus.ERROR and self.incumbent_x is None
        ):
            return MILPResult(
                status, nodes=self.nodes,
                lp_iterations=self.lp_iterations, wall_time=wall,
                metrics=metrics, proof=proof,
            )
        if status is SolveStatus.OPTIMAL:
            best_bound_internal = self.incumbent_obj
        else:
            open_bounds = (
                self._open_bounds() + self.failed_bounds
                + [best_open_bound]
            )
            best_bound_internal = min(min(open_bounds),
                                      self.incumbent_obj)
        return MILPResult(
            status,
            x=self.incumbent_x,
            objective=(
                sign * self.incumbent_obj + objective_constant
                if self.incumbent_x is not None
                else math.nan
            ),
            best_bound=sign * best_bound_internal + objective_constant,
            nodes=self.nodes,
            lp_iterations=self.lp_iterations,
            wall_time=wall,
            metrics=metrics,
            proof=proof,
        )


def solve_milp(
    model: Model,
    options: Optional[MILPOptions] = None,
    tracer=None,
) -> MILPResult:
    """Solve a MILP model; returns the best incumbent and a proven bound.

    The result's ``objective`` and ``best_bound`` are reported in the
    *model's* sense (a maximisation model gets an upper best_bound).
    ``tracer`` (a :class:`repro.obs.Tracer`) enables per-node search-tree
    telemetry; ``None`` keeps the node loop instrumentation-free.
    """
    options = options or MILPOptions()
    if options.lp_backend not in _LP_BACKENDS:
        raise ValueError(
            f"unknown lp_backend {options.lp_backend!r}; "
            f"expected one of {_LP_BACKENDS}"
        )
    if options.branching not in _BRANCH_RULES:
        raise ValueError(
            f"unknown branching rule {options.branching!r}; "
            f"expected one of {_BRANCH_RULES}"
        )
    if options.node_selection not in _NODE_SELECTIONS:
        raise ValueError(
            f"unknown node_selection {options.node_selection!r}; "
            f"expected one of {_NODE_SELECTIONS}"
        )
    start = time.monotonic()

    work = model.copy()
    if options.presolve:
        try:
            presolve_mod.propagate_bounds(work)
        except presolve_mod.InfeasiblePresolve:
            return MILPResult(SolveStatus.INFEASIBLE,
                              wall_time=time.monotonic() - start)

    return _Search(work, options, start, tracer=tracer).run()
