"""Tests for branch-and-bound: correctness vs brute force, budgets, options."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp import (
    MILPOptions,
    Model,
    Sense,
    SolveStatus,
    VarType,
    solve_milp,
)


def knapsack(values, weights, capacity) -> Model:
    model = Model("knapsack")
    xs = [
        model.add_var(f"item{i}", vtype=VarType.BINARY)
        for i in range(len(values))
    ]
    model.add_constr(
        sum(w * x for w, x in zip(weights, xs)) <= capacity
    )
    model.set_objective(
        sum(v * x for v, x in zip(values, xs)), sense=Sense.MAXIMIZE
    )
    return model


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    for bits in itertools.product([0, 1], repeat=len(values)):
        if sum(w * b for w, b in zip(weights, bits)) <= capacity:
            best = max(best, sum(v * b for v, b in zip(values, bits)))
    return best


class TestKnapsackCorrectness:
    @pytest.mark.parametrize("presolve", [True, False])
    def test_small_knapsack(self, presolve):
        values = [10, 13, 18, 31, 7, 15]
        weights = [1, 2, 3, 4, 5, 6]
        model = knapsack(values, weights, 10)
        res = solve_milp(model, MILPOptions(presolve=presolve))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, 10)
        )
        assert model.is_feasible(res.x)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=30),
            min_size=2,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_knapsacks_match_brute_force(self, values, capacity):
        weights = [(v % 7) + 1 for v in values]
        model = knapsack(values, weights, capacity)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, capacity)
        )


class TestIntegerVariables:
    def test_general_integer(self):
        model = Model()
        x = model.add_var("x", vtype=VarType.INTEGER, ub=100)
        y = model.add_var("y", vtype=VarType.INTEGER, ub=100)
        model.add_constr(7 * x + 5 * y <= 38)
        model.set_objective(2 * x + 3 * y, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        # y = 7 (35 weight), x = 0 -> 21
        assert res.objective == pytest.approx(21.0)

    def test_minimization_sense(self):
        model = Model()
        x = model.add_var("x", vtype=VarType.INTEGER, lb=0, ub=10)
        model.add_constr(x >= 2.5)
        model.set_objective(x, sense=Sense.MINIMIZE)
        res = solve_milp(model)
        assert res.objective == pytest.approx(3.0)

    def test_mixed_integer_continuous(self):
        model = Model()
        x = model.add_var("x", ub=10)  # continuous
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x <= 10 * b)
        model.add_constr(x + b <= 5.5)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.objective == pytest.approx(4.5)
        assert res.x[1] == pytest.approx(1.0)


class TestInfeasibleAndBudgets:
    def test_infeasible_model(self):
        model = Model()
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(b >= 0.4)
        model.add_constr(b <= 0.6)
        res = solve_milp(model)
        assert res.status is SolveStatus.INFEASIBLE
        assert not res.has_incumbent

    def test_node_limit_reports_bound(self):
        # A knapsack too big to finish in 1 node but with a rounding
        # incumbent available.
        rng = np.random.default_rng(0)
        values = rng.integers(10, 100, size=25).tolist()
        weights = rng.integers(5, 40, size=25).tolist()
        model = knapsack(values, weights, 100)
        res = solve_milp(
            model,
            MILPOptions(node_limit=1, presolve=False),
        )
        assert res.status is SolveStatus.NODE_LIMIT
        # Dual bound must dominate any incumbent (maximisation).
        if res.has_incumbent:
            assert res.best_bound >= res.objective - 1e-6

    def test_time_limit_zero_times_out(self):
        values = list(range(1, 20))
        weights = [(v % 5) + 1 for v in values]
        model = knapsack(values, weights, 12)
        res = solve_milp(model, MILPOptions(time_limit=0.0))
        assert res.status is SolveStatus.TIMEOUT

    def test_gap_between_bound_and_incumbent_closes(self):
        values = [10, 13, 18, 31, 7]
        weights = [1, 2, 3, 4, 5]
        model = knapsack(values, weights, 7)
        res = solve_milp(model)
        assert res.gap == pytest.approx(0.0)


class TestOptions:
    @pytest.mark.parametrize(
        "branching", ["most_fractional", "first", "random"]
    )
    def test_branching_rules_agree(self, branching):
        values = [4, 9, 3, 8, 7]
        weights = [2, 3, 1, 4, 2]
        model = knapsack(values, weights, 6)
        res = solve_milp(model, MILPOptions(branching=branching))
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, 6)
        )

    def test_unknown_backend_rejected(self):
        model = knapsack([1], [1], 1)
        with pytest.raises(ValueError):
            solve_milp(model, MILPOptions(lp_backend="gurobi"))

    @pytest.mark.parametrize("backend", ["simplex", "revised"])
    def test_retired_backends_rejected(self, backend):
        model = knapsack([1], [1], 1)
        with pytest.raises(ValueError, match="highs"):
            solve_milp(model, MILPOptions(lp_backend=backend))

    def test_presolve_off_same_answer(self):
        values = [5, 10, 15]
        weights = [1, 2, 3]
        model = knapsack(values, weights, 4)
        on = solve_milp(model, MILPOptions(presolve=True))
        off = solve_milp(model, MILPOptions(presolve=False))
        assert on.objective == pytest.approx(off.objective)

    def test_pure_lp_through_milp(self):
        model = Model()
        x = model.add_var("x", ub=4)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0)
        assert res.nodes <= 1

    @pytest.mark.parametrize(
        "selection", ["best_first", "hybrid"]
    )
    def test_node_selection_rules_agree(self, selection):
        values = [4, 9, 3, 8, 7]
        weights = [2, 3, 1, 4, 2]
        model = knapsack(values, weights, 6)
        res = solve_milp(model, MILPOptions(node_selection=selection))
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, 6)
        )

    def test_unknown_branching_rejected(self):
        model = knapsack([1], [1], 1)
        with pytest.raises(ValueError):
            solve_milp(model, MILPOptions(branching="strong"))

    def test_unknown_node_selection_rejected(self):
        model = knapsack([1], [1], 1)
        with pytest.raises(ValueError):
            solve_milp(model, MILPOptions(node_selection="dfs"))

    @pytest.mark.parametrize("sense", [Sense.MAXIMIZE, Sense.MINIMIZE])
    def test_objective_constant_reported(self, sense):
        """Regression: affine objectives (network encodings fold biases
        into a constant) must report the constant in objective and
        best_bound."""
        model = Model()
        x = model.add_var("x", ub=4)
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x + b <= 4.5)
        model.set_objective(x + b + 100.0, sense=sense)
        res = solve_milp(model)
        assert res.status is SolveStatus.OPTIMAL
        expected = 104.5 if sense is Sense.MAXIMIZE else 100.0
        assert res.objective == pytest.approx(expected)
        assert res.best_bound == pytest.approx(expected)
        assert res.objective == pytest.approx(
            model.objective_value(res.x)
        )


class TestRandomKnapsacks:
    """Deeper searches on random knapsacks agree across search options."""

    def _random_knapsack(self, rng, size=10):
        values = rng.integers(5, 60, size=size).tolist()
        weights = rng.integers(1, 12, size=size).tolist()
        capacity = int(sum(weights) // 2)
        return values, weights, capacity

    def test_node_selections_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            values, weights, capacity = self._random_knapsack(rng)
            hybrid = solve_milp(
                knapsack(values, weights, capacity),
                MILPOptions(node_selection="hybrid"),
            )
            best_first = solve_milp(
                knapsack(values, weights, capacity),
                MILPOptions(node_selection="best_first", presolve=False),
            )
            assert hybrid.status is SolveStatus.OPTIMAL
            assert hybrid.objective == pytest.approx(
                best_first.objective, abs=1e-6
            )

    def test_search_telemetry_populated(self):
        rng = np.random.default_rng(11)
        values, weights, capacity = self._random_knapsack(rng, size=14)
        model = knapsack(values, weights, capacity)
        res = solve_milp(model, MILPOptions(presolve=False))
        assert res.status is SolveStatus.OPTIMAL
        assert res.lp_iterations > 0
        assert res.metrics["lp_failures"] == 0

    def test_pseudocost_branching_matches_brute_force(self):
        rng = np.random.default_rng(21)
        values, weights, capacity = self._random_knapsack(rng, size=12)
        res = solve_milp(
            knapsack(values, weights, capacity),
            MILPOptions(branching="pseudocost"),
        )
        assert res.objective == pytest.approx(
            brute_force_knapsack(values, weights, capacity)
        )
