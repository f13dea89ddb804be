"""Unit tests for the MILP model container."""

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp import Model, Sense, VarType


class TestVariables:
    def test_auto_names(self):
        model = Model()
        v0 = model.add_var()
        v1 = model.add_var()
        assert (v0.name, v1.name) == ("x0", "x1")

    def test_duplicate_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_empty_domain_rejected(self):
        model = Model()
        with pytest.raises(ModelError):
            model.add_var("x", lb=2.0, ub=1.0)

    def test_var_by_name(self):
        model = Model()
        x = model.add_var("speed")
        assert model.var_by_name("speed") is x
        with pytest.raises(ModelError):
            model.var_by_name("missing")

    def test_integer_indices(self):
        model = Model()
        model.add_var("c")
        model.add_var("b", vtype=VarType.BINARY)
        model.add_var("i", vtype=VarType.INTEGER, ub=10)
        assert model.integer_indices == [1, 2]

    def test_set_bounds(self):
        model = Model()
        x = model.add_var("x", lb=0, ub=10)
        model.set_bounds(x, 2, 3)
        assert (model.lb[0], model.ub[0]) == (2.0, 3.0)
        with pytest.raises(ModelError):
            model.set_bounds(x, 5, 4)


class TestDenseArrays:
    def test_ge_rows_are_negated(self):
        model = Model()
        x = model.add_var("x")
        model.add_constr(x >= 2)
        _c, A_ub, b_ub, A_eq, _b_eq, _bounds = model.dense_arrays()
        assert A_eq is None
        assert A_ub.tolist() == [[-1.0]]
        assert b_ub.tolist() == [-2.0]

    def test_maximize_negates_objective(self):
        model = Model()
        x = model.add_var("x")
        model.set_objective(3 * x, sense=Sense.MAXIMIZE)
        c, *_ = model.dense_arrays()
        assert c.tolist() == [-3.0]

    def test_eq_rows_separate(self):
        model = Model()
        x = model.add_var("x")
        y = model.add_var("y")
        model.add_constr(x + y == 1)
        model.add_constr(x <= 2)
        _c, A_ub, _b_ub, A_eq, b_eq, _bounds = model.dense_arrays()
        assert A_ub.shape == (1, 2)
        assert A_eq.shape == (1, 2)
        assert b_eq.tolist() == [1.0]


def _two_item_model(capacity):
    model = Model()
    x = model.add_var("x", vtype=VarType.BINARY)
    y = model.add_var("y", vtype=VarType.BINARY)
    model.add_constr(2 * x + 4 * y <= capacity)
    return model


class TestCutRows:
    def test_dense_view_includes_cut_rows(self):
        model = _two_item_model(5.0)
        _, A0, _, _, _, _ = model.dense_arrays()
        model.add_cut_rows(np.array([[1.0, 1.0]]), np.array([1.0]))
        _, A1, b1, _, _, _ = model.dense_arrays()
        assert A1.shape[0] == A0.shape[0] + 1
        assert A1[-1].tolist() == [1.0, 1.0]
        assert b1[-1] == 1.0
        assert A0.shape[0] == 1  # the earlier view was not mutated

    def test_cut_rows_checked_by_is_feasible(self):
        model = _two_item_model(10.0)
        model.add_cut_rows(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert model.is_feasible([1.0, 0.0])
        assert not model.is_feasible([1.0, 1.0])


class TestFeasibility:
    def make(self):
        model = Model()
        x = model.add_var("x", lb=0, ub=4)
        b = model.add_var("b", vtype=VarType.BINARY)
        model.add_constr(x + 2 * b <= 5)
        return model

    def test_feasible_point(self):
        assert self.make().is_feasible([3.0, 1.0])

    def test_bound_violation(self):
        assert not self.make().is_feasible([5.0, 0.0])

    def test_integrality_violation(self):
        assert not self.make().is_feasible([1.0, 0.5])

    def test_constraint_violation(self):
        assert not self.make().is_feasible([4.0, 1.0])

    def test_objective_value_in_model_sense(self):
        model = self.make()
        model.set_objective(
            model.var_by_name("x") + model.var_by_name("b"),
            sense=Sense.MAXIMIZE,
        )
        assert model.objective_value([3.0, 1.0]) == pytest.approx(4.0)


class TestCopy:
    def test_copy_is_deep(self):
        model = Model("orig")
        x = model.add_var("x", ub=7)
        model.add_constr(x <= 3)
        model.set_objective(x, sense=Sense.MAXIMIZE)
        clone = model.copy()
        clone.lb[0] = 5.0
        clone.constraints[0].expr.coeffs[0] = 9.0
        assert model.lb[0] == 0.0
        assert model.constraints[0].expr.coeffs[0] == 1.0
        assert clone.sense is Sense.MAXIMIZE

    def test_unknown_column_rejected(self):
        model = Model()
        model.add_var("x")
        other = Model()
        y = other.add_var("y0")
        z = other.add_var("z1")
        with pytest.raises(ModelError):
            model.add_constr(y + z <= 1)
