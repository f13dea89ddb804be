"""Node-LP engine tests: status mapping, bounds conversion, basic LPs
and the Farkas rays behind proof certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.audit import AuditReport
from repro.milp.scipy_backend import farkas_ray, solve_lp
from repro.milp.status import SolveStatus
from repro.proof.check import _check_farkas


class TestStatusMapping:
    def test_optimal(self):
        res = solve_lp(np.array([1.0]), bounds=[(0.0, 5.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_infeasible(self):
        res = solve_lp(
            np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),
            bounds=[(0.0, 10.0)],
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x is None

    def test_unbounded(self):
        res = solve_lp(np.array([-1.0]), bounds=[(0.0, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED


class TestBoundsConversion:
    def test_infinite_bounds_translated(self):
        res = solve_lp(
            np.array([1.0]),
            A_ub=np.array([[-1.0]]),
            b_ub=np.array([3.0]),  # x >= -3
            bounds=[(-math.inf, math.inf)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-3.0)

    def test_default_bounds_nonnegative(self):
        res = solve_lp(np.array([1.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([0.0])

    def test_equality_constraints(self):
        res = solve_lp(
            np.array([1.0, 2.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            bounds=[(0.0, 10.0), (0.0, 10.0)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)  # all mass on x0

    def test_iterations_reported(self):
        res = solve_lp(
            np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
            b_ub=np.array([4.0, 6.0]),
            bounds=[(0.0, 10.0)] * 2,
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.iterations >= 0


class TestBasicLPs:
    def test_simple_maximization(self):
        # max x + 2y s.t. x + y <= 4, x - y <= 1, 0 <= x,y <= 10
        res = solve_lp(
            np.array([-1.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, -1.0]]),
            np.array([4.0, 1.0]),
            bounds=[(0, 10), (0, 10)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([0.0, 4.0])

    def test_equality_constraint(self):
        res = solve_lp(
            np.array([1.0, 1.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([3.0]),
            bounds=[(0, 10), (0, 10)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)

    def test_infeasible(self):
        res = solve_lp(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -2.0]),  # x <= 1 and x >= 2
            bounds=[(0, 10)],
        )
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp(np.array([-1.0]), bounds=[(0, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED

    def test_free_variable(self):
        res = solve_lp(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([5.0]),  # -x <= 5  =>  x >= -5
            bounds=[(-math.inf, math.inf)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)

    def test_upper_bounded_only_variable(self):
        res = solve_lp(np.array([-1.0]), bounds=[(-math.inf, 3.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([3.0])

    def test_negative_lower_bounds(self):
        res = solve_lp(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]),
            np.array([0.0]),
            bounds=[(-2, 2), (-3, 3)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)

    def test_degenerate_lp_terminates(self):
        # Classic degeneracy: many redundant constraints through a vertex.
        A = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        )
        b = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        res = solve_lp(np.array([-1.0, -1.0]), A, b,
                       bounds=[(0, 5), (0, 5)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)

    def test_fixed_variable(self):
        res = solve_lp(
            np.array([1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            np.array([10.0]),
            bounds=[(2, 2), (0, 5)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.x[0] == pytest.approx(2.0)
        assert res.x[1] == pytest.approx(5.0)


def _named_rows(A, b):
    """``A x <= b`` as the checker's named rows over ``x0, x1, ...``."""
    return {
        f"r{i}": ({f"x{j}": float(A[i, j]) for j in range(A.shape[1])},
                  float(b[i]))
        for i in range(A.shape[0])
    }


@st.composite
def infeasible_box_lp(draw):
    """A random ``A x <= b`` over a box, made empty by a cut-off row.

    The last row demands ``w x <= min_box(w x) - gap``, which no point of
    the box satisfies; the other rows are arbitrary.  Coefficients are
    rounded to 3 decimals so infeasibility never hinges on solver
    tolerances.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=5))
    coef = st.floats(min_value=-5, max_value=5).map(lambda v: round(v, 3))
    A = np.array(
        [draw(st.lists(coef, min_size=n, max_size=n)) for _ in range(m)]
    ).reshape(m, n)
    b = np.array(draw(st.lists(
        st.floats(min_value=-20, max_value=40).map(lambda v: round(v, 3)),
        min_size=m, max_size=m,
    )))
    lo = np.array(draw(st.lists(
        st.integers(-5, 0), min_size=n, max_size=n
    )), dtype=float)
    hi = lo + np.array(draw(st.lists(
        st.integers(0, 6), min_size=n, max_size=n
    )), dtype=float)
    w = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
    gap = draw(st.floats(min_value=0.01, max_value=5.0))
    box_min = float(np.minimum(w * lo, w * hi).sum())
    A = np.vstack([A, w])
    b = np.append(b, box_min - gap)
    return A, b, list(zip(lo, hi))


class TestFarkasRay:
    @given(infeasible_box_lp())
    @settings(max_examples=60, deadline=None)
    def test_ray_passes_checker(self, lp):
        A, b, bounds = lp
        ray = farkas_ray(A, b, None, None, bounds)
        assert ray is not None and ray.shape == (A.shape[0],)
        dual = {f"r{i}": float(v) for i, v in enumerate(ray) if v != 0.0}
        var_bounds = {f"x{j}": bounds[j] for j in range(A.shape[1])}
        report = AuditReport()
        assert _check_farkas(
            report, "lp", _named_rows(A, b), var_bounds, {}, dual
        ), report.render()

    def test_feasible_system_has_no_ray(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        assert farkas_ray(A, b, None, None, [(0, 1), (0, 1)]) is None

    def test_equality_rows_follow_inequality_rows(self):
        # x <= 1 and x = 2 over x in [0, 5]: empty.
        ray = farkas_ray(
            np.array([[1.0]]), np.array([1.0]),
            np.array([[1.0]]), np.array([2.0]), [(0.0, 5.0)],
        )
        assert ray is not None and ray.shape == (2,)
        # y_ub (x - 1) + y_eq (x - 2): the aggregate proves emptiness.
        assert ray[0] > 0 and ray[1] < 0
