"""LP engine tests: status mapping, bounds conversion, basic LPs, the
persistent HiGHS handle (bounds-only node solves and cost-only sweeps)
and the Farkas rays behind proof certificates."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from repro.analysis.audit import AuditReport
from repro.milp.scipy_backend import NodeLP, farkas_ray, model_status
from repro.milp.status import SolveStatus
from repro.proof.check import _check_farkas


def solve_once(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, bounds):
    """Minimise ``c @ x`` over ``bounds`` both ways the handle offers.

    A cost-only :meth:`NodeLP.minimize` on a zero-cost model and a
    bounds-only :meth:`NodeLP.solve` on a model built with cost ``c``
    must agree on status and optimum; the ``solve`` result (which
    carries ``x``) is returned.
    """
    lb = np.array([lo for lo, _ in bounds], dtype=float)
    ub = np.array([hi for _, hi in bounds], dtype=float)
    res = NodeLP(c, A_ub, b_ub, A_eq, b_eq, lb, ub).solve(lb, ub)
    swept = NodeLP(
        np.zeros(len(c)), A_ub, b_ub, A_eq, b_eq, lb, ub
    ).minimize(c)
    assert swept.status is res.status and swept.x is None
    if res.status is SolveStatus.OPTIMAL:
        assert swept.objective == pytest.approx(res.objective, abs=1e-9)
    return res


def linprog_status(res):
    """The :class:`SolveStatus` of a :func:`scipy.optimize.linprog` result."""
    return {
        0: SolveStatus.OPTIMAL,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }.get(res.status, SolveStatus.ERROR)


class TestStatusMapping:
    def test_optimal(self):
        res = solve_once(np.array([1.0]), bounds=[(0.0, 5.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_infeasible(self):
        res = solve_once(
            np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -2.0]),
            bounds=[(0.0, 10.0)],
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x is None

    def test_unbounded(self):
        res = solve_once(np.array([-1.0]), bounds=[(0.0, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED

    @pytest.mark.parametrize("name", sorted(HighsModelStatus.__members__))
    def test_only_decisive_highs_statuses_decide(self, name):
        decisive = {
            "kOptimal": SolveStatus.OPTIMAL,
            "kInfeasible": SolveStatus.INFEASIBLE,
            "kUnbounded": SolveStatus.UNBOUNDED,
        }
        status = model_status(HighsModelStatus.__members__[name])
        assert status is decisive.get(name, SolveStatus.ERROR)


class TestPrivateApiPin:
    def test_missing_highs_handle_fails_at_import(self):
        # A clean interpreter, so this session's imports cannot mask it.
        probe = (
            "import scipy.optimize._highspy._core as core\n"
            "del core._Highs\n"
            "import repro.milp\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
        )
        assert proc.returncode != 0
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError")
        assert "_Highs" in last and "scipy>=1.15,<1.18" in last


class TestBoundsConversion:
    def test_infinite_bounds_translated(self):
        res = solve_once(
            np.array([1.0]),
            A_ub=np.array([[-1.0]]),
            b_ub=np.array([3.0]),  # x >= -3
            bounds=[(-math.inf, math.inf)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-3.0)

    def test_equality_constraints(self):
        res = solve_once(
            np.array([1.0, 2.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            bounds=[(0.0, 10.0), (0.0, 10.0)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)  # all mass on x0

    def test_iterations_reported(self):
        res = solve_once(
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
        res = solve_once(
            np.array([-1.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, -1.0]]),
            np.array([4.0, 1.0]),
            bounds=[(0, 10), (0, 10)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-8.0)
        assert res.x == pytest.approx([0.0, 4.0])

    def test_equality_constraint(self):
        res = solve_once(
            np.array([1.0, 1.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([3.0]),
            bounds=[(0, 10), (0, 10)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)

    def test_infeasible(self):
        res = solve_once(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -2.0]),  # x <= 1 and x >= 2
            bounds=[(0, 10)],
        )
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_once(np.array([-1.0]), bounds=[(0, math.inf)])
        assert res.status is SolveStatus.UNBOUNDED

    def test_free_variable(self):
        res = solve_once(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([5.0]),  # -x <= 5  =>  x >= -5
            bounds=[(-math.inf, math.inf)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)

    def test_upper_bounded_only_variable(self):
        res = solve_once(np.array([-1.0]), bounds=[(-math.inf, 3.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([3.0])

    def test_negative_lower_bounds(self):
        res = solve_once(
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
        res = solve_once(np.array([-1.0, -1.0]), A, b,
                       bounds=[(0, 5), (0, 5)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0)

    def test_fixed_variable(self):
        res = solve_once(
            np.array([1.0, -1.0]),
            np.array([[1.0, 1.0]]),
            np.array([10.0]),
            bounds=[(2, 2), (0, 5)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.x[0] == pytest.approx(2.0)
        assert res.x[1] == pytest.approx(5.0)


class TestNodeLP:
    """The persistent handle answers every box, and every cost, as a
    fresh solve would."""

    N, M_UB, M_EQ = 30, 38, 2

    @pytest.fixture
    def lp(self):
        rng = np.random.default_rng(2024)
        c = rng.normal(size=self.N)
        A_ub = rng.normal(size=(self.M_UB, self.N))
        # x = 0 is feasible at the root; the last row caps sum(x), so a
        # box raising more than half the lower bounds to 1 is empty.
        A_ub[-1] = 1.0
        b_ub = rng.uniform(0.5, 3.0, size=self.M_UB)
        b_ub[-1] = self.N / 2
        A_eq = rng.normal(size=(self.M_EQ, self.N))
        b_eq = A_eq @ np.full(self.N, 0.5)
        return c, A_ub, b_ub, A_eq, b_eq

    def test_walk_matches_fresh_solves(self, lp):
        rng = np.random.default_rng(7)
        root_lb, root_ub = np.zeros(self.N), np.ones(self.N)
        handle = NodeLP(*lp, root_lb, root_ub)
        lb, ub = root_lb.copy(), root_ub.copy()
        seen = {}
        for _ in range(320):
            move = rng.uniform()
            if move < 0.6:  # tighten: fix or halve one column
                j = int(rng.integers(self.N))
                if rng.uniform() < 0.5:
                    lb[j] = ub[j] = float(rng.integers(2))
                else:
                    mid = 0.5 * (lb[j] + ub[j])
                    lb[j], ub[j] = (lb[j], mid) if rng.uniform() < 0.5 \
                        else (mid, ub[j])
            elif move < 0.8:  # an empty box
                lb, ub = root_lb.copy(), root_ub.copy()
                up = rng.choice(self.N, self.N // 2 + 2, replace=False)
                lb[up] = 1.0
            else:  # widen back to the root box
                lb, ub = root_lb.copy(), root_ub.copy()
            got = handle.solve(lb, ub)
            ref = linprog(
                lp[0], A_ub=lp[1], b_ub=lp[2], A_eq=lp[3], b_eq=lp[4],
                bounds=list(zip(lb, ub)), method="highs",
            )
            want = linprog_status(ref)
            assert got.status is want
            if want is SolveStatus.OPTIMAL:
                assert got.objective == pytest.approx(ref.fun, abs=1e-7)
                assert np.all(got.x >= lb - 1e-7)
                assert np.all(got.x <= ub + 1e-7)
            seen[want] = seen.get(want, 0) + 1
        # The walk exercised both outcomes, many times over.
        assert seen.get(SolveStatus.OPTIMAL, 0) >= 50
        assert seen.get(SolveStatus.INFEASIBLE, 0) >= 50

    def test_iterations_are_per_run(self, lp):
        lb, ub = np.zeros(self.N), np.ones(self.N)
        handle = NodeLP(*lp, lb, ub)
        first = handle.solve(lb, ub)
        again = handle.solve(lb, ub)
        assert first.status is again.status is SolveStatus.OPTIMAL
        assert first.iterations > 0
        assert again.iterations < first.iterations
        assert again.objective == pytest.approx(first.objective, abs=1e-9)

    def test_cost_sweep_matches_fresh_solves(self, lp):
        rng = np.random.default_rng(11)
        lb, ub = np.zeros(self.N), np.ones(self.N)
        handle = NodeLP(np.zeros(self.N), *lp[1:], lb, ub)
        for _ in range(40):
            cost = rng.normal(size=self.N)
            for c in (cost, -cost):
                got = handle.minimize(c)
                ref = linprog(
                    c, A_ub=lp[1], b_ub=lp[2], A_eq=lp[3], b_eq=lp[4],
                    bounds=list(zip(lb, ub)), method="highs",
                )
                assert linprog_status(ref) is SolveStatus.OPTIMAL
                assert got.status is SolveStatus.OPTIMAL and got.x is None
                assert got.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_minimize_hot_starts(self, lp):
        lb, ub = np.zeros(self.N), np.ones(self.N)
        handle = NodeLP(np.zeros(self.N), *lp[1:], lb, ub)
        first = handle.minimize(lp[0])
        again = handle.minimize(lp[0])
        assert first.status is again.status is SolveStatus.OPTIMAL
        assert first.iterations > 0
        assert again.iterations < first.iterations
        assert again.objective == pytest.approx(first.objective, abs=1e-9)

    def test_unbounded_and_rowless(self):
        handle = NodeLP(
            np.array([-1.0, 1.0]), None, None, None, None,
            np.zeros(2), np.array([math.inf, 1.0]),
        )
        assert handle.solve(
            np.zeros(2), np.array([math.inf, 1.0])
        ).status is SolveStatus.UNBOUNDED
        res = handle.solve(np.zeros(2), np.array([4.0, 1.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-4.0)
        assert res.x == pytest.approx([4.0, 0.0])


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
