"""Verifier tests: max queries, decision queries, Table II plumbing."""

import math

import numpy as np
import pytest

from repro.core.encoder import EncoderOptions, compute_bounds
from repro.core.properties import (
    InputRegion,
    OutputObjective,
    SafetyProperty,
    vehicle_on_left_region,
)
from repro.core.verifier import TableIIRow, Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn import FeedForwardNetwork


def unit_region(dim):
    return InputRegion(np.array([[-1.0, 1.0]] * dim))


@pytest.fixture(scope="module")
def verifier():
    net = FeedForwardNetwork.mlp(
        6, [8, 8], 3, rng=np.random.default_rng(7)
    )
    return Verifier(
        net,
        EncoderOptions(bound_mode="lp"),
        MILPOptions(time_limit=60.0),
    )


class TestMaxQueries:
    def test_max_found_and_replayed(self, verifier):
        result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        assert result.verdict is Verdict.MAX_FOUND
        assert result.value == pytest.approx(
            result.network_value, abs=1e-4
        )
        assert result.counterexample is not None
        assert result.wall_time > 0
        assert result.nodes >= 0

    def test_max_dominates_sampling(self, verifier, rng):
        result = verifier.maximize(
            unit_region(6), OutputObjective.single(1)
        )
        xs = rng.uniform(-1, 1, size=(5000, 6))
        sampled = verifier.network.forward(xs)[:, 1].max()
        assert result.value >= sampled - 1e-6

    def test_timeout_reported(self):
        net = FeedForwardNetwork.mlp(
            8, [14, 14, 14], 2, rng=np.random.default_rng(0)
        )
        v = Verifier(
            net,
            EncoderOptions(bound_mode="interval"),
            MILPOptions(time_limit=0.0),
        )
        result = v.maximize(unit_region(8), OutputObjective.single(0))
        assert result.verdict is Verdict.TIMEOUT

    def test_infeasible_region_raises_by_default(self, verifier):
        from repro.core.properties import LinearInputConstraint
        from repro.errors import EncodingError

        region = unit_region(6)
        constraint = LinearInputConstraint({}, rhs=-2.0)
        constraint.as_indexed = lambda: ({0: 1.0}, -2.0)
        region.add_constraint(constraint)
        with pytest.raises(EncodingError):
            verifier.maximize(region, OutputObjective.single(0))

    def test_infeasible_region_degrades_to_error(self, verifier):
        from repro.core.properties import LinearInputConstraint

        region = unit_region(6)
        constraint = LinearInputConstraint({}, rhs=-2.0)
        constraint.as_indexed = lambda: ({0: 1.0}, -2.0)
        region.add_constraint(constraint)
        result = verifier.maximize(
            region,
            OutputObjective.single(0),
            raise_on_infeasible=False,
        )
        assert result.verdict is Verdict.ERROR
        assert "infeasible" in result.description



class TestDecisionQueries:
    def test_property_above_max_verifies(self, verifier):
        max_result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        prop = SafetyProperty(
            name="bounded",
            region=unit_region(6),
            objective=OutputObjective.single(0),
            threshold=max_result.value + 0.5,
        )
        result = verifier.prove(prop)
        assert result.verdict is Verdict.VERIFIED

    def test_property_below_max_falsified_with_witness(self, verifier):
        max_result = verifier.maximize(
            unit_region(6), OutputObjective.single(0)
        )
        prop = SafetyProperty(
            name="too_tight",
            region=unit_region(6),
            objective=OutputObjective.single(0),
            threshold=max_result.value - 0.2,
        )
        result = verifier.prove(prop)
        assert result.verdict is Verdict.FALSIFIED
        assert result.counterexample is not None
        # The witness genuinely violates the property on the real net.
        outputs = verifier.network.forward(result.counterexample)[0]
        assert not prop.holds_on(outputs, tol=1e-4)


class TestNodeLPFailure:
    """A node LP HiGHS fails to solve must never be pruned as infeasible.

    The persistent node-LP handle solves the root normally; every later
    run reports a HiGHS model status that decides nothing (a solve
    error, "unbounded or infeasible", an iteration limit).  Nothing
    below the root is decided, so the search may neither prove the
    property nor claim an optimum.
    """

    THRESHOLD = 0.264  # the true maximum is 0.564

    @pytest.fixture(params=[
        "kSolveError", "kUnboundedOrInfeasible", "kIterationLimit",
    ])
    def failing_node_lps(self, request, monkeypatch):
        from scipy.optimize._highspy._core import HighsModelStatus

        from repro.milp import scipy_backend

        real = scipy_backend._Highs
        injected = HighsModelStatus.__members__[request.param]
        runs = []

        class FailingHighs:
            def __init__(self):
                self._highs = real()

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def run(self):
                runs.append(None)
                return self._highs.run()

            def getModelStatus(self):
                if len(runs) == 1:
                    return self._highs.getModelStatus()
                return injected

        monkeypatch.setattr(scipy_backend, "_Highs", FailingHighs)
        return runs

    @pytest.fixture(scope="class")
    def setup(self):
        net = FeedForwardNetwork.mlp(
            2, [6, 6], 1, rng=np.random.default_rng(3)
        )
        region = InputRegion(np.array([[-2.0, 2.0]] * 2))
        options = EncoderOptions(bound_mode="lp")
        bounds = compute_bounds(net, region, options)
        return Verifier(net, options, MILPOptions()), region, bounds

    def test_true_max_above_threshold(self, setup):
        verifier, region, bounds = setup
        result = verifier.maximize(
            region, OutputObjective.single(0), precomputed_bounds=bounds
        )
        assert result.verdict is Verdict.MAX_FOUND
        assert result.value > self.THRESHOLD + 0.2

    def test_decision_query_never_verified(self, setup, failing_node_lps):
        verifier, region, bounds = setup
        result = verifier.prove(SafetyProperty(
            name="leq", region=region,
            objective=OutputObjective.single(0), threshold=self.THRESHOLD,
        ), precomputed_bounds=bounds)
        assert len(failing_node_lps) > 1  # the search reached the nodes
        assert result.verdict in (Verdict.ERROR, Verdict.FALSIFIED)

    def test_max_query_never_max_found(self, setup, failing_node_lps):
        verifier, region, bounds = setup
        result = verifier.maximize(
            region, OutputObjective.single(0), precomputed_bounds=bounds
        )
        assert len(failing_node_lps) > 1
        assert result.verdict is Verdict.ERROR
        assert result.metrics["lp_failures"] >= 1


class TestCaseStudyQueries:
    def test_max_lateral_velocity(self, small_study, small_predictor):
        region = vehicle_on_left_region(small_study.encoder)
        verifier = Verifier(
            small_predictor,
            EncoderOptions(bound_mode="lp"),
            MILPOptions(time_limit=120.0),
        )
        result = verifier.max_lateral_velocity(region, 2)
        assert result.verdict in (Verdict.MAX_FOUND, Verdict.TIMEOUT)
        if result.verdict is Verdict.MAX_FOUND:
            # Sound upper bound on anything sampling can find.
            samples = region.sample(np.random.default_rng(0), 100)
            outs = small_predictor.forward(samples)
            from repro.nn.mdn import mu_lat_indices

            sampled = outs[:, mu_lat_indices(2)].max()
            assert result.value >= sampled - 1e-6

    def test_ambiguity_report(self, small_study, small_predictor):
        region = vehicle_on_left_region(small_study.encoder)
        verifier = Verifier(
            small_predictor, EncoderOptions(bound_mode="lp")
        )
        ambiguous = verifier.ambiguity_report(region)
        assert 0 <= ambiguous <= small_predictor.relu_neuron_count()


class TestTableIIRow:
    def test_render_value(self):
        row = TableIIRow("I4x10", 0.688497, 5.4, False)
        text = row.render()
        assert "I4x10" in text
        assert "0.688497" in text
        assert "5.4s" in text

    def test_render_timeout(self):
        row = TableIIRow("I4x60", None, 3600.0, True)
        text = row.render()
        assert "n.a." in text
        assert "time-out" in text
