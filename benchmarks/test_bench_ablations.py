"""Ablation benches for the verifier's design choices (DESIGN.md Sec. 5).

1. bound tightening: LP-tightened vs plain interval bounds — binary count
   and end-to-end verification time;
2. reference agreement: the branch-and-bound optimum vs
   ``scipy.optimize.milp`` on the same encoding;
3. branching rule: most-fractional vs first-index vs random.
"""

import numpy as np
import pytest

from repro import casestudy
from repro.core.bounds import interval_bounds, lp_tightened_bounds, total_ambiguous
from repro.core.encoder import EncoderOptions
from repro.core.properties import OutputObjective
from repro.core.verifier import Verdict, Verifier
from repro.milp import MILPOptions
from repro.nn.mdn import mu_lat_indices
from repro.report import render_generic

from conftest import TABLE_II_WIDTHS, TIME_LIMIT


@pytest.fixture(scope="module")
def subject(study, family):
    """Smallest family member + its Table II region."""
    width = min(TABLE_II_WIDTHS)
    return family[width], casestudy.operational_region(study)


class TestBoundTighteningAblation:
    def test_lp_bounds_reduce_binaries(self, subject):
        network, region = subject
        loose = total_ambiguous(interval_bounds(network, region), network)
        tight = total_ambiguous(
            lp_tightened_bounds(network, region), network
        )
        print(f"\nambiguous ReLUs: interval={loose}, lp={tight}")
        assert tight <= loose

    def test_bound_engine_ordering(self, subject, emit):
        """interval ⊒ crown ⊒ lp in ambiguous-neuron count."""
        from repro.core.crown import crown_bounds

        network, region = subject
        counts = {
            "interval": total_ambiguous(
                interval_bounds(network, region), network
            ),
            "crown": total_ambiguous(
                crown_bounds(network, region), network
            ),
            "lp": total_ambiguous(
                lp_tightened_bounds(network, region), network
            ),
        }
        emit(f"\nambiguous ReLUs by bound engine: {counts}")
        assert counts["lp"] <= counts["crown"] <= counts["interval"]

    def test_bench_crown_bound_pass(self, benchmark, subject):
        from repro.core.crown import crown_bounds

        network, region = subject
        bounds = benchmark(crown_bounds, network, region)
        assert len(bounds) == len(network.layers)

    def test_same_answer_both_modes(self, subject, study):
        network, region = subject
        objective = OutputObjective.single(
            mu_lat_indices(study.config.num_components)[0]
        )
        values = {}
        for mode in ("interval", "lp"):
            verifier = Verifier(
                network,
                EncoderOptions(bound_mode=mode),
                MILPOptions(time_limit=TIME_LIMIT),
            )
            result = verifier.maximize(region, objective)
            if result.verdict is Verdict.MAX_FOUND:
                values[mode] = result.value
        if len(values) == 2:
            assert values["interval"] == pytest.approx(
                values["lp"], abs=1e-4
            )

    def test_bench_interval_bound_pass(self, benchmark, subject):
        network, region = subject
        bounds = benchmark(interval_bounds, network, region)
        assert len(bounds) == len(network.layers)

    def test_bench_lp_bound_pass(self, benchmark, subject):
        network, region = subject
        bounds = benchmark.pedantic(
            lp_tightened_bounds, args=(network, region),
            rounds=1, iterations=1,
        )
        assert len(bounds) == len(network.layers)


class TestReferenceMILPAgreement:
    def test_branch_and_bound_matches_scipy_milp(self, subject, study, emit):
        """B&B and scipy's HiGHS MIP agree on the I4x4 max query.

        Both solve the same encoding; the optima are compared as network
        values at each argmax, because ``dense_arrays()`` drops the
        objective constant.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        from repro.core.encoder import attach_objective, encode_network

        network, region = subject
        objective = OutputObjective.single(
            mu_lat_indices(study.config.num_components)[0]
        )
        options = EncoderOptions(bound_mode="lp")
        result = Verifier(
            network, options, MILPOptions(time_limit=TIME_LIMIT)
        ).maximize(region, objective)
        assert result.verdict is Verdict.MAX_FOUND

        encoded = encode_network(network, region, options)
        attach_objective(encoded, objective, maximize=True)
        c, a_ub, b_ub, a_eq, b_eq, bounds = encoded.model.dense_arrays()
        constraints = []
        if a_ub is not None:
            constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
        if a_eq is not None:
            constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
        integrality = np.zeros(len(c))
        integrality[encoded.model.integer_indices] = 1
        reference = milp(
            c, constraints=constraints, integrality=integrality,
            bounds=Bounds(*np.array(bounds, dtype=float).T),
            options={"time_limit": TIME_LIMIT},
        )
        assert reference.status == 0, reference.message
        witness = encoded.input_point(reference.x)
        reference_value = objective.value(network.forward(witness)[0])
        emit(
            f"\nI4x{min(TABLE_II_WIDTHS)} max: branch-and-bound "
            f"{result.network_value:.6f}, scipy milp {reference_value:.6f}"
        )
        assert result.network_value == pytest.approx(
            reference_value, abs=1e-4
        )


_BRANCHING_VALUES = {}


class TestBranchingAblation:
    @pytest.mark.parametrize(
        "rule", ["most_fractional", "first", "random"]
    )
    def test_rules_agree(self, subject, study, rule):
        network, region = subject
        objective = OutputObjective.single(
            mu_lat_indices(study.config.num_components)[0]
        )
        verifier = Verifier(
            network,
            EncoderOptions(bound_mode="lp"),
            MILPOptions(time_limit=TIME_LIMIT, branching=rule),
        )
        result = verifier.maximize(region, objective)
        assert result.verdict in (Verdict.MAX_FOUND, Verdict.TIMEOUT)
        if result.verdict is Verdict.MAX_FOUND:
            _BRANCHING_VALUES[rule] = result.value
            reference = next(iter(_BRANCHING_VALUES.values()))
            assert result.value == pytest.approx(reference, abs=1e-4)
