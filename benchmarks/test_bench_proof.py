"""Proof-certificate benches: the certified Table II matrix.

Two claims back :mod:`repro.proof` (EXPERIMENTS.md "Proof
certificates"), both recorded into ``BENCH_proof.json``:

1. **certified matrix** — every PROVEN cell of the Table II decision
   campaign under ``--certify`` ships a ``repro-proof/1`` certificate,
   and an *independent* checker replay (static matrix arithmetic, no
   solver) accepts every one of them — at a threshold every network
   proves statically, and at one that sends two cells to the MILP;
2. **overhead** — emitting and re-checking the certificates costs at
   most 10 % of the uncertified campaign wall time (plus a small
   absolute allowance for timer noise at the reduced CI scale).

Everything is seeded, so the recorded numbers are deterministic at the
reduced scale CI runs.
"""

import time

import pytest

from repro import casestudy
from repro.proof.check import check_certificate
from repro.report import render_generic

from conftest import FULL_SCALE, TABLE_II_WIDTHS, TIME_LIMIT

#: Decision threshold of the certified campaign.  Generous on purpose:
#: every cell must come back PROVEN so the gate exercises the whole
#: matrix; the certificates still replay the full relaxation chain.
SAFE_THRESHOLD = 1000.0

#: A threshold every network still proves, but I4x8 component 0 and
#: I4x10 component 1 only through branch-and-bound, so the Farkas leaves
#: the node-LP engine prunes are replayed too.
MILP_THRESHOLD = 4.5

#: Gate 2: certified wall / uncertified wall, plus timer-noise slack.
MAX_OVERHEAD = 1.10
WALL_SLACK = 0.75  # seconds; reduced-scale cells finish in ~seconds


def run_campaign(study, family, certify, threshold=SAFE_THRESHOLD):
    campaign = casestudy.table_ii_campaign(
        study, family, time_limit=TIME_LIMIT,
        threshold=threshold, certify=certify,
    )
    t0 = time.monotonic()
    report = campaign.run()
    return report, time.monotonic() - t0


class TestCertifiedTableII:
    """Gate 1: the full matrix is certified and independently replayed."""

    @pytest.fixture(scope="class", params=[SAFE_THRESHOLD, MILP_THRESHOLD])
    def certified(self, request, study, family):
        report, wall = run_campaign(
            study, family, certify=True, threshold=request.param
        )
        return report, wall, request.param

    def test_every_proven_cell_is_certified(
        self, certified, bench_record, emit
    ):
        report, wall, threshold = certified
        rows = []
        replayed = 0
        decision = [
            cell for cell in report.cells
            if cell.property_name.startswith("leq_")
        ]
        assert len(decision) == len(report.cells) // 2  # one per max cell
        for cell in decision:
            assert cell.result.verdict.value == "verified", (
                f"{cell.network_id}/{cell.property_name}: expected the "
                f"safe threshold to prove, got {cell.result.verdict}"
            )
            cert = cell.result.certificate
            assert cert is not None, (
                f"{cell.network_id}/{cell.property_name} has no "
                "certificate"
            )
            # Independent replay — the bench does not trust the
            # emitter's own self-check.
            check = check_certificate(
                cert, subject=f"{cell.network_id}/{cell.property_name}"
            )
            assert not check.has_errors, check.render()
            replayed += 1
            rows.append([
                cell.network_id, cell.property_name, cert["kind"],
                f"{cell.result.wall_time:.2f}s",
            ])
        assert report.certified_cells == len(decision)
        if threshold == MILP_THRESHOLD:
            assert any(row[2] == "milp" for row in rows), (
                "no cell reached the MILP at the MILP threshold"
            )
        emit("\n" + render_generic(
            ["network", "query", "certificate", "wall"],
            rows,
            title=(
                f"Certified Table II ({replayed}/{len(decision)} "
                "witnesses replayed clean)"
            ),
        ))
        bench_record(
            "proof",
            "certified_table_ii" if threshold == SAFE_THRESHOLD
            else "certified_table_ii_milp",
            widths=list(TABLE_II_WIDTHS), cells=len(report.cells),
            certified=report.certified_cells, replayed=replayed,
            threshold=threshold, wall=wall,
        )


class TestCertifyOverhead:
    """Gate 2: emission + checking within 10 % of the uncertified wall."""

    def test_overhead_within_budget(self, study, family, bench_record,
                                    emit):
        # min-of-2 per configuration to shave scheduler noise.
        walls = {}
        for certify in (False, True):
            samples = []
            for _ in range(2):
                report, wall = run_campaign(study, family, certify)
                assert all(
                    cell.result.verdict.value == "verified"
                    for cell in report.cells
                    if cell.property_name.startswith("leq_")
                )
                samples.append(wall)
            walls[certify] = min(samples)
        overhead = walls[True] / walls[False] if walls[False] else 1.0
        emit(
            f"\ncertify overhead: {walls[False]:.2f}s uncertified vs "
            f"{walls[True]:.2f}s certified ({overhead:.3f}x, "
            f"gate {MAX_OVERHEAD:.2f}x)"
        )
        bench_record(
            "proof", "certify_overhead",
            widths=list(TABLE_II_WIDTHS),
            uncertified_wall=walls[False], certified_wall=walls[True],
            overhead=overhead, gate=MAX_OVERHEAD,
        )
        if not FULL_SCALE:
            assert walls[True] <= MAX_OVERHEAD * walls[False] + WALL_SLACK
