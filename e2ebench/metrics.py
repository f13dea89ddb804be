"""The benchmark's metrics, from pass results and spans.

End-to-end metrics come from an untraced run; per-layer metrics from the
spans of a traced pass (:mod:`tracing`), ``VerificationPool.stats()`` and
the campaign reports.  ``END_TO_END_UNITS`` and ``LAYER_UNITS`` name every
metric the benchmark prints.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.verifier import Verdict
from repro.proof.check import check_certificate

from workloads import RERUN_WORKERS

UNDECIDED = (Verdict.TIMEOUT, Verdict.ERROR)

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s", "wall_s": "s", "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS: Dict[str, str] = {
    "setup.data_s": "s", "setup.train_s": "s",
    "audit.calls": "count", "audit.s": "s",
    "bounds.calls": "count", "bounds.s": "s",
    "bounds.ambiguous_relus": "count",
    "static.calls": "count", "static.s": "s",
    "static.proved_frac": "ratio",
    "encode.calls": "count", "encode.s": "s", "encode.binaries": "count",
    "solve.calls": "count", "solve.s": "s", "solve.nodes": "count",
    "solve.lp_iterations": "count", "solve.ms_per_node": "ms",
    "proof.certificates": "count", "proof.check_s": "s",
    "proof.rejected": "count", "proof.certified_frac": "ratio",
    "campaign.self_s": "s", "campaign.max_query_s": "s",
    "campaign.slowest_cell_s": "s",
    "pool.busy_frac": "ratio", "pool.verdict_hit_rate": "ratio",
    "pool.bounds_hit_rate": "ratio", "pool.respawns": "count",
    "pool.jobs": "count", "pool.rerun_s": "s",
    "pool.changed_rerun_s": "s",
    "trace.overhead_frac": "ratio",
    "reference.milp_s": "s",
}


def layer_metrics(
    layers: Dict[str, Dict[str, float]], static_proofs: int
) -> Dict[str, float]:
    """The per-layer metric set from :meth:`Recorder.by_layer`."""

    def get(layer: str, key: str) -> float:
        return float(layers.get(layer, {}).get(key, 0.0))

    static_calls = get("static", "calls")
    nodes = get("solve", "nodes")
    return {
        "setup.data_s": get("setup.data", "s"),
        "setup.train_s": get("setup.train", "s"),
        "audit.calls": get("audit", "calls"),
        "audit.s": get("audit", "s"),
        "bounds.calls": get("bounds", "calls"),
        "bounds.s": get("bounds", "s"),
        "bounds.ambiguous_relus": get("bounds", "ambiguous_relus"),
        "static.calls": static_calls,
        "static.s": get("static", "s"),
        "static.proved_frac": (
            static_proofs / static_calls if static_calls else 0.0
        ),
        "encode.calls": get("encode", "calls"),
        "encode.s": get("encode", "s"),
        "encode.binaries": get("encode", "binaries"),
        "solve.calls": get("solve", "calls"),
        "solve.s": get("solve", "s"),
        "solve.nodes": nodes,
        "solve.lp_iterations": get("solve", "lp_iterations"),
        "solve.ms_per_node": (
            1000.0 * get("solve", "s") / nodes if nodes else 0.0
        ),
        "proof.certificates": get("proof", "calls"),
        "proof.check_s": get("proof", "s"),
        "proof.rejected": get("proof", "rejected"),
        "campaign.self_s": get("campaign", "s"),
    }


def decided_frac(passes) -> float:
    """Cold cells that are neither TIMEOUT nor ERROR, over cold cells."""
    cells = [c for p in passes for c in p.cold.cells]
    decided = sum(
        1 for c in cells
        if c.result.verdict not in UNDECIDED
    )
    return decided / len(cells)


def certified_frac(report) -> float:
    """Decided cells whose certificate the independent checker accepts."""
    decided = [
        c for c in report.cells
        if c.result.verdict not in UNDECIDED
    ]
    accepted = sum(
        1 for c in decided
        if c.result.certificate is not None
        and not check_certificate(c.result.certificate).has_errors
    )
    return accepted / len(decided) if decided else 0.0


def pool_metrics(p) -> Dict[str, float]:
    """Pool-layer numbers from ``VerificationPool.stats()`` and the report
    of the rerun that reaches the workers: the changed rerun when there
    is one, else the cached rerun."""
    if p.changed is not None:
        report, stats, wall = p.changed, p.changed_stats, p.changed_s
    else:
        report, stats, wall = p.rerun, p.rerun_stats, p.rerun_s
    changed = set(p.matrix.changed)
    busy = sum(
        c.result.wall_time for c in report.cells if c.network_id in changed
    )
    return {
        "pool.busy_frac": busy / (RERUN_WORKERS * wall),
        "pool.verdict_hit_rate": stats["verdict_cache.hit_rate"],
        "pool.bounds_hit_rate": stats["bounds_cache.hit_rate"],
        "pool.respawns": float(stats.get("pool.respawns", 0.0)),
        "pool.jobs": float(stats.get("pool.jobs", 0.0)),
        "pool.rerun_s": p.rerun_s,
        "pool.changed_rerun_s": p.changed_s,
    }


def campaign_metrics(report) -> Dict[str, float]:
    """Table II's time column and the hardest query of a cold report."""
    return {
        "campaign.max_query_s": sum(
            (c.result.wall_time for c in report.cells
             if c.property_name.startswith("mu_lat")),
            0.0,
        ),
        "campaign.slowest_cell_s": max(
            c.result.wall_time for c in report.cells
        ),
    }


def traced(
    recorder, mark: int, plain, traced_pass, book
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced run, and accounting problems.

    ``recorder`` holds the set-up spans and, from index ``mark``, the
    spans of ``traced_pass``; ``plain`` is the untraced pass of the same
    matrix.  The traced pass's self times must add up to its wall time.
    """
    problems: List[str] = []
    accounted = sum(
        entry["s"] for entry in recorder.by_layer(since=mark).values()
    )
    if abs(accounted - traced_pass.wall_s) > 0.01 * traced_pass.wall_s:
        problems.append(
            f"traced layers account for {accounted:.3f}s of a "
            f"{traced_pass.wall_s:.3f}s traced wall"
        )
    cold = traced_pass.cold
    static_proofs = sum(1 for c in cold.cells if c.result.solver == "static")
    values = layer_metrics(recorder.by_layer(), static_proofs)
    values.update(pool_metrics(traced_pass))
    values.update(campaign_metrics(cold))
    values["proof.certified_frac"] = certified_frac(cold)
    values["trace.overhead_frac"] = traced_pass.wall_s / plain.wall_s - 1.0
    values["reference.milp_s"] = book.milp_s(
        traced_pass.matrix.networks, traced_pass.matrix.queries
    )
    return values, problems
