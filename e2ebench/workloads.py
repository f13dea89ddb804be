"""Workload inputs and the timed campaign passes.

Both workloads run the default-configuration verifier
(``bound_mode="lp"``, ``lp_backend="highs"``, a 60 s per-query budget)
on the reduced I4x{4,6,8,10} family trained exactly as
``benchmarks/conftest.py`` trains it, so every answer that does not depend
on the workload seed is identical across seeds.

One *pass* is a cold serial campaign over the workload's matrix that
writes both caches (bounds and verdicts) into a fresh cache directory.
Then fresh ``VerificationPool(workers=2)`` instances on that directory
rerun the matrix: ``RERUNS`` times unchanged, where the JSONL spills are
reloaded and every cell is a verdict-cache hit, and once with a changed
network (``table2``), whose cells miss the cache and go to the workers.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np
from scipy.stats import qmc

from repro import casestudy
from repro.core.campaign import (
    CampaignQuery,
    CampaignReport,
    VerificationCampaign,
)
from repro.core.encoder import EncoderOptions
from repro.core.pool import VerificationPool
from repro.core.properties import InputRegion, component_lateral_objectives
from repro.highway import DatasetSpec
from repro.milp import MILPOptions
from repro.nn.network import FeedForwardNetwork
from repro.nn.training import TrainingConfig

WIDTHS = (4, 6, 8, 10)
TIME_LIMIT = 60.0
#: The paper's threshold, and one that reaches the MILP on I4x8
#: component 0 and I4x10 component 1 and proves there.
TABLE2_THRESHOLDS = (3.0, 4.5)
EPS_THRESHOLD = 1.0
EPS_FRACTION = 0.05
#: A power of two, as the Sobol sequence wants.
EPS_BOXES = 16
RERUN_WORKERS = 2
#: Cached reruns per pass; ``PassResult.rerun_s`` is their median.
RERUNS = 15
#: The network the ``table2`` changed rerun replaces with one retrained
#: under the workload seed.  The smallest keeps the rerun's cold cells
#: cheap, so its time is mostly cache reload, fingerprinting and dispatch.
RETRAINED_WIDTH = 4

ENCODER = EncoderOptions(bound_mode="lp")
MILP = MILPOptions(time_limit=TIME_LIMIT, lp_backend="highs")


def study_config() -> casestudy.CaseStudyConfig:
    """The case-study configuration of ``benchmarks/conftest.py``."""
    return casestudy.CaseStudyConfig(
        num_components=2,
        dataset=DatasetSpec(episodes=8, steps_per_episode=300, seed=42),
        training=TrainingConfig(
            epochs=60, learning_rate=1e-3, weight_decay=1.0
        ),
    )


@dataclasses.dataclass
class Matrix:
    """The networks and queries of one workload.

    ``rerun_networks`` is the family the changed rerun verifies; a
    network that differs from ``networks`` must miss the verdict cache.
    """

    networks: Dict[str, FeedForwardNetwork]
    rerun_networks: Dict[str, FeedForwardNetwork]
    queries: List[CampaignQuery]

    @property
    def changed(self) -> List[str]:
        return [
            name for name, network in self.rerun_networks.items()
            if network is not self.networks[name]
        ]


def named(
    family: Dict[int, FeedForwardNetwork]
) -> Dict[str, FeedForwardNetwork]:
    """The family keyed by architecture id (``I4x8``), in width order."""
    return {family[w].architecture_id: family[w] for w in sorted(family)}


def table2_queries(region: InputRegion) -> List[CampaignQuery]:
    """Table II: per component, the max query and two decision queries."""
    queries = []
    for k, objective in enumerate(component_lateral_objectives(2)):
        queries.append(CampaignQuery(
            f"mu_lat_comp{k}", region, objective, kind="max",
        ))
        for threshold in TABLE2_THRESHOLDS:
            queries.append(CampaignQuery(
                f"leq_{threshold}_comp{k}", region, objective,
                kind="prove", threshold=threshold,
            ))
    return queries


def eps_boxes(
    region: InputRegion, rng: np.random.Generator, count: int
) -> List[InputRegion]:
    """ε-boxes around ``count`` centres drawn from ``region``.

    The centres are a Sobol sequence scrambled by ``rng``: each draw
    covers the region evenly, so how many boxes land where the networks
    are hard varies less from seed to seed than with independent draws.
    ε is ``EPS_FRACTION`` of each feature's operational span; boxes are
    clipped to the region, so pinned features stay pinned.
    """
    lo, hi = region.bounds[:, 0], region.bounds[:, 1]
    eps = EPS_FRACTION * (hi - lo)
    unit = qmc.Sobol(d=region.dim, scramble=True, seed=rng).random(count)
    boxes = []
    for b, centre in enumerate(lo + unit * (hi - lo)):
        bounds = np.stack(
            [np.maximum(centre - eps, lo), np.minimum(centre + eps, hi)],
            axis=1,
        )
        boxes.append(InputRegion(bounds, name=f"eps{b}"))
    return boxes


def eps_queries(boxes: List[InputRegion]) -> List[CampaignQuery]:
    return [
        CampaignQuery(
            f"{box.name}_comp{k}", box, objective,
            kind="prove", threshold=EPS_THRESHOLD,
        )
        for box in boxes
        for k, objective in enumerate(component_lateral_objectives(2))
    ]


def campaign(
    networks: Dict[str, FeedForwardNetwork], queries: List[CampaignQuery]
) -> VerificationCampaign:
    built = VerificationCampaign(ENCODER, MILP)
    for name, network in networks.items():
        built.add_network(network, name=name)
    for query in queries:
        built.add_query(query)
    return built


@dataclasses.dataclass
class PassResult:
    matrix: Matrix
    wall_s: float
    rerun_s: float
    cold: CampaignReport
    #: The first cached rerun and its pool's ``stats()``.
    rerun: CampaignReport
    rerun_stats: Dict[str, float]
    #: The rerun with the changed network (``None`` when nothing changed)
    #: and its pool's ``stats()`` and wall time.
    changed: Optional[CampaignReport] = None
    changed_stats: Optional[Dict[str, float]] = None
    changed_s: float = 0.0


def _pooled_run(
    networks: Dict[str, FeedForwardNetwork],
    queries: List[CampaignQuery],
    cache_dir: str,
    prewarm: bool,
):
    """A fresh pool on ``cache_dir`` runs the matrix once.

    Workers spawn lazily, so a rerun served wholly from the verdict cache
    forks none unless ``prewarm`` asks for them up front.
    """
    start = time.perf_counter()
    with VerificationPool(
        workers=RERUN_WORKERS, cache_dir=cache_dir, prewarm=prewarm
    ) as pool:
        report = campaign(networks, queries).run(pool=pool)
        stats = pool.stats()
    return time.perf_counter() - start, report, stats


def run_pass(
    matrix: Matrix, workdir: str, around_cold=None
) -> PassResult:
    """One cold serial pass, its cached reruns, and the changed rerun.

    ``around_cold`` is an optional context-manager factory entered just
    around the cold campaign (the traced run installs its spans there).
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        cold_campaign = campaign(matrix.networks, matrix.queries)
        # A pool that only carries the durable caches: the serial run
        # never dispatches to it, so it spawns no worker.
        holder = VerificationPool(workers=1, cache_dir=cache_dir)
        try:
            start = time.perf_counter()
            if around_cold is None:
                cold = cold_campaign.run(jobs=1, pool=holder)
            else:
                with around_cold():
                    cold = cold_campaign.run(jobs=1, pool=holder)
            wall = time.perf_counter() - start
        finally:
            holder.shutdown()

        # Every cell hits, so the cache directory stays as the cold pass
        # wrote it and each rerun repeats the same work.
        reruns = [
            _pooled_run(matrix.networks, matrix.queries, cache_dir, False)
            for _ in range(RERUNS)
        ]
        result = PassResult(
            matrix, wall, statistics.median(r[0] for r in reruns), cold,
            reruns[0][1], reruns[0][2],
        )
        if matrix.changed:
            result.changed_s, result.changed, result.changed_stats = (
                _pooled_run(
                    matrix.rerun_networks, matrix.queries, cache_dir, True
                )
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def run_passes(
    matrix_for_pass, workdir: str, seconds: float
) -> List[PassResult]:
    """Passes while another one still fits in ``seconds`` (at least one).

    ``matrix_for_pass(i)`` gives pass ``i``'s matrix.
    """
    results: List[PassResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_pass(matrix_for_pass(len(results)), workdir))
        spent = time.perf_counter() - t0
        if time.perf_counter() - start + spent > seconds:
            return results


@dataclasses.dataclass
class Setup:
    family: Dict[int, FeedForwardNetwork]
    region: InputRegion
    retrained: Optional[FeedForwardNetwork]
    setup_s: float


def set_up(retrain_seed: Optional[int]) -> Setup:
    """Generate and sanitise the data, train the family and, for a
    ``retrain_seed``, one more I4x``RETRAINED_WIDTH`` under that seed."""
    start = time.perf_counter()
    study = casestudy.prepare_case_study(study_config())
    family = casestudy.train_family(study, WIDTHS)
    retrained = None
    if retrain_seed is not None:
        # Seeds 0..3 train the family; keep the retrained seed clear.
        retrained = casestudy.train_predictor(
            study, RETRAINED_WIDTH, seed=len(WIDTHS) + retrain_seed
        )
    return Setup(
        family, casestudy.operational_region(study), retrained,
        time.perf_counter() - start,
    )


def matrix_factory(workload: str, setup: Setup, seed: int):
    """``pass index -> Matrix`` for ``workload`` (``table2`` or
    ``eps-local``)."""
    family = named(setup.family)
    if workload == "table2":
        rerun = dict(family)
        rerun[setup.retrained.architecture_id] = setup.retrained
        queries = table2_queries(setup.region)
        return lambda i: Matrix(family, rerun, queries)

    def eps(i: int):
        rng = np.random.default_rng([seed, i])
        boxes = eps_boxes(setup.region, rng, EPS_BOXES)
        return Matrix(family, family, eps_queries(boxes))

    return eps
