"""Correctness oracle: every verdict is checked against references that
do not use ``repro.milp``.

* The exact optimum of a (network, region, objective) comes from
  ``scipy.optimize.milp`` (scipy's bundled HiGHS MIP) on the dense arrays
  of an *interval*-bound encoding, so neither the repository's branch and
  bound nor its LP/symbolic bound engines are trusted.  The argmax is
  replayed through ``network.forward`` and compared as a network value,
  because ``Model.dense_arrays()`` drops the objective constant.
* A VERIFIED decision is usually settled by a cheaper sound bound: the LP
  relaxation of a big-M encoding built here.
* A FALSIFIED decision is settled by its witness alone.
* A seeded sample of region points, each evaluated by
  ``network.forward``, needs no encoder at all.

Every check returns a list of problems; an empty list means the answers
are right.  :func:`self_test` feeds the checks deliberately wrong answers
and requires each to be rejected with its specific message.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.campaign import CampaignCell, CampaignQuery, CampaignReport
from repro.core.encoder import EncoderOptions, attach_objective, encode_network
from repro.core.properties import InputRegion, OutputObjective
from repro.core.verifier import Verdict
from repro.nn.network import FeedForwardNetwork

#: Max-query optima may differ by the two solvers' gap tolerances.
VALUE_TOL = 1e-3
#: A witness must reach the threshold up to the verifier's replay slack.
WITNESS_TOL = 1e-4
REGION_TOL = 1e-6
SAMPLES = 2048
#: Keeps a run inside its time limit even if a reference MILP stalls.
REFERENCE_TIME_LIMIT = 60.0


def _key(network: FeedForwardNetwork, query: CampaignQuery) -> str:
    digest = hashlib.sha256()
    digest.update(network.fingerprint().encode())
    digest.update(query.region.fingerprint().encode())
    for idx in sorted(query.objective.coefficients):
        digest.update(f"{idx}:{query.objective.coefficients[idx]!r};".encode())
    return digest.hexdigest()


def _encoder_problem(network, region, objective):
    """``milp`` arguments from the repository encoder's dense arrays.

    Interval bounds keep the LP/symbolic bound engines out of it.
    """
    encoded = encode_network(
        network, region, EncoderOptions(bound_mode="interval")
    )
    attach_objective(encoded, objective, maximize=True)
    c, a_ub, b_ub, a_eq, b_eq, bounds = encoded.model.dense_arrays()
    constraints = []
    if a_ub is not None:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq is not None:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    integrality = np.zeros(len(c))
    integrality[[var.index for var in encoded.binaries]] = 1
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]
    return (
        dict(c=c, constraints=constraints, integrality=integrality,
             bounds=Bounds(lower, upper)),
        encoded.input_point,
    )


def _plain_problem(network, region, objective):
    """``milp`` arguments from a textbook big-M encoding built here.

    One column per input, per hidden ReLU output and per unstable ReLU's
    indicator; pre-activation bounds by interval arithmetic.
    """
    lo = region.bounds[:, 0].astype(float)
    hi = region.bounds[:, 1].astype(float)
    col_lo, col_hi = list(lo), list(hi)
    integrality = [0] * len(lo)
    rows, row_lo, row_hi = [], [], []
    prev, low, high = list(range(len(lo))), lo, hi
    for layer in network.layers[:-1]:
        w, b = layer.weights.T, layer.bias
        pos, neg = np.clip(w, 0, None), np.clip(w, None, 0)
        z_lo = pos @ low + neg @ high + b
        z_hi = pos @ high + neg @ low + b
        current = []
        for j in range(len(b)):
            y = len(col_lo)
            col_lo.append(0.0)
            col_hi.append(max(z_hi[j], 0.0))
            integrality.append(0)
            current.append(y)
            minus_z = {prev[k]: -w[j, k] for k in range(len(prev))}
            if z_lo[j] >= 0:  # active: y = z
                rows.append({**minus_z, y: 1.0})
                row_lo.append(b[j])
                row_hi.append(b[j])
            elif z_hi[j] > 0:  # unstable: y >= z, y <= z - l(1-d), y <= u d
                d = len(col_lo)
                col_lo.append(0.0)
                col_hi.append(1.0)
                integrality.append(1)
                rows += [
                    {**minus_z, y: 1.0},
                    {**minus_z, y: 1.0, d: -z_lo[j]},
                    {y: 1.0, d: -z_hi[j]},
                ]
                row_lo += [b[j], -np.inf, -np.inf]
                row_hi += [np.inf, b[j] - z_lo[j], 0.0]
        prev, low, high = current, np.maximum(z_lo, 0), np.maximum(z_hi, 0)
    out = network.layers[-1].weights.T
    c = np.zeros(len(col_lo))
    for i, coef in objective.coefficients.items():
        c[prev] -= coef * out[i]
    a = np.zeros((len(rows), len(col_lo)))
    for r, row in enumerate(rows):
        for col, value in row.items():
            a[r, col] = value
    n_inputs = len(lo)
    return (
        dict(c=c, constraints=[LinearConstraint(a, row_lo, row_hi)],
             integrality=np.array(integrality),
             bounds=Bounds(col_lo, col_hi)),
        lambda x: np.asarray(x[:n_inputs]),
    )


def reference_max(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
) -> Tuple[float, float]:
    """``(value, seconds)``: the network value at the scipy-MIP argmax.

    HiGHS rejects a few of the encoder's compact models with a solve
    error; those are solved on the plain encoding instead.
    """
    for build in (_encoder_problem, _plain_problem):
        problem, input_point = build(network, region, objective)
        start = time.perf_counter()
        result = milp(**problem, options={
            "mip_rel_gap": 1e-9, "time_limit": REFERENCE_TIME_LIMIT,
        })
        seconds = time.perf_counter() - start
        if result.status == 0:
            witness = input_point(result.x)
            return objective.value(network.forward(witness)[0]), seconds
    raise RuntimeError(
        f"reference MILP on {network.architecture_id} over "
        f"{region.name!r} did not solve: {result.message}"
    )


def relaxed_max(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
) -> float:
    """A sound upper bound on the maximum: the plain encoding's LP
    relaxation (``inf`` when the LP does not solve)."""
    problem, _ = _plain_problem(network, region, objective)
    problem["integrality"] = np.zeros_like(problem["integrality"])
    result = milp(**problem)
    if result.status != 0:
        return math.inf
    bias = network.layers[-1].bias
    return -result.fun + sum(
        coef * bias[i] for i, coef in objective.coefficients.items()
    )


def sample_max(
    network: FeedForwardNetwork,
    region: InputRegion,
    objective: OutputObjective,
    rng: np.random.Generator,
) -> float:
    points = rng.uniform(
        region.bounds[:, 0], region.bounds[:, 1],
        size=(SAMPLES, region.dim),
    )
    outputs = network.forward(points)
    coeffs = objective.coefficients
    return float(np.max(sum(c * outputs[:, i] for i, c in coeffs.items())))


class ReferenceBook:
    """Reference answers for one workload seed.

    Exact scipy-MIP optima are memoised on disk, keyed by a hash of the
    network parameters, region geometry and objective, so an entry can
    never be served for a different query.  LP-relaxation bounds and the
    region samples (drawn from ``sample_seed`` and the key) live in
    memory.
    """

    def __init__(self, path: str, sample_seed: int) -> None:
        self.path = path
        self.sample_seed = sample_seed
        self._optima: Dict[str, dict] = {}
        self._relaxed: Dict[str, float] = {}
        self._samples: Dict[str, float] = {}
        self._dirty = False
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self._optima = json.load(fh)

    def optimum(
        self, network: FeedForwardNetwork, query: CampaignQuery
    ) -> float:
        """The network value at the scipy-MIP argmax."""
        key = _key(network, query)
        if key not in self._optima:
            value, seconds = reference_max(
                network, query.region, query.objective
            )
            self._optima[key] = {"value": value, "milp_s": seconds}
            self._dirty = True
        return self._optima[key]["value"]

    def relaxed(
        self, network: FeedForwardNetwork, query: CampaignQuery
    ) -> float:
        key = _key(network, query)
        if key not in self._relaxed:
            self._relaxed[key] = relaxed_max(
                network, query.region, query.objective
            )
        return self._relaxed[key]

    def sample_max(
        self, network: FeedForwardNetwork, query: CampaignQuery
    ) -> float:
        key = _key(network, query)
        if key not in self._samples:
            rng = np.random.default_rng(
                [self.sample_seed, int(key[:8], 16)]
            )
            self._samples[key] = sample_max(
                network, query.region, query.objective, rng
            )
        return self._samples[key]

    def milp_s(
        self,
        networks: Dict[str, FeedForwardNetwork],
        queries: Sequence[CampaignQuery],
    ) -> float:
        """Summed scipy-MIP time of the matrix's distinct exact references
        (those the checks needed)."""
        keys = {
            _key(network, query)
            for network in networks.values() for query in queries
        }
        return sum(
            self._optima[key]["milp_s"] for key in keys if key in self._optima
        )

    def save(self) -> None:
        if not self._dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._optima, fh)
        os.replace(tmp, self.path)
        self._dirty = False


def check_cell(
    cell: CampaignCell,
    network: FeedForwardNetwork,
    query: CampaignQuery,
    book: ReferenceBook,
) -> List[str]:
    """Problems with one cell's answer (empty when it is right)."""
    where = f"{cell.network_id}/{cell.property_name}"
    result = cell.result
    problems: List[str] = []

    def check_witness(x, claimed: float) -> None:
        if x is None:
            problems.append(f"{where}: {result.verdict.value} without a witness")
            return
        x = np.asarray(x, dtype=float)
        if not query.region.contains(x, tol=REGION_TOL):
            problems.append(f"{where}: witness lies outside its region")
        replayed = query.objective.value(network.forward(x)[0])
        if abs(replayed - claimed) > VALUE_TOL:
            problems.append(
                f"{where}: witness replays to {replayed:.6f}, "
                f"reported {claimed:.6f}"
            )

    if query.kind == "max":
        if result.verdict is not Verdict.MAX_FOUND:
            return [f"{where}: {result.verdict.value}, expected max_found"]
        value = result.network_value
        reference = book.optimum(network, query)
        if abs(value - reference) > VALUE_TOL:
            problems.append(
                f"{where}: max {value:.6f} differs from the reference "
                f"optimum {reference:.6f}"
            )
        best = book.sample_max(network, query)
        if value < best - VALUE_TOL:
            problems.append(
                f"{where}: max {value:.6f} is below a sampled point's "
                f"value {best:.6f}"
            )
        check_witness(result.counterexample, value)
        return problems

    threshold = query.threshold
    if result.verdict is Verdict.FALSIFIED:
        # The witness alone proves a falsification.
        check_witness(result.counterexample, result.network_value)
        if result.network_value < threshold - WITNESS_TOL:
            problems.append(
                f"{where}: falsified by a witness worth "
                f"{result.network_value:.6f} < {threshold}"
            )
        return problems
    if result.verdict is not Verdict.VERIFIED:
        return [f"{where}: {result.verdict.value}, expected a verdict"]
    best = book.sample_max(network, query)
    if best >= threshold:
        problems.append(
            f"{where}: verified, but a sampled point reaches "
            f"{best:.6f} >= {threshold}"
        )
    # The LP relaxation settles most proofs, with a margin for the LP
    # solver's tolerances; the exact optimum settles the rest.
    if book.relaxed(network, query) >= threshold - VALUE_TOL:
        reference = book.optimum(network, query)
        if reference >= threshold:
            problems.append(
                f"{where}: verified, but the reference max "
                f"{reference:.6f} reaches the threshold {threshold}"
            )
    return problems


def check_report(
    report: CampaignReport,
    networks: Dict[str, FeedForwardNetwork],
    queries: Sequence[CampaignQuery],
    book: ReferenceBook,
) -> List[str]:
    """Every cell of ``report`` against the references; all cells present."""
    by_name = {q.name: q for q in queries}
    problems: List[str] = []
    seen = set()
    for cell in report.cells:
        seen.add((cell.network_id, cell.property_name))
        network = networks[cell.network_id]
        query = by_name[cell.property_name]
        problems += check_cell(cell, network, query, book)
    missing = len(networks) * len(queries) - len(seen)
    if missing:
        problems.append(f"{missing} cells missing from the report")
    return problems


def answer(cell: CampaignCell) -> Tuple[str, Optional[float]]:
    value = cell.result.network_value
    return cell.result.verdict.value, (
        None if math.isnan(value) else round(value, 9)
    )


def check_rerun(
    cold: CampaignReport,
    rerun: CampaignReport,
    changed: Sequence[str],
    verdict_hits: float,
) -> List[str]:
    """The rerun must give the cold pass's answers for unchanged
    networks, and its verdict-cache hits may only come from them."""
    problems: List[str] = []
    cold_answers = {
        (c.network_id, c.property_name): answer(c) for c in cold.cells
    }
    unchanged = 0
    for cell in rerun.cells:
        if cell.network_id in changed:
            continue
        unchanged += 1
        key = (cell.network_id, cell.property_name)
        if answer(cell) != cold_answers.get(key):
            problems.append(
                f"{key[0]}/{key[1]}: rerun answered {answer(cell)}, "
                f"cold pass {cold_answers.get(key)}"
            )
    if verdict_hits > unchanged:
        problems.append(
            f"rerun served {int(verdict_hits)} verdict-cache hits but "
            f"only {unchanged} cells belong to unchanged networks"
        )
    return problems


def check_pass(p, book) -> List[str]:
    """Every check on one ``workloads.PassResult``."""
    m = p.matrix
    problems = check_report(p.cold, m.networks, m.queries, book)
    problems += check_rerun(
        p.cold, p.rerun, [], p.rerun_stats["verdict_cache.hits"]
    )
    if p.changed is not None:
        problems += check_report(
            p.changed, m.rerun_networks, m.queries, book
        )
        problems += check_rerun(
            p.cold, p.changed, m.changed,
            p.changed_stats["verdict_cache.hits"],
        )
    return problems


def cell_counts(p, problems: List[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` cells of one pass: failed cells are
    undecided or named by a problem."""
    named = {problem.split(":", 1)[0] for problem in problems}
    attempted = failed = 0
    for report in (p.cold, p.rerun, p.changed):
        if report is None:
            continue
        for cell in report.cells:
            attempted += 1
            if cell.result.verdict in (Verdict.TIMEOUT, Verdict.ERROR) or (
                f"{cell.network_id}/{cell.property_name}" in named
            ):
                failed += 1
    return attempted, failed


# -- self-test -----------------------------------------------------------------

def _mutated(
    report: CampaignReport, pick, change
) -> Optional[CampaignReport]:
    """A deep copy of ``report`` with ``change`` applied to the first
    cell ``pick`` accepts (``None`` when no cell qualifies)."""
    clone = copy.deepcopy(report)
    for cell in clone.cells:
        if pick(cell):
            change(cell)
            return clone
    return None


def self_test(
    cold: CampaignReport,
    matrix,
    book: ReferenceBook,
    changed: Optional[CampaignReport] = None,
    changed_hits: float = 0.0,
) -> List[str]:
    """Feed the oracle wrong answers; returns the ones it did not reject
    with the expected message.

    Mutations of the cold pass: a max value shifted by 1e-2, a
    VERIFIED<->FALSIFIED flip and a witness moved outside its region.
    Mutation of ``changed`` (the rerun of ``matrix.rerun_networks``): the
    changed networks' cells served from the cold pass, as a cache keyed
    on anything but network content would.  A mutation the workload has
    no cell for (no max query, no changed network) is skipped.
    """
    flip = {Verdict.VERIFIED: Verdict.FALSIFIED,
            Verdict.FALSIFIED: Verdict.VERIFIED}
    by_name = {q.name: q for q in matrix.queries}

    def shift(cell):
        cell.result = dataclasses.replace(
            cell.result,
            value=cell.result.value + 1e-2,
            network_value=cell.result.network_value + 1e-2,
        )

    def do_flip(cell):
        cell.result = dataclasses.replace(
            cell.result, verdict=flip[cell.result.verdict]
        )

    def outside(cell):
        region = by_name[cell.property_name].region
        x = np.array(cell.result.counterexample, dtype=float)
        dim = int(np.argmax(region.widths()))
        x[dim] = region.bounds[dim, 1] + 1.0
        cell.result = dataclasses.replace(cell.result, counterexample=x)

    cases = [
        ("max value shifted by 1e-2", "differs from the reference",
         lambda c: c.result.verdict is Verdict.MAX_FOUND, shift),
        ("VERIFIED flipped to FALSIFIED", "without a witness",
         lambda c: c.result.verdict is Verdict.VERIFIED, do_flip),
        ("FALSIFIED flipped to VERIFIED", "reaches",
         lambda c: c.result.verdict is Verdict.FALSIFIED, do_flip),
        ("witness outside its region", "outside its region",
         lambda c: c.result.counterexample is not None, outside),
    ]
    missed: List[str] = []
    for label, expected, pick, change in cases:
        wrong = _mutated(cold, pick, change)
        if wrong is None:
            continue
        problems = check_report(
            wrong, matrix.networks, matrix.queries, book
        )
        if not any(expected in problem for problem in problems):
            missed.append(label)

    if changed is not None and matrix.changed:
        stale = copy.deepcopy(changed)
        cold_cells = {
            (c.network_id, c.property_name): c for c in cold.cells
        }
        stale.cells = [
            copy.deepcopy(cold_cells[(c.network_id, c.property_name)])
            if c.network_id in matrix.changed else c
            for c in stale.cells
        ]
        served = changed_hits + sum(
            1 for c in stale.cells if c.network_id in matrix.changed
        )
        problems = check_rerun(cold, stale, matrix.changed, served)
        if not any("verdict-cache hits" in p for p in problems):
            missed.append("cache hit served for the retrained network")
    return missed
