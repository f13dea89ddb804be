"""End-to-end, layer-by-layer benchmark of the default-configuration verifier.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table2 --seed 1 --seconds 40 --trace 0

Workloads (``e2ebench/LAYERS.md`` says why each exists and which layer
metric should move which end-to-end metric):

* ``table2`` — the paper's Table II matrix: max queries plus decision
  queries at 3.0 and 4.5 m/s on I4x{4,6,8,10}.  The solve layer does
  almost all the work.
* ``eps-local`` — decision queries at 1.0 m/s over 16 seeded ε-boxes.
  Bounds do almost all the work.

``--trace 0`` measures passes while another fits in ``--seconds`` (at
least one) and prints the end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass and prints
the per-layer metrics.  Every answer is checked by :mod:`oracle`.  The
last line of standard output is the JSON result.  Exit status: 0 when
every answer is right, 1 when the oracle rejects one or the run fails,
2 when the checkout holds no sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".e2ebench")
WORKLOADS = ("table2", "eps-local")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run(args) -> int:
    import metrics
    import oracle
    import tracing
    import workloads as wl

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    recorder = tracing.Recorder()
    try:
        retrain_seed = args.seed if args.workload == "table2" else None
        if args.trace:
            with recorder.installed(tracing.SETUP_LAYERS):
                setup = wl.set_up(retrain_seed)
        else:
            setup = wl.set_up(retrain_seed)
        matrix_for_pass = wl.matrix_factory(args.workload, setup, args.seed)

        if args.trace:
            plain = wl.run_pass(matrix_for_pass(0), workdir)
            mark = len(recorder.spans)
            traced = wl.run_pass(
                matrix_for_pass(0), workdir,
                around_cold=lambda: recorder.installed(
                    tracing.VERIFIER_LAYERS, campaign=True
                ),
            )
            passes = [plain, traced]
        else:
            passes = wl.run_passes(matrix_for_pass, workdir, args.seconds)
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Everything below is outside the timed sections.
    book = oracle.ReferenceBook(
        os.path.join(WORKDIR, "reference.json"), args.seed
    )
    problems: List[str] = []
    attempted = failed = 0
    for p in passes:
        found = oracle.check_pass(p, book)
        counts = oracle.cell_counts(p, found)
        attempted += counts[0]
        failed += counts[1]
        problems += found
    first = passes[0]
    missed = oracle.self_test(
        first.cold, first.matrix, book, first.changed,
        (first.changed_stats or {}).get("verdict_cache.hits", 0.0),
    )
    problems += [f"oracle self-test accepted a wrong answer: {m}"
                 for m in missed]
    book.save()

    if args.trace:
        values, found = metrics.traced(recorder, mark, plain, traced, book)
        problems += found
        recorder.dump(os.path.join(
            WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"
        ))
        units = metrics.LAYER_UNITS
    else:
        values = {
            "setup_s": setup.setup_s,
            "wall_s": statistics.median(p.wall_s for p in passes),
            "decided_frac": metrics.decided_frac(passes),
            "peak_rss_mb": rss,
        }
        units = metrics.END_TO_END_UNITS

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"e2ebench: no repro sources under {src}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
