"""Spans around the calls into each pipeline layer, from outside ``src/``.

The traced run replaces each layer's public entry point with a wrapper
that records a span (name, start, end, parent) in memory.  A function is
replaced in every ``repro`` module that holds it, so call sites that
imported it by name are traced too.  Self time is a span's duration minus
its child spans; since everything traced runs on one thread, children
never overlap, and the self times of all spans add up to the root span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

#: layer -> (module, public entry points).  ``campaign`` is the
#: ``VerificationCampaign.run`` method; ``setup`` spans the data and
#: training calls the benchmark makes itself.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup.data": ("repro.casestudy", ("prepare_case_study",)),
    "setup.train": (
        "repro.casestudy", ("train_family", "train_predictor"),
    ),
    "audit": ("repro.analysis.audit", ("audit_network", "audit_region")),
    "bounds": ("repro.core.encoder", ("compute_bounds",)),
    "static": ("repro.analysis.symbolic", ("symbolic_objective_bounds",)),
    "encode": ("repro.core.encoder", ("encode_network",)),
    "solve": ("repro.milp.branch_and_bound", ("solve_milp",)),
    "proof": ("repro.proof.check", ("check_certificate",)),
}
SETUP_LAYERS = ("setup.data", "setup.train")
VERIFIER_LAYERS = tuple(k for k in LAYERS if k not in SETUP_LAYERS)


@dataclasses.dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    attrs: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _count(out, layer: str, args, kwargs) -> Dict[str, float]:
    """Work counts read off a layer call's arguments and result."""
    if layer == "bounds":
        from repro.core.bounds import total_ambiguous

        network = args[0] if args else kwargs["network"]
        return {"ambiguous_relus": total_ambiguous(out, network)}
    if layer == "encode":
        return {"binaries": out.num_binaries}
    if layer == "solve":
        return {"nodes": out.nodes, "lp_iterations": out.lp_iterations}
    if layer == "proof":
        return {"rejected": 1.0 if out.has_errors else 0.0}
    return {}


class Recorder:
    """In-memory spans, plus the patching that produces them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        record = Span(
            layer, time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
        )
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if record.parent >= 0:
                self.spans[record.parent].child_s += record.duration

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                out = fn(*args, **kwargs)
            record.attrs = _count(out, layer, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, layers, campaign: bool = False):
        """Trace ``layers`` (and ``VerificationCampaign.run``) while open."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for layer in layers:
                module_name, names = LAYERS[layer]
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    wrapped = self._wrap(original, layer)
                    for holder in list(sys.modules.values()):
                        if (
                            getattr(holder, "__name__", "").startswith("repro")
                            and getattr(holder, name, None) is original
                        ):
                            undo.append((holder, name, original))
                            setattr(holder, name, wrapped)
            if campaign:
                from repro.core.campaign import VerificationCampaign

                run = VerificationCampaign.run
                undo.append((VerificationCampaign, "run", run))
                VerificationCampaign.run = self._wrap(run, "campaign")
            yield self
        finally:
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)

    # -- summaries -----------------------------------------------------------
    def by_layer(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, self time ``s`` and summed counts."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans[since:]:
            entry = out.setdefault(record.layer, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += record.self_s
            for key, value in record.attrs.items():
                entry[key] = entry.get(key, 0.0) + value
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps({
                    "name": record.layer, "start": record.start,
                    "end": record.end, "parent": record.parent,
                    "self_s": record.self_s, **record.attrs,
                }) + "\n")
