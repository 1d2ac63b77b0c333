"""Per-layer timing from the benchmark side, with no spans in the program.

:class:`LayerTracer` replaces a fixed list of public functions of the
program (the names the request path actually calls, looked up in the
module that calls them) with timing wrappers, and restores them on
:meth:`LayerTracer.uninstall`. Each wrapped call measures its wall time
and subtracts the wall time of wrapped calls nested inside it, so every
layer gets a *self* time and the self times of one operation never
overlap: their sum plus ``unattributed_s`` is the operation's wall time.

Stacks are per thread, so the daemon's handler and batcher threads
cannot charge each other's time. A target that no longer exists in the
program is skipped and listed in :attr:`LayerTracer.missing`; its layer
then reads zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute path, counter)``. ``counter`` names the
#: per-layer count the call's result adds to (``rows`` or ``kept``); it
#: is taken only at the outermost call of a layer, so a nested call of
#: the same layer (``read_edges`` -> ``read_edge_npz``) counts once.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("ingest.read", "repro.flow.spec", "read_edges", "rows"),
    ("ingest.read", "repro.graph.ingest", "read_edge_npz", "rows"),
    ("fingerprint.file", "repro.flow.spec", "fingerprint_file", None),
    ("fingerprint.table", "repro.flow.compile", "fingerprint_table", None),
    ("score.nc", "repro.core.noise_corrected",
     "NoiseCorrectedBackbone.score", None),
    ("score.lift", "repro.core.noise_corrected", "transformed_lift", None),
    ("score.posterior", "repro.core.noise_corrected",
     "posterior_probability", None),
    ("score.sdev", "repro.core.noise_corrected", "transformed_lift_sdev",
     None),
    ("extract", "repro.core.noise_corrected",
     "NoiseCorrectedBackbone.extract_from_scores", "kept"),
    ("extract", "repro.backbones.base", "ScoredEdges.top_k", "kept"),
    ("store.get", "repro.pipeline.store", "ScoreStore.get_or_compute", None),
    ("store.get", "repro.pipeline.store", "ScoreStore.get", None),
    ("store.put", "repro.pipeline.store", "ScoreStore.put", None),
    ("metrics.eval", "repro.pipeline.tasks", "CoverageMetric.__call__",
     None),
    ("metrics.eval", "repro.pipeline.tasks", "DensityMetric.__call__", None),
    ("flow.compile", "repro.flow.serve", "compile_plans", None),
    ("flow.compile", "repro.serve.engine", "compile_plans", None),
    ("flow.serve", "repro.flow.serve", "serve_compiled", None),
    ("flow.serve", "repro.serve.engine", "serve_compiled", None),
    ("stream.pass1", "repro.flow.compile", "open_stream", None),
    ("stream.pass2", "repro.stream", "stream_extract", None),
)

#: Every layer :data:`TARGETS` times, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Counts a layer's outermost call result contributes to.
COUNTERS: Dict[str, Callable[[object], int]] = {
    "rows": lambda table: int(table.m),
    "kept": lambda table: int(table.m),
}

#: Slack allowed when checking that self times fit inside the wall time
#: (two ``perf_counter`` reads per call; far below any layer's cost).
ACCOUNTING_TOLERANCE_S = 1e-6


class Operation:
    """Self times and counts of one traced operation."""

    def __init__(self, weight: int = 1):
        self.weight = weight
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.wall_s = 0.0

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - sum(self.self_s.values())

    def accounted(self) -> bool:
        """Self times are non-negative and sum to at most the wall time."""
        return (min(self.self_s.values()) >= -ACCOUNTING_TOLERANCE_S
                and self.unattributed_s >= -ACCOUNTING_TOLERANCE_S)


class LayerTracer:
    """Install/uninstall timing wrappers; collect per-operation totals."""

    def __init__(self):
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.operations: List[Operation] = []

    # -- installation ---------------------------------------------------

    def install(self) -> "LayerTracer":
        self.missing = []
        for layer, module_name, path, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def wrap_boundary(self, module_name: str, attr: str,
                      on_done: Callable[[Operation], None]) -> None:
        """Make ``module.attr`` an operation boundary.

        Used inside the daemon, whose operations start in its own
        batcher thread: each call of ``serve_isolated`` becomes one
        operation weighted by its number of plans (one per request).
        """
        owner = importlib.import_module(module_name)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def boundary(plans, *args, **kwargs):
            plans = list(plans)
            with self.operation(weight=len(plans)) as op:
                result = original(plans, *args, **kwargs)
            on_done(op)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, boundary)

    # -- operations -----------------------------------------------------

    def operation(self, weight: int = 1) -> "_OperationScope":
        """Context manager timing one operation of the workload."""
        return _OperationScope(self, weight)

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, original, layer: str, counter: Optional[str]):
        tracer = self
        count = COUNTERS.get(counter) if counter else None

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frames = tracer._frames()
            frame = [0.0, layer]  # [nested wall time, layer]
            outermost = all(f[1] != layer for f in frames)
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                op = getattr(tracer._local, "op", None)
                if op is not None:
                    op.self_s[layer] += elapsed - frame[0]
            if op is not None and count is not None and outermost:
                op.counts[counter] += count(result)
            return result

        return timed


class _OperationScope:
    def __init__(self, tracer: LayerTracer, weight: int):
        self.tracer = tracer
        self.op = Operation(weight)

    def __enter__(self) -> Operation:
        self.tracer._local.op = self.op
        self.start = time.perf_counter()
        return self.op

    def __exit__(self, *exc_info) -> None:
        self.op.wall_s = time.perf_counter() - self.start
        self.tracer._local.op = None
        self.tracer.operations.append(self.op)


def weighted_totals(operations: List[Operation]) -> Dict[str, object]:
    """Weight-summed totals of finished operations (JSON-ready)."""
    return {
        "operations": len(operations),
        "weight": sum(op.weight for op in operations),
        "wall_s": sum(op.weight * op.wall_s for op in operations),
        "self_s": {layer: sum(op.weight * op.self_s[layer]
                              for op in operations) for layer in LAYERS},
        "counts": {name: sum(op.weight * op.counts[name]
                             for op in operations) for name in COUNTERS},
        "accounted": all(op.accounted() for op in operations),
    }

