"""The four workloads: seeded inputs, the plans they run, their oracles.

Every input is a Barabási–Albert truth (``m=3``) buried in the paper's
noise model (``add_noise``, η = 0.3), which fills *every* node pair:
``n`` nodes give ``n(n-1)/2`` observed edges and ``3n-6`` true edges.
The program only ever sees the written files.

Sizes scale with ``--scale`` (edges grow linearly with it), so the
self-test runs every workload on a few thousand edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

ETA = 0.3
BA_M = 3
#: NC deltas of the warm grid (the paper's p < 0.1 / 0.05 / 0.01 and
#: one stricter point), crossed with budgets of |E_true| and 2|E_true|.
GRID_DELTAS = (1.28, 1.64, 2.32, 3.0)
#: The eight deltas the daemon clients rotate through.
DAEMON_DELTAS = (1.0, 1.28, 1.5, 1.64, 2.0, 2.32, 2.5, 3.0)
#: The paper's default delta; recovery is measured on its backbone.
DEFAULT_DELTA = 1.64


@dataclass(frozen=True)
class Workload:
    name: str
    #: Workloads of one family share their input for a given seed.
    family: int
    base_nodes: int
    suffix: str  # input file format

    def nodes(self, scale: float) -> int:
        return max(16, int(round(self.base_nodes * math.sqrt(scale))))

    def input_edges(self, scale: float) -> int:
        n = self.nodes(scale)
        return n * (n - 1) // 2

    def true_edges(self, scale: float) -> int:
        return BA_M * self.nodes(scale) - 6


WORKLOADS: Dict[str, Workload] = {
    # 1415 nodes -> 1,000,405 edges; 548 nodes -> 149,878 edges.
    "cold_file": Workload("cold_file", 1, 1415, "csv"),
    "warm_grid": Workload("warm_grid", 2, 1415, "npz"),
    "daemon_warm": Workload("daemon_warm", 3, 548, "csv"),
    "stream_cold": Workload("stream_cold", 1, 1415, "csv"),
}


@dataclass
class Inputs:
    path: Path
    truth: object  # EdgeTable
    observed: object  # EdgeTable


def generate(workload: Workload, seed: int, scale: float,
             directory: Path) -> Inputs:
    """Generate and write one workload's input from ``seed``."""
    from repro.generators import add_noise, barabasi_albert
    from repro.graph import write_edges

    sequence = np.random.SeedSequence([seed % 2**63, workload.family])
    truth_rng, noise_rng = (np.random.default_rng(child)
                            for child in sequence.spawn(2))
    truth = barabasi_albert(workload.nodes(scale), m=BA_M, seed=truth_rng)
    noisy = add_noise(truth, ETA, seed=noise_rng)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"edges.{workload.suffix}"
    write_edges(noisy.observed, path)
    return Inputs(path=path, truth=truth, observed=noisy.observed)


def edge_keys(src, dst, n_nodes: int) -> np.ndarray:
    """Orientation-free keys of undirected edges."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return np.unique(np.minimum(src, dst) * n_nodes + np.maximum(src, dst))


def jaccard(keys_a: np.ndarray, keys_b: np.ndarray) -> float:
    inter = len(np.intersect1d(keys_a, keys_b, assume_unique=True))
    union = len(keys_a) + len(keys_b) - inter
    return inter / union if union else 1.0


# ----------------------------------------------------------------------
# Plans (built the same way by the oracle and by the measured process)
# ----------------------------------------------------------------------

def single_plan(path, k: int, streaming: bool):
    """cold_file / stream_cold: one NC plan with an |E_true| budget."""
    from repro.flow import flow

    return (flow(str(path), directed=False, streaming=streaming)
            .method("NC").budget(n_edges=k).metrics("coverage", "density"))


def grid_base(path, k: int):
    """warm_grid: the base plan ``run_many`` varies."""
    from repro.flow import flow

    return flow(str(path)).method("NC").budget(n_edges=k)


def grid_points(k: int) -> List[Tuple[float, int]]:
    """``(delta, n_edges)`` in ``run_many``'s cartesian order."""
    return [(delta, n) for delta in GRID_DELTAS for n in (k, 2 * k)]


def daemon_plan(path, delta: float):
    """daemon_warm: one NC plan with the method's default budget."""
    from repro.flow import flow

    return flow(str(path), directed=False).method("NC", delta=delta)


# ----------------------------------------------------------------------
# Oracles (independent of the path each workload measures)
# ----------------------------------------------------------------------

def _arrays(table) -> Dict[str, np.ndarray]:
    return {"src": np.asarray(table.src), "dst": np.asarray(table.dst),
            "weight": np.asarray(table.weight)}


def build_oracle(workload: Workload, inputs: Inputs,
                 scale: float) -> Dict[str, np.ndarray]:
    """Reference results, as arrays for ``np.savez``.

    * cold_file / stream_cold: ``NoiseCorrectedBackbone().extract``
      on the generated table — the in-memory backbone the streamed run
      must match bit for bit;
    * warm_grid: one direct ``score`` and eight direct extractions, one
      per grid point;
    * daemon_warm: in-process ``plan.run()`` per delta (``m`` and cache
      key), plus the default delta's edges.
    """
    from repro.core import NoiseCorrectedBackbone

    truth = inputs.truth
    n = truth.n_nodes
    arrays = {"truth_keys": edge_keys(truth.src, truth.dst, n),
              "n_nodes": np.array(n)}
    k = workload.true_edges(scale)
    if workload.name in ("cold_file", "stream_cold"):
        ref = NoiseCorrectedBackbone().extract(inputs.observed, n_edges=k)
        arrays.update({f"ref_{key}": value
                       for key, value in _arrays(ref).items()})
    elif workload.name == "warm_grid":
        # Scores do not depend on delta, so one direct score() serves
        # the eight direct extractions (no flow, store or file involved).
        scored = NoiseCorrectedBackbone().score(inputs.observed)
        for index, (delta, n_edges) in enumerate(grid_points(k)):
            ref = NoiseCorrectedBackbone(delta=delta).extract_from_scores(
                scored, n_edges=n_edges)
            arrays.update({f"ref{index}_{key}": value
                           for key, value in _arrays(ref).items()})
    else:
        from repro.pipeline.store import ScoreStore

        store = ScoreStore()
        sizes, keys = [], []
        for delta in DAEMON_DELTAS:
            result = daemon_plan(inputs.path, delta).run(store=store)
            sizes.append(result.backbone.m)
            keys.append(result.cache_key)
            if delta == DEFAULT_DELTA:
                arrays.update({f"ref_{key}": value for key, value
                               in _arrays(result.backbone).items()})
        arrays["daemon_m"] = np.array(sizes)
        arrays["daemon_keys"] = np.array(keys)
    return arrays


def same_arrays(got, want: np.ndarray) -> bool:
    """Same shape, dtype and bytes (so -0.0 and NaN payloads count)."""
    got = np.asarray(got)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def same_table(table, arrays: Dict[str, np.ndarray], prefix: str) -> bool:
    """Bit-identical ``src``/``dst``/``weight`` against a reference."""
    return all(same_arrays(getattr(table, key), arrays[f"{prefix}{key}"])
               for key in ("src", "dst", "weight"))
