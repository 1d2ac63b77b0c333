"""Out-of-core streaming scoring (the two-pass block pipeline).

``repro.stream`` scores arbitrarily large edge files in O(nodes +
block) memory, bit-identical to the in-memory path:

* pass 1 (:func:`open_stream`) canonicalizes the file — external-merge
  coalesce of duplicate rows, node aggregates, content fingerprint —
  into a :class:`CanonicalStream`;
* pass 2 (:func:`stream_extract`) re-streams the canonical blocks,
  scores them against the pass-1 aggregates and keeps only budget
  survivors.

Plans opt in through ``flow(source, streaming=True | "auto")``;
:func:`supports_streaming` / :class:`StreamingUnsupported` gate the
methods (NC, NCp, disparity, naive) whose scores are per-edge
functions of node aggregates. :func:`stream_convert` reuses pass 1 for
bounded-memory ``repro convert``.
"""

from .convert import stream_convert
from .pipeline import (DEFAULT_AUTO_THRESHOLD_BYTES, DEFAULT_BLOCK_ROWS,
                       DEFAULT_RUN_ROWS, CanonicalStream, TableSummary,
                       auto_streams, default_block_rows,
                       default_run_rows, open_stream)
from .score import (STREAMABLE_METHODS, StreamingUnsupported,
                    stream_extract, supports_streaming)

__all__ = [
    "DEFAULT_AUTO_THRESHOLD_BYTES",
    "DEFAULT_BLOCK_ROWS",
    "DEFAULT_RUN_ROWS",
    "CanonicalStream",
    "StreamingUnsupported",
    "STREAMABLE_METHODS",
    "TableSummary",
    "auto_streams",
    "default_block_rows",
    "default_run_rows",
    "open_stream",
    "stream_convert",
    "stream_extract",
    "supports_streaming",
]
