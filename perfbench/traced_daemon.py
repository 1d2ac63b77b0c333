"""``repro serve start`` with the benchmark's layer wrappers installed.

The daemon of a traced daemon_warm run is started through this script
instead of ``python -m repro.cli``. It installs
:class:`layers.LayerTracer`, makes each ``serve_isolated`` batch one
operation weighted by its plan count, and after every batch replaces
SNAPSHOT (JSON) with the running totals, which the client reads before
and after its measured loop::

    python3 perfbench/traced_daemon.py SNAPSHOT [serve start options]
"""

from __future__ import annotations

import json
import os
import sys

import layers


def write_json_atomic(path: str, payload) -> None:
    """Replace ``path`` with ``payload`` so a reader never sees half."""
    partial = f"{path}.partial"
    with open(partial, "w") as handle:
        json.dump(payload, handle)
    os.replace(partial, path)


def main(argv) -> int:
    snapshot = argv[1]
    tracer = layers.LayerTracer().install()
    tracer.wrap_boundary(
        "repro.serve.daemon", "serve_isolated",
        lambda op: write_json_atomic(
            snapshot, layers.weighted_totals(tracer.operations)))
    from repro.cli import main as cli_main

    return cli_main(["serve", "start", *argv[2:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
