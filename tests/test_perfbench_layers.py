"""The benchmark's per-layer wrappers still find every program target.

``perfbench/layers.py`` times the request path by replacing named
functions (``compile_plans`` in the modules that call it,
``FileSource``'s ``read_edges``, the ``fingerprint_table`` lookup in
``repro.flow.compile``, ...). A target that a refactor renames or moves
is skipped silently and its layer reads zero, so this test pins them.
"""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_layer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.LayerTracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
