"""The per-layer metrics of BENCHMARK.json name functions the tracer still finds.

perfbench.spans times the public functions of each layer's modules (each
module's __all__ when it has one).  A `<layer>.<function>.calls` or
`.self_ms` metric whose function has left its module, or its module's
__all__, makes a traced benchmark run fail; this test catches that
without running the benchmark.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_timed_metrics_name_public_functions_of_their_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # perfbench is not installed
    spans = importlib.import_module("perfbench.spans")
    public: dict[str, set[str]] = {}
    for layer, module in spans.LAYERS:
        public.setdefault(layer, set()).update(spans.public_functions(module))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [m["name"] for m in metrics if m["name"].endswith((".calls", ".self_ms"))]
    assert timed
    missing = []
    for name in timed:
        layer, function, _ = name.rsplit(".", 2)
        if function not in public.get(layer, ()):
            missing.append(name)
    assert missing == []
