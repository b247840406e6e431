"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` times each layer by replacing named module
attributes (``demix.cli._load_dataset``, ``demix.regfit.mde_at_x``, ...)
with timing wrappers, and skips any name it cannot find, which would zero
that layer's metrics without failing the benchmark.  This test fails
instead when code that the tracer wraps is moved or renamed.
"""

import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrap_point(monkeypatch):
    # Executed from its source, so no bytecode is written beside it.
    tracing = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"),
         tracing.__dict__)
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == []
