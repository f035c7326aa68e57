"""Every function the benchmark's span tracer wraps must still exist under the name it wraps.

The tracer (benchmarks/tracing.py) replaces each ``SITES`` entry by name, so a
renamed or deleted function would otherwise fail every traced benchmark
sample instead of this test.
"""
from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    unresolved = []
    for where, attr, _, _ in tracing.SITES:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{where}.{attr}")
    assert tracing.SITES
    assert unresolved == []
