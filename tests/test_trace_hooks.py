"""The benchmark's trace hooks: bench/tracing.py finds every callable it wraps.

Each wrapped callable feeds a per-layer metric of BENCHMARK.json, and the
tracer leaves out the metric of a callable that no longer exists, so a
rename or deletion in src/ would drop a metric without failing a run.
"""

import importlib.util
import sys
from pathlib import Path

import scipy.integrate

from darboux3 import classical as cl
from darboux3.algebra import ring


def _load_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_restores_them(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer()
    mul = ring.Poly.__mul__
    try:
        assert tracer.install() == []
        assert cl.solve_ivp is not scipy.integrate.solve_ivp and ring.Poly.__mul__ is not mul
    finally:
        tracer.remove()
    assert cl.solve_ivp is scipy.integrate.solve_ivp
    assert ring.Poly.__mul__ is mul
