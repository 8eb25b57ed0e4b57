from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_entry_points_install_and_restore(monkeypatch):
    # The benchmark's traced run wraps package functions and methods under the
    # names their callers look up (a class's own __dict__ for methods). A
    # refactor that moves or renames one breaks the traced run; catch it here.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)


def test_bench_selftest_runs_every_workload():
    # The toy-size self-test runs the four workloads untraced and traced and
    # checks that each emits every metric BENCHMARK.json declares.
    done = subprocess.run(
        [sys.executable, "-B", str(BENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest passed")
