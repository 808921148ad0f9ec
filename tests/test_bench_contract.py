"""The benchmark's per-layer tracer still finds every function it spans.

``bench/tracing.py`` wraps public functions of the package by name and
reports a metric as missing, without failing the run, when a name it
needs is gone or its result has another shape. A refactor that deletes or
reshapes one of those names therefore passes every other test and a bench
run that exits 0, but its result line lacks that layer's metrics. This
test runs one traced plan and requires every span and every metric.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

from cartonfold.cli import EXIT_OK, RunConfig, run

from .conftest import SPEC_DIR

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing(request):
    sys.path.insert(0, str(BENCH_DIR))
    request.addfinalizer(lambda: sys.path.remove(str(BENCH_DIR)))
    import tracing

    return tracing


def test_traced_plan_reports_every_layer_metric(tracing):
    config = RunConfig(spec_path=str(SPEC_DIR / "case_study_tray.yaml"), fmt="csv", top=None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(config, out=io.StringIO())
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    assert sorted(".".join(target) for target in tracer.missing) == []
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert [name for name, value in metrics.items() if value is None] == []
