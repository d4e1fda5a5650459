"""The benchmark's traced run against the package as it is.

``perfbench/spans.py`` wraps each of its ``CALL_SITES`` by a bare getattr
and records ``SolveStats.backend`` of every solve, so a name it lists that
the package drops breaks every traced benchmark run.  These tests load the
module from the checkout, unedited, and trace two CLI runs with it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from flexarb import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_call_site_resolves(spans):
    for module, attr, _, _ in spans.CALL_SITES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_traced_flex_and_sweep_runs(spans, tmp_path):
    runs = (["flex"], ["sweep", "--fractions", "0.5 1.0"])
    tracer = spans.Tracer()
    with tracer.installed():
        for op, argv in enumerate(runs):
            with tracer.operation(op):
                assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert spans.well_formed(tracer.spans)
    for op in range(len(runs)):
        counts = tracer.counts[op]
        assert counts["solves"] > 0
        assert counts["kernel_calls"] == counts["solves"]
    assert tracer.backends == {"numpy"}
