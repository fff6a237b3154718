"""The benchmark's traced run finds each span's target by name in the
poifair sources. A renamed or removed target would make its per-layer
metrics read missing; this test fails instead."""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"


def _load_trace_run():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


trace_run = _load_trace_run()


@pytest.mark.parametrize(
    "span", trace_run.SPANS, ids=lambda s: s.time or s.calls or s.sites[0]
)
def test_span_target_resolves(span):
    resolved = [site for site in span.sites if trace_run._resolve(site)]
    assert resolved, f"no site of {span.sites} exists in poifair"
