"""The benchmark's tracer patches agentmem functions by name; a renamed or
removed one would silently drop its layer, so every name must still exist,
and the engine must still call it where the tracer counts its work."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
from agentmem.retrieval import RetrievalConfig, RetrievalPipeline  # noqa: E402
from conftest import make_entry  # noqa: E402


def test_every_traced_layer_exists():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.remove()


def test_a_retrieve_records_its_stage2_span_and_pool():
    entries = [
        make_entry(entry_id="e1", content="report due friday", session_id="s1"),
        make_entry(entry_id="e2", content="soup for lunch", session_id="s2"),
        make_entry(entry_id="e3", content="the report is late", session_id="s2"),
    ]
    pipeline = RetrievalPipeline(RetrievalConfig(stage1_k1=None), entries=entries, facts=[])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.retrieve("report")
    finally:
        tracer.remove()
    assert "retrieval.stage2" in {span[0] for span in tracer.spans}
    assert tracer.counts["retrieval.pool_entries"] == 3
