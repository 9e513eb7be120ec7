"""Spans around agentmem's public functions, recorded from outside the program.

``Tracer.install()`` replaces each function in ``LAYERS`` with a wrapper that
records one span per call (name, start, end, parent) plus a few work counts
taken from the call's arguments and result; ``Tracer.remove()`` puts the
originals back. A name is patched where its caller looks it up: methods on
their class, module functions on the module the caller reads them from
(``run_consolidation_pass`` is bound into ``agentmem.evaluation`` as well as
defined in ``agentmem.consolidation``). A name that no longer exists is
reported as absent, never as zero time.

Only calls made once per operation or once per candidate pool are wrapped,
never per-document ones such as ``bm25_score`` or ``tokenize``, so the
wrappers stay cheap next to the work they time.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict

from agentmem import attribution, consolidation, evaluation, lexical, retrieval, scoring
from agentmem.store import MemoryStore


def _loaded(counts, args, kwargs, result):
    counts["store.lines_loaded"] += len(result) + result.skipped
    counts["store.skipped_lines"] += result.skipped


def _consolidated(counts, args, kwargs, result):
    counts["consolidation.facts"] += result.facts_emitted
    counts["consolidation.promoted"] += result.entries_promoted
    counts["consolidation.failures"] += len(result.failures)


def _retrieved(counts, args, kwargs, result):
    counts["retrieval.queries"] += 1
    counts["retrieval.fallbacks"] += result.fallback_unscoped


def _ranked(counts, args, kwargs, result):
    # rank() scores every indexed fact and sorts positives first.
    counts["retrieval.facts_scored"] += len(result)
    counts["retrieval.facts_matched"] += bisect.bisect_left(result, True, key=lambda p: p[1] <= 0.0)


def _stage2(counts, args, kwargs, result):
    counts["retrieval.pools"] += 1
    counts["retrieval.pool_entries"] += len(args[1])


def _packed(counts, args, kwargs, result):
    counts["retrieval.packs"] += 1
    counts["retrieval.pack_dropped"] += len(args[0]) - len(result[1])


def _indexed(counts, args, kwargs, result):
    counts["lexical.docs_indexed"] += len(args[0])


def _scored(counts, args, kwargs, result):
    counts["scoring.candidates_scored"] += len(args[0])
    counts["scoring.bypassed"] += sum(b.bypass_applied for b in result)


def _attributed(counts, args, kwargs, result):
    counts["attribution.updates"] += len(result)


# span name -> (places the caller looks the function up, work counter)
LAYERS = {
    "store.append_entries": ([(MemoryStore, "append_entries")], None),
    "store.append_fact": ([(MemoryStore, "append_fact")], None),
    "store.promote": ([(MemoryStore, "promote")], None),
    "store.apply_cw_delta": ([(MemoryStore, "apply_cw_delta")], None),
    "store.load_entries": ([(MemoryStore, "load_entries")], _loaded),
    "store.load_facts": ([(MemoryStore, "load_facts")], _loaded),
    "consolidation.pass": (
        [(consolidation, "run_consolidation_pass"), (evaluation, "run_consolidation_pass")],
        _consolidated,
    ),
    "consolidation.extract": ([(consolidation.HeuristicExtractor, "extract")], None),
    "retrieval.snapshot": ([(retrieval.RetrievalPipeline, "from_store")], None),
    "retrieval.retrieve": ([(retrieval.RetrievalPipeline, "retrieve")], _retrieved),
    "retrieval.stage1": ([(retrieval, "stage1_scope")], None),
    "retrieval.stage2": ([(retrieval, "stage2_retrieve")], _stage2),
    "retrieval.pack": ([(retrieval, "pack_context")], _packed),
    "lexical.rank": ([(lexical, "rank")], _ranked),
    "lexical.build_index": ([(lexical, "build_index")], _indexed),
    "scoring.score_pool": ([(scoring, "score_pool")], _scored),
    "scoring.rank_order": ([(scoring, "rank_order")], None),
    "attribution.apply": ([(attribution, "apply_attribution")], _attributed),
    "evaluation.ingest": ([(evaluation, "ingest_question")], None),
    "evaluation.read": ([(evaluation.OracleReader, "answer")], None),
}

OP = "op"
_WRITES = ("store.append_fact", "store.promote")


class Tracer:
    """In-memory span recorder. Spans are [name, start_ns, end_ns, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        for name, (places, counter) in LAYERS.items():
            found = [(owner, attr) for owner, attr in places if attr in vars(owner)]
            if not found:
                self.absent.append(name)
                continue
            owner, attr = found[0]
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self.span(name, fn)
            if counter is not None:
                wrapped = self._counting(wrapped, counter)
            replacement = classmethod(wrapped) if is_classmethod else wrapped
            for owner, attr in found:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)

    def _counting(self, wrapped, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            counter(counts, args, kwargs, result)
            return result

        return counted

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> dict[str, float]:
        """Self seconds per span name and op wall seconds, plus the counts.

        A span's self time is its duration minus its children's durations.
        ``consolidation.write`` sums the store writes made inside a pass.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float, self.counts)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}_s"] += (end - start - child_ns[i]) / 1e9
            out[f"{name}_calls"] += 1
            if name == OP:
                out["op_wall_s"] += (end - start) / 1e9
            elif name in _WRITES and parent >= 0 and self.spans[parent][0] == "consolidation.pass":
                out["consolidation.write_s"] += (end - start) / 1e9
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (layer it depends on, unit, value from combined totals)
DERIVED = {
    "store.append_fact_calls": ("store.append_fact", "count", lambda g: g("store.append_fact_calls")),
    "store.promote_calls": ("store.promote", "count", lambda g: g("store.promote_calls")),
    "store.lines_loaded": ("store.load_entries", "count", lambda g: g("store.lines_loaded")),
    "store.skipped_lines": ("store.load_entries", "count", lambda g: g("store.skipped_lines")),
    "consolidation.write_s": ("consolidation.pass", "s", lambda g: g("consolidation.write_s")),
    "consolidation.facts_per_entry": (
        "consolidation.pass", "ratio",
        lambda g: _ratio(g("consolidation.facts"), g("consolidation.promoted")),
    ),
    "consolidation.failures": ("consolidation.pass", "count", lambda g: g("consolidation.failures")),
    "retrieval.facts_scored_per_query": (
        "lexical.rank", "count", lambda g: _ratio(g("retrieval.facts_scored"), g("retrieval.queries")),
    ),
    "retrieval.facts_matched_per_query": (
        "lexical.rank", "count", lambda g: _ratio(g("retrieval.facts_matched"), g("retrieval.queries")),
    ),
    "retrieval.pool_size": (
        "retrieval.stage2", "count", lambda g: _ratio(g("retrieval.pool_entries"), g("retrieval.pools")),
    ),
    "retrieval.fallback_rate": (
        "retrieval.retrieve", "ratio", lambda g: _ratio(g("retrieval.fallbacks"), g("retrieval.queries")),
    ),
    "retrieval.pack_dropped_per_query": (
        "retrieval.pack", "count", lambda g: _ratio(g("retrieval.pack_dropped"), g("retrieval.packs")),
    ),
    "lexical.docs_indexed": ("lexical.build_index", "count", lambda g: g("lexical.docs_indexed")),
    "scoring.candidates_scored": ("scoring.score_pool", "count", lambda g: g("scoring.candidates_scored")),
    "scoring.bypass_share": (
        "scoring.score_pool", "ratio",
        lambda g: _ratio(g("scoring.bypassed"), g("scoring.candidates_scored")),
    ),
    "attribution.updates": ("attribution.apply", "count", lambda g: g("attribution.updates")),
}


def layer_metrics(totals: dict[str, float], absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit); those of absent layers are left out."""
    g = lambda key: totals.get(key, 0.0)  # noqa: E731
    metrics = {f"{name}_s": (g(f"{name}_s"), "s") for name in LAYERS if name not in absent}
    for metric, (layer, unit, value) in DERIVED.items():
        if layer not in absent:
            metrics[metric] = (value(g), unit)
    return metrics
