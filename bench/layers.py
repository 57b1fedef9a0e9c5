"""Per-layer tracing from outside the program.

Wraps each layer's public functions where the pipeline looks them up,
records self time (span minus the spans it encloses) and exact work
counts, and puts every original back on exit.  Spans are folded into
per-name totals as they close rather than kept one by one: a device-5h
pass makes about 220,000 of them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

VERDICT_COUNTS = {
    "RunOcr": "selection.accepted",
    "RejectBlur": "selection.rejected_blur",
    "RejectNoText": "selection.rejected_no_text",
    "RejectSimilar": "selection.rejected_similar",
    "RejectBudget": "selection.rejected_budget",
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.query_ms: list[float] = []
        self._children = [0.0]  # time covered by closed child spans, per open span
        self._query_start: float | None = None

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.query_ms.clear()

    def span(self, name: str | None, fn, before=None, after=None):
        """``fn`` wrapped in a span called ``name`` (count-only when None)."""
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            if name is None:
                out = fn(*args, **kwargs)
            else:
                children.append(0.0)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self.self_s[name] += elapsed - children.pop()
                    children[-1] += elapsed
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- counters ---------------------------------------------------------

    def _verdict(self, args, out) -> None:
        self.counts["selection.frames"] += 1
        self.counts[VERDICT_COUNTS[out[0].verdict.value]] += 1

    def _ocr(self, args, out) -> None:
        self.counts["ocr.calls"] += 1
        self.counts["ocr.words"] += out.words_attempted
        self.counts["ocr.words_correct"] += out.words_correct

    def _groups(self, args, out) -> None:
        # The last grouping of a pass is the one its queries used.
        self.counts["osm.groups"] = len(out)
        self.counts["osm.merges"] = sum(len(g.members) - 1 for g in out)

    def _query_begins(self) -> None:
        self._query_start = time.perf_counter()

    def _prompt_built(self, args, out) -> None:
        self.counts["prompt.bytes"] += len(out[1].encode("utf-8"))
        if self._query_start is not None:
            self.query_ms.append((time.perf_counter() - self._query_start) * 1000.0)
            self._query_start = None

    def _add(self, key: str, size):
        def after(args, out) -> None:
            self.counts[key] += size(args, out)

        return after

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced name."""
        tracefile = importlib.import_module("wearocr.tracefile")
        # ``import wearocr.replay`` yields the function the package
        # re-exports under that name, so reach the module by its path.
        replay = importlib.import_module("wearocr.replay")
        wire = importlib.import_module("wearocr.wire")
        osm = importlib.import_module("wearocr.osm")
        timeline = osm.SessionTimeline
        one = lambda args, out: 1  # noqa: E731
        shrink = lambda args, out: len(args[0]) - len(out)  # noqa: E731
        return [
            (tracefile, "generate_frames", "tracefile.generate", {}),
            (tracefile, "write_trace", "tracefile.write", {}),
            (tracefile, "write_queries", "tracefile.write", {}),
            (tracefile, "read_trace", "tracefile.read", {}),
            (tracefile, "read_queries", "tracefile.read", {}),
            (replay, "validate_trace", "model.validate", {}),
            (replay, "process_frame", "selection.process_frame", {"after": self._verdict}),
            (replay, "run_mock_ocr", "ocr.run", {"after": self._ocr}),
            (wire, "encode", "wire.encode", {"after": self._add("wire.encode_calls", one)}),
            (wire, "decode", "wire.decode", {"after": self._add("wire.bytes", lambda a, o: len(a[0]))}),
            (wire, "account", "wire.account", {"after": self._add("wire.messages", one)}),
            (timeline, "ingest", "osm.ingest", {}),
            (timeline, "_build_groups", "osm.group_build", {"after": self._groups}),
            (osm, "payload_similarity", None, {"after": self._add("osm.similarity_evals", one)}),
            (timeline, "build_ocr_context", "osm.context",
             {"before": self._query_begins, "after": self._add("osm.context_entries", lambda a, o: len(o))}),
            (replay, "normalize_entries", "enrich.normalize", {}),
            (replay, "consolidate", "enrich.consolidate", {"after": self._add("enrich.consolidate_merged", shrink)}),
            (replay, "dedup_prompt_ocr", "prompt.dedup", {"after": self._add("prompt.dedup_dropped", shrink)}),
            (replay, "plan_frames", "prompt.plan", {}),
            (replay, "build_prompt", "prompt.build", {"after": self._prompt_built}),
            (replay, "session_power_report", "power.report", {}),
            (replay, "replay", "replay.self", {}),
            (replay, "emit_report", "replay.emit", {}),
        ]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hooks in self.targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
