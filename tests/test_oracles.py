"""The oracles of ``tests/oracles.py`` are independent of the program.

No oracle borrows a program function: ``oracles.py`` is parsed, and
every name it imports from ``wearocr`` must be a class or a constant.
Grouping and the causal context chain are cross-checked against the
benchmark's own independent check, ``bench/checks.py``, loaded from its
file as it stands and only read.  The program's prompts are not
compared with it: they use the final grouping, not the causal one
(ROADMAP item 3).
"""

import ast
import functools
import importlib.util
import sys
import types
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ocr_line,
    oracle_consolidate,
    oracle_context,
    oracle_dedup,
    oracle_groups,
    oracle_normalize,
)
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, QueryMode, QueryRecord, Rect, TextSpan
from wearocr.osm import OcrContextEntry

ORACLES = Path(__file__).with_name("oracles.py")
CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"

# The benchmark's threshold and window (bench/checks.py).
THETA, WINDOW_MS = 0.8, 30_000


def borrowed_names(source):
    """Every name ``source`` imports from ``wearocr`` that is a function
    or a module, as ``module.name``."""
    borrowed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            borrowed += [a.name for a in node.names if a.name.split(".")[0] == "wearocr"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wearocr":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if isinstance(value, types.ModuleType) or (callable(value) and not isinstance(value, type)):
                    borrowed.append(f"{node.module}.{alias.name}")
    return borrowed


def test_oracles_import_no_program_function():
    assert borrowed_names(ORACLES.read_text(encoding="utf-8")) == []


def test_a_borrowed_function_or_module_is_named():
    source = "from wearocr.osm import OcrGroup, token_set\nfrom wearocr import prompt\nimport wearocr.enrich\n"
    assert borrowed_names(source) == ["wearocr.osm.token_set", "wearocr.prompt", "wearocr.enrich"]


@functools.cache
def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are
    # built, under ``from __future__ import annotations``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# -- random timelines -----------------------------------------------------------

# Case variants, so that tokens match only once lowercased, and words
# that grow a text by one token; a control character and a tab, so that
# normalization changes some texts.
_SPAN_TEXTS = ["gate b12", "GATE B12", "Gate", "exit", "EXIT north", "a b c d e", "a b c d e f",
               "a b", "GATE\x07 b12", "exit\tnorth", " "]
_FLAGS = [frozenset(), frozenset({QualityFlag.BLURRY}), frozenset({QualityFlag.CROPPED, QualityFlag.POOR_LIGHTING})]
# Steps straddle consolidate's 5-s gap and the 30-s window.
_STEPS = [1, 500, 2000, 5000, 5001, 12_000, 31_000]


@st.composite
def _payloads(draw):
    out, ts = [], draw(st.integers(0, 1000))
    for step in draw(st.lists(st.sampled_from(_STEPS), max_size=30)):
        ts += step
        kind = draw(st.sampled_from([PayloadKind.TEXT_OCR] * 4 + list(PayloadKind)))
        texts = []
        if kind is PayloadKind.TEXT_OCR:
            texts = draw(st.lists(st.sampled_from(_SPAN_TEXTS), min_size=1, max_size=2))
        conf = draw(st.sampled_from([0.5, 0.9]))
        out.append(
            OcrPayload(
                kind=kind,
                frame_ts_ms=ts,
                spans=tuple(TextSpan(t, Rect(0.1, 0.1, 0.1, 0.1), conf) for t in texts),
                selection=draw(st.integers(0, 7)) == 0,
                quality_flags=draw(st.sampled_from(_FLAGS)),
            )
        )
    return out


def _text(ts, text, selection=False):
    spans = tuple(TextSpan(w, Rect(0.1, 0.1, 0.1, 0.1), 0.9) for w in text.split())
    return OcrPayload(PayloadKind.TEXT_OCR, ts, spans, selection)


def _causal_lines(payloads, query):
    """The tests' oracles chained on the payloads delivered by ``query``."""
    prefix = {p.frame_ts_ms: p for p in payloads if p.frame_ts_ms <= query.ts_ms}
    entries = oracle_context(prefix, oracle_groups(prefix, THETA), query, WINDOW_MS)
    entries = [OcrContextEntry(e.ts_ms, oracle_normalize(e.text), e.quality_flags, e.is_selection) for e in entries]
    return [ocr_line(e) for e in oracle_dedup(oracle_consolidate(entries, THETA), THETA)]


@settings(max_examples=200, deadline=None)
@given(payloads=_payloads())
def test_grouping_oracle_matches_the_benchmark_grouper(payloads):
    groups = oracle_groups({p.frame_ts_ms: p for p in payloads}, THETA)
    assert [(g.members, g.exemplar_ts, g.is_selection) for g in groups] == load_checks().greedy_groups(payloads)


@settings(max_examples=200, deadline=None)
@given(payloads=_payloads(), query_ts=st.lists(st.integers(0, 120_000), max_size=6).map(sorted))
# A later, longer near-duplicate moves the group's latest member past the
# query: the final grouping has no entry in the window, the causal one has.
@example(payloads=[_text(1000, "a b c d e"), _text(3000, "a b c d e f")], query_ts=[2000])
def test_causal_context_chain_matches_the_benchmark_check(payloads, query_ts):
    queries = [QueryRecord(ts, ts, "?", QueryMode.QA) for ts in query_ts]
    assert [_causal_lines(payloads, q) for q in queries] == load_checks().causal_ocr_lines(payloads, queries)
