"""The per-query path against its pairwise ``text_similarity`` form.

``consolidate`` and ``dedup_prompt_ocr`` compute each text's token set
once and test the sets with ``near_duplicate(len(a & b), len(a), len(b), theta)``.
Their oracles (``tests/oracles.py``) are the straightforward forms that
call ``text_similarity`` on every pair, re-tokenizing both texts each
time; the properties require ``==``, so every merge and drop decision,
and every kept text, must be the same.  ``build_ocr_context`` hands out
entries built once per grouping, so it is checked against a per-query
construction from ``groups()`` across ingests.  Entries carry their
token set and prompt line from construction; the last properties check
that no way of building an entry leaves either stale.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ocr_line, oracle_consolidate, oracle_context, oracle_dedup, text_tokens
from wearocr.enrich import CONSOLIDATE_GAP_MS, consolidate
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, QueryMode, QueryRecord, Rect, TextSpan
from wearocr.osm import OcrContextEntry, SessionTimeline, token_set
from wearocr.prompt import FramePlan, build_prompt, dedup_prompt_ocr

# -- inputs -----------------------------------------------------------------

# Few words with case variants, so that texts often share tokens, tie on
# length ("gate b12" / "B12 GATE") and grow by one word ("a b c d" /
# "a b c d e"); a final sigma and a letter that lowercases to two
# characters test that joining texts with a space keeps each token.
_WORDS = ["a", "b", "c", "d", "e", "f", "A", "B", "gate", "GATE", "Gate", "b12", "B12", "ΟΔΟΣ", "οδοσ", "İ"]
# Words are separated by any whitespace the tokenizer splits on, alone or in runs.
_SEPARATORS = [" ", "  ", "\t", "\n", "\x1f", "\u3000", " \u3000\t"]
_ODD_TEXTS = ["", " ", "\t \n", "\x00", "\x07", "a\x00b", "a\x1fb", "GATE\x07 b12"]


_text = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_WORDS)), max_size=6
    ).map(lambda pairs: "".join(sep + word for sep, word in pairs)),
    st.sampled_from(_ODD_TEXTS),
)
# Windows of one word list: 1 to 12 distinct tokens that overlap
# heavily, so that at theta 0.5 and 0.8 some pairs fail the size filter,
# some pass it and match, and some pass it and do not.
_LIST = [f"w{i}" for i in range(15)]
_window_text = st.tuples(st.integers(0, 3), st.integers(1, 12)).map(
    lambda start_size: " ".join(_LIST[start_size[0] : sum(start_size)])
)
_flags = st.sampled_from(
    [frozenset(), frozenset({QualityFlag.BLURRY}), frozenset({QualityFlag.CROPPED})]
)
# Steps straddle consolidate's gap; a step of 0 repeats a timestamp.
_step = st.sampled_from([0, 1, 1000, 2500, CONSOLIDATE_GAP_MS, CONSOLIDATE_GAP_MS + 1, 9000])
_selected = st.integers(0, 4).map(lambda n: n == 0)


def _timed(rows):
    out, ts = [], 0
    for step, text, flags, selected in rows:
        ts += step
        out.append(OcrContextEntry(ts, text, flags, selected))
    return out


_entries = st.one_of(
    st.lists(st.tuples(_step, _text, _flags, _selected), max_size=12).map(_timed),
    # Merge chains: prefixes of one word list, so that a merge can
    # lengthen the kept text and change what the next entry matches.
    st.lists(
        st.tuples(_step, st.integers(2, 6).map(lambda n: " ".join("aBcdEf"[:n])), _flags, _selected),
        max_size=12,
    ).map(_timed),
    st.lists(st.tuples(_step, _window_text, _flags, _selected), max_size=12).map(_timed),
)
_THETAS = st.sampled_from([0.0, 0.5, 0.8, 1.0])


def _chain(*texts):
    return [OcrContextEntry(1000 * i, t, frozenset(), False) for i, t in enumerate(texts)]


# -- properties -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(_text, max_size=4))
def test_tokens_of_several_texts_are_the_union_of_each(texts):
    assert token_set(" ".join(texts)) == frozenset().union(*map(text_tokens, texts))


@settings(max_examples=300, deadline=None)
@given(entries=_entries, theta=_THETAS)
# The later merge wins with the longer text, whose token set the next
# entry matches and the earlier text's does not.
@example(entries=_chain("a b c d e f", "a b c d", "a b c d e", "a b c d e f"), theta=0.8)
# A length tie keeps the earlier text and its token set, which the next
# entry matches and the later text's does not.
@example(entries=_chain("a b c d e", "a b c d f", "e a b"), theta=0.5)
def test_consolidate_matches_pairwise_oracle(entries, theta):
    assert consolidate(entries, theta) == oracle_consolidate(entries, theta)


@settings(max_examples=300, deadline=None)
@given(entries=_entries, theta=_THETAS)
def test_dedup_prompt_ocr_matches_pairwise_oracle(entries, theta):
    assert dedup_prompt_ocr(entries, theta) == oracle_dedup(entries, theta)


def _payload(ts, text, selection):
    spans = tuple(TextSpan(w, Rect(0.1, 0.1, 0.1, 0.1), 0.9) for w in text.split())
    return OcrPayload(PayloadKind.TEXT_OCR, ts, spans, selection)


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, 60), st.sampled_from(["gate b12", "GATE b12 a", "a b", "exit", ""]),
                      _selected),
            max_size=8,
        ),
        min_size=1,
        max_size=3,
    ),
    theta=_THETAS,
    window=st.integers(1, 30),
)
def test_context_matches_per_query_construction(batches, theta, window):
    # Queries between ingests: each grouping's entries serve every query
    # until the next ingest, and never after it.
    timeline = SessionTimeline(theta)
    for batch in batches:
        for ts, text, selection in batch:
            timeline.ingest(_payload(ts, text, selection))
        payloads = {p.frame_ts_ms: p for p in timeline.payloads()}
        for ts in range(-1, 62, 3):
            query = QueryRecord(ts, ts, "?", QueryMode.QA)
            got = timeline.build_ocr_context(query, window)
            assert got == oracle_context(payloads, timeline.groups(), query, window)


# -- derived fields -----------------------------------------------------------


def _derived_fields_fresh(entry):
    return entry.tokens == text_tokens(entry.text) and entry.line == ocr_line(entry)


@settings(max_examples=200, deadline=None)
@given(
    entries=_entries,
    texts=st.lists(st.one_of(_text, _window_text), min_size=12, max_size=12),
    theta=_THETAS,
)
def test_derived_fields_follow_the_text_however_an_entry_is_built(entries, texts, theta):
    # Built directly, by replace(), by a consolidate merge and by a
    # replace() of every merged text.
    merged = consolidate(entries, theta)
    rewritten = [replace(e, text=t) for e, t in zip(merged, texts)]
    replaced = [replace(e, text=t) for e, t in zip(entries, reversed(texts))]
    for entry in [*entries, *replaced, *merged, *rewritten]:
        assert _derived_fields_fresh(entry)
    # Dedup decides on the rewritten texts, and the prompt shows them,
    # unless a newline would break a prompt line in two.
    kept = dedup_prompt_ocr(rewritten, theta)
    assert kept == oracle_dedup(rewritten, theta)
    query = QueryRecord(10**6, 10**6, "?", QueryMode.QA)
    if any("\n" in e.text for e in kept):
        with pytest.raises(ValueError, match="newline"):
            build_prompt(query, FramePlan((), (), ()), kept)
        return
    lines, _ = build_prompt(query, FramePlan((), (), ()), kept)
    assert lines == [*map(ocr_line, kept), "?"]


def test_a_rewrite_reaches_dedup_and_the_prompt():
    rewritten = [replace(e, text="Platform six") for e in _chain("gate b12", "exit north")]
    # The rewritten texts are identical, so the second is now a duplicate.
    assert dedup_prompt_ocr(rewritten) == rewritten[:1]
    _, prompt = build_prompt(QueryRecord(5000, 5000, "?", QueryMode.QA), FramePlan((), (), ()), rewritten)
    assert prompt.split("\n")[:2] == ["[OCR t=0ms flags=none] Platform six", "[OCR t=1000ms flags=none] Platform six"]


def test_derived_fields_take_no_part_in_equality_hashing_or_repr():
    a = OcrContextEntry(5, "Gate B12", frozenset({QualityFlag.BLURRY}), True)
    b = OcrContextEntry(5, "Gate B12", frozenset({QualityFlag.BLURRY}), True)
    object.__setattr__(b, "tokens", frozenset({"other"}))
    object.__setattr__(b, "line", "other")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.tokens == {"gate", "b12"} and a.line == "[OCR t=5ms flags=blurry;selected] Gate B12"
    # Neither can be set from outside, so neither can be given stale.
    with pytest.raises(ValueError):
        replace(a, tokens=frozenset())
    with pytest.raises(TypeError):
        OcrContextEntry(5, "Gate B12", frozenset(), False, frozenset())
