"""The per-query path against its pairwise ``text_similarity`` form.

``consolidate`` and ``dedup_prompt_ocr`` compute each text's token set
once and test the sets with ``near_duplicate(len(a & b), len(a), len(b), theta)``.
The oracles below are the straightforward forms that call
``text_similarity`` on every pair, re-tokenizing both texts each time;
the properties require ``==``, so every merge and drop decision, and
every kept text, must be the same.  ``build_ocr_context`` hands out
entries built once per grouping, so it is checked against a per-query
construction from ``groups()`` across ingests.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wearocr.enrich import consolidate
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, QueryMode, QueryRecord, Rect, TextSpan
from wearocr.osm import OcrContextEntry, SessionTimeline, text_similarity, token_set
from wearocr.prompt import dedup_prompt_ocr

# -- oracles ----------------------------------------------------------------


def oracle_consolidate(entries, gap_ms=5000, threshold=0.8):
    out = []
    for entry in entries:
        if (
            out
            and entry.ts_ms - out[-1].ts_ms <= gap_ms
            and text_similarity([out[-1].text], [entry.text]) >= threshold
        ):
            prev = out[-1]
            longer = prev.text if len(prev.text) >= len(entry.text) else entry.text
            out[-1] = OcrContextEntry(
                ts_ms=entry.ts_ms,
                text=longer,
                quality_flags=prev.quality_flags | entry.quality_flags,
                is_selection=prev.is_selection or entry.is_selection,
            )
        else:
            out.append(entry)
    return out


def oracle_dedup(entries, threshold=0.8):
    retained = []
    for entry in entries:
        if entry.is_selection:
            retained.append(entry)
            continue
        if any(text_similarity([entry.text], [kept.text]) >= threshold for kept in retained):
            continue
        retained.append(entry)
    return retained


def oracle_context(timeline, query, window_ms):
    """One entry per group of ``groups()`` whose latest member is in the window."""
    payloads = {p.frame_ts_ms: p for p in timeline.payloads()}
    selections = [ts for ts, p in payloads.items() if p.selection]
    latest_selection = max(selections) if selections else None
    entries = []
    for group in timeline.groups():
        latest = group.group_latest_ts
        if query.ts_ms - window_ms <= latest <= query.ts_ms:
            exemplar = payloads[group.exemplar_ts]
            entries.append(
                OcrContextEntry(
                    ts_ms=latest,
                    text=exemplar.text(),
                    quality_flags=exemplar.quality_flags,
                    is_selection=group.is_selection and latest == latest_selection,
                )
            )
    return sorted(entries, key=lambda e: e.ts_ms)


# -- inputs -----------------------------------------------------------------

# Few words with case variants, so that texts often share tokens, tie on
# length ("gate b12" / "B12 GATE") and grow by one word ("a b c d" /
# "a b c d e"); a final sigma and a letter that lowercases to two
# characters test that joining texts with a space keeps each token.
_WORDS = ["a", "b", "c", "d", "e", "f", "A", "B", "gate", "GATE", "Gate", "b12", "B12", "ΟΔΟΣ", "οδοσ", "İ"]
_SEPARATORS = [" ", "  ", "\t", "\n", "\x1f"]
_ODD_TEXTS = ["", " ", "\t \n", "\x00", "\x07", "a\x00b", "a\x1fb", "GATE\x07 b12"]


_text = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_WORDS)), max_size=6
    ).map(lambda pairs: "".join(sep + word for sep, word in pairs)),
    st.sampled_from(_ODD_TEXTS),
)
_flags = st.sampled_from(
    [frozenset(), frozenset({QualityFlag.BLURRY}), frozenset({QualityFlag.CROPPED})]
)
# Steps straddle consolidate's default 5 s gap; a step of 0 repeats a
# timestamp.
_step = st.sampled_from([0, 1, 1000, 2500, 5000, 5001, 9000])
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
)
_THETAS = st.sampled_from([0.0, 0.5, 0.8, 1.0])


def _chain(*texts):
    return [OcrContextEntry(1000 * i, t, frozenset(), False) for i, t in enumerate(texts)]


# -- properties -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(_text, max_size=4))
def test_tokens_of_several_texts_are_the_union_of_each(texts):
    assert token_set(" ".join(texts)) == frozenset().union(*map(token_set, texts))


@settings(max_examples=300, deadline=None)
@given(entries=_entries, theta=_THETAS, gap_ms=st.sampled_from([0, 1000, 5000]))
# The later merge wins with the longer text, whose token set the next
# entry matches and the earlier text's does not.
@example(entries=_chain("a b c d e f", "a b c d", "a b c d e", "a b c d e f"), theta=0.8, gap_ms=5000)
# A length tie keeps the earlier text and its token set, which the next
# entry matches and the later text's does not.
@example(entries=_chain("a b c d e", "a b c d f", "e a b"), theta=0.5, gap_ms=5000)
def test_consolidate_matches_pairwise_oracle(entries, theta, gap_ms):
    assert consolidate(entries, gap_ms, theta) == oracle_consolidate(entries, gap_ms, theta)


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
        for ts in range(-1, 62, 3):
            query = QueryRecord(ts, ts, "?", QueryMode.QA)
            assert timeline.build_ocr_context(query, window) == oracle_context(timeline, query, window)
