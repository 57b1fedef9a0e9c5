import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_context,
    oracle_get,
    oracle_get_batch,
    oracle_groups,
    oracle_min_overlap,
    oracle_sizes_match,
    select_exemplar,
    span_texts,
    text_similarity,
)
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, QueryMode, QueryRecord, Rect, TextSpan
from wearocr import osm
from wearocr.osm import SessionTimeline, _exemplar_key, near_duplicate, size_bounds
from wearocr.replay import ShuffleConfig, SimConfig, replay
from wearocr.tracefile import TraceSpec, generate_frames


def text_payload(ts, text, selection=False, conf=0.9, flags=frozenset()):
    spans = tuple(
        TextSpan(text=w, bbox=Rect(0.1 * i, 0.1, 0.1, 0.1), conf=conf)
        for i, w in enumerate(text.split())
    )
    return OcrPayload(
        kind=PayloadKind.TEXT_OCR, frame_ts_ms=ts, spans=spans,
        selection=selection, quality_flags=flags,
    )


def empty_payload(ts, kind=PayloadKind.NO_TEXT, selection=False):
    return OcrPayload(kind=kind, frame_ts_ms=ts, selection=selection)


def query_at(ts):
    return QueryRecord(ts_ms=ts, speech_start_ms=ts, question="?", mode=QueryMode.QA)


class TestTextSimilarity:
    def test_identical(self):
        assert text_similarity(["gate b12"], ["gate b12"]) == 1.0

    def test_disjoint(self):
        assert text_similarity(["alpha beta"], ["gamma delta"]) == 0.0

    def test_half_overlap(self):
        assert text_similarity(["gate b12 boarding"], ["gate b12 closed"]) == 0.5

    def test_both_empty(self):
        assert text_similarity([], []) == 1.0

    def test_case_insensitive(self):
        assert text_similarity(["GATE"], ["gate"]) == 1.0


class TestSelectExemplar:
    def test_singleton(self):
        p = text_payload(10, "hello")
        assert select_exemplar([p]) == 10

    def test_longest_text_wins(self):
        short = text_payload(10, "twelve chars", conf=0.9)   # 12 chars total
        long = text_payload(20, "twenty characters al", conf=0.5)
        assert sum(len(s.text) for s in long.spans) > sum(len(s.text) for s in short.spans)
        assert select_exemplar([short, long]) == 20

    def test_tie_breaks_on_confidence(self):
        low = text_payload(10, "0123456789", conf=0.6)
        high = text_payload(20, "abcdefghij", conf=0.9)
        assert select_exemplar([low, high]) == 20
        assert select_exemplar([high, low]) == 20

    def test_final_tie_breaks_on_latest_ts(self):
        a = text_payload(10, "same text", conf=0.8)
        b = text_payload(30, "text same", conf=0.8)
        assert select_exemplar([a, b]) == 30

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            select_exemplar([])

    def test_mean_confidence_adds_left_to_right(self):
        # Seven spans at an MP12 frame's confidence: ``sum()`` gives a mean
        # of 0.8903999999999999 on Python 3.10 and 3.11, 0.8904 from 3.12 on.
        seven = text_payload(10, "a b c d e f g", conf=0.8904)
        one = text_payload(5, "abcdefg", conf=0.8904)
        assert _exemplar_key(seven) == (7, 0.8903999999999999, 10)
        assert _exemplar_key(one) == (7, 0.8904, 5)
        assert select_exemplar([seven, one]) == 5


class TestIngestAndGrouping:
    def test_ingest_into_empty(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "gate b12"))
        groups = timeline.groups()
        assert len(groups) == 1
        assert groups[0].members == (10,)

    def test_similar_payloads_group_with_latest_ts(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "GATE B12"))
        timeline.ingest(text_payload(20, "GATE B12"))
        groups = timeline.groups()
        assert len(groups) == 1
        assert groups[0].group_latest_ts == 20

    def test_selection_forms_singleton_despite_identical_text(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "GATE B12"))
        timeline.ingest(text_payload(15, "GATE B12", selection=True))
        groups = timeline.groups()
        assert len(groups) == 2

    def test_dissimilar_payloads_stay_apart(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "gate b12"))
        timeline.ingest(text_payload(20, "menu of the day"))
        assert len(timeline.groups()) == 2

    def test_group_soundness_at_join_time(self):
        # Replay the greedy grouping independently: every non-first
        # member must have matched its group's exemplar as it stood when
        # the member joined.
        rng = random.Random(5)
        vocab = ["gate", "b12", "menu", "exit", "open", "closed", "platform", "six"]
        timeline = SessionTimeline()
        for ts in range(0, 400, 4):
            words = " ".join(rng.sample(vocab, rng.randint(1, 4)))
            timeline.ingest(text_payload(ts, words))
        threshold = timeline.theta_text
        for group in timeline.groups():
            members = [timeline._payloads[ts] for ts in sorted(group.members)]
            running = [members[0]]
            for member in members[1:]:
                exemplar_ts = select_exemplar(running)
                exemplar = next(p for p in running if p.frame_ts_ms == exemplar_ts)
                assert text_similarity(span_texts(member), span_texts(exemplar)) >= threshold
                running.append(member)

    def test_equal_timestamp_last_writer_wins(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "first"))
        timeline.ingest(text_payload(10, "second"))
        assert timeline.get(10).text() == "second"
        assert len(timeline.payloads()) == 1


class TestGet:
    def test_exact_text_payload_returned_verbatim(self):
        timeline = SessionTimeline()
        p = text_payload(50, "hello world")
        timeline.ingest(p)
        assert timeline.get(50) == p

    def test_fallback_rewrites_timestamp(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "HELLO"))
        timeline.ingest(empty_payload(20, PayloadKind.BLURRY))
        result = timeline.get(20)
        assert result.kind is PayloadKind.TEXT_OCR
        assert result.text() == "HELLO"
        assert result.frame_ts_ms == 20

    def test_empty_timeline_synthesizes(self):
        result = SessionTimeline().get(5)
        assert result.kind is PayloadKind.NO_TEXT
        assert result.frame_ts_ms == 5
        assert result.synthesized

    def test_no_text_at_exact_ts_is_valid(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "hello"))
        timeline.ingest(empty_payload(20, PayloadKind.NO_TEXT))
        result = timeline.get(20)
        assert result.kind is PayloadKind.NO_TEXT
        assert not result.synthesized


def random_payload(rng, ts):
    kind = rng.choice(list(PayloadKind))
    if kind is PayloadKind.TEXT_OCR:
        vocab = ["gate", "b12", "exit", "menu", "open", "closed"]
        words = " ".join(rng.sample(vocab, rng.randint(1, 3)))
        return text_payload(ts, words, selection=rng.random() < 0.1)
    return empty_payload(ts, kind, selection=rng.random() < 0.05)


class TestOracleEquivalence:
    def test_get_matches_brute_force(self):
        rng = random.Random(1234)
        for _ in range(20):
            n = rng.randint(0, 200)
            ts_values = rng.sample(range(0, 5000), n)
            payloads = [random_payload(rng, ts) for ts in ts_values]
            timeline = SessionTimeline()
            for p in rng.sample(payloads, len(payloads)):
                timeline.ingest(p)
            for _ in range(200):
                t = rng.randint(-10, 5100)
                assert timeline.get(t) == oracle_get(payloads, t)

    def test_batch_nonempty_guarantee(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(1, 100)
            ts_values = rng.sample(range(0, 3000), n)
            payloads = [random_payload(rng, ts) for ts in ts_values]
            timeline = SessionTimeline()
            for p in payloads:
                timeline.ingest(p)
            has_text = any(p.kind is PayloadKind.TEXT_OCR for p in payloads)
            batch_ts = [rng.randint(0, 3000) for _ in range(rng.randint(1, 8))]
            results = timeline.get_batch(batch_ts)
            if has_text:
                assert any(
                    r.kind is PayloadKind.TEXT_OCR and not r.synthesized for r in results
                )


class TestGetBatch:
    def test_same_group_deduplicated_to_fresher(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(20, "gate b12"))
        timeline.ingest(text_payload(30, "gate b12"))
        results = timeline.get_batch([20, 30])
        text_results = [r for r in results if r.kind is PayloadKind.TEXT_OCR]
        assert len(text_results) == 1
        assert text_results[0].frame_ts_ms == 30
        # Deduplicated slot is degraded, order preserved.
        assert results[0].synthesized
        assert results[0].frame_ts_ms == 20

    def test_text_after_all_requests_appended_for_guarantee(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(500, "late arrival"))
        results = timeline.get_batch([10, 20])
        assert results[-1].kind is PayloadKind.TEXT_OCR
        assert results[-1].frame_ts_ms == 500

    def test_exact_hit_returned(self):
        timeline = SessionTimeline()
        p = text_payload(10, "exact")
        timeline.ingest(p)
        assert timeline.get_batch([10]) == [p]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            SessionTimeline().get_batch([])

    def test_guarantee_prefers_latest_before_max(self):
        timeline = SessionTimeline()
        timeline.ingest(empty_payload(50, PayloadKind.NO_TEXT))
        timeline.ingest(text_payload(20, "before max"))
        timeline.ingest(text_payload(90, "after max"))
        # The request hits the empty payload exactly; the appended
        # guarantee entry is the latest text payload at or before 50.
        results = timeline.get_batch([50])
        assert results[0].kind is PayloadKind.NO_TEXT
        assert results[-1].kind is PayloadKind.TEXT_OCR
        assert results[-1].frame_ts_ms == 20


class TestBuildOcrContext:
    def test_two_groups_ascending(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(100, "first sign"))
        timeline.ingest(text_payload(200, "other text"))
        entries = timeline.build_ocr_context(query_at(300), window_ms=1000)
        assert [e.ts_ms for e in entries] == [100, 200]

    def test_only_latest_selection_keeps_flag(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "first pick", selection=True))
        timeline.ingest(text_payload(40, "second pick", selection=True))
        entries = timeline.build_ocr_context(query_at(100), window_ms=1000)
        flags = {e.ts_ms: e.is_selection for e in entries}
        assert flags == {10: False, 40: True}

    def test_entry_uses_exemplar_text_at_group_latest_ts(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "gate b12 boarding now soon", conf=0.9))
        timeline.ingest(text_payload(30, "gate b12 boarding now", conf=0.9))
        entries = timeline.build_ocr_context(query_at(100), window_ms=1000)
        assert len(entries) == 1
        assert entries[0].ts_ms == 30
        assert entries[0].text == "gate b12 boarding now soon"

    def test_window_filters_stale_groups(self):
        timeline = SessionTimeline()
        timeline.ingest(text_payload(10, "old"))
        timeline.ingest(text_payload(5000, "fresh"))
        entries = timeline.build_ocr_context(query_at(5100), window_ms=1000)
        assert [e.text for e in entries] == ["fresh"]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SessionTimeline().build_ocr_context(query_at(10), window_ms=0)


class TestOrderInsensitivity:
    def test_permutations_identical_results(self):
        rng = random.Random(2024)
        for _ in range(15):
            n = rng.randint(1, 40)
            ts_values = rng.sample(range(0, 2000), n)
            payloads = [random_payload(rng, ts) for ts in ts_values]
            reference = None
            for _ in range(4):
                order = rng.sample(payloads, len(payloads))
                timeline = SessionTimeline()
                for p in order:
                    timeline.ingest(p)
                snapshot = (
                    tuple(timeline.build_ocr_context(query_at(2000), window_ms=2500)),
                    tuple(timeline.get(t) for t in range(0, 2000, 97)),
                    tuple(timeline.get_batch([100, 900, 1700])),
                )
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference


def spans_payload(ts, texts, selection=False, conf=0.9, kind=PayloadKind.TEXT_OCR):
    spans = tuple(
        TextSpan(text=t, bbox=Rect(0.1, 0.1, 0.1, 0.1), conf=conf) for t in texts
    )
    return OcrPayload(kind=kind, frame_ts_ms=ts, spans=spans, selection=selection)


def grouped(theta, *payloads):
    timeline = SessionTimeline(theta)
    for p in payloads:
        timeline.ingest(p)
    return [g.members for g in timeline.groups()]


class TestGroupingEdgeCases:
    @pytest.mark.parametrize("theta", [0.0, -0.5])
    def test_nonpositive_threshold_joins_first_open_group(self, theta):
        groups = grouped(
            theta,
            text_payload(10, "alpha", selection=True),
            text_payload(20, "beta"),
            text_payload(30, "gamma delta"),
            spans_payload(40, [" "]),
        )
        assert groups == [(10,), (20, 30, 40)]

    def test_empty_token_sets_match_only_each_other(self):
        groups = grouped(
            0.8,
            spans_payload(10, ["  "]),
            text_payload(20, "gate"),
            spans_payload(30, []),
            spans_payload(40, ["", "\t"]),
        )
        assert groups == [(10, 30, 40), (20,)]

    @pytest.mark.parametrize("theta", [1.0000001, 1.5])
    def test_threshold_above_one_matches_nothing(self, theta):
        groups = grouped(theta, spans_payload(10, [" "]), spans_payload(20, [" "]),
                         text_payload(30, "gate"), text_payload(40, "gate"))
        assert groups == [(10,), (20,), (30,), (40,)]

    def test_exact_threshold_one_groups_identical_sets(self):
        groups = grouped(1.0, text_payload(10, "gate b12"), text_payload(20, "B12 gate"),
                         text_payload(30, "gate b12 open"))
        assert groups == [(10, 20), (30,)]

    def test_match_follows_exemplar_change(self):
        # 30 matches the exemplar taken over from 20, not the founding 10.
        groups = grouped(
            0.5,
            text_payload(10, "a b"),
            text_payload(20, "a b c"),
            text_payload(30, "b c d"),
        )
        assert groups == [(10, 20, 30)]

    def test_join_goes_to_earliest_matching_group(self):
        # "y x" matches group 3 ("x") and group 9 ("y"); creation order wins.
        payloads = [text_payload(ts, f"w{ts}") for ts in (0, 1, 2, 4, 5, 6, 7, 8)]
        payloads += [text_payload(3, "x"), text_payload(9, "y"), text_payload(10, "y x")]
        groups = grouped(0.5, *payloads)
        assert groups[3] == (3, 10)
        assert len(groups) == 10


_WORDS = ["gate", "b12", "exit", "menu", "open", "closed", "Platform", "six", "north", "SALE",
          "zone", "a7", "track", "level", "floor", "lift", "stairs", "toilet", "cafe", "bus",
          "taxi", "metro", "ticket", "office", "pharmacy", "bank", "hotel", "street", "road", "east",
          "west", "south", "push", "pull", "stop", "slow", "danger", "wet", "paint", "Room"]
# One-character variants ("gate" / "gatf", "b12" / "b13"), as an OCR
# misread gives: distinct tokens of the same length.
_VOCAB = _WORDS + [w[:-1] + chr(ord(w[-1]) + 1) for w in _WORDS]


class TestNearDuplicateRule:
    @settings(max_examples=500, deadline=None)
    @given(
        a=st.frozensets(st.sampled_from(_VOCAB).map(str.lower), max_size=12),
        keep=st.integers(0, 12),
        extra=st.frozensets(st.sampled_from(_VOCAB).map(str.lower), max_size=3),
        theta=st.sampled_from([-1, 0, 0.5, 0.8, 1, 1.5]),
    )
    # Two empty sets are identical: they match at theta = 1, not above.
    @example(a=frozenset(), keep=0, extra=frozenset(), theta=1)
    @example(a=frozenset(), keep=0, extra=frozenset(), theta=1.5)
    def test_matches_similarity_and_no_filter_rejects_a_match(self, a, keep, extra, theta):
        # b shares up to ``keep`` tokens with a, so pairs often match.
        b = frozenset(sorted(a)[:keep]) | extra
        common = len(a & b)
        match = near_duplicate(common, len(a), len(b), theta)
        assert match == (text_similarity([" ".join(a)], [" ".join(b)]) >= theta)
        if match:
            # The size bounds, and the prefix filter's overlap bound.
            lo, hi = size_bounds(len(a), theta)
            assert lo <= len(b) <= hi
            for size in filter(None, (len(a), len(b))):
                assert common >= size_bounds(size, theta)[0]


class TestSizeBounds:
    @pytest.mark.parametrize("theta", [-1, -0.0, 0, 1e-300, 0.3, 0.5, 0.8, 0.9, 1, 1.5, math.nan])
    def test_match_brute_force(self, theta):
        for n in range(81):
            lo, hi = size_bounds(n, theta)
            assert lo == oracle_min_overlap(n, theta), n
            assert [m for m in range(81) if lo <= m <= hi] == [
                m for m in range(81) if oracle_sizes_match(n, m, theta)
            ], n
            if hi == math.inf:
                assert oracle_sizes_match(n, 10**400, theta)
            elif lo <= hi:  # the largest size that can match, however far past 80
                assert oracle_sizes_match(n, hi, theta) and not oracle_sizes_match(n, hi + 1, theta), n

    def test_constant_work_for_any_size(self, monkeypatch):
        # Bounds from a table or a scan of the sizes would never finish here.
        calls = []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 8, calls
            return near_duplicate(*args)

        monkeypatch.setattr(osm, "near_duplicate", counted)
        size_bounds.cache_clear()
        try:
            assert size_bounds(10**12, 0.8) == (8 * 10**11, 125 * 10**10)
        finally:
            size_bounds.cache_clear()
        assert calls


# Each example draws its words from a few of the vocabulary's, so that
# payloads share tokens and match at every threshold.
_span_words = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=16, unique=True)
_kinds = st.sampled_from(
    [PayloadKind.TEXT_OCR] * 6 + [k for k in PayloadKind if k is not PayloadKind.TEXT_OCR]
)


@st.composite
def _payload(draw, words):
    # Up to 4 spans of up to 3 tokens: up to 12 tokens per payload.
    span_text = st.one_of(
        st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join),
        st.sampled_from(["", " ", " \t\n "]),
    )
    kind = draw(_kinds)
    texts = draw(st.lists(span_text, max_size=4)) if kind is PayloadKind.TEXT_OCR else []
    return spans_payload(
        draw(st.integers(0, 80)),
        texts,
        selection=draw(st.integers(0, 9)) == 0,
        conf=draw(st.sampled_from([0.5, 0.9])),
        kind=kind,
    )


class TestIndexedGroupingOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        ingested=_span_words.flatmap(lambda words: st.lists(_payload(words), max_size=40)),
        theta=st.sampled_from([-0.5, 0.0, 0.5, 0.8, 1.0, 1.5]),
        queries=st.lists(st.tuples(st.integers(-5, 90), st.integers(1, 50)), max_size=4),
        data=st.data(),
    )
    def test_matches_brute_force(self, ingested, theta, queries, data):
        final = {p.frame_ts_ms: p for p in ingested}  # later writes replace
        expected = oracle_groups(final, theta)
        timeline = SessionTimeline(theta)
        for p in ingested:
            timeline.ingest(p)
        shuffled = SessionTimeline(theta)
        for p in data.draw(st.permutations(list(final.values()))):
            shuffled.ingest(p)

        assert timeline.groups() == expected
        assert shuffled.groups() == expected
        for ts in range(-1, 82):
            assert timeline.group_of(ts) == next(
                (g for g in expected if ts in g.members), None
            )
        for ts, window in queries:
            query = query_at(ts)
            assert timeline.build_ocr_context(query, window) == oracle_context(
                final, expected, query, window
            )


@st.composite
def _any_payload(draw):
    """A payload of any kind at one of a few timestamps, so that later
    writes replace earlier ones, text and textless either way round.
    TEXT_OCR payloads may have no spans; every field the store keys
    textless payloads by varies."""
    kind = draw(st.sampled_from(list(PayloadKind)))
    texts = draw(st.lists(st.sampled_from(["gate b12", "Gate", "exit", " "]), max_size=3))
    conf = draw(st.sampled_from([0.5, 0.9]))
    return OcrPayload(
        kind=kind,
        frame_ts_ms=10 * draw(st.integers(0, 12)),
        spans=tuple(TextSpan(t, Rect(0.1, 0.1, 0.1, 0.1), conf) for t in texts)
        if kind is PayloadKind.TEXT_OCR else (),
        selection=draw(st.integers(0, 4)) == 0,
        quality_flags=draw(
            st.sampled_from([frozenset(), frozenset([QualityFlag.BLURRY]), frozenset(QualityFlag)])
        ),
        synthesized=draw(st.integers(0, 4)) == 0,
    )


class TestStoreMatchesPlainDict:
    @settings(max_examples=200, deadline=None)
    @given(
        ingested=st.lists(_any_payload(), max_size=30),
        theta=st.sampled_from([0.5, 0.8, 1.0]),
        batches=st.lists(st.lists(st.integers(-5, 135), min_size=1, max_size=6), max_size=4),
        queries=st.lists(st.tuples(st.integers(-5, 135), st.integers(1, 60)), max_size=4),
    )
    @example(
        ingested=[
            text_payload(10, "gate b12"), empty_payload(10, PayloadKind.BLURRY),
            empty_payload(20, PayloadKind.SIMILAR_SCENE), text_payload(20, "exit"),
            empty_payload(30), spans_payload(40, []), empty_payload(50), spans_payload(60, []),
        ],
        theta=0.8, batches=[[10, 20, 35, 45, 55]], queries=[(60, 60)],
    )
    def test_retrieval_matches_the_oracle(self, ingested, theta, batches, queries):
        final = {p.frame_ts_ms: p for p in ingested}  # later writes replace
        groups = oracle_groups(final, theta)
        timeline = SessionTimeline(theta)
        for p in ingested:
            timeline.ingest(p)

        assert timeline.payloads() == [final[ts] for ts in sorted(final)]
        for t in range(-5, 136):
            assert timeline.get(t) == oracle_get(list(final.values()), t)
        for batch in batches:
            assert timeline.get_batch(batch) == oracle_get_batch(final, groups, batch)
        assert timeline.groups() == groups
        for ts, window in queries:
            query = query_at(ts)
            assert timeline.build_ocr_context(query, window) == oracle_context(final, groups, query, window)


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), _any_payload()),
        st.tuples(st.just("get"), st.integers(-5, 135)),
        st.tuples(st.just("get_batch"), st.lists(st.integers(-5, 135), min_size=1, max_size=4)),
        st.tuples(st.just("group_of"), st.integers(-5, 135)),
    ),
    max_size=40,
)


class TestViewsBuiltOnDemand:
    """Retrieval's views are built on the first ``get``, ``get_batch`` or
    ``group_of`` after an ingest; every answer is the oracles' for the
    payloads stored so far."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps, theta=st.sampled_from([0.5, 0.8, 1.0]))
    @example(
        steps=[
            ("ingest", text_payload(10, "gate b12")), ("group_of", 10), ("get", 15), ("get_batch", [10, 15]),
            ("ingest", empty_payload(10)), ("group_of", 10), ("get", 15), ("get_batch", [10, 15]),
            ("ingest", text_payload(10, "exit now")), ("get_batch", [15]), ("group_of", 10), ("get", 15),
        ],
        theta=0.8,
    )
    def test_answers_between_ingests_match_the_oracles(self, steps, theta):
        timeline = SessionTimeline(theta)
        stored = {}
        for op, arg in steps:
            if op == "ingest":
                timeline.ingest(arg)
                stored[arg.frame_ts_ms] = arg  # a later payload replaces one at its ts
            elif op == "get":
                assert timeline.get(arg) == oracle_get(list(stored.values()), arg)
            elif op == "get_batch":
                assert timeline.get_batch(arg) == oracle_get_batch(stored, oracle_groups(stored, theta), arg)
            else:
                groups = oracle_groups(stored, theta)
                assert timeline.group_of(arg) == next((g for g in groups if arg in g.members), None)


def test_replay_builds_no_retrieval_view(monkeypatch):
    built = []
    for name in ("valid_ts", "group_by_ts"):
        build = getattr(osm._Views, name).func

        def recording(views, build=build, name=name):
            built.append(name)
            return build(views)

        monkeypatch.setattr(osm._Views, name, property(recording))
    spec = TraceSpec(
        duration_s=120, fps=2, text_density=0.632, blur_rate=0.02, similarity_run_length=1.912,
        selection_events=3, seed=5,
    )
    queries = [query_at(ts) for ts in range(10_000, 120_001, 10_000)]
    result = replay(generate_frames(spec), queries, SimConfig(seed=3, shuffle=ShuffleConfig(enabled=True)))
    assert any("[OCR t=" in p.text for p in result.prompts)
    assert built == []
    # The probe sees retrieval build each view.
    result.timeline.get(60_000)
    result.timeline.group_of(60_000)
    assert built == ["valid_ts", "group_by_ts"]
