import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr import ocr
from wearocr.model import Rect, Resolution
from wearocr.ocr import (
    DEFAULT_ACCURACY_ANCHORS,
    DEFAULT_LATENCY_ANCHORS,
    OcrConfig,
    ocr_latency_ms,
    run_mock_ocr,
    word_accuracy,
)


def test_anchor_tables_are_valid():
    assert set(DEFAULT_ACCURACY_ANCHORS) == set(Resolution)
    assert all(0.0 <= acc <= 1.0 for acc in DEFAULT_ACCURACY_ANCHORS.values())
    pairs = DEFAULT_LATENCY_ANCHORS
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


class TestWordAccuracy:
    @pytest.mark.parametrize(
        "resolution,expected",
        [(Resolution.MP3, 0.1980), (Resolution.MP5, 0.5644), (Resolution.MP12, 0.8904)],
    )
    def test_anchored_values(self, resolution, expected):
        assert word_accuracy(resolution) == expected


class TestLatency:
    @pytest.mark.parametrize(
        "words,expected", [(0, 341.0), (30, 396.0), (100, 1188.0), (1000, 4976.0)]
    )
    def test_exact_at_anchors(self, words, expected):
        assert ocr_latency_ms(words) == expected

    def test_midpoint_interpolation(self):
        # Midpoint of the (30,396)-(100,1188) segment.
        assert ocr_latency_ms(65) == pytest.approx(792.0)

    def test_extrapolation_keeps_last_slope(self):
        # Slope (4976-1188)/900 per word beyond 1000 words.
        assert ocr_latency_ms(1900) == pytest.approx(8764.0)

    def test_negative_word_count_rejected(self):
        with pytest.raises(ValueError):
            ocr_latency_ms(-1)

    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert ocr_latency_ms(lo) <= ocr_latency_ms(hi)

    def test_continuity_at_anchors(self):
        for anchor in (30, 100, 1000):
            below, above = ocr_latency_ms(anchor - 1), ocr_latency_ms(anchor + 1)
            at = ocr_latency_ms(anchor)
            assert below <= at <= above
            assert above - below < 20.0


WORDS = ("gate", "b12", "boarding", "at", "1845", "platform", "6")


class TestMockOcr:
    def test_empty_input(self):
        result = run_mock_ocr((), Resolution.MP12, None, OcrConfig(seed=1), 100)
        assert result.spans == ()
        assert ocr_latency_ms(result.words_attempted) == 341.0
        assert result.words_attempted == 0

    def test_certainty_case(self, monkeypatch):
        monkeypatch.setitem(ocr.DEFAULT_ACCURACY_ANCHORS, Resolution.MP3, 1.0)
        result = run_mock_ocr(WORDS, Resolution.MP3, None, OcrConfig(seed=9), 100)
        assert result.words_correct == result.words_attempted == len(WORDS)
        assert tuple(s.text for s in result.spans) == WORDS

    def test_determinism(self):
        config = OcrConfig(seed=42)
        a = run_mock_ocr(WORDS, Resolution.MP5, Rect(0.1, 0.1, 0.5, 0.5), config, 777)
        b = run_mock_ocr(WORDS, Resolution.MP5, Rect(0.1, 0.1, 0.5, 0.5), config, 777)
        assert a == b

    def test_different_frames_differ(self):
        config = OcrConfig(seed=42)
        outs = {
            tuple(s.text for s in run_mock_ocr(WORDS * 5, Resolution.MP5, None, config, ts).spans)
            for ts in range(50)
        }
        assert len(outs) > 1

    def test_corruption_is_single_char_substitution(self):
        config = OcrConfig(seed=7)
        result = run_mock_ocr(WORDS * 40, Resolution.MP3, None, config, 5)
        gt = WORDS * 40
        wrong = [(g, s.text) for g, s in zip(gt, result.spans) if s.text != g]
        assert wrong, "MP3 accuracy should corrupt some tokens"
        for truth, out in wrong:
            assert len(out) == len(truth)
            assert sum(1 for a, b in zip(truth, out) if a != b) == 1

    def test_binomial_convergence_at_mp12(self):
        config = OcrConfig(seed=7)
        tokens = tuple(f"w{i}" for i in range(1000))
        result = run_mock_ocr(tokens, Resolution.MP12, None, config, 123)
        p = 0.8904
        sigma = (p * (1 - p) / 1000) ** 0.5
        assert abs(result.words_correct / 1000 - p) <= 3 * sigma

    def test_span_confidence_matches_accuracy(self):
        result = run_mock_ocr(WORDS, Resolution.MP5, None, OcrConfig(seed=1), 9)
        assert all(s.conf == 0.5644 for s in result.spans)

    def test_latency_tracks_word_count(self):
        result = run_mock_ocr(("a",) * 30, Resolution.MP12, None, OcrConfig(seed=1), 9)
        assert ocr_latency_ms(result.words_attempted) == 396.0


class TestSubstitute:
    """A mis-read character becomes its confusion, or else the next ASCII
    printable character, whatever the Unicode database says of it."""

    def test_every_ascii_printable_character(self):
        for code in range(0x20, 0x7F):
            ch = chr(code)
            expected = ocr._CONFUSIONS.get(ch, chr(33 + (ord(ch) - 32) % 94))
            assert ocr._corrupt(ch, 1, 0, 0) == expected, repr(ch)
        assert [ocr._corrupt(ch, 1, 0, 0) for ch in "az~ "] == ["b", "{", "!", "!"]

    @pytest.mark.parametrize(
        "ch,expected",
        # Unassigned before Unicode 14 (Python 3.10), private use, soft hyphen:
        # none is printable to some supported Python.
        [("\u0870", "]"), ("\ue000", "c"), ("\u00ad", "P")],
    )
    def test_characters_beyond_ascii(self, ch, expected):
        assert ocr._corrupt(ch, 1, 0, 0) == expected == chr(33 + (ord(ch) - 32) % 94)

    def test_mis_read_word_beyond_ascii(self):
        config = OcrConfig(seed=1)
        ts = next(ts for ts in range(100) if run_mock_ocr(("x",), Resolution.MP3, None, config, ts).words_correct == 0)
        assert run_mock_ocr(("\u0870",), Resolution.MP3, None, config, ts).spans[0].text == "]"

    @given(st.characters(blacklist_categories=()), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_substitute_is_another_ascii_printable_character(self, ch, ts):
        sub = ocr._corrupt(ch, 1, ts, 0)
        assert len(sub) == 1 and "!" <= sub <= "~" and sub != ch
