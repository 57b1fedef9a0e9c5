import random
import sys
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_normalize
from wearocr.enrich import consolidate, normalize, normalize_entries
from wearocr.model import QualityFlag
from wearocr.osm import OcrContextEntry


# Every Cc character, every whitespace character and some letters.
_NORMALIZE_ALPHABET = sorted(
    {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    | {chr(c) for c in [*range(0x20), *range(0x7F, 0xA0)]}
    | set("aZé字")
)


def entry(ts, text, flags=frozenset(), selected=False):
    return OcrContextEntry(ts_ms=ts, text=text, quality_flags=flags, is_selection=selected)


class TestNormalize:
    def test_collapses_whitespace(self):
        assert normalize("  GATE\t B12 ") == "GATE B12"

    def test_already_normal_unchanged(self):
        assert normalize("GATE B12") == "GATE B12"

    def test_strips_control_bytes(self):
        assert normalize("GA\x07TE \x00B12") == "GATE B12"

    def test_preserves_case_and_punctuation(self):
        assert normalize("Gate: B-12, now!") == "Gate: B-12, now!"

    @given(st.text(alphabet=_NORMALIZE_ALPHABET, max_size=24) | st.text(max_size=24))
    @settings(max_examples=500)
    def test_matches_regex_oracle(self, text):
        assert normalize(text) == oracle_normalize(text)

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)

    def test_normalize_entries_maps_text_only(self):
        entries = [entry(10, " a  b ", flags=frozenset({QualityFlag.BLURRY}), selected=True)]
        out = normalize_entries(entries)
        assert out == [replace(entries[0], text="a b")]

    def test_normalize_entries_keeps_normal_entries(self):
        entries = [entry(10, "a b"), entry(20, "")]
        out = normalize_entries(entries)
        assert all(o is e for o, e in zip(out, entries)) and len(out) == 2


class TestConsolidate:
    def test_near_duplicates_merge_at_later_ts(self):
        out = consolidate([entry(1000, "GATE B12"), entry(1200, "GATE B12")])
        assert out == [entry(1200, "GATE B12")]

    def test_gap_exceeded_keeps_both(self):
        entries = [entry(1000, "GATE B12"), entry(61_000, "GATE B12")]
        assert consolidate(entries) == entries

    def test_singleton_unchanged(self):
        entries = [entry(1000, "GATE B12")]
        assert consolidate(entries) == entries

    def test_merge_keeps_longer_text_and_unions_flags(self):
        out = consolidate(
            [
                entry(1000, "GATE B12 BOARDING NOW", flags=frozenset({QualityFlag.BLURRY})),
                entry(
                    1200,
                    "GATE B12 BOARDING NOW SOON",
                    flags=frozenset({QualityFlag.CROPPED}),
                ),
            ]
        )
        assert out == [
            entry(
                1200,
                "GATE B12 BOARDING NOW SOON",
                flags=frozenset({QualityFlag.BLURRY, QualityFlag.CROPPED}),
            )
        ]

    def test_merge_preserves_selection(self):
        out = consolidate([entry(1000, "sign", selected=True), entry(1200, "sign")])
        assert out[0].is_selection

    def test_dissimilar_neighbours_kept(self):
        entries = [entry(1000, "gate b12"), entry(1200, "platform six")]
        assert consolidate(entries) == entries

    def test_never_grows_never_reorders_idempotent(self):
        rng = random.Random(23)
        vocab = ["gate", "b12", "boarding", "exit", "now"]
        for _ in range(50):
            ts = 0
            entries = []
            for _ in range(rng.randint(0, 12)):
                ts += rng.randint(100, 8000)
                words = rng.sample(vocab, rng.randint(1, 4))
                entries.append(entry(ts, " ".join(words)))
            out = consolidate(entries)
            assert len(out) <= len(entries)
            assert [e.ts_ms for e in out] == sorted(e.ts_ms for e in out)
            assert consolidate(out) == out


    def test_single_pass_merge_can_leave_a_merge_for_a_second_pass(self):
        # "a b c d" does not match "a b c d e f" (4/6), but merging it with
        # "a b c d e" keeps the longer text, which does (5/6); only a
        # second pass merges that.
        entries = [entry(0, "a b c d e f"), entry(1000, "a b c d"), entry(2000, "a b c d e")]
        once = consolidate(entries)
        assert once == [entry(0, "a b c d e f"), entry(2000, "a b c d e")]
        assert consolidate(once) == [entry(2000, "a b c d e f")]

