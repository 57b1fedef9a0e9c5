import json

import pytest

from wearocr import tracefile
from wearocr.model import QueryMode, QueryRecord, validate_trace
from wearocr.tracefile import (
    FORMAT_VERSION,
    TRACE_FORMAT,
    TraceFormatError,
    TraceSpec,
    generate_frames,
    read_queries,
    read_trace,
    write_generated_trace,
    write_queries,
    write_trace,
)

SPEC = TraceSpec(
    duration_s=30,
    fps=2,
    text_density=0.632,
    blur_rate=0.02,
    similarity_run_length=1.912,
    selection_events=2,
    seed=11,
)


class TestSpecValidation:
    def test_bad_blur_rate(self):
        with pytest.raises(ValueError, match="blur_rate"):
            TraceSpec(10, 2, 0.5, 1.5, 2.0)

    def test_bad_density(self):
        with pytest.raises(ValueError, match="text_density"):
            TraceSpec(10, 2, -0.1, 0.0, 2.0)

    def test_run_length_below_one(self):
        with pytest.raises(ValueError, match="similarity_run_length"):
            TraceSpec(10, 2, 0.5, 0.0, 0.5)

    def test_bad_fps(self):
        with pytest.raises(ValueError):
            TraceSpec(10, 0, 0.5, 0.0, 2.0)

    def test_survivor_fraction_formula(self):
        spec = TraceSpec(10, 2, 0.5, 0.2, 2.0)
        # (1-0.2) * 0.5 * (1/2.0)
        assert spec.expected_survivor_fraction() == pytest.approx(0.2)


class TestGenerator:
    def test_deterministic(self):
        assert generate_frames(SPEC) == generate_frames(SPEC)

    def test_seed_changes_output(self):
        other = TraceSpec(**{**SPEC.__dict__, "seed": 12})
        assert generate_frames(other) != generate_frames(SPEC)

    def test_zero_duration_empty(self):
        assert generate_frames(TraceSpec(0, 2, 0.5, 0.1, 2.0)) == []

    def test_frame_count_and_valid(self):
        frames = generate_frames(SPEC)
        assert len(frames) == 60
        assert validate_trace(frames) == []

    def test_selection_events_applied(self):
        frames = generate_frames(SPEC)
        assert sum(f.user_selection for f in frames) == 2

    def test_text_frames_carry_words_and_detections(self):
        for frame in generate_frames(SPEC):
            assert bool(frame.detections) == bool(frame.gt_words)


class TestFileRoundTrip:
    def test_trace_round_trip(self, tmp_path):
        frames = generate_frames(SPEC)
        path = tmp_path / "trace.ndjson"
        write_trace(path, frames)
        header, back = read_trace(path)
        assert back == frames
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == FORMAT_VERSION
        assert header["frame_count"] == len(frames)

    def test_generated_trace_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_generated_trace(a, SPEC)
        write_generated_trace(b, SPEC)
        assert a.read_bytes() == b.read_bytes()

    def test_generated_header_stats(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_generated_trace(path, SPEC)
        header, _ = read_trace(path)
        stats = header["stats"]
        assert stats["seed"] == 11
        assert stats["intended_blur_rate"] == 0.02
        assert stats["expected_survivor_fraction"] == pytest.approx(
            SPEC.expected_survivor_fraction()
        )

    def test_query_round_trip(self, tmp_path):
        queries = [
            QueryRecord(10_000, 9_000, "What gate?", QueryMode.QA),
            QueryRecord(20_000, 19_000, "Translate", QueryMode.TRANSLATION, "Spanish"),
        ]
        path = tmp_path / "queries.ndjson"
        write_queries(path, queries)
        assert read_queries(path) == queries

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="missing header"):
            read_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "queries.ndjson"
        write_queries(path, [])
        with pytest.raises(TraceFormatError, match="expected format"):
            read_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text(json.dumps({"format": TRACE_FORMAT, "version": 99}) + "\n")
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_bad_header_json_rejected_and_file_closed(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tracefile, "open", recording_open, raising=False)
        path = tmp_path / "trace.ndjson"
        path.write_text("{not json\n")
        with pytest.raises(TraceFormatError, match=r"trace\.ndjson:1: not JSON"):
            read_trace(path)
        assert len(opened) == 1 and opened[0].closed

    def test_bad_third_line_names_the_line(self, tmp_path):
        frames = generate_frames(SPEC)
        path = tmp_path / "trace.ndjson"
        write_trace(path, frames)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = '{"ts_ms": 500, "truncated'
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError, match=r"trace\.ndjson:3: not JSON"):
            read_trace(path)

    def test_record_missing_field_names_the_line(self, tmp_path):
        path = tmp_path / "queries.ndjson"
        write_queries(path, [QueryRecord(10_000, 9_000, "What gate?", QueryMode.QA)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ts_ms": 20000}\n')
        with pytest.raises(TraceFormatError, match=r"queries\.ndjson:3: bad record: KeyError"):
            read_queries(path)

    def test_record_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "queries.ndjson"
        write_queries(path, [])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(TraceFormatError, match=r"queries\.ndjson:2: expected an object"):
            read_queries(path)
