import functools
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr import tracefile
from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    QueryMode,
    QueryRecord,
    Rect,
    Resolution,
    validate_trace,
)
from wearocr.tracefile import (
    FORMAT_VERSION,
    TRACE_FORMAT,
    TraceFormatError,
    TraceSpec,
    frame_from_obj,
    frame_to_obj,
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

    def test_non_utf8_byte_names_the_line(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_trace(path, generate_frames(SPEC))
        data = bytearray(path.read_bytes())
        third_line = data.index(b"\n", data.index(b"\n") + 1) + 1
        data[third_line + 5] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match=r"trace\.ndjson:3: not UTF-8 at character 6"):
            read_trace(path)

    def test_non_utf8_query_header_names_line_one(self, tmp_path):
        path = tmp_path / "queries.ndjson"
        path.write_bytes(b'{"format":"wearocr-\xc3\x28queries","version":1}\n')
        with pytest.raises(TraceFormatError, match=r"queries\.ndjson:1: not UTF-8"):
            read_queries(path)


# -- frames through the trace format ------------------------------------------

finite = st.floats(allow_nan=False)
points = st.tuples(finite, finite)


def detections():
    return st.builds(
        Detection,
        st.sampled_from(list(DetectionClass)),
        st.builds(Rect, finite, finite, finite, finite),
        finite,
        st.one_of(st.none(), st.lists(points, max_size=4).map(tuple)),
    )


def frames():
    vec3 = st.tuples(finite, finite, finite)
    return st.builds(
        FrameRecord,
        st.integers(min_value=0, max_value=2**53),
        st.sampled_from(list(Resolution)),
        st.integers(min_value=0, max_value=2**40),
        st.lists(st.builds(ImuSample, st.integers(min_value=0, max_value=2**53), vec3, vec3), max_size=4).map(tuple),
        st.lists(detections(), max_size=3).map(tuple),
        st.lists(finite, max_size=16).map(tuple),
        st.lists(st.text(max_size=8), max_size=5).map(tuple),
        st.booleans(),
    )


@given(frames())
@settings(max_examples=150)
def test_frame_round_trips_through_obj_and_json(frame):
    obj = frame_to_obj(frame)
    assert frame_from_obj(obj) == frame
    assert frame_from_obj(json.loads(json.dumps(obj))) == frame


# -- mutated and truncated files -------------------------------------------------


@functools.lru_cache(maxsize=None)
def valid_files() -> dict[str, bytes]:
    """A short trace with text, hand and keypoint detections, and its queries."""
    frames = generate_frames(SPEC)[:6]
    frames[1] = replace(
        frames[1],
        detections=(
            Detection(DetectionClass.HAND_POINTING, Rect(0.1, 0.1, 0.2, 0.2), 0.8, ((0.1, 0.2), (0.3, 0.4))),
            Detection(DetectionClass.HAND_HOLDING, Rect(0.5, 0.5, 0.2, 0.2), 0.7),
        ),
    )
    queries = [
        QueryRecord(1_000, 500, "What gate?", QueryMode.QA),
        QueryRecord(2_000, 1_500, "Traduis ça", QueryMode.TRANSLATION, "Español"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(Path(tmp) / "f", frames)
        trace = (Path(tmp) / "f").read_bytes()
        write_queries(Path(tmp) / "f", queries)
        return {"trace": trace, "queries": (Path(tmp) / "f").read_bytes()}


READERS = {"trace": read_trace, "queries": read_queries}
# Bytes that keep JSON structure plausible, so edits reach the records.
JSONISH = st.sampled_from(b'0123456789-.eE"[]{},: \ntruefalsn')


@given(
    st.sampled_from(sorted(READERS)),
    st.lists(st.tuples(st.integers(min_value=0), st.one_of(st.integers(0, 255), JSONISH)), max_size=4),
    st.one_of(st.none(), st.integers(min_value=0)),
)
@settings(max_examples=400, deadline=None)
def test_mutated_or_truncated_files_raise_only_trace_format_errors(kind, edits, cut):
    data = bytearray(valid_files()[kind])
    for position, value in edits:
        data[position % len(data)] = value
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.ndjson"
        path.write_bytes(bytes(data))
        try:
            READERS[kind](path)
        except TraceFormatError as exc:
            assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)
