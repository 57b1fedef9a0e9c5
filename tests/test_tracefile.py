import contextlib
import decimal
import enum
import functools
import gc
import io
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wearocr import tracefile
from wearocr.cli import main
from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    QueryMode,
    QueryRecord,
    Rect,
    Resolution,
    line_fault,
    validate_trace,
    word_fault,
)
from wearocr.tracefile import (
    FORMAT_VERSION,
    TRACE_FORMAT,
    TraceFormatError,
    TraceSpec,
    frame_from_obj,
    generate_frames,
    read_queries,
    read_trace,
    write_generated_trace,
    write_queries,
    write_trace,
)
from wearocr.replay import ReplayError, replay

from oracles import oracle_read_objects


def frame_to_obj(frame: FrameRecord) -> dict:
    """The object form of a frame line, built field by field: the oracle
    for ``write_trace``, whose lines must equal its canonical JSON."""
    return {
        "ts_ms": frame.ts_ms,
        "resolution": frame.resolution.value,
        "exposure_us": frame.exposure_us,
        "imu": [
            [s.ts_us, list(s.gyro), list(s.accel)] for s in frame.imu
        ],
        "detections": [
            {
                "cls": d.cls.value,
                "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
                "conf": d.conf,
                **({"keypoints": [list(k) for k in d.keypoints]} if d.keypoints is not None else {}),
            }
            for d in frame.detections
        ],
        "scene_sig": list(frame.scene_sig),
        "gt_words": list(frame.gt_words),
        "user_selection": frame.user_selection,
    }


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

    @pytest.mark.parametrize("field", ["duration_s", "fps", "similarity_run_length"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            replace(SPEC, **{field: value})

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
        with pytest.raises(TraceFormatError, match=r"queries\.ndjson:3: missing field speech_start_ms$"):
            read_queries(path)

    def test_byte_order_mark_is_named_as_json_loads_names_it(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        line = "\ufeff" + json.dumps({"format": TRACE_FORMAT, "version": FORMAT_VERSION})
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as loads_error:
            json.loads(line)
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == f"{path}:1: not JSON: {loads_error.value.msg}"

    @pytest.mark.parametrize(
        ("count", "message"),
        [
            (3, "header frame_count 3, but the file holds 2 frames"),
            ("2", "header frame_count: expected integer, got str"),
            (2.0, "header frame_count: expected integer, got float"),
            (True, "header frame_count: expected integer, got bool"),
            (None, "header frame_count: expected integer, got NoneType"),
        ],
    )
    def test_header_frame_count_must_be_the_frames_read(self, tmp_path, count, message):
        path = tmp_path / "trace.ndjson"
        frames = generate_frames(SPEC)[:2]
        write_trace(path, frames)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        assert header["frame_count"] == 2
        assert read_trace(path) == (header, frames)
        # A header without the key is read as before.
        del header["frame_count"]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        assert read_trace(path) == (header, frames)
        header["frame_count"] = count
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(info.value) == f"{path}:1: {message}"

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

    def test_lone_surrogate_word_is_read_then_reported(self, tmp_path):
        # The file is ASCII: the writer escapes the surrogate as \ud800,
        # which decodes to a string no UTF-8 encoder takes.  The reader
        # takes it back as written; the word rule is validate_trace's.
        path = tmp_path / "trace.ndjson"
        frames = generate_frames(SPEC)
        first, i = [i for i, f in enumerate(frames) if f.gt_words][::3][:2]
        frames[i] = replace(frames[i], gt_words=(frames[first].gt_words[0], "gate\ud800", "fresh"))
        write_trace(path, frames)
        assert path.read_bytes().isascii()
        back = read_trace(path)[1]
        assert back == frames
        assert validate_trace(back) == [f"frame {i}: gt word 1 holds lone surrogate U+D800 at character 5"]

    def test_lone_surrogate_query_text_is_read_then_refused(self, tmp_path):
        path = tmp_path / "queries.ndjson"
        for field, value, fault in [
            ("question", "\udfff?", "lone surrogate U+DFFF at character 1"),
            ("target_lang", "Fran\ud83d", "lone surrogate U+D83D at character 5"),
        ]:
            query = QueryRecord(2, 1, "?", QueryMode.TRANSLATION, "French")
            queries = [query, replace(query, **{field: value})]
            write_queries(path, queries)
            assert read_queries(path) == queries
            with pytest.raises(ReplayError) as info:
                replay([], read_queries(path))
            assert str(info.value) == f"query 1: {field} holds {fault}"

    def test_surrogate_pair_escapes_read_as_one_character(self, tmp_path):
        frames = generate_frames(SPEC)
        i = next(i for i, f in enumerate(frames) if f.gt_words)
        frames[i] = replace(frames[i], gt_words=("exit\U0001F600", *frames[i].gt_words))
        frames[i + 1] = replace(frames[i + 1], gt_words=("exit\U0001F600",))
        path = tmp_path / "trace.ndjson"
        write_trace(path, frames)
        assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
        assert read_trace(path)[1] == frames
        queries = [QueryRecord(2, 1, "Was ist das \U0001F600?", QueryMode.TRANSLATION, "Deutsch \U0001F600")]
        write_queries(tmp_path / "queries.ndjson", queries)
        assert read_queries(tmp_path / "queries.ndjson") == queries


# -- frames through the trace format ------------------------------------------

finite = st.floats(allow_nan=False)
points = st.tuples(finite, finite)
# What a trace word may hold: no whitespace, control, lone surrogate or
# line break (every ``str.isspace`` character is in Cc, Zs, Zl or Zp).
rule_chars = st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))


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
        st.lists(st.text(alphabet=rule_chars, max_size=8), max_size=5).map(tuple),
        st.booleans(),
    )


@given(frames())
@settings(max_examples=150)
def test_frame_round_trips_through_obj_and_json(frame):
    obj = frame_to_obj(frame)
    assert frame_from_obj(obj) == frame
    assert frame_from_obj(json.loads(json.dumps(obj))) == frame


# -- the writer against the object-form oracle ---------------------------------

# Every float, including NaN, infinities, signed zeros and subnormals.
any_float = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))
# Text with quotes, backslashes, whitespace, controls, a line separator, a
# lone surrogate and other non-ASCII characters: the reader takes back
# every word, and the word rule is ``validate_trace``'s.
words_text = st.text(alphabet=st.sampled_from('ab "\\\n\x00\u00e9\u6771\u2028\ud800\U0001f600'), max_size=6)
# Vectors of every length up to 4: a vector's length is a value rule too.
any_vector = st.lists(any_float, max_size=4).map(tuple)


def any_detections():
    return st.lists(
        st.builds(
            Detection,
            st.sampled_from(list(DetectionClass)),
            st.builds(Rect, any_float, any_float, any_float, any_float),
            any_float,
            st.one_of(st.none(), st.lists(st.lists(any_float, max_size=3).map(tuple), max_size=3).map(tuple)),
        ),
        max_size=2,
    ).map(tuple)


def with_zero_twins(vectors):
    """``vectors`` and, for each, its twin with every zero's sign flipped:
    equal to it, but with other bits wherever it holds a zero."""
    return vectors + [tuple(-x if x == 0 else x for x in v) for v in vectors]


def with_prefixes(vectors):
    """``vectors`` and each one's first two items: read after it, or before
    it, a prefix holds the very float objects of the longer vector."""
    return vectors + [v[:2] for v in vectors]


@st.composite
def frame_lists(draw, words=words_text):
    """Frames whose signatures, words and detections come from small pools,
    so that one object is shared by several frames, mixed with equal
    copies that are distinct objects."""
    sigs = draw(st.lists(st.lists(any_float, max_size=4).map(tuple), min_size=1, max_size=3))
    pools = {
        "scene_sig": with_zero_twins(sigs),
        "gt_words": draw(st.lists(st.lists(words, max_size=3).map(tuple), min_size=1, max_size=3)),
        "detections": draw(st.lists(any_detections(), min_size=1, max_size=3)),
    }
    vec3 = st.tuples(any_float, any_float, any_float)
    frames = []
    for ts_ms in range(draw(st.integers(0, 6))):
        shared = {}
        for name, pool in pools.items():
            value = draw(st.sampled_from(pool))
            shared[name] = tuple(list(value)) if draw(st.booleans()) else value
        # A frame's samples often repeat a gyro vector, as generated ones do,
        # and a short one may come before or after a 3-component one.
        gyros = draw(st.lists(st.one_of(vec3, any_vector), min_size=1, max_size=2))
        gyro = st.sampled_from(with_prefixes(with_zero_twins(gyros)))
        imu = draw(st.lists(st.builds(ImuSample, st.integers(0, 2**53), gyro, any_vector), max_size=4).map(tuple))
        resolution = draw(st.sampled_from(list(Resolution)))
        frames.append(FrameRecord(ts_ms, resolution, 8000, imu, user_selection=draw(st.booleans()), **shared))
    return frames


def oracle_trace_bytes(frames, stats=None) -> bytes:
    """``write_trace``'s file as one ``json.dumps`` of each line's object form.

    The header's ``sig_dim`` is the first frame's signature length.
    """
    sig_dim = len(frames[0].scene_sig) if frames else tracefile.DEFAULT_SIG_DIM
    header = {"format": TRACE_FORMAT, "version": FORMAT_VERSION, "sig_dim": sig_dim, "frame_count": len(frames)}
    if stats:
        header["stats"] = stats
    lines = [header] + [frame_to_obj(frame) for frame in frames]
    return "".join(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n" for obj in lines).encode()


@given(frame_lists(), st.one_of(st.none(), st.dictionaries(words_text, any_float, max_size=2)))
@settings(max_examples=200, deadline=None)
def test_write_trace_equals_object_form_oracle(frames, stats):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, frames, stats=stats)
        assert path.read_bytes() == oracle_trace_bytes(frames, stats)


class Level(enum.IntEnum):
    HIGH = 2**63


# ``write_trace`` writes an exact int as ``int.__repr__`` and a bool flag
# from a table; everything else, including equal values of other types,
# must reach the encoder and come out as ``json.dumps`` writes it, or fail
# as it fails.
any_number = st.one_of(
    st.integers(),
    st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64, 10**30]),
    st.booleans(),
    st.sampled_from(list(Level)),
    any_float,
    st.sampled_from([None, decimal.Decimal(1), 1j]),
)
any_flag = st.sampled_from([True, False, 0, 1, 0.0])


@given(frame_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_write_trace_writes_any_number_and_flag_as_json_does(frames, data):
    frames = [
        replace(f, ts_ms=data.draw(any_number), exposure_us=data.draw(any_number), user_selection=data.draw(any_flag))
        for f in frames
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        try:
            expected = oracle_trace_bytes(frames)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                write_trace(path, frames)
            assert str(raised.value) == str(exc)
        else:
            write_trace(path, frames)
            assert path.read_bytes() == expected


def test_write_trace_streams_its_lines(tmp_path):
    """The writer's peak above the frames stays far below the file's size.

    It holds one line and the texts of the values frames share, about
    68 KB here, never the file's text: a writer that joins its lines
    first peaks above the whole file, here 7 MB.
    """
    frames = generate_frames(TraceSpec(5000, 2, 0.1, 0.1, 20.0, seed=3))
    path = tmp_path / "trace.ndjson"
    gc.collect()
    tracemalloc.start()
    try:
        write_trace(path, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frames) == 10_000 and path.stat().st_size > 6_000_000
    assert peak < 256 * 1024, peak


def float_bits(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return [float_bits(item) for item in value]
    if isinstance(value, (FrameRecord, ImuSample, Detection, Rect)):
        return [float_bits(getattr(value, name)) for name in type(value).__slots__]
    return value


# A 2-component gyro, then a 3-component one holding the same float
# objects first: only 3-component tuples may be compared for sharing.
_SHORT_THEN_LONG_GYRO = [
    FrameRecord(0, Resolution.MP12, 8000, (ImuSample(0, (0.0, 0.0), (1.0,)), ImuSample(1, (0.0, 0.0, 0.0), ())), (), (), ())
]


@given(frame_lists())
@example(_SHORT_THEN_LONG_GYRO)
@settings(max_examples=200, deadline=None)
def test_read_trace_returns_written_frames_bit_for_bit(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, frames)
        back = read_trace(path)[1]
    assert float_bits(back) == float_bits(frames)
    pairs = [(before.scene_sig, after.scene_sig) for before, after in zip(back, back[1:])]
    # Only a 3-component gyro is shared.
    samples = [(before.gyro, after.gyro) for frame in back for before, after in zip(frame.imu, frame.imu[1:])]
    pairs += [(before, after) for before, after in samples if len(before) == len(after) == 3]
    for before, after in pairs:
        # ``float_bits`` keeps ints as ints, so equal bits means equal types too.
        same_bits = float_bits(after) == float_bits(before)
        if after is before:
            assert same_bits
        elif all(type(x) is float and not math.isnan(x) for x in after):
            assert not same_bits


# -- the readers take values as they stand -------------------------------------

# Characters on both sides of the rules: whitespace, controls, line breaks
# and lone surrogates, which they refuse, and a soft hyphen, a private-use,
# a recently assigned and an astral character, which they take.
edge_chars = st.one_of(
    st.sampled_from(" \t\n\r\x00\x1f\x7f\x85\x9f\xa0\u1680\u2028\u2029\u3000\ud800\xad\ue000\u0870\U0001d538a\xe9"),
    st.characters(),
)


@given(st.lists(st.text(alphabet=edge_chars, max_size=3), min_size=1, max_size=4))
@example(["a b", "c\td"])
@settings(max_examples=300, deadline=None)
def test_reader_takes_back_any_words_and_validate_trace_names_each_fault(words):
    frame = FrameRecord(1, Resolution.MP12, 8000, (), (), (0.5,), tuple(words))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, [frame])
        back = read_trace(path)[1]
    assert back == [frame]
    faults = [
        f"frame 0: gt word {j} " + (f"holds {word_fault(word)}" if word else "is empty")
        for j, word in enumerate(words)
        if not word or word_fault(word) is not None
    ]
    assert validate_trace(back) == faults


def validate_file(path):
    """``wearocr validate``'s exit code and printed lines for ``path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--trace", str(path)])
    return code, out.getvalue().splitlines()


@given(st.text(alphabet=edge_chars, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_reader_refuses_a_word_exactly_when_validate_trace_does(word):
    # The reading path of ``wearocr validate`` takes the word back as
    # written, so it refuses the file exactly when ``validate_trace``
    # refuses the frame before it was written.
    frame = FrameRecord(1, Resolution.MP12, 8000, (), (), (0.5,), ("exit", word))
    violations = validate_trace([frame])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, [frame])
        assert read_trace(path)[1] == [frame]
        code, lines = validate_file(path)
    if not violations:
        assert (code, lines) == (0, ["ok: 1 frames"])
        return
    assert violations == [f"frame 0: gt word 1 holds {word_fault(word)}"]
    assert (code, lines) == (1, violations)


@given(st.lists(st.text(alphabet=edge_chars, min_size=1, max_size=3), min_size=1, max_size=4))
@example(["a b", "c\td"])
@settings(max_examples=300, deadline=None)
def test_reader_names_the_first_word_validate_trace_names(words):
    frame = FrameRecord(1, Resolution.MP12, 8000, (), (), (0.5,), tuple(words))
    violations = validate_trace([frame])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, [frame])
        code, lines = validate_file(path)
    faulty = [j for j, word in enumerate(words) if word_fault(word) is not None]
    if not faulty:
        assert (code, lines) == (0, ["ok: 1 frames"])
        return
    assert code == 1
    assert lines[0] == violations[0] == f"frame 0: gt word {faulty[0]} holds {word_fault(words[faulty[0]])}"


def test_reader_names_the_first_of_two_faulty_words(tmp_path):
    frame = FrameRecord(1, Resolution.MP12, 8000, (), (), (0.5,), ("a b", "c\td"))
    write_trace(tmp_path / "trace.ndjson", [frame])
    assert read_trace(tmp_path / "trace.ndjson")[1] == [frame]
    assert validate_file(tmp_path / "trace.ndjson") == (1, [
        "frame 0: gt word 0 holds whitespace U+0020 at character 2",
        "frame 0: gt word 1 holds control character U+0009 at character 2",
    ])


@given(st.text(alphabet=edge_chars, min_size=1, max_size=4), st.sampled_from(["question", "target_lang"]))
@settings(max_examples=300, deadline=None)
def test_reader_takes_back_any_question_or_language_and_replay_judges_it(text, field):
    query = replace(QueryRecord(2, 1, "?", QueryMode.TRANSLATION, "French"), **{field: text})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "queries.ndjson"
        write_queries(path, [query])
        back = read_queries(path)
    assert back == [query]
    fault = line_fault(text)
    if fault is None:
        assert [p.query for p in replay([], back).prompts] == [query]
        return
    with pytest.raises(ReplayError) as info:
        replay([], back)
    assert str(info.value) == f"query 0: {field} holds {fault}"


def test_signed_zeros_and_integers_are_not_merged(tmp_path):
    frame = FrameRecord(0, Resolution.MP12, 8000, (), (), (0.0, 1.0), ())
    frames = [frame, replace(frame, ts_ms=1, scene_sig=(-0.0, 1.0)), replace(frame, ts_ms=2, scene_sig=(-0.0, 1.0))]
    path = tmp_path / "trace.ndjson"
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert [float_bits(f.scene_sig) for f in back] == [float_bits(f.scene_sig) for f in frames]
    assert back[1].scene_sig is not back[0].scene_sig
    # Equal texts give the very same objects, so the two (-0.0, 1.0) share.
    assert back[2].scene_sig is back[1].scene_sig

    frames = [replace(frame, scene_sig=(2.0, 1.0)), replace(frame, ts_ms=1, scene_sig=(2, 1)), replace(frame, ts_ms=2, scene_sig=(2, 1.0))]
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert [list(map(type, f.scene_sig)) for f in back] == [[float, float], [int, int], [int, float]]
    assert back[1].scene_sig is not back[0].scene_sig
    write_trace(tmp_path / "again.ndjson", back)
    assert (tmp_path / "again.ndjson").read_bytes() == path.read_bytes()


def test_a_gyro_after_its_signed_zero_twin_keeps_its_sign(tmp_path):
    # The float memo gives each "0.0" one object and "-0.0" another, so the
    # second gyro holds other objects than the first and is not shared.
    zero, minus_zero = (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0)
    imu = tuple(ImuSample(k, gyro, (0.0, 0.0, 1.0)) for k, gyro in enumerate([zero, minus_zero, minus_zero, zero]))
    frame = FrameRecord(0, Resolution.MP12, 8000, imu, (), (0.5,), ())
    write_trace(tmp_path / "trace.ndjson", [frame])
    (back,) = read_trace(tmp_path / "trace.ndjson")[1]
    assert float_bits(back) == float_bits(frame)
    assert [math.copysign(1.0, s.gyro[0]) for s in back.imu] == [1.0, -1.0, -1.0, 1.0]
    assert back.imu[1].gyro is back.imu[2].gyro is not back.imu[0].gyro


def test_equal_signatures_are_shared_after_reading(tmp_path):
    frames = generate_frames(SPEC)
    path = tmp_path / "trace.ndjson"
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert back == frames
    # The generator shares one tuple between the frames of a scene.
    assert len({id(f.scene_sig) for f in back}) == len({id(f.scene_sig) for f in frames}) < len(frames)


def test_equal_words_and_exposures_are_shared_after_reading(tmp_path):
    frame = FrameRecord(0, Resolution.MP12, 8000, (), (), (), ("exit", "gate"))
    frames = [
        frame,
        replace(frame, ts_ms=1, gt_words=("gate", "b12", "gate")),
        replace(frame, ts_ms=2, exposure_us=9000, gt_words=("exit",)),
        replace(frame, ts_ms=3, exposure_us=9000),
        replace(frame, ts_ms=4),
    ]
    path = tmp_path / "trace.ndjson"
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert back == frames
    words = [w for f in back for w in f.gt_words]
    assert len({id(w) for w in words}) == len(set(words)) == 3
    assert [len({id(f.exposure_us) for f in pair}) for pair in zip(back, back[1:])] == [1, 2, 1, 2]

    path = tmp_path / "generated.ndjson"
    write_generated_trace(path, SPEC)
    back = read_trace(path)[1]
    words = [w for f in back for w in f.gt_words]
    assert len({id(w) for w in words}) == len(set(words)) < len(words)
    assert len({id(f.exposure_us) for f in back}) == 1 < len(back)


# -- floats shared on read ---------------------------------------------------------

# Number texts as the trace writer writes them and as other writers might:
# signed zeros, subnormals, exponents past the float range, int/float twins.
NUMBER_TEXTS = [
    "0.0", "-0.0", "0", "-0", "0e0", "-0E-5", "1", "1.0", "-1", "-1.0", "10", "1e1", "1E+1",
    "0.1", "0.10", "1e-1", "0.30000000000000004", "5e-324", "-5e-324", "4.9406564584124654e-324",
    "2.2250738585072014e-308", "2.225073858507201e-308", "1.7976931348623157e308",
    "1E400", "-1e400", "1e-400", "-1E-400", "123456789012345678901234567890",
]
number_texts = st.one_of(
    st.sampled_from(NUMBER_TEXTS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
)
_RAW_FRAME_LINE = (
    '{"detections":[{"bbox":[%s,%s,%s,%s],"cls":"TextObject","conf":%s}],"exposure_us":8000,'
    '"gt_words":["exit"],"imu":[%s],"resolution":"MP12","scene_sig":[%s],"ts_ms":%d,"user_selection":false}\n'
)


def raw_frame_line(ts_ms: int, box: list[str], imu: list[list[str]], sig: list[str]) -> str:
    """A frame line holding each number exactly as the text given."""
    samples = ",".join(f"[{ts_ms * 1000 + k},[{','.join(v[:3])}],[{','.join(v[3:])}]]" for k, v in enumerate(imu))
    return _RAW_FRAME_LINE % (*box, samples, ",".join(sig), ts_ms)


def json_loads_reader(path: Path) -> list[FrameRecord]:
    """The frames of a trace, each line parsed on its own by ``json.loads``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [frame_from_obj(json.loads(line)) for line in lines[1:]]


def write_raw_trace(path: Path, lines: list[str]) -> None:
    header = {"format": TRACE_FORMAT, "version": FORMAT_VERSION, "frame_count": len(lines)}
    path.write_text(json.dumps(header) + "\n" + "".join(lines), encoding="utf-8")


@st.composite
def raw_frame_lines(draw):
    """Frame lines whose numbers come from a small pool of texts, so texts
    repeat within and across lines, mixed with fresh ones."""
    pool = draw(st.lists(number_texts, min_size=1, max_size=8))
    text = st.one_of(st.sampled_from(pool), number_texts)
    lines = []
    for ts_ms in range(draw(st.integers(1, 5))):
        box = draw(st.lists(text, min_size=5, max_size=5))
        imu = draw(st.lists(st.lists(text, min_size=6, max_size=6), max_size=3))
        sig = draw(st.lists(text, max_size=6))
        lines.append(raw_frame_line(ts_ms, box, imu, sig))
    return lines


@given(raw_frame_lines())
@settings(max_examples=300, deadline=None)
def test_read_trace_gives_the_numbers_json_loads_gives(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_raw_trace(path, lines)
        assert float_bits(read_trace(path)[1]) == float_bits(json_loads_reader(path))


def test_more_distinct_floats_than_the_memo_holds(tmp_path):
    # Two passes over more distinct texts than the memo keeps, so the
    # second pass meets texts the memo has dropped; signed zeros and
    # int/float twins are mixed in throughout.
    distinct = [f"{i}.5" for i in range(tracefile._FLOAT_MEMO_SIZE + 1000)]
    texts = [t for pair in zip(distinct * 2, ["0.0", "-0.0", "1", "1.0", "-0"] * len(distinct)) for t in pair]
    lines = [
        raw_frame_line(i, texts[k : k + 5], [texts[k + 5 : k + 11]], texts[k + 11 : k + 40])
        for i, k in enumerate(range(0, len(texts) - 40, 40))
    ]
    path = tmp_path / "trace.ndjson"
    write_raw_trace(path, lines)
    frames = read_trace(path)[1]
    assert float_bits(frames) == float_bits(json_loads_reader(path))
    assert len({x for f in frames for x in f.scene_sig}) > tracefile._FLOAT_MEMO_SIZE


def test_generated_trace_holds_each_frames_repeated_floats_once(tmp_path):
    path = tmp_path / "trace.ndjson"
    write_generated_trace(path, SPEC)
    frames = read_trace(path)[1]
    assert frames == generate_frames(SPEC)
    for frame in frames:
        # Gyro y and z and accel x and y are 0.0 in each of three samples.
        zeros = [c for s in frame.imu for c in (*s.gyro[1:], *s.accel[:2])]
        assert len(zeros) == 12 and float_bits(zeros) == ["0x0.0p+0"] * 12
        assert len({id(c) for c in zeros}) == 1
        # The three samples of a frame share one gyro tuple, as generated.
        assert len({id(s.gyro) for s in frame.imu}) == 1


# -- field types -------------------------------------------------------------------


def _set(path, value):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return mutate


FRAME_FIELD_CASES = [
    (("ts_ms",), "x", "field ts_ms: expected integer, got str"),
    (("ts_ms",), 1.5, "field ts_ms: expected integer, got float"),
    (("ts_ms",), True, "field ts_ms: expected integer, got bool"),
    (("resolution",), 12, "field resolution: expected string, got int"),
    (("resolution",), "MP7", "field resolution: expected one of MP3, MP5, MP12, got 'MP7'"),
    (("exposure_us",), None, "field exposure_us: expected integer, got NoneType"),
    (("imu",), "abc", "field imu: expected list, got str"),
    (("imu", 0), "abc", "field imu[0]: expected [ts_us, gyro, accel], got str"),
    (("imu", 1), [1, [0.0, 0.0, 0.0]], "field imu[1]: expected [ts_us, gyro, accel], got list of 2"),
    (("imu", 1, 0), 1.5, "field imu[1].ts_us: expected integer, got float"),
    (("imu", 0, 1), "xyz", "field imu[0].gyro: expected list of numbers, got str"),
    # A vector's length is a value rule (``validate_trace``); its items' types are the reader's.
    (("imu", 0, 1), [1.0, "2.0"], "field imu[0].gyro[1]: expected number, got str"),
    (("imu", 0, 1, 0), True, "field imu[0].gyro[0]: expected number, got bool"),
    (("imu", 2, 2, 1), "0.5", "field imu[2].accel[1]: expected number, got str"),
    (("detections",), {}, "field detections: expected list, got dict"),
    (("detections", 0), [], "field detections[0]: expected object, got list"),
    (("detections", 0, "cls"), "Foot", "field detections[0].cls: expected one of HandPointing, HandHolding, "
     "OtherHandInteraction, TextObject, got 'Foot'"),
    (("detections", 0, "cls"), None, "field detections[0].cls: expected string, got NoneType"),
    (("detections", 0, "bbox"), [0.1], "field detections[0].bbox: expected list of 4 numbers, got list of 1"),
    (("detections", 1, "bbox", 2), None, "field detections[1].bbox[2]: expected number, got NoneType"),
    (("detections", 1, "conf"), "high", "field detections[1].conf: expected number, got str"),
    (("detections", 0, "keypoints"), "x", "field detections[0].keypoints: expected list, got str"),
    (("detections", 0, "keypoints", 1), ["0.3"], "field detections[0].keypoints[1][0]: expected number, got str"),
    (("detections", 1, "keypoints"), None, "field detections[1].keypoints: expected list, got NoneType"),
    (("scene_sig",), "abc", "field scene_sig: expected list of numbers, got str"),
    (("scene_sig", 3), "x", "field scene_sig[3]: expected number, got str"),
    (("scene_sig", 0), [1.0], "field scene_sig[0]: expected number, got list"),
    (("gt_words",), "word", "field gt_words: expected list of strings, got str"),
    (("gt_words", 1), 5, "field gt_words[1]: expected string, got int"),
    (("user_selection",), 0, "field user_selection: expected boolean, got int"),
]


def _frame_line_obj() -> dict:
    frame = generate_frames(SPEC)[1]
    frame = replace(
        frame,
        detections=(
            Detection(DetectionClass.HAND_POINTING, Rect(0.1, 0.1, 0.2, 0.2), 0.8, ((0.1, 0.2), (0.3, 0.4))),
            Detection(DetectionClass.TEXT_OBJECT, Rect(0.5, 0.5, 0.2, 0.2), 0.7),
        ),
        gt_words=("exit", "gate"),
    )
    return frame_to_obj(frame)


@pytest.mark.parametrize(("path", "value", "message"), FRAME_FIELD_CASES)
def test_wrongly_typed_frame_field_names_the_field(tmp_path, path, value, message):
    obj = _frame_line_obj()
    assert frame_from_obj(obj) is not None
    _set(path, value)(obj)
    header = {"format": TRACE_FORMAT, "version": FORMAT_VERSION}
    trace = tmp_path / "trace.ndjson"
    trace.write_text(json.dumps(header) + "\n" + json.dumps(_frame_line_obj()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(TraceFormatError) as info:
        read_trace(trace)
    assert str(info.value) == f"{trace}:3: {message}"


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("ts_ms", "10", "field ts_ms: expected integer, got str"),
        ("speech_start_ms", 9.5, "field speech_start_ms: expected integer, got float"),
        ("question", ["What?"], "field question: expected string, got list"),
        ("mode", "Chat", "field mode: expected one of Readout, Translation, Qa, got 'Chat'"),
        ("mode", 1, "field mode: expected string, got int"),
        ("target_lang", 3, "field target_lang: expected string or null, got int"),
    ],
)
def test_wrongly_typed_query_field_names_the_field(tmp_path, field, value, message):
    path = tmp_path / "queries.ndjson"
    write_queries(path, [QueryRecord(10_000, 9_000, "What gate?", QueryMode.TRANSLATION, "French")])
    obj = json.loads(path.read_text().splitlines()[1])
    obj[field] = value
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(TraceFormatError) as info:
        read_queries(path)
    assert str(info.value) == f"{path}:3: {message}"


def _trace_with_line(tmp_path, obj) -> Path:
    trace = tmp_path / "trace.ndjson"
    header = {"format": TRACE_FORMAT, "version": FORMAT_VERSION}
    trace.write_text(json.dumps(header) + "\n" + json.dumps(obj) + "\n")
    return trace


@pytest.mark.parametrize(
    ("path", "message"),
    [
        (("ts_ms",), "missing field ts_ms"),
        (("user_selection",), "missing field user_selection"),
        (("detections", 0, "cls"), "missing field detections[0].cls"),
        (("detections", 1, "conf"), "missing field detections[1].conf"),
    ],
)
def test_missing_frame_field_is_named(tmp_path, path, message):
    obj = _frame_line_obj()
    *parents, last = path
    record = obj
    for key in parents:
        record = record[key]
    del record[last]
    trace = _trace_with_line(tmp_path, obj)
    with pytest.raises(TraceFormatError) as info:
        read_trace(trace)
    assert str(info.value) == f"{trace}:2: {message}"


def test_unknown_frame_field_is_rejected(tmp_path):
    obj = _frame_line_obj()
    obj["userSelection"] = True
    trace = _trace_with_line(tmp_path, obj)
    with pytest.raises(TraceFormatError) as info:
        read_trace(trace)
    assert str(info.value) == f"{trace}:2: unknown field userSelection"


def test_unknown_detection_field_is_rejected(tmp_path):
    obj = _frame_line_obj()
    obj["detections"][1]["colour"] = "red"
    trace = _trace_with_line(tmp_path, obj)
    with pytest.raises(TraceFormatError) as info:
        read_trace(trace)
    assert str(info.value) == f"{trace}:2: unknown field detections[1].colour"


def test_unknown_query_field_is_rejected(tmp_path):
    path = tmp_path / "queries.ndjson"
    write_queries(path, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"mode":"Translation","question":"?","speech_start_ms":1,"target_language":"French","ts_ms":2}\n')
    with pytest.raises(TraceFormatError) as info:
        read_queries(path)
    assert str(info.value) == f"{path}:2: unknown field target_language"


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_read_trace_restores_collector_state(tmp_path, monkeypatch, enabled, valid):
    """``read_trace``, ``generate_frames`` and ``replay`` each leave the
    collector as they found it, on success and on error."""
    obj = _frame_line_obj()
    frames = generate_frames(SPEC)[:20]
    if not valid:
        obj["ts_ms"] = "x"
        # An empty vocabulary fails at the first fresh text scene.
        monkeypatch.setattr(tracefile, "_VOCAB", ())
        frames = frames[1::-1]
    calls = [
        (read_trace, (_trace_with_line(tmp_path, obj),), TraceFormatError),
        (generate_frames, (SPEC,), IndexError),
        (replay, (frames, []), ReplayError),
    ]
    was_enabled = gc.isenabled()
    try:
        for function, args, error in calls:
            _set_collector(enabled)
            if valid:
                function(*args)
            else:
                with pytest.raises(error):
                    function(*args)
            assert gc.isenabled() is enabled, function.__name__
    finally:
        _set_collector(was_enabled)


def test_null_target_lang_reads_as_none(tmp_path):
    path = tmp_path / "queries.ndjson"
    write_queries(path, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"mode":"Qa","question":"?","speech_start_ms":1,"target_lang":null,"ts_ms":2}\n')
    assert read_queries(path) == [QueryRecord(2, 1, "?", QueryMode.QA)]


# -- padded lines ------------------------------------------------------------------

# JSON whitespace but the line feed, and characters that str.isspace() or
# Unicode count as space but JSON does not: vertical tab, form feed, file
# separator, no-break space, line separator, byte-order mark.  A carriage
# return ends a line, as a line feed does.
_SPACES = " \t\x0b\x0c\x1c\xa0\u2028\ufeff"
PADDING = st.text(st.sampled_from(_SPACES + "\r"), max_size=4)
# Data after a record on its line: any characters but line breaks and lone
# surrogates, which UTF-8 cannot hold, or a second JSON value, after padding
# that does not end the line.
TRAILING = st.tuples(
    st.text(st.sampled_from(_SPACES), max_size=2),
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), min_size=1, max_size=4),
        st.sampled_from(["{}", "1", "[]", '"x"', "null"]),
    ),
).map("".join)


@functools.lru_cache(maxsize=None)
def one_record_files() -> dict[str, tuple[str, str, object]]:
    """Each reader's file of one record: header line, record line and the record."""
    frame = next(f for f in generate_frames(SPEC) if f.detections)
    query = QueryRecord(1_000, 500, "Traduis ça", QueryMode.TRANSLATION, "Español")
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(Path(tmp) / "f", [frame])
        trace = (Path(tmp) / "f").read_text(encoding="utf-8").splitlines(keepends=True)
        write_queries(Path(tmp) / "f", [query])
        queries = (Path(tmp) / "f").read_text(encoding="utf-8").splitlines(keepends=True)
    return {"trace": (*trace, frame), "queries": (*queries, query)}


RECORDS = {"trace": lambda path: read_trace(path)[1], "queries": read_queries}
# What follows the record on its line: padding, perhaps after the record is
# cut short at a position taken modulo its length, or trailing data.
ENDINGS = st.one_of(
    st.tuples(PADDING, st.one_of(st.none(), st.integers(min_value=0))),
    st.tuples(TRAILING, st.none()),
)


@given(st.sampled_from(sorted(RECORDS)), PADDING, ENDINGS)
@example("trace", "\r\x0c", ("", None))  # a line of one form feed after a blank one
@example("queries", "", ("\r\xa0", None))  # a line of one no-break space after the record
@example("queries", "\u2028", ("", None))
@example("trace", "\ufeff", ("", None))  # named as json.loads names a byte-order mark
@example("trace", " \ufeff", ("", None))
@example("trace", "", ("\x1c", None))
@example("queries", "", (" \t\r", None))
@example("trace", "", ("\t", 2))  # a line that ends inside a string: the tab is a control character
@settings(max_examples=300, deadline=None)
def test_padded_or_cut_line_reads_as_json_decoder_decode_reads_it(kind, before, ending):
    header, line, record = one_record_files()[kind]
    after, cut = ending
    line = line.rstrip("\n")
    if cut is not None:
        line = line[: 1 + cut % (len(line) - 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.ndjson"
        path.write_bytes((header + before + line + after + "\n").encode("utf-8"))
        try:
            objects = oracle_read_objects(path)
        except ValueError as exc:
            with pytest.raises(TraceFormatError) as info:
                RECORDS[kind](path)
            assert str(info.value) == str(exc)
        else:
            assert len(objects) == 2
            assert RECORDS[kind](path) == [record]


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])
def test_a_line_of_space_that_json_does_not_skip_is_not_json(tmp_path, space):
    path = tmp_path / "queries.ndjson"
    write_queries(path, [QueryRecord(1_000, 500, "?", QueryMode.QA)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(" \t\n\r\n" + space + "\n")
    assert space.isspace()
    with pytest.raises(TraceFormatError) as info:
        read_queries(path)
    assert str(info.value) == f"{path}:5: not JSON: Expecting value"


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
