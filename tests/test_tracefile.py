import functools
import gc
import json
import math
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
    generate_frames,
    read_queries,
    read_trace,
    write_generated_trace,
    write_queries,
    write_trace,
)
from wearocr.replay import ReplayError, replay


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


# -- the writer against the object-form oracle ---------------------------------

# Every float, including NaN, infinities, signed zeros and subnormals.
any_float = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]))
# Text with quotes, backslashes, control and non-ASCII characters.
words_text = st.text(alphabet=st.sampled_from('ab "\\\n\x00\u00e9\u6771\u2028\U0001f600'), max_size=6)


def any_detections():
    return st.lists(
        st.builds(
            Detection,
            st.sampled_from(list(DetectionClass)),
            st.builds(Rect, any_float, any_float, any_float, any_float),
            any_float,
            st.one_of(st.none(), st.lists(st.tuples(any_float, any_float), max_size=3).map(tuple)),
        ),
        max_size=2,
    ).map(tuple)


@st.composite
def frame_lists(draw):
    """Frames whose signatures, words and detections come from small pools,
    so that one object is shared by several frames, mixed with equal
    copies that are distinct objects."""
    pools = {
        "scene_sig": draw(st.lists(st.lists(any_float, max_size=4).map(tuple), min_size=1, max_size=3)),
        "gt_words": draw(st.lists(st.lists(words_text, max_size=3).map(tuple), min_size=1, max_size=3)),
        "detections": draw(st.lists(any_detections(), min_size=1, max_size=3)),
    }
    vec3 = st.tuples(any_float, any_float, any_float)
    frames = []
    for ts_ms in range(draw(st.integers(0, 6))):
        shared = {}
        for name, pool in pools.items():
            value = draw(st.sampled_from(pool))
            shared[name] = tuple(list(value)) if draw(st.booleans()) else value
        imu = draw(st.lists(st.builds(ImuSample, st.integers(0, 2**53), vec3, vec3), max_size=3).map(tuple))
        resolution = draw(st.sampled_from(list(Resolution)))
        frames.append(FrameRecord(ts_ms, resolution, 8000, imu, user_selection=draw(st.booleans()), **shared))
    return frames


def oracle_trace_bytes(frames, stats=None) -> bytes:
    """``write_trace``'s file as one ``json.dumps`` of each line's object form."""
    header = {"format": TRACE_FORMAT, "version": FORMAT_VERSION, "sig_dim": 16, "frame_count": len(frames)}
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


def float_bits(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return [float_bits(item) for item in value]
    if isinstance(value, (FrameRecord, ImuSample, Detection, Rect)):
        return [float_bits(getattr(value, name)) for name in type(value).__slots__]
    return value


@given(frame_lists())
@settings(max_examples=200, deadline=None)
def test_read_trace_returns_written_frames_bit_for_bit(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_trace(path, frames)
        back = read_trace(path)[1]
    assert float_bits(back) == float_bits(frames)
    for before, after in zip(back, back[1:]):
        sig = after.scene_sig
        same_bits = float_bits(sig) == float_bits(before.scene_sig)
        # No component is a whole number (such as -0.0 or 1.0) or NaN.
        fractional = all(math.isinf(x) or (math.isfinite(x) and x != math.floor(x)) for x in sig)
        if same_bits and fractional:
            assert sig is before.scene_sig
        if sig is before.scene_sig:
            assert same_bits


def test_signed_zeros_and_integers_are_not_merged(tmp_path):
    frame = FrameRecord(0, Resolution.MP12, 8000, (), (), (0.0, 1.0), ())
    frames = [frame, replace(frame, ts_ms=1, scene_sig=(-0.0, 1.0)), replace(frame, ts_ms=2, scene_sig=(-0.0, 1.0))]
    path = tmp_path / "trace.ndjson"
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert [float_bits(f.scene_sig) for f in back] == [float_bits(f.scene_sig) for f in frames]
    assert back[1].scene_sig is not back[0].scene_sig
    assert back[2].scene_sig is not back[1].scene_sig

    frames = [replace(frame, scene_sig=(2.0, 1.0)), replace(frame, ts_ms=1, scene_sig=(2, 1)), replace(frame, ts_ms=2, scene_sig=(2, 1.0))]
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert [list(map(type, f.scene_sig)) for f in back] == [[float, float], [int, int], [int, float]]
    assert back[1].scene_sig is not back[0].scene_sig
    write_trace(tmp_path / "again.ndjson", back)
    assert (tmp_path / "again.ndjson").read_bytes() == path.read_bytes()


def test_equal_signatures_are_shared_after_reading(tmp_path):
    frames = generate_frames(SPEC)
    path = tmp_path / "trace.ndjson"
    write_trace(path, frames)
    back = read_trace(path)[1]
    assert back == frames
    # The generator shares one tuple between the frames of a scene.
    assert len({id(f.scene_sig) for f in back}) == len({id(f.scene_sig) for f in frames}) < len(frames)


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
    (("imu", 0, 1), "xyz", "field imu[0].gyro: expected list of 3 numbers, got str"),
    (("imu", 0, 1), [1.0, 2.0], "field imu[0].gyro: expected list of 3 numbers, got list of 2"),
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
    (("detections", 0, "keypoints", 1), [0.3], "field detections[0].keypoints[1]: expected list of 2 numbers, got list of 1"),
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
def test_read_trace_restores_collector_state(tmp_path, enabled, valid):
    """``read_trace``, ``generate_frames`` and ``replay`` each leave the
    collector as they found it, on success and on error."""
    obj = _frame_line_obj()
    spec, frames = SPEC, generate_frames(SPEC)[:20]
    if not valid:
        obj["ts_ms"] = "x"
        # An empty word-count range fails at the first fresh text scene.
        spec = replace(SPEC, words_min=5, words_max=4)
        frames = frames[1::-1]
    calls = [
        (read_trace, (_trace_with_line(tmp_path, obj),), TraceFormatError),
        (generate_frames, (spec,), ValueError),
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
