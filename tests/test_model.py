import dataclasses
import gc
import inspect
import math
import sys
import unicodedata
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

import pytest

from wearocr import wire
from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    OcrPayload,
    PayloadKind,
    QualityFlag,
    Rect,
    Resolution,
    TextSpan,
    _slot_init,
    collector_paused,
    line_fault,
    validate_payload,
    validate_trace,
    word_fault,
)
from wearocr.tracefile import read_trace, write_trace


def make_frame(ts_ms=100, **overrides):
    fields = dict(
        ts_ms=ts_ms,
        resolution=Resolution.MP12,
        exposure_us=8000,
        imu=(ImuSample(ts_us=ts_ms * 1000, gyro=(0.1, 0.0, 0.0), accel=(0.0, 9.8, 0.0)),),
        detections=(
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.2, 0.2, 0.5, 0.3), conf=0.9),
        ),
        scene_sig=(1.0,) + (0.0,) * 15,
        gt_words=("gate", "b12"),
        user_selection=False,
    )
    fields.update(overrides)
    return FrameRecord(**fields)


def test_empty_trace_is_ok():
    assert validate_trace([]) == []


def test_non_increasing_timestamp_reported():
    frames = [make_frame(100), make_frame(100)]
    violations = validate_trace(frames)
    assert any("non-increasing timestamp at index 1" in v for v in violations)


@pytest.mark.parametrize("ts_ms", [-500, -1, 2**63, 2**64])
def test_timestamp_outside_64_bits_reported(ts_ms):
    assert validate_trace([make_frame(ts_ms, imu=())]) == [f"frame 0: ts_ms {ts_ms} outside [0, 2**63)"]


def test_timestamp_range_ends_accepted():
    assert validate_trace([make_frame(0), make_frame(2**63 - 1)]) == []


def read_back(frames, tmp_path):
    """``frames`` written to a trace file and read back; the reader takes
    every value as it stands, so that ``validate_trace`` judges it."""
    write_trace(tmp_path / "trace.ndjson", frames)
    back = read_trace(tmp_path / "trace.ndjson")[1]
    assert repr(back) == repr(frames)  # NaN is unequal to itself, but prints alike
    return back


def hand(*keypoints):
    return (Detection(DetectionClass.HAND_POINTING, Rect(0.2, 0.2, 0.5, 0.3), 0.9, tuple(keypoints)),)


# One number of each kind: a scene signature's, a gyro's, an accel's and a
# keypoint's.  Each message names the range every such number must lie in.
NUMBER_EDITS = {
    "scene_sig": (
        lambda v: {"scene_sig": (v,) + (0.0,) * 15},
        "scene_sig has a component not in [-2**63, 2**63)",
    ),
    "gyro": (
        lambda v: {"imu": (ImuSample(100_000, (0.1, v, 0.0), (0.0, 9.8, 0.0)),)},
        "imu sample 0 has a vector component not in [-2**63, 2**63)",
    ),
    "accel": (
        lambda v: {"imu": (ImuSample(100_000, (0.1, 0.0, 0.0), (0.0, 9.8, v)),)},
        "imu sample 0 has a vector component not in [-2**63, 2**63)",
    ),
    "keypoint": (
        lambda v: {"detections": hand((0.5, 0.5), (v, 0.5))},
        "detection 0 has a keypoint coordinate not in [-2**63, 2**63)",
    ),
}


@pytest.mark.parametrize("kind", NUMBER_EDITS)
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**200], ids=["2**63", "-2**63-1", "10**200"])
def test_integer_outside_64_bits_reported(kind, value):
    # 10**200 once validated, then ended the device pass in OverflowError.
    edit, violation = NUMBER_EDITS[kind]
    assert validate_trace([make_frame(100, **edit(value))]) == [f"frame 0: {violation}"]


@pytest.mark.parametrize("kind", NUMBER_EDITS)
@pytest.mark.parametrize("value", [2**63 - 1, -(2**63)], ids=["2**63-1", "-2**63"])
def test_integer_inside_64_bits_accepted(kind, value):
    edit, _ = NUMBER_EDITS[kind]
    assert validate_trace([make_frame(100, **edit(value))]) == []


def test_keypoint_that_is_no_pair_reported(tmp_path):
    # Once accepted, then ended replay in IndexError inside select_roi.
    frame = make_frame(100, detections=hand((0.5,), (0.5, 0.5), (0.1, 0.2, 0.3)))
    assert validate_trace([frame]) == validate_trace(read_back([frame], tmp_path)) == [
        "frame 0: detection 0 keypoint 0 has 1 coordinates, expected 2",
        "frame 0: detection 0 keypoint 2 has 3 coordinates, expected 2",
    ]


def test_confidence_out_of_range_reported():
    bad = make_frame(
        detections=(
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0, 0, 0.5, 0.5), conf=1.3),
        )
    )
    violations = validate_trace([bad])
    assert any("confidence out of range" in v for v in violations)


def test_scene_sig_dimension_mismatch_reported():
    frames = [make_frame(100), make_frame(200, scene_sig=(1.0, 0.0))]
    assert any("scene_sig dimension" in v for v in validate_trace(frames))


def test_non_finite_signature_reported_on_every_frame_sharing_it():
    bad_sig = (1.0, math.nan) + (0.0,) * 14
    frames = [make_frame(100, scene_sig=bad_sig), make_frame(200, scene_sig=bad_sig), make_frame(300)]
    frames.append(make_frame(400, scene_sig=frames[0].scene_sig))
    assert validate_trace(frames) == [
        f"frame {i}: scene_sig has a component not in [-2**63, 2**63)" for i in (0, 1, 3)
    ]


def test_imu_vector_without_three_components_reported(tmp_path):
    frames = [
        make_frame(100, imu=(ImuSample(100_000, (0.1, 0.0), (0.0, 9.8, 0.0)),)),
        make_frame(200, imu=(ImuSample(200_000, (0.1, 0.0, 0.0), (0.0, 9.8, 0.0, 1.0)),)),
        make_frame(300, imu=(ImuSample(300_000, (), (math.inf,)),)),
    ]
    assert validate_trace(frames) == validate_trace(read_back(frames, tmp_path)) == [
        "frame 0: imu sample 0 gyro has 2 components, expected 3",
        "frame 1: imu sample 0 accel has 4 components, expected 3",
        "frame 2: imu sample 0 gyro has 0 components, expected 3",
        "frame 2: imu sample 0 accel has 1 components, expected 3",
        "frame 2: imu sample 0 has a vector component not in [-2**63, 2**63)",
    ]


def test_imu_faults_reported_on_every_sample_sharing_a_gyro(tmp_path):
    bad, good = (math.nan, 0.0, 0.0), (0.0, 0.0, 0.0)
    imu = tuple(ImuSample(100_000 + k, gyro, (0.0, 0.0, 1.0)) for k, gyro in enumerate((bad, bad, good, bad)))
    short = (0.0, 0.0)
    imu += (ImuSample(100_004, short, (0.0, 0.0, 1.0)), ImuSample(100_005, short, (0.0, 0.0, 10**400)))
    # 10**400 reads back as an int; the file holds every digit.
    frames = [make_frame(100, imu=imu)]
    assert validate_trace(frames) == validate_trace(read_back(frames, tmp_path)) == [
        "frame 0: imu sample 0 has a vector component not in [-2**63, 2**63)",
        "frame 0: imu sample 1 has a vector component not in [-2**63, 2**63)",
        "frame 0: imu sample 3 has a vector component not in [-2**63, 2**63)",
        "frame 0: imu sample 4 gyro has 2 components, expected 3",
        "frame 0: imu sample 5 gyro has 2 components, expected 3",
        "frame 0: imu sample 5 has a vector component not in [-2**63, 2**63)",
    ]


def test_keypoints_only_on_hand_pointing():
    bad = make_frame(
        detections=(
            Detection(
                cls=DetectionClass.TEXT_OBJECT,
                bbox=Rect(0, 0, 0.5, 0.5),
                conf=0.9,
                keypoints=((0.1, 0.1),),
            ),
        )
    )
    assert any("keypoints" in v for v in validate_trace([bad]))


@pytest.mark.parametrize(
    "word, fault",
    [
        # Once accepted, though neither can count as recovered: the OCR
        # text splits the one and normalization rewrites the other.
        ("NEW YORK", "whitespace U+0020 at character 4"),
        ("NEW\x01YORK", "control character U+0001 at character 4"),
        ("Straße\u00a0", "whitespace U+00A0 at character 7"),
        ("\ud800", "lone surrogate U+D800 at character 1"),
    ],
)
def test_word_that_breaks_the_word_rule_reported(tmp_path, word, fault):
    frames = [make_frame(100, gt_words=("gate", word)), make_frame(200, gt_words=("", word))]
    assert validate_trace(frames) == validate_trace(read_back(frames, tmp_path)) == [
        f"frame 0: gt word 1 holds {fault}",
        "frame 1: gt word 0 is empty",
        f"frame 1: gt word 1 holds {fault}",
    ]


# Every whitespace, control and separator character, a surrogate at each
# end, and characters the rules accept.
_RULE_ALPHABET = sorted(
    {ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace() or unicodedata.category(ch) in ("Cc", "Zl", "Zp")}
    | set("aZé字\U0001F600\u200b\u00ad\ud800\udfff")
)


def test_text_rules_by_character():
    for ch in _RULE_ALPHABET:
        category = unicodedata.category(ch)
        assert (word_fault(f"a{ch}b") is None) == (not ch.isspace() and category not in ("Cc", "Cs")), repr(ch)
        assert (line_fault(f"a{ch}b") is None) == (category not in ("Cc", "Cs", "Zl", "Zp")), repr(ch)


def test_whitespace_is_the_same_29_code_points():
    """``str.split()`` and the word rule rest on ``str.isspace``, which
    follows the interpreter's Unicode database: pinned, each supported
    Python is checked to agree."""
    assert {c for c in range(sys.maxunicode + 1) if chr(c).isspace()} == {
        0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680, 0x2000, 0x2001,
        0x2002, 0x2003, 0x2004, 0x2005, 0x2006, 0x2007, 0x2008, 0x2009, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
    }


def test_validate_is_deterministic():
    frames = [make_frame(100), make_frame(100, exposure_us=0)]
    assert validate_trace(frames) == validate_trace(frames)


@pytest.mark.parametrize("kind", [k for k in PayloadKind if k is not PayloadKind.TEXT_OCR])
def test_non_text_payload_must_be_empty(kind):
    span = TextSpan(text="x", bbox=Rect(0, 0, 1, 1), conf=0.5)
    assert validate_payload(OcrPayload(kind=kind, frame_ts_ms=1, spans=(span,)))
    assert validate_payload(OcrPayload(kind=kind, frame_ts_ms=1)) == []


def test_text_payload_needs_spans():
    assert validate_payload(OcrPayload(kind=PayloadKind.TEXT_OCR, frame_ts_ms=1))


def test_frame_roundtrip_through_trace_format(tmp_path):
    frame = make_frame(
        detections=(
            Detection(
                cls=DetectionClass.HAND_POINTING,
                bbox=Rect(0.1, 0.1, 0.2, 0.2),
                conf=0.77,
                keypoints=((0.12, 0.15), (0.2, 0.22)),
            ),
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.5, 0.5, 0.3, 0.1), conf=0.91),
        ),
        scene_sig=tuple(math.sin(i) for i in range(16)),
        user_selection=True,
    )
    write_trace(tmp_path / "trace.ndjson", [frame])
    assert read_trace(tmp_path / "trace.ndjson")[1] == [frame]


def test_imu_norm6():
    sample = ImuSample(ts_us=0, gyro=(3.0, 0.0, 0.0), accel=(0.0, 4.0, 0.0))
    assert sample.norm6() == pytest.approx(5.0)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_nests_and_restores_on_error(enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with collector_paused():
            assert not gc.isenabled()
            with pytest.raises(KeyError):
                with collector_paused():
                    raise KeyError("inner")
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _in_young_generations(objects) -> bool:
    ids = {id(o) for o in objects}
    return any(id(o) in ids for generation in (0, 1) for o in gc.get_objects(generation))


@pytest.mark.skipif(gc.get_freeze_count() != 0, reason="the interpreter starts with frozen objects")
def test_frames_read_with_the_collector_paused_leave_the_young_generations(tmp_path):
    write_trace(tmp_path / "trace.ndjson", [make_frame(ts) for ts in range(100, 2100, 100)])
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        frames = read_trace(tmp_path / "trace.ndjson")[1]
        assert not _in_young_generations(frames)
        assert not _in_young_generations(frame.imu[0] for frame in frames)
    finally:
        if not was_enabled:
            gc.disable()


def test_collector_pause_keeps_the_freeze_count():
    was_enabled = gc.isenabled()
    froze = False
    built = []  # kept alive: a frozen object that is freed leaves the count
    gc.enable()
    try:
        for _ in range(2):
            count = gc.get_freeze_count()
            with collector_paused():
                built.append([[n] for n in range(1000)])
            assert gc.get_freeze_count() == count
            if count == 0:  # again, with the caller's objects frozen
                gc.freeze()
                froze = True
        assert gc.get_freeze_count() > 0
    finally:
        if froze:
            gc.unfreeze()
        if not was_enabled:
            gc.disable()


def test_inner_collector_pause_exit_does_nothing():
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        with collector_paused():
            count = gc.get_freeze_count()
            marker = []
            with collector_paused():
                built = [[n] for n in range(1000)]
            assert not gc.isenabled()
            assert gc.get_freeze_count() == count
            assert _in_young_generations([marker, built])
    finally:
        if not was_enabled:
            gc.disable()


# -- the slot-storing __init__ -----------------------------------------------------

# Each class the helper serves, with values for every field, in order.
_BOX = Rect(0.25, 0.5, 0.125, 0.25)
SLOT_INIT_CASES = {
    Rect: (0.25, 0.5, 0.125, 0.25),
    ImuSample: (5, (0.5, -0.0, 0.0), (0.0, 0.0, 9.8)),
    Detection: (DetectionClass.HAND_POINTING, _BOX, 0.75, ((0.5, 0.5),)),
    TextSpan: ("exit", _BOX, 0.75),
    FrameRecord: (
        100, Resolution.MP5, 8000, (ImuSample(1, (0.0,) * 3, (0.0,) * 3),), (), (1.0, 0.0), ("exit",), True,
    ),
    OcrPayload: (
        PayloadKind.TEXT_OCR, 7, (TextSpan("exit", _BOX, 0.75),), True, frozenset({QualityFlag.CROPPED}), True,
    ),
    wire.WireMessage: (3, OcrPayload(PayloadKind.NO_TEXT, 4)),
    wire.UplinkLedger: (Fraction(5, 2), 64, 3),
}


def stock_twin(cls):
    """A stock ``@dataclass(frozen=True, slots=True)`` with the name,
    fields and defaults of ``cls``."""
    fields = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


def slot_values(obj):
    return [getattr(obj, name) for name in type(obj).__slots__]


def outcome(fn, *args, **kwargs):
    """The type and text of the error ``fn`` raises, or the ``repr`` of its value."""
    try:
        return "value", repr(fn(*args, **kwargs))
    except (TypeError, AttributeError) as exc:  # FrozenInstanceError is an AttributeError
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", list(SLOT_INIT_CASES), ids=lambda cls: cls.__name__)
def test_slot_init_behaves_as_the_stock_init(cls):
    twin = stock_twin(cls)
    values = SLOT_INIT_CASES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    # The helper's __init__ stores each argument through its slot and does nothing else.
    assert cls.__init__.__code__.co_names == tuple(f"_set_{name}" for name in names)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert cls.__init__.__qualname__ == twin.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__slots__ == twin.__slots__ == tuple(names)
    assert "__dict__" not in dir(cls(*values))

    obj, stock = cls(*values), twin(*values)
    assert slot_values(obj) == slot_values(stock) == list(values)
    assert slot_values(cls(**dict(zip(names, values)))) == list(values)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    assert slot_values(cls(*values[:required])) == slot_values(twin(*values[:required]))
    assert repr(obj) == repr(stock)
    assert hash(obj) == hash(stock)
    assert obj == cls(*values) and not obj != cls(*values)
    assert sys.getsizeof(obj) == sys.getsizeof(stock)

    changed = dataclasses.replace(obj, **{names[0]: values[1]})
    assert type(changed) is cls and changed != obj
    assert slot_values(changed) == slot_values(dataclasses.replace(stock, **{names[0]: values[1]}))
    assert outcome(setattr, obj, names[0], values[0]) == outcome(setattr, stock, names[0], values[0])
    assert outcome(setattr, obj, names[0], values[0])[0] is dataclasses.FrozenInstanceError

    # TypeError texts: a missing argument, one too many, an unknown keyword
    # and a repeated one.
    assert outcome(cls)[0] is (TypeError if required else "value")
    assert outcome(cls) == outcome(twin)
    assert outcome(cls, *values[: required - 1]) == outcome(twin, *values[: required - 1])
    assert outcome(cls, *values, None) == outcome(twin, *values, None)
    assert outcome(cls, *values, nope=1) == outcome(twin, *values, nope=1)
    assert outcome(cls, *values, **{names[0]: values[0]}) == outcome(twin, *values, **{names[0]: values[0]})


def test_slot_init_refuses_a_class_it_cannot_serve():
    with pytest.raises(TypeError, match="has a __post_init__"):

        @_slot_init
        @dataclass(frozen=True, slots=True)
        class Checked:
            x: int

            def __post_init__(self):
                pass

    cases = {
        "default_factory": lambda: field(default_factory=tuple),
        "kw_only": lambda: field(kw_only=True),
        "init=False": lambda: field(default=0, init=False),
    }
    for what, make_field in cases.items():
        namespace = {"__annotations__": {"x": "int", "y": "int"}, "y": make_field()}
        with pytest.raises(TypeError, match=r"Odd\.y is not a plain field"):
            _slot_init(dataclass(frozen=True, slots=True)(type("Odd", (), namespace)))
    with pytest.raises(TypeError, match="has an InitVar"):

        @_slot_init
        @dataclass(frozen=True, slots=True)
        class WithInitVar:
            x: int
            y: InitVar[int] = 0

    for params in ({"frozen": True}, {"slots": True}):
        with pytest.raises(TypeError, match="is not a frozen, slotted dataclass"):
            _slot_init(dataclass(**params)(type("Plain", (), {"__annotations__": {"x": "int"}})))
    with pytest.raises(TypeError, match="is not a frozen, slotted dataclass"):
        _slot_init(type("NotADataclass", (), {}))
