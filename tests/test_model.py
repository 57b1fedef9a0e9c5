import gc
import math
import sys
import unicodedata

import pytest

from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    OcrPayload,
    PayloadKind,
    Rect,
    Resolution,
    TextSpan,
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
        f"frame {i}: scene_sig has non-finite component" for i in (0, 1, 3)
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
def test_word_that_breaks_the_word_rule_reported(word, fault):
    frames = [make_frame(100, gt_words=("gate", word)), make_frame(200, gt_words=("", word))]
    assert validate_trace(frames) == [
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
