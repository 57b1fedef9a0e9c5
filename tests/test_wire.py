import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr import wire
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, Rect, Resolution, TextSpan

# Golden frame for the documented wire layout: a two-span text payload
# with a selection mark and two quality flags.  Must never change.
GOLDEN_MESSAGE = wire.WireMessage(
    session_id=0x0102030405060708,
    body=OcrPayload(
        kind=PayloadKind.TEXT_OCR,
        frame_ts_ms=1500,
        spans=(
            TextSpan(text="GATE", bbox=Rect(0.25, 0.5, 0.125, 0.25), conf=0.75),
            TextSpan(text="B12", bbox=Rect(0.375, 0.5, 0.125, 0.25), conf=0.75),
        ),
        selection=True,
        quality_flags=frozenset({QualityFlag.BLURRY, QualityFlag.CROPPED}),
    ),
)

GOLDEN_HEX = (
    "0000007c0101020304050607080100000000000005dc010000000201030000000200000004"
    "474154453fd00000000000003fe00000000000003fc00000000000003fd00000000000003f"
    "e8000000000000000000034231323fd80000000000003fe00000000000003fc00000000000"
    "003fd00000000000003fe8000000000000"
)


def texts():
    return st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
    )


def rects():
    coord = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
    return st.builds(Rect, coord, coord, coord, coord)


def spans():
    return st.builds(
        TextSpan, text=texts(), bbox=rects(), conf=st.floats(min_value=0.0, max_value=1.0)
    )


def payloads():
    empty_kinds = st.sampled_from(
        [k for k in PayloadKind if k is not PayloadKind.TEXT_OCR]
    )
    empty = st.builds(
        OcrPayload,
        kind=empty_kinds,
        frame_ts_ms=st.integers(min_value=0, max_value=2**48),
        selection=st.booleans(),
        quality_flags=st.frozensets(st.sampled_from(list(QualityFlag))),
    )
    text = st.builds(
        OcrPayload,
        kind=st.just(PayloadKind.TEXT_OCR),
        frame_ts_ms=st.integers(min_value=0, max_value=2**48),
        spans=st.lists(spans(), min_size=1, max_size=4).map(tuple),
        selection=st.booleans(),
        quality_flags=st.frozensets(st.sampled_from(list(QualityFlag))),
    )
    return st.one_of(empty, text)


def bodies():
    return st.one_of(
        payloads(),
        st.builds(
            wire.VideoSegment,
            start_ms=st.integers(min_value=0, max_value=2**40),
            duration_ms=st.integers(min_value=1, max_value=2**40),
            fps=st.floats(min_value=0.1, max_value=120.0),
            resolution=st.sampled_from(list(Resolution)),
            bitrate_bps=st.integers(min_value=1, max_value=10**9),
        ),
        st.builds(wire.SelectionEvent, frame_ts_ms=st.integers(min_value=0, max_value=2**48)),
        st.just(wire.SessionStart()),
        st.just(wire.SessionEnd()),
    )


def messages():
    return st.builds(
        wire.WireMessage,
        session_id=st.integers(min_value=0, max_value=2**64 - 1),
        body=bodies(),
    )


class TestCodec:
    @given(messages())
    @settings(max_examples=300)
    def test_roundtrip(self, msg):
        assert wire.decode(wire.encode(msg)) == msg

    @given(messages(), messages())
    @settings(max_examples=100)
    def test_injective(self, a, b):
        if a != b:
            assert wire.encode(a) != wire.encode(b)

    def test_session_end_is_13_bytes(self):
        frame = wire.encode(wire.WireMessage(session_id=1, body=wire.SessionEnd()))
        assert len(frame) == 13
        assert frame[:4] == (9).to_bytes(4, "big")

    def test_golden_hex_vector(self):
        assert wire.encode(GOLDEN_MESSAGE).hex() == GOLDEN_HEX
        assert wire.decode(bytes.fromhex(GOLDEN_HEX)) == GOLDEN_MESSAGE

    def test_empty_input_incomplete(self):
        with pytest.raises(wire.IncompleteFrameError):
            wire.decode(b"")

    def test_unknown_type_unsupported(self):
        frame = bytearray(wire.encode(wire.WireMessage(1, wire.SessionEnd())))
        frame[4] = 0xFF
        with pytest.raises(wire.UnsupportedTypeError):
            wire.decode(bytes(frame))

    def test_truncated_frame_reports_offset(self):
        frame = wire.encode(GOLDEN_MESSAGE)
        with pytest.raises(wire.IncompleteFrameError) as excinfo:
            wire.decode(frame[:-1])
        assert excinfo.value.offset == len(frame) - 1

    def test_trailing_bytes_corrupt(self):
        frame = wire.encode(wire.WireMessage(1, wire.SessionEnd()))
        with pytest.raises(wire.CorruptFrameError):
            wire.decode(frame + b"\x00")

    def test_bad_kind_corrupt(self):
        payload = OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=5)
        frame = bytearray(wire.encode(wire.WireMessage(1, payload)))
        frame[13] = 99  # kind byte
        with pytest.raises(wire.CorruptFrameError, match="unknown payload kind"):
            wire.decode(bytes(frame))

    @pytest.mark.parametrize(
        "spans, reason",
        [
            ((), "at least one span"),
            ((TextSpan("exit", Rect(0.1, 0.1, 0.1, 0.1), math.nan),), "confidence out of range"),
        ],
    )
    def test_invalid_payload_corrupt_at_payload_offset(self, spans, reason):
        payload = OcrPayload(kind=PayloadKind.TEXT_OCR, frame_ts_ms=5, spans=spans)
        with pytest.raises(wire.CorruptFrameError, match=reason) as excinfo:
            wire.decode(wire.encode(wire.WireMessage(1, payload)))
        assert excinfo.value.offset == 13  # the kind byte

    def test_invalid_utf8_string_corrupt_at_string_offset(self):
        msg = wire.WireMessage(
            1,
            OcrPayload(
                kind=PayloadKind.TEXT_OCR, frame_ts_ms=5,
                spans=(TextSpan("exit", Rect(0.1, 0.1, 0.1, 0.1), 0.9),),
            ),
        )
        frame = bytearray(wire.encode(msg))
        start = frame.index(b"exit")
        frame[start + 1] = 0xFF
        with pytest.raises(wire.CorruptFrameError, match="UTF-8") as excinfo:
            wire.decode(bytes(frame))
        assert excinfo.value.offset == start

    def test_zero_duration_segment_corrupt(self):
        frame = bytearray(wire.encode(segment(1000, 500_000)))
        frame[21:29] = bytes(8)  # duration_ms
        with pytest.raises(wire.CorruptFrameError, match="duration_ms"):
            wire.decode(bytes(frame))

    @pytest.mark.parametrize(
        "body, field",
        [
            (OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=-1), "frame_ts_ms"),
            (OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=2**64), "frame_ts_ms"),
            (wire.SelectionEvent(frame_ts_ms=-5), "frame_ts_ms"),
            (
                OcrPayload(
                    kind=PayloadKind.TEXT_OCR, frame_ts_ms=0,
                    spans=(TextSpan("a", Rect(0, 0, 1, 1), "high"),),
                ),
                "span.conf",
            ),
        ],
    )
    def test_encode_rejects_out_of_range_field(self, body, field):
        with pytest.raises(wire.WireError, match=field):
            wire.encode(wire.WireMessage(1, body))

    def test_encode_rejects_negative_session_id(self):
        with pytest.raises(wire.WireError, match="session_id") as excinfo:
            wire.encode(wire.WireMessage(-1, wire.SessionEnd()))
        assert excinfo.value.offset == 5

    @given(
        messages(),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=3),
        st.one_of(st.none(), st.integers(min_value=0)),
    )
    @settings(max_examples=500)
    def test_mutated_or_truncated_frames_raise_only_wire_errors(self, msg, edits, cut):
        frame = bytearray(wire.encode(msg))
        for position, value in edits:
            frame[position % len(frame)] = value
        if cut is not None:
            frame = frame[: cut % (len(frame) + 1)]
        try:
            decoded = wire.decode(bytes(frame))
        except wire.WireError:
            return
        assert isinstance(decoded, wire.WireMessage)


def segment(duration_ms, bitrate_bps):
    return wire.WireMessage(
        1,
        wire.VideoSegment(
            start_ms=0, duration_ms=duration_ms, fps=2.0,
            resolution=Resolution.MP3, bitrate_bps=bitrate_bps,
        ),
    )


class TestLedger:
    def test_500kbps_60s_segment(self):
        ledger = wire.account(wire.UplinkLedger(), segment(60_000, 500_000))
        assert ledger.video_bits == 30_000_000

    def test_zero_duration_rejected_by_invariant(self):
        with pytest.raises(ValueError):
            wire.VideoSegment(
                start_ms=0, duration_ms=0, fps=2.0,
                resolution=Resolution.MP3, bitrate_bps=500_000,
            )

    def test_account_with_frame_equals_encoding_itself(self):
        msg = segment(1000, 500_000)
        assert wire.account(wire.UplinkLedger(), msg, wire.encode(msg)) == wire.account(
            wire.UplinkLedger(), msg
        )

    def test_payload_bits_additive(self):
        msg = wire.WireMessage(1, OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=9))
        once = wire.account(wire.UplinkLedger(), msg)
        twice = wire.account(once, msg)
        assert twice.payload_bits == 2 * once.payload_bits
        assert twice.message_count == 2

    @given(st.lists(messages(), max_size=20), st.integers(min_value=0, max_value=19))
    @settings(max_examples=50)
    def test_concatenation_equals_sum(self, msgs, split):
        split = min(split, len(msgs))
        whole = wire.account_all(wire.UplinkLedger(), msgs)
        left = wire.account_all(wire.UplinkLedger(), msgs[:split])
        right = wire.account_all(wire.UplinkLedger(), msgs[split:])
        assert wire.merge(left, right) == whole

    def test_hybrid_cheaper_than_full_stream(self):
        # One-second session, default budget: low-res stream plus every
        # payload must undercut a 3 Mbps full-quality stream.
        payload_msgs = [
            wire.WireMessage(
                1,
                OcrPayload(
                    kind=PayloadKind.TEXT_OCR,
                    frame_ts_ms=i,
                    spans=(TextSpan("word", Rect(0, 0, 1, 1), 0.9),) * 10,
                ),
            )
            for i in range(2)
        ]
        hybrid = wire.account_all(
            wire.UplinkLedger(), [segment(1000, 500_000), *payload_msgs]
        )
        full = wire.account(wire.UplinkLedger(), segment(1000, 3_000_000))
        assert wire.total_bits(hybrid) < wire.total_bits(full)
