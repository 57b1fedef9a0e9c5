import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr import wire
from wearocr.model import OcrPayload, PayloadKind, QualityFlag, Rect, Resolution, TextSpan, validate_payload

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


# Golden frames of the three spanless payloads a device pass sends most:
# one per kind, with the flag a blurry frame carries and with a selection
# mark.  Must never change.
SPANLESS_GOLDENS = [
    (
        OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=1500),
        "0000001b0101020304050607080200000000000005dc000000000000000000",
    ),
    (
        OcrPayload(kind=PayloadKind.BLURRY, frame_ts_ms=1500, quality_flags=frozenset({QualityFlag.BLURRY})),
        "0000001c0101020304050607080400000000000005dc00000000010100000000",
    ),
    (
        OcrPayload(kind=PayloadKind.SIMILAR_SCENE, frame_ts_ms=1500, selection=True),
        "0000001b0101020304050607080300000000000005dc010000000000000000",
    ),
]


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

    @pytest.mark.parametrize("payload, golden", SPANLESS_GOLDENS, ids=["no_text", "blurry", "similar"])
    def test_spanless_golden_hex_vectors(self, payload, golden):
        msg = wire.WireMessage(session_id=GOLDEN_MESSAGE.session_id, body=payload)
        assert wire.encode(msg).hex() == golden
        assert wire.decode(bytes.fromhex(golden)) == msg

    @pytest.mark.parametrize("value", [2, 3, 0x80, 0xFF])
    def test_selection_byte_other_than_0_or_1_is_corrupt(self, value):
        frame = bytearray(bytes.fromhex(SPANLESS_GOLDENS[0][1]))
        assert frame[SELECTION_AT] == 0
        frame[SELECTION_AT] = value
        frame = bytes(frame)
        with pytest.raises(wire.CorruptFrameError, match=f"selection byte {value} is neither 0 nor 1") as info:
            wire.decode(frame)
        assert info.value.offset == SELECTION_AT
        assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame)

    def test_a_bad_kind_is_named_before_a_bad_selection_byte(self):
        frame = bytearray(bytes.fromhex(SPANLESS_GOLDENS[0][1]))
        frame[13], frame[SELECTION_AT] = 99, 2
        frame = bytes(frame)
        with pytest.raises(wire.CorruptFrameError, match="unknown payload kind 99") as info:
            wire.decode(frame)
        assert info.value.offset == 13
        assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame)

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

    # Three spans and one flag code.  The fixed fields take 27 bytes
    # (length 4, type 1, session 8, kind 1, ts 8, selection 1, flag
    # count 4), then the flag code 1 and the spans count 4: the first
    # span starts at 32.  A span takes 4 + len(text) + 5 * 8 bytes, so
    # "a" ends at 32 + 45 = 77 and "bc" at 77 + 46 = 123.  In the third,
    # "def", the box starts at 123 + 4 + 3 = 130: bbox.w at 146, conf at 162.
    @pytest.mark.parametrize(
        "bbox, conf, field, offset",
        [
            (Rect(0, 0, "wide", 1), 0.5, "span.bbox.w", 146),
            (Rect(0, 0, 1, 1), "high", "span.conf", 162),
        ],
    )
    def test_encode_names_a_fault_in_a_later_span_at_its_offset(self, bbox, conf, field, offset):
        spans = (
            TextSpan("a", Rect(0, 0, 1, 1), 0.9), TextSpan("bc", Rect(0, 0, 1, 1), 0.9), TextSpan("def", bbox, conf)
        )
        body = OcrPayload(
            kind=PayloadKind.TEXT_OCR, frame_ts_ms=0, spans=spans, quality_flags=frozenset({QualityFlag.BLURRY})
        )
        with pytest.raises(wire.WireError, match=f"field {field} cannot be encoded as f64") as excinfo:
            wire.encode(wire.WireMessage(1, body))
        assert excinfo.value.offset == offset

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


# -- field-by-field reference codec ---------------------------------------
#
# A reference codec with one ``struct`` call per field, each with its own
# range check (writer) or truncation check (reader).  ``wire`` packs and
# unpacks whole runs of fields at once; these properties hold it to the
# same bytes, the same decoded messages and the same error texts and
# offsets as this reference.

_ORACLE_U8, _ORACLE_U32, _ORACLE_U64, _ORACLE_F64 = (
    struct.Struct(fmt) for fmt in (">B", ">I", ">Q", ">d")
)
_ORACLE_TYPE_NAME = {_ORACLE_U8: "u8", _ORACLE_U32: "u32", _ORACLE_U64: "u64", _ORACLE_F64: "f64"}
_ORACLE_MSG_TYPE = {
    OcrPayload: 1, wire.VideoSegment: 2, wire.SelectionEvent: 3, wire.SessionStart: 4, wire.SessionEnd: 5,
}
_ORACLE_RESOLUTION = {Resolution.MP3: 1, Resolution.MP5: 2, Resolution.MP12: 3}
_ORACLE_FLAG = {
    QualityFlag.BLURRY: 1, QualityFlag.UPSIDE_DOWN: 2, QualityFlag.CROPPED: 3, QualityFlag.POOR_LIGHTING: 4,
}


class OracleWriter:
    def __init__(self):
        self.parts = []

    def put(self, fmt, v, name):
        try:
            self.parts.append(fmt.pack(v))
        except struct.error:
            offset = 4 + sum(map(len, self.parts))
            raise wire.WireError(
                f"field {name} cannot be encoded as {_ORACLE_TYPE_NAME[fmt]}: {v!r}", offset
            ) from None

    def string(self, s, name):
        raw = s.encode("utf-8")
        self.put(_ORACLE_U32, len(raw), name)
        self.parts.append(raw)


def oracle_encode(msg):
    w = OracleWriter()
    w.put(_ORACLE_U8, _ORACLE_MSG_TYPE[type(msg.body)], "msg_type")
    w.put(_ORACLE_U64, msg.session_id, "session_id")
    body = msg.body
    if isinstance(body, OcrPayload):
        w.put(_ORACLE_U8, int(body.kind), "kind")
        w.put(_ORACLE_U64, body.frame_ts_ms, "frame_ts_ms")
        w.put(_ORACLE_U8, 1 if body.selection else 0, "selection")
        flags = sorted(_ORACLE_FLAG[f] for f in body.quality_flags)
        w.put(_ORACLE_U32, len(flags), "quality_flags count")
        for code in flags:
            w.put(_ORACLE_U8, code, "quality_flag")
        w.put(_ORACLE_U32, len(body.spans), "spans count")
        for span in body.spans:
            w.string(span.text, "span.text")
            w.put(_ORACLE_F64, span.bbox.x, "span.bbox.x")
            w.put(_ORACLE_F64, span.bbox.y, "span.bbox.y")
            w.put(_ORACLE_F64, span.bbox.w, "span.bbox.w")
            w.put(_ORACLE_F64, span.bbox.h, "span.bbox.h")
            w.put(_ORACLE_F64, span.conf, "span.conf")
    elif isinstance(body, wire.VideoSegment):
        w.put(_ORACLE_U64, body.start_ms, "start_ms")
        w.put(_ORACLE_U64, body.duration_ms, "duration_ms")
        w.put(_ORACLE_F64, body.fps, "fps")
        w.put(_ORACLE_U8, _ORACLE_RESOLUTION[body.resolution], "resolution")
        w.put(_ORACLE_U64, body.bitrate_bps, "bitrate_bps")
    elif isinstance(body, wire.SelectionEvent):
        w.put(_ORACLE_U64, body.frame_ts_ms, "frame_ts_ms")
    payload = b"".join(w.parts)
    return _ORACLE_U32.pack(len(payload)) + payload


class OracleReader:
    def __init__(self, data, base_offset):
        self.data = data
        self.pos = 0
        self.base = base_offset

    @property
    def offset(self):
        return self.base + self.pos

    def take(self, n):
        if self.pos + n > len(self.data):
            raise wire.CorruptFrameError("body truncated", self.offset)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def get(self, fmt):
        return fmt.unpack(self.take(fmt.size))[0]

    def string(self):
        n = self.get(_ORACLE_U32)
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise wire.CorruptFrameError(f"string is not UTF-8: {exc.reason}", self.offset - n) from None


def oracle_decode(data):
    code_flag = {v: k for k, v in _ORACLE_FLAG.items()}
    code_resolution = {v: k for k, v in _ORACLE_RESOLUTION.items()}
    if len(data) < 4:
        raise wire.IncompleteFrameError("missing length header", len(data))
    body_len = _ORACLE_U32.unpack_from(data)[0]
    if len(data) < 4 + body_len:
        raise wire.IncompleteFrameError("frame shorter than declared length", len(data))
    if len(data) > 4 + body_len:
        raise wire.CorruptFrameError("trailing bytes after frame", 4 + body_len)
    if body_len < 9:
        raise wire.CorruptFrameError("body too short for header", 4)
    r = OracleReader(data[4 : 4 + body_len], base_offset=4)
    msg_type = r.get(_ORACLE_U8)
    session_id = r.get(_ORACLE_U64)
    if msg_type == 1:
        fields_at = r.offset
        kind_code = r.get(_ORACLE_U8)
        try:
            kind = PayloadKind(kind_code)
        except ValueError:
            raise wire.CorruptFrameError(f"unknown payload kind {kind_code}", r.offset - 1) from None
        frame_ts = r.get(_ORACLE_U64)
        selection = r.get(_ORACLE_U8)
        if selection not in (0, 1):
            raise wire.CorruptFrameError(f"selection byte {selection} is neither 0 nor 1", r.offset - 1)
        flags = set()
        for _ in range(r.get(_ORACLE_U32)):
            code = r.get(_ORACLE_U8)
            if code not in code_flag:
                raise wire.CorruptFrameError(f"unknown quality flag {code}", r.offset - 1)
            flags.add(code_flag[code])
        spans = []
        for _ in range(r.get(_ORACLE_U32)):
            text = r.string()
            bbox = Rect(r.get(_ORACLE_F64), r.get(_ORACLE_F64), r.get(_ORACLE_F64), r.get(_ORACLE_F64))
            spans.append(TextSpan(text=text, bbox=bbox, conf=r.get(_ORACLE_F64)))
        body = OcrPayload(
            kind=kind, frame_ts_ms=frame_ts, spans=tuple(spans),
            selection=selection == 1, quality_flags=frozenset(flags),
        )
        violations = validate_payload(body)
        if violations:
            raise wire.CorruptFrameError(f"invalid payload: {violations[0]}", fields_at)
    elif msg_type == 2:
        fields_at = r.offset
        start_ms = r.get(_ORACLE_U64)
        duration_ms = r.get(_ORACLE_U64)
        fps = r.get(_ORACLE_F64)
        res_code = r.get(_ORACLE_U8)
        if res_code not in code_resolution:
            raise wire.CorruptFrameError(f"unknown resolution code {res_code}", r.offset - 1)
        bitrate_bps = r.get(_ORACLE_U64)
        try:
            body = wire.VideoSegment(
                start_ms=start_ms, duration_ms=duration_ms, fps=fps,
                resolution=code_resolution[res_code], bitrate_bps=bitrate_bps,
            )
        except ValueError as exc:
            raise wire.CorruptFrameError(f"invalid video segment: {exc}", fields_at) from None
    elif msg_type == 3:
        body = wire.SelectionEvent(frame_ts_ms=r.get(_ORACLE_U64))
    elif msg_type == 4:
        body = wire.SessionStart()
    elif msg_type == 5:
        body = wire.SessionEnd()
    else:
        raise wire.UnsupportedTypeError(f"unsupported message type {msg_type}", 4)
    if r.pos != body_len:
        raise wire.CorruptFrameError("body length mismatch", r.offset)
    return wire.WireMessage(session_id=session_id, body=body)


def codec_outcome(fn, arg):
    """What ``fn(arg)`` returns, or the type, text and offset of its error.

    Values are compared by ``repr`` so that a decoded NaN matches itself.
    A payload's flag set is rendered as its sorted members, because two
    equal sets can print their members in different orders.
    """
    try:
        value = fn(arg)
    except wire.WireError as exc:
        return type(exc), str(exc), exc.offset
    if isinstance(getattr(value, "body", None), OcrPayload):
        flags = sorted(value.body.quality_flags)
        value = dataclasses.replace(value, body=dataclasses.replace(value.body, quality_flags=frozenset()))
        return "value", repr(value), flags
    return "value", repr(value)


def wide_ints():
    # Mostly in range, often just outside a u8/u64 field's range.
    return st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([-1, 256, 2**64, -(2**63)]),
        st.integers(min_value=-(2**70), max_value=2**70),
    )


def loose_messages():
    """Messages whose integer and float fields may not fit the layout."""
    loose_float = st.one_of(st.floats(), st.sampled_from(["high", None]))
    span = st.builds(
        TextSpan, text=texts(),
        bbox=st.builds(Rect, loose_float, loose_float, loose_float, loose_float),
        conf=loose_float,
    )
    payload = st.builds(
        OcrPayload,
        kind=st.sampled_from(list(PayloadKind)),
        frame_ts_ms=wide_ints(),
        spans=st.lists(span, max_size=3).map(tuple),
        selection=st.booleans(),
        quality_flags=st.frozensets(st.sampled_from(list(QualityFlag))),
    )
    positive = st.one_of(st.integers(min_value=1, max_value=2**64 - 1), st.just(2**64))
    segment_body = st.builds(
        wire.VideoSegment, start_ms=wide_ints(), duration_ms=positive, fps=st.floats(),
        resolution=st.sampled_from(list(Resolution)), bitrate_bps=positive,
    )
    body = st.one_of(
        payload, segment_body, st.builds(wire.SelectionEvent, frame_ts_ms=wide_ints()),
        st.just(wire.SessionStart()), st.just(wire.SessionEnd()),
    )
    return st.builds(wire.WireMessage, session_id=wide_ints(), body=body)


class TestAgainstFieldByFieldCodec:
    @given(messages())
    @settings(max_examples=300)
    def test_encode_bytes_match(self, msg):
        assert wire.encode(msg) == oracle_encode(msg)

    @given(loose_messages())
    @settings(max_examples=500)
    def test_encode_errors_match(self, msg):
        assert codec_outcome(wire.encode, msg) == codec_outcome(oracle_encode, msg)

    @given(
        messages(),
        st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=3),
        st.one_of(st.none(), st.integers(min_value=0)),
        st.booleans(),
    )
    @settings(max_examples=500)
    def test_decode_of_mutated_frames_matches(self, msg, edits, cut, relabel):
        frame = bytearray(wire.encode(msg))
        for position, value in edits:
            frame[position % len(frame)] = value
        if cut is not None:
            frame = frame[: cut % (len(frame) + 1)]
        if relabel and len(frame) >= 4:
            # Declare the length the frame now has, so decoding runs into
            # the cut inside the body.
            frame[:4] = (len(frame) - 4).to_bytes(4, "big")
        frame = bytes(frame)
        assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame)


# The flag codes of an OCR payload frame start after the length, type,
# session id, kind, frame_ts_ms, selection and flag count fields.
FLAGS_AT = 27
SELECTION_AT = 22


@pytest.mark.parametrize(
    "golden", [GOLDEN_HEX] + [golden for _, golden in SPANLESS_GOLDENS], ids=["spans", "no_text", "blurry", "similar"]
)
def test_every_prefix_of_a_golden_frame_decodes_as_the_oracle_does(golden):
    whole = bytes.fromhex(golden)
    for cut in range(len(whole) + 1):
        prefix = whole[:cut]
        frames = [prefix]
        if cut >= 4:
            # The same bytes declaring the length they have, so decoding
            # runs into the cut inside the body.
            frames.append((cut - 4).to_bytes(4, "big") + prefix[4:])
        for frame in frames:
            assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame), (cut, frame.hex())


def frame_with_flag_codes(codes: bytes, count: int | None = None) -> bytes:
    """A NO_TEXT payload frame that carries ``codes`` as its flag codes,
    declaring ``count`` of them (default ``len(codes)``)."""
    frame = bytearray(wire.encode(wire.WireMessage(1, OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=5))))
    assert frame[FLAGS_AT - 4 : FLAGS_AT] == bytes(4)
    frame[FLAGS_AT - 4 : FLAGS_AT] = (len(codes) if count is None else count).to_bytes(4, "big")
    frame[FLAGS_AT:FLAGS_AT] = codes
    frame[:4] = (len(frame) - 4).to_bytes(4, "big")
    return bytes(frame)


class TestFlagSets:
    @pytest.mark.parametrize(
        "codes, flags",
        [
            (b"\x02\x01", {QualityFlag.BLURRY, QualityFlag.UPSIDE_DOWN}),
            (b"\x01\x01", {QualityFlag.BLURRY}),
            (b"\x04\x01\x04\x03", {QualityFlag.BLURRY, QualityFlag.CROPPED, QualityFlag.POOR_LIGHTING}),
        ],
    )
    def test_unsorted_or_repeated_codes_decode_to_their_shared_set(self, codes, flags):
        frame = frame_with_flag_codes(codes)
        decoded = wire.decode(frame).body.quality_flags
        assert decoded == flags
        assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame)

    @pytest.mark.parametrize(
        "codes, count, message, offset",
        [
            (b"\x01\x09", None, "unknown quality flag 9", FLAGS_AT + 1),
            (b"\x09\x01", None, "unknown quality flag 9", FLAGS_AT),
            (b"\x00", None, "unknown quality flag 0", FLAGS_AT),
            # A known, sorted run of codes that is cut short: the spans
            # count after it reads as codes 0.
            (b"\x01\x02", 3, "unknown quality flag 0", FLAGS_AT + 2),
        ],
    )
    def test_bad_codes_are_corrupt_at_their_offset(self, codes, count, message, offset):
        frame = frame_with_flag_codes(codes, count)
        with pytest.raises(wire.CorruptFrameError, match=message) as info:
            wire.decode(frame)
        assert info.value.offset == offset
        assert codec_outcome(wire.decode, frame) == codec_outcome(oracle_decode, frame)

    def test_truncated_canonical_codes_are_corrupt(self):
        frame = frame_with_flag_codes(b"\x01\x02", 3)
        cut = frame[: FLAGS_AT + 2]
        cut = (len(cut) - 4).to_bytes(4, "big") + cut[4:]
        with pytest.raises(wire.CorruptFrameError, match="body truncated") as info:
            wire.decode(cut)
        assert info.value.offset == FLAGS_AT + 2
        assert codec_outcome(wire.decode, cut) == codec_outcome(oracle_decode, cut)


def segment(duration_ms, bitrate_bps):
    return wire.WireMessage(
        1,
        wire.VideoSegment(
            start_ms=0, duration_ms=duration_ms, fps=2.0,
            resolution=Resolution.MP3, bitrate_bps=bitrate_bps,
        ),
    )


def charge(ledger, *msgs):
    for msg in msgs:
        ledger = wire.account(ledger, msg, wire.encode(msg))
    return ledger


class TestLedger:
    def test_500kbps_60s_segment(self):
        ledger = charge(wire.UplinkLedger(), segment(60_000, 500_000))
        assert ledger.video_bits == 30_000_000

    def test_zero_duration_rejected_by_invariant(self):
        with pytest.raises(ValueError):
            wire.VideoSegment(
                start_ms=0, duration_ms=0, fps=2.0,
                resolution=Resolution.MP3, bitrate_bps=500_000,
            )

    def test_payload_bits_additive(self):
        msg = wire.WireMessage(1, OcrPayload(kind=PayloadKind.NO_TEXT, frame_ts_ms=9))
        once = charge(wire.UplinkLedger(), msg)
        twice = charge(once, msg)
        assert twice.payload_bits == 2 * once.payload_bits
        assert twice.message_count == 2

    @given(st.lists(messages(), max_size=20), st.integers(min_value=0, max_value=19))
    @settings(max_examples=50)
    def test_concatenation_equals_sum(self, msgs, split):
        split = min(split, len(msgs))
        whole = charge(wire.UplinkLedger(), *msgs)
        left = charge(wire.UplinkLedger(), *msgs[:split])
        right = charge(wire.UplinkLedger(), *msgs[split:])
        assert whole == wire.UplinkLedger(
            left.video_bits + right.video_bits,
            left.payload_bits + right.payload_bits,
            left.message_count + right.message_count,
        )

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
        hybrid = charge(wire.UplinkLedger(), segment(1000, 500_000), *payload_msgs)
        full = charge(wire.UplinkLedger(), segment(1000, 3_000_000))
        assert hybrid.video_bits + hybrid.payload_bits < full.video_bits + full.payload_bits
