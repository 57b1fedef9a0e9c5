"""Device -> server wire format and uplink accounting.

Fixed binary framing so byte counts are stable across runs and
languages: a 4-byte big-endian body length, then the body as a 1-byte
message type, 8-byte big-endian session id, and a canonical
field-ordered encoding (fixed-width big-endian integers, IEEE-754
big-endian doubles, strings as 4-byte length + UTF-8, lists as 4-byte
count + elements).  Encoding is injective; decode is its inverse.
The one input decode takes that encode never writes is a payload's
flag codes unsorted or repeated: they decode to the set they name.
Anything else decode refuses with a ``WireError`` at the offset of
the first faulty field, such as a selection byte other than 0 or 1.

Payloads may arrive out of order within a session; the store downstream
is order-insensitive by design.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .model import OcrPayload, PayloadKind, QualityFlag, Rect, Resolution, TextSpan, _slot_init, validate_payload


class WireError(ValueError):
    """Base codec failure; ``offset`` is the byte position of the problem.

    Raised as-is by ``encode`` for a field the layout cannot hold (the
    offset is where that field would sit in the frame); ``decode`` raises
    the subclasses below.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class IncompleteFrameError(WireError):
    pass


class UnsupportedTypeError(WireError):
    pass


class CorruptFrameError(WireError):
    pass


MSG_OCR_PAYLOAD = 1
MSG_VIDEO_SEGMENT = 2
MSG_SELECTION_EVENT = 3
MSG_SESSION_START = 4
MSG_SESSION_END = 5

_RESOLUTION_CODE = {Resolution.MP3: 1, Resolution.MP5: 2, Resolution.MP12: 3}
_CODE_RESOLUTION = {v: k for k, v in _RESOLUTION_CODE.items()}
_FLAG_CODE = {
    QualityFlag.BLURRY: 1,
    QualityFlag.UPSIDE_DOWN: 2,
    QualityFlag.CROPPED: 3,
    QualityFlag.POOR_LIGHTING: 4,
}
_CODE_FLAG = {v: k for k, v in _FLAG_CODE.items()}
# Each of the 16 flag sets and its codes, sorted, as encode writes them.
_FLAG_BYTES = {
    frozenset(flags): bytes(sorted(_FLAG_CODE[f] for f in flags))
    for n in range(len(_FLAG_CODE) + 1)
    for flags in combinations(_FLAG_CODE, n)
}
_BYTES_FLAG = {v: k for k, v in _FLAG_BYTES.items()}


@dataclass(frozen=True)
class VideoSegment:
    start_ms: int
    duration_ms: int
    fps: float
    resolution: Resolution
    bitrate_bps: int

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate_bps must be positive")


@dataclass(frozen=True)
class SelectionEvent:
    frame_ts_ms: int


@dataclass(frozen=True)
class SessionStart:
    pass


@dataclass(frozen=True)
class SessionEnd:
    pass


Body = OcrPayload | VideoSegment | SelectionEvent | SessionStart | SessionEnd


@_slot_init
@dataclass(frozen=True, slots=True)
class WireMessage:
    session_id: int
    body: Body

    @property
    def msg_type(self) -> int:
        return _MSG_TYPE[type(self.body)]


_MSG_TYPE = {
    OcrPayload: MSG_OCR_PAYLOAD,
    VideoSegment: MSG_VIDEO_SEGMENT,
    SelectionEvent: MSG_SELECTION_EVENT,
    SessionStart: MSG_SESSION_START,
    SessionEnd: MSG_SESSION_END,
}
_U8, _U32, _U64, _F64 = (struct.Struct(fmt) for fmt in (">B", ">I", ">Q", ">d"))
_TYPE_NAME = {_U8: "u8", _U32: "u32", _U64: "u64", _F64: "f64"}
_CODE_KIND = {int(k): k for k in PayloadKind}


class _Layout:
    """A fixed run of named fields, packed and unpacked by one precompiled
    ``struct.Struct``.  On failure the fields are checked one by one, so
    the error names the first field at fault and that field's offset."""

    def __init__(self, *fields: tuple[str, struct.Struct]):
        self.fields = fields
        self.struct = struct.Struct(">" + "".join(fmt.format[1:] for _, fmt in fields))
        self.size = self.struct.size

    def pack(self, offset: int, *values: int | float) -> bytes:
        """The fields packed; ``offset`` is where the first one sits in
        the frame, for the error."""
        try:
            return self.struct.pack(*values)
        except struct.error:
            for (name, fmt), value in zip(self.fields, values):
                try:
                    fmt.pack(value)
                except struct.error:
                    raise WireError(
                        f"field {name} cannot be encoded as {_TYPE_NAME[fmt]}: {value!r}", offset
                    ) from None
                offset += fmt.size
            raise

    def unpack(self, data: bytes, pos: int) -> tuple:
        """The fields at ``pos``; a frame that ends first is corrupt at the
        first field past its end (``truncated``)."""
        if pos + self.size > len(data):
            raise self.truncated(data, pos)
        return self.struct.unpack_from(data, pos)

    def truncated(self, data: bytes, pos: int) -> CorruptFrameError:
        """The error for the fields at ``pos`` in a frame that ends before
        they do: the first field past its end, at that field's offset."""
        for _, fmt in self.fields:
            if pos + fmt.size > len(data):
                return CorruptFrameError("body truncated", pos)
            pos += fmt.size
        raise AssertionError("the fields fit in the frame")


# Every frame starts with its body length and this header.
_FRAME = (("length", _U32), ("msg_type", _U8), ("session_id", _U64))
_HEAD = _Layout(*_FRAME)
# An OcrPayload frame: the fixed fields below, then one u8 per flag code,
# the spans count (u32) and the spans.
_OCR_HEAD = _Layout(
    *_FRAME, ("kind", _U8), ("frame_ts_ms", _U64), ("selection", _U8), ("quality_flags count", _U32)
)
_SPANS_COUNT = _Layout(("spans count", _U32))
# A span: text length, UTF-8 text, then box and confidence.
_TEXT_LENGTH = _Layout(("span.text", _U32))
_SPAN_BOX = _Layout(*((f"span.{name}", _F64) for name in ("bbox.x", "bbox.y", "bbox.w", "bbox.h", "conf")))
# VideoSegment; decode checks the resolution code before the bitrate.
_VIDEO_FIELDS = _Layout(("start_ms", _U64), ("duration_ms", _U64), ("fps", _F64), ("resolution", _U8))
_BITRATE = _Layout(("bitrate_bps", _U64))
_VIDEO_HEAD = _Layout(*_FRAME, *_VIDEO_FIELDS.fields, *_BITRATE.fields)
_SELECTION_FIELDS = _Layout(("frame_ts_ms", _U64))
_SELECTION_HEAD = _Layout(*_FRAME, *_SELECTION_FIELDS.fields)


def _span_bytes(spans: tuple[TextSpan, ...], offset: int) -> bytes:
    """The encoded spans, the first at frame offset ``offset``.

    One ``pack`` of each span's length and one of its five doubles;
    when one fails, the spans are packed again field by field, which
    raises the ``WireError`` naming the first field at fault.
    """
    parts: list[bytes] = []
    append = parts.append
    pack_length, pack_box = _TEXT_LENGTH.struct.pack, _SPAN_BOX.struct.pack
    try:
        for span in spans:
            raw = span.text.encode("utf-8")
            bbox = span.bbox
            append(pack_length(len(raw)))
            append(raw)
            append(pack_box(bbox.x, bbox.y, bbox.w, bbox.h, span.conf))
    except struct.error:
        for span in spans:
            raw = span.text.encode("utf-8")
            _TEXT_LENGTH.pack(offset, len(raw))
            offset += _TEXT_LENGTH.size + len(raw)
            bbox = span.bbox
            _SPAN_BOX.pack(offset, bbox.x, bbox.y, bbox.w, bbox.h, span.conf)
            offset += _SPAN_BOX.size
        raise
    return b"".join(parts)


def encode(msg: WireMessage) -> bytes:
    """The frame for ``msg``; ``WireError`` names a field out of its range."""
    body = msg.body
    msg_type = msg.msg_type
    if msg_type == MSG_OCR_PAYLOAD:
        # The variable tail first, so that its length can go into the
        # one pack of the length and the fixed fields.
        codes = _FLAG_BYTES[body.quality_flags]
        fields = (msg_type, msg.session_id, int(body.kind), body.frame_ts_ms, 1 if body.selection else 0, len(codes))
        spans = body.spans
        tail = codes + _U32.pack(len(spans))
        if spans:
            try:
                tail += _span_bytes(spans, _OCR_HEAD.size + len(tail))
            except WireError:
                _OCR_HEAD.pack(0, 0, *fields)  # a fixed field at fault comes first
                raise
        return _OCR_HEAD.pack(0, _OCR_HEAD.size - 4 + len(tail), *fields) + tail
    if msg_type == MSG_VIDEO_SEGMENT:
        return _VIDEO_HEAD.pack(
            0, _VIDEO_HEAD.size - 4, msg_type, msg.session_id, body.start_ms, body.duration_ms, body.fps,
            _RESOLUTION_CODE[body.resolution], body.bitrate_bps,
        )
    if msg_type == MSG_SELECTION_EVENT:
        return _SELECTION_HEAD.pack(0, _SELECTION_HEAD.size - 4, msg_type, msg.session_id, body.frame_ts_ms)
    # SessionStart / SessionEnd carry no fields.
    return _HEAD.pack(0, _HEAD.size - 4, msg_type, msg.session_id)


def _ocr_fields_fault(data: bytes) -> CorruptFrameError:
    """The error for an OcrPayload frame that ends inside its fixed
    fields or holds an unknown kind or a selection byte other than 0 or
    1 there, read field by field: the first faulty field, at its offset."""
    pos = _HEAD.size
    for name, fmt in _OCR_HEAD.fields[len(_FRAME):]:
        if pos + fmt.size > len(data):
            return CorruptFrameError("body truncated", pos)
        (value,) = fmt.unpack_from(data, pos)
        if name == "kind" and value not in _CODE_KIND:
            return CorruptFrameError(f"unknown payload kind {value}", pos)
        if name == "selection" and value > 1:
            return CorruptFrameError(f"selection byte {value} is neither 0 nor 1", pos)
        pos += fmt.size
    raise AssertionError("the fixed fields hold no fault")


def decode(data: bytes) -> WireMessage:
    size = len(data)
    ocr = size >= _OCR_HEAD.size and data[4] == MSG_OCR_PAYLOAD
    if ocr:
        # An OcrPayload frame's fixed fields, read in one go.
        body_len, msg_type, session_id, kind_code, frame_ts, selection, n_flags = _OCR_HEAD.struct.unpack_from(data)
    elif size >= 4:
        body_len = _U32.unpack_from(data)[0]
    else:
        raise IncompleteFrameError("missing length header", size)
    if size < 4 + body_len:
        raise IncompleteFrameError("frame shorter than declared length", size)
    if size > 4 + body_len:
        raise CorruptFrameError("trailing bytes after frame", 4 + body_len)
    if body_len < 9:
        raise CorruptFrameError("body too short for header", 4)
    # From here on the frame ends exactly where its body does.
    if not ocr:
        _, msg_type, session_id = _HEAD.struct.unpack_from(data)
    pos = _HEAD.size
    body: Body
    if msg_type == MSG_OCR_PAYLOAD:
        if not ocr or (kind := _CODE_KIND.get(kind_code)) is None or selection > 1:
            raise _ocr_fields_fault(data)
        pos = _OCR_HEAD.size
        codes = data[pos : pos + n_flags]
        flags = _BYTES_FLAG.get(codes)
        if flags is None:  # codes that encode never writes: unsorted, repeated or unknown
            for i, code in enumerate(codes):
                if code not in _CODE_FLAG:
                    raise CorruptFrameError(f"unknown quality flag {code}", pos + i)
            flags = frozenset([_CODE_FLAG[c] for c in codes])
        if len(codes) < n_flags:
            raise CorruptFrameError("body truncated", pos + len(codes))
        pos += n_flags
        (n_spans,) = _SPANS_COUNT.unpack(data, pos)
        pos += _SPANS_COUNT.size
        # Each span: one unpack of its length and one of its five
        # doubles, bounds checked here; a frame that ends inside a span
        # is named by the _Layout the fields belong to.
        spans = []
        append = spans.append
        unpack_length, length_size = _TEXT_LENGTH.struct.unpack_from, _TEXT_LENGTH.size
        unpack_box, box_size = _SPAN_BOX.struct.unpack_from, _SPAN_BOX.size
        for _ in range(n_spans):
            if pos + length_size > size:
                raise _TEXT_LENGTH.truncated(data, pos)
            (n,) = unpack_length(data, pos)
            pos += length_size
            end = pos + n
            if end > size:
                raise CorruptFrameError("body truncated", pos)
            try:
                text = data[pos:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptFrameError(f"string is not UTF-8: {exc.reason}", pos) from None
            if end + box_size > size:
                raise _SPAN_BOX.truncated(data, end)
            x, y, w, h, conf = unpack_box(data, end)
            pos = end + box_size
            append(TextSpan(text, Rect(x, y, w, h), conf))
        body = OcrPayload(kind, frame_ts, tuple(spans), selection == 1, flags)
        violations = validate_payload(body)
        if violations:
            raise CorruptFrameError(f"invalid payload: {violations[0]}", _HEAD.size)
    elif msg_type == MSG_VIDEO_SEGMENT:
        start_ms, duration_ms, fps, res_code = _VIDEO_FIELDS.unpack(data, pos)
        pos += _VIDEO_FIELDS.size
        if res_code not in _CODE_RESOLUTION:
            raise CorruptFrameError(f"unknown resolution code {res_code}", pos - 1)
        (bitrate_bps,) = _BITRATE.unpack(data, pos)
        pos += _BITRATE.size
        try:
            body = VideoSegment(start_ms, duration_ms, fps, _CODE_RESOLUTION[res_code], bitrate_bps)
        except ValueError as exc:
            raise CorruptFrameError(f"invalid video segment: {exc}", _HEAD.size) from None
    elif msg_type == MSG_SELECTION_EVENT:
        (frame_ts,) = _SELECTION_FIELDS.unpack(data, pos)
        pos += _SELECTION_FIELDS.size
        body = SelectionEvent(frame_ts)
    elif msg_type == MSG_SESSION_START:
        body = SessionStart()
    elif msg_type == MSG_SESSION_END:
        body = SessionEnd()
    else:
        raise UnsupportedTypeError(f"unsupported message type {msg_type}", 4)
    if pos != size:
        raise CorruptFrameError("body length mismatch", pos)
    return WireMessage(session_id, body)


@_slot_init
@dataclass(frozen=True, slots=True)
class UplinkLedger:
    """Exact per-session bit accounting for the simulated uplink."""

    video_bits: Fraction = Fraction(0)
    payload_bits: int = 0
    message_count: int = 0


def account(ledger: UplinkLedger, msg: WireMessage, frame: bytes) -> UplinkLedger:
    """Charge one message, whose encoding is ``frame``, to the ledger.

    Every message is charged its encoded length in bits.  A video segment
    additionally charges its simulated stream (bitrate x duration); the
    descriptor itself only counts its bytes.
    """
    video = ledger.video_bits
    if isinstance(msg.body, VideoSegment):
        video += Fraction(msg.body.bitrate_bps * msg.body.duration_ms, 1000)
    return UplinkLedger(video, ledger.payload_bits + len(frame) * 8, ledger.message_count + 1)
