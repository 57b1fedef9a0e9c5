"""Device -> server wire format and uplink accounting.

Fixed binary framing so byte counts are stable across runs and
languages: a 4-byte big-endian body length, then the body as a 1-byte
message type, 8-byte big-endian session id, and a canonical
field-ordered encoding (fixed-width big-endian integers, IEEE-754
big-endian doubles, strings as 4-byte length + UTF-8, lists as 4-byte
count + elements).  Encoding is injective; decode is its inverse.

Payloads may arrive out of order within a session; the store downstream
is order-insensitive by design.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import OcrPayload, PayloadKind, QualityFlag, Rect, Resolution, TextSpan, validate_payload


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


@dataclass(frozen=True)
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


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def put(self, fmt: struct.Struct, v: int | float, name: str) -> None:
        try:
            self.parts.append(fmt.pack(v))
        except struct.error:
            offset = 4 + sum(map(len, self.parts))
            raise WireError(
                f"field {name} cannot be encoded as {_TYPE_NAME[fmt]}: {v!r}", offset
            ) from None

    def string(self, s: str, name: str) -> None:
        raw = s.encode("utf-8")
        self.put(_U32, len(raw), name)
        self.parts.append(raw)


class _Reader:
    def __init__(self, data: bytes, base_offset: int):
        self.data = data
        self.pos = 0
        self.base = base_offset

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptFrameError("body truncated", self.offset)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def get(self, fmt: struct.Struct) -> int | float:
        return fmt.unpack(self.take(fmt.size))[0]

    def string(self) -> str:
        n = self.get(_U32)
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFrameError(f"string is not UTF-8: {exc.reason}", self.offset - n) from None


def _encode_span(w: _Writer, span: TextSpan) -> None:
    w.string(span.text, "span.text")
    bbox = span.bbox
    w.put(_F64, bbox.x, "span.bbox.x")
    w.put(_F64, bbox.y, "span.bbox.y")
    w.put(_F64, bbox.w, "span.bbox.w")
    w.put(_F64, bbox.h, "span.bbox.h")
    w.put(_F64, span.conf, "span.conf")


def _decode_span(r: _Reader) -> TextSpan:
    text = r.string()
    bbox = Rect(r.get(_F64), r.get(_F64), r.get(_F64), r.get(_F64))
    return TextSpan(text=text, bbox=bbox, conf=r.get(_F64))


def encode(msg: WireMessage) -> bytes:
    """The frame for ``msg``; ``WireError`` names a field out of its range."""
    w = _Writer()
    w.put(_U8, msg.msg_type, "msg_type")
    w.put(_U64, msg.session_id, "session_id")
    body = msg.body
    if isinstance(body, OcrPayload):
        w.put(_U8, int(body.kind), "kind")
        w.put(_U64, body.frame_ts_ms, "frame_ts_ms")
        w.put(_U8, 1 if body.selection else 0, "selection")
        flags = sorted(_FLAG_CODE[f] for f in body.quality_flags)
        w.put(_U32, len(flags), "quality_flags count")
        for code in flags:
            w.put(_U8, code, "quality_flag")
        w.put(_U32, len(body.spans), "spans count")
        for span in body.spans:
            _encode_span(w, span)
    elif isinstance(body, VideoSegment):
        w.put(_U64, body.start_ms, "start_ms")
        w.put(_U64, body.duration_ms, "duration_ms")
        w.put(_F64, body.fps, "fps")
        w.put(_U8, _RESOLUTION_CODE[body.resolution], "resolution")
        w.put(_U64, body.bitrate_bps, "bitrate_bps")
    elif isinstance(body, SelectionEvent):
        w.put(_U64, body.frame_ts_ms, "frame_ts_ms")
    # SessionStart / SessionEnd carry no fields.
    payload = b"".join(w.parts)
    return _U32.pack(len(payload)) + payload


def decode(data: bytes) -> WireMessage:
    if len(data) < 4:
        raise IncompleteFrameError("missing length header", len(data))
    body_len = _U32.unpack_from(data)[0]
    if len(data) < 4 + body_len:
        raise IncompleteFrameError("frame shorter than declared length", len(data))
    if len(data) > 4 + body_len:
        raise CorruptFrameError("trailing bytes after frame", 4 + body_len)
    if body_len < 9:
        raise CorruptFrameError("body too short for header", 4)
    r = _Reader(data[4 : 4 + body_len], base_offset=4)
    msg_type = r.get(_U8)
    session_id = r.get(_U64)
    body: Body
    if msg_type == MSG_OCR_PAYLOAD:
        fields_at = r.offset
        kind_code = r.get(_U8)
        try:
            kind = PayloadKind(kind_code)
        except ValueError:
            raise CorruptFrameError(f"unknown payload kind {kind_code}", r.offset - 1) from None
        frame_ts = r.get(_U64)
        selection = r.get(_U8) != 0
        flags = set()
        for _ in range(r.get(_U32)):
            code = r.get(_U8)
            if code not in _CODE_FLAG:
                raise CorruptFrameError(f"unknown quality flag {code}", r.offset - 1)
            flags.add(_CODE_FLAG[code])
        spans = tuple(_decode_span(r) for _ in range(r.get(_U32)))
        body = OcrPayload(
            kind=kind, frame_ts_ms=frame_ts, spans=spans,
            selection=selection, quality_flags=frozenset(flags),
        )
        violations = validate_payload(body)
        if violations:
            raise CorruptFrameError(f"invalid payload: {violations[0]}", fields_at)
    elif msg_type == MSG_VIDEO_SEGMENT:
        fields_at = r.offset
        start_ms = r.get(_U64)
        duration_ms = r.get(_U64)
        fps = r.get(_F64)
        res_code = r.get(_U8)
        if res_code not in _CODE_RESOLUTION:
            raise CorruptFrameError(f"unknown resolution code {res_code}", r.offset - 1)
        bitrate_bps = r.get(_U64)
        try:
            body = VideoSegment(
                start_ms=start_ms, duration_ms=duration_ms, fps=fps,
                resolution=_CODE_RESOLUTION[res_code], bitrate_bps=bitrate_bps,
            )
        except ValueError as exc:
            raise CorruptFrameError(f"invalid video segment: {exc}", fields_at) from None
    elif msg_type == MSG_SELECTION_EVENT:
        body = SelectionEvent(frame_ts_ms=r.get(_U64))
    elif msg_type == MSG_SESSION_START:
        body = SessionStart()
    elif msg_type == MSG_SESSION_END:
        body = SessionEnd()
    else:
        raise UnsupportedTypeError(f"unsupported message type {msg_type}", 4)
    if r.pos != body_len:
        raise CorruptFrameError("body length mismatch", r.offset)
    return WireMessage(session_id=session_id, body=body)


@dataclass(frozen=True)
class UplinkLedger:
    """Exact per-session bit accounting for the simulated uplink."""

    video_bits: Fraction = Fraction(0)
    payload_bits: int = 0
    message_count: int = 0


def account(
    ledger: UplinkLedger, msg: WireMessage, frame: bytes | None = None
) -> UplinkLedger:
    """Charge one message to the ledger.

    Every message is charged its encoded length in bits; ``frame`` is
    ``encode(msg)`` when the caller already has it.  A video segment
    additionally charges its simulated stream (bitrate x duration); the
    descriptor itself only counts its bytes.
    """
    if frame is None:
        frame = encode(msg)
    video = ledger.video_bits
    if isinstance(msg.body, VideoSegment):
        video += Fraction(msg.body.bitrate_bps * msg.body.duration_ms, 1000)
    return UplinkLedger(
        video_bits=video,
        payload_bits=ledger.payload_bits + len(frame) * 8,
        message_count=ledger.message_count + 1,
    )


def account_all(ledger: UplinkLedger, msgs: Iterable[WireMessage]) -> UplinkLedger:
    for msg in msgs:
        ledger = account(ledger, msg)
    return ledger


def total_bits(ledger: UplinkLedger) -> Fraction:
    return ledger.video_bits + ledger.payload_bits


def merge(a: UplinkLedger, b: UplinkLedger) -> UplinkLedger:
    return UplinkLedger(
        video_bits=a.video_bits + b.video_bits,
        payload_bits=a.payload_bits + b.payload_bits,
        message_count=a.message_count + b.message_count,
    )
