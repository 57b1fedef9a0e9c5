"""Core domain types shared by the whole pipeline.

Everything here is an immutable value object: frames and their sensor
context as read from a trace, detections, OCR text spans, the payload
unit sent device -> server, and user queries.  Timestamps are integer
milliseconds (frames, payloads, queries) and integer microseconds
(IMU, exposure) so that ordering is total and exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import inspect
import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Sequence, TypeVar


# The one JSON form of every file the program writes (traces, queries,
# machine reports): sorted keys, compact separators, and each float as
# ``float.__repr__`` (NaN and infinities as ``NaN``/``Infinity``).
canonical_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore its earlier state.

    For code that builds O(frames) long-lived frozen values: they hold
    no reference cycles, yet every full collection would walk all of
    them again.  Nested use and errors leave the caller's state as it
    was.  The pause is process-wide, not per thread.

    The outermost exit first moves every tracked object into the oldest
    generation (``gc.freeze()`` then ``gc.unfreeze()``, two list
    splices), so the first allocation after it does not walk what the
    paused call built; the caller's young objects move too, and their
    cycles wait for a full collection.  When some object is already
    frozen the exit only re-enables the collector, so a frozen object
    stays frozen.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


_T = TypeVar("_T")


def _slot_init(cls: type[_T]) -> type[_T]:
    """Give ``cls``, a frozen slotted dataclass, an ``__init__`` that
    stores each field through its slot's descriptor.

    The stock ``__init__`` of a frozen dataclass stores each field with
    ``object.__setattr__``, which looks the name up on the type at every
    call; through the descriptor the store is one C call.  The types a
    pass builds once per frame or message use this: on CPython 3.11 an
    ``ImuSample`` takes about 320 ns instead of 515.  The new
    ``__init__`` has the stock one's parameters, defaults, annotations
    and ``__qualname__``, so also its ``TypeError`` texts; equality,
    hashing, ``repr``, ``dataclasses.replace`` and the slots are
    dataclass's own.  A class whose stock ``__init__`` does more than
    store each argument (``__post_init__``, ``default_factory``,
    ``InitVar``) or takes them otherwise (``kw_only``, ``init=False``)
    raises ``TypeError``.
    """
    name = cls.__qualname__
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in cls.__dict__:
        raise TypeError(f"{name} is not a frozen, slotted dataclass")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{name} has a __post_init__")
    fields = dataclasses.fields(cls)
    for f in fields:
        if not f.init or f.kw_only or f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{name}.{f.name} is not a plain field (init=False, kw_only or default_factory)")
    stock = cls.__init__
    names = [f.name for f in fields]
    if list(inspect.signature(stock).parameters)[1:] != names:
        raise TypeError(f"{name} has an InitVar")
    namespace = {"__name__": cls.__module__}
    params_src = []
    for f in fields:
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            params_src.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params_src.append(f"{f.name}=_default_{f.name}")
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names) or "\n    pass"
    exec(f"def __init__(self, {', '.join(params_src)}):{body}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = stock.__qualname__
    init.__annotations__ = dict(stock.__annotations__)
    cls.__init__ = init
    return cls


class Resolution(str, Enum):
    MP3 = "MP3"
    MP5 = "MP5"
    MP12 = "MP12"


class DetectionClass(str, Enum):
    HAND_POINTING = "HandPointing"
    HAND_HOLDING = "HandHolding"
    OTHER_HAND_INTERACTION = "OtherHandInteraction"
    TEXT_OBJECT = "TextObject"


class PayloadKind(IntEnum):
    TEXT_OCR = 1
    NO_TEXT = 2
    SIMILAR_SCENE = 3
    BLURRY = 4
    RESOURCE_CONSTRAINT = 5


class QualityFlag(str, Enum):
    BLURRY = "Blurry"
    UPSIDE_DOWN = "UpsideDown"
    CROPPED = "Cropped"
    POOR_LIGHTING = "PoorLighting"


class QueryMode(str, Enum):
    READOUT = "Readout"
    TRANSLATION = "Translation"
    QA = "Qa"


@_slot_init
@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle in normalized [0,1] image coordinates."""

    x: float
    y: float
    w: float
    h: float

    def within_unit_square(self) -> bool:
        return (
            0.0 <= self.x <= 1.0
            and 0.0 <= self.y <= 1.0
            # Bounded first, so that the sums below stay in the float range.
            and 0.0 <= self.w <= 1.0 + 1e-9
            and 0.0 <= self.h <= 1.0 + 1e-9
            and self.x + self.w <= 1.0 + 1e-9
            and self.y + self.h <= 1.0 + 1e-9
        )

    def area(self) -> float:
        return self.w * self.h

    def intersects(self, other: "Rect") -> bool:
        return not (
            self.x + self.w < other.x
            or other.x + other.w < self.x
            or self.y + self.h < other.y
            or other.y + other.h < self.y
        )


@_slot_init
@dataclass(frozen=True, slots=True)
class ImuSample:
    ts_us: int
    gyro: tuple[float, float, float]
    accel: tuple[float, float, float]

    def norm6(self) -> float:
        """Euclidean norm of the concatenated 6-dof gyro+accel vector.

        ``gyro`` and ``accel`` hold 3 components each (``validate_trace``).
        Each vector's squares are added left to right, then the two sums:
        the same bits on every Python, as ``sum()`` gave before 3.12.
        """
        gx, gy, gz = self.gyro
        ax, ay, az = self.accel
        return math.sqrt(gx * gx + gy * gy + gz * gz + (ax * ax + ay * ay + az * az))


@_slot_init
@dataclass(frozen=True, slots=True)
class Detection:
    cls: DetectionClass
    bbox: Rect
    conf: float
    keypoints: tuple[tuple[float, float], ...] | None = None


@_slot_init
@dataclass(frozen=True, slots=True)
class TextSpan:
    text: str
    bbox: Rect
    conf: float


@_slot_init
@dataclass(frozen=True, slots=True)
class FrameRecord:
    ts_ms: int
    resolution: Resolution
    exposure_us: int
    imu: tuple[ImuSample, ...]
    detections: tuple[Detection, ...]
    scene_sig: tuple[float, ...]
    gt_words: tuple[str, ...]
    user_selection: bool = False


@_slot_init
@dataclass(frozen=True, slots=True)
class OcrPayload:
    """The device -> server unit: one of five payload types.

    ``synthesized`` is a server-side marker set on retrieval fallbacks;
    it never travels over the wire.
    """

    kind: PayloadKind
    frame_ts_ms: int
    spans: tuple[TextSpan, ...] = ()
    selection: bool = False
    quality_flags: frozenset[QualityFlag] = frozenset()
    synthesized: bool = False

    def is_valid_for_retrieval(self) -> bool:
        return self.kind in (PayloadKind.TEXT_OCR, PayloadKind.NO_TEXT)

    def text(self) -> str:
        return " ".join(s.text for s in self.spans)


@dataclass(frozen=True)
class QueryRecord:
    ts_ms: int
    speech_start_ms: int
    question: str
    mode: QueryMode
    target_lang: str | None = None


# -2**63 and 2**63 exactly, as floats: Python compares an int with them exactly.
_LOW, _HIGH = -(2.0**63), 2.0**63


def _bounded(values: Iterable[float]) -> bool:
    """Whether every value lies in [-2**63, 2**63).

    This refuses nan and the infinities, and integers such as 10**400
    that no float holds.  Below 2**63 each square is below 2**126, so the
    sums of products the device pass forms stay far inside the float range.
    """
    for v in values:
        if not _LOW <= v < _HIGH:
            return False
    return True


def _text_fault(text: str, whitespace: bool) -> str | None:
    """The first character of ``text`` that is a lone surrogate (Cs), a
    control (Cc), a line or paragraph separator (Zl, Zp) or, when
    ``whitespace``, any ``str.isspace`` character, named with its
    1-based position; None if there is none."""
    for i, ch in enumerate(text, 1):
        code = ord(ch)
        if 0xD800 <= code <= 0xDFFF:
            what = "lone surrogate"
        elif code < 0x20 or 0x7F <= code <= 0x9F:
            what = "control character"
        elif code == 0x2028:
            what = "line separator"
        elif code == 0x2029:
            what = "paragraph separator"
        elif whitespace and ch.isspace():
            what = "whitespace"
        else:
            continue
        return f"{what} U+{code:04X} at character {i}"
    return None


def word_fault(word: str) -> str | None:
    """What breaks the word rule in ``word``, or None.

    A trace word holds no whitespace (``str.isspace``), no control
    (Unicode category Cc) and no lone surrogate (Cs): it is one token
    of the OCR text it ends up in, and it cannot break a prompt line.
    """
    # On ASCII, isprintable is false exactly for the controls.  Beyond
    # ASCII its answer follows the Unicode database, which differs
    # between Python versions, so the rule never asks it there.
    if word.isascii() and word.isprintable() and " " not in word:
        return None
    return _text_fault(word, whitespace=True)


def line_fault(text: str) -> str | None:
    """What breaks the line rule in ``text``, a query's question or
    target language, or None.

    It holds no control (Cc), lone surrogate (Cs), line separator (Zl)
    or paragraph separator (Zp): it is one prompt line.
    """
    if text.isascii() and text.isprintable():
        return None
    return _text_fault(text, whitespace=False)


def validate_trace(frames: Sequence[FrameRecord]) -> list[str]:
    """Check every frame against the trace invariants.

    Returns a list of violation messages, each naming the frame index;
    an empty list means the trace is valid.  Violations are data, not
    faults: nothing is raised.
    """
    low, high = _LOW, _HIGH
    violations: list[str] = []
    sig_dim: int | None = None
    prev_ts: int | None = None
    # Frames of one scene often share one signature tuple (the generator
    # and ``read_trace`` both do this); a tuple is checked once.
    checked_sig: tuple[float, ...] | None = None
    sig_ok = True
    # Likewise the IMU samples of a frame often share one gyro tuple.
    checked_gyro: tuple[float, ...] | None = None
    gyro_ok = True
    for i, frame in enumerate(frames):
        if prev_ts is not None and frame.ts_ms <= prev_ts:
            violations.append(f"frame {i}: non-increasing timestamp at index {i}")
        prev_ts = frame.ts_ms
        # The wire carries it unsigned and mock OCR hashes it signed, both in 64 bits.
        if not 0 <= frame.ts_ms < 2**63:
            violations.append(f"frame {i}: ts_ms {frame.ts_ms} outside [0, 2**63)")
        if not 0 < frame.exposure_us < 2**63:  # a positive span, held in 64 bits like ts_ms
            violations.append(f"frame {i}: exposure_us {frame.exposure_us} outside [1, 2**63)")
        sig = frame.scene_sig
        if sig_dim is None:
            sig_dim = len(sig)
        elif len(sig) != sig_dim:
            violations.append(f"frame {i}: scene_sig dimension {len(sig)} != {sig_dim}")
        if sig is not checked_sig:
            checked_sig, sig_ok = sig, _bounded(sig)
        if not sig_ok:
            violations.append(f"frame {i}: scene_sig has a component not in [-2**63, 2**63)")
        for j, sample in enumerate(frame.imu):
            if sample.ts_us < 0:
                violations.append(f"frame {i}: imu sample {j} has negative ts_us")
            gyro, accel = sample.gyro, sample.accel
            if gyro is not checked_gyro:
                checked_gyro, gyro_ok = gyro, len(gyro) == 3 and _bounded(gyro)
            if gyro_ok and len(accel) == 3:
                ax, ay, az = accel  # ``_bounded`` inlined: this runs for every IMU sample
                if low <= ax < high and low <= ay < high and low <= az < high:
                    continue
            for name, vector in (("gyro", gyro), ("accel", accel)):
                if len(vector) != 3:
                    violations.append(f"frame {i}: imu sample {j} {name} has {len(vector)} components, expected 3")
            if not (_bounded(gyro) and _bounded(accel)):
                violations.append(f"frame {i}: imu sample {j} has a vector component not in [-2**63, 2**63)")
        for j, det in enumerate(frame.detections):
            if not (0.0 <= det.conf <= 1.0):
                violations.append(f"frame {i}: detection {j} confidence out of range")
            if not det.bbox.within_unit_square():
                violations.append(f"frame {i}: detection {j} bbox outside unit square")
            if det.keypoints is None:
                continue
            if det.cls is not DetectionClass.HAND_POINTING:
                violations.append(f"frame {i}: detection {j} keypoints only legal for HandPointing")
            for k, point in enumerate(det.keypoints):
                if len(point) != 2:
                    violations.append(f"frame {i}: detection {j} keypoint {k} has {len(point)} coordinates, expected 2")
            if not _bounded(v for point in det.keypoints for v in point):
                violations.append(f"frame {i}: detection {j} has a keypoint coordinate not in [-2**63, 2**63)")
        words = frame.gt_words
        # The rule is per character, so one test of the joined words clears them all.
        if words and not (all(words) and word_fault("".join(words)) is None):
            for j, word in enumerate(words):
                if not word:
                    violations.append(f"frame {i}: gt word {j} is empty")
                elif (fault := word_fault(word)) is not None:
                    violations.append(f"frame {i}: gt word {j} holds {fault}")
    return violations


def piecewise_linear(anchors: Sequence[tuple[float, float]], x: float) -> float:
    """Interpolate through ``(x, y)`` anchors sorted by x; exact at each one.

    Flat below the first anchor, linear between anchors, and beyond the
    last anchor the final segment's slope extrapolates.
    """
    if x <= anchors[0][0]:
        return anchors[0][1]
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    (x0, y0), (x1, y1) = anchors[-2], anchors[-1]
    slope = (y1 - y0) / (x1 - x0)
    return y1 + slope * (x - x1)


def validate_payload(payload: OcrPayload) -> list[str]:
    """Invariant check for a single payload (used at wire decode time)."""
    violations: list[str] = []
    text_ocr = payload.kind is PayloadKind.TEXT_OCR
    if text_ocr and not payload.spans:
        violations.append("TextOcr payload must carry at least one span")
    if not text_ocr and payload.spans:
        violations.append("non-TextOcr payload must carry no spans")
    for j, span in enumerate(payload.spans):
        if not span.text:
            violations.append(f"span {j}: empty text")
        if not (0.0 <= span.conf <= 1.0):
            violations.append(f"span {j}: confidence out of range")
    return violations
