"""Core domain types shared by the whole pipeline.

Everything here is an immutable value object: frames and their sensor
context as read from a trace, detections, OCR text spans, the payload
unit sent device -> server, and user queries.  Timestamps are integer
milliseconds (frames, payloads, queries) and integer microseconds
(IMU, exposure) so that ordering is total and exact.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from operator import mul
from typing import Iterable, Sequence


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
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


@dataclass(frozen=True, slots=True)
class ImuSample:
    ts_us: int
    gyro: tuple[float, float, float]
    accel: tuple[float, float, float]

    def norm6(self) -> float:
        """Euclidean norm of the concatenated 6-dof gyro+accel vector."""
        return math.sqrt(sum(map(mul, self.gyro, self.gyro)) + sum(map(mul, self.accel, self.accel)))


@dataclass(frozen=True, slots=True)
class Detection:
    cls: DetectionClass
    bbox: Rect
    conf: float
    keypoints: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True, slots=True)
class TextSpan:
    text: str
    bbox: Rect
    conf: float


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


def _finite(values: Iterable[float]) -> bool:
    """Whether every value is a finite float; an integer beyond the float
    range, such as 10**400, is not, as JSON's 1e400 reads as inf."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def validate_trace(frames: Sequence[FrameRecord]) -> list[str]:
    """Check every frame against the trace invariants.

    Returns a list of violation messages, each naming the frame index;
    an empty list means the trace is valid.  Violations are data, not
    faults: nothing is raised.
    """
    isfinite = math.isfinite
    violations: list[str] = []
    sig_dim: int | None = None
    prev_ts: int | None = None
    # Frames of one scene often share one signature tuple (the generator
    # and ``read_trace`` both do this); a tuple is checked once.
    checked_sig: tuple[float, ...] | None = None
    sig_finite = True
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
            checked_sig, sig_finite = sig, _finite(sig)
        if not sig_finite:
            violations.append(f"frame {i}: scene_sig has non-finite component")
        for j, sample in enumerate(frame.imu):
            if sample.ts_us < 0:
                violations.append(f"frame {i}: imu sample {j} has negative ts_us")
            try:  # ``_finite`` inlined: this runs for every IMU sample
                finite = all(map(isfinite, sample.gyro)) and all(map(isfinite, sample.accel))
            except OverflowError:
                finite = False
            if not finite:
                violations.append(f"frame {i}: imu sample {j} has non-finite vector")
        for j, det in enumerate(frame.detections):
            if not (0.0 <= det.conf <= 1.0):
                violations.append(f"frame {i}: detection {j} confidence out of range")
            if not det.bbox.within_unit_square():
                violations.append(f"frame {i}: detection {j} bbox outside unit square")
            if det.keypoints is not None and det.cls is not DetectionClass.HAND_POINTING:
                violations.append(
                    f"frame {i}: detection {j} keypoints only legal for HandPointing"
                )
            if det.keypoints is not None and not _finite(v for point in det.keypoints for v in point):
                violations.append(f"frame {i}: detection {j} has non-finite keypoint")
        if not all(frame.gt_words):
            violations.extend(
                f"frame {i}: gt word {j} is empty" for j, word in enumerate(frame.gt_words) if not word
            )
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
