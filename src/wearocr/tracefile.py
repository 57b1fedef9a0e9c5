"""Trace and query file I/O plus the synthetic trace generator.

Files are newline-delimited JSON: one header object (format name,
version, scene-signature dimension, generator statistics) followed by
one record per line.  The format is streamable and diff-friendly, and
serialization round-trips every field exactly.

The generator is seed-deterministic and builds traces whose per-stage
rejection rates are dialed directly: each frame is assigned an intended
outcome (blurry / no text / similar scene / fresh text) and its sensor
fields are synthesized to force that outcome through the real pipeline.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    QueryMode,
    QueryRecord,
    Rect,
    Resolution,
    canonical_json,
    collector_paused,
)

TRACE_FORMAT = "wearocr-trace"
QUERY_FORMAT = "wearocr-queries"
FORMAT_VERSION = 1

DEFAULT_SIG_DIM = 16

# Small fixed vocabulary for ground-truth text; variety only matters for
# dedup realism, not semantics.
_VOCAB = (
    "gate terminal boarding flight departs arrives delayed cancelled platform "
    "track exit entrance open closed push pull menu special today price total "
    "sale discount caution wet floor danger keep clear staff only restroom "
    "elevator stairs north south east west street avenue parking reserved "
    "visitor hours monday tuesday wednesday thursday friday saturday sunday "
    "january february march april may june july august september october "
    "november december room suite floor level building office reception "
    "checkout express lane aisle dairy bakery produce frozen organic fresh "
    "limit maximum minimum weight capacity persons emergency assembly point "
    "first aid defibrillator schedule route stop local rapid transfer valid "
    "ticket fare zone adult child senior student return single daily weekly "
    "monthly museum gallery library theater cinema stadium arena market plaza "
    "bridge tunnel harbor airport station dock pier berth lounge departure "
    "arrival customs baggage claim carousel security checkpoint boarding1 "
    "b12 a07 c33 d21 e05 f18 g42 h09 k15 n28 p36 q44 r52 s61 t73 u88 v91 w17"
).split()


class TraceFormatError(ValueError):
    pass


T = TypeVar("T")


@dataclass(frozen=True)
class TraceSpec:
    duration_s: float
    fps: float
    text_density: float
    blur_rate: float
    similarity_run_length: float
    selection_events: int = 0
    seed: int = 0
    sig_dim: int = DEFAULT_SIG_DIM
    resolution: Resolution = Resolution.MP12
    exposure_us: int = 8000
    words_min: int = 4
    words_max: int = 12

    def __post_init__(self) -> None:
        for name in ("duration_s", "fps", "similarity_run_length"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.blur_rate <= 1.0:
            raise ValueError(f"blur_rate must be in [0,1], got {self.blur_rate}")
        if not 0.0 <= self.text_density <= 1.0:
            raise ValueError(f"text_density must be in [0,1], got {self.text_density}")
        if self.similarity_run_length < 1.0:
            raise ValueError("similarity_run_length must be >= 1")
        if self.duration_s < 0 or self.fps <= 0:
            raise ValueError("duration_s must be >= 0 and fps > 0")
        if self.selection_events < 0:
            raise ValueError("selection_events must be >= 0")

    @property
    def similar_rate(self) -> float:
        """Intended probability that a text frame repeats the previous scene."""
        return 1.0 - 1.0 / self.similarity_run_length

    def expected_survivor_fraction(self) -> float:
        return (1.0 - self.blur_rate) * self.text_density * (1.0 - self.similar_rate)


@collector_paused()
def generate_frames(spec: TraceSpec) -> list[FrameRecord]:
    """Deterministic synthetic trace; see module docstring for the scheme."""
    rng = random.Random(spec.seed)
    # Each ``rng.uniform(a, b)`` is written out as CPython defines it,
    # ``a + (b - a) * rng.random()``, with ``b - a`` folded and a zero ``a``
    # dropped: the same draws in the same order give the same floats.
    uniform01 = rng.random
    count = int(spec.duration_s * spec.fps)
    frames: list[FrameRecord] = []
    scene_index = 0
    scene_sig: tuple[float, ...] | None = None
    scene_words: tuple[str, ...] = ()
    prev_ts = -1
    imu_offsets_us = (0, spec.exposure_us // 3, 2 * spec.exposure_us // 3)
    text_detections = (Detection(DetectionClass.TEXT_OBJECT, Rect(0.3, 0.3, 0.4, 0.3), 0.9),)

    def fresh_sig() -> tuple[float, ...]:
        # One-hot cycling plus jitter: consecutive scenes stay far below
        # any reasonable cosine similarity threshold.
        base = [-0.05 + 0.1 * uniform01() for _ in range(spec.sig_dim)]
        base[scene_index % spec.sig_dim] += 1.0
        return tuple(base)

    for i in range(count):
        ts_ms = max(prev_ts + 1, round(i * 1000.0 / spec.fps))
        prev_ts = ts_ms
        start_us = ts_ms * 1000
        blurry = uniform01() < spec.blur_rate
        has_text = uniform01() < spec.text_density
        # A text frame either repeats the current scene (rejected by the
        # similarity gate downstream) or opens a fresh one.  Only sharp
        # fresh frames advance the scene: the selector accepts exactly
        # those, keeping its last-accepted signature in lockstep with
        # the generator's current scene.
        similar = has_text and bool(scene_words) and uniform01() < spec.similar_rate
        if has_text and not similar and not blurry:
            scene_index += 1
            n_words = rng.randint(spec.words_min, spec.words_max)
            scene_words = tuple(rng.choice(_VOCAB) for _ in range(n_words))
            scene_sig = fresh_sig()
        elif scene_sig is None:
            scene_index += 1
            scene_sig = fresh_sig()
            scene_words = ()

        gyro = (30.0 + 5.0 * uniform01() if blurry else 0.5 * uniform01(), 0.0, 0.0)
        imu = tuple([
            ImuSample(start_us + offset, gyro, (0.0, 0.0, -0.1 + 0.2 * uniform01()))
            for offset in imu_offsets_us
        ])
        frames.append(
            FrameRecord(
                ts_ms,
                spec.resolution,
                spec.exposure_us,
                imu,
                text_detections if has_text else (),
                scene_sig,
                scene_words if has_text else (),
            )
        )

    if spec.selection_events:
        text_indices = [i for i, f in enumerate(frames) if f.detections]
        chosen = rng.sample(text_indices, min(spec.selection_events, len(text_indices)))
        for i in chosen:
            frames[i] = replace(frames[i], user_selection=True)
    return frames


# -- serialization --------------------------------------------------------

# A frame record's keys, in sorted order.  A frame line is its object
# form with each slot filled with one value's ``canonical_json`` text.
_FRAME_FIELDS = ("detections", "exposure_us", "gt_words", "imu", "resolution", "scene_sig", "ts_ms", "user_selection")
_FRAME_LINE = "{" + ",".join(f'"{key}":%s' for key in _FRAME_FIELDS) + "}\n"

_NUMBER = frozenset((int, float))
_FLOAT = frozenset((float,))
_STRING = frozenset((str,))
_RESOLUTIONS = {r.value: r for r in Resolution}
_CLASSES = {c.value: c for c in DetectionClass}
_MODES = {m.value: m for m in QueryMode}
_DETECTION_FIELDS = ("cls", "bbox", "conf", "keypoints")
_QUERY_FIELDS = ("ts_ms", "speech_start_ms", "question", "mode", "target_lang")


def _detections_json(detections: Sequence[Detection]) -> str:
    return canonical_json([
        {
            "cls": d.cls.value,
            "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
            "conf": d.conf,
            **({"keypoints": d.keypoints} if d.keypoints is not None else {}),
        }
        for d in detections
    ])


def _memoized(encode: Callable[[object], str]) -> Callable[[object], str]:
    """``encode`` memoized by object identity.  The memo holds each object
    it has seen, so no other object can take over its ``id``."""
    memo: dict[int, tuple[object, str]] = {}

    def cached(obj: object) -> str:
        entry = memo.get(id(obj))
        if entry is None:
            entry = memo[id(obj)] = (obj, encode(obj))
        return entry[1]

    return cached


def write_trace(
    path: str | Path,
    frames: Sequence[FrameRecord],
    sig_dim: int = DEFAULT_SIG_DIM,
    stats: dict | None = None,
) -> None:
    """Write a header line, then one ``canonical_json`` line per frame.

    Each value is encoded on its own into a fixed line template.  Values
    that frames share (a generated trace shares one signature, word
    tuple and detection tuple between the frames of a scene) are encoded
    once per object; frames are immutable, so the text cannot go stale.
    """
    header = {
        "format": TRACE_FORMAT,
        "version": FORMAT_VERSION,
        "sig_dim": sig_dim,
        "frame_count": len(frames),
    }
    if stats:
        header["stats"] = stats
    encode = canonical_json
    shared = _memoized(encode)
    detections = _memoized(_detections_json)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(header) + "\n")
        for frame in frames:
            fh.write(
                _FRAME_LINE
                % (
                    detections(frame.detections),
                    encode(frame.exposure_us),
                    shared(frame.gt_words),
                    encode([[s.ts_us, s.gyro, s.accel] for s in frame.imu]),
                    shared(frame.resolution.value),
                    shared(frame.scene_sig),
                    encode(frame.ts_ms),
                    shared(frame.user_selection),
                )
            )


def _field_error(field: str, expected: str, value: object, got: str | None = None) -> TraceFormatError:
    """A record field of the wrong JSON type; the reader adds path:line."""
    return TraceFormatError(f"field {field}: expected {expected}, got {got or type(value).__name__}")


def _length(value: object) -> str | None:
    """What a list of the wrong length is called in an error."""
    return f"list of {len(value)}" if type(value) is list else None


def _list_error(field: str, value: object, items: frozenset, length: int | None = None) -> TraceFormatError:
    """What is wrong with ``value`` where ``field`` wants a JSON array
    (of ``length`` items, when given) of items typed in ``items``."""
    item_name = "string" if items is _STRING else "number"
    if type(value) is not list or (length is not None and len(value) != length):
        array = "list of" if length is None else f"list of {length}"
        return _field_error(field, f"{array} {item_name}s", value, _length(value))
    k = next(k for k, item in enumerate(value) if type(item) not in items)
    return _field_error(f"{field}[{k}]", item_name, value[k])


def _enum_error(field: str, members: dict, value: object) -> TraceFormatError:
    if type(value) is not str:
        return _field_error(field, "string", value)
    return _field_error(field, f"one of {', '.join(members)}", value, repr(value))


def _unknown_field(obj: dict, known: tuple[str, ...], where: str = "") -> TraceFormatError:
    """A record holding a key outside ``known``: the first such key, named."""
    key = next(k for k in obj if k not in known)
    return TraceFormatError(f"unknown field {where}{key}")


def _imu_error(sample: object, j: int) -> TraceFormatError:
    if type(sample) is not list or len(sample) != 3:
        return _field_error(f"imu[{j}]", "[ts_us, gyro, accel]", sample, _length(sample))
    ts_us, gyro, accel = sample
    if type(ts_us) is not int:
        return _field_error(f"imu[{j}].ts_us", "integer", ts_us)
    if type(gyro) is not list or len(gyro) != 3 or not _NUMBER.issuperset(map(type, gyro)):
        return _list_error(f"imu[{j}].gyro", gyro, _NUMBER, 3)
    return _list_error(f"imu[{j}].accel", accel, _NUMBER, 3)


def _detection(d: object, j: int) -> Detection:
    if type(d) is not dict:
        raise _field_error(f"detections[{j}]", "object", d)
    cls, bbox, conf = d["cls"], d["bbox"], d["conf"]
    if len(d) != (4 if "keypoints" in d else 3):
        raise _unknown_field(d, _DETECTION_FIELDS, f"detections[{j}].")
    if type(cls) is not str or cls not in _CLASSES:
        raise _enum_error(f"detections[{j}].cls", _CLASSES, cls)
    if type(bbox) is not list or len(bbox) != 4 or not _NUMBER.issuperset(map(type, bbox)):
        raise _list_error(f"detections[{j}].bbox", bbox, _NUMBER, 4)
    if type(conf) not in _NUMBER:
        raise _field_error(f"detections[{j}].conf", "number", conf)
    keypoints = None
    if "keypoints" in d:
        keypoints = d["keypoints"]
        if type(keypoints) is not list:
            raise _field_error(f"detections[{j}].keypoints", "list", keypoints)
        for i, k in enumerate(keypoints):
            if type(k) is not list or len(k) != 2 or not _NUMBER.issuperset(map(type, k)):
                raise _list_error(f"detections[{j}].keypoints[{i}]", k, _NUMBER, 2)
        keypoints = tuple([tuple(k) for k in keypoints])
    return Detection(_CLASSES[cls], Rect(*bbox), conf, keypoints)


def frame_from_obj(obj: dict, shared_sig: tuple[float, ...] = ()) -> FrameRecord:
    """The frame a parsed trace line describes.  A missing field raises
    ``KeyError``; an unknown field or a field of the wrong JSON type
    raises ``TraceFormatError``.

    ``scene_sig`` is ``shared_sig`` itself when the two are equal; the
    caller passes only a signature for which equal means identical
    (``_equal_is_identical``).  Frames are immutable, so the frames of
    one scene can share the tuple.
    """
    ts_ms, resolution, exposure_us = obj["ts_ms"], obj["resolution"], obj["exposure_us"]
    imu, detections, sig = obj["imu"], obj["detections"], obj["scene_sig"]
    gt_words, user_selection = obj["gt_words"], obj["user_selection"]
    # Every field is present, so any further key is an unknown one.
    if len(obj) != len(_FRAME_FIELDS):
        raise _unknown_field(obj, _FRAME_FIELDS)
    if type(ts_ms) is not int:
        raise _field_error("ts_ms", "integer", ts_ms)
    if type(resolution) is not str or resolution not in _RESOLUTIONS:
        raise _enum_error("resolution", _RESOLUTIONS, resolution)
    if type(exposure_us) is not int:
        raise _field_error("exposure_us", "integer", exposure_us)
    if type(imu) is not list:
        raise _field_error("imu", "list", imu)
    if type(detections) is not list:
        raise _field_error("detections", "list", detections)
    if type(sig) is not list:
        raise _field_error("scene_sig", "list of numbers", sig)
    if type(gt_words) is not list or not _STRING.issuperset(map(type, gt_words)):
        raise _list_error("gt_words", gt_words, _STRING)
    if type(user_selection) is not bool:
        raise _field_error("user_selection", "boolean", user_selection)

    samples = []
    try:
        for ts_us, gyro, accel in imu:
            if (
                type(ts_us) is not int
                or type(gyro) is not list
                or type(accel) is not list
                or len(gyro) != 3
                or len(accel) != 3
                or not _NUMBER.issuperset(map(type, [*gyro, *accel]))
            ):
                break
            samples.append(ImuSample(ts_us, tuple(gyro), tuple(accel)))
    except (TypeError, ValueError):  # a sample that does not unpack into three
        pass
    if len(samples) != len(imu):
        raise _imu_error(imu[len(samples)], len(samples))

    sig = tuple(sig)
    if sig == shared_sig:
        sig = shared_sig
    elif not _NUMBER.issuperset(map(type, sig)):
        raise _list_error("scene_sig", list(sig), _NUMBER)
    return FrameRecord(
        ts_ms,
        _RESOLUTIONS[resolution],
        exposure_us,
        tuple(samples),
        tuple([_detection(d, j) for j, d in enumerate(detections)]) if detections else (),
        sig,
        tuple(gt_words),
        user_selection,
    )


def query_to_obj(query: QueryRecord) -> dict:
    obj = {
        "ts_ms": query.ts_ms,
        "speech_start_ms": query.speech_start_ms,
        "question": query.question,
        "mode": query.mode.value,
    }
    if query.target_lang is not None:
        obj["target_lang"] = query.target_lang
    return obj


def query_from_obj(obj: dict) -> QueryRecord:
    """The query a parsed query line describes; errors as ``frame_from_obj``."""
    ts_ms, speech_start_ms, question, mode = obj["ts_ms"], obj["speech_start_ms"], obj["question"], obj["mode"]
    target_lang = obj.get("target_lang")
    if len(obj) != (5 if "target_lang" in obj else 4):
        raise _unknown_field(obj, _QUERY_FIELDS)
    if type(ts_ms) is not int:
        raise _field_error("ts_ms", "integer", ts_ms)
    if type(speech_start_ms) is not int:
        raise _field_error("speech_start_ms", "integer", speech_start_ms)
    if type(question) is not str:
        raise _field_error("question", "string", question)
    if type(mode) is not str or mode not in _MODES:
        raise _enum_error("mode", _MODES, mode)
    if target_lang is not None and type(target_lang) is not str:
        raise _field_error("target_lang", "string or null", target_lang)
    return QueryRecord(ts_ms, speech_start_ms, question, _MODES[mode], target_lang)


def write_generated_trace(path: str | Path, spec: TraceSpec) -> list[FrameRecord]:
    frames = generate_frames(spec)
    stats = {
        "seed": spec.seed,
        "intended_blur_rate": spec.blur_rate,
        "intended_no_text_rate": 1.0 - spec.text_density,
        "intended_similar_rate": spec.similar_rate,
        "expected_survivor_fraction": spec.expected_survivor_fraction(),
    }
    write_trace(path, frames, sig_dim=spec.sig_dim, stats=stats)
    return frames


def _parse_line(path: str | Path, lineno: int, line: str) -> dict:
    # Lines are decoded with surrogateescape, so a byte that is not
    # UTF-8 shows up here as a lone surrogate, which cannot re-encode.
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise TraceFormatError(
                f"{path}:{lineno}: not UTF-8 at character {exc.start + 1}"
            ) from None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"{path}:{lineno}: not JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{path}:{lineno}: expected an object, got {type(obj).__name__}")
    return obj


def _read_lines(
    path: str | Path, expected_format: str, convert: Callable[[dict], T]
) -> tuple[dict, list[T]]:
    """Header and converted records; bad input raises ``TraceFormatError``
    as ``path:line: ...`` and the file is closed on every path."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header_line = fh.readline()
        if not header_line:
            raise TraceFormatError(f"{path}:1: empty file, missing header")
        header = _parse_line(path, 1, header_line)
        if header.get("format") != expected_format:
            raise TraceFormatError(
                f"{path}:1: expected format {expected_format!r}, got {header.get('format')!r}"
            )
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(f"{path}:1: unsupported version {header.get('version')!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            obj = _parse_line(path, lineno, line)
            try:
                records.append(convert(obj))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad record: {exc!r}") from None
    return header, records


def _equal_is_identical(sig: tuple) -> bool:
    """Whether a signature equal to ``sig`` has its bits and types: true
    when every component is a float and none is a whole number, because
    ``-0.0 == 0.0`` and ``1 == 1.0`` (and NaN equals only itself)."""
    return _FLOAT.issuperset(map(type, sig)) and not any(map(float.is_integer, sig))


@collector_paused()
def read_trace(path: str | Path) -> tuple[dict, list[FrameRecord]]:
    """Header and frames; consecutive frames with equal signatures share
    one ``scene_sig`` tuple where ``_equal_is_identical`` allows it."""
    shared_sig: tuple[float, ...] = ()

    def convert(obj: dict) -> FrameRecord:
        nonlocal shared_sig
        frame = frame_from_obj(obj, shared_sig)
        if frame.scene_sig is not shared_sig:
            shared_sig = frame.scene_sig if _equal_is_identical(frame.scene_sig) else ()
        return frame

    return _read_lines(path, TRACE_FORMAT, convert)


def write_queries(path: str | Path, queries: Sequence[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"format": QUERY_FORMAT, "version": FORMAT_VERSION}) + "\n")
        for query in queries:
            fh.write(canonical_json(query_to_obj(query)) + "\n")


def read_queries(path: str | Path) -> list[QueryRecord]:
    return _read_lines(path, QUERY_FORMAT, query_from_obj)[1]
