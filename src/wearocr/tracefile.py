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

import functools
import json
import math
import operator
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
# Every generated frame's exposure, and each fresh scene's word count range.
_EXPOSURE_US = 8000
_WORDS_MIN, _WORDS_MAX = 4, 12

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
    imu_offsets_us = (0, _EXPOSURE_US // 3, 2 * _EXPOSURE_US // 3)
    text_detections = (Detection(DetectionClass.TEXT_OBJECT, Rect(0.3, 0.3, 0.4, 0.3), 0.9),)

    def fresh_sig() -> tuple[float, ...]:
        # One-hot cycling plus jitter: consecutive scenes stay far below
        # any reasonable cosine similarity threshold.
        base = [-0.05 + 0.1 * uniform01() for _ in range(DEFAULT_SIG_DIM)]
        base[scene_index % DEFAULT_SIG_DIM] += 1.0
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
            n_words = rng.randint(_WORDS_MIN, _WORDS_MAX)
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
                Resolution.MP12,
                _EXPOSURE_US,
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

_FRAME_FIELDS = ("detections", "exposure_us", "gt_words", "imu", "resolution", "scene_sig", "ts_ms", "user_selection")
# An IMU sample as the tuple ``(ts_us, gyro, accel)``, which json writes as an array.
_IMU_FIELDS = operator.attrgetter("ts_us", "gyro", "accel")

_NUMBER = frozenset((int, float))
_STRING = frozenset((str,))
_RESOLUTIONS = {r.value: r for r in Resolution}
_CLASSES = {c.value: c for c in DetectionClass}
_MODES = {m.value: m for m in QueryMode}
_DETECTION_FIELDS = ("cls", "bbox", "conf", "keypoints")
_QUERY_FIELDS = ("ts_ms", "speech_start_ms", "question", "mode", "target_lang")
# Distinct float texts the reader keeps at once; a generated trace's
# repeats fall within a few lines of each other.
_FLOAT_MEMO_SIZE = 4096
_BOM_MESSAGE = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
# What JSON counts as whitespace, and so all a blank line may hold.
_JSON_SPACE = " \t\n\r"


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


def write_trace(path: str | Path, frames: Sequence[FrameRecord], stats: dict | None = None) -> None:
    """Write a header line, then one ``canonical_json`` line per frame.

    The header's ``sig_dim`` is the first frame's signature length, or
    ``DEFAULT_SIG_DIM`` for a trace without frames.

    Each value is written into a fixed line template as its own
    ``canonical_json`` text, but only the IMU array goes through the
    encoder for every frame: an exact ``int`` is written as
    ``int.__repr__``, the text json writes for one, the resolution and
    selection flag take texts ``canonical_json`` made once per call, and
    values that frames share (a scene's signature, words and detections)
    are encoded once per object.  Frames are immutable, so no text goes
    stale, and any other value goes to ``canonical_json``, so every byte
    and every exception is the encoder's.  A 5-hour generated trace
    (36,000 frames, 25 MB) takes about 0.37 s, 0.29 s of it the IMU, on
    a 2-core x86-64 host under CPython 3.11.
    """
    header = {
        "format": TRACE_FORMAT,
        "version": FORMAT_VERSION,
        "sig_dim": len(frames[0].scene_sig) if frames else DEFAULT_SIG_DIM,
        "frame_count": len(frames),
    }
    if stats:
        header["stats"] = stats
    encode = canonical_json
    shared = _memoized(encode)
    detections = _memoized(_detections_json)
    # Keyed by ``id``: an equal value of another type (``0`` for ``False``,
    # ``"MP12"`` for ``Resolution.MP12``) misses and goes to the encoder.
    resolutions = {id(r): encode(r.value) for r in Resolution}
    selections = {id(flag): encode(flag) for flag in (False, True)}
    int_text = int.__repr__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode(header) + "\n")
        for frame in frames:
            ts_ms, exposure_us = frame.ts_ms, frame.exposure_us
            # The object form's canonical line: keys in sorted order, no spaces.
            fh.write(
                f'{{"detections":{detections(frame.detections)}'
                f',"exposure_us":{int_text(exposure_us) if type(exposure_us) is int else encode(exposure_us)}'
                f',"gt_words":{shared(frame.gt_words)}'
                f',"imu":{encode(list(map(_IMU_FIELDS, frame.imu)))}'
                f',"resolution":{resolutions.get(id(frame.resolution)) or encode(frame.resolution.value)}'
                f',"scene_sig":{shared(frame.scene_sig)}'
                f',"ts_ms":{int_text(ts_ms) if type(ts_ms) is int else encode(ts_ms)}'
                f',"user_selection":{selections.get(id(frame.user_selection)) or encode(frame.user_selection)}}}\n'
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


def _missing_field(exc: KeyError, where: str = "") -> TraceFormatError:
    """The error for a record lookup that raised ``exc``."""
    return TraceFormatError(f"missing field {where}{exc.args[0]}")


def _imu_error(sample: object, j: int) -> TraceFormatError:
    if type(sample) is not list or len(sample) != 3:
        return _field_error(f"imu[{j}]", "[ts_us, gyro, accel]", sample, _length(sample))
    ts_us, gyro, accel = sample
    if type(ts_us) is not int:
        return _field_error(f"imu[{j}].ts_us", "integer", ts_us)
    if type(gyro) is not list or not _NUMBER.issuperset(map(type, gyro)):
        return _list_error(f"imu[{j}].gyro", gyro, _NUMBER)
    return _list_error(f"imu[{j}].accel", accel, _NUMBER)


def _detection(d: object, j: int) -> Detection:
    if type(d) is not dict:
        raise _field_error(f"detections[{j}]", "object", d)
    try:
        cls, bbox, conf = d["cls"], d["bbox"], d["conf"]
    except KeyError as exc:
        raise _missing_field(exc, f"detections[{j}].") from None
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
            if type(k) is not list or not _NUMBER.issuperset(map(type, k)):
                raise _list_error(f"detections[{j}].keypoints[{i}]", k, _NUMBER)
        keypoints = tuple([tuple(k) for k in keypoints])
    return Detection(_CLASSES[cls], Rect(*bbox), conf, keypoints)


# Three objects that no decoded array holds: the first gyro of a frame is never shared.
_NO_GYRO = (object(), object(), object())


def _same_items(items: list, tuple_: tuple) -> bool:
    """Whether ``items`` are the very objects of ``tuple_``, in order."""
    return len(items) == len(tuple_) and all(map(operator.is_, items, tuple_))


def frame_from_obj(
    obj: dict, previous: FrameRecord | None = None, words: dict[str, str] | None = None
) -> FrameRecord:
    """The frame a parsed trace line describes.  A missing or unknown
    field, or a field of the wrong JSON type, raises ``TraceFormatError``.
    Values are not checked: a word that breaks the word rule, or a gyro,
    accel or keypoint of any length, is read as it stands, and
    ``model.validate_trace`` reports it.

    ``scene_sig`` is the ``previous`` frame's, and an IMU sample's
    3-component ``gyro`` the one before it, when the array holds that
    tuple's very objects: a tuple of the same objects has their bits and
    types, so it stands in for a fresh one, and frames are immutable, so
    they can share it.  Likewise ``exposure_us`` is the previous frame's
    int when the two are equal, and each word of ``gt_words`` is the one
    string ``words``, when given, keeps for it: equal exact-type values
    are interchangeable.
    """
    try:
        ts_ms, resolution, exposure_us = obj["ts_ms"], obj["resolution"], obj["exposure_us"]
        imu, detections, sig = obj["imu"], obj["detections"], obj["scene_sig"]
        gt_words, user_selection = obj["gt_words"], obj["user_selection"]
    except KeyError as exc:
        raise _missing_field(exc) from None
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
    last_gyro = _NO_GYRO
    try:
        for ts_us, gyro, accel in imu:
            if (
                type(ts_us) is not int
                or type(gyro) is not list
                or type(accel) is not list
                or not _NUMBER.issuperset(map(type, accel))
            ):
                break
            # Only 3-component gyros share: comparing items of a shorter one would index past its end.
            if len(gyro) != 3 or len(last_gyro) != 3 or not (
                gyro[0] is last_gyro[0] and gyro[1] is last_gyro[1] and gyro[2] is last_gyro[2]
            ):
                if not _NUMBER.issuperset(map(type, gyro)):
                    break
                last_gyro = tuple(gyro)
            samples.append(ImuSample(ts_us, last_gyro, tuple(accel)))
    except (TypeError, ValueError):  # a sample that does not unpack into three
        pass
    if len(samples) != len(imu):
        raise _imu_error(imu[len(samples)], len(samples))

    shared_sig: tuple = ()
    if previous is not None:
        shared_sig = previous.scene_sig
        if exposure_us == previous.exposure_us:
            exposure_us = previous.exposure_us
    if not _same_items(sig, shared_sig):
        if not _NUMBER.issuperset(map(type, sig)):
            raise _list_error("scene_sig", sig, _NUMBER)
        shared_sig = tuple(sig)
    if gt_words and words is not None:
        gt_words = map(words.setdefault, gt_words, gt_words)
    return FrameRecord(
        ts_ms,
        _RESOLUTIONS[resolution],
        exposure_us,
        tuple(samples),
        tuple([_detection(d, j) for j, d in enumerate(detections)]) if detections else (),
        shared_sig,
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
    """The query a parsed query line describes; errors as ``frame_from_obj``,
    and likewise no value is checked: ``replay`` applies the line rule."""
    try:
        ts_ms, speech_start_ms, question, mode = obj["ts_ms"], obj["speech_start_ms"], obj["question"], obj["mode"]
    except KeyError as exc:
        raise _missing_field(exc) from None
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
    write_trace(path, frames, stats=stats)
    return frames


def _parse_line(
    path: str | Path, lineno: int, line: str, raw_decode: Callable[[str, int], tuple[object, int]]
) -> dict:
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
        # What ``JSONDecoder.decode(line)`` does, in one call to the C
        # scanner: the value from the first character that is not JSON
        # whitespace, then "Extra data" unless only JSON whitespace
        # follows it.  The line is not cut on the right before the scan,
        # so a string the line ends inside fails as decode fails, on the
        # newline as an invalid control character.
        obj, end = raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        if end != len(line) and line[end:].strip(_JSON_SPACE):
            raise json.JSONDecodeError("Extra data", line, end)
    except (ValueError, RecursionError) as exc:
        # ``json.loads`` names a leading byte-order mark, which a decoder
        # reports as a bad value; the message stays the one it gave.
        message = _BOM_MESSAGE if line.startswith("\ufeff") else getattr(exc, "msg", exc)
        raise TraceFormatError(f"{path}:{lineno}: not JSON: {message}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{path}:{lineno}: expected an object, got {type(obj).__name__}")
    return obj


def _read_lines(
    path: str | Path, expected_format: str, convert: Callable[[dict], T]
) -> tuple[dict, list[T]]:
    """Header and converted records; bad input raises ``TraceFormatError``
    as ``path:line: ...`` and the file is closed on every path.  A record
    line that holds only JSON whitespace (``" \\t\\n\\r"``) is blank and
    skipped; any other line must hold one JSON object, so a line of, say,
    a form feed or a no-break space is refused as not JSON.

    Lines are parsed by one decoder per call, whose ``parse_float`` is a
    bounded memo from a float's text to its value: equal texts give one
    float object, so a trace's many repeated floats (each IMU sample's
    zeros, say) are held once.  Only equal texts share, so ``0.0`` and
    ``-0.0``, or ``1`` and ``1.0``, keep their bits and types; float
    objects are immutable, so sharing them is safe.
    """
    raw_decode = json.JSONDecoder(parse_float=functools.lru_cache(maxsize=_FLOAT_MEMO_SIZE)(float)).raw_decode
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header_line = fh.readline()
        if not header_line:
            raise TraceFormatError(f"{path}:1: empty file, missing header")
        header = _parse_line(path, 1, header_line, raw_decode)
        if header.get("format") != expected_format:
            raise TraceFormatError(
                f"{path}:1: expected format {expected_format!r}, got {header.get('format')!r}"
            )
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(f"{path}:1: unsupported version {header.get('version')!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            if not line.lstrip(_JSON_SPACE):
                continue
            obj = _parse_line(path, lineno, line, raw_decode)
            try:
                records.append(convert(obj))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad record: {exc!r}") from None
    return header, records


@collector_paused()
def read_trace(path: str | Path) -> tuple[dict, list[FrameRecord]]:
    """Header and frames; a frame shares the previous frame's
    ``scene_sig`` tuple and ``exposure_us`` int where ``frame_from_obj``
    allows it, and every frame one string per distinct word.

    A header's ``frame_count`` (``write_trace`` writes one) must be the
    number of frames read, so a file cut at a line boundary is refused.
    """
    previous: FrameRecord | None = None
    words: dict[str, str] = {}

    def convert(obj: dict) -> FrameRecord:
        nonlocal previous
        previous = frame_from_obj(obj, previous, words)
        return previous

    header, frames = _read_lines(path, TRACE_FORMAT, convert)
    if "frame_count" in header:
        count = header["frame_count"]
        if type(count) is not int:
            raise TraceFormatError(
                f"{path}:1: header frame_count: expected integer, got {type(count).__name__}"
            )
        if count != len(frames):
            raise TraceFormatError(
                f"{path}:1: header frame_count {count}, but the file holds {len(frames)} frames"
            )
    return header, frames


def write_queries(path: str | Path, queries: Sequence[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"format": QUERY_FORMAT, "version": FORMAT_VERSION}) + "\n")
        for query in queries:
            fh.write(canonical_json(query_to_obj(query)) + "\n")


def read_queries(path: str | Path) -> list[QueryRecord]:
    return _read_lines(path, QUERY_FORMAT, query_from_obj)[1]
