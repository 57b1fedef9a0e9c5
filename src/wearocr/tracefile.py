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


def frame_to_obj(frame: FrameRecord) -> dict:
    return {
        "ts_ms": frame.ts_ms,
        "resolution": frame.resolution.value,
        "exposure_us": frame.exposure_us,
        "imu": [
            [s.ts_us, list(s.gyro), list(s.accel)] for s in frame.imu
        ],
        "detections": [
            {
                "cls": d.cls.value,
                "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
                "conf": d.conf,
                **({"keypoints": [list(k) for k in d.keypoints]} if d.keypoints is not None else {}),
            }
            for d in frame.detections
        ],
        "scene_sig": list(frame.scene_sig),
        "gt_words": list(frame.gt_words),
        "user_selection": frame.user_selection,
    }


def frame_from_obj(obj: dict) -> FrameRecord:
    return FrameRecord(
        obj["ts_ms"],
        Resolution(obj["resolution"]),
        obj["exposure_us"],
        tuple([ImuSample(ts_us, tuple(gyro), tuple(accel)) for ts_us, gyro, accel in obj["imu"]]),
        tuple([
            Detection(
                DetectionClass(d["cls"]),
                Rect(*d["bbox"]),
                d["conf"],
                tuple([tuple(k) for k in d["keypoints"]]) if "keypoints" in d else None,
            )
            for d in obj["detections"]
        ]),
        tuple(obj["scene_sig"]),
        tuple(obj["gt_words"]),
        obj["user_selection"],
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
    return QueryRecord(
        ts_ms=obj["ts_ms"],
        speech_start_ms=obj["speech_start_ms"],
        question=obj["question"],
        mode=QueryMode(obj["mode"]),
        target_lang=obj.get("target_lang"),
    )


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def write_trace(
    path: str | Path,
    frames: Sequence[FrameRecord],
    sig_dim: int = DEFAULT_SIG_DIM,
    stats: dict | None = None,
) -> None:
    header = {
        "format": TRACE_FORMAT,
        "version": FORMAT_VERSION,
        "sig_dim": sig_dim,
        "frame_count": len(frames),
    }
    if stats:
        header["stats"] = stats
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        for frame in frames:
            fh.write(_dump(frame_to_obj(frame)) + "\n")


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
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: bad record: {exc!r}") from None
    return header, records


def read_trace(path: str | Path) -> tuple[dict, list[FrameRecord]]:
    return _read_lines(path, TRACE_FORMAT, frame_from_obj)


def write_queries(path: str | Path, queries: Sequence[QueryRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"format": QUERY_FORMAT, "version": FORMAT_VERSION}) + "\n")
        for query in queries:
            fh.write(_dump(query_to_obj(query)) + "\n")


def read_queries(path: str | Path) -> list[QueryRecord]:
    return _read_lines(path, QUERY_FORMAT, query_from_obj)[1]
