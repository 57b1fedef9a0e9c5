"""Deterministic mock OCR.

Recognition quality is anchored to measured word accuracy per capture
resolution, latency to measured per-frame inference times as a function
of word count.  Randomness is counter-based (seed, frame timestamp,
token index) so a given trace always produces byte-identical results.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

from .model import Rect, Resolution, TextSpan, piecewise_linear

DEFAULT_ACCURACY_ANCHORS: dict[Resolution, float] = {
    Resolution.MP3: 0.1980,
    Resolution.MP5: 0.5644,
    Resolution.MP12: 0.8904,
}

DEFAULT_LATENCY_ANCHORS: tuple[tuple[int, float], ...] = (
    (0, 341.0),
    (30, 396.0),
    (100, 1188.0),
    (1000, 4976.0),
)

# Visually-confusable substitutions applied to mis-recognized characters.
_CONFUSIONS = {
    "6": "8", "8": "6", "0": "O", "O": "0", "1": "l", "l": "1",
    "5": "S", "S": "5", "B": "8", "o": "0", "i": "l", "Z": "2", "2": "Z",
}


@dataclass(frozen=True)
class OcrConfig:
    seed: int = 0


@dataclass(frozen=True)
class OcrResult:
    spans: tuple[TextSpan, ...]
    words_attempted: int
    words_correct: int


def word_accuracy(resolution: Resolution) -> float:
    return DEFAULT_ACCURACY_ANCHORS[resolution]


def ocr_latency_ms(word_count: int) -> float:
    """Piecewise-linear latency in word count; exact at every anchor.

    Beyond the last anchor the final segment's slope extrapolates.
    """
    if word_count < 0:
        raise ValueError("word_count must be non-negative")
    return piecewise_linear(DEFAULT_LATENCY_ANCHORS, word_count)


def _unit_uniform(seed: int, frame_ts_ms: int, token_index: int, lane: int) -> float:
    """Deterministic uniform in [0,1) from a hashed counter."""
    digest = hashlib.sha256(
        struct.pack(">qqqq", seed, frame_ts_ms, token_index, lane)
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _corrupt(token: str, seed: int, frame_ts_ms: int, token_index: int) -> str:
    """Single-character substitution at a seed-derived position."""
    pos = int(_unit_uniform(seed, frame_ts_ms, token_index, lane=1) * len(token))
    pos = min(pos, len(token) - 1)
    ch = token[pos]
    # Without a confusion, the next ASCII printable character ("~" wraps
    # to "!"); a code point outside that range lands inside it, so the
    # substitute is never ch.  No Unicode database is asked.
    sub = _CONFUSIONS.get(ch) or chr(33 + (ord(ch) - 32) % 94)
    return token[:pos] + sub + token[pos + 1 :]


def run_mock_ocr(
    gt_words: Sequence[str],
    resolution: Resolution,
    roi: Rect | None,
    config: OcrConfig,
    frame_ts_ms: int,
) -> OcrResult:
    """Recognize each ground-truth token independently at the anchored accuracy.

    Mis-recognized tokens come back edit-distance 1 from the truth so
    downstream similarity grouping still clusters variants.  Spans are
    laid out left-to-right inside the ROI (or the full image).
    """
    accuracy = word_accuracy(resolution)
    box = roi if roi is not None else Rect(0.0, 0.0, 1.0, 1.0)
    n = len(gt_words)
    spans: list[TextSpan] = []
    correct = 0
    for i, token in enumerate(gt_words):
        if _unit_uniform(config.seed, frame_ts_ms, i, lane=0) < accuracy:
            out = token
            correct += 1
        else:
            out = _corrupt(token, config.seed, frame_ts_ms, i)
        cell_w = box.w / n
        spans.append(
            TextSpan(
                text=out,
                bbox=Rect(box.x + i * cell_w, box.y, cell_w, box.h),
                conf=accuracy,
            )
        )
    return OcrResult(
        spans=tuple(spans),
        words_attempted=n,
        words_correct=correct,
    )
