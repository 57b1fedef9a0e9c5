"""Inference-context assembly.

Plans which frames back a query (uniformly sampled pre-query frames,
all accepted frames during speech, refs carried over from prior turns),
drops near-duplicate OCR entries, and assembles the final
prompt: optional mode preamble, then frame refs and OCR lines merged
in chronological order, then the question.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Container, Mapping, Sequence

from .model import QueryMode, QueryRecord, Resolution
from .osm import DEFAULT_TEXT_SIMILARITY_THRESHOLD, OcrContextEntry, near_duplicate, size_bounds

READOUT_PREAMBLE = "Read this word by word, spell out license plates character by character"
TRANSLATION_PREAMBLE_TEMPLATE = "Translate this word by word into {language}"


@dataclass(frozen=True)
class FramePlan:
    pre_query: tuple[int, ...]
    in_query: tuple[int, ...]
    historical: tuple[int, ...]


@dataclass(frozen=True)
class PlannerConfig:
    lookback_ms: int = 8000
    pre_n: int = 4
    hist_n: int = 2
    ocr_window_ms: int = 30000

    def __post_init__(self) -> None:
        if self.pre_n < 0 or self.hist_n < 0:
            raise ValueError("pre_n and hist_n must be non-negative")
        if self.pre_n > 10_000:  # each plan walks pre_n grid points
            raise ValueError(f"pre_n must be at most 10000, got {self.pre_n}")
        if self.lookback_ms < 0:
            raise ValueError(f"lookback_ms must be non-negative, got {self.lookback_ms}")
        if self.lookback_ms >= 2**63:  # it is divided as a float; a frame ts has this range too
            raise ValueError(f"lookback_ms must be below 2**63, got {self.lookback_ms}")
        if self.ocr_window_ms < 1:
            raise ValueError(f"ocr_window_ms must be at least 1, got {self.ocr_window_ms}")


def plan_frames(
    frame_ts: Sequence[int],
    accepted_ts: Container[int],
    query: QueryRecord,
    config: PlannerConfig,
    previous: FramePlan | None = None,
) -> FramePlan:
    """Choose the frame references for one query.

    ``frame_ts`` is the full ascending trace timestamp index,
    ``accepted_ts`` the subset that passed frame selection.  Pre-query
    points sit on a uniform grid across the lookback window, each
    snapped to the nearest frame at or before it.  ``previous`` is the
    last query's plan; its historical refs already hold the latest
    ``hist_n`` refs of every plan before it.
    """
    start = query.speech_start_ms
    pre: list[int] = []
    if config.pre_n > 0:
        step = config.lookback_ms / config.pre_n
        for i in range(config.pre_n):
            grid = start - config.lookback_ms + i * step
            idx = bisect.bisect_right(frame_ts, grid) - 1
            if idx < 0:
                continue
            ts = frame_ts[idx]
            if ts < start - config.lookback_ms or ts >= start:
                continue
            if not pre or pre[-1] != ts:
                pre.append(ts)
    speech = slice(
        bisect.bisect_left(frame_ts, start), bisect.bisect_right(frame_ts, query.ts_ms)
    )
    in_query = [ts for ts in frame_ts[speech] if ts in accepted_ts]
    earlier = {*previous.historical, *previous.pre_query, *previous.in_query} if previous else ()
    historical = sorted(earlier)[-config.hist_n :] if config.hist_n else []
    return FramePlan(
        pre_query=tuple(pre), in_query=tuple(in_query), historical=tuple(historical)
    )


def render_frame_ref(ts_ms: int, resolution: Resolution) -> str:
    return f"[FRAME t={ts_ms}ms res={resolution.value}]"


def dedup_prompt_ocr(
    entries: Sequence[OcrContextEntry], threshold: float = DEFAULT_TEXT_SIMILARITY_THRESHOLD
) -> list[OcrContextEntry]:
    """Drop entries near-duplicating an earlier retained one.

    Selection entries survive unconditionally: user intent is never
    deduplicated away.  Idempotent.
    """
    retained: list[OcrContextEntry] = []
    kept: list[frozenset[str]] = []  # the token sets of ``retained``
    for entry in entries:
        tokens = entry.tokens
        if not entry.is_selection:
            size = len(tokens)
            lo, hi = size_bounds(size, threshold)
            duplicate = False
            for other in kept:
                if lo <= len(other) <= hi and near_duplicate(len(tokens & other), size, len(other), threshold):
                    duplicate = True
                    break
            if duplicate:
                continue
        retained.append(entry)
        kept.append(tokens)
    return retained


def build_prompt(
    query: QueryRecord,
    plan: FramePlan,
    ocr_entries: Sequence[OcrContextEntry],
    frame_resolutions: Mapping[int, Resolution] | None = None,
) -> tuple[list[str], str]:
    """The prompt's lines and its text, the lines joined by newlines.

    Layout: preamble (readout/translation modes only), then frame refs
    and OCR lines merged ascending by timestamp (ties: frame < OCR,
    OCR lines in input order), then the question.  A frame without a
    known resolution is rendered at 12 MP.  A question, language or OCR
    text holding a newline would break its line in two: it raises
    ``ValueError``.
    """
    lines: list[str] = []
    if query.mode is QueryMode.READOUT:
        lines.append(READOUT_PREAMBLE)
    elif query.mode is QueryMode.TRANSLATION:
        if not query.target_lang:
            raise ValueError("Translation query requires target_lang")
        lines.append(TRANSLATION_PREAMBLE_TEMPLATE.format(language=query.target_lang))

    resolutions = frame_resolutions or {}
    # One stable sort on (ts, 0 for a frame ref / 1 for an OCR line):
    # frame refs have unique timestamps, and OCR lines keep their order on ties.
    middle = [
        (ts, 0, render_frame_ref(ts, resolutions.get(ts, Resolution.MP12)))
        for ts in {*plan.historical, *plan.pre_query, *plan.in_query}
    ]
    middle += [(entry.ts_ms, 1, entry.line) for entry in ocr_entries]
    middle.sort(key=itemgetter(0, 1))
    lines += [line for _, _, line in middle]
    lines.append(query.question)
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1:
        raise ValueError("a prompt line holds a newline")
    return lines, text
