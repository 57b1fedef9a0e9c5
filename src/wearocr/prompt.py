"""Inference-context assembly.

Plans which frames back a query (uniformly sampled pre-query frames,
all accepted frames during speech, refs carried over from prior turns),
renders OCR entries into a fixed line format, and assembles the final
prompt: optional mode preamble, then history/frame/OCR components
merged in chronological order, then the question.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping, Sequence

from .model import QueryMode, QueryRecord, Resolution
from .osm import OcrContextEntry, near_duplicate, token_set

READOUT_PREAMBLE = "Read this word by word, spell out license plates character by character"
TRANSLATION_PREAMBLE_TEMPLATE = "Translate this word by word into {language}"


class ComponentKind(IntEnum):
    # Order is the tie-break at equal timestamps: history summarizes the
    # past, OCR should follow the frame it describes.
    PREAMBLE = 0
    HISTORY_TURN = 1
    FRAME_REF = 2
    OCR_BLOCK = 3
    QUESTION = 4


@dataclass(frozen=True, slots=True)
class PromptComponent:
    kind: ComponentKind
    ts_ms: int
    body: str


@dataclass(frozen=True)
class FramePlan:
    pre_query: tuple[int, ...]
    in_query: tuple[int, ...]
    historical: tuple[int, ...]


@dataclass(frozen=True)
class HistoryTurn:
    ts_ms: int
    body: str


@dataclass(frozen=True)
class PlannerConfig:
    lookback_ms: int = 8000
    pre_n: int = 4
    hist_n: int = 2
    ocr_window_ms: int = 30000

    def __post_init__(self) -> None:
        if self.pre_n < 0 or self.hist_n < 0:
            raise ValueError("pre_n and hist_n must be non-negative")
        if self.lookback_ms < 0:
            raise ValueError(f"lookback_ms must be non-negative, got {self.lookback_ms}")
        if self.ocr_window_ms < 1:
            raise ValueError(f"ocr_window_ms must be at least 1, got {self.ocr_window_ms}")


def plan_frames(
    frame_ts: Sequence[int],
    accepted_ts: frozenset[int] | set[int],
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


def render_ocr_line(entry: OcrContextEntry) -> str:
    flags = ",".join(sorted(f.value.lower() for f in entry.quality_flags)) or "none"
    if entry.is_selection:
        flags += ";selected"
    return f"[OCR t={entry.ts_ms}ms flags={flags}] {entry.text}"


def render_frame_ref(ts_ms: int, resolution: Resolution) -> str:
    return f"[FRAME t={ts_ms}ms res={resolution.value}]"


def dedup_prompt_ocr(
    entries: Sequence[OcrContextEntry], threshold: float = 0.8
) -> list[OcrContextEntry]:
    """Drop entries near-duplicating an earlier retained one.

    Selection entries survive unconditionally: user intent is never
    deduplicated away.  Idempotent.
    """
    retained: list[OcrContextEntry] = []
    retained_tokens: list[frozenset[str]] = []
    for entry in entries:
        tokens = token_set(entry.text)
        if not entry.is_selection and any(
            near_duplicate(len(tokens & kept), len(tokens), len(kept), threshold)
            for kept in retained_tokens
        ):
            continue
        retained.append(entry)
        retained_tokens.append(tokens)
    return retained


def build_prompt(
    query: QueryRecord,
    plan: FramePlan,
    ocr_entries: Sequence[OcrContextEntry],
    history: Sequence[HistoryTurn] = (),
    frame_resolutions: Mapping[int, Resolution] | None = None,
    default_resolution: Resolution = Resolution.MP12,
) -> tuple[list[PromptComponent], str]:
    """Assemble the ordered component list and its flattened text.

    Layout: preamble (readout/translation modes only), then history
    turns, frame refs, and OCR lines merged ascending by timestamp
    (ties: history < frame < OCR), then the question.
    """
    components: list[PromptComponent] = []
    if query.mode is QueryMode.READOUT:
        components.append(
            PromptComponent(ComponentKind.PREAMBLE, query.ts_ms, READOUT_PREAMBLE)
        )
    elif query.mode is QueryMode.TRANSLATION:
        if not query.target_lang:
            raise ValueError("Translation query requires target_lang")
        components.append(
            PromptComponent(
                ComponentKind.PREAMBLE,
                query.ts_ms,
                TRANSLATION_PREAMBLE_TEMPLATE.format(language=query.target_lang),
            )
        )

    resolutions = frame_resolutions or {}
    middle: list[PromptComponent] = []
    for turn in history:
        middle.append(PromptComponent(ComponentKind.HISTORY_TURN, turn.ts_ms, turn.body))
    # The stable (ts, kind) sort below orders everything: frame refs have unique timestamps.
    for ts in {*plan.historical, *plan.pre_query, *plan.in_query}:
        res = resolutions.get(ts, default_resolution)
        middle.append(
            PromptComponent(ComponentKind.FRAME_REF, ts, render_frame_ref(ts, res))
        )
    for entry in ocr_entries:
        middle.append(
            PromptComponent(ComponentKind.OCR_BLOCK, entry.ts_ms, render_ocr_line(entry))
        )
    middle.sort(key=lambda c: (c.ts_ms, c.kind))
    components.extend(middle)
    components.append(PromptComponent(ComponentKind.QUESTION, query.ts_ms, query.question))
    flattened = "\n".join(c.body for c in components)
    return components, flattened
