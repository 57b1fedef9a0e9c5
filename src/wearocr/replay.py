"""End-to-end trace replay: device pipeline -> link -> store -> prompts.

Runs frame selection over the trace, mock-OCRs accepted frames at the
configured resolution, sends every payload through the wire codec (with
an optional bounded delivery shuffle), ingests on the server side,
builds one prompt per query, and aggregates a deterministic report:
stage survival counts, exact uplink bits, table-anchored power
multipliers, and text fidelity.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

from . import wire
from .enrich import consolidate, normalize_entries
from .model import (
    FrameRecord,
    OcrPayload,
    PayloadKind,
    QualityFlag,
    QueryMode,
    QueryRecord,
    Resolution,
    canonical_json,
    collector_paused,
    line_fault,
    validate_trace,
)
from .ocr import OcrConfig, run_mock_ocr
from .osm import DEFAULT_TEXT_SIMILARITY_THRESHOLD, OcrContextEntry, SessionTimeline
from .power import (
    DeviceConfig,
    NoAnchorError,
    OcrMode,
    SessionPowerReport,
    StreamConfig,
    relative_power,
    session_power_report,
)
from .prompt import (
    FramePlan,
    PlannerConfig,
    build_prompt,
    dedup_prompt_ocr,
    plan_frames,
)
from .selection import SelectorConfig, SelectorState, StageReport, Verdict, process_frame, verdict_report


class ReplayError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeviceMode:
    """Capture rate and OCR mode the device power rows are looked up by."""

    fps: int = 2
    ocr_mode: OcrMode = OcrMode.SFS_3MP_INPUT


@dataclass(frozen=True)
class ShuffleConfig:
    """Optional delivery reordering: each payload moves fewer than ``bound`` slots."""

    enabled: bool = False
    bound: int = 8

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1, got {self.bound}")
        if self.bound >= 2**63:  # it scales a float draw; a frame ts has this range too
            raise ValueError(f"bound must be below 2**63, got {self.bound}")


@dataclass(frozen=True)
class SimConfig:
    """Replay settings: each field is a config JSON key, each dataclass a section."""

    ocr_resolution: Resolution = Resolution.MP12
    seed: int = 0
    session_id: int = 1
    stream: StreamConfig = StreamConfig(Resolution.MP3, 2, 500_000)
    device: DeviceMode = DeviceMode()
    selector: SelectorConfig = SelectorConfig()
    text_similarity_threshold: float = DEFAULT_TEXT_SIMILARITY_THRESHOLD
    planner: PlannerConfig = PlannerConfig()
    shuffle: ShuffleConfig = ShuffleConfig()

    def __post_init__(self) -> None:
        # Mock OCR hashes the seed as a signed 64-bit word; the wire
        # carries the session id as an unsigned one.
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed must be in [-2**63, 2**63), got {self.seed}")
        if not 0 <= self.session_id < 2**64:
            raise ValueError(f"session_id must be in [0, 2**64), got {self.session_id}")

    @classmethod
    def from_obj(cls, obj: object) -> "SimConfig":
        """Config from its JSON object; absent keys keep their defaults.

        Any key or value the dataclasses do not declare raises
        ``ValueError`` naming its path, for example ``planner.lookbak_ms``.
        """
        return _load(cls(), obj, "")


_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _load(default: object, obj: object, path: str) -> object:
    """``obj`` read as a value of the type of ``default``.

    A section takes a JSON object whose keys are a subset of its
    fields; each value is loaded against that field's current value.
    """
    if isinstance(default, Enum):
        try:
            return type(default)(obj)
        except ValueError as exc:
            raise ValueError(f"config {path}: {exc}") from None
    if not is_dataclass(default):
        # Exact types, so that a JSON boolean is no int.
        if type(obj) in _JSON_TYPES[type(default)]:
            if obj != obj:  # JSON readers accept NaN, which fails every comparison
                raise ValueError(f"config {path}: {obj!r} is not a number")
            return obj
        raise ValueError(f"config {path}: {obj!r} is not of type {type(default).__name__}")
    if not isinstance(obj, Mapping):
        raise ValueError(f"config {path or 'root'} must be an object")
    known = {f.name for f in fields(default)}
    for key, value in obj.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ValueError(f"unknown config key {where}")
        loaded = _load(getattr(default, key), value, where)
        try:
            default = replace(default, **{key: loaded})
        except ValueError as exc:
            raise ValueError(f"config {where}: {exc}") from None
    return default


@dataclass(frozen=True)
class QueryPrompt:
    query: QueryRecord
    text: str

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PipelineReport:
    stage: StageReport
    ledger: wire.UplinkLedger
    power: SessionPowerReport
    fidelity: float | None
    tokens_recovered: int
    tokens_total: int
    prompt_digests: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class ReplayResult:
    report: PipelineReport
    prompts: tuple[QueryPrompt, ...]
    timeline: SessionTimeline


def _bounded_shuffle(items: Iterable, bound: int, rng: random.Random) -> Iterator:
    """Reorder with every element displaced by fewer than ``bound`` slots.

    Item ``i``'s key ``i + r * bound`` is at least ``i``, so once item ``i``
    is pushed every key below ``i + 1`` is final.  Items leave in (key,
    index) order, as from a stable sort by key.
    """
    heap: list = []
    for i, item in enumerate(items):
        heapq.heappush(heap, (i + rng.random() * bound, i, item))
        while heap and heap[0][0] < i + 1:
            yield heapq.heappop(heap)[2]
    yield from (item for _, _, item in sorted(heap))


_BLURRY_FLAGS = frozenset({QualityFlag.BLURRY})
_NO_FLAGS: frozenset[QualityFlag] = frozenset()


def _device_pass(
    frames: Iterable[FrameRecord],
    config: SimConfig,
    verdicts: dict[Verdict, int],
    accepted: dict[int, FrameRecord],
) -> Iterator[OcrPayload]:
    """Each frame's payload; counts its verdict, and adds ``{ts: frame}`` if it runs OCR."""
    ocr_config = OcrConfig(seed=config.seed)
    state = SelectorState()
    selector, resolution = config.selector, config.ocr_resolution
    run_ocr, reject_blur, no_text = Verdict.RUN_OCR, Verdict.REJECT_BLUR, PayloadKind.NO_TEXT
    for frame in frames:
        decision, kind, state = process_frame(frame, state, selector)
        verdict = decision.verdict
        verdicts[verdict] += 1
        spans: tuple = ()
        if verdict is run_ocr:
            accepted[frame.ts_ms] = frame
            spans = run_mock_ocr(frame.gt_words, resolution, decision.roi, ocr_config, frame.ts_ms).spans
            if not spans:
                kind = no_text
        yield OcrPayload(
            kind,
            frame.ts_ms,
            spans,
            decision.selection or frame.user_selection,
            _BLURRY_FLAGS if verdict is reject_blur else _NO_FLAGS,
        )


@collector_paused()
def replay(
    frames: Sequence[FrameRecord],
    queries: Sequence[QueryRecord],
    config: SimConfig | None = None,
) -> ReplayResult:
    """Run the device pass, the link, grouping and every query over a trace.

    Queries are answered in ts order, each by a fixed path:
    ``plan_frames``, ``build_ocr_context``, ``normalize_entries``,
    ``consolidate``, ``dedup_prompt_ocr``, then ``build_prompt``.
    Payloads, messages and groups hold no reference cycles, so the whole
    run keeps the cyclic collector paused.
    """
    config = config or SimConfig()
    # The power report needs both table rows: look them up before the device pass.
    try:
        relative_power(config.stream)
    except NoAnchorError as exc:
        raise ReplayError(f"config stream: {exc}") from None
    try:
        relative_power(DeviceConfig(config.device.fps, config.device.ocr_mode))
    except NoAnchorError as exc:
        raise ReplayError(f"config device: {exc}") from None
    violations = validate_trace(frames)
    if violations:
        raise ReplayError(f"invalid trace: {violations[0]}")
    for qi, query in enumerate(queries):
        for name in ("ts_ms", "speech_start_ms"):
            if not -(2**63) <= getattr(query, name) < 2**63:  # the planner computes with them as floats
                raise ReplayError(f"query {qi}: {name} outside [-2**63, 2**63)")
        if query.speech_start_ms > query.ts_ms:
            raise ReplayError(
                f"query {qi}: speech_start_ms {query.speech_start_ms} is after ts_ms {query.ts_ms}"
            )
        for name, text in (("question", query.question), ("target_lang", query.target_lang)):
            if text is not None and (fault := line_fault(text)) is not None:
                raise ReplayError(f"query {qi}: {name} holds {fault}")
        if query.mode is QueryMode.TRANSLATION and not query.target_lang:
            raise ReplayError(f"query {qi}: Translation query requires target_lang")

    # A plain dict: a Counter's += takes about 250 ns a frame, a dict's 70.
    verdicts = dict.fromkeys(Verdict, 0)
    accepted: dict[int, FrameRecord] = {}  # every group exemplar is one of these
    payloads = _device_pass(frames, config, verdicts, accepted)
    if config.shuffle.enabled:
        payloads = _bounded_shuffle(payloads, config.shuffle.bound, random.Random(config.seed ^ 0x5EED))
    head: list[wire.Body] = [wire.SessionStart()]
    if frames:
        head.append(
            wire.VideoSegment(
                start_ms=0,
                duration_ms=frames[-1].ts_ms + 1,
                fps=float(config.stream.fps),
                resolution=config.stream.resolution,
                bitrate_bps=config.stream.bitrate_bps,
            )
        )

    # The device pass and the link take turns of 256 payloads, and only
    # the decoded copies stay.  A turn per payload made both loops about
    # 10 % slower on CPython 3.11: each runs best many times in a row.
    ledger = wire.UplinkLedger()
    timeline = SessionTimeline(config.text_similarity_threshold)
    turns = iter(lambda: list(islice(payloads, 256)), [])
    # The link's names are looked up once per call, not once per message;
    # a wrapper installed on them before the call is the one bound.
    session_id, message, encode, account, decode = (
        config.session_id, wire.WireMessage, wire.encode, wire.account, wire.decode
    )
    ingest = timeline.ingest
    for body in chain(head, chain.from_iterable(turns), (wire.SessionEnd(),)):
        msg = message(session_id, body)
        frame = encode(msg)
        ledger = account(ledger, msg, frame)
        received = decode(frame).body
        if isinstance(received, OcrPayload):
            ingest(received)

    group_source = {g.group_latest_ts: g.exemplar_ts for g in timeline.groups()}

    # Only queries read the frame indexes.  Answered in ts order as a live
    # server would, each query's plan chains from the one before, and the
    # first prompt to show a group's text scores its fidelity.  Ties go by
    # every other field, so that no prompt depends on the input's order.
    def answer_order(qi: int) -> tuple:
        q = queries[qi]
        return (q.ts_ms, q.speech_start_ms, q.mode.value, q.question, q.target_lang is not None, q.target_lang or "")

    frame_ts = [f.ts_ms for f in frames] if queries else []
    resolutions = {f.ts_ms: f.resolution for f in frames} if queries else {}
    prompts: list[QueryPrompt | None] = [None] * len(queries)
    fidelity_frames: dict[int, OcrContextEntry] = {}
    plan: FramePlan | None = None
    for qi in sorted(range(len(queries)), key=answer_order):
        query = queries[qi]
        plan = plan_frames(frame_ts, accepted.keys(), query, config.planner, plan)
        entries = timeline.build_ocr_context(query, config.planner.ocr_window_ms)
        entries = normalize_entries(entries)
        entries = consolidate(entries, threshold=config.text_similarity_threshold)
        entries = dedup_prompt_ocr(entries, config.text_similarity_threshold)
        _, text = build_prompt(query, plan, entries, frame_resolutions=resolutions)
        prompts[qi] = QueryPrompt(query=query, text=text)
        # Each entry sits at its group's latest ts, which a merge keeps.
        for entry in entries:
            fidelity_frames.setdefault(group_source[entry.ts_ms], entry)

    recovered = 0
    total = 0
    for source_ts, entry in fidelity_frames.items():
        gt = Counter(accepted[source_ts].gt_words)
        seen = Counter(entry.text.split())
        recovered += sum(min(count, seen[token]) for token, count in gt.items())
        total += sum(gt.values())

    stages = verdict_report(verdicts)
    text_word_counts = [len(f.gt_words) for f in accepted.values() if f.gt_words]
    mean_words = sum(text_word_counts) / len(text_word_counts) if text_word_counts else 0.0
    power = session_power_report(
        config.stream,
        DeviceConfig(config.device.fps, config.device.ocr_mode, mean_words),
    )

    report = PipelineReport(
        stage=stages,
        ledger=ledger,
        power=power,
        fidelity=(recovered / total) if total else None,
        tokens_recovered=recovered,
        tokens_total=total,
        prompt_digests=tuple((p.query.ts_ms, p.digest()) for p in prompts),
    )
    return ReplayResult(report=report, prompts=tuple(prompts), timeline=timeline)


def emit_report(report: PipelineReport, fmt: str = "human") -> str:
    """Render a report; both formats are byte-stable for identical input."""
    if fmt == "machine":
        header = {"format": "wearocr-report", "version": 1}
        stage = report.stage
        pct = stage.cumulative_pct_change()
        body = {
            "stage_counts": {
                "camera_stream": stage.input_count,
                "after_blur_filter": stage.after_blur,
                "after_text_content_filter": stage.after_text,
                "after_similarity_filter": stage.after_similarity,
                "budget_rejected": stage.budget_rejected,
                "accepted": stage.accepted,
            },
            "cumulative_pct_change": list(pct),
            "uplink": {
                "video_bits": float(report.ledger.video_bits),
                "payload_bits": report.ledger.payload_bits,
                "message_count": report.ledger.message_count,
            },
            "power": {
                "stream_multiplier": report.power.stream_multiplier,
                "stream_baseline": report.power.stream_baseline.value,
                "device_multiplier": report.power.device_multiplier,
                "device_baseline": report.power.device_baseline.value,
                "words_per_text_frame": report.power.device_words_per_text_frame,
                "words_clamped": report.power.words_clamped,
                "anchor_checksum": report.power.anchor_checksum,
            },
            "fidelity": report.fidelity,
            "tokens_recovered": report.tokens_recovered,
            "tokens_total": report.tokens_total,
            "prompt_digests": [list(d) for d in report.prompt_digests],
        }
        return canonical_json(header) + "\n" + canonical_json(body) + "\n"
    if fmt != "human":
        raise ValueError(f"unknown report format {fmt!r}")

    stage = report.stage
    pct = stage.cumulative_pct_change()
    lines = [
        "Stage                         Video frame count   Percentage change",
        f"Camera stream                 {stage.input_count:>17}   -",
        f"After Blur Filter             {stage.after_blur:>17}   {pct[0]:.1f}%",
        f"After Text Content Filter     {stage.after_text:>17}   {pct[1]:.1f}%",
        f"After Similarity Filter       {stage.after_similarity:>17}   {pct[2]:.1f}%",
        "",
        f"Budget rejected: {stage.budget_rejected}",
        f"Accepted (OCR run): {stage.accepted}",
        "",
        f"Uplink video bits: {float(report.ledger.video_bits):.0f}",
        f"Uplink payload bits: {report.ledger.payload_bits}",
        f"Uplink messages: {report.ledger.message_count}",
        "",
        f"Stream power: {report.power.stream_multiplier:.2f}x"
        f" (vs {report.power.stream_baseline.value})",
        f"Device power: {report.power.device_multiplier:.2f}x"
        f" (vs {report.power.device_baseline.value},"
        f" {report.power.device_words_per_text_frame:.1f} words/text frame"
        + (", clamped)" if report.power.words_clamped else ")"),
        f"Anchor checksum: {report.power.anchor_checksum}",
        "",
    ]
    if report.fidelity is None:
        lines.append("Text fidelity: n/a (no ground-truth tokens in prompts)")
    else:
        lines.append(
            f"Text fidelity: {report.fidelity:.4f}"
            f" ({report.tokens_recovered}/{report.tokens_total} tokens)"
        )
    for ts, digest in report.prompt_digests:
        lines.append(f"Prompt @{ts}ms: sha256={digest}")
    return "\n".join(lines) + "\n"
