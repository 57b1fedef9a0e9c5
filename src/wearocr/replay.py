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
import json
import random
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

from . import wire
from .enrich import EnrichmentPipeline, consolidate, normalize_entries
from .model import (
    FrameRecord,
    OcrPayload,
    PayloadKind,
    QualityFlag,
    QueryRecord,
    Resolution,
    validate_trace,
)
from .ocr import OcrConfig, run_mock_ocr
from .osm import OcrContextEntry, SessionTimeline
from .power import (
    DeviceConfig,
    OcrMode,
    SessionPowerReport,
    StreamConfig,
    session_power_report,
)
from .prompt import (
    FramePlan,
    PlannerConfig,
    PromptComponent,
    build_prompt,
    dedup_prompt_ocr,
    plan_frames,
)
from .selection import (
    SelectorConfig,
    SelectorState,
    StageReport,
    Verdict,
    load_tree,
    process_frame,
    stage_report,
)


class ReplayError(RuntimeError):
    pass


# Keys ``SimConfig.from_obj`` accepts: a top-level key maps to None, or
# to the keys its section may hold.
_CONFIG_KEYS: dict[str, tuple[str, ...] | None] = {
    "ocr_resolution": None,
    "seed": None,
    "session_id": None,
    "text_similarity_threshold": None,
    "stream": ("resolution", "fps", "bitrate_bps"),
    "device": ("fps", "ocr_mode"),
    "selector": ("tree", "similarity_threshold", "budget_words", "budget_window_ms"),
    "planner": tuple(f.name for f in fields(PlannerConfig)),
    "shuffle": ("enabled", "bound"),
}


def _check_keys(obj: object, known: Iterable[str], path: str = "") -> None:
    """Raise ``ValueError`` naming the path of a key not in ``known``."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"config {path or 'root'} must be an object")
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown config key {path + '.' if path else ''}{key}")


@dataclass
class SimConfig:
    ocr_resolution: Resolution = Resolution.MP12
    seed: int = 0
    session_id: int = 1
    stream: StreamConfig = field(
        default_factory=lambda: StreamConfig(Resolution.MP3, 2, 500_000)
    )
    device_fps: int = 2
    device_ocr_mode: OcrMode = OcrMode.SFS_3MP_INPUT
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    text_similarity_threshold: float = 0.8
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    shuffle_delivery: bool = False
    shuffle_bound: int = 8

    @classmethod
    def from_obj(cls, obj: Mapping) -> "SimConfig":
        """Config from its JSON object; absent keys keep their defaults.

        An unknown key raises ``ValueError`` naming its path, for example
        ``planner.lookbak_ms``.
        """
        _check_keys(obj, _CONFIG_KEYS)
        for key, section in _CONFIG_KEYS.items():
            if section is not None and key in obj:
                _check_keys(obj[key], section, key)
        config = cls()
        if "ocr_resolution" in obj:
            config.ocr_resolution = Resolution(obj["ocr_resolution"])
        config.seed = obj.get("seed", config.seed)
        config.session_id = obj.get("session_id", config.session_id)
        if "stream" in obj:
            s = obj["stream"]
            config.stream = StreamConfig(
                Resolution(s["resolution"]), s["fps"], s["bitrate_bps"]
            )
        if "device" in obj:
            d = obj["device"]
            config.device_fps = d.get("fps", config.device_fps)
            config.device_ocr_mode = OcrMode(d.get("ocr_mode", config.device_ocr_mode))
        if "selector" in obj:
            s = dict(obj["selector"])
            if "tree" in s:
                s["tree"] = load_tree(s["tree"])
            config.selector = replace(config.selector, **s)
        config.text_similarity_threshold = obj.get(
            "text_similarity_threshold", config.text_similarity_threshold
        )
        if "planner" in obj:
            config.planner = replace(config.planner, **obj["planner"])
        if "shuffle" in obj:
            config.shuffle_delivery = obj["shuffle"].get("enabled", config.shuffle_delivery)
            config.shuffle_bound = obj["shuffle"].get("bound", config.shuffle_bound)
        return config


@dataclass(frozen=True)
class QueryPrompt:
    query: QueryRecord
    components: tuple[PromptComponent, ...]
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
    mean_words_per_text_frame: float
    prompt_digests: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class ReplayResult:
    report: PipelineReport
    prompts: tuple[QueryPrompt, ...]
    timeline: SessionTimeline


def _bounded_shuffle(items: list, bound: int, rng: random.Random) -> list:
    """Reorder with every element displaced by fewer than ``bound`` slots."""
    keyed = [(i + rng.random() * bound, item) for i, item in enumerate(items)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def _device_pass(
    frames: Sequence[FrameRecord], config: SimConfig, ocr_config: OcrConfig
) -> tuple[list, list[OcrPayload]]:
    decisions = []
    payloads = []
    state = SelectorState()
    for index, frame in enumerate(frames):
        try:
            decision, kind, state = process_frame(frame, state, config.selector)
        except ValueError as exc:
            raise ReplayError(f"frame {index}: {exc}") from exc
        decisions.append(decision)
        spans: tuple = ()
        if decision.verdict is Verdict.RUN_OCR:
            spans = run_mock_ocr(
                frame.gt_words, config.ocr_resolution, decision.roi, ocr_config, frame.ts_ms
            ).spans
            if not spans:
                kind = PayloadKind.NO_TEXT
        blurry = decision.verdict is Verdict.REJECT_BLUR
        payloads.append(
            OcrPayload(
                kind=kind,
                frame_ts_ms=frame.ts_ms,
                spans=spans,
                selection=decision.selection or frame.user_selection,
                quality_flags=frozenset({QualityFlag.BLURRY}) if blurry else frozenset(),
            )
        )
    return decisions, payloads


def replay(
    frames: Sequence[FrameRecord],
    queries: Sequence[QueryRecord],
    config: SimConfig | None = None,
    enrichment: EnrichmentPipeline | None = None,
) -> ReplayResult:
    config = config or SimConfig()
    violations = validate_trace(frames)
    if violations:
        raise ReplayError(f"invalid trace: {violations[0]}")

    ocr_config = OcrConfig(seed=config.seed)
    decisions, payloads = _device_pass(frames, config, ocr_config)

    messages = [wire.WireMessage(config.session_id, wire.SessionStart())]
    if frames:
        messages.append(
            wire.WireMessage(
                config.session_id,
                wire.VideoSegment(
                    start_ms=0,
                    duration_ms=frames[-1].ts_ms + 1,
                    fps=float(config.stream.fps),
                    resolution=config.stream.resolution,
                    bitrate_bps=config.stream.bitrate_bps,
                ),
            )
        )
    payload_msgs = [wire.WireMessage(config.session_id, p) for p in payloads]
    if config.shuffle_delivery:
        rng = random.Random(config.seed ^ 0x5EED)
        payload_msgs = _bounded_shuffle(payload_msgs, config.shuffle_bound, rng)
    messages.extend(payload_msgs)
    messages.append(wire.WireMessage(config.session_id, wire.SessionEnd()))

    ledger = wire.UplinkLedger()
    timeline = SessionTimeline(config.text_similarity_threshold)
    for msg in messages:
        frame = wire.encode(msg)
        ledger = wire.account(ledger, msg, frame)
        received = wire.decode(frame)
        if isinstance(received.body, OcrPayload):
            timeline.ingest(received.body)

    # One payload per frame, and one message per payload plus the session
    # start, end and (for a non-empty trace) video segment.
    if len(payloads) != len(frames):
        raise ReplayError(f"{len(payloads)} payloads for {len(frames)} frames")
    expected_messages = len(frames) + (3 if frames else 2)
    if ledger.message_count != expected_messages:
        raise ReplayError(
            f"ledger holds {ledger.message_count} messages, expected {expected_messages}"
        )

    frame_ts = [f.ts_ms for f in frames]
    frame_by_ts = {f.ts_ms: f for f in frames}
    accepted_ts = {
        f.ts_ms for f, d in zip(frames, decisions) if d.verdict is Verdict.RUN_OCR
    }
    resolutions = {f.ts_ms: f.resolution for f in frames}
    group_source = {g.group_latest_ts: g.exemplar_ts for g in timeline.groups()}

    prompts: list[QueryPrompt] = []
    prior_plans: list[FramePlan] = []
    fidelity_frames: dict[int, OcrContextEntry] = {}
    for qi, query in enumerate(queries):
        try:
            entries = timeline.build_ocr_context(query, config.planner.ocr_window_ms)
            entries = normalize_entries(entries)
            entries = consolidate(entries, threshold=config.text_similarity_threshold)
            if enrichment is not None:
                entries = enrichment.apply(entries)
            entries = dedup_prompt_ocr(entries, config.text_similarity_threshold)
            plan = plan_frames(frame_ts, accepted_ts, query, config.planner, prior_plans)
            components, text = build_prompt(
                query, plan, entries, frame_resolutions=resolutions
            )
        except ValueError as exc:
            raise ReplayError(f"query {qi}: {exc}") from exc
        prior_plans.append(plan)
        prompts.append(QueryPrompt(query=query, components=tuple(components), text=text))
        for entry in entries:
            source_ts = group_source.get(entry.ts_ms)
            if source_ts is not None and source_ts in frame_by_ts:
                fidelity_frames.setdefault(source_ts, entry)

    recovered = 0
    total = 0
    for source_ts, entry in fidelity_frames.items():
        gt = Counter(frame_by_ts[source_ts].gt_words)
        seen = Counter(entry.text.split())
        recovered += sum(min(count, seen[token]) for token, count in gt.items())
        total += sum(gt.values())

    stages = stage_report(decisions)
    text_word_counts = [
        len(f.gt_words)
        for f, d in zip(frames, decisions)
        if d.verdict is Verdict.RUN_OCR and f.gt_words
    ]
    mean_words = sum(text_word_counts) / len(text_word_counts) if text_word_counts else 0.0
    power = session_power_report(
        config.stream,
        DeviceConfig(
            fps=config.device_fps,
            ocr_mode=config.device_ocr_mode,
            words_per_text_frame=mean_words,
        ),
    )

    report = PipelineReport(
        stage=stages,
        ledger=ledger,
        power=power,
        fidelity=(recovered / total) if total else None,
        tokens_recovered=recovered,
        tokens_total=total,
        mean_words_per_text_frame=mean_words,
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
        return (
            json.dumps(header, separators=(",", ":"), sort_keys=True)
            + "\n"
            + json.dumps(body, separators=(",", ":"), sort_keys=True)
            + "\n"
        )
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
