"""Output checks made apart from the program.

Everything here is re-implemented from the documented rules rather than
imported from ``wearocr``: the four selection gates, the uplink ledger
identity, the mock-OCR error model, greedy similarity grouping, the
prompt layout and the causal OCR context a live server would build.
The functions take plain program outputs (frames, payloads, prompt
text, report lines) so the tests can feed them planted faults.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

# Payload kinds as they travel on the wire (wearocr.model.PayloadKind).
TEXT_OCR, NO_TEXT, SIMILAR_SCENE, BLURRY, RESOURCE_CONSTRAINT = 1, 2, 3, 4, 5

# Selection gates (wearocr.selection defaults and reference blur tree).
DETECTION_MIN_CONF = 0.5
SCENE_SIMILARITY = 0.9
BUDGET_WORDS = 300
BUDGET_WINDOW_MS = 10_000
EXPOSURE_SPLIT_US = 20_000
MOTION_LIMIT_SHORT = 10.0  # exposure below the split
MOTION_LIMIT_LONG = 4.0

# Server and prompt rules.
TEXT_THRESHOLD = 0.8
OCR_WINDOW_MS = 30_000
CONSOLIDATE_GAP_MS = 5_000
READOUT_PREAMBLE = "Read this word by word, spell out license plates character by character"
TRANSLATION_PREAMBLE = "Translate this word by word into {}"
PREAMBLE_PREFIXES = ("Read this word by word", "Translate this word by word")

MP12_WORD_ACCURACY = 0.8904
# 3 sigma flags a correct program on 0.27 % of seeds; over the ~50 seeded
# runs of one benchmark evaluation that is a one-in-eight false alarm.
# 4 sigma (6e-5 per run) still flags a bias of 3.5 points on device-5h
# (about 1,400 words) and of 1.6 points on session-20min (about 6,000).
ACCURACY_SIGMAS = 4.0

_OCR_LINE = re.compile(r"^\[OCR t=(\d+)ms flags=([^\]]*)\] (.*)$")
_CONTROL = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_WS = re.compile(r"\s+")


# -- selection ------------------------------------------------------------


def _motion(frame) -> float:
    start = frame.ts_ms * 1000
    end = start + frame.exposure_us
    energy = 0.0
    for s in frame.imu:
        if start <= s.ts_us <= end:
            energy = max(energy, math.sqrt(sum(v * v for v in (*s.gyro, *s.accel))))
    return energy


def _cosine(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)


def recount_verdicts(frames) -> list[str]:
    """Each frame's verdict from the four gates: "accept", "blur",
    "no_text", "similar" or "budget".

    Supports the generator's inputs: text comes only from TextObject
    detections and selection only from the frame's user flag.
    """
    verdicts = []
    last_sig = None
    window: list[tuple[int, int]] = []
    for frame in frames:
        limit = MOTION_LIMIT_SHORT if frame.exposure_us < EXPOSURE_SPLIT_US else MOTION_LIMIT_LONG
        if _motion(frame) >= limit:
            verdicts.append("blur")
            continue
        if any(d.cls.value != "TextObject" for d in frame.detections):
            raise ValueError(f"frame at {frame.ts_ms}ms: recount supports TextObject detections only")
        if not any(d.conf >= DETECTION_MIN_CONF for d in frame.detections):
            verdicts.append("no_text")
            continue
        if (
            not frame.user_selection
            and last_sig is not None
            and _cosine(frame.scene_sig, last_sig) >= SCENE_SIMILARITY
        ):
            verdicts.append("similar")
            continue
        window = [(ts, n) for ts, n in window if ts > frame.ts_ms - BUDGET_WINDOW_MS]
        if sum(n for _, n in window) >= BUDGET_WORDS:
            verdicts.append("budget")
            continue
        last_sig = frame.scene_sig
        window.append((frame.ts_ms, len(frame.gt_words)))
        verdicts.append("accept")
    return verdicts


_VERDICT_KIND = {"blur": BLURRY, "no_text": NO_TEXT, "similar": SIMILAR_SCENE, "budget": RESOURCE_CONSTRAINT}


def expected_kind(frame, verdict: str) -> int:
    """Payload kind a frame yields; OCR of a frame without words finds no text."""
    if verdict == "accept":
        return TEXT_OCR if frame.gt_words else NO_TEXT
    return _VERDICT_KIND[verdict]


def stage_counts(verdicts: list[str]) -> dict[str, int]:
    """The machine report's ``stage_counts`` implied by the verdicts."""
    n = len(verdicts)
    blur, no_text, similar, budget = (verdicts.count(v) for v in ("blur", "no_text", "similar", "budget"))
    return {
        "camera_stream": n,
        "after_blur_filter": n - blur,
        "after_text_content_filter": n - blur - no_text,
        "after_similarity_filter": n - blur - no_text - similar,
        "budget_rejected": budget,
        "accepted": verdicts.count("accept"),
    }


def selection_check(frames, payload_kinds: dict[int, int], report_stages: dict) -> tuple[list[int], list[str]]:
    """Indices of frames whose payload kind differs from the recount, and
    the stage counts of the report when they differ from the recount."""
    verdicts = recount_verdicts(frames)
    failed = [
        i for i, (f, v) in enumerate(zip(frames, verdicts))
        if payload_kinds.get(f.ts_ms) != expected_kind(f, v)
    ]
    want = stage_counts(verdicts)
    problems = [] if report_stages == want else [f"stage counts {report_stages} != recount {want}"]
    return failed, problems


# -- ledger and OCR -------------------------------------------------------


def ledger_check(frames, report_uplink: dict, video_bits: Fraction, bitrate_bps: int) -> list[str]:
    problems = []
    if report_uplink["message_count"] != len(frames) + 3:
        problems.append(f"messages {report_uplink['message_count']} != frames + 3 = {len(frames) + 3}")
    duration_ms = frames[-1].ts_ms + 1 if frames else 0
    want = Fraction(bitrate_bps * duration_ms, 1000)
    if video_bits != want:
        problems.append(f"video bits {video_bits} != {want}")
    return problems


def _one_substitution(a: str, b: str) -> bool:
    return len(a) == len(b) and sum(x != y for x, y in zip(a, b)) == 1


def ocr_check(frames_by_ts: dict, payloads) -> list[str]:
    """Spans that are neither their word nor one substitution away from it,
    and a word accuracy too far from the 12 MP anchor."""
    correct = attempted = 0
    problems = []
    for p in payloads:
        if int(p.kind) != TEXT_OCR:
            continue
        truth = frames_by_ts[p.frame_ts_ms].gt_words
        spans = [s.text for s in p.spans]
        if len(spans) != len(truth):
            problems.append(f"payload {p.frame_ts_ms}: {len(spans)} spans for {len(truth)} words")
            continue
        for got, want in zip(spans, truth):
            attempted += 1
            if got == want:
                correct += 1
            elif not _one_substitution(got, want):
                problems.append(f"payload {p.frame_ts_ms}: {got!r} is not {want!r} or one character off")
    if attempted:
        share = correct / attempted
        sigma = math.sqrt(MP12_WORD_ACCURACY * (1 - MP12_WORD_ACCURACY) / attempted)
        if abs(share - MP12_WORD_ACCURACY) > ACCURACY_SIGMAS * sigma:
            problems.append(
                f"word accuracy {share:.4f} over {attempted} words is more than "
                f"{ACCURACY_SIGMAS:g} sigma from {MP12_WORD_ACCURACY}"
            )
    return problems


def parse_machine_report(text: str) -> dict:
    header, body = text.splitlines()
    if json.loads(header) != {"format": "wearocr-report", "version": 1}:
        raise ValueError(f"unexpected report header {header!r}")
    return json.loads(body)


# -- grouping -------------------------------------------------------------


def _tokens(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _text(payload) -> str:
    return " ".join(s.text for s in payload.spans)


def _exemplar_key(payload) -> tuple[int, float, int]:
    spans = payload.spans
    chars = sum(len(s.text) for s in spans)
    conf = sum(s.conf for s in spans) / len(spans) if spans else 0.0
    return chars, conf, payload.frame_ts_ms


@dataclass
class _Group:
    members: list[int]
    exemplar: object
    tokens: frozenset
    selection: bool


@dataclass
class Grouper:
    """Greedy grouping fed payloads in ascending timestamp order.

    A text payload joins the first earlier non-selection group whose
    current exemplar it matches at Jaccard >= 0.8; the exemplar is the
    member with the most characters, then the highest mean confidence,
    then the latest timestamp.  Selection payloads stay singletons.
    Because it is online, its state after the payloads up to ``t`` is the
    grouping a live server holds at ``t``.
    """

    groups: list[_Group] = field(default_factory=list)

    def add(self, payload) -> None:
        if int(payload.kind) != TEXT_OCR:
            return
        tokens = _tokens(_text(payload))
        if not payload.selection:
            for g in self.groups:
                if not g.selection and _jaccard(tokens, g.tokens) >= TEXT_THRESHOLD:
                    g.members.append(payload.frame_ts_ms)
                    if _exemplar_key(payload) > _exemplar_key(g.exemplar):
                        g.exemplar, g.tokens = payload, tokens
                    return
        self.groups.append(_Group([payload.frame_ts_ms], payload, tokens, payload.selection))

    def summary(self) -> list[tuple[tuple[int, ...], int, bool]]:
        return [(tuple(g.members), g.exemplar.frame_ts_ms, g.selection) for g in self.groups]


def greedy_groups(payloads) -> list[tuple[tuple[int, ...], int, bool]]:
    grouper = Grouper()
    for p in sorted(payloads, key=lambda p: p.frame_ts_ms):
        grouper.add(p)
    return grouper.summary()


# -- prompts --------------------------------------------------------------


def ocr_lines(prompt_text: str) -> list[str]:
    return [line for line in prompt_text.split("\n") if line.startswith("[OCR ")]


def prompt_structure_ok(query, prompt_text: str) -> bool:
    lines = prompt_text.split("\n")
    mode = query.mode.value
    if mode == "Readout":
        preamble_ok = lines[0] == READOUT_PREAMBLE
    elif mode == "Translation":
        preamble_ok = lines[0] == TRANSLATION_PREAMBLE.format(query.target_lang)
    else:
        preamble_ok = not lines[0].startswith(PREAMBLE_PREFIXES)
    if not preamble_ok or lines[-1] != query.question:
        return False
    stamps = []
    for line in ocr_lines(prompt_text):
        match = _OCR_LINE.match(line)
        if match is None:
            return False
        stamps.append(int(match.group(1)))
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        return False
    return all(query.ts_ms - OCR_WINDOW_MS <= t <= query.ts_ms for t in stamps)


# -- causal context -------------------------------------------------------


def _normalize(text: str) -> str:
    return _WS.sub(" ", _CONTROL.sub("", text)).strip()


def _render(ts: int, text: str, flags: frozenset, selected: bool) -> str:
    names = ",".join(sorted(f.value.lower() for f in flags)) or "none"
    if selected:
        names += ";selected"
    return f"[OCR t={ts}ms flags={names}] {text}"


def _context_lines(entries: list[tuple[int, str, frozenset, bool]]) -> list[str]:
    entries = [(ts, _normalize(text), flags, sel) for ts, text, flags, sel in sorted(entries, key=lambda e: e[0])]
    # Adjacent near-duplicates close in time merge at the later timestamp,
    # keeping the longer text (the earlier one on a tie).
    merged: list[tuple[int, str, frozenset, bool]] = []
    for ts, text, flags, sel in entries:
        if merged:
            pts, ptext, pflags, psel = merged[-1]
            if ts - pts <= CONSOLIDATE_GAP_MS and _jaccard(_tokens(ptext), _tokens(text)) >= TEXT_THRESHOLD:
                longer = ptext if len(ptext) >= len(text) else text
                merged[-1] = (ts, longer, pflags | flags, psel or sel)
                continue
        merged.append((ts, text, flags, sel))
    # Near-duplicates of an earlier kept entry are dropped; selections stay.
    kept: list[tuple[int, str, frozenset, bool]] = []
    for entry in merged:
        if entry[3] or not any(_jaccard(_tokens(entry[1]), _tokens(k[1])) >= TEXT_THRESHOLD for k in kept):
            kept.append(entry)
    return [_render(*e) for e in kept]


def causal_ocr_lines(payloads, queries) -> list[list[str]]:
    """OCR lines each query's prompt would hold on a live server.

    Only payloads with ts <= q exist at q; a group qualifies when its
    latest member so far lies in [q - 30 s, q], its exemplar is chosen
    among those members, and a selection keeps its mark only while it is
    the latest selection so far.  ``queries`` must ascend by timestamp.
    """
    ordered = sorted(payloads, key=lambda p: p.frame_ts_ms)
    grouper = Grouper()
    latest_selection = None
    i = 0
    out = []
    for query in queries:
        while i < len(ordered) and ordered[i].frame_ts_ms <= query.ts_ms:
            grouper.add(ordered[i])
            if ordered[i].selection:
                latest_selection = ordered[i].frame_ts_ms
            i += 1
        lo = query.ts_ms - OCR_WINDOW_MS
        entries = [
            (g.members[-1], _text(g.exemplar), g.exemplar.quality_flags,
             g.selection and g.members[-1] == latest_selection)
            for g in grouper.groups
            if lo <= g.members[-1]
        ]
        out.append(_context_lines(entries))
    return out
