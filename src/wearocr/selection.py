"""On-device smart frame selection.

A four-gate pipeline run per frame, in order: blur filter (IMU motion
energy against a limit set by the exposure time: the paper's decision
tree of depth 2), ROI/text gate (which detection, if any, yields a text
region), scene-similarity filter against the last accepted frame, and a
rolling OCR word budget.  The first gate that rejects wins; explicit
user selection (or a pointing-derived one) bypasses the similarity gate
so selected text is always fresh.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_DOWN, Decimal
from enum import Enum
from functools import reduce
from operator import add, mul
from typing import Mapping, Sequence

from .model import Detection, DetectionClass, FrameRecord, PayloadKind, Rect


class Verdict(str, Enum):
    RUN_OCR = "RunOcr"
    REJECT_BLUR = "RejectBlur"
    REJECT_NO_TEXT = "RejectNoText"
    REJECT_SIMILAR = "RejectSimilar"
    REJECT_BUDGET = "RejectBudget"


VERDICT_TO_KIND = {
    Verdict.RUN_OCR: PayloadKind.TEXT_OCR,
    Verdict.REJECT_NO_TEXT: PayloadKind.NO_TEXT,
    Verdict.REJECT_SIMILAR: PayloadKind.SIMILAR_SCENE,
    Verdict.REJECT_BLUR: PayloadKind.BLURRY,
    Verdict.REJECT_BUDGET: PayloadKind.RESOURCE_CONSTRAINT,
}


# The paper's blur tree, of depth 2: below EXPOSURE_SPLIT_US of exposure
# a frame is blurry from motion energy MOTION_LIMIT_SHORT on, otherwise
# from MOTION_LIMIT_LONG on.
EXPOSURE_SPLIT_US = 20_000
MOTION_LIMIT_SHORT = 10.0
MOTION_LIMIT_LONG = 4.0


def is_blurry(motion: float, exposure_us: int) -> bool:
    """Whether a frame with this motion energy and exposure is blurry.

    The test is the tree's branch test: only ``motion < limit`` leads to
    sharp, so a NaN motion is blurry.
    """
    limit = MOTION_LIMIT_SHORT if exposure_us < EXPOSURE_SPLIT_US else MOTION_LIMIT_LONG
    return not motion < limit


def motion_energy(frame: FrameRecord) -> float:
    """Worst-case 6-dof IMU norm over the frame's exposure window.

    The window is [capture start, start + exposure]; capture start is
    the frame timestamp.  Zero motion when no sample falls inside.
    """
    start_us = frame.ts_ms * 1000
    end_us = start_us + frame.exposure_us
    energy = 0.0
    for sample in frame.imu:
        if start_us <= sample.ts_us <= end_us:
            norm = sample.norm6()
            if norm > energy:
                energy = norm
    return energy


def signature_norm(v: Sequence[float]) -> float:
    """Euclidean norm of a scene signature, summed left to right in
    component order: the same bits on every Python, as ``sum()`` gave
    before 3.12 made it compensated."""
    return math.sqrt(reduce(add, map(mul, v, v), 0))


def _cosine(a: Sequence[float], na: float, b: Sequence[float], nb: float) -> float:
    """Cosine similarity of ``a`` and ``b`` given their norms ``na`` and ``nb``;
    0.0 when either vector is all-zero."""
    if len(a) != len(b):
        raise ValueError(f"scene signature dimension mismatch: {len(a)} vs {len(b)}")
    if na == 0.0 or nb == 0.0:
        return 0.0
    return reduce(add, map(mul, a, b), 0) / (na * nb)


@dataclass(frozen=True, slots=True)
class RoiChoice:
    roi: Rect
    selection: bool


def _ray_rect_entry(origin: tuple[float, float], direction: tuple[float, float], rect: Rect) -> float | None:
    """Parameter t >= 0 where the ray origin + t*direction enters rect, or None."""
    t_min, t_max = 0.0, math.inf
    for o, d, lo, hi in (
        (origin[0], direction[0], rect.x, rect.x + rect.w),
        (origin[1], direction[1], rect.y, rect.y + rect.h),
    ):
        if abs(d) < 1e-12:
            if not lo <= o <= hi:
                return None
            continue
        t0, t1 = (lo - o) / d, (hi - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_min, t_max = max(t_min, t0), min(t_max, t1)
    if t_min > t_max:
        return None
    return t_min


# Minimum detection confidence for the ROI gate, the same for every class.
MIN_DETECTION_CONF = 0.5


def select_roi(detections: Sequence[Detection]) -> RoiChoice | None:
    """Pick the primary text region from a frame's detections.

    Detections below ``MIN_DETECTION_CONF`` are dropped.  The surviving
    highest-confidence detection drives the outcome:

    * TextObject: its own bbox, not a selection.
    * HandPointing: the nearest TextObject bbox hit by the finger ray
      (second-to-last keypoint through the tip), marked as a selection.
      With fewer than two keypoints there is no ray, and the detection
      counts as OtherHandInteraction.
    * HandHolding: the held bbox, but only when some TextObject overlaps
      it; a held object without text yields nothing.
    * OtherHandInteraction, or no survivor: nothing.

    Ties on confidence go to the larger bbox, then to earlier list order.
    """
    survivors = [d for d in detections if d.conf >= MIN_DETECTION_CONF]
    if not survivors:
        return None
    winner = min(
        enumerate(survivors),
        key=lambda item: (-item[1].conf, -item[1].bbox.area(), item[0]),
    )[1]

    cls = winner.cls
    if cls is DetectionClass.HAND_POINTING and (
        winner.keypoints is None or len(winner.keypoints) < 2
    ):
        cls = DetectionClass.OTHER_HAND_INTERACTION

    if cls is DetectionClass.OTHER_HAND_INTERACTION:
        return None
    if cls is DetectionClass.TEXT_OBJECT:
        return RoiChoice(roi=winner.bbox, selection=False)

    text_boxes = [
        d for d in survivors if d.cls is DetectionClass.TEXT_OBJECT and d is not winner
    ]
    if cls is DetectionClass.HAND_HOLDING:
        if any(t.bbox.intersects(winner.bbox) for t in text_boxes):
            return RoiChoice(roi=winner.bbox, selection=False)
        return None

    # HandPointing: cast the finger ray from the tip onward and take the
    # first TextObject it enters; boxes behind the tip are ignored.
    assert winner.keypoints is not None
    base, tip = winner.keypoints[-2], winner.keypoints[-1]
    direction = (tip[0] - base[0], tip[1] - base[1])
    if abs(direction[0]) < 1e-12 and abs(direction[1]) < 1e-12:
        return None
    best: tuple[float, Rect] | None = None
    for t in text_boxes:
        entry = _ray_rect_entry(tip, direction, t.bbox)
        if entry is not None and (best is None or entry < best[0]):
            best = (entry, t.bbox)
    if best is None:
        return None
    return RoiChoice(roi=best[1], selection=True)


@dataclass(frozen=True, slots=True)
class SelectionDecision:
    verdict: Verdict
    roi: Rect | None
    selection: bool


def _rejection(verdict: Verdict, selection: bool = False) -> tuple[SelectionDecision, PayloadKind]:
    return SelectionDecision(verdict, None, selection), VERDICT_TO_KIND[verdict]


# A rejection carries nothing of its frame, so all frames rejected by one
# gate share one immutable decision (the budget gate keeps the mark).
_REJECT_BLUR = _rejection(Verdict.REJECT_BLUR)
_REJECT_NO_TEXT = _rejection(Verdict.REJECT_NO_TEXT)
_REJECT_SIMILAR = _rejection(Verdict.REJECT_SIMILAR)
_REJECT_BUDGET = (_rejection(Verdict.REJECT_BUDGET), _rejection(Verdict.REJECT_BUDGET, True))


@dataclass(frozen=True)
class SelectorConfig:
    similarity_threshold: float = 0.9
    budget_words: int = 300
    budget_window_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.budget_words < 0:
            raise ValueError(f"budget_words must be non-negative, got {self.budget_words}")
        if self.budget_window_ms < 1:
            raise ValueError(f"budget_window_ms must be at least 1, got {self.budget_window_ms}")


@dataclass
class SelectorState:
    last_accepted_sig: tuple[float, ...] | None = None
    # signature_norm(last_accepted_sig): each similarity test then sums
    # only the new frame's squares.
    last_accepted_norm: float = 0.0
    # (ts_ms, word count) of accepted frames inside the budget window,
    # and the sum of those word counts.
    window: deque = field(default_factory=deque)
    window_total: int = 0

    def window_words(self, now_ms: int, window_ms: int) -> int:
        while self.window and self.window[0][0] <= now_ms - window_ms:
            self.window_total -= self.window.popleft()[1]
        return self.window_total

    def add_words(self, ts_ms: int, words: int) -> None:
        self.window.append((ts_ms, words))
        self.window_total += words


def process_frame(
    frame: FrameRecord, state: SelectorState, config: SelectorConfig
) -> tuple[SelectionDecision, PayloadKind, SelectorState]:
    """Run the gate pipeline on one frame, mutating and returning the state.

    Frames must be presented in trace order; the state is single-writer.
    """
    if is_blurry(motion_energy(frame), frame.exposure_us):
        return (*_REJECT_BLUR, state)

    # select_roi(()) is None: a frame without detections skips the search.
    choice = select_roi(frame.detections) if frame.detections else None
    if choice is None:
        return (*_REJECT_NO_TEXT, state)
    selected = choice.selection or frame.user_selection

    sig = frame.scene_sig
    norm = None
    if not selected and state.last_accepted_sig is not None:
        norm = signature_norm(sig)
        sim = _cosine(sig, norm, state.last_accepted_sig, state.last_accepted_norm)
        if sim >= config.similarity_threshold:
            return (*_REJECT_SIMILAR, state)

    if state.window_words(frame.ts_ms, config.budget_window_ms) >= config.budget_words:
        return (*_REJECT_BUDGET[selected], state)

    state.last_accepted_sig = sig
    state.last_accepted_norm = signature_norm(sig) if norm is None else norm
    state.add_words(frame.ts_ms, len(frame.gt_words))
    return SelectionDecision(Verdict.RUN_OCR, choice.roi, selected), PayloadKind.TEXT_OCR, state


@dataclass(frozen=True)
class StageReport:
    input_count: int
    after_blur: int
    after_text: int
    after_similarity: int
    budget_rejected: int

    @property
    def accepted(self) -> int:
        return self.after_similarity - self.budget_rejected

    def cumulative_pct_change(self) -> tuple[float, float, float]:
        return (
            pct_change(self.after_blur, self.input_count),
            pct_change(self.after_text, self.input_count),
            pct_change(self.after_similarity, self.input_count),
        )


def pct_change(count: int, base: int) -> float:
    """Percent change of ``count`` vs ``base``, reported at one decimal.

    Two-step quantization: the raw percentage is cut at the second
    decimal before rounding half-down to one, so a reduction only rounds
    up when its second decimal digit reaches 6.
    """
    if base == 0:
        return 0.0
    raw = Decimal(count - base) * 100 / Decimal(base)
    cut = raw.quantize(Decimal("0.01"), rounding=ROUND_DOWN)
    return float(cut.quantize(Decimal("0.1"), rounding=ROUND_HALF_DOWN))


def verdict_report(verdicts: Mapping[Verdict, int]) -> StageReport:
    """Surviving frame counts after each gate, budget rejections aside,
    from the number of frames given each verdict.

    A verdict missing from ``verdicts`` must read as 0, as in a ``Counter``.
    """
    n = sum(verdicts.values())
    blur = verdicts[Verdict.REJECT_BLUR]
    no_text = verdicts[Verdict.REJECT_NO_TEXT]
    similar = verdicts[Verdict.REJECT_SIMILAR]
    budget = verdicts[Verdict.REJECT_BUDGET]
    return StageReport(
        input_count=n,
        after_blur=n - blur,
        after_text=n - blur - no_text,
        after_similarity=n - blur - no_text - similar,
        budget_rejected=budget,
    )


def stage_report_from_counts(
    input_count: int, after_blur: int, after_text: int, after_similarity: int,
    budget_rejected: int = 0,
) -> StageReport:
    return StageReport(input_count, after_blur, after_text, after_similarity, budget_rejected)
