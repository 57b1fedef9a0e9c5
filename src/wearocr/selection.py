"""On-device smart frame selection.

A four-gate pipeline run per frame, in order: blur filter (IMU motion
energy + exposure, decision tree), ROI/text gate (which detection, if
any, yields a text region), scene-similarity filter against the last
accepted frame, and a rolling OCR word budget.  The first gate that
rejects wins; explicit user selection (or a pointing-derived one)
bypasses the similarity gate so selected text is always fresh.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, ROUND_HALF_DOWN, Decimal
from enum import Enum
from operator import mul
from typing import Mapping, Sequence

from .model import Detection, DetectionClass, FrameRecord, PayloadKind, Rect

log = logging.getLogger(__name__)

FEATURE_MOTION_ENERGY = 0
FEATURE_EXPOSURE_US = 1
_FEATURE_NAMES = {"motion_energy": FEATURE_MOTION_ENERGY, "exposure_us": FEATURE_EXPOSURE_US}


class BlurLabel(str, Enum):
    SHARP = "Sharp"
    BLURRY = "Blurry"


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


class TreeConfigError(ValueError):
    """Malformed decision-tree configuration; raised at load, never at classify."""


@dataclass(frozen=True, slots=True)
class BlurFeatures:
    motion_energy: float
    exposure_us: int


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (label set)."""

    feature_index: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    label: BlurLabel | None = None


@dataclass(frozen=True)
class DecisionTree:
    nodes: tuple[TreeNode, ...]
    root: int = 0

    def classify(self, features: BlurFeatures) -> BlurLabel:
        values = (features.motion_energy, float(features.exposure_us))
        nodes = self.nodes
        node = nodes[self.root]
        while node.label is None:
            node = nodes[node.left if values[node.feature_index] < node.threshold else node.right]
        return node.label


def load_tree(obj: Mapping) -> DecisionTree:
    """Build and validate a DecisionTree from its config mapping.

    Raises TreeConfigError naming the path to the offending node on any
    structural problem: bad feature or threshold, dangling child, or a cycle.
    """
    raw_nodes = obj.get("nodes") if isinstance(obj, Mapping) else None
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise TreeConfigError("nodes: must be a non-empty list")
    nodes: list[TreeNode] = []
    for i, raw in enumerate(raw_nodes):
        path = f"nodes[{i}]"
        if not isinstance(raw, Mapping):
            raise TreeConfigError(f"{path}: must be an object")
        if "label" in raw:
            try:
                nodes.append(TreeNode(label=BlurLabel(raw["label"])))
            except ValueError:
                raise TreeConfigError(f"{path}: unknown label {raw['label']!r}") from None
            continue
        feature = raw.get("feature")
        if feature not in _FEATURE_NAMES:
            raise TreeConfigError(f"{path}: unknown feature {feature!r}")
        left, right = raw.get("left"), raw.get("right")
        for side, child in (("left", left), ("right", right)):
            if type(child) is not int or not 0 <= child < len(raw_nodes):
                raise TreeConfigError(f"{path}.{side}: child index {child!r} out of range")
        threshold = raw.get("threshold")
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) or math.isnan(threshold):
            raise TreeConfigError(f"{path}.threshold: {threshold!r} is not a number")
        nodes.append(
            TreeNode(
                feature_index=_FEATURE_NAMES[feature],
                threshold=float(threshold),
                left=left,
                right=right,
            )
        )
    root = obj.get("root", 0)
    if type(root) is not int or not 0 <= root < len(nodes):
        raise TreeConfigError(f"root: index {root!r} out of range")

    # Every walk from the root must terminate at a leaf: reject cycles.
    def check(index: int, path: str, on_path: frozenset[int]) -> None:
        if index in on_path:
            raise TreeConfigError(f"{path}: cycle through node {index}")
        node = nodes[index]
        if node.label is not None:
            return
        check(node.left, f"{path}.left", on_path | {index})
        check(node.right, f"{path}.right", on_path | {index})

    check(root, f"nodes[{root}]", frozenset())
    return DecisionTree(nodes=tuple(nodes), root=root)


# Shipped reference tree: long exposures tolerate little motion, short
# exposures a lot more.  Thresholds are configuration, not code.
REFERENCE_TREE_CONFIG = {
    "root": 0,
    "nodes": [
        {"feature": "exposure_us", "threshold": 20000, "left": 1, "right": 2},
        {"feature": "motion_energy", "threshold": 10.0, "left": 3, "right": 4},
        {"feature": "motion_energy", "threshold": 4.0, "left": 3, "right": 4},
        {"label": "Sharp"},
        {"label": "Blurry"},
    ],
}


def reference_tree() -> DecisionTree:
    return load_tree(REFERENCE_TREE_CONFIG)


def blur_features(frame: FrameRecord) -> BlurFeatures:
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
    return BlurFeatures(energy, frame.exposure_us)


def signature_norm(v: Sequence[float]) -> float:
    """Euclidean norm of a scene signature, summed in component order."""
    return math.sqrt(sum(map(mul, v, v)))


def _cosine(a: Sequence[float], na: float, b: Sequence[float], nb: float) -> float:
    """Cosine similarity of ``a`` and ``b`` given their norms ``na`` and ``nb``;
    0.0 when either vector is all-zero."""
    if len(a) != len(b):
        raise ValueError(f"scene signature dimension mismatch: {len(a)} vs {len(b)}")
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(map(mul, a, b)) / (na * nb)


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


def select_roi(
    detections: Sequence[Detection],
    thresholds: Mapping[DetectionClass, float],
) -> RoiChoice | None:
    """Pick the primary text region from a frame's detections.

    Detections below their class confidence threshold are dropped.  The
    surviving highest-confidence detection drives the outcome:

    * TextObject: its own bbox, not a selection.
    * HandPointing: the nearest TextObject bbox hit by the finger ray
      (second-to-last keypoint through the tip), marked as a selection.
    * HandHolding: the held bbox, but only when some TextObject overlaps
      it; a held object without text yields nothing.
    * OtherHandInteraction, or no survivor: nothing.

    Ties on confidence go to the larger bbox, then to earlier list order.
    """
    survivors = [d for d in detections if d.conf >= thresholds.get(d.cls, 0.5)]
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
        log.warning("HandPointing detection with <2 keypoints; treating as OtherHandInteraction")
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

# Minimum detection confidence per class for the ROI gate.
CLASS_THRESHOLDS = {c: 0.5 for c in DetectionClass}


@dataclass(frozen=True)
class SelectorConfig:
    tree: DecisionTree = reference_tree()
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
    if config.tree.classify(blur_features(frame)) is BlurLabel.BLURRY:
        return (*_REJECT_BLUR, state)

    choice = select_roi(frame.detections, CLASS_THRESHOLDS)
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


def stage_report(decisions: Sequence[SelectionDecision]) -> StageReport:
    """Surviving frame counts after each gate, budget rejections aside."""
    n = len(decisions)
    verdicts = Counter(d.verdict for d in decisions)
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
