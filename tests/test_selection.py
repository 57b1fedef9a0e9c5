import math
import random
from collections import Counter

import pytest

from test_device_oracles import scene_similarity
from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    PayloadKind,
    Rect,
    Resolution,
)
from wearocr.selection import (
    MIN_DETECTION_CONF,
    SelectorConfig,
    SelectorState,
    StageReport,
    Verdict,
    is_blurry,
    motion_energy,
    pct_change,
    process_frame,
    select_roi,
    stage_report_from_counts,
    verdict_report,
)


def frame_with_imu(samples, ts_ms=100, exposure_us=10000, **overrides):
    fields = dict(
        ts_ms=ts_ms,
        resolution=Resolution.MP12,
        exposure_us=exposure_us,
        imu=tuple(samples),
        detections=(),
        scene_sig=(1.0, 0.0, 0.0, 0.0),
        gt_words=(),
        user_selection=False,
    )
    fields.update(overrides)
    return FrameRecord(**fields)


def stage_report(decisions):
    """Oracle for ``verdict_report``: the frames left after each gate,
    counted by filtering the decisions one gate at a time."""
    passed = list(decisions)
    counts = [len(passed)]
    for gate in (Verdict.REJECT_BLUR, Verdict.REJECT_NO_TEXT, Verdict.REJECT_SIMILAR):
        passed = [d for d in passed if d.verdict is not gate]
        counts.append(len(passed))
    return StageReport(*counts, sum(d.verdict is Verdict.REJECT_BUDGET for d in decisions))


class TestBlurFeatures:
    def test_all_zero_imu(self):
        samples = [
            ImuSample(ts_us=100_000 + i, gyro=(0, 0, 0), accel=(0, 0, 0)) for i in range(3)
        ]
        assert motion_energy(frame_with_imu(samples)) == 0.0

    def test_three_four_five_norm(self):
        samples = [ImuSample(ts_us=100_500, gyro=(3, 0, 0), accel=(0, 4, 0))]
        assert motion_energy(frame_with_imu(samples)) == pytest.approx(5.0)

    def test_max_over_window(self):
        # Brute-force oracle: the max of the in-window norms.
        def sample_with_norm(ts_us, norm):
            return ImuSample(ts_us=ts_us, gyro=(norm, 0, 0), accel=(0, 0, 0))

        samples = [
            sample_with_norm(100_000, 2.0),
            sample_with_norm(105_000, 7.5),
            sample_with_norm(109_000, 1.1),
        ]
        expected = max(s.norm6() for s in samples)
        assert motion_energy(frame_with_imu(samples)) == pytest.approx(expected)
        assert expected == 7.5

    def test_samples_outside_window_ignored(self):
        samples = [
            ImuSample(ts_us=99_999, gyro=(50, 0, 0), accel=(0, 0, 0)),
            ImuSample(ts_us=110_001, gyro=(50, 0, 0), accel=(0, 0, 0)),
        ]
        assert motion_energy(frame_with_imu(samples)) == 0.0


class TestClassifyBlur:
    def test_zero_motion_is_sharp(self):
        assert is_blurry(0.0, 5000) is False

    def test_high_motion_long_exposure_is_blurry(self):
        # Exposure 30000 is not below 20000, so the limit is 4.0, and 12.0 >= 4.0.
        assert is_blurry(12.0, 30000) is True

    @pytest.mark.parametrize(
        "exposure_us, motion, blurry",
        [
            # Below the split the limit is 10.0; from it on, 4.0.  Each limit is inclusive.
            (19_999, math.nextafter(4.0, 0.0), False),
            (19_999, 4.0, False),
            (19_999, math.nextafter(10.0, 0.0), False),
            (19_999, 10.0, True),
            (20_000, math.nextafter(4.0, 0.0), False),
            (20_000, 4.0, True),
            (20_000, math.nextafter(10.0, 0.0), True),
            (20_000, 10.0, True),
        ],
    )
    def test_limits_around_the_split(self, exposure_us, motion, blurry):
        assert is_blurry(motion, exposure_us) is blurry


class TestSelectRoi:
    def test_no_detections(self):
        assert select_roi([]) is None

    def test_single_text_object(self):
        box = Rect(0.1, 0.2, 0.4, 0.3)
        det = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=box, conf=0.93)
        choice = select_roi([det])
        assert choice is not None
        assert choice.roi == box
        assert choice.selection is False

    def test_below_threshold_dropped(self):
        det = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0, 0, 0.5, 0.5), conf=0.4)
        assert select_roi([det]) is None

    def test_threshold_is_inclusive(self):
        det = Detection(DetectionClass.TEXT_OBJECT, Rect(0, 0, 0.5, 0.5), MIN_DETECTION_CONF)
        assert select_roi([det]) is not None

    def test_other_hand_interaction_blocks(self):
        dets = [
            Detection(cls=DetectionClass.OTHER_HAND_INTERACTION, bbox=Rect(0, 0, 0.9, 0.9), conf=0.99),
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.1, 0.1, 0.2, 0.2), conf=0.8),
        ]
        assert select_roi(dets) is None

    def test_pointing_selects_nearest_box_on_ray(self):
        near = Rect(0.6, 0.45, 0.2, 0.1)
        far = Rect(0.85, 0.45, 0.1, 0.1)
        pointing = Detection(
            cls=DetectionClass.HAND_POINTING,
            bbox=Rect(0.4, 0.4, 0.2, 0.2),
            conf=0.9,
            keypoints=((0.45, 0.5), (0.5, 0.5)),
        )
        dets = [
            pointing,
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=far, conf=0.8),
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=near, conf=0.8),
        ]
        # Brute-force oracle: march along the ray from the tip and take
        # the first box containing a sample point.
        tip, base = (0.5, 0.5), (0.45, 0.5)
        direction = (tip[0] - base[0], tip[1] - base[1])
        hit = None
        for step in range(1, 20001):
            t = step / 10000.0
            p = (tip[0] + t * direction[0], tip[1] + t * direction[1])
            for box in (near, far):
                if box.x <= p[0] <= box.x + box.w and box.y <= p[1] <= box.y + box.h:
                    hit = box
                    break
            if hit:
                break
        assert hit == near

        choice = select_roi(dets)
        assert choice is not None
        assert choice.roi == near
        assert choice.selection is True

    def test_box_behind_tip_ignored(self):
        behind = Rect(0.1, 0.45, 0.1, 0.1)
        pointing = Detection(
            cls=DetectionClass.HAND_POINTING,
            bbox=Rect(0.4, 0.4, 0.2, 0.2),
            conf=0.9,
            keypoints=((0.45, 0.5), (0.5, 0.5)),
        )
        dets = [pointing, Detection(cls=DetectionClass.TEXT_OBJECT, bbox=behind, conf=0.8)]
        assert select_roi(dets) is None

    def test_pointing_without_keypoints_degrades(self):
        pointing = Detection(
            cls=DetectionClass.HAND_POINTING, bbox=Rect(0.4, 0.4, 0.2, 0.2), conf=0.9
        )
        assert select_roi([pointing]) is None

    @pytest.mark.parametrize("keypoints", [(), ((0.5, 0.5),)], ids=["0", "1"])
    def test_pointing_with_fewer_than_2_keypoints(self, keypoints):
        # Without a finger ray the detection counts as OtherHandInteraction,
        # so the text box beside it is not taken either.
        pointing = Detection(DetectionClass.HAND_POINTING, Rect(0.4, 0.4, 0.2, 0.2), 0.9, keypoints)
        text = Detection(DetectionClass.TEXT_OBJECT, Rect(0.6, 0.45, 0.2, 0.1), 0.8)
        assert select_roi([pointing, text]) is None

    def test_holding_requires_overlapping_text(self):
        holding = Detection(cls=DetectionClass.HAND_HOLDING, bbox=Rect(0.3, 0.3, 0.3, 0.3), conf=0.95)
        text_inside = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.35, 0.35, 0.1, 0.1), conf=0.6)
        text_outside = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.8, 0.8, 0.1, 0.1), conf=0.6)
        with_text = select_roi([holding, text_inside])
        assert with_text is not None and with_text.roi == holding.bbox
        assert with_text.selection is False
        assert select_roi([holding, text_outside]) is None

    def test_confidence_tie_breaks_on_area_then_order(self):
        small = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0, 0, 0.1, 0.1), conf=0.8)
        big = Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.2, 0.2, 0.5, 0.5), conf=0.8)
        choice = select_roi([small, big])
        assert choice is not None and choice.roi == big.bbox


class TestSceneSimilarity:
    def test_identical_vectors(self):
        v = (0.3, 0.4, 1.0, 0.0)
        assert scene_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert scene_similarity((1, 0, 0), (0, 1, 0)) == pytest.approx(0.0)

    def test_hand_computed_cosine(self):
        a = (1.0, 1.0) + (0.0,) * 14
        b = (1.0, 0.0) + (0.0,) * 15
        assert scene_similarity(a, b[:16]) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_gives_zero(self):
        assert scene_similarity((0.0, 0.0), (1.0, 1.0)) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            scene_similarity((1.0,), (1.0, 2.0))


def sharp_text_frame(ts_ms, sig, words=("gate", "b12"), user_selection=False):
    return FrameRecord(
        ts_ms=ts_ms,
        resolution=Resolution.MP12,
        exposure_us=8000,
        imu=(),
        detections=(
            Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.3, 0.3, 0.4, 0.3), conf=0.9),
        ),
        scene_sig=sig,
        gt_words=words,
        user_selection=user_selection,
    )


SIG_A = (1.0, 0.0, 0.0, 0.0)
SIG_B = (0.0, 1.0, 0.0, 0.0)


class TestProcessFrame:
    def test_first_text_frame_accepted(self):
        decision, kind, _ = process_frame(
            sharp_text_frame(100, SIG_A), SelectorState(), SelectorConfig()
        )
        assert decision.verdict is Verdict.RUN_OCR
        assert kind is PayloadKind.TEXT_OCR
        assert decision.roi is not None

    def test_similar_scene_rejected(self):
        state = SelectorState()
        config = SelectorConfig()
        process_frame(sharp_text_frame(100, SIG_A), state, config)
        decision, kind, _ = process_frame(sharp_text_frame(600, SIG_A), state, config)
        assert decision.verdict is Verdict.REJECT_SIMILAR
        assert kind is PayloadKind.SIMILAR_SCENE

    def test_user_selection_overrides_similarity(self):
        state = SelectorState()
        config = SelectorConfig()
        process_frame(sharp_text_frame(100, SIG_A), state, config)
        decision, _, _ = process_frame(
            sharp_text_frame(600, SIG_A, user_selection=True), state, config
        )
        assert decision.verdict is Verdict.RUN_OCR

    def test_blurry_frame_rejected_first(self):
        frame = FrameRecord(
            ts_ms=100,
            resolution=Resolution.MP12,
            exposure_us=8000,
            imu=(ImuSample(ts_us=100_000, gyro=(30.0, 0, 0), accel=(0, 0, 0)),),
            detections=(
                Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.3, 0.3, 0.4, 0.3), conf=0.9),
            ),
            scene_sig=SIG_A,
            gt_words=("x",),
            user_selection=False,
        )
        decision, kind, _ = process_frame(frame, SelectorState(), SelectorConfig())
        assert decision.verdict is Verdict.REJECT_BLUR
        assert kind is PayloadKind.BLURRY

    def test_no_text_rejected(self):
        frame = FrameRecord(
            ts_ms=100, resolution=Resolution.MP12, exposure_us=8000, imu=(),
            detections=(), scene_sig=SIG_A, gt_words=(), user_selection=False,
        )
        decision, kind, _ = process_frame(frame, SelectorState(), SelectorConfig())
        assert decision.verdict is Verdict.REJECT_NO_TEXT
        assert kind is PayloadKind.NO_TEXT

    def test_budget_rejects_after_cap(self):
        config = SelectorConfig(budget_words=10, budget_window_ms=10_000)
        state = SelectorState()
        sigs = [tuple(1.0 if i == k else 0.0 for i in range(4)) for k in range(4)]
        verdicts = []
        for k in range(4):
            frame = sharp_text_frame(100 + 200 * k, sigs[k], words=("w",) * 6)
            decision, _, state = process_frame(frame, state, config)
            verdicts.append(decision.verdict)
        assert verdicts[0] is Verdict.RUN_OCR
        assert verdicts[1] is Verdict.RUN_OCR  # window at 6 < 10 when checked
        assert verdicts[2] is Verdict.REJECT_BUDGET
        assert verdicts[3] is Verdict.REJECT_BUDGET

    def test_budget_soundness_sliding_window(self):
        budget, window = 30, 5_000
        config = SelectorConfig(budget_words=budget, budget_window_ms=window)
        state = SelectorState()
        rng = random.Random(7)
        accepted = []
        max_words = 0
        for i in range(400):
            words = rng.randint(1, 12)
            max_words = max(max_words, words)
            sig = tuple(rng.uniform(-1, 1) for _ in range(4))
            frame = sharp_text_frame(i * 137, sig, words=("w",) * words)
            decision, _, state = process_frame(frame, state, config)
            if decision.verdict is Verdict.RUN_OCR:
                accepted.append((frame.ts_ms, words))
        for ts, _ in accepted:
            in_window = sum(w for t, w in accepted if ts - window < t <= ts)
            assert in_window <= budget + max_words

    def test_determinism(self):
        rng = random.Random(3)
        frames = [
            sharp_text_frame(i * 500, tuple(rng.uniform(-1, 1) for _ in range(4)))
            for i in range(50)
        ]

        def run():
            state = SelectorState()
            config = SelectorConfig()
            out = []
            for frame in frames:
                decision, _, state = process_frame(frame, state, config)
                out.append(decision)
            return out

        assert run() == run()


class TestStageReport:
    def test_published_counts(self):
        report = stage_report_from_counts(37_400_000, 36_630_000, 23_130_000, 12_090_000)
        assert report.cumulative_pct_change() == (-2.0, -38.1, -67.7)

    def test_all_accepted(self):
        report = stage_report_from_counts(500, 500, 500, 500)
        assert report.cumulative_pct_change() == (0.0, 0.0, 0.0)

    def test_hand_computed_counts(self):
        report = stage_report_from_counts(1000, 900, 500, 250)
        assert report.cumulative_pct_change() == (-10.0, -50.0, -75.0)

    def test_counts_from_decisions_are_monotone(self):
        rng = random.Random(11)
        state = SelectorState()
        config = SelectorConfig()
        decisions = []
        for i in range(300):
            blurry = rng.random() < 0.1
            has_text = rng.random() < 0.6
            sig = SIG_A if rng.random() < 0.5 else tuple(rng.uniform(-1, 1) for _ in range(4))
            imu = (
                (ImuSample(ts_us=i * 500_000, gyro=(30.0, 0, 0), accel=(0, 0, 0)),)
                if blurry
                else ()
            )
            dets = (
                (Detection(cls=DetectionClass.TEXT_OBJECT, bbox=Rect(0.3, 0.3, 0.4, 0.3), conf=0.9),)
                if has_text
                else ()
            )
            frame = FrameRecord(
                ts_ms=i * 500, resolution=Resolution.MP12, exposure_us=8000,
                imu=imu, detections=dets, scene_sig=sig,
                gt_words=("w",) if has_text else (), user_selection=False,
            )
            decision, _, state = process_frame(frame, state, config)
            decisions.append(decision)
        report = stage_report(decisions)
        assert verdict_report(Counter(d.verdict for d in decisions)) == report
        assert (
            report.input_count
            >= report.after_blur
            >= report.after_text
            >= report.after_similarity
            >= report.accepted
            >= 0
        )

    def test_pct_change_zero_base(self):
        assert pct_change(0, 0) == 0.0
