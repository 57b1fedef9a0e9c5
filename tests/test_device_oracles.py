"""The device path's float arithmetic against its plain-loop form.

Every float on the device path is part of the determinism contract
(README, design notes): a rewrite for speed must return the very same
bits, on every Python.  The oracles below are the straightforward
versions of ``ImuSample.norm6``, ``motion_energy``, the cosine of two
scene signatures (``scene_similarity``, as ``process_frame`` computes
it) and ``process_frame``, each sum an explicit left-to-right ``+=`` loop
from ``0`` (``sum()`` of floats is compensated from Python 3.12 on, so it
is no oracle); the properties compare with ``==`` (plus the sign of zero,
and NaN with NaN), never approximately.  ``is_blurry`` is compared with a
walk of the paper's blur tree as nodes.
"""

import math
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from wearocr.model import Detection, DetectionClass, FrameRecord, ImuSample, Rect, Resolution
from wearocr.selection import (
    VERDICT_TO_KIND,
    SelectionDecision,
    SelectorConfig,
    SelectorState,
    Verdict,
    _cosine,
    is_blurry,
    motion_energy,
    process_frame,
    select_roi,
    signature_norm,
)


def scene_similarity(a, b):
    """Cosine similarity of two scene signatures as ``process_frame``
    computes it; 0.0 when either is all-zero."""
    return _cosine(a, signature_norm(a), b, signature_norm(b))


# -- oracles ----------------------------------------------------------------


def fold_products(a, b):
    """The sum of ``a[i] * b[i]``, added left to right from 0."""
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


def oracle_norm6(sample):
    return math.sqrt(fold_products(sample.gyro, sample.gyro) + fold_products(sample.accel, sample.accel))


def oracle_motion_energy(frame):
    start_us = frame.ts_ms * 1000
    end_us = start_us + frame.exposure_us
    energy = 0.0
    for sample in frame.imu:
        if start_us <= sample.ts_us <= end_us:
            energy = max(energy, oracle_norm6(sample))
    return energy


# The paper's blur tree: an inner node is (feature, threshold, left, right)
# over the features (motion energy, exposure in us as a float), and a leaf
# is its verdict, blurry or not.  A walk goes left when the feature is
# below the threshold.
REFERENCE_TREE = (
    (1, 20000.0, 1, 2),
    (0, 10.0, 3, 4),
    (0, 4.0, 3, 4),
    False,
    True,
)


def oracle_is_blurry(motion, exposure_us):
    features = (motion, float(exposure_us))
    node = REFERENCE_TREE[0]
    while not isinstance(node, bool):
        feature, threshold, left, right = node
        node = REFERENCE_TREE[left if features[feature] < threshold else right]
    return node


def oracle_scene_similarity(a, b):
    if len(a) != len(b):
        raise ValueError(f"scene signature dimension mismatch: {len(a)} vs {len(b)}")
    dot = fold_products(a, b)
    na = math.sqrt(fold_products(a, a))
    nb = math.sqrt(fold_products(b, b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def oracle_process_frame(frame, state, config):
    """The gates with the signature norms recomputed at every test."""

    def reject(verdict, selection=False):
        decision = SelectionDecision(verdict=verdict, roi=None, selection=selection)
        return decision, VERDICT_TO_KIND[verdict]

    if oracle_is_blurry(oracle_motion_energy(frame), frame.exposure_us):
        return reject(Verdict.REJECT_BLUR)
    choice = select_roi(frame.detections)
    if choice is None:
        return reject(Verdict.REJECT_NO_TEXT)
    selected = choice.selection or frame.user_selection
    if not selected and state.last_sig is not None:
        if oracle_scene_similarity(frame.scene_sig, state.last_sig) >= config.similarity_threshold:
            return reject(Verdict.REJECT_SIMILAR)
    while state.window and state.window[0][0] <= frame.ts_ms - config.budget_window_ms:
        state.window.popleft()
    if sum(words for _, words in state.window) >= config.budget_words:
        return reject(Verdict.REJECT_BUDGET, selection=selected)
    state.last_sig = frame.scene_sig
    state.window.append((frame.ts_ms, len(frame.gt_words)))
    decision = SelectionDecision(verdict=Verdict.RUN_OCR, roi=choice.roi, selection=selected)
    return decision, VERDICT_TO_KIND[Verdict.RUN_OCR]


def same(a, b):
    """Identical floats: equal with the same sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return "raised", type(exc)


# -- strategies -------------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e154, 1e308, -1e308)


def floats():
    return st.one_of(
        st.floats(allow_subnormal=True),
        st.sampled_from(EDGE_FLOATS),
        # Magnitudes a few dozen binades apart: their squares round away
        # each other's low bits, so any change in summation order shows.
        st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-30, 30)),
    )


def vectors(min_size=0, max_size=16):
    return st.lists(floats(), min_size=min_size, max_size=max_size).map(tuple)


def vector_pairs():
    return st.integers(0, 16).flatmap(
        lambda n: st.tuples(vectors(n, n), vectors(n, n))
    )


def imu_samples(ts_us=st.integers(-5, 20)):
    return st.builds(ImuSample, ts_us, vectors(3, 3), vectors(3, 3))


# -- properties -------------------------------------------------------------


@given(imu_samples())
@settings(max_examples=300)
def test_norm6_matches_oracle(sample):
    assert same(sample.norm6(), oracle_norm6(sample))


@given(st.lists(imu_samples(), max_size=4), st.integers(0, 15))
@settings(max_examples=200)
def test_blur_features_match_oracle(samples, exposure_us):
    frame = FrameRecord(0, Resolution.MP12, exposure_us, tuple(samples), (), (), ())
    assert same(motion_energy(frame), oracle_motion_energy(frame))


# Each motion limit and values beside it, and the float extremes.
BLUR_MOTIONS = (0.0, 3.999999, 4.0, 4.0000001, 9.99999, 10.0, 10.00001, 1e308, math.inf, math.nan)
# The split and the integers beside it, and exposures that a float cannot hold exactly.
BLUR_EXPOSURES = (1, 19_999, 20_000, 20_001, 2**53 + 1, 2**63 - 1)


def test_is_blurry_matches_the_reference_tree_at_its_boundaries():
    for motion in BLUR_MOTIONS:
        for exposure_us in BLUR_EXPOSURES:
            assert is_blurry(motion, exposure_us) is oracle_is_blurry(motion, exposure_us), (motion, exposure_us)


@given(
    st.one_of(st.sampled_from(BLUR_MOTIONS), floats()),
    st.one_of(st.sampled_from(BLUR_EXPOSURES), st.integers(1, 2**63 - 1)),
)
@settings(max_examples=300)
def test_is_blurry_matches_the_reference_tree(motion, exposure_us):
    assert is_blurry(motion, exposure_us) is oracle_is_blurry(motion, exposure_us)


@given(vector_pairs())
@settings(max_examples=250)
def test_scene_similarity_matches_oracle(pair):
    a, b = pair
    got, want = outcome(scene_similarity, a, b), outcome(oracle_scene_similarity, a, b)
    assert got[0] == want[0]
    if got[0] == "value":
        assert same(got[1], want[1])
    else:
        assert got[1] is want[1]


@given(vectors(max_size=6), vectors(max_size=6))
def test_scene_similarity_dimension_mismatch_matches_oracle(a, b):
    assert outcome(scene_similarity, a, b)[0] == outcome(oracle_scene_similarity, a, b)[0]


TEXT = (Detection(DetectionClass.TEXT_OBJECT, Rect(0.3, 0.3, 0.4, 0.3), 0.9),)


@given(st.data())
@settings(max_examples=200)
def test_process_frame_with_cached_norm_matches_oracle(data):
    # A few signatures revisited in random order, so the similarity gate
    # compares against each stored signature many times; the threshold is
    # often an exact similarity of two of them, where >= decides.
    dim = data.draw(st.integers(1, 8), label="dim")
    pool = data.draw(st.lists(vectors(dim, dim), min_size=1, max_size=4), label="pool")
    picks = data.draw(
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans(), st.integers(0, 4)), max_size=30),
        label="frames",
    )
    exact = [outcome(oracle_scene_similarity, a, b) for a in pool for b in pool]
    exact = [value for tag, value in exact if tag == "value"] or [0.9]
    threshold = data.draw(st.one_of(st.sampled_from(exact), floats()), label="threshold")
    config = SelectorConfig(
        similarity_threshold=threshold,
        budget_words=data.draw(st.integers(0, 12), label="budget"),
        budget_window_ms=2_000,
    )
    state = SelectorState()
    oracle_state = SimpleNamespace(last_sig=None, window=deque())
    for i, (k, selected, n_words) in enumerate(picks):
        frame = FrameRecord(i * 500, Resolution.MP12, 8000, (), TEXT, pool[k], ("w",) * n_words, selected)
        got = outcome(process_frame, frame, state, config)
        want = outcome(oracle_process_frame, frame, oracle_state, config)
        if want[0] == "raised":  # a norm product that underflows to zero
            assert got == want
            return
        assert got[1][:2] == want[1]
        assert state.last_accepted_sig == oracle_state.last_sig
        assert state.window_total == sum(words for _, words in state.window)
