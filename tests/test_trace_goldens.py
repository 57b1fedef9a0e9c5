"""Trace-file goldens: the exact bytes the trace and query writers produce.

A writer change must keep every byte: replays, benchmarks and diffs of
trace files all depend on it.  The device-shaped trace is pinned by its
SHA-256 and line count; the short trace and query file, which carry
selections, keypoints, signed zeros, subnormals, infinities, escaped and
non-ASCII text, are pinned in full.  So is a trace that breaks each value
rule the reader leaves to ``validate_trace``, and what ``wearocr validate``
prints for it.

Regenerate after an intended format change with
``PYTHONPATH=src python tests/test_trace_goldens.py``.
"""

import contextlib
import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

from wearocr.cli import main
from wearocr.model import (
    Detection,
    DetectionClass,
    FrameRecord,
    ImuSample,
    QueryMode,
    QueryRecord,
    Rect,
)
from wearocr.tracefile import (
    TraceSpec,
    generate_frames,
    read_queries,
    read_trace,
    write_generated_trace,
    write_queries,
    write_trace,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
DEVICE_GOLDEN = GOLDEN_DIR / "trace_device-600s.json"
SHORT_TRACE_GOLDEN = GOLDEN_DIR / "trace_short.ndjson"
SHORT_QUERIES_GOLDEN = GOLDEN_DIR / "queries_short.ndjson"
INVALID_TRACE_GOLDEN = GOLDEN_DIR / "invalid_trace.ndjson"
INVALID_VALIDATE_GOLDEN = GOLDEN_DIR / "invalid_trace_validate.txt"

# device-5h's trace shape, cut to ten minutes.
DEVICE_SPEC = TraceSpec(
    duration_s=600, fps=2, text_density=0.1, blur_rate=0.1, similarity_run_length=20, seed=1
)


def short_frames() -> list[FrameRecord]:
    frames = generate_frames(
        TraceSpec(
            duration_s=10,
            fps=2,
            text_density=0.632,
            blur_rate=0.02,
            similarity_run_length=1.912,
            selection_events=3,
            seed=5,
        )
    )
    frames[1] = replace(
        frames[1],
        detections=(
            Detection(DetectionClass.HAND_POINTING, Rect(0.1, 0.1, 0.2, 0.2), 0.8, ((0.1, 0.2), (0.3, 0.4))),
            Detection(DetectionClass.HAND_HOLDING, Rect(0.5, 0.5, 0.2, 0.2), 0.7),
        ),
    )
    frames[2] = replace(
        frames[2],
        scene_sig=(-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e16, 1e22, float("inf"), -float("inf"))
        + frames[2].scene_sig[9:],
        gt_words=("Straße", 'say"hi"', "back\\slash", "東京", "\U0001d538lpha", "soft\u00adhyphen"),
    )
    return frames


def short_queries() -> list[QueryRecord]:
    return [
        QueryRecord(1_000, 500, "What gate?", QueryMode.QA),
        QueryRecord(2_000, 1_500, "Traduis ça \"vite\"", QueryMode.TRANSLATION, "Español"),
        QueryRecord(3_000, 2_500, "Read the \U0001d538 sign", QueryMode.READOUT),
    ]


def invalid_frames() -> list[FrameRecord]:
    """Eight generated frames, six of them each breaking one rule: a word
    with a space, an escaped lone surrogate, a 2-component gyro, a
    1-coordinate keypoint, a NaN signature component and a timestamp
    out of order.  The reader takes back every one of them."""
    spec = TraceSpec(duration_s=4, fps=2, text_density=1.0, blur_rate=0.0, similarity_run_length=1.0, seed=5)
    frames = generate_frames(spec)
    frames[1] = replace(frames[1], gt_words=("NEW YORK",) + frames[1].gt_words)
    frames[2] = replace(frames[2], gt_words=frames[2].gt_words + ("gate\ud800",))
    first, sample, last = frames[3].imu
    frames[3] = replace(frames[3], imu=(first, ImuSample(sample.ts_us, sample.gyro[:2], sample.accel), last))
    pointing = Detection(DetectionClass.HAND_POINTING, Rect(0.1, 0.1, 0.2, 0.2), 0.8, ((0.1, 0.2), (0.3,)))
    frames[4] = replace(frames[4], detections=frames[4].detections + (pointing,))
    frames[5] = replace(frames[5], scene_sig=frames[5].scene_sig[:3] + (math.nan,) + frames[5].scene_sig[4:])
    frames[6] = replace(frames[6], ts_ms=frames[4].ts_ms)
    return frames


def write_short_trace(path: Path) -> None:
    write_trace(path, short_frames(), stats={"seed": 5, "note": "ünïcode", "rate": 0.1 + 0.2})


def device_trace_digest() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        write_generated_trace(path, DEVICE_SPEC)
        data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}


def test_device_trace_matches_golden():
    assert device_trace_digest() == json.loads(DEVICE_GOLDEN.read_text(encoding="utf-8"))


def test_short_trace_and_queries_match_goldens(tmp_path):
    trace, queries = tmp_path / "trace.ndjson", tmp_path / "queries.ndjson"
    write_short_trace(trace)
    write_queries(queries, short_queries())
    assert trace.read_bytes() == SHORT_TRACE_GOLDEN.read_bytes()
    assert queries.read_bytes() == SHORT_QUERIES_GOLDEN.read_bytes()


def test_invalid_trace_matches_its_recipe_and_reads_back(tmp_path):
    write_trace(tmp_path / "trace.ndjson", invalid_frames())
    assert (tmp_path / "trace.ndjson").read_bytes() == INVALID_TRACE_GOLDEN.read_bytes()
    assert repr(read_trace(INVALID_TRACE_GOLDEN)[1]) == repr(invalid_frames())


def test_validate_lists_every_fault_of_the_invalid_trace(capsys):
    assert main(["validate", "--trace", str(INVALID_TRACE_GOLDEN)]) == 1
    printed = capsys.readouterr().out
    assert printed == INVALID_VALIDATE_GOLDEN.read_text(encoding="utf-8")
    assert [line.split(":")[0] for line in printed.splitlines()] == [f"frame {i}" for i in range(1, 7)]
    assert main(["report", "--trace", str(INVALID_TRACE_GOLDEN)]) == 2
    assert capsys.readouterr().err == f"wearocr: error: invalid trace: {printed.splitlines()[0]}\n"


def test_goldens_read_back():
    _, frames = read_trace(SHORT_TRACE_GOLDEN)
    assert frames == short_frames()
    assert read_queries(SHORT_QUERIES_GOLDEN) == short_queries()


if __name__ == "__main__":
    write_short_trace(SHORT_TRACE_GOLDEN)
    write_queries(SHORT_QUERIES_GOLDEN, short_queries())
    DEVICE_GOLDEN.write_text(json.dumps(device_trace_digest()) + "\n", encoding="utf-8")
    write_trace(INVALID_TRACE_GOLDEN, invalid_frames())
    with open(INVALID_VALIDATE_GOLDEN, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        main(["validate", "--trace", str(INVALID_TRACE_GOLDEN)])
