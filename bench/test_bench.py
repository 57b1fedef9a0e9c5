"""Tests of the benchmark itself, on tiny traces.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import layers
import run

M, _ = run.load_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

from wearocr.model import OcrPayload, PayloadKind, QueryMode, QueryRecord, Rect, TextSpan  # noqa: E402
from wearocr.osm import SessionTimeline  # noqa: E402
from wearocr.prompt import FramePlan, build_prompt  # noqa: E402


def text_payload(ts: int, text: str) -> OcrPayload:
    spans = tuple(TextSpan(word, Rect(0.1, 0.1, 0.1, 0.1), 0.9) for word in text.split())
    return OcrPayload(kind=PayloadKind.TEXT_OCR, frame_ts_ms=ts, spans=spans)


def tiny_inputs(seed: int, m):
    """Two minutes of revisited scenes, two selections, a query every 2 s."""
    spec = m.tracefile.TraceSpec(duration_s=120, selection_events=2, seed=seed, **run.CLI_DEFAULTS)
    frames = run.revisit(m.tracefile.generate_frames(spec), run.REVISIT_RATE, random.Random(seed))
    modes = [QueryMode.QA, QueryMode.READOUT, QueryMode.TRANSLATION]
    queries = [
        QueryRecord(ts, ts - 1500, "What does it say?", modes[k % 3], "French" if k % 3 == 2 else None)
        for k, ts in enumerate(range(2_250, 120_000, 2_000))
    ]
    return frames, queries, {"seed": seed, "shuffle": {"enabled": True}}


def test_causal_check_flags_future_member():
    # The same text at 10 s and 30 s, a query at 20 s: a live server holds
    # only the 10 s payload, which lies in the query's 30 s window.
    payloads = [text_payload(10_000, "exit gate b12"), text_payload(30_000, "exit gate b12")]
    query = QueryRecord(20_000, 19_000, "What does the sign say?", QueryMode.QA)
    timeline = SessionTimeline()
    for p in payloads:
        timeline.ingest(p)
    entries = timeline.build_ocr_context(query, checks.OCR_WINDOW_MS)
    _, prompt = build_prompt(query, FramePlan((), (), ()), entries)

    assert checks.causal_ocr_lines(payloads, [query]) == [["[OCR t=10000ms flags=none] exit gate b12"]]
    assert checks.ocr_lines(prompt) != checks.causal_ocr_lines(payloads, [query])[0]


def test_selection_recount_flags_one_planted_verdict():
    frames, queries, config = tiny_inputs(3, M)
    result = M.replay.replay(frames, queries, M.replay.SimConfig.from_obj(config))
    stages = checks.parse_machine_report(M.replay.emit_report(result.report, "machine"))["stage_counts"]
    kinds = {p.frame_ts_ms: int(p.kind) for p in result.timeline.payloads()}
    assert checks.selection_check(frames, kinds, stages) == ([], [])

    planted = next(i for i, f in enumerate(frames) if kinds[f.ts_ms] == checks.TEXT_OCR)
    kinds[frames[planted].ts_ms] = checks.SIMILAR_SCENE
    failed, _ = checks.selection_check(frames, kinds, stages)
    assert failed == [planted]


def test_wrappers_restore_every_patched_name():
    tracer = layers.Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.targets()]
    assert len(originals) == len({(id(o), a) for o, a, _ in originals})
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("leave the block early")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_counts_match_untraced_outputs(tmp_path: Path):
    workload = run.Workload(tiny_inputs, causal_check=True)
    traced = run.measure(workload, 5, 0.0, True, M, 0.0, tmp_path)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}

    frames, queries, config = tiny_inputs(5, M)
    result = M.replay.replay(frames, queries, M.replay.SimConfig.from_obj(config))
    metric = {name: v["value"] for name, v in traced["metrics"].items()}
    assert metric["selection.frames"] == len(frames)
    assert metric["selection.accepted"] == result.report.stage.accepted
    assert metric["wire.messages"] == result.report.ledger.message_count
    assert metric["wire.encode_calls"] == 2 * result.report.ledger.message_count
    assert metric["osm.groups"] == len(result.timeline.groups())
    assert metric["prompt.bytes"] == sum(len(p.text.encode("utf-8")) for p in result.prompts)
    assert metric["osm.merges"] > 0


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path: Path):
    workload = run.Workload(tiny_inputs, causal_check=True)
    first = run.measure(workload, 5, 0.0, False, M, 0.0, tmp_path)
    again = run.measure(workload, 5, 0.0, False, M, 0.0, tmp_path)
    assert first["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
