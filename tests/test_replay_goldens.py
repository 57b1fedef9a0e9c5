"""Replay goldens: machine and human reports of seeded 2-min traces.

A refactor must keep both reports byte-identical; the machine report
carries every prompt's digest, so prompts are pinned too.  The cases are
chosen so that server grouping, ``consolidate`` and ``dedup_prompt_ocr``
each change something on the way to a prompt.  One more case, a
two-frame trace at the similarity gate's threshold, pins the device
path's float sums through the CLI on every Python.

Regenerate after an intended behaviour change with
``PYTHONPATH=src python tests/test_replay_goldens.py``.
"""

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import wearocr.replay as replay_module
from wearocr.cli import main
from wearocr.model import Detection, DetectionClass, FrameRecord, ImuSample, QueryMode, QueryRecord, Rect, Resolution
from wearocr.replay import ReplayResult, ShuffleConfig, SimConfig, emit_report, replay
from wearocr.tracefile import TraceSpec, generate_frames, write_trace

GOLDEN_DIR = Path(__file__).parent / "goldens"
MODES = (QueryMode.QA, QueryMode.READOUT, QueryMode.TRANSLATION)


def two_minute_trace(seed: int, selection_events: int = 0) -> list[FrameRecord]:
    return generate_frames(
        TraceSpec(
            duration_s=120,
            fps=2,
            text_density=0.632,
            blur_rate=0.02,
            similarity_run_length=1.912,
            selection_events=selection_events,
            seed=seed,
        )
    )


def revisit(frames: list[FrameRecord], rng: random.Random) -> list[FrameRecord]:
    """Give 70 % of newly opened scenes the words of one of the last three."""
    originals: list[tuple[str, ...]] = []
    words_of: dict[tuple[float, ...], tuple[str, ...]] = {}
    out = []
    for frame in frames:
        if not frame.gt_words:
            out.append(frame)
            continue
        words = words_of.get(frame.scene_sig)
        if words is None:
            words = frame.gt_words
            if originals and rng.random() < 0.7:
                words = rng.choice(originals[-3:])
            else:
                originals.append(words)
            words_of[frame.scene_sig] = words
        out.append(replace(frame, gt_words=words))
    return out


def queries(step_ms: int) -> list[QueryRecord]:
    out = []
    for i, ts in enumerate(range(step_ms, 120_001, step_ms)):
        mode = MODES[i % len(MODES)]
        lang = "French" if mode is QueryMode.TRANSLATION else None
        out.append(QueryRecord(ts, ts - 1500, "What does the sign say?", mode, lang))
    return out


def case_inputs(name: str) -> tuple[list[FrameRecord], list[QueryRecord], SimConfig]:
    """The frames, queries and config of a case named ``<kind>-s<seed>``."""
    kind, seed_text = name.rsplit("-s", 1)
    seed = int(seed_text)
    if kind == "selections":
        frames = two_minute_trace(seed, selection_events=3)
        return frames, queries(10_000), SimConfig(seed=seed, shuffle=ShuffleConfig(enabled=True))
    frames = revisit(two_minute_trace(seed), random.Random(seed))
    return frames, queries(2_000), SimConfig(seed=seed)


def run_case(name: str) -> ReplayResult:
    return replay(*case_inputs(name))


CASES = ("selections-s2", "revisit-s4", "revisit-s6")
FORMATS = {"machine": "ndjson", "human": "txt"}


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"replay_{name}.{FORMATS[fmt]}"


@pytest.mark.parametrize("name", CASES)
def test_reports_match_goldens(name):
    report = run_case(name).report
    for fmt in FORMATS:
        assert emit_report(report, fmt) == golden_path(name, fmt).read_text(encoding="utf-8")


def test_cases_exercise_server_dedup(monkeypatch):
    counts: Counter[str] = Counter()

    def shrink_counter(key, fn):
        def wrapper(entries, *args, **kwargs):
            out = fn(entries, *args, **kwargs)
            counts[key] += len(entries) - len(out)
            return out

        return wrapper

    monkeypatch.setattr(
        replay_module, "consolidate", shrink_counter("consolidated", replay_module.consolidate)
    )
    monkeypatch.setattr(
        replay_module, "dedup_prompt_ocr", shrink_counter("deduped", replay_module.dedup_prompt_ocr)
    )
    for name in CASES:
        groups = run_case(name).timeline.groups()
        counts["grouped"] += sum(len(g.members) - 1 for g in groups)
    assert counts["grouped"] > 0
    assert counts["consolidated"] > 0
    assert counts["deduped"] > 0


def test_report_does_not_depend_on_query_order():
    # Queries were once answered in input order, so a group's fidelity
    # source was the first prompt in the file to show it: reversed, this
    # case recovered 348 tokens, and 347 in order.
    frames = revisit(two_minute_trace(11), random.Random(11))
    in_order = queries(2_000)
    shuffled = in_order.copy()
    random.Random(11).shuffle(shuffled)
    base = replay(frames, in_order, SimConfig(seed=11))
    texts = {p.query.ts_ms: p.text for p in base.prompts}
    for order in (in_order[::-1], shuffled):
        result = replay(frames, order, SimConfig(seed=11))
        report = result.report
        assert (report.fidelity, report.tokens_recovered, report.tokens_total) == (
            base.report.fidelity,
            base.report.tokens_recovered,
            base.report.tokens_total,
        )
        assert [p.query for p in result.prompts] == order
        assert {p.query.ts_ms: p.text for p in result.prompts} == texts
        assert sorted(report.prompt_digests) == sorted(base.report.prompt_digests)


# Two sharp text frames 500 ms apart whose scene cosine is
# 0.9983009499075854 when each sum is added left to right, as the device
# path does on every Python, and 0.9983009499075857 with the compensated
# ``sum()`` of Python 3.12+.  The config's threshold is the latter, so the
# second frame passes the similarity gate only under the first rule.
BOUNDARY_TRACE = GOLDEN_DIR / "boundary_trace.ndjson"
BOUNDARY_CONFIG = GOLDEN_DIR / "boundary_config.json"
BOUNDARY_REPORT = GOLDEN_DIR / "boundary_report.ndjson"
BOUNDARY_SETTINGS = {"selector": {"similarity_threshold": 0.9983009499075857}}


def boundary_frames() -> list[FrameRecord]:
    rng = random.Random(11)
    a = [rng.uniform(-1, 1) for _ in range(16)]
    b = [x + rng.uniform(-0.05, 0.05) for x in a]
    text = (Detection(DetectionClass.TEXT_OBJECT, Rect(0.3, 0.3, 0.4, 0.3), 0.9),)

    def frame(ts_ms: int, sig: list[float], words: tuple[str, ...]) -> FrameRecord:
        imu = tuple(ImuSample(ts_ms * 1000 + offset, (0.1, 0.0, 0.0), (0.0, 0.0, 0.05)) for offset in (0, 2666, 5333))
        return FrameRecord(ts_ms, Resolution.MP12, 8000, imu, text, tuple(sig), words)

    return [frame(0, a, ("exit", "gate")), frame(500, b, ("exit", "gate", "north"))]


def test_boundary_trace_matches_its_recipe(tmp_path):
    write_trace(tmp_path / "trace.ndjson", boundary_frames())
    assert (tmp_path / "trace.ndjson").read_bytes() == BOUNDARY_TRACE.read_bytes()
    assert json.loads(BOUNDARY_CONFIG.read_text(encoding="utf-8")) == BOUNDARY_SETTINGS


def test_boundary_report_is_the_same_on_every_python(capsys):
    argv = ["report", "--trace", str(BOUNDARY_TRACE), "--config", str(BOUNDARY_CONFIG), "--format", "machine"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == BOUNDARY_REPORT.read_text(encoding="utf-8")
    assert json.loads(printed.splitlines()[1])["stage_counts"]["after_similarity_filter"] == 2


if __name__ == "__main__":
    for name in CASES:
        report = run_case(name).report
        for fmt in FORMATS:
            golden_path(name, fmt).write_text(emit_report(report, fmt), encoding="utf-8")
    write_trace(BOUNDARY_TRACE, boundary_frames())
    BOUNDARY_CONFIG.write_text(json.dumps(BOUNDARY_SETTINGS) + "\n", encoding="utf-8")
    config = SimConfig.from_obj(BOUNDARY_SETTINGS)
    BOUNDARY_REPORT.write_text(emit_report(replay(boundary_frames(), [], config).report, "machine"), encoding="utf-8")
