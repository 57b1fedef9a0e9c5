import gc
import json
import types
from dataclasses import replace

import pytest

import wearocr.replay as replay_module
from wearocr.enrich import EnrichmentPipeline
from wearocr.model import FrameRecord, QueryMode, QueryRecord, Resolution
from wearocr.replay import ReplayError, ShuffleConfig, SimConfig, emit_report, replay
from wearocr.selection import REFERENCE_TREE_CONFIG, SelectorConfig
from wearocr.tracefile import TraceSpec, generate_frames, read_queries, read_trace, write_queries, write_trace
from wearocr import wire


def make_frames(seed=5, duration_s=60):
    return generate_frames(
        TraceSpec(
            duration_s=duration_s,
            fps=2,
            text_density=0.632,
            blur_rate=0.02,
            similarity_run_length=1.912,
            selection_events=1,
            seed=seed,
        )
    )


def make_queries():
    return [
        QueryRecord(20_000, 18_500, "What does the sign say?", QueryMode.QA),
        QueryRecord(45_000, 44_000, "Read this to me", QueryMode.READOUT),
    ]


def test_submodule_import_yields_the_module():
    assert isinstance(replay_module, types.ModuleType)
    assert replay_module.SimConfig is SimConfig


class TestReplay:
    def test_deterministic_end_to_end(self):
        frames, queries = make_frames(), make_queries()
        a = replay(frames, queries, SimConfig(seed=3))
        b = replay(frames, queries, SimConfig(seed=3))
        assert a.report == b.report
        assert [p.text for p in a.prompts] == [p.text for p in b.prompts]

    def test_conservation_of_frames(self):
        result = replay(make_frames(), make_queries())
        stage = result.report.stage
        rejected = (
            (stage.input_count - stage.after_blur)
            + (stage.after_blur - stage.after_text)
            + (stage.after_text - stage.after_similarity)
            + stage.budget_rejected
        )
        assert stage.accepted + rejected == stage.input_count
        assert stage.accepted + stage.budget_rejected == stage.after_similarity

    def test_every_frame_produces_a_payload(self):
        frames = make_frames()
        result = replay(frames, [])
        assert len(result.timeline.payloads()) == len(frames)

    def test_shuffled_delivery_same_prompts(self):
        frames, queries = make_frames(), make_queries()
        plain = replay(frames, queries, SimConfig(seed=3))
        shuffled = replay(
            frames, queries, SimConfig(seed=3, shuffle=ShuffleConfig(enabled=True, bound=8))
        )
        assert [p.text for p in shuffled.prompts] == [p.text for p in plain.prompts]
        assert shuffled.report.fidelity == plain.report.fidelity

    def test_uplink_accounts_stream_and_payloads(self):
        frames = make_frames()
        result = replay(frames, [])
        ledger = result.report.ledger
        duration_ms = frames[-1].ts_ms + 1
        assert ledger.video_bits == 500_000 * duration_ms / 1000
        # SessionStart + VideoSegment + one payload per frame + SessionEnd.
        assert ledger.message_count == len(frames) + 3
        assert ledger.payload_bits > 0

    def test_power_uses_configured_rows(self):
        result = replay(make_frames(), [])
        assert result.report.power.stream_multiplier == 0.49
        assert 0.91 <= result.report.power.device_multiplier <= 0.96

    def test_invalid_trace_rejected(self):
        frames = make_frames()
        bad = [frames[1], frames[0]]
        with pytest.raises(ReplayError, match="invalid trace"):
            replay(bad, [])

    @pytest.mark.parametrize("index, ts_ms", [(0, -500), (-1, 2**63)])
    def test_timestamp_outside_64_bits_rejected(self, index, ts_ms):
        frames = make_frames(duration_s=30)
        frames[index] = replace(frames[index], ts_ms=ts_ms)
        frame = len(frames) - 1 if index == -1 else index
        with pytest.raises(ReplayError, match=rf"invalid trace: frame {frame}: ts_ms {ts_ms} outside \[0, 2\*\*63\)"):
            replay(frames, [])

    def test_last_timestamp_below_2_63_replays(self):
        frames = make_frames(duration_s=30)
        shift = 2**63 - 1 - frames[-1].ts_ms
        frames = [replace(f, ts_ms=f.ts_ms + shift) for f in frames]
        query = QueryRecord(2**63 - 1, 2**63 - 2_001, "What does the sign say?", QueryMode.QA)
        result = replay(frames, [query])
        assert result.report.stage.accepted > 0
        assert result.report.ledger.message_count == len(frames) + 3

    def test_speech_start_after_query_rejected(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("device pass reached")

        monkeypatch.setattr(replay_module, "_device_pass", unreached)
        queries = [*make_queries(), QueryRecord(30_000, 45_000, "What does the sign say?", QueryMode.QA)]
        with pytest.raises(ReplayError, match="query 2: speech_start_ms 45000 is after ts_ms 30000"):
            replay(make_frames(), queries)

    def test_enrichment_hook_reaches_prompts(self):
        frames, queries = make_frames(), make_queries()
        pipeline = EnrichmentPipeline()
        pipeline.register(
            "upper", lambda es: [replace(e, text=e.text.upper()) for e in es]
        )
        enriched = replay(frames, queries, SimConfig(seed=3), enrichment=pipeline)
        plain = replay(frames, queries, SimConfig(seed=3))
        assert any(
            e.text != p.text for e, p in zip(enriched.prompts, plain.prompts)
        )

    def test_encodes_each_message_once(self, monkeypatch):
        calls = []
        encode = wire.encode
        monkeypatch.setattr(wire, "encode", lambda msg: calls.append(msg) or encode(msg))
        result = replay(make_frames(duration_s=10), [])
        assert len(calls) == result.report.ledger.message_count

    def test_lost_payload_rejected(self, monkeypatch):
        device_pass = replay_module._device_pass

        def drop_last(*args):
            decisions, payloads = device_pass(*args)
            return decisions, payloads[:-1]

        monkeypatch.setattr(replay_module, "_device_pass", drop_last)
        with pytest.raises(ReplayError, match="19 payloads for 20 frames"):
            replay(make_frames(duration_s=10), [])

    def test_uncounted_message_rejected(self, monkeypatch):
        account = wire.account

        def skip_session_end(ledger, msg, frame=None):
            if isinstance(msg.body, wire.SessionEnd):
                return ledger
            return account(ledger, msg, frame)

        monkeypatch.setattr(wire, "account", skip_session_end)
        with pytest.raises(ReplayError, match="ledger holds 22 messages, expected 23"):
            replay(make_frames(duration_s=10), [])

    def test_empty_trace_and_queries(self):
        result = replay([], [])
        assert result.report.stage.input_count == 0
        assert result.report.fidelity is None
        assert result.prompts == ()


def test_pipeline_leaves_no_reference_cycles(tmp_path):
    """What the paused collector would have found: nothing.

    Generate, write, read and replay build only acyclic values, so a
    collection after the result is dropped frees no object.
    """
    spec = TraceSpec(60, 2, 0.632, 0.02, 1.912, selection_events=3, seed=5)
    trace, queries = tmp_path / "trace.ndjson", tmp_path / "queries.ndjson"
    pipeline = EnrichmentPipeline()
    pipeline.register("upper", lambda es: [replace(e, text=e.text.upper()) for e in es])
    config = SimConfig(seed=3, shuffle=ShuffleConfig(enabled=True, bound=8))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        write_trace(trace, generate_frames(spec))
        write_queries(queries, make_queries())
        _, frames = read_trace(trace)
        result = replay(frames, read_queries(queries), config, enrichment=pipeline)
        assert result.prompts and sum(f.user_selection for f in frames) == 3
        del result, frames
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_enrichment_hooks_run_with_the_collector_paused():
    seen = []
    pipeline = EnrichmentPipeline()
    pipeline.register("probe", lambda es: seen.append(gc.isenabled()) or es)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        replay(make_frames(duration_s=30), make_queries()[:1], enrichment=pipeline)
        assert gc.isenabled()
    finally:
        if not was_enabled:
            gc.disable()
    assert seen == [False]


class TestSimConfig:
    def test_from_obj_round_trip_fields(self):
        config = SimConfig.from_obj(
            {
                "ocr_resolution": "MP3",
                "seed": 9,
                "stream": {"resolution": "MP12", "fps": 30, "bitrate_bps": 3_000_000},
                "device": {"fps": 12, "ocr_mode": "NoOcr"},
                "planner": {"pre_n": 2},
                "shuffle": {"enabled": True, "bound": 4},
            }
        )
        assert config.ocr_resolution is Resolution.MP3
        assert config.seed == 9
        assert config.stream.fps == 30
        assert config.device.fps == 12
        assert config.planner.pre_n == 2
        assert config.shuffle.enabled and config.shuffle.bound == 4

    def test_defaults(self):
        config = SimConfig.from_obj({})
        assert config.ocr_resolution is Resolution.MP12
        assert config.stream.bitrate_bps == 500_000
        assert config == SimConfig()
        assert SimConfig.from_obj({"planner": {}, "shuffle": {}, "selector": {}}) == SimConfig()

    def test_partial_section_keeps_defaults(self):
        config = SimConfig.from_obj({"stream": {"resolution": "MP3"}, "text_similarity_threshold": 1})
        assert config.stream == SimConfig().stream
        assert config.text_similarity_threshold == 1

    def test_selector_keys_applied(self):
        config = SimConfig.from_obj({"selector": {"budget_words": 40, "tree": REFERENCE_TREE_CONFIG}})
        assert config.selector.budget_words == 40
        assert config.selector.tree == SelectorConfig().tree

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"sede": 1}, "unknown config key sede"),
            ({"planner": {"lookbak_ms": 1}}, "unknown config key planner.lookbak_ms"),
            ({"shuffle": {"enabled": True, "bond": 4}}, "unknown config key shuffle.bond"),
            ({"selector": {"blur_stage_ms": 1.0}}, "unknown config key selector.blur_stage_ms"),
            ({"stream": 5}, "config stream must be an object"),
            ([], "config root must be an object"),
            ({"seed": "x"}, "config seed: 'x' is not of type int"),
            ({"seed": True}, "config seed: True is not of type int"),
            ({"seed": 1.5}, "config seed: 1.5 is not of type int"),
            ({"text_similarity_threshold": "0.8"}, "config text_similarity_threshold: '0.8'"),
            ({"shuffle": {"enabled": 1}}, "config shuffle.enabled: 1 is not of type bool"),
            ({"shuffle": {"bound": -3}}, "config shuffle.bound: bound must be at least 1"),
            ({"planner": {"hist_n": -1}}, "config planner.hist_n: .*non-negative"),
            ({"device": {"ocr_mode": "bogus"}}, "config device.ocr_mode: 'bogus'"),
            ({"stream": {"resolution": "MP7"}}, "config stream.resolution: 'MP7'"),
            ({"selector": {"tree": {"nodes": []}}}, "config selector.tree: nodes"),
            (
                {"selector": {"tree": {"nodes": [{"feature": "exposure_us", "left": 0, "right": 0}]}}},
                r"config selector.tree: nodes\[0\].threshold: None is not a number",
            ),
            ({"seed": 2**63}, r"config seed: seed must be in \[-2\*\*63, 2\*\*63\)"),
            ({"seed": -(2**63) - 1}, "config seed: seed must be in"),
            ({"stream": {"bitrate_bps": 0}}, "config stream.bitrate_bps: bitrate_bps must be at least 1"),
            ({"stream": {"fps": 0}}, "config stream.fps: fps must be at least 1"),
            ({"session_id": -1}, r"config session_id: session_id must be in \[0, 2\*\*64\)"),
            ({"session_id": 2**64}, "config session_id: session_id must be in"),
            ({"planner": {"ocr_window_ms": 0}}, "config planner.ocr_window_ms: ocr_window_ms must be at least 1"),
            ({"planner": {"lookback_ms": -1}}, "config planner.lookback_ms: lookback_ms must be non-negative"),
            ({"selector": {"budget_window_ms": 0}}, "config selector.budget_window_ms: budget_window_ms must be at least 1"),
            ({"selector": {"budget_window_ms": -5}}, "config selector.budget_window_ms: budget_window_ms must be at least 1"),
            ({"selector": {"budget_words": -1}}, "config selector.budget_words: budget_words must be non-negative"),
            ({"text_similarity_threshold": float("nan")}, "config text_similarity_threshold: nan is not a number"),
            ({"selector": {"similarity_threshold": float("nan")}}, "config selector.similarity_threshold: nan is not a number"),
            (
                {"selector": {"tree": {"nodes": [
                    {"feature": "exposure_us", "threshold": float("nan"), "left": 1, "right": 1}, {"label": "Sharp"},
                ]}}},
                r"config selector.tree: nodes\[0\].threshold: nan is not a number",
            ),
        ],
    )
    def test_unknown_or_malformed_key_rejected(self, obj, message):
        with pytest.raises(ValueError, match=message):
            SimConfig.from_obj(obj)

    def test_domain_bounds_accepted(self):
        config = SimConfig.from_obj({
            "planner": {"ocr_window_ms": 1, "lookback_ms": 0},
            "selector": {"budget_window_ms": 1, "budget_words": 0},
        })
        assert (config.planner.ocr_window_ms, config.planner.lookback_ms) == (1, 0)
        assert (config.selector.budget_window_ms, config.selector.budget_words) == (1, 0)
        result = replay(make_frames(duration_s=5), make_queries()[:1], config)
        assert result.report.stage.accepted == 0

    def test_integer_range_bounds_accepted(self):
        stream = SimConfig.from_obj({"stream": {"fps": 1, "bitrate_bps": 1}}).stream
        assert (stream.fps, stream.bitrate_bps) == (1, 1)
        for seed, session_id in ((-(2**63), 0), (2**63 - 1, 2**64 - 1)):
            config = SimConfig.from_obj({"seed": seed, "session_id": session_id})
            result = replay(make_frames(duration_s=5), make_queries()[:1], config)
            assert result.report.ledger.message_count == 13


class TestEmitReport:
    def test_byte_stable(self):
        frames, queries = make_frames(), make_queries()
        a = replay(frames, queries).report
        b = replay(frames, queries).report
        for fmt in ("human", "machine"):
            assert emit_report(a, fmt) == emit_report(b, fmt)

    def test_machine_format_parses(self):
        report = replay(make_frames(), make_queries()).report
        lines = emit_report(report, "machine").splitlines()
        header, body = json.loads(lines[0]), json.loads(lines[1])
        assert header == {"format": "wearocr-report", "version": 1}
        assert body["stage_counts"]["camera_stream"] == report.stage.input_count
        assert body["power"]["stream_multiplier"] == 0.49
        assert len(body["prompt_digests"]) == 2

    def test_human_format_mentions_stages(self):
        text = emit_report(replay(make_frames(), make_queries()).report, "human")
        for needle in (
            "Camera stream",
            "After Blur Filter",
            "After Text Content Filter",
            "After Similarity Filter",
            "Text fidelity",
        ):
            assert needle in text

    def test_unknown_format_rejected(self):
        report = replay([], []).report
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, "yaml")
