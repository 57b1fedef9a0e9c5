import json
from dataclasses import replace

import pytest

from wearocr.cli import main
from wearocr.model import QueryMode, QueryRecord
from wearocr.replay import SimConfig, emit_report, replay
from wearocr.tracefile import read_trace, write_queries

CONFIG = {"seed": 9, "shuffle": {"enabled": True, "bound": 4}, "planner": {"pre_n": 2}}


@pytest.fixture
def inputs(tmp_path):
    trace = tmp_path / "trace.ndjson"
    queries = tmp_path / "queries.ndjson"
    config = tmp_path / "config.json"
    assert main([
        "generate", "--trace", str(trace), "--duration-s", "40",
        "--selection-events", "2", "--seed", "4",
    ]) == 0
    write_queries(queries, [
        QueryRecord(15_000, 13_500, "What does the sign say?", QueryMode.QA),
        QueryRecord(30_000, 29_000, "Read this to me", QueryMode.READOUT),
        QueryRecord(38_000, 37_000, "Translate this", QueryMode.TRANSLATION, "French"),
    ])
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    return trace, queries, config


def test_generate_validate_replay_report(inputs, tmp_path, capsys):
    trace, queries, config = inputs
    assert main(["validate", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.endswith("ok: 80 frames\n")

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([
            "replay", "--trace", str(trace), "--queries", str(queries),
            "--config", str(config), "--seed", "3", "--out", str(out),
        ]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["prompt_000.txt", "prompt_001.txt", "prompt_002.txt", "report.ndjson", "report.txt"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    capsys.readouterr()
    assert main([
        "report", "--trace", str(trace), "--config", str(config), "--seed", "3",
        "--format", "machine",
    ]) == 0
    printed = capsys.readouterr().out
    # --seed overrides the config file's seed; the rest of the file applies.
    expected_config = replace(SimConfig.from_obj(CONFIG), seed=3)
    _, frames = read_trace(trace)
    assert printed == emit_report(replay(frames, [], expected_config).report, "machine")
    assert json.loads(printed.splitlines()[0]) == {"format": "wearocr-report", "version": 1}


def test_config_typo_names_its_path(inputs, tmp_path):
    trace, _, _ = inputs
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"planner": {"lookbak_ms": 4000}}), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key planner.lookbak_ms"):
        main(["report", "--trace", str(trace), "--config", str(config)])
