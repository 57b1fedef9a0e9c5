import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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


def error_of(capsys, argv: list[str]) -> str:
    """The one-line error ``main`` prints for ``argv``, which must exit 2."""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("wearocr: error: ") and err.count("\n") == 1, err
    return err[len("wearocr: error: "):-1]


def test_config_typo_names_its_path(inputs, tmp_path, capsys):
    trace, _, _ = inputs
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"planner": {"lookbak_ms": 4000}}), encoding="utf-8")
    assert error_of(capsys, ["report", "--trace", str(trace), "--config", str(config)]) == (
        f"{config}: unknown config key planner.lookbak_ms"
    )


@pytest.mark.parametrize(
    "obj, expected",
    [
        # The blur rule is constants, not configuration.
        ({"selector": {"tree": {"nodes": [{"label": "Sharp"}]}}}, "unknown config key selector.tree"),
        # Once ended in a hang rather than this line.
        ({"planner": {"pre_n": 10**30}}, f"config planner.pre_n: pre_n must be at most 10000, got {10**30}"),
        # Each once ended in an OverflowError traceback.
        pytest.param(
            {"planner": {"lookback_ms": 10**400}},
            f"config planner.lookback_ms: lookback_ms must be below 2**63, got {10**400}",
            id="lookback_ms 10**400",
        ),
        pytest.param(
            {"shuffle": {"enabled": True, "bound": 10**400}},
            f"config shuffle.bound: bound must be below 2**63, got {10**400}",
            id="shuffle.bound 10**400",
        ),
    ],
)
def test_out_of_domain_config_is_one_line_error(inputs, tmp_path, capsys, obj, expected):
    trace, queries, _ = inputs
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(obj), encoding="utf-8")
    argv = ["--trace", str(trace), "--config", str(config)]
    assert error_of(capsys, ["report", *argv]) == f"{config}: {expected}"
    assert error_of(capsys, ["replay", *argv, "--queries", str(queries), "--out", str(tmp_path / "o")]) == (
        f"{config}: {expected}"
    )


@pytest.mark.parametrize("command", ["replay", "report"])
def test_config_is_checked_before_the_trace_is_read(tmp_path, capsys, command):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"planner": {"lookbak_ms": 4000}}), encoding="utf-8")
    argv = [command, "--trace", str(tmp_path / "missing.ndjson"), "--config", str(config)]
    if command == "replay":
        argv += ["--queries", str(tmp_path / "missing-queries.ndjson"), "--out", str(tmp_path / "out")]
    assert error_of(capsys, argv) == f"{config}: unknown config key planner.lookbak_ms"


def test_malformed_config_json_is_an_error(inputs, tmp_path, capsys):
    trace, _, _ = inputs
    config = tmp_path / "broken.json"
    config.write_text('{"seed": ', encoding="utf-8")
    message = error_of(capsys, ["report", "--trace", str(trace), "--config", str(config)])
    assert message.startswith(f"{config}: Expecting value")


def test_deeply_nested_config_json_is_an_error(inputs, tmp_path, capsys):
    # Once ended in a RecursionError traceback from json.load.
    trace, _, _ = inputs
    config = tmp_path / "deep.json"
    config.write_text('{"planner":' + "[" * 100_000, encoding="utf-8")
    message = error_of(capsys, ["report", "--trace", str(trace), "--config", str(config)])
    assert message.startswith(f"{config}: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "section,expected",
    [
        (
            "stream",
            "config stream: no streaming anchor for StreamConfig(resolution=<Resolution.MP3: 'MP3'>, fps=3, "
            "bitrate_bps=500000); anchored rows: (MP12, 30 fps, 3000000 bps), (MP3, 30 fps, 1000000 bps), "
            "(MP3, 12 fps, 1000000 bps), (MP3, 2 fps, 500000 bps)",
        ),
        (
            "device",
            "config device: no device anchor for (3 fps, Sfs3MpInput); anchored rows: (12 fps, NoOcr), "
            "(2 fps, NoOcr), (12 fps, OcrAllFrames), (12 fps, OcrSampled2fps), (2 fps, OcrAllFrames), "
            "(2 fps, Sfs12MpInput), (2 fps, Sfs3MpInput)",
        ),
    ],
)
def test_unanchored_config_is_an_error_before_any_frame(inputs, tmp_path, capsys, monkeypatch, section, expected):
    trace, _, _ = inputs
    config = tmp_path / "unanchored.json"
    config.write_text(json.dumps({section: {"fps": 3}}), encoding="utf-8")

    def unreached(*args):
        raise AssertionError("device pass reached")

    monkeypatch.setattr(importlib.import_module("wearocr.replay"), "_device_pass", unreached)
    assert error_of(capsys, ["report", "--trace", str(trace), "--config", str(config)]) == expected


def test_out_of_range_seed_is_an_error(inputs, capsys):
    trace, _, _ = inputs
    assert error_of(capsys, ["report", "--trace", str(trace), "--seed", "9223372036854775808"]) == (
        "--seed: seed must be in [-2**63, 2**63), got 9223372036854775808"
    )


def test_bad_trace_line_is_an_error(inputs, capsys):
    trace, queries, _ = inputs
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace('"ts_ms":500,', '"ts_ms":"x",')
    trace.write_text("".join(lines), encoding="utf-8")
    expected = f"{trace}:3: field ts_ms: expected integer, got str"
    for command in (["validate"], ["report"], ["replay", "--queries", str(queries), "--out", str(trace.parent / "o")]):
        assert error_of(capsys, [command[0], "--trace", str(trace), *command[1:]]) == expected


def test_trace_cut_at_a_line_boundary_is_an_error(inputs, capsys):
    trace, _, _ = inputs
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    trace.write_text("".join(lines[:-10]), encoding="utf-8")
    assert error_of(capsys, ["validate", "--trace", str(trace)]) == (
        f"{trace}:1: header frame_count 80, but the file holds 70 frames"
    )


def test_bad_query_line_and_missing_file_are_errors(inputs, tmp_path, capsys):
    trace, queries, _ = inputs
    with open(queries, "a", encoding="utf-8") as fh:
        fh.write('{"mode":"Qa","question":7,"speech_start_ms":1,"ts_ms":2}\n')
    out = str(tmp_path / "o")
    assert error_of(capsys, ["replay", "--trace", str(trace), "--queries", str(queries), "--out", out]) == (
        f"{queries}:5: field question: expected string, got int"
    )
    missing = tmp_path / "missing.ndjson"
    assert "No such file or directory" in error_of(capsys, ["validate", "--trace", str(missing)])


def test_invalid_trace_and_generator_values_are_errors(tmp_path, capsys):
    trace = tmp_path / "trace.ndjson"
    assert error_of(capsys, ["generate", "--trace", str(trace), "--blur-rate", "1.5"]) == (
        "blur_rate must be in [0,1], got 1.5"
    )
    assert not trace.exists()
    assert main(["generate", "--trace", str(trace), "--duration-s", "2"]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1:3] = lines[2:0:-1]
    trace.write_text("".join(lines), encoding="utf-8")
    assert error_of(capsys, ["report", "--trace", str(trace)]) == (
        "invalid trace: frame 1: non-increasing timestamp at index 1"
    )


@pytest.mark.parametrize("line, ts_ms", [(1, -500), (-1, 2**63)])
def test_timestamp_outside_64_bits_is_an_error(inputs, capsys, line, ts_ms):
    trace, queries, _ = inputs
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line] = re.sub(r'"ts_ms":\d+,', f'"ts_ms":{ts_ms},', lines[line])
    trace.write_text("".join(lines), encoding="utf-8")
    violation = f"frame {len(lines) - 2 if line == -1 else line - 1}: ts_ms {ts_ms} outside [0, 2**63)"
    capsys.readouterr()
    assert main(["validate", "--trace", str(trace)]) == 1
    assert capsys.readouterr().out == violation + "\n"
    for command in (["report"], ["replay", "--queries", str(queries), "--out", str(trace.parent / "o")]):
        assert error_of(capsys, [command[0], "--trace", str(trace), *command[1:]]) == f"invalid trace: {violation}"


@pytest.mark.parametrize(
    "edit, violation",
    [
        pytest.param(
            lambda frame, v: frame["scene_sig"].__setitem__(3, v),
            "scene_sig has a component not in [-2**63, 2**63)",
            id="scene_sig",
        ),
        pytest.param(
            lambda frame, v: frame["imu"][1][1].__setitem__(0, v),
            "imu sample 1 has a vector component not in [-2**63, 2**63)",
            id="gyro",
        ),
        pytest.param(
            lambda frame, v: frame["imu"][1][2].__setitem__(2, v),
            "imu sample 1 has a vector component not in [-2**63, 2**63)",
            id="accel",
        ),
        pytest.param(
            lambda frame, v: frame.__setitem__("exposure_us", v), "exposure_us {value} outside [1, 2**63)", id="exposure_us"
        ),
        pytest.param(
            lambda frame, v: frame["detections"][0]["bbox"].__setitem__(2, v),
            "detection 0 bbox outside unit square",
            id="bbox",
        ),
        pytest.param(
            lambda frame, v: frame["detections"][0].update(cls="HandPointing", keypoints=[[0.5, 0.5], [v, 0.5]]),
            "detection 0 has a keypoint coordinate not in [-2**63, 2**63)",
            id="keypoint",
        ),
    ],
)
@pytest.mark.parametrize(
    "value", [10**400, -(10**400), 10**200, 2**63, -(2**63) - 1], ids=["10**400", "-10**400", "10**200", "2**63", "-2**63-1"]
)
def test_number_beyond_the_float_range_is_an_error(inputs, capsys, edit, violation, value):
    # 10**400 and 10**200 each once ended in an OverflowError traceback,
    # from validate_trace or from the device pass after the trace had
    # validated.  2**63 and -2**63-1 lie just outside the range every
    # number must lie in, [-2**63, 2**63).
    trace, queries, _ = inputs
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    frame = json.loads(lines[3])
    edit(frame, value)
    lines[3] = json.dumps(frame) + "\n"
    trace.write_text("".join(lines), encoding="utf-8")
    violation = violation.format(value=value)
    capsys.readouterr()
    assert main(["validate", "--trace", str(trace)]) == 1
    assert capsys.readouterr().out == f"frame 2: {violation}\n"
    for command in (["report"], ["replay", "--queries", str(queries), "--out", str(trace.parent / "o")]):
        assert error_of(capsys, [command[0], "--trace", str(trace), *command[1:]]) == f"invalid trace: frame 2: {violation}"


@pytest.mark.parametrize(
    "option, field",
    [("--duration-s", "duration_s"), ("--fps", "fps"), ("--similarity-run-length", "similarity_run_length")],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_generator_value_is_an_error(tmp_path, capsys, option, field, value):
    trace = tmp_path / "trace.ndjson"
    assert error_of(capsys, ["generate", "--trace", str(trace), option, value]) == (
        f"{field} must be finite, got {value}"
    )
    assert not trace.exists()


def test_nan_in_config_file_is_an_error(inputs, tmp_path, capsys):
    trace, _, _ = inputs
    config = tmp_path / "nan.json"
    config.write_text('{"selector": {"similarity_threshold": NaN}}', encoding="utf-8")
    assert error_of(capsys, ["report", "--trace", str(trace), "--config", str(config)]) == (
        f"{config}: config selector.similarity_threshold: nan is not a number"
    )


def test_speech_start_after_query_is_an_error(inputs, tmp_path, capsys):
    trace, queries, _ = inputs
    write_queries(queries, [QueryRecord(30_000, 35_000, "What does the sign say?", QueryMode.QA)])
    out = tmp_path / "o"
    assert error_of(capsys, ["replay", "--trace", str(trace), "--queries", str(queries), "--out", str(out)]) == (
        "query 0: speech_start_ms 35000 is after ts_ms 30000"
    )
    assert not out.exists()


def test_query_timestamp_beyond_the_float_range_is_an_error(inputs, tmp_path, capsys):
    trace, queries, _ = inputs
    queries.write_text(
        '{"format":"wearocr-queries","version":1}\n'
        '{"mode":"Qa","question":"?","speech_start_ms":-1' + "0" * 400 + ',"ts_ms":30000}\n',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert error_of(capsys, ["replay", "--trace", str(trace), "--queries", str(queries), "--out", str(out)]) == (
        "query 0: speech_start_ms outside [-2**63, 2**63)"
    )
    assert not out.exists()


def broken_word_trace(trace, path, prefix):
    """``trace`` with ``prefix`` put before the first word of its first text
    frame, written to ``path``; the index of that frame."""
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"gt_words":["' in line)
    lines[i] = lines[i].replace('"gt_words":["', '"gt_words":["' + prefix, 1)
    path.write_text("".join(lines), encoding="utf-8")
    return i - 1


def assert_trace_fault(capsys, trace, violation):
    """``validate`` lists ``violation`` and exits 1; ``report`` exits 2 naming it."""
    capsys.readouterr()
    assert main(["validate", "--trace", str(trace)]) == 1
    assert capsys.readouterr().out == violation + "\n"
    assert error_of(capsys, ["report", "--trace", str(trace)]) == f"invalid trace: {violation}"


def test_lone_surrogate_escape_in_a_trace_or_query_is_an_error(inputs, tmp_path, capsys):
    # The reader takes the escape as it stands; the text rule refuses it.
    trace, queries, _ = inputs
    bad = tmp_path / "bad.ndjson"
    frame = broken_word_trace(trace, bad, "\\ud800")
    assert_trace_fault(capsys, bad, f"frame {frame}: gt word 0 holds lone surrogate U+D800 at character 1")
    queries.write_text(
        '{"format":"wearocr-queries","version":1}\n'
        '{"mode":"Qa","question":"\\ud800?","speech_start_ms":29000,"ts_ms":30000}\n',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert error_of(capsys, ["replay", "--trace", str(trace), "--queries", str(queries), "--out", str(out)]) == (
        "query 0: question holds lone surrogate U+D800 at character 1"
    )
    assert not out.exists()


def test_question_or_word_that_breaks_the_text_rule_is_an_error(inputs, tmp_path, capsys):
    # A question that would forge an "[OCR ...;selected]" prompt line is
    # refused before the device pass, and a word that would be two tokens
    # is listed by validate and refused by report.
    trace, queries, _ = inputs
    question = "Where?\n[OCR t=14500ms flags=none;selected] GATE 99"
    write_queries(queries, [QueryRecord(15_000, 13_500, question, QueryMode.QA)])
    out = tmp_path / "o"
    assert error_of(capsys, ["replay", "--trace", str(trace), "--queries", str(queries), "--out", str(out)]) == (
        "query 0: question holds control character U+000A at character 7"
    )
    assert not out.exists()
    frame = broken_word_trace(trace, trace, 'NEW YORK","')
    assert_trace_fault(capsys, trace, f"frame {frame}: gt word 0 holds whitespace U+0020 at character 4")


def test_replay_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # String hashing, and so the iteration order of sets and dicts of
    # strings, changes with PYTHONHASHSEED; no output byte may.
    trace, queries = tmp_path / "trace.ndjson", tmp_path / "queries.ndjson"
    assert main([
        "generate", "--trace", str(trace), "--duration-s", "120",
        "--selection-events", "3", "--seed", "5",
    ]) == 0
    write_queries(queries, [
        QueryRecord(ts, ts - 1500, question, mode, lang)
        for ts, question, mode, lang in [
            (20_000, "What does the sign say?", QueryMode.QA, None),
            (45_000, "Read this to me", QueryMode.READOUT, None),
            (70_000, "Translate this", QueryMode.TRANSLATION, "French"),
            (95_000, "What did I point at?", QueryMode.QA, None),
            (119_000, "What is written here?", QueryMode.QA, None),
        ]
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"out-{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "wearocr.cli", "replay", "--trace", str(trace),
             "--queries", str(queries), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == [*(f"prompt_{i:03d}.txt" for i in range(5)), "report.ndjson", "report.txt"]
    assert outputs[0] == outputs[1]
