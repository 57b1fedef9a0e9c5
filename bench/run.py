"""Benchmark of the wearocr pipeline on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload device-5h --seed 1 --seconds 30 --trace 0

One process per run, single-threaded.  The run builds its inputs from the
seed (at least three times and for at least three seconds; the median
counts), then repeats whole passes of what ``wearocr replay`` does until
``--seconds`` have passed, at least three: read the trace and query
NDJSON, ``replay()``, render both report formats and every prompt.  After
the timed passes the outputs of the last pass are checked by
``checks.py``.  Untraced runs time each set-up and pass between two runs
of a fixed pure-Python probe and report times at the probe's reference
speed, because a shared host's speed drifts by up to 2x within minutes
(``host_probe``).  Progress goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (``layers.py``) with ``--trace 1``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0  # repeat the cheap set-ups more, for a steadier median
MIN_PASSES = 3
UNTRACED_PASSES = 2  # per traced run, the base of trace.overhead_s
P90_MIN_SAMPLES = 100
PROBE_ITEMS = 20_000
# Seconds the probe takes at the reference host speed; end-to-end times
# are reported at that speed (see host_probe and README, Noise).
PROBE_REFERENCE_S = 0.4

# `wearocr generate` defaults, the settings of the ROADMAP baseline trace.
CLI_DEFAULTS = {"fps": 2.0, "text_density": 0.632, "blur_rate": 0.02, "similarity_run_length": 1.912}
# revisit-qa's frames and query times do not follow --seed: its failed-query
# count (see README) must be the same in every run.
REVISIT_TRACE_SEED = 2026
REVISIT_RATE = 0.7
QA_QUESTIONS = ("What does the sign say?", "Which gate is it?", "Where is the exit?", "What is the price?")
LANGUAGES = ("French", "German", "Japanese", "Spanish")


def load_program() -> tuple[SimpleNamespace, float]:
    """Import wearocr from this checkout's ``src``; seconds spent importing."""
    src = ROOT / "src"
    if not (src / "wearocr" / "__init__.py").is_file():
        sys.exit(f"bench: no wearocr sources under {src}")
    sys.path.insert(0, str(src))
    program = SimpleNamespace(
        tracefile=importlib.import_module("wearocr.tracefile"),
        # The package re-exports the replay *function* as ``wearocr.replay``.
        replay=importlib.import_module("wearocr.replay"),
        model=importlib.import_module("wearocr.model"),
    )
    return program, time.perf_counter() - _PROCESS_T0


# -- workloads ------------------------------------------------------------


def device_5h(seed: int, m) -> tuple[list, list, dict]:
    spec = m.tracefile.TraceSpec(
        duration_s=5 * 3600, fps=2.0, text_density=0.1, blur_rate=0.1,
        similarity_run_length=20.0, seed=seed,
    )
    return m.tracefile.generate_frames(spec), [], {"seed": seed}


def session_20min(seed: int, m) -> tuple[list, list, dict]:
    spec = m.tracefile.TraceSpec(duration_s=1200, seed=seed, **CLI_DEFAULTS)
    queries = [
        m.model.QueryRecord(ts, ts - 2000, "What does the sign say?", m.model.QueryMode.QA)
        for ts in range(25_000, 1_200_001, 25_000)
    ]
    return m.tracefile.generate_frames(spec), queries, {"seed": seed, "shuffle": {"enabled": True}}


def revisit(frames: list, rate: float, rng: random.Random) -> list:
    """Give ``rate`` of newly opened scenes the words of an earlier scene.

    Half of the returns glance back at one of the last three scenes, so
    near-duplicate groups sit seconds apart and consolidation fires; the
    other half go back to any earlier scene.  A scene is a run of frames
    sharing one scene signature; its text frames all carry the scene's
    words.  Signatures are untouched, so frame selection decides exactly
    as on the original trace.
    """
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
            if originals and rng.random() < rate:
                words = rng.choice(originals[-3:] if rng.random() < 0.5 else originals)
            else:
                originals.append(words)
            words_of[frame.scene_sig] = words
        out.append(replace(frame, gt_words=words))
    return out


def revisit_qa(seed: int, m) -> tuple[list, list, dict]:
    spec = m.tracefile.TraceSpec(
        duration_s=1200, selection_events=10, seed=REVISIT_TRACE_SEED, **CLI_DEFAULTS
    )
    frames = revisit(m.tracefile.generate_frames(spec), REVISIT_RATE, random.Random(REVISIT_TRACE_SEED))
    timing = random.Random(REVISIT_TRACE_SEED)
    mix = random.Random(seed)
    mode = m.model.QueryMode
    queries = []
    for k in range(1, 600):
        # Off the 500 ms frame grid, so no query coincides with a frame.
        ts = 2000 * k + timing.randrange(1, 500)
        speech = ts - timing.randint(500, 3000)
        kind = mix.choice((mode.QA, mode.READOUT, mode.TRANSLATION))
        if kind is mode.QA:
            queries.append(m.model.QueryRecord(ts, speech, mix.choice(QA_QUESTIONS), kind))
        elif kind is mode.READOUT:
            queries.append(m.model.QueryRecord(ts, speech, "Read this to me", kind))
        else:
            queries.append(m.model.QueryRecord(ts, speech, "Translate this", kind, mix.choice(LANGUAGES)))
    return frames, queries, {"seed": REVISIT_TRACE_SEED}


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, SimpleNamespace], tuple[list, list, dict]]  # -> frames, queries, config
    causal_check: bool = False


WORKLOADS = {
    "device-5h": Workload(device_5h),
    "session-20min": Workload(session_20min),
    "revisit-qa": Workload(revisit_qa, causal_check=True),
}


# -- passes ---------------------------------------------------------------


@dataclass
class PassOutput:
    frames: list
    queries: list
    config: object
    result: object
    machine_report: str
    prompts: list[str]


def host_probe() -> float:
    """Seconds a fixed pure-Python task takes right now.

    The task mixes what the pipeline spends its time on: JSON lines,
    token sets and Jaccard tests, SHA-256, string formatting.  The host's
    speed drifts by up to 2x within minutes, so each timed pass is scaled
    by the probes run just before and after it.  The cyclic collector is
    off during the probe so that the program's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        digest = hashlib.sha256()
        sampled, last = [], []
        for i in range(PROBE_ITEMS):
            line = json.dumps({"ts_ms": i * 500, "words": [f"w{(i * 7 + j) % 97}" for j in range(8)], "sig": [i * 0.5, -i * 0.25]})
            record = json.loads(line)
            digest.update(line.encode())
            words = frozenset(record["words"])
            (sampled if i % 64 == 0 else last).append(words)
            del last[:-300]
            f"[OCR t={record['ts_ms']}ms] {' '.join(record['words'])}"
        sum(len(a & b) / len(a | b) >= 0.8 for a in sampled for b in last)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by the mean of the probes on either side of it."""
    return [t * 2 * PROBE_REFERENCE_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]


def set_up(workload: Workload, seed: int, m, workdir: Path) -> None:
    frames, queries, config = workload.make_inputs(seed, m)
    m.tracefile.write_trace(workdir / "trace.ndjson", frames)
    m.tracefile.write_queries(workdir / "queries.ndjson", queries)
    (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")


def one_pass(m, workdir: Path) -> PassOutput:
    """The work of ``wearocr replay``, rendering outputs instead of writing them."""
    _, frames = m.tracefile.read_trace(workdir / "trace.ndjson")
    queries = m.tracefile.read_queries(workdir / "queries.ndjson")
    config = m.replay.SimConfig.from_obj(json.loads((workdir / "config.json").read_text(encoding="utf-8")))
    result = m.replay.replay(frames, queries, config)
    m.replay.emit_report(result.report, "human")
    machine = m.replay.emit_report(result.report, "machine")
    prompts = [p.text + "\n" for p in result.prompts]
    return PassOutput(frames, queries, config, result, machine, prompts)


def check_outputs(out: PassOutput, workload: Workload) -> tuple[int, int, list[str]]:
    """(failed frames, failed queries, problems that make the run incorrect)."""
    body = checks.parse_machine_report(out.machine_report)
    payloads = out.result.timeline.payloads()
    kinds = {p.frame_ts_ms: int(p.kind) for p in payloads}
    failed_frames, problems = checks.selection_check(out.frames, kinds, body["stage_counts"])
    problems += checks.ledger_check(
        out.frames, body["uplink"], out.result.report.ledger.video_bits, out.config.stream.bitrate_bps
    )
    problems += checks.ocr_check({f.ts_ms: f for f in out.frames}, payloads)
    groups = [(g.members, g.exemplar_ts, g.is_selection) for g in out.result.timeline.groups()]
    if groups != checks.greedy_groups(payloads):
        problems.append("final groups differ from the greedy grouping")
    prompts = [p.text for p in out.result.prompts]
    if len(prompts) != len(out.queries):
        problems.append(f"{len(prompts)} prompts for {len(out.queries)} queries")
    failed_queries = {
        i for i, (q, text) in enumerate(zip(out.queries, prompts)) if not checks.prompt_structure_ok(q, text)
    }
    if workload.causal_check:
        causal = checks.causal_ocr_lines(payloads, out.queries)
        failed_queries |= {
            i for i, (want, text) in enumerate(zip(causal, prompts)) if checks.ocr_lines(text) != want
        }
    return len(failed_frames), len(failed_queries), problems


def layer_metrics(setup_self: dict, tracer: layers.Tracer, n_traced: int, counts: dict, overhead_s: float) -> dict:
    per_pass = {name: total / n_traced for name, total in tracer.self_s.items()}
    seconds = {
        "tracefile.generate_s": setup_self.get("tracefile.generate", 0.0),
        "tracefile.write_s": setup_self.get("tracefile.write", 0.0),
    }
    for metric, span in (
        ("tracefile.read_s", "tracefile.read"), ("model.validate_s", "model.validate"),
        ("selection.process_frame_s", "selection.process_frame"), ("ocr.run_s", "ocr.run"),
        ("wire.encode_s", "wire.encode"), ("wire.decode_s", "wire.decode"),
        ("wire.account_s", "wire.account"), ("osm.ingest_s", "osm.ingest"),
        ("osm.group_build_s", "osm.group_build"), ("osm.context_s", "osm.context"),
        ("enrich.normalize_s", "enrich.normalize"), ("enrich.consolidate_s", "enrich.consolidate"),
        ("prompt.dedup_s", "prompt.dedup"), ("prompt.plan_s", "prompt.plan"),
        ("prompt.build_s", "prompt.build"), ("power.report_s", "power.report"),
        ("replay.self_s", "replay.self"), ("replay.emit_s", "replay.emit"),
    ):
        seconds[metric] = per_pass.get(span, 0.0)
    seconds["trace.overhead_s"] = overhead_s
    metrics = {name: {"value": value, "unit": "s"} for name, value in seconds.items()}
    for name in (
        "selection.frames", "selection.accepted", "selection.rejected_blur",
        "selection.rejected_no_text", "selection.rejected_similar", "selection.rejected_budget",
        "ocr.calls", "ocr.words", "wire.messages", "wire.encode_calls", "wire.bytes",
        "osm.similarity_evals", "osm.groups", "osm.merges", "osm.context_entries",
        "enrich.consolidate_merged", "prompt.dedup_dropped", "prompt.bytes",
    ):
        metrics[name] = {"value": counts.get(name, 0), "unit": "bytes" if name.endswith("bytes") else "count"}
    words = counts.get("ocr.words", 0)
    metrics["ocr.word_accuracy"] = {
        "value": counts.get("ocr.words_correct", 0) / words if words else 0.0, "unit": "ratio"
    }
    samples = tracer.query_ms
    metrics["prompt.query_ms_p50"] = {"value": statistics.median(samples) if samples else 0.0, "unit": "ms"}
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= P90_MIN_SAMPLES else 0.0
    metrics["prompt.query_ms_p90"] = {"value": p90, "unit": "ms"}
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool, m, import_s: float, workdir: Path) -> dict:
    log = lambda msg: print(f"bench: {msg}", file=sys.stderr, flush=True)  # noqa: E731
    tracer = layers.Tracer() if trace else None
    traced = tracer.installed if trace else nullcontext

    # Untraced runs time every set-up and pass between two host probes.
    probe = (lambda: None) if trace else host_probe
    setup_times: list[float] = []
    setup_probes = [probe()]
    setup_start = time.perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - setup_start < SETUP_MIN_S:
        gc.collect()
        start = time.perf_counter()
        with traced():
            set_up(workload, seed, m, workdir)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(probe())
    setup_self = {}
    if tracer is not None:
        setup_self = {name: total / len(setup_times) for name, total in tracer.self_s.items()}
        tracer.reset()
    log(f"setup {['%.3f' % t for t in setup_times]} s, imports {import_s:.3f} s")

    untraced_times, traced_times, pass_counts = [], [], []
    reports = set()
    out = None

    def timed_pass(with_trace: bool) -> float:
        nonlocal out
        out = None  # free the previous pass before this one allocates
        gc.collect()
        with traced() if with_trace else nullcontext():
            start = time.perf_counter()
            out = one_pass(m, workdir)
            elapsed = time.perf_counter() - start
        reports.add(out.machine_report)
        if with_trace:
            pass_counts.append(dict(tracer.counts))
            tracer.counts.clear()
        return elapsed

    if trace:
        for _ in range(UNTRACED_PASSES):
            untraced_times.append(timed_pass(False))
    times = traced_times if trace else untraced_times
    pass_probes = [probe()]
    loop_start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - loop_start < seconds:
        times.append(timed_pass(trace))
        pass_probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"passes {['%.3f' % t for t in untraced_times + traced_times]} s")

    failed_frames, failed_queries, problems = check_outputs(out, workload)
    if len(reports) != 1:
        problems.append(f"{len(reports)} different machine reports over the passes")
    passes = len(untraced_times) + len(traced_times)
    attempted = (len(out.frames) + len(out.queries)) * passes
    failed = (failed_frames + failed_queries) * passes
    log(f"per pass: {len(out.frames)} frames, {failed_frames} failed; "
        f"{len(out.queries)} queries, {failed_queries} failed")

    if not trace:
        setup_s = import_s * PROBE_REFERENCE_S / setup_probes[0] + statistics.median(
            at_reference_speed(setup_times, setup_probes)
        )
        log(f"probes {['%.3f' % p for p in setup_probes + pass_probes]} s; wall medians: "
            f"pass {statistics.median(untraced_times):.3f} s, set-up {statistics.median(setup_times):.3f} s")
        metrics = {
            "replay_s": {"value": statistics.median(at_reference_speed(untraced_times, pass_probes)), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        counts = pass_counts[0]
        if any(c != counts for c in pass_counts):
            problems.append("traced counts differ between passes")
        stages = checks.parse_machine_report(out.machine_report)["stage_counts"]
        for name, want in (
            ("selection.frames", len(out.frames)),
            ("selection.accepted", stages["accepted"]),
            ("wire.messages", out.result.report.ledger.message_count),
            ("osm.groups", len(out.result.timeline.groups())),
        ):
            if counts.get(name, 0) != want:
                problems.append(f"traced {name} = {counts.get(name, 0)}, untraced output says {want}")
        overhead = statistics.median(traced_times) - statistics.median(untraced_times)
        metrics = layer_metrics(setup_self, tracer, len(traced_times), counts, overhead)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program, import_s = load_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), program, import_s, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
