"""Command-line harness: generate / validate / replay / report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .model import validate_trace
from .replay import ReplayError, SimConfig, emit_report, replay
from .tracefile import TraceFormatError, TraceSpec, read_queries, read_trace, write_generated_trace


class InputError(Exception):
    """A config file or option value that the program rejects."""


def _load_config(args: argparse.Namespace) -> SimConfig:
    """``--config`` (defaults when absent) with ``--seed`` applied."""
    config = SimConfig()
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = SimConfig.from_obj(json.load(fh))
            except (ValueError, RecursionError) as exc:  # json raises RecursionError on deep nesting
                raise InputError(f"{args.config}: {exc}") from None
    if args.seed is None:
        return config
    try:
        return replace(config, seed=args.seed)
    except ValueError as exc:
        raise InputError(f"--seed: {exc}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = TraceSpec(
            duration_s=args.duration_s,
            fps=args.fps,
            text_density=args.text_density,
            blur_rate=args.blur_rate,
            similarity_run_length=args.similarity_run_length,
            selection_events=args.selection_events,
            seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    frames = write_generated_trace(args.trace, spec)
    print(f"wrote {len(frames)} frames to {args.trace}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _, frames = read_trace(args.trace)
    violations = validate_trace(frames)
    if not violations:
        print(f"ok: {len(frames)} frames")
        return 0
    for violation in violations:
        print(violation)
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    config = _load_config(args)  # before the trace: a config error costs no read
    _, frames = read_trace(args.trace)
    queries = read_queries(args.queries) if args.queries else []
    result = replay(frames, queries, config)
    human = emit_report(result.report, "human")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(human, encoding="utf-8")
    (out / "report.ndjson").write_text(
        emit_report(result.report, "machine"), encoding="utf-8"
    )
    for i, prompt in enumerate(result.prompts):
        (out / f"prompt_{i:03d}.txt").write_text(prompt.text + "\n", encoding="utf-8")
    print(human, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _, frames = read_trace(args.trace)
    result = replay(frames, [], config)
    print(emit_report(result.report, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearocr",
        description="Trace-driven simulator for a hybrid wearable/server text pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument("--trace", required=True, help="output trace path")
    gen.add_argument("--duration-s", type=float, default=600.0, dest="duration_s")
    gen.add_argument("--fps", type=float, default=2.0)
    gen.add_argument("--text-density", type=float, default=0.632, dest="text_density")
    gen.add_argument("--blur-rate", type=float, default=0.02, dest="blur_rate")
    gen.add_argument(
        "--similarity-run-length", type=float, default=1.912, dest="similarity_run_length"
    )
    gen.add_argument("--selection-events", type=int, default=0, dest="selection_events")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="check a trace against its invariants")
    val.add_argument("--trace", required=True)
    val.set_defaults(func=cmd_validate)

    rep = sub.add_parser("replay", help="run the full pipeline over a trace")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--queries", default=None)
    rep.add_argument("--config", default=None)
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--out", required=True, help="output directory")
    rep.set_defaults(func=cmd_replay)

    rpt = sub.add_parser("report", help="replay without queries and print the report")
    rpt.add_argument("--trace", required=True)
    rpt.add_argument("--config", default=None)
    rpt.add_argument("--seed", type=int, default=None)
    rpt.add_argument("--format", choices=("human", "machine"), default="human")
    rpt.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input is reported on one line and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, TraceFormatError, ReplayError, OSError) as exc:
        print(f"wearocr: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
