"""Command line entry point.

Subcommands: run (full pipeline), generate (synthetic scenario),
compare (join two stats files), config-dump (print effective defaults).
run's flags mirror PipelineConfig's deployment settings one-to-one in
kebab-case; the method's parameters are fixed, and config-dump prints them
too. Every run reduces all of its input. Exit codes: 0 ok, 1 config error,
2 IO error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import gc
import json
import os
import sys

from .aggregate import DEFAULT_BASELINE_END, DEFAULT_BASELINE_START
from .errors import ConfigError, DataError
from .ingest import ACCURACY_MAX_M
from .metrics import DEFAULT_MIN_REPORTS, DEFAULT_MIN_SPAN_HOURS, DEFAULT_TRIM_FRACTION
from .output import write_compare
from .pipeline import PipelineConfig, atomic_write, compare_stats, run

# config-dump's output: PipelineConfig's defaults, then the method's fixed parameters
CONFIG_DEFAULTS = {
    **dataclasses.asdict(PipelineConfig()),
    "accuracy_max_m": ACCURACY_MAX_M,
    "min_reports": DEFAULT_MIN_REPORTS,
    "min_span_hours": DEFAULT_MIN_SPAN_HOURS,
    "trim_fraction": DEFAULT_TRIM_FRACTION,
    "baseline_start": DEFAULT_BASELINE_START.isoformat(),
    "baseline_end": DEFAULT_BASELINE_END.isoformat(),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"invalid date {text!r}, expected yyyy-mm-dd") from None


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="mobstats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given takes PipelineConfig's default
    p_run = sub.add_parser("run", help="run the pipeline over one dataset",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--input", dest="inputs", action="append", metavar="GLOB",
                       help="the one dataset's shard glob; join two runs with `compare`")
    p_run.add_argument("--gazetteer", metavar="PATH")
    p_run.add_argument("--output-dir", metavar="DIR")
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--scratch-dir", metavar="DIR", help="accepted and unused")
    p_run.add_argument("--verbose-stats", action="store_true")

    # a flag not given takes ScenarioSpec's default
    p_gen = sub.add_parser("generate", help="write a synthetic scenario with truth sidecar",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--out-dir", required=True, metavar="DIR")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--devices", type=int)
    p_gen.add_argument("--start-date", type=_parse_date, metavar="DATE")
    p_gen.add_argument("--end-date", type=_parse_date, metavar="DATE")
    p_gen.add_argument("--scale", type=float,
                       help="mobility scale factor from synth.SCALE_START (2020-03-09) on")
    p_gen.add_argument("--styles", type=_comma_list, help="comma list of device styles")
    p_gen.add_argument("--reports-min", type=int)
    p_gen.add_argument("--reports-max", type=int)
    p_gen.add_argument("--accuracy-reject-fraction", type=float)
    p_gen.add_argument("--malformed-fraction", type=float)
    p_gen.add_argument("--ineligible-fraction", type=float)
    p_gen.add_argument("--shards", type=int)
    p_gen.add_argument("--gzip", dest="gzip_shards", action="store_true")

    p_cmp = sub.add_parser("compare", help="join two stats files on region and date")
    p_cmp.add_argument("stats_a", metavar="A")
    p_cmp.add_argument("stats_b", metavar="B")
    p_cmp.add_argument("--out", metavar="FILE", help="write NDJSON here instead of stdout")

    sub.add_parser("config-dump", help="print run's defaults and the method's fixed parameters")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    given = {k: v for k, v in vars(args).items() if k != "command"}
    reports = run(PipelineConfig(**given))
    for r in reports:
        print(json.dumps(r, separators=(",", ":")))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .synth import ScenarioSpec, generate  # only here: a run never loads it

    given = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
    summary = generate(ScenarioSpec(**given), args.out_dir)
    print(json.dumps(summary, separators=(",", ":")))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = compare_stats(args.stats_a, args.stats_b)
    if args.out:
        atomic_write(args.out, lambda fh: write_compare(rows, fh))
    else:
        write_compare(rows, sys.stdout)
    return 0


def _cmd_config_dump() -> int:
    print(json.dumps(CONFIG_DEFAULTS, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "generate":
            code = _cmd_generate(args)
        elif args.command == "compare":
            code = _cmd_compare(args)
        else:
            code = _cmd_config_dump()
        sys.stdout.flush()
        return code
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader stopped reading; every file was complete before stdout was
        # written. Point fd 1 at devnull so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 3


def entry() -> int:
    """main() after gc.freeze(), so the exit-time collections skip start-up's objects."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
