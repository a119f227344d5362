"""Command line entry point.

Subcommands: run (full pipeline), generate (synthetic scenario),
compare (join two stats files), config-dump (print effective defaults).
Flags mirror the pipeline configuration one-to-one in kebab-case; a JSON
config file may supply the same keys, with explicit flags winning. Exit
codes: 0 ok, 1 config error, 2 IO error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import os
import sys

from .errors import ConfigError, DataError
from .output import write_compare
from .pipeline import PipelineConfig, compare_stats, run

_DATE_KEYS = ("baseline_start", "baseline_end", "date_start", "date_end")
# PipelineConfig's defaults as config-dump prints them and a config file spells them
CONFIG_DEFAULTS = {
    k: v.isoformat() if isinstance(v, dt.date) else v
    for k, v in dataclasses.asdict(PipelineConfig()).items()
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _parse_date(text: str, where: str = "") -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}invalid date {text!r}, expected yyyy-mm-dd") from None


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="mobstats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given takes the config file's value, else PipelineConfig's default
    p_run = sub.add_parser("run", help="run the pipeline over one or more datasets",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--input", dest="inputs", action="append", metavar="GLOB",
                       help="input shard glob; repeat for multiple datasets")
    p_run.add_argument("--gazetteer", metavar="PATH")
    p_run.add_argument("--output-dir", metavar="DIR")
    p_run.add_argument("--format", choices=["ndjson", "csv", "both"])
    p_run.add_argument("--accuracy-max-m", type=float)
    p_run.add_argument("--min-reports", type=int)
    p_run.add_argument("--min-span-hours", type=float)
    p_run.add_argument("--trim-fraction", type=float)
    p_run.add_argument("--baseline-start", type=_parse_date, metavar="DATE")
    p_run.add_argument("--baseline-end", type=_parse_date, metavar="DATE")
    p_run.add_argument("--date-start", type=_parse_date, metavar="DATE")
    p_run.add_argument("--date-end", type=_parse_date, metavar="DATE")
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--n-buckets", type=int)
    p_run.add_argument("--scratch-dir", metavar="DIR")
    p_run.add_argument("--verbose-stats", action="store_true")
    p_run.add_argument("--config", metavar="FILE", help="JSON config file; flags override")

    # a flag not given takes ScenarioSpec's default
    p_gen = sub.add_parser("generate", help="write a synthetic scenario with truth sidecar",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--out-dir", required=True, metavar="DIR")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--devices", type=int)
    p_gen.add_argument("--start-date", type=_parse_date, metavar="DATE")
    p_gen.add_argument("--end-date", type=_parse_date, metavar="DATE")
    p_gen.add_argument("--base-mobility-km", type=float)
    p_gen.add_argument("--scale", type=float,
                       help="mobility scale factor applied from --scale-start onward")
    p_gen.add_argument("--scale-start", type=_parse_date, metavar="DATE")
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

    sub.add_parser("config-dump", help="print the effective default configuration")
    return parser


def _read_config_file(path: str) -> dict:
    """A JSON config file's object as PipelineConfig fields.

    Each value must be of its default's JSON type; a float field also takes
    an int, and a field whose default is null a string. Dates are parsed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path}: {e}") from None
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {path}: not a JSON object: {file_cfg!r}")
    unknown = set(file_cfg) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"config file {path}: unknown keys {sorted(unknown)}")
    for key, value in file_cfg.items():
        default = CONFIG_DEFAULTS[key]
        kind = str if default is None else type(default)
        if kind is float and type(value) is int:
            file_cfg[key] = float(value)
        elif value is None and default is None:
            continue
        elif type(value) is not kind or (kind is list and not all(type(v) is str for v in value)):
            want = "a list of strings" if kind is list else kind.__name__
            raise ConfigError(f"config file {path}: {key} must be {want}"
                              f"{' or null' if default is None else ''}, got {value!r}")
    for key in _DATE_KEYS:
        if file_cfg.get(key) is not None:
            file_cfg[key] = _parse_date(file_cfg[key], f"config file {path}: {key}: ")
    return file_cfg


def _merged_run_config(args: argparse.Namespace) -> PipelineConfig:
    given = {k: v for k, v in vars(args).items() if k != "command"}
    path = given.pop("config", None)
    file_values = {} if path is None else _read_config_file(path)
    return PipelineConfig(**{**file_values, **given})


def _cmd_run(args: argparse.Namespace) -> int:
    reports = run(_merged_run_config(args))
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
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_compare(rows, fh)
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


if __name__ == "__main__":
    sys.exit(main())
