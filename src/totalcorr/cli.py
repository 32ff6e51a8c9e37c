"""Command-line front end: run experiments, report metrics, plot traces,
and self-check the numerical identities.

Exit codes: 0 on success, 1 on usage, config, input or output errors (one
``error:`` line, from :func:`main`), 2 when some (estimator, path) runs
failed while others completed.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import replace
from enum import Enum
from pathlib import Path

from . import diagnostics
from .errors import ConfigError, ParameterError, TotalCorrError
from .harness import (
    CONFIG_FIELD_TYPES,
    METRICS_HEADER,
    ExperimentConfig,
    load_metrics,
    load_trace,
    metrics_cells,
    persist_metrics,
    persist_trace,
    run_experiment,
)
from .svgplot import write_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (1 for usage errors)."""

    def error(self, message):
        raise _UsageExit(message)


# ---------------------------------------------------------------- config file

def _coerce(hint, value: str):
    """``value`` parsed as the type ``hint``; a tuple is a comma-separated list
    whose items are stripped and whose empty items are skipped."""
    if typing.get_origin(hint) is tuple:
        item_hint = typing.get_args(hint)[0]
        return tuple(_coerce(item_hint, v.strip()) for v in value.split(",") if v.strip())
    if hint is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if issubclass(hint, Enum):
        return hint(value.upper())
    return hint(value)


def parse_config_file(path: str | Path) -> ExperimentConfig:
    """Flat `key = value` text; every key optional, defaults are the paper
    protocol. Lines starting with '#' are comments."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    fields, set_on = {}, {}
    # read_text has turned \r\n and \r into \n, the only line end left;
    # str.splitlines() would also end a line at \v, \f and \x1c-\x1e
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_FIELD_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in set_on:
            message = f"{key!r} is already set on line {set_on[key]}"
            raise ConfigError(f"{path}: line {lineno}: {message}")
        set_on[key] = lineno
        try:
            fields[key] = _coerce(CONFIG_FIELD_TYPES[key], value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: invalid value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**fields)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------- commands

def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.jobs < 1:  # run_experiment checks it too, but only after --out exists
        raise ParameterError(f"jobs must be at least 1, got {args.jobs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config, jobs=args.jobs)
    for (est, path_kind), trace in result.traces.items():
        persist_trace(trace, out / f"trace_{est.value}_{path_kind.value}.csv")
    persist_metrics(result.metrics, out / "metrics.csv")
    for (est, path_kind), message in result.failures.items():
        print(f"run failed for {est.value}/{path_kind.value}: {message}", file=sys.stderr)
    print(f"wrote {len(result.traces)} trace file(s) and metrics.csv to {out}")
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _cmd_plot(args) -> int:
    labelled = [(Path(trace_path).stem, load_trace(trace_path)) for trace_path in args.traces]
    write_svg(labelled, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    table = [METRICS_HEADER.split(",")]
    table.extend(metrics_cells(r, ".6g") for r in load_metrics(args.metrics))
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for i, row in enumerate(table):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    return EXIT_OK


# ------------------------------------------------------------------- selftest

# (name, check, its arguments under --quick); without --quick each check
# runs at the sizes its defaults give
_SELFTEST_CHECKS = (
    ("decomposition-identity", diagnostics.check_decomposition_identity, {"trials": 20}),
    ("target-calibration", diagnostics.check_target_calibration, {}),
    ("mc-oracle-convergence", diagnostics.check_mc_oracle, {"num_samples": 20_000, "seeds": 5}),
    ("gradient-integrity", diagnostics.check_gradient_integrity, {"points": 2}),
    ("infonce-cap", diagnostics.check_infonce_cap, {"trials": 50}),
)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check, quick_args in _SELFTEST_CHECKS:
        ok, detail = check(**quick_args) if args.quick else check()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_PARTIAL


# ----------------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="totalcorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the tracking experiment from a config file")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--out", required=True, help="output directory for CSVs")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--jobs", type=int, default=1, help="parallel (estimator, path) runs")
    run.set_defaults(fn=_cmd_run)

    plot = sub.add_parser("plot", help="render trace CSVs into a standalone SVG")
    plot.add_argument("traces", nargs="+", help="trace CSV file(s)")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(fn=_cmd_plot)

    report = sub.add_parser("report", help="pretty-print a metrics CSV")
    report.add_argument("--metrics", required=True, help="metrics CSV path")
    report.set_defaults(fn=_cmd_report)

    selftest = sub.add_parser("selftest", help="run the numerical identity suite")
    selftest.add_argument("--quick", action="store_true", help="reduced sample counts")
    selftest.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageExit, TotalCorrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
