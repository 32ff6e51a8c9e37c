"""Benchmark of totalcorr: three workloads through the program's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. NAME is ``track-critic``,
``track-club``, ``trace-files`` or ``all``. Each round of a workload is a
fresh worker process (see worker.py) that sets up, makes one timed pass,
and checks its outputs; rounds repeat until the next one would end past
``--seconds``, with at least three. The same seed gives the same inputs in
every round.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the rounds; each round's times are scaled to a fixed machine speed by
the time of the reference loop that the round runs around its pass (see
README.md). With ``--trace 1`` the workers record spans around each
layer and the result holds the per-layer metrics, pooled over the rounds.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("track-critic", "track-club", "trace-files")
KINDS = ("MINE", "NWJ", "INFONCE", "CLUB")
MIN_ROUNDS = 3
# a run ends within 180 s: no round starts once the typical round would end
# past LAST_START_S, and a round that hangs is killed after WORKER_TIMEOUT_S
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 45.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# The reference loop's nominal time: time metrics are reported at the machine
# speed at which worker.reference_s takes this long.
REFERENCE_S = 0.1


def _per_layer_spec() -> list[tuple[str, str, str | None, str, str | None]]:
    """(metric, unit, span name, statistic, estimator kind) for every per-layer metric."""
    spec = [
        ("gaussian.sample.calls", "count", "gaussian.sample", "calls", None),
        ("gaussian.sample.us_p50", "us", "gaussian.sample", "us_p50", None),
    ]
    for k in KINDS:
        spec += [
            (f"nn.Mlp.forward.rows_per_call.{k}", "rows", "nn.Mlp.forward", "size_p50", k),
            (f"nn.Mlp.forward.us_p50.{k}", "us", "nn.Mlp.forward", "us_p50", k),
            (f"nn.Mlp.backward.us_p50.{k}", "us", "nn.Mlp.backward", "us_p50", k),
        ]
    spec.append(("nn.adam_step.calls", "count", "nn.adam_step", "calls", None))
    spec += [(f"nn.adam_step.us_p50.{k}", "us", "nn.adam_step", "us_p50", k) for k in KINDS]
    spec += [
        ("nn.cond_gaussian_logpdf.us_p50", "us", "nn.cond_gaussian_logpdf", "us_p50", None),
        ("nn.cond_gaussian_logpdf_matrix.us_p50", "us", "nn.cond_gaussian_logpdf_matrix", "us_p50", None),
    ]
    spec += [(f"estimators.train_step.self_us_p50.{k}", "us", "estimators.train_step", "self_us_p50", k) for k in KINDS]
    spec += [(f"estimators.evaluate.us_p50.{k}", "us", "estimators.evaluate", "us_p50", k) for k in KINDS]
    for k in KINDS:
        spec += [
            (f"decomposition.tc_train_step.us_p50.{k}", "us", "decomposition.tc_train_step", "us_p50", k),
            (f"decomposition.tc_train_step.us_p99.{k}", "us", "decomposition.tc_train_step", "us_p99", k),
            (f"decomposition.tc_train_step.self_us_p50.{k}", "us", "decomposition.tc_train_step", "self_us_p50", k),
            (f"decomposition.tc_evaluate.us_p50.{k}", "us", "decomposition.tc_evaluate", "us_p50", k),
        ]
    spec += [
        ("harness.evaluate_metrics.s", "s", "harness.evaluate_metrics", "s", None),
        ("harness.run_experiment.self_s", "s", "harness.run_experiment", "self_s", None),
        ("harness.smooth.s", "s", "harness.smooth", "s", None),
        ("harness.persist_trace.s", "s", "harness.persist_trace", "s", None),
        ("harness.persist_trace.bytes", "bytes", "harness.persist_trace", "size_sum", None),
        ("harness.load_trace.s", "s", "harness.load_trace", "s", None),
        ("harness.load_trace.rss_growth_mb", "MB", None, "load_rss_growth_mb", None),
        ("harness.persist_metrics.s", "s", "harness.persist_metrics", "s", None),
        ("harness.load_metrics.s", "s", "harness.load_metrics", "s", None),
        ("svgplot.render_traces.s", "s", "svgplot.render_traces", "s", None),
        ("svgplot.svg_bytes", "bytes", "svgplot.render_traces", "size_sum", None),
        ("cli.main.self_s", "s", "cli.main", "self_s", None),
        ("trace.run_s", "s", None, "run_raw_s", None),
        ("trace.reference_s", "s", None, "reference_s", None),
        ("trace.self_sum_s", "s", None, "self_sum_s", None),
        ("trace.spans", "count", None, "spans", None),
    ]
    return spec


PER_LAYER = _per_layer_spec()
# statistic -> (pooled span field, percentile)
PERCENTILES = {"us_p50": ("us", 50), "us_p99": ("us", 99), "self_us_p50": ("self_us", 50), "size_p50": ("size", 50)}


class BenchError(Exception):
    pass


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[list]]:
    """Worker results and, when traced, each round's spans."""
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    results, spans = [], []
    start = time.monotonic()
    try:
        while True:
            round_dir = run_dir / f"round{len(results)}"
            round_dir.mkdir(parents=True)
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
                "--out", str(round_dir),
            ]
            began = time.monotonic()
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(began)],
                capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["wall_s"] = time.monotonic() - began
            results.append(result)
            if trace:
                spans.append(json.loads((round_dir / "spans.json").read_text()))
            shutil.rmtree(round_dir)
            elapsed = time.monotonic() - start
            typical = _median([r["wall_s"] for r in results])
            if elapsed + typical > LAST_START_S or (
                len(results) >= MIN_ROUNDS and elapsed + typical > seconds
            ):
                return results, spans
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end_metrics(results: list[dict]) -> dict:
    """Medians over the rounds; each round's times are scaled by its own reference time."""
    metrics = {}
    for name, unit in END_TO_END:
        if unit == "s":
            value = _median([r[name[:-2] + "_raw_s"] * REFERENCE_S / r["reference_s"] for r in results])
        else:
            value = _median([r[name] for r in results])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(results: list[dict], rounds_spans: list[list]) -> dict:
    pooled = defaultdict(lambda: {"us": [], "self_us": [], "size": []})
    per_round = []
    for spans in rounds_spans:
        selfs = self_times(spans)
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size_sum": 0})
        for span, self_ns in zip(spans, selfs):
            name, kind, start, end = span[:4]
            size = span[5]
            for key in ((name, kind), (name, None)) if kind is not None else ((name, None),):
                bucket = pooled[key]
                bucket["us"].append((end - start) / 1e3)
                bucket["self_us"].append(self_ns / 1e3)
                if size is not None:
                    bucket["size"].append(size)
            t = totals[name]
            t["calls"] += 1
            t["s"] += (end - start) / 1e9
            t["self_s"] += self_ns / 1e9
            t["size_sum"] += size or 0
        per_round.append((totals, sum(selfs) / 1e9, len(spans)))

    def per_round_median(name, stat):
        return _median([totals[name][stat] if name in totals else 0 for totals, _, _ in per_round])

    metrics = {}
    for metric, unit, layer, stat, kind in PER_LAYER:
        if stat == "load_rss_growth_mb":
            value = _median([r["load_rss_growth_mb"] for r in results])
        elif stat in ("run_raw_s", "reference_s"):
            value = _median([r[stat] for r in results])
        elif stat == "self_sum_s":
            value = _median([self_sum for _, self_sum, _ in per_round])
        elif stat == "spans":
            value = _median([n for _, _, n in per_round])
        elif stat in ("calls", "s", "self_s", "size_sum"):
            value = per_round_median(layer, stat)
        else:
            field, q = PERCENTILES[stat]
            bucket = pooled.get((layer, kind))
            value = _percentile(bucket[field], q) if bucket else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, cpu {model!r}, nproc {os.cpu_count()}, "
        f"BLAS thread env {threads or 'unset'}"
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    results, spans = run_rounds(workload, seed, seconds, trace)
    errors = [e for r in results for e in r["errors"]]
    for error in errors:
        print(f"CHECK FAILED [{workload}]: {error}", file=sys.stderr)
    metrics = per_layer_metrics(results, spans) if trace else end_to_end_metrics(results)
    summary = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(f"== {workload} (seed {seed}, {len(results)} rounds, trace {int(trace)})")
    print(f"   operations attempted {summary['attempted']}, failed {summary['failed']}, correct {summary['correct']}")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    for key in ("run_raw_s", "reference_s"):
        print(f"   {key} per round: {' '.join(f'{r[key]:.3f}' for r in results)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running worker and the round directories are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "totalcorr" / "__init__.py").is_file():
        print(f"error: no totalcorr sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    print(f"# {fingerprint()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        result = summaries[args.workload]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": m for w, s in summaries.items() for k, m in s["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
