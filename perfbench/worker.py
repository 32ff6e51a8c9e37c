"""One round of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR --spawned-at T
    python3 perfbench/worker.py --probe-load TRACE_CSV

``run.py`` starts one worker per round and passes the CLOCK_MONOTONIC time
at which it started the process, so ``setup_s`` covers interpreter start,
importing totalcorr and building the inputs. The worker then times the
reference loop, makes one timed pass through the program's public entry
points, times the reference loop again, checks the outputs and prints one
JSON line. With ``--trace 1`` it records spans around the layers during the
pass and writes them to ``DIR/spans.json``.

``--probe-load`` loads one trace in a fresh process and prints how far that
raised the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import totalcorr  # noqa: E402
import totalcorr.cli  # noqa: E402
from totalcorr import harness  # noqa: E402
from totalcorr.decomposition import PathKind  # noqa: E402
from totalcorr.estimators import MiEstimatorKind  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

DIM = 4
N_TERMS = DIM - 1


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that runs no totalcorr code.

    It touches neither numpy nor BLAS, so no change to the program or to its
    threading can change it; it only measures how fast the machine runs
    Python at the moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    return time.perf_counter() - t0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image (VmHWM).

    ``ru_maxrss`` is not used: Linux carries it across exec, so a fresh
    worker would start from the peak of the process that started it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cli(argv: list[str]) -> tuple[int, str]:
    """``totalcorr <argv>`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = totalcorr.cli.main(argv)
    return code, out.getvalue()


class Track:
    """``totalcorr run`` on the acceptance protocol's settings, fewer steps.

    One operation is one (estimator, path) run; a run the program reports as
    failed leaves no trace file behind.
    """

    targets = (2.0, 4.0)
    paths = ("TREE", "LINE")
    steps_per_target = 100
    batch_size = 64
    bandwidth = 100
    eval_batches = 50

    def __init__(self, estimators: tuple[str, ...]):
        self.estimators = estimators
        self.combos = [(e, p) for e in estimators for p in self.paths]
        self.ops = len(self.combos)

    def prepare(self, seed: int, out: Path) -> dict:
        config = out / "config.txt"
        config.write_text(
            "\n".join(
                [
                    f"dim = {DIM}",
                    f"tc_targets = {', '.join(f'{t:g}' for t in self.targets)}",
                    f"steps_per_target = {self.steps_per_target}",
                    f"batch_size = {self.batch_size}",
                    "hidden = 20",
                    "lr = 1e-4",
                    f"smoothing_bandwidth = {self.bandwidth}",
                    f"eval_batches = {self.eval_batches}",
                    f"estimators = {', '.join(self.estimators)}",
                    f"paths = {', '.join(self.paths)}",
                    f"seed = {seed}",
                ]
            )
            + "\n"
        )
        return {"config": config, "results": out / "results"}

    def run(self, inputs: dict) -> dict:
        code, _ = _cli(["run", "--config", str(inputs["config"]), "--out", str(inputs["results"]), "--jobs", "1"])
        return {"exit": code}

    def check(self, inputs: dict, outcome: dict) -> tuple[int, list[str]]:
        results = inputs["results"]
        present = [(e, p) for e, p in self.combos if (results / f"trace_{e}_{p}.csv").is_file()]
        failed = self.ops - len(present)
        errors = []
        if (outcome["exit"] == 0) != (failed == 0):
            errors.append(f"exit code {outcome['exit']} with {failed} of {self.ops} runs missing")
        rhos = {t: totalcorr.solve_rho_for_tc(DIM, t) for t in self.targets}
        errors += checks.check_target_calibration(DIM, rhos)
        for est, path in present:
            label = f"{est}/{path}"
            try:
                trace = checks.parse_trace((results / f"trace_{est}_{path}.csv").read_text())
            except ValueError as exc:
                errors.append(f"{label}: {exc}")
                continue
            found = checks.check_trace(
                trace,
                targets=self.targets,
                steps_per_target=self.steps_per_target,
                bandwidth=self.bandwidth,
                n_terms=N_TERMS,
                label=label,
            )
            errors += found
            if found:
                continue
            if est == "INFONCE":
                errors += checks.check_infonce_cap(trace, self.batch_size, label)
            if est != "CLUB":
                errors += checks.check_lower_bound_band(trace, self.targets, self.steps_per_target, label)
        expected = [(e, p, t) for e, p in present for t in self.targets]
        metrics_path = results / "metrics.csv"
        if metrics_path.is_file():
            try:
                errors += checks.check_metrics(checks.parse_metrics(metrics_path.read_text()), expected)
            except ValueError as exc:
                errors.append(f"metrics.csv: {exc}")
        elif present:
            errors.append("metrics.csv is missing")
        return failed, errors


class TraceFiles:
    """Post-processing of synthetic traces: smooth, persist, plot, report.

    One operation is one file written or read: each trace and the metrics
    written, each trace read and the SVG written by ``plot``, the metrics
    read by ``report``.
    """

    targets = (2.0, 4.0, 6.0, 8.0, 10.0)
    steps_per_target = 4000
    bandwidth = 200
    combos = [(e.value, p.value) for e in MiEstimatorKind for p in PathKind]
    plot_ops = len(combos) + 1
    ops = len(combos) + 1 + plot_ops + 1

    def prepare(self, seed: int, out: Path) -> dict:
        rng = np.random.default_rng(seed)
        target = np.repeat(np.asarray(self.targets), self.steps_per_target)
        steps = np.arange(1, len(target) + 1)
        traces = []
        for _ in self.combos:
            terms = target[:, None] / N_TERMS + rng.normal(0.0, 0.5, (len(target), N_TERMS))
            raw = terms.sum(axis=1)
            # the timed pass fills in the smoothed column
            traces.append(
                harness.TrainingTrace(steps=steps, target=target, raw=raw, smoothed=np.empty_like(raw), terms=terms)
            )
        rows = []
        for est, path in self.combos:
            for tc in self.targets:
                bias = float(rng.normal(0.0, 0.5))
                variance = float(rng.gamma(2.0, 0.05))
                rows.append(
                    harness.MetricsRow(
                        estimator=MiEstimatorKind(est),
                        path=PathKind(path),
                        target_tc=tc,
                        bias=bias,
                        variance=variance,
                        mse=bias * bias + variance,
                        eval_batches=100,
                        seed=seed,
                    )
                )
        return {
            "traces": traces,
            "rows": rows,
            "paths": [out / f"trace_{e}_{p}.csv" for e, p in self.combos],
            "metrics": out / "metrics.csv",
            "svg": out / "traces.svg",
        }

    def run(self, inputs: dict) -> dict:
        traces = inputs["traces"]
        for trace in traces:
            trace.smoothed = harness.smooth(trace.raw, self.bandwidth)
        written = []
        for trace, path in zip(traces, inputs["paths"]):
            try:
                harness.persist_trace(trace, path)
                written.append(True)
            except Exception:
                traceback.print_exc()
                written.append(False)
        try:
            harness.persist_metrics(inputs["rows"], inputs["metrics"])
            metrics_written = True
        except Exception:
            traceback.print_exc()
            metrics_written = False
        plot_exit, _ = _cli(["plot", *map(str, inputs["paths"]), "--out", str(inputs["svg"])])
        report_exit, report = _cli(["report", "--metrics", str(inputs["metrics"])])
        return {
            "written": written,
            "metrics_written": metrics_written,
            "plot_exit": plot_exit,
            "report_exit": report_exit,
            "report": report,
        }

    def check(self, inputs: dict, outcome: dict) -> tuple[int, list[str]]:
        failed = outcome["written"].count(False) + (not outcome["metrics_written"])
        failed += self.plot_ops if outcome["plot_exit"] else 0
        failed += 1 if outcome["report_exit"] else 0
        errors = []
        for (est, path), trace, path_written, ok in zip(
            self.combos, inputs["traces"], inputs["paths"], outcome["written"]
        ):
            label = f"{est}/{path}"
            errors += checks.check_smoothed(trace.raw, trace.smoothed, self.bandwidth, label)
            if ok:
                errors += checks.check_same_trace(harness.load_trace(path_written), trace, label)
        if outcome["metrics_written"] and harness.load_metrics(inputs["metrics"]) != inputs["rows"]:
            errors.append("load_metrics did not return the rows persist_metrics wrote")
        if not outcome["plot_exit"]:
            labels = [p.stem for p in inputs["paths"]]
            errors += checks.check_svg(inputs["svg"].read_text(), labels, len(self.targets) * self.steps_per_target)
        if not outcome["report_exit"]:
            keys = [(r.estimator.value, r.path.value, r.target_tc) for r in inputs["rows"]]
            errors += checks.check_report(outcome["report"], keys)
        return failed, errors


WORKLOADS = {
    "track-critic": Track(("MINE", "NWJ", "INFONCE")),
    "track-club": Track(("CLUB",)),
    "trace-files": TraceFiles(),
}


def probe_load(path: str) -> float:
    before = _peak_rss_mb()
    harness.load_trace(path)
    return _peak_rss_mb() - before


def _load_rss_growth_mb(path: Path) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--probe-load", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["rss_growth_mb"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--probe-load")
    args = parser.parse_args(argv)
    if args.probe_load:
        print(json.dumps({"rss_growth_mb": probe_load(args.probe_load)}))
        return 0

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.out)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_raw_s = time.monotonic() - args.spawned_at
    ref_before = reference_s()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        outcome = workload.run(inputs)
    except Exception:
        traceback.print_exc()
        outcome = None
    run_raw_s = time.perf_counter() - t0
    cpu_raw_s = _cpu_seconds() - cpu0
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
    ref_s = math.sqrt(ref_before * reference_s())

    if outcome is None:
        failed, errors = workload.ops, []
    else:
        failed, errors = workload.check(inputs, outcome)
    result = {
        "setup_raw_s": setup_raw_s,
        "run_raw_s": run_raw_s,
        "cpu_raw_s": cpu_raw_s,
        "reference_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.ops,
        "failed": failed,
        "errors": errors,
    }
    if tracer is not None:
        (args.out / "spans.json").write_text(json.dumps(tracer.spans))
        written = [p for p in inputs.get("paths", []) if p.is_file()]
        result["load_rss_growth_mb"] = _load_rss_growth_mb(written[0]) if written else 0.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
