"""Each output check accepts a well-formed output and rejects a corrupted one.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from totalcorr.harness import TrainingTrace, smooth  # noqa: E402
from totalcorr.gaussian import solve_rho_for_tc  # noqa: E402
from totalcorr.svgplot import render_traces  # noqa: E402

TARGETS = (2.0, 4.0)
STEPS = 60
BANDWIDTH = 20
N_TERMS = 3


def loop_trailing_mean(values, bandwidth):
    return np.array([np.mean(values[max(0, i - bandwidth + 1) : i + 1]) for i in range(len(values))])


@pytest.fixture
def trace():
    rng = np.random.default_rng(0)
    n = len(TARGETS) * STEPS
    terms = rng.uniform(0.0, 1.0, (n, N_TERMS))
    raw = terms.sum(axis=1)
    return {
        "steps": np.arange(1.0, n + 1),
        "target": np.repeat(TARGETS, STEPS),
        "raw": raw,
        "smoothed": loop_trailing_mean(raw, BANDWIDTH),
        "term_index": np.tile(np.arange(N_TERMS, dtype=float), (n, 1)),
        "terms": terms,
    }


def check(trace):
    return checks.check_trace(
        trace, targets=TARGETS, steps_per_target=STEPS, bandwidth=BANDWIDTH, n_terms=N_TERMS, label="t"
    )


def test_trailing_mean_matches_loop():
    values = np.random.default_rng(1).normal(size=500)
    assert np.allclose(checks.trailing_mean(values, 37), loop_trailing_mean(values, 37), rtol=0, atol=1e-13)


def test_trace_accepted(trace):
    assert check(trace) == []


@pytest.mark.parametrize(
    "column, index, delta",
    [("raw", 17, 1e-6), ("smoothed", 90, 1e-6), ("target", 59, 2.0), ("steps", 3, 1.0), ("term_index", 5, 1.0)],
)
def test_trace_corruption_rejected(trace, column, index, delta):
    trace[column][index] += delta
    assert check(trace)


def test_non_finite_term_rejected(trace):
    trace["terms"][4, 1] = math.nan
    assert any("non-finite" in e for e in check(trace))


def test_short_trace_rejected(trace):
    short = {k: v[:-1] for k, v in trace.items()}
    assert check(short)


def test_parse_trace_round_trip(trace, tmp_path):
    written = TrainingTrace(
        steps=np.arange(1, len(trace["raw"]) + 1),
        target=trace["target"],
        raw=trace["raw"],
        smoothed=trace["smoothed"],
        terms=trace["terms"],
    )
    from totalcorr.harness import persist_trace

    persist_trace(written, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_text()
    parsed = checks.parse_trace(text)
    assert check(parsed) == []
    with pytest.raises(ValueError):
        checks.parse_trace(text.replace("raw_estimate", "raw", 1))


def test_target_calibration():
    rhos = {t: solve_rho_for_tc(4, t) for t in TARGETS}
    assert checks.check_target_calibration(4, rhos) == []
    rhos[4.0] += 1e-7
    assert checks.check_target_calibration(4, rhos)


def test_infonce_cap(trace):
    assert checks.check_infonce_cap(trace, 64, "t") == []
    trace["terms"][7, 2] = math.log(64) + 1e-9
    assert checks.check_infonce_cap(trace, 64, "t")


def test_infonce_total_cap(trace):
    trace["raw"][3] = 3 * math.log(64) + 1e-9
    assert checks.check_infonce_cap(trace, 64, "t")


def test_lower_bound_band(trace):
    assert checks.check_lower_bound_band(trace, TARGETS, STEPS, "t") == []
    trace["raw"][STEPS - checks.FINAL_WINDOW : STEPS] = TARGETS[0] + checks.LOWER_BOUND_MARGIN + 0.01
    assert checks.check_lower_bound_band(trace, TARGETS, STEPS, "t")


@pytest.fixture
def metrics():
    rows = []
    for est in ("MINE", "CLUB"):
        for t in TARGETS:
            bias, variance = 0.3 * t, 0.01 * t
            rows.append(
                {"estimator": est, "path": "TREE", "target_tc": t, "bias": bias, "variance": variance,
                 "mse": bias * bias + variance, "eval_batches": 10, "seed": 0}
            )
    return rows


def expected_keys(rows):
    return [(r["estimator"], r["path"], r["target_tc"]) for r in rows]


def test_metrics_accepted(metrics):
    assert checks.check_metrics(metrics, expected_keys(metrics)) == []


def test_metrics_identity_rejected(metrics):
    expected = expected_keys(metrics)
    metrics[2]["mse"] += 1e-6
    assert checks.check_metrics(metrics, expected)


def test_metrics_nan_bias_rejected(metrics):
    expected = expected_keys(metrics)
    metrics[0]["bias"] = math.nan
    assert checks.check_metrics(metrics, expected)


def test_metrics_missing_and_duplicate_rows_rejected(metrics):
    expected = expected_keys(metrics)
    assert checks.check_metrics(metrics[:-1], expected)
    assert checks.check_metrics(metrics[:-1] + metrics[:1], expected)


def test_report(metrics):
    keys = expected_keys(metrics)
    lines = ["estimator  path  target_tc  bias", "---------  ----  ---------  ----"]
    lines += [f"{e}  {p}  {t:g}  0.1" for e, p, t in keys]
    assert checks.check_report("\n".join(lines) + "\n", keys) == []
    assert checks.check_report("\n".join(lines[:-1]) + "\n", keys)
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    assert checks.check_report("\n".join(swapped) + "\n", keys)


def make_svg(n_traces, n_steps=30):
    rng = np.random.default_rng(2)
    labelled = []
    for k in range(n_traces):
        raw = rng.normal(size=n_steps)
        labelled.append(
            (
                f"trace_{k}",
                TrainingTrace(
                    steps=np.arange(1, n_steps + 1),
                    target=np.full(n_steps, 2.0),
                    raw=raw,
                    smoothed=smooth(raw, 5),
                    terms=raw[:, None],
                ),
            )
        )
    return render_traces(labelled), [label for label, _ in labelled]


def test_svg():
    svg, labels = make_svg(3)
    assert checks.check_svg(svg, labels, 30) == []
    assert checks.check_svg(svg, labels + ["trace_3"], 30)
    assert checks.check_svg(svg, labels, 31)
    assert checks.check_svg(svg[: len(svg) // 2], labels, 30)


def test_same_trace():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=10)
    t = TrainingTrace(steps=np.arange(1, 11), target=np.ones(10), raw=raw, smoothed=raw.copy(), terms=raw[:, None])
    assert checks.check_same_trace(t, replace(t), "t") == []
    smoothed = t.smoothed.copy()
    smoothed[4] = np.nextafter(smoothed[4], np.inf)
    assert checks.check_same_trace(replace(t, smoothed=smoothed), t, "t")


def test_track_counts_missing_runs_as_failed(tmp_path):
    track = worker.WORKLOADS["track-critic"]
    inputs = track.prepare(0, tmp_path)
    failed, errors = track.check(inputs, {"exit": 0})
    assert failed == track.ops
    assert any("exit code 0" in e for e in errors)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m[0], m[1]) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_each_round_is_scaled_by_its_own_reference_time():
    # at the reference speed the three rounds take 0.4, 0.5 and 0.6 s to set
    # up and 4, 5 and 6 s to run; the second ran on a machine twice as slow
    rounds = [
        {"setup_raw_s": 0.4, "run_raw_s": 4.0, "cpu_raw_s": 4.0, "reference_s": run.REFERENCE_S, "peak_rss_mb": 40.0},
        {"setup_raw_s": 1.0, "run_raw_s": 10.0, "cpu_raw_s": 9.0, "reference_s": 2 * run.REFERENCE_S, "peak_rss_mb": 42.0},
        {"setup_raw_s": 0.6, "run_raw_s": 6.0, "cpu_raw_s": 6.0, "reference_s": run.REFERENCE_S, "peak_rss_mb": 41.0},
    ]
    metrics = run.end_to_end_metrics(rounds)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["run_s"]["value"] == pytest.approx(5.0)
    assert metrics["cpu_s"]["value"] == pytest.approx(4.5)
    assert metrics["peak_rss_mb"]["value"] == 41.0


def test_tracer_nests_spans_and_restores_attributes():
    from types import SimpleNamespace

    import totalcorr.cli  # noqa: F401  (loads every layer's module)
    from totalcorr import harness
    from tracer import Tracer, self_times

    tracer = Tracer()
    inner = tracer.wrap(lambda x: x, "inner")
    outer = tracer.wrap(lambda est: inner(est) and inner(est), "outer", kind_of=lambda args: args[0].kind)
    outer(SimpleNamespace(kind="MINE"))
    assert [(s[0], s[1], s[4]) for s in tracer.spans] == [("outer", "MINE", -1), ("inner", "MINE", 0), ("inner", "MINE", 0)]
    assert sum(self_times(tracer.spans)) == tracer.spans[0][3] - tracer.spans[0][2]

    original = harness.tc_train_step
    tracer.install()
    assert harness.tc_train_step is not original
    tracer.restore()
    assert harness.tc_train_step is original
