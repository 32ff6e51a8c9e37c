"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 5-7 share a single "desk-scale protocol": the full training
configuration (4000 steps per target, batch 64, 20 hidden units, lr 1e-4)
at targets 2.0 and 4.0 for all four estimators and both calculation paths,
repeated over five seeds. It runs once as a module fixture (~10 minutes on
one core).

Known honest failure: criterion 5's ceiling on the CLUB upper bound
(final estimate <= 1.6x truth) is exceeded by the estimator itself, not by
an implementation defect. CLUB fits q(v | u) as a Gaussian with diagonal
covariance. At the best such q, N(B u, diag C) with B = S_vu S_uu^-1 and
C = S_vv - B S_uv, a term's bound is gaussian.club_closed_form,
0.5 * sum_k [(S_vv + B S_uu B^T)_kk / C_kk - 1], and a batch of 64 expects
63/64 of it. That equals e^(2 MI) - 1 only when v is a scalar: in TREE's
first term v = (x3, x4), and the diagonal q gives 5.915 at truth 2, where
e^(2 MI) - 1 is 4.510. Summed over the terms, the fixed point is 10.211
(TREE) and 8.488 (LINE) at truth 2, and 49.450 and 40.732 at truth 4: four
to twelve times the truth, against a ceiling of 1.6 times. The trained
seed averages are of that size (8.013 and 8.006 at truth 2, 51.662 and
41.707 at truth 4). The floor (upper-bound direction) holds. The assertion
is kept as stated and fails with the measured numbers.
"""

import math
import time
import warnings

import numpy as np
import pytest

from totalcorr.decomposition import PathKind, build_plan
from totalcorr.diagnostics import (
    check_decomposition_identity,
    check_gradient_integrity,
    check_mc_oracle,
    check_target_calibration,
)
from totalcorr.estimators import MiEstimatorKind
from totalcorr.gaussian import club_closed_form, equicorrelated_sigma, solve_rho_for_tc
from totalcorr.harness import (
    ExperimentConfig,
    persist_metrics,
    persist_trace,
    run_experiment,
)
from totalcorr.svgplot import render_traces

pytestmark = pytest.mark.acceptance

PROTOCOL_TARGETS = (2.0, 4.0)
PROTOCOL_SEEDS = tuple(range(5))
STEPS_PER_TARGET = 4000
FINAL_WINDOW = 500

LOWER_BOUNDS = (MiEstimatorKind.MINE, MiEstimatorKind.NWJ, MiEstimatorKind.INFONCE)

# deterministic smoke-scale configuration pinned by tests/data/golden_metrics.csv;
# regenerate after an intentional behavior change with:
#   python3 -c "from tests.test_acceptance import write_golden; write_golden()"
GOLDEN_CONFIG = ExperimentConfig(
    tc_targets=(2.0,),
    steps_per_target=25,
    batch_size=8,
    eval_batches=4,
    smoothing_bandwidth=5,
    seed=12345,
)
GOLDEN_PATH = "tests/data/golden_metrics.csv"


def write_golden():
    persist_metrics(run_experiment(GOLDEN_CONFIG).metrics, GOLDEN_PATH)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def protocol():
    start = time.perf_counter()
    results = {
        seed: run_experiment(
            ExperimentConfig(tc_targets=PROTOCOL_TARGETS, seed=seed)
        )
        for seed in PROTOCOL_SEEDS
    }
    elapsed = time.perf_counter() - start
    for result in results.values():
        assert not result.failures
    return results, elapsed


def final_window_mean(trace, segment: int) -> float:
    end = (segment + 1) * STEPS_PER_TARGET
    return float(np.mean(trace.smoothed[end - FINAL_WINDOW : end]))


def seed_finals(results, kind, path, segment: int) -> np.ndarray:
    """Each seed's final-window mean, in seed order."""
    return np.array(
        [final_window_mean(results[seed].traces[(kind, path)], segment) for seed in PROTOCOL_SEEDS]
    )


def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean over the seeds (sample standard deviation)."""
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def club_fixed_point(truth: float, path: PathKind) -> float:
    """gaussian.club_closed_form summed over the path's terms, on the
    protocol's model at ``truth``."""
    model = equicorrelated_sigma(4, solve_rho_for_tc(4, truth))
    return sum(club_closed_form(model, t.left, t.right) for t in build_plan(4, path).terms)


def test_criterion_1_decomposition_identity():
    start = time.perf_counter()
    ok, detail = check_decomposition_identity(trials=100)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(1, ok, f"{detail}; runtime {elapsed:.2f}s (budget 5s)")


def test_criterion_2_oracle_consistency():
    start = time.perf_counter()
    ok, detail = check_mc_oracle(num_samples=100_000, seeds=20)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(2, ok, f"{detail}; runtime {elapsed:.2f}s (budget 30s)")


def test_criterion_3_target_calibration():
    start = time.perf_counter()
    ok, detail = check_target_calibration()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(3, ok, f"{detail}; runtime {elapsed:.3f}s (budget 1s)")


def test_criterion_4_gradient_integrity():
    start = time.perf_counter()
    ok, detail = check_gradient_integrity(points=10)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(4, ok, f"{detail}; runtime {elapsed:.2f}s (budget 30s)")


def test_criterion_5_bound_direction(protocol):
    results, elapsed = protocol
    violations = []
    lines = []
    for segment, truth in enumerate(PROTOCOL_TARGETS):
        for path in PathKind:
            for kind in LOWER_BOUNDS:
                finals = seed_finals(results, kind, path, segment)
                value = float(np.mean(finals))
                lines.append(
                    f"{kind.value}-{path.value}@{truth:g}={value:.3f} (SE {standard_error(finals):.3f})"
                )
                if not value <= truth + 0.1:
                    violations.append(
                        f"{kind.value}/{path.value} at truth {truth:g}: {value:.3f} > truth + 0.1"
                    )
                if not value >= 0.5 * truth:
                    violations.append(
                        f"{kind.value}/{path.value} at truth {truth:g}: {value:.3f} < 0.5 * truth"
                    )
            finals = seed_finals(results, MiEstimatorKind.CLUB, path, segment)
            club = float(np.mean(finals))
            lines.append(f"CLUB-{path.value}@{truth:g}={club:.3f} (SE {standard_error(finals):.3f})")
            if not club >= truth - 0.1:
                violations.append(
                    f"CLUB/{path.value} at truth {truth:g}: {club:.3f} < truth - 0.1"
                )
            if not club <= 1.6 * truth:
                violations.append(
                    f"CLUB/{path.value} at truth {truth:g}: {club:.3f} > 1.6 * truth "
                    f"(a diagonal-Gaussian q converges to {club_fixed_point(truth, path):.3f} "
                    "summed over the terms, 63/64 of it at batch 64; see module docstring)"
                )
    if elapsed >= 600.0:
        violations.append(f"protocol runtime {elapsed:.0f}s exceeds 600s")
    ok = not violations
    detail = (
        f"final-{FINAL_WINDOW}-step seed-averaged estimates: "
        + ", ".join(lines)
        + f"; protocol runtime {elapsed:.0f}s (budget 600s)"
    )
    report(5, ok, detail)
    assert ok, "; ".join(violations)


def test_criterion_6_path_preference(protocol):
    # soft ordering checks: violations warn with measured values, never fail
    results, _ = protocol
    target = 4.0
    segment = PROTOCOL_TARGETS.index(target)
    club_bias = {}
    for path in PathKind:
        per_seed = [
            abs(row.bias)
            for seed in PROTOCOL_SEEDS
            for row in results[seed].metrics
            if row.estimator is MiEstimatorKind.CLUB
            and row.path is path
            and row.target_tc == target
        ]
        club_bias[path] = float(np.mean(per_seed))
    soft_failures = []
    lines = [
        f"CLUB |bias|: LINE={club_bias[PathKind.LINE]:.3f} TREE={club_bias[PathKind.TREE]:.3f}"
    ]
    if not club_bias[PathKind.LINE] <= club_bias[PathKind.TREE]:
        soft_failures.append(f"CLUB |bias| LINE > TREE: {lines[-1]}")
    for kind in LOWER_BOUNDS:
        tree_finals = seed_finals(results, kind, PathKind.TREE, segment)
        line_finals = seed_finals(results, kind, PathKind.LINE, segment)
        tree, line = float(np.mean(tree_finals)), float(np.mean(line_finals))
        diff = tree_finals - line_finals
        lines.append(
            f"{kind.value}: TREE={tree:.3f} LINE={line:.3f}, TREE-LINE={np.mean(diff):.3f} "
            f"(SE {standard_error(diff):.3f}, TREE higher in {int(np.sum(diff > 0))}/{diff.size} seeds)"
        )
        if not tree >= line - 0.1:
            soft_failures.append(f"{kind.value} TREE < LINE - 0.1: {lines[-1]}")
    for failure in soft_failures:
        warnings.warn(f"path-preference ordering not observed: {failure}")
    report(6, not soft_failures, "; ".join(lines) + (" [soft]" if soft_failures else ""))


def test_criterion_7_infonce_cap(protocol):
    results, _ = protocol
    cap = 3 * math.log(64)
    worst = -math.inf
    for seed in PROTOCOL_SEEDS:
        for path in PathKind:
            trace = results[seed].traces[(MiEstimatorKind.INFONCE, path)]
            worst = max(worst, float(np.max(trace.raw)))
    ok = worst <= cap
    assert report(7, ok, f"max raw InfoNCE TC value {worst:.4f} <= cap {cap:.4f}")


def test_criterion_8_metrics_identity(protocol, tmp_path):
    results, _ = protocol
    worst = 0.0
    rows_checked = 0
    for seed in PROTOCOL_SEEDS:
        for row in results[seed].metrics:
            worst = max(worst, abs(row.mse - (row.bias**2 + row.variance)))
            rows_checked += 1
    golden_run = run_experiment(GOLDEN_CONFIG)
    for row in golden_run.metrics:
        worst = max(worst, abs(row.mse - (row.bias**2 + row.variance)))
        rows_checked += 1
    out = tmp_path / "metrics.csv"
    persist_metrics(golden_run.metrics, out)
    golden_bytes = open(GOLDEN_PATH, "rb").read()
    byte_exact = out.read_bytes() == golden_bytes
    ok = worst < 1e-9 and byte_exact
    assert report(
        8,
        ok,
        f"max |mse - bias^2 - variance| = {worst:.3e} over {rows_checked} rows; "
        f"golden CSV byte-exact: {byte_exact}",
    )


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for run_dir in ("a", "b"):
        base = tmp_path / run_dir
        base.mkdir()
        result = run_experiment(GOLDEN_CONFIG)
        blob = b""
        for (kind, path), trace in sorted(
            result.traces.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            trace_path = base / f"trace_{kind.value}_{path.value}.csv"
            persist_trace(trace, trace_path)
            blob += trace_path.read_bytes()
        metrics_path = base / "metrics.csv"
        persist_metrics(result.metrics, metrics_path)
        blob += metrics_path.read_bytes()
        key = (MiEstimatorKind.MINE, PathKind.LINE)
        blob += render_traces([("trace", result.traces[key])]).encode()
        outputs.append(blob)
    ok = outputs[0] == outputs[1]
    assert report(9, ok, "trace CSVs, metrics CSV, and SVG byte-identical across reruns")
