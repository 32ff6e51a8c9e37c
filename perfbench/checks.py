"""Output checks, each against a computation made here or a property of the method.

Every check returns a list of error strings (empty when the output passes).
Nothing here imports totalcorr or compares against a stored copy of earlier
output: trace and metrics CSVs are parsed by this module's own reader, the
trailing mean is recomputed by cumulative sum, and the target TC is
recomputed from the equicorrelated covariance by an LU log-determinant.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

TRACE_HEADER = "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate"
METRICS_HEADER = "estimator,path,target_tc,bias,variance,mse,eval_batches,seed"

# Lower bounds (MINE, NWJ, InfoNCE) stay below the truth in expectation for
# any critic. A final-window mean of per-step batch estimates may still land
# above it by its own sampling noise, and MINE's Donsker-Varadhan value is
# biased upward on a finite batch (Jensen on the log of a mean), so the band
# allows this much above the truth, in nats.
LOWER_BOUND_MARGIN = 0.5
FINAL_WINDOW = 50


def parse_trace(text: str) -> dict[str, np.ndarray]:
    """Columns of a trace CSV: one row per (step, term)."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"trace header is not {TRACE_HEADER!r}")
    table = np.array([line.split(",") for line in lines[1:] if line], dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != 6:
        raise ValueError("trace rows must have 6 fields")
    n_terms = int(table[:, 4].max()) + 1
    if table.shape[0] % n_terms:
        raise ValueError("row count is not a multiple of the term count")
    blocks = table.reshape(-1, n_terms, 6)
    return {
        "steps": blocks[:, 0, 0],
        "target": blocks[:, 0, 1],
        "raw": blocks[:, 0, 2],
        "smoothed": blocks[:, 0, 3],
        "term_index": blocks[:, :, 4],
        "terms": blocks[:, :, 5],
    }


def parse_metrics(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"metrics header is not {METRICS_HEADER!r}")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        f = line.split(",")
        if len(f) != 8:
            raise ValueError(f"metrics row has {len(f)} fields: {line!r}")
        rows.append(
            {
                "estimator": f[0],
                "path": f[1],
                "target_tc": float(f[2]),
                "bias": float(f[3]),
                "variance": float(f[4]),
                "mse": float(f[5]),
                "eval_batches": int(f[6]),
                "seed": int(f[7]),
            }
        )
    return rows


def trailing_mean(values: np.ndarray, bandwidth: int) -> np.ndarray:
    """Mean of the previous min(bandwidth, i + 1) values, by cumulative sum."""
    values = np.asarray(values, dtype=np.float64)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    end = np.arange(1, len(values) + 1)
    start = np.maximum(0, end - bandwidth)
    return (csum[end] - csum[start]) / (end - start)


def check_smoothed(raw, smoothed, bandwidth: int, label: str) -> list[str]:
    expected = trailing_mean(raw, bandwidth)
    # cumulative sums carry rounding of order eps * |partial sum|
    tol = 1e-12 * max(1.0, float(np.max(np.abs(np.cumsum(raw)), initial=0.0)))
    worst = float(np.max(np.abs(np.asarray(smoothed) - expected), initial=0.0))
    if not worst <= tol:
        return [f"{label}: smoothed column differs from the trailing mean by {worst:.3g} (> {tol:.3g})"]
    return []


def check_trace(
    trace: dict[str, np.ndarray],
    *,
    targets: tuple[float, ...],
    steps_per_target: int,
    bandwidth: int,
    n_terms: int,
    label: str,
) -> list[str]:
    """Shape, finiteness, raw = sum of terms, smoothing and the target column."""
    n = len(targets) * steps_per_target
    if trace["terms"].shape != (n, n_terms):
        return [f"{label}: expected {n} steps x {n_terms} terms, got {trace['terms'].shape}"]
    errors = []
    if not np.array_equal(trace["steps"], np.arange(1, n + 1)):
        errors.append(f"{label}: steps are not 1..{n}")
    if not np.array_equal(trace["term_index"], np.tile(np.arange(n_terms), (n, 1))):
        errors.append(f"{label}: term indices are not 0..{n_terms - 1} within each step")
    for column in ("target", "raw", "smoothed", "terms"):
        if not np.all(np.isfinite(trace[column])):
            errors.append(f"{label}: non-finite value in {column}")
    if errors:
        return errors
    terms = trace["terms"]
    gap = np.abs(trace["raw"] - terms.sum(axis=1))
    tol = 1e-12 * np.maximum(1.0, np.abs(terms).sum(axis=1))
    if np.any(gap > tol):
        i = int(np.argmax(gap - tol))
        errors.append(f"{label}: raw estimate at step {i + 1} differs from the sum of its terms by {gap[i]:.3g}")
    errors += check_smoothed(trace["raw"], trace["smoothed"], bandwidth, label)
    if not np.array_equal(trace["target"], np.repeat(np.asarray(targets, dtype=np.float64), steps_per_target)):
        errors.append(f"{label}: target column does not step through {targets}")
    return errors


def equicorrelated_tc(dim: int, rho: float) -> float:
    """-1/2 log det of (1 - rho) I + rho 11^T, by LU factorization."""
    sigma = np.full((dim, dim), rho)
    np.fill_diagonal(sigma, 1.0)
    sign, logdet = np.linalg.slogdet(sigma)
    return -0.5 * logdet if sign > 0 else math.nan


def check_target_calibration(dim: int, rhos: dict[float, float]) -> list[str]:
    errors = []
    for target, rho in rhos.items():
        tc = equicorrelated_tc(dim, rho)
        if not abs(tc - target) <= 1e-9:
            errors.append(f"target {target}: rho={rho!r} gives TC {tc!r}, off by more than 1e-9")
    return errors


def check_infonce_cap(trace: dict[str, np.ndarray], batch_size: int, label: str) -> list[str]:
    """InfoNCE is at most log N per term, so (n_terms) log N in total."""
    cap = math.log(batch_size)
    terms = trace["terms"]
    errors = []
    if np.any(terms > cap + 1e-12):
        errors.append(f"{label}: an InfoNCE term {terms.max():.17g} exceeds ln {batch_size}")
    if np.any(trace["raw"] > terms.shape[1] * cap + 1e-12):
        errors.append(f"{label}: an InfoNCE total {trace['raw'].max():.17g} exceeds {terms.shape[1]} ln {batch_size}")
    return errors


def check_lower_bound_band(
    trace: dict[str, np.ndarray], targets: tuple[float, ...], steps_per_target: int, label: str
) -> list[str]:
    errors = []
    for seg, target in enumerate(targets):
        end = (seg + 1) * steps_per_target
        window = trace["raw"][max(end - FINAL_WINDOW, seg * steps_per_target) : end]
        mean = float(np.mean(window))
        if not mean <= target + LOWER_BOUND_MARGIN:
            errors.append(
                f"{label}: final-window mean {mean:.4f} at target {target} is above "
                f"truth + {LOWER_BOUND_MARGIN}"
            )
    return errors


def check_metrics(rows: list[dict], expected: list[tuple[str, str, float]]) -> list[str]:
    """One finite row per expected (estimator, path, target); mse = bias^2 + variance."""
    errors = []
    keys = [(r["estimator"], r["path"], r["target_tc"]) for r in rows]
    if sorted(keys) != sorted(expected):
        errors.append(f"metrics rows {sorted(keys)} are not one per {sorted(expected)}")
    for r, key in zip(rows, keys):
        values = (r["bias"], r["variance"], r["mse"])
        if not all(math.isfinite(v) for v in values):
            errors.append(f"metrics {key}: non-finite value in {values}")
            continue
        gap = abs(r["mse"] - (r["bias"] ** 2 + r["variance"]))
        if not gap <= 1e-9 * max(1.0, r["mse"]):
            errors.append(f"metrics {key}: mse differs from bias^2 + variance by {gap:.3g}")
    return errors


def check_same_trace(loaded, written, label: str) -> list[str]:
    """Every column of a trace read back equals the one written, bit for bit."""
    return [
        f"{label}: load_trace returned a different {column} column"
        for column in ("steps", "target", "raw", "smoothed", "terms")
        if not np.array_equal(getattr(loaded, column), getattr(written, column))
    ]


def check_report(stdout: str, rows: list[tuple[str, str, float]]) -> list[str]:
    """A header, a rule, then one line per metrics row in file order."""
    lines = stdout.splitlines()
    if len(lines) != 2 + len(rows):
        return [f"report printed {len(lines)} lines for {len(rows)} metrics rows"]
    errors = []
    if lines[0].split()[:3] != ["estimator", "path", "target_tc"]:
        errors.append(f"report header is {lines[0]!r}")
    for line, (est, path, target) in zip(lines[2:], rows):
        if line.split()[:3] != [est, path, f"{target:g}"]:
            errors.append(f"report line {line!r} does not match row {(est, path, target)}")
    return errors


def check_svg(text: str, labels: list[str], n_points: int) -> list[str]:
    """Parses as XML; one raw series of n_points points and a legend entry per trace."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    series = [p for p in root.iter(ns + "polyline") if "stroke-opacity" in p.attrib]
    errors = []
    if len(series) != len(labels):
        errors.append(f"svg has {len(series)} raw series for {len(labels)} traces")
    for p in series:
        points = len(p.attrib["points"].split())
        if points != n_points:
            errors.append(f"svg series has {points} points, expected {n_points}")
            break
    legend = {t.text for t in root.iter(ns + "text")}
    missing = [label for label in labels if label not in legend]
    if missing:
        errors.append(f"svg legend lacks {missing}")
    return errors
