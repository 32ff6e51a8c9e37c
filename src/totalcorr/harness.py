"""Step-function tracking experiments with smoothing and error metrics.

One run trains a TC estimator continuously while the ground-truth total
correlation steps through a list of targets (networks persist across
segments), records every per-step estimate, smooths with a trailing moving
average, and measures bias/variance/MSE on fresh batches at the end of each
segment. Everything is deterministic given the config: each (estimator, path)
run draws from numpy SeedSequence((seed, estimator_index, path_index,
purpose[, segment])) with purpose 0 = network init, 1 = training data,
2 = evaluation data.
"""

from __future__ import annotations

import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decomposition import (
    PathKind,
    TcEstimator,
    build_plan,
    make_tc_estimator,
    tc_evaluate,
    tc_train_step,
)
from .errors import ParameterError, TraceParseError, TrainingError
from .estimators import MiEstimatorKind
from .gaussian import GaussianModel, equicorrelated_sigma, sample, solve_rho_for_tc, tc_closed_form

ALL_ESTIMATORS = tuple(MiEstimatorKind)
ALL_PATHS = tuple(PathKind)

TRACE_HEADER = "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate"
METRICS_HEADER = "estimator,path,target_tc,bias,variance,mse,eval_batches,seed"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Hyperparameters of the tracking experiment; defaults follow the
    4-variable Gaussian setup (4000 batches of 64 per target, 20 hidden
    units, learning rate 1e-4, smoothing bandwidth 200)."""

    dim: int = 4
    tc_targets: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    steps_per_target: int = 4000
    batch_size: int = 64
    hidden: int = 20
    lr: float = 1e-4
    smoothing_bandwidth: int = 200
    eval_batches: int = 100
    estimators: tuple[MiEstimatorKind, ...] = ALL_ESTIMATORS
    paths: tuple[PathKind, ...] = ALL_PATHS
    seed: int = 0
    fresh_networks_per_target: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tc_targets", tuple(float(t) for t in self.tc_targets))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.dim < 1:
            raise ParameterError(f"dim must be positive, got {self.dim}")
        if not self.tc_targets:
            raise ParameterError("tc_targets must be non-empty")
        if any(t < 0 for t in self.tc_targets):
            raise ParameterError("tc_targets must be nonnegative")
        if any(b < a for a, b in zip(self.tc_targets, self.tc_targets[1:])):
            raise ParameterError(f"tc_targets must be nondecreasing: {self.tc_targets}")
        if self.steps_per_target < 1:
            raise ParameterError("steps_per_target must be positive")
        if self.batch_size < 2:
            raise ParameterError("batch_size must be at least 2")
        if self.hidden < 1:
            raise ParameterError("hidden must be positive")
        if self.lr <= 0:
            raise ParameterError("lr must be positive")
        if not 1 <= self.smoothing_bandwidth <= self.steps_per_target:
            raise ParameterError(
                "smoothing_bandwidth must be in [1, steps_per_target], got "
                f"{self.smoothing_bandwidth}"
            )
        if self.eval_batches < 2:
            raise ParameterError("eval_batches must be at least 2")
        if not self.estimators:
            raise ParameterError("estimators must be non-empty")
        if not self.paths:
            raise ParameterError("paths must be non-empty")


@dataclass
class TrainingTrace:
    """Per-step record of one (estimator, path) run."""

    steps: np.ndarray
    target: np.ndarray
    raw: np.ndarray
    smoothed: np.ndarray
    terms: np.ndarray  # (n_steps, n_terms)

    def __post_init__(self):
        n = len(self.steps)
        if not (len(self.target) == len(self.raw) == len(self.smoothed) == n):
            raise ParameterError("trace columns must have equal length")
        if self.terms.ndim != 2 or self.terms.shape[0] != n:
            raise ParameterError("terms must be (n_steps, n_terms)")
        if n and not np.array_equal(self.steps, np.arange(1, n + 1)):
            raise ParameterError("steps must be contiguous from 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainingTrace):
            return NotImplemented
        return (
            np.array_equal(self.steps, other.steps)
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.raw, other.raw)
            and np.array_equal(self.smoothed, other.smoothed)
            and np.array_equal(self.terms, other.terms)
        )

    @property
    def n_terms(self) -> int:
        return self.terms.shape[1]


@dataclass(frozen=True)
class MetricsRow:
    estimator: MiEstimatorKind
    path: PathKind
    target_tc: float
    bias: float
    variance: float
    mse: float
    eval_batches: int
    seed: int


@dataclass
class RunResult:
    traces: dict[tuple[MiEstimatorKind, PathKind], TrainingTrace]
    metrics: list[MetricsRow]
    failures: dict[tuple[MiEstimatorKind, PathKind], str] = field(default_factory=dict)


def smooth(values: np.ndarray, bandwidth: int = 200) -> np.ndarray:
    """Trailing moving average over the previous min(bandwidth, i+1) values."""
    if bandwidth < 1:
        raise ParameterError(f"bandwidth must be >= 1, got {bandwidth}")
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for i in range(len(values)):
        out[i] = np.mean(values[max(0, i - bandwidth + 1) : i + 1])
    return out


def evaluate_metrics(
    est: TcEstimator,
    model: GaussianModel,
    eval_batches: int,
    rng: np.random.Generator,
    batch_size: int = 64,
) -> tuple[float, float, float]:
    """(bias, variance, mse) of frozen-parameter estimates on fresh batches.

    Variance is the biased sample variance, so mse = bias^2 + variance holds
    as an identity over the same evaluation sample. Raises TrainingError if
    any estimate is not finite.
    """
    if eval_batches < 2:
        raise ParameterError("eval_batches must be at least 2")
    truth = tc_closed_form(model)
    estimates = np.empty(eval_batches)
    for b in range(eval_batches):
        estimates[b], _ = tc_evaluate(est, sample(model, batch_size, rng))
    bad = np.flatnonzero(~np.isfinite(estimates))
    if bad.size:
        raise TrainingError(
            f"non-finite estimate {estimates[bad[0]]!r} on evaluation batch {bad[0]}",
            kind=est.kind.value,
        )
    bias = float(np.mean(estimates) - truth)
    variance = float(np.mean((estimates - np.mean(estimates)) ** 2))
    mse = float(np.mean((estimates - truth) ** 2))
    return bias, variance, mse


_EST_INDEX = {kind: i for i, kind in enumerate(MiEstimatorKind)}
_PATH_INDEX = {kind: i for i, kind in enumerate(PathKind)}


def _stream(config: ExperimentConfig, est: MiEstimatorKind, path: PathKind, *tail: int):
    return np.random.SeedSequence(
        (config.seed, _EST_INDEX[est], _PATH_INDEX[path]) + tail
    )


def _run_single(
    config: ExperimentConfig, est_kind: MiEstimatorKind, path_kind: PathKind
) -> tuple[TrainingTrace, list[MetricsRow]]:
    plan = build_plan(config.dim, path_kind)
    tc_est = make_tc_estimator(
        plan, est_kind, seed=_stream(config, est_kind, path_kind, 0),
        hidden=config.hidden, lr=config.lr,
    )
    data_rng = np.random.default_rng(_stream(config, est_kind, path_kind, 1))
    total_steps = len(config.tc_targets) * config.steps_per_target
    target_col = np.empty(total_steps)
    raw = np.empty(total_steps)
    terms = np.empty((total_steps, len(plan.terms)))
    metrics: list[MetricsRow] = []
    step = 0
    for seg, target in enumerate(config.tc_targets):
        rho = solve_rho_for_tc(config.dim, target)
        model = equicorrelated_sigma(config.dim, rho)
        if config.fresh_networks_per_target and seg > 0:
            tc_est = make_tc_estimator(
                plan, est_kind, seed=_stream(config, est_kind, path_kind, 0, seg),
                hidden=config.hidden, lr=config.lr,
            )
        for _ in range(config.steps_per_target):
            batch = sample(model, config.batch_size, data_rng)
            raw[step], terms[step] = tc_train_step(tc_est, batch)
            target_col[step] = target
            step += 1
        eval_rng = np.random.default_rng(_stream(config, est_kind, path_kind, 2, seg))
        bias, variance, mse = evaluate_metrics(
            tc_est, model, config.eval_batches, eval_rng, config.batch_size
        )
        metrics.append(
            MetricsRow(
                estimator=est_kind,
                path=path_kind,
                target_tc=target,
                bias=bias,
                variance=variance,
                mse=mse,
                eval_batches=config.eval_batches,
                seed=config.seed,
            )
        )
    trace = TrainingTrace(
        steps=np.arange(1, total_steps + 1),
        target=target_col,
        raw=raw,
        smoothed=smooth(raw, config.smoothing_bandwidth),
        terms=terms,
    )
    return trace, metrics


def _outcome(run):
    """(trace, metrics) of one run, or its failure message."""
    try:
        return run(), None
    except TrainingError as exc:
        return None, str(exc)


def _worker_outcome(future):
    try:
        return _outcome(future.result)
    except Exception as exc:  # the worker died or hit a non-training error
        return None, "".join(traceback.format_exception(exc)).rstrip()


def _pool_outcomes(config: ExperimentConfig, combos: list, jobs: int) -> list:
    """Outcomes of the combos run in a pool of ``jobs`` processes.

    A worker's death breaks the pool and fails every run still running or
    pending in it, not only the dead worker's own. Each run failed that way
    is run once more, alone in a fresh one-worker pool, so only a run whose
    own worker dies again stays failed.
    """
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_single, config, e, p) for e, p in combos]
        outcomes = [_worker_outcome(f) for f in futures]
    for i, future in enumerate(futures):
        if isinstance(future.exception(), BrokenProcessPool):
            with ProcessPoolExecutor(max_workers=1) as pool:
                outcomes[i] = _worker_outcome(pool.submit(_run_single, config, *combos[i]))
    return outcomes


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run every (estimator, path) combination of the config.

    A training failure aborts only its own run and is recorded in
    ``failures``. With jobs > 1 the combinations run in separate processes,
    and any exception of a worker, its death included, is recorded the same
    way (see :func:`_pool_outcomes`); results are identical to a sequential
    run because every run owns dedicated RNG streams.
    """
    combos = [(e, p) for e in config.estimators for p in config.paths]
    if jobs > 1:
        outcomes = _pool_outcomes(config, combos, jobs)
    else:
        outcomes = [_outcome(lambda: _run_single(config, e, p)) for e, p in combos]
    result = RunResult(traces={}, metrics=[])
    for combo, (done, error) in zip(combos, outcomes):
        if error is not None:
            result.failures[combo] = error
        else:
            result.traces[combo], metrics = done
            result.metrics.extend(metrics)
    return result


def persist_trace(trace: TrainingTrace, path: str | Path) -> None:
    """Write one row per (step, term); floats carry 17 significant digits."""
    lines = [TRACE_HEADER]
    for i in range(len(trace.steps)):
        step = str(int(trace.steps[i]))
        target = _fmt(trace.target[i])
        raw = _fmt(trace.raw[i])
        smoothed = _fmt(trace.smoothed[i])
        for k in range(trace.n_terms):
            lines.append(
                f"{step},{target},{raw},{smoothed},{k},{_fmt(trace.terms[i, k])}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


_TRACE_ROW = np.dtype(
    [
        ("step", np.int64),
        ("target", np.float64),
        ("raw", np.float64),
        ("smoothed", np.float64),
        ("term_index", np.int64),
        ("term_estimate", np.float64),
    ]
)


def _parse_row(path, line_number: int, line: str) -> tuple:
    fields = line.split(",")
    if len(fields) != 6:
        raise TraceParseError(path, line_number, f"expected 6 fields, got {len(fields)}")
    try:
        return (
            int(fields[0]),
            float(fields[1]),
            float(fields[2]),
            float(fields[3]),
            int(fields[4]),
            float(fields[5]),
        )
    except ValueError as exc:
        raise TraceParseError(path, line_number, str(exc)) from exc


def _read_trace_rows(path: Path) -> np.ndarray:
    """The data rows of a trace CSV as one structured array, header checked.

    numpy parses the columns. Where it rejects the file (a wrong field count,
    a bad number, or a spelling that only ``int``/``float`` accept, such as
    ``1_000``), the rows are parsed line by line instead, which either names
    the first bad line or reads the file as ``int``/``float`` do.
    """
    with open(path, encoding="ascii") as f:
        if f.readline().rstrip("\r\n") != TRACE_HEADER:
            raise TraceParseError(path, 1, f"expected header {TRACE_HEADER!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(f, dtype=_TRACE_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [_parse_row(path, i + 2, line) for i, line in enumerate(lines[1:]) if line]
    return np.array(rows, dtype=_TRACE_ROW)


def load_trace(path: str | Path) -> TrainingTrace:
    """Inverse of :func:`persist_trace`; exact round-trip of every value."""
    path = Path(path)
    rows = _read_trace_rows(path)
    if not rows.size:
        return TrainingTrace(
            steps=np.empty(0, dtype=np.int64),
            target=np.empty(0),
            raw=np.empty(0),
            smoothed=np.empty(0),
            terms=np.empty((0, 0)),
        )
    n_terms = int(rows["term_index"].max()) + 1
    if n_terms < 1:
        raise TraceParseError(path, 2, f"expected term_index 0, got {rows['term_index'][0]}")
    if rows.size % n_terms:
        raise TraceParseError(path, rows.size + 1, "row count is not a multiple of term count")
    block = rows.reshape(-1, n_terms)
    # every row must carry its term index and repeat its step's first row
    bad_index = block["term_index"] != np.arange(n_terms)
    bad_step = np.zeros(block.shape, dtype=bool)
    for name in ("step", "target", "raw", "smoothed"):
        bad_step |= block[name] != block[name][:, :1]
    bad = np.flatnonzero(bad_index | bad_step)
    if bad.size:
        i, k = divmod(int(bad[0]), n_terms)
        line_number = 2 + int(bad[0])
        if bad_index[i, k]:
            raise TraceParseError(
                path, line_number, f"expected term_index {k}, got {block['term_index'][i, k]}"
            )
        raise TraceParseError(path, line_number, "step columns differ within one global step")
    first = block[:, 0]
    return TrainingTrace(
        steps=first["step"].copy(),
        target=first["target"].copy(),
        raw=first["raw"].copy(),
        smoothed=first["smoothed"].copy(),
        terms=np.ascontiguousarray(block["term_estimate"]),
    )


def persist_metrics(rows: list[MetricsRow], path: str | Path) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.estimator.value,
                    r.path.value,
                    _fmt(r.target_tc),
                    _fmt(r.bias),
                    _fmt(r.variance),
                    _fmt(r.mse),
                    str(int(r.eval_batches)),
                    str(int(r.seed)),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_metrics(path: str | Path) -> list[MetricsRow]:
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise TraceParseError(path, 1, f"expected header {METRICS_HEADER!r}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise TraceParseError(path, i + 2, f"expected 8 fields, got {len(fields)}")
        try:
            rows.append(
                MetricsRow(
                    estimator=MiEstimatorKind(fields[0]),
                    path=PathKind(fields[1]),
                    target_tc=float(fields[2]),
                    bias=float(fields[3]),
                    variance=float(fields[4]),
                    mse=float(fields[5]),
                    eval_batches=int(fields[6]),
                    seed=int(fields[7]),
                )
            )
        except ValueError as exc:
            raise TraceParseError(path, i + 2, str(exc)) from exc
    return rows
