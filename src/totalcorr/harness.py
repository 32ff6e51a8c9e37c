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

import math
import numbers
import re
import traceback
import typing
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decomposition import (
    PathKind,
    TcEstimator,
    build_plan,
    make_tc_estimator,
    tc_evaluate,
    tc_train_step,
)
from .errors import ParameterError, TraceParseError, TrainingError, check_positive_int
from .estimators import MiEstimatorKind
from .gaussian import GaussianModel, equicorrelated_sigma, sample, solve_rho_for_tc, tc_closed_form
from .nn import DEFAULT_HIDDEN, DEFAULT_LR

ALL_ESTIMATORS = tuple(MiEstimatorKind)
ALL_PATHS = tuple(PathKind)


def _int64(text: str) -> int:
    """int(text), rejected with a ValueError where an int64 column would overflow."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} does not fit in int64")
    return value


# The columns of the two CSV files: name, numpy dtype and parse function.
# The name columns are objects, because a fixed-width string dtype would
# truncate a longer, invalid name to a valid one without an error, and so is
# the seed, which SeedSequence takes at any size.
_TRACE_ROW = (
    ("global_step", np.int64, _int64),
    ("target_tc", np.float64, float),
    ("raw_estimate", np.float64, float),
    ("smoothed_estimate", np.float64, float),
    ("term_index", np.int64, _int64),
    ("term_estimate", np.float64, float),
)
_METRICS_ROW = (
    ("estimator", object, MiEstimatorKind),
    ("path", object, PathKind),
    ("target_tc", np.float64, float),
    ("bias", np.float64, float),
    ("variance", np.float64, float),
    ("mse", np.float64, float),
    ("eval_batches", np.int64, _int64),
    ("seed", object, int),
)
TRACE_HEADER = ",".join(name for name, _, _ in _TRACE_ROW)
METRICS_HEADER = ",".join(name for name, _, _ in _METRICS_ROW)
_METRICS_FLOATS = [name for name, dtype, _ in _METRICS_ROW if dtype is np.float64]
# Steps per block of trace lines: persist_trace formats and writes one block
# at a time, so a trace file's text is never held whole in memory.
_BLOCK_STEPS = 2048
# Rows per evaluation stack. It caps a CLUB head pass's hidden buffer at
# (40, 1024) float64, 320 KB, the size of the critics' shared float32 one.
_EVAL_ROWS = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Hyperparameters of the tracking experiment; defaults follow the
    4-variable Gaussian setup (4000 batches of 64 per target, 20 hidden
    units, learning rate 1e-4, smoothing bandwidth 200)."""

    dim: int = 4
    tc_targets: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    steps_per_target: int = 4000
    batch_size: int = 64
    hidden: int = DEFAULT_HIDDEN
    lr: float = DEFAULT_LR
    smoothing_bandwidth: int = 200
    eval_batches: int = 100
    estimators: tuple[MiEstimatorKind, ...] = ALL_ESTIMATORS
    paths: tuple[PathKind, ...] = ALL_PATHS
    seed: int = 0
    fresh_networks_per_target: bool = False

    def __post_init__(self):
        for name, hint in CONFIG_FIELD_TYPES.items():
            value = getattr(self, name)
            if typing.get_origin(hint) is tuple:
                object.__setattr__(self, name, _tuple_field(name, value, typing.get_args(hint)[0]))
                continue
            kind, what = _SCALAR_TYPES.get(hint, (object, None))
            if what and (not isinstance(value, kind) or isinstance(value, bool) != (hint is bool)):
                raise ParameterError(f"{name} must be {what}, got {value!r}")
        if self.dim < 2:
            raise ParameterError(
                f"dim must be at least 2, got {self.dim}: a single variable has no MI terms"
            )
        if not self.tc_targets:
            raise ParameterError("tc_targets must be non-empty")
        for target in self.tc_targets:  # each target must be reachable at this dim
            solve_rho_for_tc(self.dim, target)
        if any(b < a for a, b in zip(self.tc_targets, self.tc_targets[1:])):
            raise ParameterError(f"tc_targets must be nondecreasing: {self.tc_targets}")
        if self.steps_per_target < 1:
            raise ParameterError("steps_per_target must be positive")
        if self.batch_size < 2:
            raise ParameterError("batch_size must be at least 2")
        if self.hidden < 1:
            raise ParameterError("hidden must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        if not 1 <= self.smoothing_bandwidth <= self.steps_per_target:
            raise ParameterError(
                "smoothing_bandwidth must be in [1, steps_per_target], got "
                f"{self.smoothing_bandwidth}"
            )
        if self.eval_batches < 2:
            raise ParameterError("eval_batches must be at least 2")
        for name, kinds in (("estimators", self.estimators), ("paths", self.paths)):
            if not kinds:
                raise ParameterError(f"{name} must be non-empty")
            for i, kind in enumerate(kinds):
                if kind in kinds[:i]:
                    raise ParameterError(f"{name} lists {kind.value} more than once")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


# Field types from the annotations; numpy integers pass as ints, bools only as bools.
CONFIG_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_SCALAR_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    bool: (bool, "a bool"),
}


def _tuple_field(name: str, value, item_type: type) -> tuple:
    """A tuple field's items as a tuple, each of the annotated type (a real
    item, never a bool, becomes a float). A string is refused whole: it
    would iterate as its characters."""
    if isinstance(value, (str, bytes, bytearray)):
        raise ParameterError(f"{name} must be a sequence of items, not a string: {value!r}")
    try:
        items = tuple(value)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence of items, got {value!r}") from None
    kind, what = _SCALAR_TYPES.get(item_type, (item_type, f"a {item_type.__name__}"))
    for item in items:
        if not isinstance(item, kind) or isinstance(item, bool):
            raise ParameterError(f"{name} item {item!r} is not {what}")
    return tuple(float(t) for t in items) if item_type is float else items


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
        if n and not self.n_terms:  # persist_trace writes one row per (step, term)
            raise ParameterError("a trace with steps must have at least one term")
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
    """Trailing moving average over the previous min(bandwidth, i+1) values.

    The first bandwidth - 1 steps average the values that exist so far, one
    np.mean each; the steps with a full window take their means in one numpy
    call over all windows. Both sum each window as np.mean of that window does,
    so the result is byte-equal to one np.mean per step, which a test pins.
    """
    if bandwidth < 1:
        raise ParameterError(f"bandwidth must be >= 1, got {bandwidth}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ParameterError(f"values must be 1-D, got shape {values.shape}")
    out = np.empty_like(values)
    head = min(bandwidth - 1, len(values))
    for i in range(head):
        out[i] = np.mean(values[: i + 1])
    if head < len(values):
        out[head:] = sliding_window_view(values, bandwidth).mean(axis=1)
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
    as an identity over the same evaluation sample. Raises TrainingError,
    naming the batch, if any estimate is not finite.

    The batches go c = max(1, _EVAL_ROWS // batch_size) at a time into one
    ``sample`` of c * batch_size rows, the same stream and bytes as c draws,
    and one ``tc_evaluate`` of the (c, N, n) stack.
    """
    eval_batches = check_positive_int("eval_batches", eval_batches)
    batch_size = check_positive_int("batch_size", batch_size)
    if eval_batches < 2:
        raise ParameterError("eval_batches must be at least 2")
    truth = tc_closed_form(model)
    chunk = max(1, _EVAL_ROWS // batch_size)
    estimates = np.empty(eval_batches)
    for start in range(0, eval_batches, chunk):
        c = min(chunk, eval_batches - start)
        stack = sample(model, c * batch_size, rng).reshape(c, batch_size, model.dim)
        estimates[start : start + c], _ = tc_evaluate(est, stack)
    bad = np.flatnonzero(~np.isfinite(estimates))
    if bad.size:
        raise TrainingError(
            f"non-finite estimate {float(estimates[bad[0]])!r} on evaluation batch {bad[0]}",
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
    data_rng = np.random.default_rng(_stream(config, est_kind, path_kind, 1))
    total_steps = len(config.tc_targets) * config.steps_per_target
    raw = np.empty(total_steps)
    terms = np.empty((total_steps, len(plan.terms)))
    metrics: list[MetricsRow] = []
    for seg, target in enumerate(config.tc_targets):
        rho = solve_rho_for_tc(config.dim, target)
        model = equicorrelated_sigma(config.dim, rho)
        if seg == 0 or config.fresh_networks_per_target:
            # segment 0's networks draw from (..., 0), a later segment's from (..., 0, seg)
            init = _stream(config, est_kind, path_kind, 0, *([seg] if seg else []))
            tc_est = make_tc_estimator(plan, est_kind, init, hidden=config.hidden, lr=config.lr)
        for step in range(seg * config.steps_per_target, (seg + 1) * config.steps_per_target):
            batch = sample(model, config.batch_size, data_rng)
            raw[step], terms[step] = tc_train_step(tc_est, batch)
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
        target=np.repeat(config.tc_targets, config.steps_per_target),
        raw=raw,
        smoothed=smooth(raw, config.smoothing_bandwidth),
        terms=terms,
    )
    return trace, metrics


def _outcome(run, *args):
    """``(run(*args), None)``, or ``(None, message)`` where it raised: the
    text of a TrainingError, the traceback of any other exception (a pool
    worker's death included). A KeyboardInterrupt is not caught."""
    try:
        return run(*args), None
    except TrainingError as exc:
        return None, str(exc)
    except Exception as exc:
        return None, "".join(traceback.format_exception(exc)).rstrip()


def _pool_outcomes(config: ExperimentConfig, combos: list, jobs: int) -> list:
    """Outcomes of the combos run in a pool of min(jobs, len(combos)) processes.

    A worker's death breaks the pool and fails every run still running or
    pending in it, not only the dead worker's own. Each run failed that way
    is run once more, alone in a fresh one-worker pool, so only a run whose
    own worker dies again stays failed.
    """
    # imported here: it pulls in multiprocessing, which a sequential run
    # never uses, at a cost of tens of milliseconds on every import
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(combos))) as pool:
        futures = [pool.submit(_run_single, config, e, p) for e, p in combos]
        outcomes = [_outcome(f.result) for f in futures]
    for i, future in enumerate(futures):
        if isinstance(future.exception(), BrokenProcessPool):
            with ProcessPoolExecutor(max_workers=1) as pool:
                outcomes[i] = _outcome(pool.submit(_run_single, config, *combos[i]).result)
    return outcomes


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run every (estimator, path) combination of the config.

    An exception aborts only its own run and is recorded in ``failures`` (see
    :func:`_outcome`). With jobs > 1 the combinations run in separate
    processes, and a worker's death is recorded the same way (see
    :func:`_pool_outcomes`); results are identical to a sequential run
    because every run owns dedicated RNG streams.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    combos = [(e, p) for e in config.estimators for p in config.paths]
    if jobs > 1:
        outcomes = _pool_outcomes(config, combos, jobs)
    else:
        outcomes = [_outcome(_run_single, config, e, p) for e, p in combos]
    result = RunResult(traces={}, metrics=[])
    for combo, (done, error) in zip(combos, outcomes):
        if error is not None:
            result.failures[combo] = error
        else:
            result.traces[combo], metrics = done
            result.metrics.extend(metrics)
    return result


def persist_trace(trace: TrainingTrace, path: str | Path) -> None:
    """Write one row per (step, term); floats carry 17 significant digits.
    The first non-finite value in file order is rejected, naming its column
    and step, before the file is opened."""
    names = ["target_tc", "raw_estimate", "smoothed_estimate"]
    names += [f"term_estimate of term {k}" for k in range(trace.n_terms)]
    cells = np.column_stack([trace.target, trace.raw, trace.smoothed, trace.terms])
    bad = ~np.isfinite(cells)
    if bad.any():
        row, c = divmod(int(np.argmax(bad)), len(names))
        value = float(cells[row, c])
        raise ParameterError(f"step {trace.steps[row]}: {names[c]} is not finite: {value!r}")
    _write_csv(path, TRACE_HEADER, _trace_blocks(trace))


def _trace_blocks(trace: TrainingTrace) -> Iterator[str]:
    """The text of the trace file, _BLOCK_STEPS steps at a time. Each float
    column of a block is formatted once, and each distinct target once; one
    ``%`` with a constant template of one line per term lays the cells out."""
    row = "".join(f"%s,%s,%s,%s,{k},%s\n" for k in range(trace.n_terms))
    width = 5 * trace.n_terms  # cells per step
    for start in range(0, len(trace.steps), _BLOCK_STEPS):
        block = slice(start, start + _BLOCK_STEPS)
        step_cells = [
            trace.steps[block].astype(np.int64).tolist(),
            _distinct_cells(trace.target[block]),
            _cells(trace.raw[block]),
            _cells(trace.smoothed[block]),
        ]
        n = len(step_cells[0])
        cells = [None] * (n * width)
        for k, term in enumerate(trace.terms[block].T):
            for c, column in enumerate(step_cells):
                cells[5 * k + c :: width] = column
            cells[5 * k + 4 :: width] = _cells(term)
        yield (row * n) % tuple(cells)


def _cells(values: np.ndarray) -> list[str]:
    """Each value with 17 significant digits, all formatted by one ``%``."""
    return (("%.17g " * len(values)) % tuple(values.tolist())).split()


def _distinct_cells(values: np.ndarray) -> list[str]:
    """:func:`_cells` with each distinct value formatted once. Values are told
    apart by their bits, not by ``==``, so ``0.0`` and ``-0.0`` keep their
    own spellings."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    spelled = _cells(distinct.view(np.float64))
    return [spelled[i] for i in index.tolist()]


def load_trace(path: str | Path) -> TrainingTrace:
    """Inverse of :func:`persist_trace`; exact round-trip of every value."""
    path = Path(path)
    rows = _read_csv(path, _TRACE_ROW)
    if not rows.size:
        return TrainingTrace(
            steps=np.empty(0, dtype=np.int64),
            target=np.empty(0),
            raw=np.empty(0),
            smoothed=np.empty(0),
            terms=np.empty((0, 0)),
        )
    n_terms = max(int(rows["term_index"].max()) + 1, 1)
    if rows.size % n_terms:
        raise _row_error(path, rows.size - 1, "row count is not a multiple of term count")
    block = rows.reshape(-1, n_terms)
    first = block[:, 0]
    # each column as persist_trace writes it: term k of step i is in row
    # i * n_terms + k and repeats the step columns of the step's first row
    expected = {
        "global_step": np.arange(1, len(block) + 1)[:, None],
        "target_tc": first["target_tc"][:, None],
        "raw_estimate": first["raw_estimate"][:, None],
        "smoothed_estimate": first["smoothed_estimate"][:, None],
        "term_index": np.arange(n_terms),
    }
    bad = np.stack([block[name] != column for name, column in expected.items()], axis=-1)
    if bad.any():
        row, c = divmod(int(np.argmax(bad)), len(expected))
        name, column = list(expected.items())[c]
        want = np.broadcast_to(column, block.shape).flat[row]
        raise _row_error(path, row, f"expected {name} {want}, got {rows[name][row]}")
    return TrainingTrace(
        steps=first["global_step"].copy(),
        target=first["target_tc"].copy(),
        raw=first["raw_estimate"].copy(),
        smoothed=first["smoothed_estimate"].copy(),
        terms=np.ascontiguousarray(block["term_estimate"]),
    )


def metrics_cells(row: MetricsRow, float_format: str = ".17g") -> list[str]:
    """The cells of one metrics row in column order: an enum by its value, an
    int in full and a float as ``float_format`` (17 digits, as in the file)."""
    cells = []
    for f in fields(row):
        value = getattr(row, f.name)
        if isinstance(value, Enum):
            cells.append(value.value)
        elif isinstance(value, (int, np.integer)):
            cells.append(str(int(value)))
        else:
            cells.append(format(float(value), float_format))
    return cells


def persist_metrics(rows: list[MetricsRow], path: str | Path) -> None:
    """Write one line per row. A non-finite value is rejected, naming its
    column and row (counted from 0, as the list indexes it), before the file
    is opened."""
    for i, r in enumerate(rows):
        for name in _METRICS_FLOATS:
            if not math.isfinite(getattr(r, name)):
                raise ParameterError(f"row {i}: {name} is not finite: {getattr(r, name)!r}")
    _write_csv(path, METRICS_HEADER, ["".join(",".join(metrics_cells(r)) + "\n" for r in rows)])


def load_metrics(path: str | Path) -> list[MetricsRow]:
    """Inverse of :func:`persist_metrics`."""
    return [MetricsRow(*row) for row in _read_csv(Path(path), _METRICS_ROW).tolist()]


def _write_csv(path: str | Path, header: str, blocks: Iterable[str]) -> None:
    """The header line, then the rows, as ASCII. The rows come in blocks of
    whole lines, and each block is written as it comes."""
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        for text in blocks:
            f.write(text)


def _read_csv(path: Path, columns: tuple) -> np.ndarray:
    """The data rows of a CSV file as one structured array, header checked
    and every float finite. Blank lines are skipped.

    numpy parses the columns. Where it rejects the file (a bad header or byte,
    a wrong field count, a bad value, or a spelling that only the column's
    parse function accepts, such as ``1_000``), the file is parsed line by
    line with those functions instead, which either names the first bad line
    or reads the file as they do.
    """
    header = ",".join(name for name, _, _ in columns)
    row = np.dtype([(name, dtype) for name, dtype, _ in columns])
    converters = {i: parse for i, (_, dtype, parse) in enumerate(columns) if dtype is object}
    rows = None
    with open(path, encoding="ascii") as f:
        try:
            if f.readline().rstrip("\r\n") == header:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(
                        f, dtype=row, delimiter=",", comments=None, ndmin=1, converters=converters
                    )
        except ValueError:  # UnicodeDecodeError included
            pass
    if rows is None:
        rows = _parse_lines(path, columns, header, row)
    floats = [name for name, dtype, _ in columns if dtype is np.float64]
    bad = np.stack([~np.isfinite(rows[name]) for name in floats], axis=-1)
    if bad.any():
        i, c = divmod(int(np.argmax(bad)), len(floats))
        raise _row_error(path, i, f"{floats[c]} is not finite: {rows[floats[c]][i]}")
    return rows


def _lines(data: bytes) -> list[str]:
    """The lines of a file as text mode splits them, at ``\\r\\n``, ``\\r`` or
    ``\\n``; a non-ASCII byte decodes to a character no header contains."""
    return re.split(r"\r\n?|\n", data.decode("ascii", "surrogateescape"))


def _row_error(path: Path, row: int, message: str) -> TraceParseError:
    """The error for data row ``row`` (from 0), at its line as :func:`_parse_lines`
    counts them: blank lines, which both parse paths skip, count too."""
    lines = _lines(path.read_bytes())
    return TraceParseError(path, [n for n, x in enumerate(lines[1:], start=2) if x][row], message)


def _parse_lines(path: Path, columns: tuple, header: str, row: np.dtype) -> np.ndarray:
    """The rows as the columns' parse functions read them, or the first bad line."""
    data = path.read_bytes()
    lines = _lines(data)
    if lines[0] != header:
        raise TraceParseError(path, 1, f"expected header {header!r}")
    try:
        data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_number = len(_lines(data[: exc.start]))
        raise TraceParseError(path, line_number, f"non-ASCII byte {data[exc.start]:#04x}") from None
    parsed = []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            message = f"expected {len(columns)} fields, got {len(fields)}"
            raise TraceParseError(path, line_number, message)
        try:
            parsed.append(tuple(parse(x) for (_, _, parse), x in zip(columns, fields)))
        except ValueError as exc:
            raise TraceParseError(path, line_number, str(exc)) from exc
    return np.array(parsed, dtype=row)
