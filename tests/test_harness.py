import dataclasses
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totalcorr import estimators, harness
from totalcorr.decomposition import PathKind, build_plan, make_tc_estimator
from totalcorr.errors import ParameterError, TraceParseError, TrainingError
from totalcorr.estimators import MiEstimatorKind
from totalcorr.gaussian import equicorrelated_sigma, tc_closed_form
from totalcorr.harness import (
    METRICS_HEADER,
    ExperimentConfig,
    MetricsRow,
    TrainingTrace,
    evaluate_metrics,
    load_metrics,
    load_trace,
    persist_metrics,
    persist_trace,
    run_experiment,
    smooth,
)

TINY = dict(
    tc_targets=(0.5, 1.0),
    steps_per_target=25,
    batch_size=8,
    eval_batches=4,
    smoothing_bandwidth=5,
)


def tiny_config(**overrides):
    return ExperimentConfig(**{**TINY, **overrides})


_run_single = harness._run_single
_marker = None  # file the healthy runs touch when done; set per test


def _run_single_faulty(config, est_kind, path_kind):
    """harness._run_single for pool workers: NWJ/LINE raises, MINE/LINE kills
    its worker once the other runs have finished."""
    if (est_kind, path_kind) == (MiEstimatorKind.NWJ, PathKind.LINE):
        raise RuntimeError("injected failure")
    if (est_kind, path_kind) == (MiEstimatorKind.MINE, PathKind.LINE):
        deadline = time.monotonic() + 60.0
        while not os.path.exists(_marker) and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)  # let the parent collect the finished result
        os._exit(1)
    result = _run_single(config, est_kind, path_kind)
    open(_marker, "a").close()
    return result


def _run_single_dying(config, est_kind, path_kind):
    """harness._run_single for pool workers: MINE/TREE kills its worker at once."""
    if (est_kind, path_kind) == (MiEstimatorKind.MINE, PathKind.TREE):
        os._exit(1)
    return _run_single(config, est_kind, path_kind)


class _InlineExecutor:
    """ProcessPoolExecutor stand-in that records its size and runs each call inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _nwj_nan_loss(scores, ema, value_only=False):
    """estimators.nwj_bound with its training loss replaced by NaN."""
    if value_only:
        return estimators.nwj_bound(scores, ema, value_only=True)
    value, _, grad, ema = estimators.nwj_bound(scores, ema)
    return value, math.nan, grad, ema


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched _run_single",
)


def make_trace(raw, n_terms=2, bandwidth=3):
    raw = np.asarray(raw, dtype=np.float64)
    terms = np.empty((len(raw), n_terms))
    terms[:, :-1] = 0.25
    terms[:, -1] = raw - 0.25 * (n_terms - 1)
    return TrainingTrace(
        steps=np.arange(1, len(raw) + 1),
        target=np.full(len(raw), 2.0),
        raw=raw,
        smoothed=smooth(raw, bandwidth),
        terms=terms,
    )


class TestConfigValidation:
    def test_defaults_match_simulation_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.dim == 4
        assert cfg.tc_targets == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert cfg.steps_per_target == 4000
        assert cfg.batch_size == 64
        assert cfg.hidden == 20
        assert cfg.lr == 1e-4
        assert cfg.smoothing_bandwidth == 200
        assert len(cfg.estimators) == 4
        assert len(cfg.paths) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            dict(dim=0),
            dict(tc_targets=()),
            dict(tc_targets=(4.0, 2.0)),
            dict(tc_targets=(-1.0,)),
            dict(steps_per_target=0),
            dict(batch_size=1),
            dict(lr=0.0),
            dict(smoothing_bandwidth=0),
            dict(smoothing_bandwidth=5000),
            dict(eval_batches=1),
            dict(estimators=()),
            dict(paths=()),
            dict(seed=-1),
            dict(estimators=(MiEstimatorKind.NWJ, MiEstimatorKind.MINE, MiEstimatorKind.NWJ)),
            dict(paths=(PathKind.TREE, PathKind.TREE)),
            dict(tc_targets=(math.nan,)),
            dict(tc_targets=(2.0, math.inf)),
            dict(tc_targets=(1e6,)),
            dict(lr=math.nan),
            dict(lr=math.inf),
            dict(dim=1, tc_targets=(2.0,)),
            dict(dim=1, tc_targets=(0.0,)),
        ],
    )
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(ParameterError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(estimators=(MiEstimatorKind.CLUB, MiEstimatorKind.CLUB)), "estimators lists CLUB"),
            (dict(paths=(PathKind.LINE, PathKind.TREE, PathKind.LINE)), "paths lists LINE"),
            (dict(tc_targets=(2.0, 1e6)), "target_tc=1000000.0"),
            (dict(estimators=("MINE",)), "estimators item 'MINE' is not a MiEstimatorKind"),
            (dict(paths=(PathKind.LINE, "TREE")), "paths item 'TREE' is not a PathKind"),
            (dict(dim=1, tc_targets=(0.0,)), "single variable"),
        ],
    )
    def test_rejection_names_the_value(self, bad, message):
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(**bad)


class TestSmooth:
    def test_constant_series(self):
        out = smooth(np.full(10, 3.7), 4)
        assert np.allclose(out, 3.7)

    def test_bandwidth_one_is_identity(self):
        x = np.arange(6, dtype=float)
        assert np.array_equal(smooth(x, 1), x)

    def test_hand_computed_trailing_means(self):
        assert smooth(np.array([0.0, 1.0, 2.0, 3.0]), 2).tolist() == [0.0, 0.5, 1.5, 2.5]

    def test_output_length_matches_input(self):
        assert len(smooth(np.arange(7, dtype=float), 200)) == 7

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        st.integers(1, 10),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, xs, ys, bandwidth, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        lhs = smooth(a * x + b * y, bandwidth)
        rhs = a * smooth(x, bandwidth) + b * smooth(y, bandwidth)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ParameterError):
            smooth(np.zeros(3), 0)


class TestEvaluateMetrics:
    def test_mse_identity(self):
        est = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.INFONCE, seed=0)
        model = equicorrelated_sigma(4, 0.7)
        bias, variance, mse = evaluate_metrics(est, model, 16, np.random.default_rng(0), 16)
        assert abs(mse - (bias * bias + variance)) < 1e-9

    def test_perfect_constant_estimator(self):
        # zeroed InfoNCE critics estimate exactly 0, and truth is 0 for rho=0
        est = make_tc_estimator(build_plan(4, PathKind.LINE), MiEstimatorKind.INFONCE, seed=0)
        for term_est in est.terms:
            term_est.net.theta[:] = 0.0
        model = equicorrelated_sigma(4, 0.0)
        bias, variance, mse = evaluate_metrics(est, model, 8, np.random.default_rng(1), 8)
        assert (bias, variance, mse) == (0.0, 0.0, 0.0)

    def test_rejects_single_batch(self):
        est = make_tc_estimator(build_plan(2, PathKind.LINE), MiEstimatorKind.MINE, seed=0)
        with pytest.raises(ParameterError):
            evaluate_metrics(est, equicorrelated_sigma(2, 0.1), 1, np.random.default_rng(0))

    def test_non_finite_estimate_raises(self):
        est = make_tc_estimator(build_plan(4, PathKind.TREE), MiEstimatorKind.MINE, seed=0)
        est.terms[1].net.w2[...] = np.nan
        with pytest.raises(TrainingError, match="non-finite estimate"):
            evaluate_metrics(est, equicorrelated_sigma(4, 0.5), 4, np.random.default_rng(0), 8)


class TestRunExperiment:
    def test_tiny_run_produces_all_combos(self):
        cfg = tiny_config()
        result = run_experiment(cfg)
        assert len(result.traces) == 8
        assert not result.failures
        assert len(result.metrics) == 8 * 2  # per combo per target
        trace = result.traces[(MiEstimatorKind.MINE, PathKind.TREE)]
        assert len(trace.steps) == 50
        assert trace.n_terms == 3

    def test_segment_boundaries(self):
        cfg = tiny_config()
        trace = run_experiment(cfg).traces[(MiEstimatorKind.NWJ, PathKind.LINE)]
        changes = np.nonzero(np.diff(trace.target))[0] + 1
        assert changes.tolist() == [25]

    def test_raw_is_exact_term_sum(self):
        cfg = tiny_config(estimators=(MiEstimatorKind.INFONCE,), paths=(PathKind.LINE,))
        trace = run_experiment(cfg).traces[(MiEstimatorKind.INFONCE, PathKind.LINE)]
        for i in range(len(trace.steps)):
            assert trace.raw[i] == float(np.sum(trace.terms[i]))

    def test_deterministic_and_jobs_invariant(self):
        cfg = tiny_config(estimators=(MiEstimatorKind.MINE, MiEstimatorKind.CLUB))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        c = run_experiment(cfg, jobs=2)
        for key in a.traces:
            assert a.traces[key] == b.traces[key]
            assert a.traces[key] == c.traces[key]
        assert a.metrics == b.metrics == c.metrics

    @fork_only
    def test_worker_exception_keeps_other_runs(self, monkeypatch, tmp_path):
        cfg = tiny_config(estimators=(MiEstimatorKind.NWJ, MiEstimatorKind.CLUB))
        sequential = run_experiment(cfg)
        monkeypatch.setattr(harness, "_run_single", _run_single_faulty)
        monkeypatch.setattr(sys.modules[__name__], "_marker", str(tmp_path / "done"))
        result = run_experiment(cfg, jobs=2)
        failed = (MiEstimatorKind.NWJ, PathKind.LINE)
        assert list(result.failures) == [failed]
        assert "RuntimeError: injected failure" in result.failures[failed]
        assert len(result.traces) == 3
        assert all(trace == sequential.traces[key] for key, trace in result.traces.items())
        assert result.metrics == [r for r in sequential.metrics if (r.estimator, r.path) != failed]

    def test_sequential_exception_keeps_other_runs(self, monkeypatch, tmp_path):
        cfg = tiny_config(estimators=(MiEstimatorKind.NWJ, MiEstimatorKind.CLUB))
        sequential = run_experiment(cfg)
        monkeypatch.setattr(harness, "_run_single", _run_single_faulty)
        monkeypatch.setattr(sys.modules[__name__], "_marker", str(tmp_path / "done"))
        result = run_experiment(cfg)
        failed = (MiEstimatorKind.NWJ, PathKind.LINE)
        assert list(result.failures) == [failed]
        assert result.failures[failed].endswith("RuntimeError: injected failure")
        assert result.traces == {k: t for k, t in sequential.traces.items() if k != failed}
        assert result.metrics == [r for r in sequential.metrics if (r.estimator, r.path) != failed]

    @fork_only
    def test_worker_death_keeps_finished_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_run_single", _run_single_faulty)
        monkeypatch.setattr(sys.modules[__name__], "_marker", str(tmp_path / "done"))
        result = run_experiment(tiny_config(estimators=(MiEstimatorKind.MINE,)), jobs=2)
        assert set(result.traces) == {(MiEstimatorKind.MINE, PathKind.TREE)}
        assert "BrokenProcessPool" in result.failures[(MiEstimatorKind.MINE, PathKind.LINE)]

    @fork_only
    def test_worker_death_fails_only_its_own_run(self, monkeypatch):
        # the death breaks the pool while the other runs are running or pending
        cfg = tiny_config(estimators=(MiEstimatorKind.MINE, MiEstimatorKind.NWJ))
        sequential = run_experiment(cfg)
        monkeypatch.setattr(harness, "_run_single", _run_single_dying)
        result = run_experiment(cfg, jobs=2)
        dead = (MiEstimatorKind.MINE, PathKind.TREE)
        assert list(result.failures) == [dead]
        assert "BrokenProcessPool" in result.failures[dead]
        assert set(result.traces) == set(sequential.traces) - {dead}
        assert all(trace == sequential.traces[key] for key, trace in result.traces.items())
        assert result.metrics == [r for r in sequential.metrics if (r.estimator, r.path) != dead]

    @fork_only
    def test_worker_training_error_reads_as_in_sequential_run(self, monkeypatch):
        monkeypatch.setitem(estimators.LOWER_BOUNDS, MiEstimatorKind.NWJ, _nwj_nan_loss)
        cfg = tiny_config(estimators=(MiEstimatorKind.NWJ, MiEstimatorKind.MINE))
        sequential = run_experiment(cfg)
        parallel = run_experiment(cfg, jobs=2)
        message = "non-finite loss [estimator=NWJ, term=0, step=1]"
        expected = {(MiEstimatorKind.NWJ, p): message for p in PathKind}
        assert sequential.failures == parallel.failures == expected
        assert set(parallel.traces) == {(MiEstimatorKind.MINE, p) for p in PathKind}

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ParameterError, match="jobs"):
            run_experiment(tiny_config(), jobs=jobs)

    @pytest.mark.parametrize(
        "jobs, kinds, workers",
        [
            (64, (MiEstimatorKind.NWJ,), 2),
            (3, (MiEstimatorKind.MINE, MiEstimatorKind.NWJ), 3),
        ],
    )
    def test_pool_has_at_most_one_worker_per_run(self, monkeypatch, jobs, kinds, workers):
        # a forked pool starts all its workers up front, so it is sized to the runs
        cfg = tiny_config(estimators=kinds)
        sequential = run_experiment(cfg)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        result = run_experiment(cfg, jobs=jobs)
        assert _InlineExecutor.sizes == [workers]
        assert result.traces == sequential.traces and result.metrics == sequential.metrics

    def test_seed_changes_results(self):
        kinds = (MiEstimatorKind.NWJ,)
        a = run_experiment(tiny_config(estimators=kinds, seed=0))
        b = run_experiment(tiny_config(estimators=kinds, seed=1))
        ta = a.traces[(MiEstimatorKind.NWJ, PathKind.TREE)]
        tb = b.traces[(MiEstimatorKind.NWJ, PathKind.TREE)]
        assert not np.array_equal(ta.raw, tb.raw)

    @pytest.mark.parametrize("kind", [MiEstimatorKind.INFONCE, MiEstimatorKind.CLUB])
    def test_zero_target_tracks_zero(self, kind):
        cfg = ExperimentConfig(
            tc_targets=(0.0,),
            steps_per_target=1000,
            eval_batches=4,
            smoothing_bandwidth=200,
            estimators=(kind,),
            paths=(PathKind.LINE,),
        )
        trace = run_experiment(cfg).traces[(kind, PathKind.LINE)]
        assert abs(trace.smoothed[-1]) < 0.1

    def test_lower_bounds_sit_below_truth_at_high_target(self):
        # 10 nats is far beyond what these critics reach in a short run, so
        # the seed-averaged bias of every lower bound is decisively negative
        for kind in (MiEstimatorKind.MINE, MiEstimatorKind.NWJ, MiEstimatorKind.INFONCE):
            for path in PathKind:
                biases = []
                for seed in range(5):
                    cfg = ExperimentConfig(
                        tc_targets=(10.0,),
                        steps_per_target=300,
                        batch_size=32,
                        eval_batches=8,
                        smoothing_bandwidth=100,
                        estimators=(kind,),
                        paths=(path,),
                        seed=seed,
                    )
                    biases.append(run_experiment(cfg).metrics[0].bias)
                assert np.mean(biases) < 0

    def test_fresh_networks_flag_changes_second_segment(self):
        base = tiny_config(estimators=(MiEstimatorKind.MINE,), paths=(PathKind.LINE,))
        fresh = tiny_config(
            estimators=(MiEstimatorKind.MINE,),
            paths=(PathKind.LINE,),
            fresh_networks_per_target=True,
        )
        ta = run_experiment(base).traces[(MiEstimatorKind.MINE, PathKind.LINE)]
        tb = run_experiment(fresh).traces[(MiEstimatorKind.MINE, PathKind.LINE)]
        assert np.array_equal(ta.raw[:25], tb.raw[:25])
        assert not np.array_equal(ta.raw[25:], tb.raw[25:])


class TestTracePersistence:
    def test_round_trip(self, tmp_path):
        trace = make_trace([0.1, -0.2, 0.33333333333333331, 4e-17])
        path = tmp_path / "trace.csv"
        persist_trace(trace, path)
        assert load_trace(path) == trace

    def test_header_only_for_empty_trace(self, tmp_path):
        trace = TrainingTrace(
            steps=np.empty(0, dtype=np.int64),
            target=np.empty(0),
            raw=np.empty(0),
            smoothed=np.empty(0),
            terms=np.empty((0, 0)),
        )
        path = tmp_path / "empty.csv"
        persist_trace(trace, path)
        assert path.read_text().splitlines() == [
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate"
        ]
        assert load_trace(path) == trace

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
            "1,2.0,oops,0.1,0,0.1\n"
        )
        with pytest.raises(TraceParseError, match="line 2"):
            load_trace(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # the header is checked before a later non-ASCII byte
        for data in (b"a,b,c\n", b"a,b,c\n1,2\xe9\n"):
            path.write_bytes(data)
            with pytest.raises(TraceParseError, match="line 1: expected header"):
                load_trace(path)

    def test_inconsistent_step_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
            "1,2.0,0.5,0.5,0,0.25\n"
            "1,2.5,0.5,0.5,1,0.25\n"
        )
        with pytest.raises(TraceParseError, match="line 3"):
            load_trace(path)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1"], 3, "expected 6 fields, got 5"),
            (["1,2.0,0.5,0.5,-1,0.25"], 2, "expected term_index 0, got -1"),
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1,0.25", "2,2.0,0.5,0.5,1,0.25",
              "2,2.0,0.5,0.5,0,0.25"], 4, "expected term_index 0, got 1"),
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1,0.25", "2,2.0,0.5,0.5,0,0.25"],
             4, "row count is not a multiple of term count"),
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1,0.25", "2,2.0,0.5,0.5,0,0.25",
              "3,2.0,0.5,0.5,1,0.25"], 5, "expected global_step 2, got 3"),
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1,0.2\xe9"], 3, "non-ASCII byte 0xe9"),
            # past the first read of the file, so numpy's parser meets the byte
            ([f"{i},2.0,0.5,0.5,0,0.25" for i in range(1, 2000)] + ["2000,2.0,0.5,0.\xe9,0,0.25"],
             2001, "non-ASCII byte 0xe9"),
            (["1,2.0,0.5,0.5,0,0.5", "3,2.0,0.5,0.5,0,0.5"], 3, "expected global_step 2, got 3"),
            (["1,2.0,0.5,0.5,0,0.5", "2,2.0,inf,0.5,0,0.5"], 3, "raw_estimate is not finite: inf"),
            (["1,2.0,nan,0.5,0,0.5", "1,2.0,nan,0.5,1,0.5"], 2, "raw_estimate is not finite: nan"),
            (["1,2.0,0.5,0.5,0,0.5", "1,2.0,0.5,0.5,1,-inf"], 3, "term_estimate is not finite"),
            # a spelling only float() reads sends the file through the line parser
            (["1,2.0,0.5,0.5,0,0.5", "2,2.0,0.5,1_0,0,inf"], 3, "term_estimate is not finite"),
            # a blank line, which both parse paths skip, still counts as a line
            (["1,2.0,0.5,0.5,0,0.5", "", "2,2.0,inf,0.5,0,0.5"], 4, "raw_estimate is not finite"),
            (["1,2.0,0.5,0.5,0,0.5", "", "3,2.0,0.5,0.5,0,0.5"], 4, "expected global_step 2, got 3"),
            (["1,2.0,0.5,0.5,0,0.25", "1,2.0,0.5,0.5,1,0.25", "", "2,2.0,0.5,0.5,0,0.25"],
             5, "row count is not a multiple of term count"),
            (["", "1,2.0,0.5,0.5,0,0.5", "2,2.0,0.5,1_0,0,inf"], 4, "term_estimate is not finite"),
            # lines end at \n, \r\n or \r only, as text mode reads them: a form
            # feed or vertical tab stays in its line, which is then not blank
            (["1,2.0,0.5,0.5,0,0.25\x0c2,2.0,0.5,0.5,0,0.25"], 2, "expected 6 fields, got 11"),
            (["1,2.0,0.5,0.5,0,0.2\x0b5"], 2, "could not convert string to float"),
            (["1,2.0,0.5,0.5,0,0.5", "\x0c", "2,2.0,inf,0.5,0,0.5"], 3, "expected 6 fields, got 1"),
            (["1,2.0,0.5,0.5,0,0.25\r1,2.0,0.5,0.5,1,0.2\xe9"], 3, "non-ASCII byte 0xe9"),
        ],
    )
    def test_malformed_rows_name_their_line(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join([harness.TRACE_HEADER, *rows]) + "\n").encode("latin-1"))
        with pytest.raises(TraceParseError, match=f"line {line}.*{message}"):
            load_trace(path)

    def test_steps_without_terms_rejected(self):
        raw = np.array([0.5, 0.25])
        with pytest.raises(ParameterError, match="at least one term"):
            TrainingTrace(
                steps=np.arange(1, 3), target=raw, raw=raw, smoothed=raw, terms=np.empty((2, 0))
            )

    @pytest.mark.parametrize(
        "row",
        ["99999999999999999999,2.0,0.5,0.5,1,0.25", "1,2.0,0.5,0.5,-9223372036854775809,0.25"],
    )
    def test_integer_beyond_int64_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(harness.TRACE_HEADER + "\n1,2.0,0.5,0.5,0,0.25\n" + row + "\n")
        with pytest.raises(TraceParseError, match="line 3: .* does not fit in int64"):
            load_trace(path)

    def test_numbers_python_reads_are_accepted(self, tmp_path):
        # int() and float() accept digit separators, which numpy's parser does not
        path = tmp_path / "trace.csv"
        path.write_text(harness.TRACE_HEADER + "\n1,2_0.0,0.5,0.5,0,0.25\n")
        trace = load_trace(path)
        assert trace.target[0] == 20.0 and trace.terms[0, 0] == 0.25

    def test_values_carry_17_significant_digits(self, tmp_path):
        trace = make_trace([1 / 3], n_terms=1)
        path = tmp_path / "trace.csv"
        persist_trace(trace, path)
        assert "0.33333333333333331" in path.read_text()


class TestMetricsPersistence:
    def rows(self):
        return [
            MetricsRow(
                estimator=MiEstimatorKind.MINE,
                path=PathKind.TREE,
                target_tc=2.0,
                bias=-0.12345678901234567,
                variance=0.25,
                mse=0.265241578750190273,
                eval_batches=100,
                seed=7,
            ),
            MetricsRow(
                estimator=MiEstimatorKind.CLUB,
                path=PathKind.LINE,
                target_tc=4.0,
                bias=1.5,
                variance=0.5,
                mse=2.75,
                eval_batches=100,
                seed=7,
            ),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        persist_metrics(self.rows(), path)
        assert load_metrics(path) == self.rows()

    def test_row_fields_are_the_columns(self):
        assert [f.name for f in dataclasses.fields(MetricsRow)] == METRICS_HEADER.split(",")

    def test_schema_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        persist_metrics([], path)
        assert path.read_text() == "estimator,path,target_tc,bias,variance,mse,eval_batches,seed\n"

    def test_bad_estimator_name_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        # INFONCEX and TREES start with a valid name, which a fixed-width
        # string column would keep after truncating them
        for row, name in [
            ("NOPE,TREE,2,0,0,0,4,0", "NOPE"),
            ("INFONCEX,TREE,2,0,0,0,4,0", "INFONCEX"),
            ("MINE,TREES,2,0,0,0,4,0", "TREES"),
        ]:
            path.write_text(
                "estimator,path,target_tc,bias,variance,mse,eval_batches,seed\n" + row + "\n"
            )
            with pytest.raises(TraceParseError, match=f"line 2: '{name}' is not a valid"):
                load_metrics(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        for data in (b"a,b,c\n", b"a,b,c\n1,2\xe9\n"):
            path.write_bytes(data)
            with pytest.raises(TraceParseError, match="line 1: expected header"):
                load_metrics(path)

    def test_seed_beyond_int64_round_trips(self, tmp_path):
        # SeedSequence takes seeds of any size, and the run records them as given
        rows = [dataclasses.replace(self.rows()[0], seed=2**64)]
        path = tmp_path / "metrics.csv"
        persist_metrics(rows, path)
        assert load_metrics(path) == rows

    def test_eval_batches_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "estimator,path,target_tc,bias,variance,mse,eval_batches,seed\n"
            "MINE,TREE,2,0,0,0,4,0\n"
            "NWJ,TREE,2,0,0,0,9223372036854775808,0\n"
        )
        with pytest.raises(TraceParseError, match="line 3: .* does not fit in int64"):
            load_metrics(path)

    def test_non_finite_bias_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(METRICS_HEADER + "\nMINE,TREE,2,0,0,0,4,0\nNWJ,TREE,2,nan,0,0,4,0\n")
        with pytest.raises(TraceParseError, match="line 3: bias is not finite: nan"):
            load_metrics(path)

    def test_non_finite_bias_after_blank_line_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(METRICS_HEADER + "\nMINE,TREE,2,0,0,0,4,0\n\nNWJ,TREE,2,nan,0,0,4,0\n")
        with pytest.raises(TraceParseError, match="line 4: bias is not finite: nan"):
            load_metrics(path)

    def test_non_ascii_byte_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_bytes(
            b"estimator,path,target_tc,bias,variance,mse,eval_batches,seed\n"
            b"MINE,TREE,2,0,0,0,4,0\n"
            b"NWJ,TREE,2,0.\xe9,0,0,4,0\n"
        )
        with pytest.raises(TraceParseError, match="line 3.*non-ASCII byte 0xe9"):
            load_metrics(path)
