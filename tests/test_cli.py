import dataclasses
import math
import re
from enum import Enum

import numpy as np
import pytest

from totalcorr import cli
from totalcorr.cli import main, parse_config_file
from totalcorr.decomposition import PathKind
from totalcorr.errors import ConfigError
from totalcorr.estimators import LOWER_BOUNDS, MiEstimatorKind, nwj_bound
from totalcorr.harness import ExperimentConfig, load_metrics, load_trace

SMOKE_CONFIG = """\
# smoke-scale run
tc_targets = 0.5, 1.0
steps_per_target = 25
batch_size = 8
eval_batches = 4
smoothing_bandwidth = 5
seed = 3
"""


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMOKE_CONFIG)
    return path


class TestConfigParsing:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        cfg = parse_config_file(path)
        assert cfg.dim == 4
        assert cfg.tc_targets == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert cfg.steps_per_target == 4000
        assert cfg.batch_size == 64

    def test_full_round_trip_of_fields(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            "dim = 3\n"
            "tc_targets = 1, 2\n"
            "estimators = MINE, CLUB\n"
            "paths = LINE\n"
            "lr = 0.001\n"
            "fresh_networks_per_target = true\n"
        )
        cfg = parse_config_file(path)
        assert cfg.dim == 3
        assert cfg.estimators == (MiEstimatorKind.MINE, MiEstimatorKind.CLUB)
        assert cfg.paths == (PathKind.LINE,)
        assert cfg.lr == 0.001
        assert cfg.fresh_networks_per_target is True

    def test_every_field_parses_back(self, tmp_path):
        # a non-default value for each field, so a new field is covered too
        def changed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, tuple):
                return value[:1]
            return value * 2 if isinstance(value, float) else value + 1

        def written(value):
            if isinstance(value, tuple):
                return ", ".join(written(v) for v in value)
            return value.value if isinstance(value, Enum) else str(value)

        default = ExperimentConfig()
        values = {f.name: changed(getattr(default, f.name)) for f in dataclasses.fields(default)}
        assert all(v != getattr(default, k) for k, v in values.items())
        path = tmp_path / "config.txt"
        path.write_text("".join(f"{k} = {written(v)}\n" for k, v in values.items()))
        assert parse_config_file(path) == ExperimentConfig(**values)

    def test_list_items_stripped_and_empty_ones_skipped(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("tc_targets = 2, 4,\nestimators = nwj,, club ,\npaths = LINE,\n")
        cfg = parse_config_file(path)
        assert cfg.tc_targets == (2.0, 4.0)
        assert cfg.estimators == (MiEstimatorKind.NWJ, MiEstimatorKind.CLUB)
        assert cfg.paths == (PathKind.LINE,)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("banana = 4\n")
        with pytest.raises(ConfigError, match="banana"):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("steps_per_target = soon\n")
        with pytest.raises(ConfigError, match="line 1: invalid value for 'steps_per_target'"):
            parse_config_file(path)

    def test_invalid_range_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("batch_size = 1\n")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config_file(path)

    def test_only_newlines_end_a_line(self, tmp_path):
        # str.splitlines() would also end a line at \v, \f and \x1c-\x1e
        path = tmp_path / "config.txt"
        path.write_bytes(b"seed = 5\r\ndim = 3\rbatch_size = 8\n")
        assert parse_config_file(path) == ExperimentConfig(seed=5, dim=3, batch_size=8)
        for separator in "\x0b\x0c\x1c\x1d\x1e":
            path.write_text(f"seed = 1{separator}seed = 2")
            with pytest.raises(ConfigError, match="line 1: invalid value for 'seed'"):
                parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.txt")


class TestRunCommand:
    def test_smoke_run_writes_all_outputs(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(smoke_config), "--out", str(out)])
        assert code == 0
        traces = sorted(p.name for p in out.glob("trace_*.csv"))
        assert len(traces) == 8  # 4 estimators x 2 paths
        assert "trace_MINE_TREE.csv" in traces
        assert (out / "metrics.csv").is_file()
        rows = load_metrics(out / "metrics.csv")
        assert len(rows) == 16  # 8 combos x 2 targets

    def test_nonexistent_config_exits_1_naming_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.txt"), "--out", str(tmp_path)])
        assert code == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_seed_override_changes_outputs(self, smoke_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(smoke_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(smoke_config), "--out", str(out_b), "--seed", "99"]) == 0
        ta = (out_a / "trace_NWJ_LINE.csv").read_text()
        tb = (out_b / "trace_NWJ_LINE.csv").read_text()
        assert ta != tb

    def test_unknown_flag_exits_1(self, smoke_config, tmp_path, capsys):
        code = main(["run", "--config", str(smoke_config), "--out", str(tmp_path), "--frobnicate"])
        assert code == 1
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message", [(["--seed", "-1"], "seed must be nonnegative"), (["--jobs", "0"], "jobs")]
    )
    def test_bad_seed_or_jobs_exits_1(self, smoke_config, tmp_path, capsys, flags, message):
        code = main(["run", "--config", str(smoke_config), "--out", str(tmp_path / "o"), *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("estimators = NWJ, nwj", "estimators lists NWJ more than once"),
            ("paths = TREE, LINE, TREE", "paths lists TREE more than once"),
            ("tc_targets = nan", "target_tc must be finite, got nan"),
            ("tc_targets = 1e6", "target_tc=1000000.0 exceeds"),
            ("lr = nan", "lr must be positive and finite, got nan"),
            ("dim = 1", "single variable"),
        ],
    )
    def test_unrunnable_config_exits_1_before_out(self, smoke_config, tmp_path, capsys, line, message):
        # the line replaces the smoke config's own line for its key (tc_targets)
        key = line.partition(" =")[0]
        kept = [row for row in SMOKE_CONFIG.splitlines() if not row.startswith(f"{key} =")]
        smoke_config.write_text("\n".join([*kept, line]) + "\n")
        code = main(["run", "--config", str(smoke_config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_key_exits_1_naming_both_lines(self, smoke_config, tmp_path, capsys):
        smoke_config.write_text(SMOKE_CONFIG + "seed = 4\n")
        code = main(["run", "--config", str(smoke_config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 8: 'seed' is already set on line 7" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_runs_exit_2_and_keep_the_others(self, smoke_config, tmp_path, capsys, monkeypatch):
        def nan_loss(scores, ema, value_only=False):
            result = nwj_bound(scores, ema, value_only)
            return result if value_only else (result[0], math.nan, *result[2:])

        monkeypatch.setitem(LOWER_BOUNDS, MiEstimatorKind.NWJ, nan_loss)
        smoke_config.write_text(SMOKE_CONFIG + "estimators = MINE, NWJ\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(smoke_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"run failed for NWJ/{path}: non-finite loss [estimator=NWJ, term=0, step=1]"
            for path in ("TREE", "LINE")
        ]
        traces = sorted(p.name for p in out.glob("trace_*.csv"))
        assert traces == ["trace_MINE_LINE.csv", "trace_MINE_TREE.csv"]
        rows = load_metrics(out / "metrics.csv")
        assert [(r.estimator, r.path) for r in rows] == [
            (MiEstimatorKind.MINE, path) for path in (PathKind.TREE, PathKind.LINE) for _ in range(2)
        ]

    def test_single_variable_at_target_zero_exits_1_before_out(self, tmp_path, capsys):
        # such a run has no MI terms, so its trace files would hold no rows
        config = tmp_path / "config.txt"
        config.write_text("dim = 1\ntc_targets = 0\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "single variable" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_under_a_file_exits_1_with_one_error_line(self, smoke_config, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["run", "--config", str(smoke_config), "--out", str(tmp_path / "file" / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_identical_reruns(self, smoke_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--config", str(smoke_config), "--out", str(out_a)])
        main(["run", "--config", str(smoke_config), "--out", str(out_b)])
        for name in ["trace_CLUB_LINE.csv", "trace_INFONCE_TREE.csv", "metrics.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_jobs_flag_matches_sequential(self, smoke_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", "--config", str(smoke_config), "--out", str(out_a)])
        main(["run", "--config", str(smoke_config), "--out", str(out_b), "--jobs", "4"])
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "trace_MINE_LINE.csv").read_bytes() == (
            out_b / "trace_MINE_LINE.csv"
        ).read_bytes()


class TestPlotCommand:
    def test_plot_single_trace(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(smoke_config), "--out", str(out)])
        svg = tmp_path / "figure.svg"
        code = main(["plot", str(out / "trace_MINE_LINE.csv"), "--out", str(svg)])
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "trace_MINE_LINE" in content
        assert content.count("<polyline") >= 3  # raw, smoothed, truth

    def test_plot_two_traces_overlays_legend(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(smoke_config), "--out", str(out)])
        svg = tmp_path / "figure.svg"
        code = main(
            [
                "plot",
                str(out / "trace_MINE_LINE.csv"),
                str(out / "trace_CLUB_LINE.csv"),
                "--out",
                str(svg),
            ]
        )
        assert code == 0
        content = svg.read_text()
        assert "trace_MINE_LINE" in content and "trace_CLUB_LINE" in content

    def test_plot_is_byte_deterministic(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(smoke_config), "--out", str(out)])
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        main(["plot", str(out / "trace_NWJ_TREE.csv"), "--out", str(a)])
        main(["plot", str(out / "trace_NWJ_TREE.csv"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_csv_exits_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
            "1,x,0,0,0,0\n"
        )
        code = main(["plot", str(bad), "--out", str(tmp_path / "o.svg")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,2.0,0.5,0.5,0,0.5", "line 3: expected global_step 2, got 3"),
            ("2,2.0,inf,0.5,0,0.5", "line 3: raw_estimate is not finite: inf"),
            ("2,2.0,nan,0.5,0,0.5", "line 3: raw_estimate is not finite: nan"),
        ],
    )
    def test_bad_trace_exits_1_with_one_error_line(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
            f"1,2.0,0.5,0.5,0,0.5\n{row}\n"
        )
        code = main(["plot", str(bad), "--out", str(tmp_path / "o.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o.svg").exists()

    def test_value_range_beyond_a_float_exits_1_with_one_error_line(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
            "1,2.0,1e308,1e308,0,1e308\n2,2.0,-1e308,-1e308,0,-1e308\n"
        )
        code = main(["plot", str(wide), "--out", str(tmp_path / "o.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "from -1e+308 to 1e+308 span more than a float holds" in err
        assert not (tmp_path / "o.svg").exists()

    def test_out_in_missing_directory_exits_1_with_one_error_line(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
        )
        code = main(["plot", str(trace), "--out", str(tmp_path / "missing" / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_trace_renders_axes_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "global_step,target_tc,raw_estimate,smoothed_estimate,term_index,term_estimate\n"
        )
        svg = tmp_path / "empty.svg"
        assert main(["plot", str(empty), "--out", str(svg)]) == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert 'points="' not in content.split("true TC")[0].split("polyline")[0]


class TestReportCommand:
    def test_pretty_table(self, smoke_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(smoke_config), "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "--metrics", str(out / "metrics.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert "estimator" in text and "bias" in text
        assert "MINE" in text and "CLUB" in text

    def test_missing_metrics_exits_1(self, tmp_path, capsys):
        assert main(["report", "--metrics", str(tmp_path / "nope.csv")]) == 1


class TestSelftestCommand:
    def test_quick_selftest_passes(self, capsys):
        code = main(["selftest", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_full_gradient_line_carries_unfiltered_metric(self, capsys):
        main(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        line = next(x for x in lines if x.startswith("PASS gradient-integrity:"))
        assert re.search(r"over 10 points \(.*\); unfiltered metric \d\.\de[-+]\d\d$", line)

    def test_failing_check_exits_2_with_its_fail_line(self, capsys, monkeypatch):
        failing = lambda **kwargs: (False, "max (value - ln N) = 1.000e+00")
        checks = [(n, failing if n == "infonce-cap" else c, q) for n, c, q in cli._SELFTEST_CHECKS]
        monkeypatch.setattr(cli, "_SELFTEST_CHECKS", tuple(checks))
        assert main(["selftest", "--quick"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS"] * 4 + ["FAIL"]
        assert lines[-1] == "FAIL infonce-cap: max (value - ln N) = 1.000e+00"

    def test_quick_selftest_output_is_deterministic(self, capsys):
        main(["selftest", "--quick"])
        first = capsys.readouterr().out
        main(["selftest", "--quick"])
        second = capsys.readouterr().out
        assert first == second
