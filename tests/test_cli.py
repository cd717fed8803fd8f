"""Command-line harness: flags, reports, baselines, and sweeps."""

import concurrent.futures
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import cli, data, engine, forest, reports
from support import write_csv


def run_args(out, extra=()):
    return ["run", "--synthetic", "80,5,2", "--episodes", "4",
            "--seed", "3", "--out", str(out), *extra]


def no_data(args):
    raise AssertionError("data loaded before the flags were checked")


def stripped_report(out_dir):
    payload = json.loads((Path(out_dir) / "report.json").read_text())
    payload.pop("total_wall_ms")
    for row in payload["curves"]:
        row.pop("wall_ms")
    return json.dumps(payload, sort_keys=True)


class TestFlagParsing:
    def test_out_of_range_threshold_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--synthetic", "40,4,2",
                      "--stop-threshold", "1.5"])
        assert exc.value.code == 2
        assert "range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--epsilon", "0", "epsilon"),
        ("--epsilon", "1", "epsilon"),
        ("--epsilon", "2.5", "epsilon"),
        ("--epsilon", "nan", "epsilon"),
        ("--gamma", "1.5", "gamma"),
        ("--gamma", "nan", "gamma"),
        ("--stop-threshold", "-0.1", "stop_threshold"),
        ("--shaping-coeff", "-1", "shaping_coeff"),
        ("--shaping-coeff", "inf", "shaping_coeff"),
        ("--shaping-coeff", "1e160", "shaping_coeff"),
        ("--shaping-coeff", "1e308", "shaping_coeff"),
        ("--advise-steps", "-1", "advise_steps"),
        ("--seed", "-1", "seed"),
        ("--episodes", "0", "episodes"),
    ])
    def test_bad_config_value_exits_2(self, flag, value, field, monkeypatch,
                                      capsys):
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--synthetic", "40,4,2", flag, value])
        assert exc.value.code == 2
        assert f"error: {field} " in capsys.readouterr().err

    def test_bad_weights_exit_2(self):
        for spec in ("1,2", "a,b,c", "-1,0.1,0.1", "nan,0.1,0.1",
                     "inf,0.1,0.1", "1,0.1,inf", "1e200,1e200,1e200"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["run", "--synthetic", "40,4,2", "--weights", spec])
            assert exc.value.code == 2

    def test_missing_data_source_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--episodes", "3"])
        assert exc.value.code == 2

    def test_bad_synthetic_spec_exits_2(self):
        for spec in ("10,3", "10,3,9", "x,y,z"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["run", "--synthetic", spec])
            assert exc.value.code == 2

    def test_non_integer_worker_count_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        monkeypatch.setenv("MCFS_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--synthetic", "40,4,2",
                      "--param", "stop-threshold", "--values", "0.2,0.8"])
        assert exc.value.code == 2
        assert "MCFS_THREADS" in capsys.readouterr().err

    def test_mode_flags_map_to_config(self):
        parser = cli.build_parser()
        args = parser.parse_args([
            "run", "--synthetic", "40,4,2", "--return-mode", "reversed",
            "--state-repr", "ae", "--behavior", "random", "--utility", "rv",
        ])
        cfg = cli._config_from_args(args, parser)
        assert cfg.return_mode == "reversed"
        assert cfg.state_mode == "autoencoder"
        assert cfg.behavior_mode == "random"
        assert cfg.utility_mode == "rv"
        # the removed weight-recalculation switch is a usage error
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["run", "--synthetic", "40,4,2",
                               "--recalc-mode", "rc"])
        assert exc.value.code == 2

    def test_default_modes(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--synthetic", "40,4,2"])
        cfg = cli._config_from_args(args, parser)
        assert cfg.return_mode == "forward"
        assert cfg.state_mode == "meta"
        assert cfg == engine.TrainConfig()


class TestRunCommand:
    def test_writes_valid_report(self, tmp_path):
        out = tmp_path / "r"
        assert cli.main(run_args(out)) == 0
        payload = reports.load_report(out / "report.json")
        assert payload["episodes_completed"] == len(payload["curves"]) == 4
        assert payload["best_eval"] == max(
            c["eval"] for c in payload["curves"]
        )
        idx = payload["best_subset"]["indices"]
        assert payload["best_subset"]["names"] == [f"f{i}" for i in idx]
        assert payload["test_metrics"] == (
            payload["baselines"]["selected"]["metrics"]
        )
        assert payload["dataset"]["informative"] == sorted(
            payload["dataset"]["informative"]
        )

    def test_curves_csv_matches_report(self, tmp_path):
        out = tmp_path / "r"
        cli.main(run_args(out))
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "episode,eval,length,loss,wall_ms"
        assert len(lines) - 1 == 4
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert 1 <= int(first[2]) <= 5

    def test_repeat_run_identical_apart_from_wall_time(self, tmp_path):
        cli.main(run_args(tmp_path / "a"))
        cli.main(run_args(tmp_path / "b"))
        assert stripped_report(tmp_path / "a") == stripped_report(
            tmp_path / "b"
        )

    def test_zero_target_probability_finishes(self, tmp_path):
        # on this seed the target policy gives a sampled action probability
        # 0, which used to stop the run with "running weight must be
        # positive"
        code = cli.main([
            "run", "--synthetic", "500,20,5", "--episodes", "10",
            "--behavior", "random", "--stop-threshold", "0",
            "--seed", "20000160", "--out", str(tmp_path / "r"),
        ])
        assert code == 0

    def test_csv_input_round_trip(self, tmp_path):
        ds, _ = data.synth_classification(60, 4, 2, seed=9)
        csv_path = tmp_path / "ds.csv"
        write_csv(ds, csv_path)
        out = tmp_path / "r"
        code = cli.main(["run", "--data", str(csv_path), "--episodes", "3",
                         "--out", str(out)])
        assert code == 0
        payload = reports.load_report(out / "report.json")
        assert payload["dataset"]["source"] == str(csv_path)
        assert payload["dataset"]["n_features"] == 4

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = cli.main(["run", "--data", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1,x,0\n2,3,1\n")
        code = cli.main(["run", "--data", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "non-numeric" in capsys.readouterr().err


class TestBaselines:
    def test_names_and_sizes(self):
        ds, _ = data.synth_classification(120, 8, 3, seed=0)
        sp = data.split_dataset(ds, 0.8, seed=0)
        table = cli.compare_baselines(sp, frozenset({1, 2}), seed=0,
                                      n_trees=10)
        assert set(table) == {"all_features", "kbest", "random", "selected"}
        assert table["all_features"]["subset"]["indices"] == list(range(8))
        assert len(table["kbest"]["subset"]["indices"]) == 4
        assert len(table["random"]["subset"]["indices"]) == 4
        assert table["selected"]["subset"]["indices"] == [1, 2]

    def test_all_features_strong_on_separable_data(self):
        # axis-separable blobs: one clean split per class
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=300)
        x = rng.normal(size=(300, 6))
        x[:, 2] += 6.0 * y
        ds = data.Dataset(x, y, [f"f{i}" for i in range(6)], 2)
        sp = data.split_dataset(ds, 0.8, seed=1)
        table = cli.compare_baselines(sp, frozenset({0}), seed=1)
        assert table["all_features"]["metrics"]["accuracy"] >= 0.95

    def test_random_subset_deterministic_per_seed(self):
        ds, _ = data.synth_classification(100, 10, 3, seed=2)
        sp = data.split_dataset(ds, 0.8, seed=2)
        a = cli.compare_baselines(sp, frozenset({0}), seed=7, n_trees=5)
        b = cli.compare_baselines(sp, frozenset({0}), seed=7, n_trees=5)
        assert a["random"]["subset"] == b["random"]["subset"]
        assert a["random"]["metrics"] == b["random"]["metrics"]

    def test_empty_selection_gets_majority_metrics(self):
        ds, _ = data.synth_classification(90, 5, 2, seed=3)
        sp = data.split_dataset(ds, 0.8, seed=3)
        table = cli.compare_baselines(sp, frozenset(), seed=3, n_trees=5)
        m = table["selected"]["metrics"]
        majority = np.bincount(sp.train.labels).argmax()
        share = float((sp.test.labels == majority).mean())
        assert_allclose(m["accuracy"], share, rtol=1e-12)


class TestSweep:
    def test_writes_per_value_reports_and_summary(self, tmp_path):
        out = tmp_path / "sw"
        code = cli.main([
            "sweep", "--synthetic", "80,5,2", "--episodes", "3",
            "--seed", "1", "--param", "stop-threshold",
            "--values", "0.2,0.8", "--out", str(out),
        ])
        assert code == 0
        for v in ("0.2", "0.8"):
            payload = reports.load_report(
                out / f"stop-threshold={v}" / "report.json"
            )
            assert payload["config"]["stop_threshold"] == float(v)
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("param,value,best_eval")

    def test_worker_count_does_not_change_results(self, tmp_path,
                                                  monkeypatch):
        argv = ["sweep", "--synthetic", "80,5,2", "--episodes", "3",
                "--seed", "4", "--param", "utility-mode",
                "--values", "rv,rvrd"]
        cli.main(argv + ["--out", str(tmp_path / "seq")])
        monkeypatch.setenv("MCFS_THREADS", "2")
        cli.main(argv + ["--out", str(tmp_path / "par")])
        for v in ("rv", "rvrd"):
            a = stripped_report(tmp_path / "seq" / f"utility-mode={v}")
            b = stripped_report(tmp_path / "par" / f"utility-mode={v}")
            assert a == b

    def test_more_arms_than_workers_match_sequential(self, tmp_path,
                                                     monkeypatch):
        # three arms and the reference job on two workers: a worker runs
        # more than one job
        argv = ["sweep", "--synthetic", "80,5,2", "--episodes", "3",
                "--seed", "5", "--param", "stop-threshold",
                "--values", "0.0,0.5,1.0"]
        assert cli.main(argv + ["--out", str(tmp_path / "seq")]) == 0
        monkeypatch.setenv("MCFS_THREADS", "2")
        assert cli.main(argv + ["--out", str(tmp_path / "par")]) == 0
        for v in ("0.0", "0.5", "1.0"):
            a = stripped_report(tmp_path / "seq" / f"stop-threshold={v}")
            b = stripped_report(tmp_path / "par" / f"stop-threshold={v}")
            assert a == b
        assert ((tmp_path / "seq" / "summary.csv").read_bytes()
                == (tmp_path / "par" / "summary.csv").read_bytes())

    def test_pool_has_at_most_one_worker_per_arm(self, tmp_path,
                                                 monkeypatch):
        started = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                started.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SpyPool)
        monkeypatch.setenv("MCFS_THREADS", "64")
        code = cli.main([
            "sweep", "--synthetic", "80,5,2", "--episodes", "3",
            "--seed", "4", "--param", "utility-mode", "--values", "rv,rvrd",
            "--out", str(tmp_path / "sw"),
        ])
        assert code == 0
        assert started and started[0] == 2

    def test_reference_forests_fitted_once(self, tmp_path, monkeypatch):
        fits = []
        original = forest.train_forest

        def counting(*args, **kwargs):
            fits.append(kwargs.get("n_trees"))
            return original(*args, **kwargs)

        monkeypatch.setattr(forest, "train_forest", counting)
        out = tmp_path / "sw"
        code = cli.main([
            "sweep", "--synthetic", "80,5,2", "--episodes", "10",
            "--seed", "5", "--param", "stop-threshold",
            "--values", "0.0,0.5,1.0", "--out", str(out),
        ])
        assert code == 0
        for v in ("0.0", "0.5", "1.0"):
            payload = reports.load_report(
                out / f"stop-threshold={v}" / "report.json"
            )
            assert payload["baselines"]["selected"]["subset"]["indices"]
        # three reference forests for the sweep, one per arm's selection
        assert fits.count(cli.FINAL_TREES) == 6

    def test_failing_arm_in_worker_exits_1(self, tmp_path, monkeypatch,
                                           capsys):
        # fork-started workers inherit the patched engine.train
        train = engine.train

        def failing_train(split, config):
            if config.stop_threshold == 1.0:
                raise ValueError("arm failed")
            return train(split, config)

        monkeypatch.setattr(engine, "train", failing_train)
        monkeypatch.setenv("MCFS_THREADS", "2")
        code = cli.main([
            "sweep", "--synthetic", "200,8,3", "--episodes", "20",
            "--param", "stop-threshold",
            "--values", "0.5,1.0", "--out", str(tmp_path / "sw"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_param_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--synthetic", "40,4,2", "--param", "gamma",
                      "--values", "0.5"])
        assert exc.value.code == 2

    def test_bad_value_exits_2(self, monkeypatch):
        # a value the field rejects, or one that repeats an arm (0.5 and
        # 0.50 give the same config), stops the sweep before any data loads
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        for param, values in (("stop-threshold", "0.2,2.0"),
                              ("advise-steps", "1.5"),
                              ("stop-threshold", "0.5,0.5"),
                              ("stop-threshold", "0.2,0.5,0.50")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", "--synthetic", "40,4,2",
                          "--param", param, "--values", values])
            assert exc.value.code == 2
