"""Command-line harness: flags, reports, baselines, and sweeps."""

import concurrent.futures
import csv
import json
import os
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import cli, data, engine, forest, reports, state
from support import write_csv


def run_args(out, extra=()):
    return ["run", "--synthetic", "80,5,2", "--episodes", "4",
            "--seed", "3", "--out", str(out), *extra]


SWEEP = ["sweep", "--param", "stop-threshold", "--values", "0.2,0.8"]


def no_data(args):
    raise AssertionError("data loaded before the flags were checked")


def run_option(dest):
    """The ``mcfs run`` argparse action that sets ``dest``."""
    run_p = cli.build_parser()._subparsers._group_actions[0].choices["run"]
    [action] = [a for a in run_p._actions if a.dest == dest]
    return action


def write_scaled_csv(ds, path, largest: float) -> None:
    """Write ``ds`` to CSV with its features scaled so that their largest
    magnitude is ``largest``."""
    scale = largest / np.abs(ds.features).max()
    write_csv(SimpleNamespace(
        feature_names=ds.feature_names, n_samples=ds.n_samples,
        features=ds.features * scale, labels=ds.labels,
    ), path)


def stripped_report(out_dir):
    payload = json.loads((Path(out_dir) / "report.json").read_text())
    payload.pop("total_wall_ms")
    for row in payload["curves"]:
        row.pop("wall_ms")
    return json.dumps(payload, sort_keys=True)


def stripped_curves(out_dir):
    with open(Path(out_dir) / "curves.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("wall_ms")
    return rows


def baselines(split, selected, seed):
    """``compare_baselines`` over the reference subsets and ``selected``."""
    subsets = {**cli.reference_subsets(split.train, seed),
               "selected": selected}
    return cli.compare_baselines(split, subsets, seed)


@pytest.fixture
def spy_pool(monkeypatch):
    """Records the function of each queued task and each pool's workers."""
    seen = SimpleNamespace(queued=[], started=[])

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            seen.queued.append(fn.func.__name__)
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            seen.started.append(len(self._processes))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return seen


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

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--param", "stop-threshold", "--values", "0.2,0.8"],
    ], ids=["run", "sweep"])
    def test_non_integer_worker_count_exits_2(self, command, monkeypatch,
                                              capsys):
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        monkeypatch.setenv("MCFS_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--synthetic", "40,4,2"])
        assert exc.value.code == 2
        assert "MCFS_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out, taken, kind", [
        (["run"], "taken", "taken", "file"),
        (SWEEP, "taken", "taken", "file"),
        (["run"], "taken/sub", "taken", "file"),
        (SWEEP, "taken/sub", "taken", "file"),
        (SWEEP, "out", "out/stop-threshold=0.8", "file"),
        (["run"], "out", "out/report.json", "directory"),
        (["run"], "out", "out/curves.csv", "directory"),
        (SWEEP, "out", "out/summary.csv", "directory"),
        (SWEEP, "out", "out/stop-threshold=0.2/curves.csv", "directory"),
    ], ids=["run", "sweep", "run-below-file", "sweep-below-file",
            "arm-is-file", "report-is-dir", "curves-is-dir",
            "summary-is-dir", "arm-curves-is-dir"])
    def test_out_naming_a_file_exits_2_before_training(
            self, command, out, taken, kind, tmp_path, monkeypatch, capsys):
        # each of these used to train to the end, then exit 1 on write
        def no_training(*args):
            raise AssertionError("training started with an unusable --out")

        monkeypatch.setattr(cli, "_load_dataset", no_data)
        monkeypatch.setattr(engine, "train", no_training)
        taken = tmp_path / taken
        taken.parent.mkdir(parents=True, exist_ok=True)
        if kind == "file":
            taken.write_text("not a directory")
        else:
            taken.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--synthetic", "40,4,2",
                      "--out", str(tmp_path / out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert repr(str(taken)) in err
        if kind == "file":
            assert "not a directory" in err
            assert taken.read_text() == "not a directory"
        else:
            assert "is a directory" in err
            assert not any(taken.iterdir())

    @pytest.mark.parametrize("command", [["run"], SWEEP],
                             ids=["run", "sweep"])
    def test_out_name_too_long_exits_2(self, command, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        out = tmp_path / ("a" * 300) / "sub"
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--synthetic", "40,4,2", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert repr(str(out)) in err
        assert "File name too long" in err

    def test_default_out_naming_a_file_exits_2(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr(cli, "_load_dataset", no_data)
        monkeypatch.chdir(tmp_path)
        Path("mcfs_out").write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--synthetic", "40,4,2"])
        assert exc.value.code == 2
        assert "'mcfs_out' exists" in capsys.readouterr().err

    def test_mode_flags_map_to_config(self):
        parser = cli.build_parser()
        args = parser.parse_args([
            "run", "--synthetic", "40,4,2", "--return-mode", "reversed",
            "--behavior", "random", "--utility", "rv",
        ])
        cfg = cli._config_from_args(args, parser)
        assert cfg.return_mode == "reversed"
        assert cfg.behavior_mode == "random"
        assert cfg.utility_mode == "rv"
        # the removed weight-recalculation and state switches are usage
        # errors
        for removed in (["--recalc-mode", "rc"], ["--state-repr", "ae"],
                        ["--state-repr", "meta"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["run", "--synthetic", "40,4,2",
                                   *removed])
            assert exc.value.code == 2

    @pytest.mark.parametrize("name", sorted(engine.MODES))
    def test_mode_flag_offers_the_field_values(self, name):
        action = run_option(name)
        assert tuple(action.choices) == engine.MODES[name]
        assert action.default == getattr(engine.TrainConfig(), name)

    def test_default_modes(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--synthetic", "40,4,2"])
        cfg = cli._config_from_args(args, parser)
        assert cfg.return_mode == "forward"
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

    def test_worker_count_does_not_change_results(self, tmp_path,
                                                  monkeypatch, capsys):
        out = tmp_path / "r"
        seen = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MCFS_THREADS", threads)
            assert cli.main(run_args(out)) == 0
            seen.append((stripped_report(out), stripped_curves(out),
                         capsys.readouterr().out))
        assert seen[0] == seen[1]

    def test_pool_queues_the_arm_before_reference_fits(self, tmp_path,
                                                       monkeypatch,
                                                       spy_pool):
        monkeypatch.setenv("MCFS_THREADS", "2")
        assert cli.main(run_args(tmp_path / "r")) == 0
        assert spy_pool.queued == ["_execute_run"] + ["_baseline_entry"] * 3
        # the arm trains in one worker while the other fits the references
        assert spy_pool.started == [2]

    def test_failing_arm_in_worker_exits_1(self, tmp_path, monkeypatch,
                                           capsys):
        # fork-started workers inherit the patched engine.train
        train = engine.train
        parent = os.getpid()

        def failing_train(split, config):
            if os.getpid() != parent:
                raise ValueError("arm failed in a worker")
            return train(split, config)

        monkeypatch.setattr(engine, "train", failing_train)
        monkeypatch.setenv("MCFS_THREADS", "2")
        assert cli.main(run_args(tmp_path / "r")) == 1
        assert "error: arm failed in a worker" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_report_failing_its_check_exits_1(self, tmp_path, monkeypatch,
                                              capsys):
        report_to_dict = reports.report_to_dict

        def non_finite(*args, **kwargs):
            return {**report_to_dict(*args, **kwargs),
                    "best_eval": float("nan")}

        monkeypatch.setattr(reports, "report_to_dict", non_finite)
        assert cli.main(run_args(tmp_path / "r")) == 1
        assert "error: report.best_eval: " in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.json").exists()

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

    def test_huge_feature_values_exit_1_before_training(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        ds, _ = data.synth_classification(60, 4, 2, seed=9)
        csv_path = tmp_path / "ds.csv"
        write_scaled_csv(ds, csv_path, 1.01 * data.MAX_ABS_FEATURE)

        def no_training(*args):
            raise AssertionError("training started on out-of-bound data")

        monkeypatch.setattr(engine, "train", no_training)
        code = cli.main(["run", "--data", str(csv_path), "--episodes", "3",
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert f"{data.MAX_ABS_FEATURE:g}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_features_below_the_cap_train_without_overflow(self, tmp_path):
        # pytest turns numpy's overflow warnings into errors, so an overflow
        # in the Q-net's Adam step fails this run
        ds, _ = data.synth_classification(60, 6, 2, seed=1)
        csv_path = tmp_path / "ds.csv"
        write_scaled_csv(ds, csv_path, 0.9 * data.MAX_ABS_FEATURE)
        out = tmp_path / "r"
        code = cli.main(["run", "--data", str(csv_path), "--episodes", "60",
                         "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = reports.load_report(out / "report.json")
        assert max(c["loss"] for c in payload["curves"]) < 1e300

    def test_two_row_csv_exits_1_with_the_minimum(self, tmp_path, capsys):
        # it loads, but its one-row training fold cannot be split again
        small = tmp_path / "small.csv"
        small.write_text("a,b,label\n1,2,0\n3,4,1\n")
        code = cli.main(["run", "--data", str(small), "--episodes", "3",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "has 2 rows" in err and f"at least {cli.MIN_ROWS}" in err
        assert not (tmp_path / "o").exists()

    def test_three_row_csv_is_the_least_that_runs(self, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("a,b,label\n1,2,0\n3,4,1\n5,1,0\n")
        out = tmp_path / "o"
        code = cli.main(["run", "--data", str(small), "--episodes", "3",
                         "--out", str(out)])
        assert code == 0
        payload = reports.load_report(out / "report.json")
        assert payload["dataset"]["n_samples"] == cli.MIN_ROWS

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = cli.main(["run", "--data", str(tmp_path / "no.csv"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_data_errors_name_the_file_as_a_string(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n")
        code = cli.main(["run", "--data", str(path), "--label-col", "nope",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"label column 'nope' not found in {str(path)!r}" in err
        assert "PosixPath" not in err

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,label\n1,x,0\n2,3,1\n")
        code = cli.main(["run", "--data", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "non-numeric" in capsys.readouterr().err


class TestBaselines:
    def test_names_and_sizes(self, monkeypatch):
        monkeypatch.setattr(cli, "FINAL_TREES", 10)
        ds, _ = data.synth_classification(120, 8, 3, seed=0)
        sp = data.split_dataset(ds, 0.8, seed=0)
        table = baselines(sp, frozenset({1, 2}), seed=0)
        assert set(table) == {"all_features", "kbest", "random", "selected"}
        assert table["all_features"]["subset"]["indices"] == list(range(8))
        assert len(table["kbest"]["subset"]["indices"]) == 4
        assert len(table["random"]["subset"]["indices"]) == 4
        assert table["selected"]["subset"]["indices"] == [1, 2]

    @pytest.mark.parametrize("d, half", [(1, 1), (2, 1), (9, 4)])
    def test_reference_subsets_take_half_the_features(self, d, half):
        ds, _ = data.synth_classification(60, d, 1, seed=d)
        subsets = cli.reference_subsets(ds, seed=0)
        assert subsets["all_features"] == list(range(d))
        for name in ("kbest", "random"):
            picked = [int(j) for j in subsets[name]]
            assert len(set(picked)) == len(picked) == half
            assert all(0 <= j < d for j in picked)

    def test_all_features_strong_on_separable_data(self):
        # axis-separable blobs: one clean split per class
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=300)
        x = rng.normal(size=(300, 6))
        x[:, 2] += 6.0 * y
        ds = data.Dataset(x, y, [f"f{i}" for i in range(6)], 2)
        sp = data.split_dataset(ds, 0.8, seed=1)
        table = baselines(sp, frozenset({0}), seed=1)
        assert table["all_features"]["metrics"]["accuracy"] >= 0.95

    def test_random_subset_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(cli, "FINAL_TREES", 5)
        ds, _ = data.synth_classification(100, 10, 3, seed=2)
        sp = data.split_dataset(ds, 0.8, seed=2)
        a = baselines(sp, frozenset({0}), seed=7)
        b = baselines(sp, frozenset({0}), seed=7)
        assert a["random"]["subset"] == b["random"]["subset"]
        assert a["random"]["metrics"] == b["random"]["metrics"]

    def test_empty_selection_gets_majority_metrics(self, monkeypatch):
        monkeypatch.setattr(cli, "FINAL_TREES", 5)
        ds, _ = data.synth_classification(90, 5, 2, seed=3)
        sp = data.split_dataset(ds, 0.8, seed=3)
        table = baselines(sp, frozenset(), seed=3)
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
        # three arms and three reference fits on two workers: a worker
        # runs more than one task
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

    def test_pool_has_at_most_one_worker_per_task(self, tmp_path,
                                                  monkeypatch, spy_pool):
        # a fork-started pool starts every worker at once, so a worker
        # beyond the queued tasks would fork only to sit idle: 2 arms and
        # 3 reference fits make 5 tasks
        monkeypatch.setenv("MCFS_THREADS", "64")
        code = cli.main([
            "sweep", "--synthetic", "80,5,2", "--episodes", "3",
            "--seed", "4", "--param", "utility-mode", "--values", "rv,rvrd",
            "--out", str(tmp_path / "sw"),
        ])
        assert code == 0
        assert spy_pool.started == [5]

    def test_arms_queued_before_reference_fits(self, tmp_path, monkeypatch,
                                               spy_pool):
        monkeypatch.setenv("MCFS_THREADS", "2")
        code = cli.main([
            "sweep", "--synthetic", "80,5,2", "--episodes", "3",
            "--seed", "4", "--param", "utility-mode", "--values", "rv,rvrd",
            "--out", str(tmp_path / "sw"),
        ])
        assert code == 0
        assert spy_pool.queued == (["_execute_run"] * 2
                                   + ["_baseline_entry"] * 3)

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

    def test_arms_share_reward_forests(self, tmp_path, monkeypatch):
        # arms in one process share the inner fold's reward table, so a
        # subset that several arms score gets one reward forest
        forests = []  # subsets given to the batched reward scorer
        scored = {}  # each arm's scored subsets, by its config
        holdout_accuracy = forest.holdout_accuracy
        reward = engine._Trainer.reward

        def counting(train, test, subsets, seeds, n_trees):
            forests.extend(frozenset(s) for s in subsets)
            return holdout_accuracy(train, test, subsets, seeds,
                                    n_trees=n_trees)

        def recording(tr, subset):
            scored.setdefault(tr.config, set()).add(subset)
            return reward(tr, subset)

        monkeypatch.setattr(forest, "holdout_accuracy", counting)
        monkeypatch.setattr(engine._Trainer, "reward", recording)
        monkeypatch.setenv("MCFS_THREADS", "1")
        common = ["--synthetic", "120,6,2", "--episodes", "15", "--seed", "2"]
        values = ("0.0", "0.5", "1.0")
        assert cli.main(["sweep", *common, "--param", "stop-threshold",
                         "--values", ",".join(values),
                         "--out", str(tmp_path / "sw")]) == 0
        distinct = set().union(*scored.values()) - {frozenset()}
        per_arm = sum(len(s - {frozenset()}) for s in scored.values())
        assert len(scored) == 3 and per_arm > len(distinct)
        # one forest per distinct non-empty subset
        assert sorted(forests, key=sorted) == sorted(distinct, key=sorted)
        for v in values:
            one = tmp_path / f"run-{v}"
            assert cli.main(["run", *common, "--stop-threshold", v,
                             "--out", str(one)]) == 0
            assert stripped_report(one) == stripped_report(
                tmp_path / "sw" / f"stop-threshold={v}")

    def test_arms_share_states(self, monkeypatch):
        # arms in one process share the inner fold's state table, so each
        # distinct subset's state is computed once for the command
        computed = []
        asked = {}  # each arm's requested subsets, by its config
        meta_stats = state.meta_stats
        represent = engine._Trainer.represent

        def counting(ds, subset):
            computed.append(subset)
            return meta_stats(ds, subset)

        def recording(tr, subset):
            asked.setdefault(tr.config, []).append(subset)
            return represent(tr, subset)

        monkeypatch.setattr(state, "meta_stats", counting)
        monkeypatch.setattr(engine._Trainer, "represent", recording)
        ds, _ = data.synth_classification(120, 6, 2, seed=2)
        configs = [engine.TrainConfig(episodes=15, stop_threshold=t, seed=2)
                   for t in (0.0, 0.5, 1.0)]
        assert len(cli._run_arms(ds, {}, configs, 1)) == 3
        distinct = set().union(*asked.values())
        assert len(asked) == 3
        assert sum(len(a) for a in asked.values()) > len(distinct)
        assert sorted(map(sorted, computed)) == sorted(map(sorted, distinct))

    def test_inner_fold_freed_before_reference_fits(self, monkeypatch):
        # the inner fold's tables would otherwise add to the memory peak
        # that the 100-tree reference fits set
        folds = []
        states = []  # every state vector the run computed
        split_dataset = data.split_dataset
        compare_baselines = cli.compare_baselines
        meta_stats = state.meta_stats

        def keeping(ds, subset):
            vector = meta_stats(ds, subset)
            states.append(weakref.ref(vector))
            return vector

        def recording(ds, ratio, seed):
            split = split_dataset(ds, ratio, seed=seed)
            folds.append(weakref.ref(split.train))
            return split

        def checking(*args, **kwargs):
            outer, inner = folds
            assert outer() is not None and inner() is None
            assert states and all(vector() is None for vector in states)
            return compare_baselines(*args, **kwargs)

        monkeypatch.setattr(state, "meta_stats", keeping)
        monkeypatch.setattr(data, "split_dataset", recording)
        monkeypatch.setattr(cli, "compare_baselines", checking)
        ds, _ = data.synth_classification(80, 5, 2, seed=1)
        configs = [engine.TrainConfig(episodes=3, stop_threshold=t, seed=1)
                   for t in (0.0, 0.5)]
        assert len(cli._run_arms(ds, {}, configs, 1)) == 2

    def test_reports_built_in_the_command_process(self, tmp_path,
                                                  monkeypatch, spy_pool):
        # fork-started workers inherit the patch, so a report built in a
        # worker would fail the command
        report_to_dict = reports.report_to_dict
        parent = os.getpid()

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("report built in a worker")
            return report_to_dict(*args, **kwargs)

        monkeypatch.setattr(reports, "report_to_dict", parent_only)
        monkeypatch.setenv("MCFS_THREADS", "2")
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--synthetic", "80,5,2", "--episodes", "3",
                         "--seed", "4", *SWEEP[1:], "--out", str(out)]) == 0
        assert spy_pool.queued[:2] == ["_execute_run"] * 2
        for v in ("0.2", "0.8"):
            reports.load_report(out / f"stop-threshold={v}" / "report.json")

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
