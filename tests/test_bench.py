import argparse
import importlib
import inspect
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from matcomplete import SolverConfig, bench, cli, gen_synthetic
from matcomplete.bench import build_config, run_beta_sweep, run_movielens, run_synth, run_trace
from matcomplete.cli import build_parser, main


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_build_config_bundles():
    cfg = build_config(5, "paper-synth", beta=13.0)
    assert cfg.eps_rho == 1e-4 and cfg.eps_lambda == 1e-6 and cfg.beta == 13.0
    cfg = build_config(130, "paper-ml")
    assert cfg.eps_lambda == 1e-2 and cfg.eps_1 == 1e-3
    with pytest.raises(ValueError, match="bundle"):
        build_config(5, "nope")


def test_synth_row_counts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_synth(str(out), n=40, r=2, p=0.3, seeds=2,
                         methods=("two_phase", "frsi"), beta=5.0)
        assert code == 0
    header, rows = read_csv_rows(out1 / "results.csv")
    assert header == ["method", "n", "r", "p", "seed", "IT", "Rer", "rank_hat", "status"]
    assert len(rows) == 4  # |methods| * |seeds|
    assert {r["method"] for r in rows} == {"two_phase", "frsi"}
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    # timings are kept apart so the main body stays reproducible
    assert (out1 / "timings.csv").exists()
    summary = json.loads((out1 / "summary.json").read_text())
    assert "two_phase" in summary["per_method"]
    assert summary["errors"] == []
    meta = json.loads((out1 / "metadata.json").read_text())
    assert meta["command"] == "synth"


def test_synth_parallel_workers_match_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    run_synth(str(serial), n=30, r=2, p=0.3, seeds=2, methods=("frsi",), threads=1)
    run_synth(str(parallel), n=30, r=2, p=0.3, seeds=2, methods=("frsi",), threads=2)
    assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()


def test_synth_records_failures_and_exit_code(tmp_path, monkeypatch):
    def boom(method, obs, config, ground_truth=None):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench, "solve_method", boom)
    code = run_synth(str(tmp_path / "fail"), n=20, r=2, p=0.3, seeds=2, methods=("frsi",))
    assert code == 1
    header, rows = read_csv_rows(tmp_path / "fail" / "results.csv")
    assert len(rows) == 2
    assert all(r["status"] == "error" for r in rows)
    summary = json.loads((tmp_path / "fail" / "summary.json").read_text())
    assert len(summary["errors"]) == 2


def test_solve_method_forwards_each_methods_config_fields(monkeypatch):
    calls = {}
    for name in bench.METHODS:
        def record(*args, _name=name, **kwargs):
            calls[_name] = (args, kwargs)
            return _name

        monkeypatch.setattr(bench, name, record)
    inst = gen_synthetic(20, 2, 0.5, seed=0)
    obs, truth = inst.obs, inst.ground_truth
    config = SolverConfig(r=3, eps_1=2e-4, eps_2=3e-4, eps_3=4e-3, it_max=17, step_svt=1.5)
    for method in bench.METHODS:
        assert bench.solve_method(method, obs, config, truth) == method
    assert calls == {
        "two_phase": ((obs, config, truth), {}),
        "frsi": ((obs, 3, 2e-4, 17), {"ground_truth": truth}),
        "svt": ((obs,), {"step": 1.5, "eps_2": 3e-4, "it_max": 17}),
        "fpc": ((obs, 4e-3, 17), {}),
    }


@pytest.mark.parametrize("run, kwargs", [
    (run_synth, dict(n=20, r=2, p=0.3, seeds=1, methods=("frsi", "magic"))),
    (run_movielens, dict(dataset="ratings.dat", methods=("frsi", "magic"))),
    (run_trace, dict(method="magic")),
], ids=["synth", "movielens", "trace"])
def test_unknown_method_is_rejected_before_any_work(tmp_path, monkeypatch, run, kwargs):
    def no_data(*args, **kwargs):
        raise AssertionError("data made before the methods were checked")

    monkeypatch.setattr(bench, "gen_synthetic", no_data)
    monkeypatch.setattr(bench, "load_movielens", no_data)
    out = tmp_path / "x"
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        run(str(out), **kwargs)
    assert not out.exists()


def test_beta_sweep_single_and_budget(tmp_path):
    out = tmp_path / "sweep"
    code = run_beta_sweep(str(out), n=30, r=2, p=0.5, betas=[5.0], w=40, eps_rho=1e-6)
    assert code == 0
    header, rows = read_csv_rows(out / "sweep.csv")
    assert header == ["beta", "iterations"]
    assert len(rows) == 1
    assert int(rows[0]["iterations"]) <= 40


def test_beta_sweep_iterations_within_budget(tmp_path):
    out = tmp_path / "sweep2"
    run_beta_sweep(str(out), n=30, r=2, p=0.5, betas=[2.0, 9.0, 19.0], w=25, eps_rho=1e-12)
    _, rows = read_csv_rows(out / "sweep.csv")
    assert len(rows) == 3
    assert all(int(r["iterations"]) <= 25 for r in rows)


def test_trace_budget_one_row(tmp_path):
    out = tmp_path / "t1"
    run_trace(str(out), "frsi", n=30, r=2, p=0.4, seed=0, it_max=1)
    header, rows = read_csv_rows(out / "trace.csv")
    assert len(rows) == 1
    assert "fejer_slack" not in header


def test_trace_two_phase_shows_phase_boundary(tmp_path):
    out = tmp_path / "t2"
    run_trace(str(out), "two_phase", n=40, r=2, p=0.5, seed=1, beta=5.0)
    _, rows = read_csv_rows(out / "trace.csv")
    phases = {r["phase"] for r in rows}
    assert phases == {"1", "2"}
    # every iterate, phase two's handed-over first one included, comes from an SVD
    tols = [float(r["svd_tol"]) for r in rows]
    assert all(1e-10 <= t <= 1e-3 for t in tols)


def test_trace_slack_column_with_ground_truth(tmp_path):
    out = tmp_path / "t3"
    run_trace(str(out), "frsi", n=30, r=2, p=0.4, seed=0, ground_truth=True, it_max=30)
    header, rows = read_csv_rows(out / "trace.csv")
    assert header[-1] == "fejer_slack"
    slack = [float(r["fejer_slack"]) for r in rows]
    assert all(s >= -1e-8 for s in slack if not np.isnan(s))


def test_trace_slack_requires_synthetic(tmp_path):
    with pytest.raises(ValueError, match="synthetic"):
        run_trace(str(tmp_path / "t4"), "frsi", dataset="whatever.dat", ground_truth=True)
    with pytest.raises(ValueError, match="fixed-rank"):
        run_trace(str(tmp_path / "t5"), "svt", ground_truth=True)


def test_movielens_toy_end_to_end(tmp_path):
    ratings = tmp_path / "u.data"
    lines = []
    rng = np.random.default_rng(0)
    for u in range(1, 7):
        for i in range(1, 7):
            if (u + i) % 2 == 0:
                lines.append(f"{u}\t{i}\t{1 + (u * i) % 5}\t0")
    ratings.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ml"
    code = run_movielens(str(out), str(ratings), "ml100k", methods=("two_phase", "frsi"),
                         ranks=(2,), beta=2.0, it_max=100)
    assert code == 0
    header, rows = read_csv_rows(out / "results.csv")
    assert header == ["method", "IT", "RMSE_omega_hat", "RMSE_test", "status"]
    assert len(rows) == 2
    for row in rows:
        assert float(row["RMSE_test"]) >= 0.0
        assert np.isfinite(float(row["RMSE_test"]))


def test_movielens_timings_cover_the_solve_alone(tmp_path, monkeypatch):
    # scoring takes 0.25 s per rmse call here, twice per row, which the
    # solve's time must not include
    ratings = tmp_path / "u.data"
    lines = [f"{u}\t{i}\t{(u * i) % 5 + 1}\t0" for u in range(1, 31) for i in range(1, 41)
             if (u + 2 * i) % 3]
    ratings.write_text("\n".join(lines) + "\n")
    rmse = bench.rmse

    def slow_rmse(obs, x):
        time.sleep(0.25)
        return rmse(obs, x)

    monkeypatch.setattr(bench, "rmse", slow_rmse)
    out = tmp_path / "ml"
    assert run_movielens(str(out), str(ratings), methods=("frsi",), ranks=(2,)) == 0
    _, rows = read_csv_rows(out / "timings.csv")
    assert [r["method"] for r in rows] == ["frsi"]
    assert float(rows[0]["time_s"]) < 0.25


def toy_ratings(path):
    """An 8-by-8 ratings file in the ml100k layout; returns its path as text."""
    lines = [f"{u}\t{i}\t{(u * i) % 5 + 1}\t0" for u in range(1, 9) for i in range(1, 9)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_movielens_records_failures_and_exit_code(tmp_path, monkeypatch):
    solve = bench.solve_method

    def frsi_fails(method, obs, config, ground_truth=None):
        if method == "frsi":
            raise RuntimeError("synthetic failure")
        return solve(method, obs, config, ground_truth)

    monkeypatch.setattr(bench, "solve_method", frsi_fails)
    out = tmp_path / "ml"
    code = run_movielens(str(out), toy_ratings(tmp_path / "u.data"), methods=("svt", "frsi"),
                         ranks=(1,), it_max=20)
    assert code == 1
    _, rows = read_csv_rows(out / "results.csv")
    assert [(r["method"], r["status"]) for r in rows][1] == ("frsi", "error")
    assert rows[0]["status"] != "error"
    assert rows[1]["IT"] == "nan" and rows[1]["RMSE_test"] == "nan"
    errors = json.loads((out / "errors.json").read_text())
    assert errors == [{"method": "frsi", "error": "RuntimeError: synthetic failure"}]


def test_trace_on_a_ratings_file(tmp_path):
    out = tmp_path / "tr"
    assert run_trace(str(out), "frsi", r=2, dataset=toy_ratings(tmp_path / "u.data"),
                     it_max=4) == 0
    header, rows = read_csv_rows(out / "trace.csv")
    assert header[:2] == ["iteration", "phase"] and "fejer_slack" not in header
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["params"]["dataset"] == str(tmp_path / "u.data")
    assert 1 <= len(rows) == meta["params"]["iterations"] <= 4


def test_movielens_rank_sweep_writes_subdirs(tmp_path):
    out = tmp_path / "sweep"
    code = run_movielens(str(out), toy_ratings(tmp_path / "u.data"), "ml100k", methods=("frsi",),
                         ranks=(1, 2), it_max=50)
    assert code == 0
    assert (out / "r1" / "results.csv").exists()
    assert (out / "r2" / "results.csv").exists()


# --- CLI wiring ---


# the options each subcommand requires, and the keywords they become
REQUIRED_OPTIONS = {
    "synth": (["--n", "30", "--r", "2", "--p", "0.3"], dict(n=30, r=2, p=0.3)),
    "beta-sweep": (["--n", "30", "--r", "2", "--p", "0.3"], dict(n=30, r=2, p=0.3)),
    "movielens": (["--dataset", "u.data"], dict(dataset="u.data")),
    "trace": (["--method", "svt"], dict(method="svt")),
}


@pytest.mark.parametrize("command", sorted(REQUIRED_OPTIONS))
def test_cli_options_are_run_function_parameters(tmp_path, monkeypatch, command):
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(REQUIRED_OPTIONS)
    parser = subparsers.choices[command]
    run = parser.get_default("run")
    params = inspect.signature(run).parameters
    for action in parser._actions:
        if action.dest != "help":
            assert action.dest in params, action.option_strings

    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return 0

    record.__signature__ = inspect.signature(run)  # the defaults the parser copies
    monkeypatch.setattr(cli, run.__name__, record)
    argv, required = REQUIRED_OPTIONS[command]
    assert main([command, *argv, "--out-dir", str(tmp_path)]) == 0
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert calls == [{**defaults, **required, "out_dir": str(tmp_path)}]
    assert set(calls[0]) == set(params)


def test_cli_synth_and_exit_code(tmp_path):
    out = tmp_path / "cli"
    code = main(["synth", "--n", "30", "--r", "2", "--p", "0.3", "--seeds", "1",
                 "--methods", "frsi", "--out-dir", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--seeds", "0"), ("--seeds", "-2"), ("--threads", "0"), ("--threads", "-3"),
])
def test_cli_synth_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "none"
    code = main(["synth", "--n", "30", "--r", "2", "--p", "0.5", "--methods", "svt",
                 "--out-dir", str(out), flag, value])
    assert code == 1
    assert f"error: {flag[2:]} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_console_scripts_resolve():
    # what pip installs: each [project.scripts] target imports from the
    # package under src/ and is callable
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]
    for name, target in project["scripts"].items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(root / "src"), name
        assert callable(getattr(module, attr)), name


def test_cli_rejects_bad_method(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--n", "30", "--r", "2", "--p", "0.3", "--methods", "bogus"])


@pytest.mark.parametrize("command", [
    ["beta-sweep", "--n", "25", "--r", "2", "--p", "0.4", "--beta", ",", "--w", "20"],
    ["movielens", "--dataset", "ratings.dat", "--r", ","],
], ids=["beta-sweep", "movielens"])
def test_cli_rejects_empty_lists(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "at least one value required" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_missing_dataset_is_clear_error(tmp_path, capsys):
    code = main(["movielens", "--dataset", str(tmp_path / "none.dat"), "--out-dir",
                 str(tmp_path / "o")])
    assert code == 1
    assert "ml100k" in capsys.readouterr().err


def test_cli_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.OUT_DIR_ENV, str(tmp_path / "envout"))
    code = main(["beta-sweep", "--n", "25", "--r", "2", "--p", "0.4", "--beta", "3.0",
                 "--w", "10"])
    assert code == 0
    assert (tmp_path / "envout" / "sweep.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["synth", "--seeds", "1", "--methods", "frsi"], "w must be at least 1"),
    (["beta-sweep", "--beta", "3.0"], "w must be at least 1"),
], ids=["synth", "beta-sweep"])
def test_cli_zero_warm_start_budget_is_an_error(tmp_path, capsys, command, message):
    code = main(command + ["--n", "20", "--r", "2", "--p", "0.3", "--w", "0",
                           "--out-dir", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_cli_beta_sweep_rejects_options_it_does_not_read(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta-sweep", "--n", "25", "--r", "2", "--p", "0.4", "--beta", "3", "--w", "20",
              "--it-max", "3", "--tol-bundle", "paper-ml", "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --it-max 3 --tol-bundle paper-ml" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_trace(tmp_path):
    out = tmp_path / "tr"
    code = main(["trace", "--method", "frsi", "--n", "25", "--r", "2", "--p", "0.4",
                 "--it-max", "3", "--out-dir", str(out)])
    assert code == 0
    _, rows = read_csv_rows(out / "trace.csv")
    assert len(rows) <= 3
