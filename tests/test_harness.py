"""Experiment driver: determinism, aggregation, CSV schema, and the CLI."""

import csv
import io
import json

import pytest

from jpac import harness
from jpac.admission import run_lqmd
from jpac.cli import main
from jpac.harness import (
    EXPERIMENTS,
    ROW_FIELDS,
    SUMMARY_FIELDS,
    ExperimentConfig,
    MetricsRow,
    _revalidated_support,
    _seed,
    run_experiment,
    rows_to_csv,
    summarize,
    summary_to_csv,
)
from jpac.kernel import SolverConfig, augment, multistart_solve
from jpac.network import normalize
from jpac.oracle import enumerate_l0, estimate_qbar, matches_optimum
from jpac.scenario import ScenarioConfig, generate

from conftest import criterion_run


def _row(algorithm, seed, supported, power=10.0, K=4, experiment="deflate-compare"):
    return MetricsRow(experiment, K, 0.5 if algorithm != "nlpd" else 1.0,
                      algorithm, seed, supported=supported, power_mw=power)


def _config(experiment, **override):
    """A one-cell experiment config document with the given fields replaced."""
    return {"experiment": experiment, "K_list": [4], "runs": 1, **override}


def _cli_case(doc, name, id, args=()):
    """An experiment config document, the name its error must give, and extra argv."""
    return pytest.param(doc, name, list(args), id=id)


def _value(summary, metric, **keys):
    hits = [r["value"] for r in summary
            if r["metric"] == metric and all(r[k] == v for k, v in keys.items())]
    assert len(hits) == 1, f"{metric} {keys}: {hits}"
    return hits[0]


class TestSummarize:
    def test_win_counts_fixture(self):
        rows = [_row("lqmd", s, n) for s, n in enumerate([3, 2, 2])]
        rows += [_row("nlpd", s, n) for s, n in enumerate([2, 2, 3])]
        summary = summarize(rows)
        assert _value(summary, "lqmd_wins", K=4) == 1
        assert _value(summary, "nlpd_wins", K=4) == 1
        assert _value(summary, "equal_count", K=4) == 1

    def test_identical_counts_all_equal(self):
        rows = [_row("lqmd", s, 2, power=8.0) for s in range(4)]
        rows += [_row("nlpd", s, 2, power=10.0) for s in range(4)]
        summary = summarize(rows)
        assert _value(summary, "lqmd_wins", K=4) == 0
        assert _value(summary, "nlpd_wins", K=4) == 0
        assert _value(summary, "equal_count", K=4) == 4
        assert _value(summary, "mean_power_mw_equal", algorithm="lqmd") == pytest.approx(8.0)
        assert _value(summary, "mean_power_mw_equal", algorithm="nlpd") == pytest.approx(10.0)

    def test_mixed_experiments_rejected(self):
        rows = [_row("lqmd", 0, 2), _row("lqmd", 0, 2, experiment="q-sensitivity")]
        with pytest.raises(ValueError):
            summarize(rows)

    def test_failed_rows_skipped_and_counted(self):
        rows = [_row("lqmd", 0, 2), _row("nlpd", 0, 2)]
        rows.append(MetricsRow("deflate-compare", 4, 0.5, "lqmd", 1, error="boom"))
        summary = summarize(rows)
        assert _value(summary, "rows_skipped") == 1

    def test_empty(self):
        assert summarize([]) == []


class TestRunExperiment:
    def test_deterministic_byte_identical(self):
        config = ExperimentConfig(experiment="deflate-compare", K_list=[4], runs=2,
                                  n_starts=2, seed=7)
        rows_a, summary_a = run_experiment(config)
        rows_b, summary_b = run_experiment(config)
        csv_a, csv_b = rows_to_csv(rows_a), rows_to_csv(rows_b)
        # Runtime is wall-clock; compare everything else byte for byte.
        strip = lambda text: [
            [v for i, v in enumerate(line) if ROW_FIELDS[i] != "runtime_ms"]
            for line in csv.reader(io.StringIO(text))
        ]
        assert strip(csv_a) == strip(csv_b)
        assert summary_to_csv(summary_a) == summary_to_csv(summary_b)

    def test_zero_runs_header_only(self):
        config = ExperimentConfig(experiment="deflate-compare", runs=0)
        rows, summary = run_experiment(config)
        assert rows == [] and summary == []
        assert rows_to_csv(rows) == ",".join(ROW_FIELDS) + "\n"
        assert summary_to_csv(summary) == ",".join(SUMMARY_FIELDS) + "\n"

    def test_row_consistency(self):
        config = ExperimentConfig(experiment="deflate-compare", K_list=[5], runs=3,
                                  n_starts=2, seed=1)
        rows, _ = run_experiment(config)
        assert len(rows) == 6
        for r in rows:
            assert r.error is None
            assert 0 <= r.supported <= r.K
            assert r.power_mw >= 0.0
            assert r.runtime_ms >= 0.0
        order = [(r.K, r.q, r.algorithm, r.seed) for r in rows]
        assert order == sorted(order)

    def test_approx_compare_emits_all_algorithms(self):
        config = ExperimentConfig(experiment="approx-compare", K_list=[4], runs=2,
                                  q_list=[0.5], n_starts=3, seed=2)
        rows, summary = run_experiment(config)
        algos = {r.algorithm for r in rows}
        assert algos == {"benchmark", "lq0.5", "l1"}
        assert _value(summary, "match_rate", algorithm="benchmark") == 1.0

    def test_deflate_rows_are_run_lqmd_on_the_cell(self):
        # At seed 0, run 1 deflates, its two q differ in power, and its q = 0.3
        # row moves with the solver seed.
        qs, K = [0.3, 0.7], 6
        scfg = SolverConfig(epsilon=1e-6)

        def lqmd(run, q, distance_scale=1.0):
            inst = generate(ScenarioConfig(K=K, seed=_seed(0, K, run), distance_scale=distance_scale))
            result = run_lqmd(normalize(inst), q=q, n_starts=2, config=scfg, seed=_seed(0, K, run, 1))
            return len(result.admitted), result.total_power_mw

        config = ExperimentConfig(experiment="q-sensitivity", K_list=[K], runs=2, q_list=qs,
                                  n_starts=2, epsilon=1e-6, seed=0)
        rows, _ = run_experiment(config)
        for run in range(2):
            cell = [r for r in rows if r.seed == run]
            assert [r.algorithm for r in cell] == ["lqmd-q0.3", "lqmd-q0.7"]
            assert [(r.supported, r.power_mw) for r in cell] == [lqmd(run, q) for q in qs]

        config = ExperimentConfig(experiment="scaling-ratio", K_list=[K], runs=2, q_list=[0.3],
                                  n_starts=2, epsilon=1e-6, seed=0)
        rows, _ = run_experiment(config)
        for run in range(2):
            (row,) = [r for r in rows if r.seed == run and r.algorithm == "lqmd-setup2"]
            assert (row.supported, row.power_mw) == lqmd(run, 0.3, distance_scale=0.707)

    def test_approx_compare_rows_are_the_direct_calls(self, monkeypatch):
        # One enumeration per cell; each relaxation runs from the cell's
        # solver seed and is matched against that cell's optimum.
        seed, K, qs, n_starts = 0, 5, [0.2, 0.5], 3
        scfg = SolverConfig(epsilon=1e-6)
        enumerated = []
        monkeypatch.setattr(harness, "enumerate_l0", lambda p: enumerated.append(p) or enumerate_l0(p))
        config = ExperimentConfig(experiment="approx-compare", K_list=[K], runs=2, q_list=qs,
                                  n_starts=n_starts, seed=seed)
        rows, _ = run_experiment(config)
        assert len(enumerated) == 2
        for run in range(2):
            problem = normalize(generate(ScenarioConfig(K, seed=_seed(seed, K, run))))
            exact = enumerate_l0(problem)
            cell = {r.algorithm: r for r in rows if r.seed == run}
            assert list(cell) == ["benchmark", "lq0.2", "lq0.5", "l1"]
            assert (cell["benchmark"].supported, cell["benchmark"].power_mw, cell["benchmark"].match) == (
                len(exact.best_support), float(problem.budgets @ exact.best_x) * 1e3, True)
            for algorithm, q, starts in [("lq0.2", 0.2, n_starts), ("lq0.5", 0.5, n_starts), ("l1", 1.0, 1)]:
                res = multistart_solve(augment(problem, q=q), scfg, starts, _seed(seed, K, run, 1))
                row = cell[algorithm]
                assert (row.supported, row.power_mw, row.match) == (
                    _revalidated_support(problem, res.x, res.support), float(problem.budgets @ res.x) * 1e3,
                    matches_optimum(problem, exact, res.x, res.support))

    def test_recover_qbar_rows_are_the_direct_calls(self):
        seed, K = 3, 3
        config = ExperimentConfig(experiment="recover-qbar", K_list=[K], runs=2, n_starts=3, seed=seed)
        rows, _ = run_experiment(config)
        for run, row in enumerate(rows):
            problem = normalize(generate(ScenarioConfig(K, seed=_seed(seed, K, run))))
            qbar, status = estimate_qbar(problem, n_starts=3, config=SolverConfig(epsilon=1e-6),
                                         seed=_seed(seed, K, run, 1))
            assert (row.seed, row.qbar, row.match) == (run, qbar, status == "success")

    def test_recover_qbar_rows(self):
        config = ExperimentConfig(experiment="recover-qbar", K_list=[3], runs=2,
                                  n_starts=3, epsilon=1e-4, seed=5)
        rows, summary = run_experiment(config)
        assert len(rows) == 2
        for r in rows:
            assert r.error is None
            assert r.qbar is not None and 0.0 <= r.qbar <= 1.0
        assert any(r["metric"] == "mean_qbar" for r in summary)

    def test_recover_qbar_match_is_the_power_rule(self):
        # Criterion 10's run, shared with its acceptance test.  At q = 0.06
        # run 5's answer has the optimum's support and total power within
        # 4e-4 relative, though one x entry is 1.2e-3 off: a match.
        rows, _ = criterion_run(10)
        assert [r.qbar for r in rows if r.seed == 5] == [0.06]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="deflate-compare", q_list=[1.5])
        with pytest.raises(ValueError):
            ExperimentConfig.from_json('{"experiment": "deflate-compare", "bogus": 1}')
        # Unchecked, a repeated value emits each of its instances' rows twice.
        with pytest.raises(ValueError, match="K_list must not repeat"):
            ExperimentConfig(experiment="deflate-compare", K_list=[4, 4], runs=2)
        with pytest.raises(ValueError, match="q_list must not repeat"):
            ExperimentConfig(experiment="approx-compare", q_list=[0.5, 0.5])
        # run_lqmd needs q < 1; unchecked, every LQMD row records its error.
        for experiment in ("deflate-compare", "q-sensitivity", "scaling-ratio"):
            with pytest.raises(ValueError, match="q_list must not hold 1"):
                ExperimentConfig(experiment=experiment, q_list=[1.0])
        ExperimentConfig(experiment="q-sensitivity", q_list=[0.5, 0.99])
        ExperimentConfig(experiment="approx-compare", q_list=[0.5, 1.0])
        # recover-qbar walks estimate_qbar's own q grid, from Python as from JSON.
        with pytest.raises(ValueError, match="q_list"):
            ExperimentConfig(experiment="recover-qbar", q_list=[0.3])
        assert ExperimentConfig(experiment="recover-qbar").q_list is None
        assert ExperimentConfig(experiment="deflate-compare").q_list == [0.5]


class TestCli:
    def test_generate_solve_enumerate(self, tmp_path, capsys):
        out = tmp_path / "instances"
        assert main(["generate", "--K", "4", "--count", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        files = sorted(out.glob("instance_K4_*.json"))
        assert len(files) == 2
        capsys.readouterr()

        assert main(["solve", "--instance", str(files[0]), "--algo", "lqmd",
                     "--q", "0.5", "--n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"admitted", "powers_mw", "removal_trace"}
        assert set(doc["stats"]) >= {"ridge_retries", "terminations"}

        assert main(["solve", "--instance", str(files[0]), "--algo", "nlpd"]) == 0
        capsys.readouterr()

        assert main(["enumerate", "--instance", str(files[0])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "best_support" in doc

    def test_instance_missing_field_exit_code(self, tmp_path, capsys):
        main(["generate", "--K", "3", "--seed", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        budgets = doc.pop("budgets_w")
        path.write_text(json.dumps(doc))
        for argv in (["solve", "--algo", "nlpd"], ["enumerate"], ["recover-qbar", "--n", "2"]):
            assert main(argv + ["--instance", str(path)]) == 1
            assert "budgets_w" in capsys.readouterr().err
        doc["budgets_w"] = budgets
        doc["geometry"] = [1, 2]
        path.write_text(json.dumps(doc))
        assert main(["solve", "--algo", "nlpd", "--instance", str(path)]) == 1
        assert "geometry" in capsys.readouterr().err
        del doc["geometry"]
        doc["gains"] = {"a": 1}
        path.write_text(json.dumps(doc))
        assert main(["enumerate", "--instance", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: gains")

    def test_generate_negative_count_exit_code(self, tmp_path, capsys):
        assert main(["generate", "--K", "3", "--count", "-1", "--out", str(tmp_path / "inst")]) == 1
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / "inst").exists()

    @pytest.mark.parametrize("args,name", [
        (["--K", "0"], "K"),
        (["--K", "3", "--distance-scale", "2"], "distance_scale"),
        (["--K", "3", "--seed", "-1"], "seed"),
    ], ids=["K-0", "distance_scale-2", "seed--1"])
    def test_generate_bad_scenario_exit_code(self, tmp_path, capsys, args, name):
        assert main(["generate", *args, "--out", str(tmp_path / "inst")]) == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "inst").exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # This K=3 instance needs no deflation round, so an unchecked seed
        # never reached the solver and solve exited 0; recover-qbar failed
        # only after its enumeration, with numpy's message.
        main(["generate", "--K", "3", "--seed", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        path = str(next(tmp_path.glob("*.json")))
        for argv in (["solve", "--algo", "lqmd"], ["recover-qbar", "--n", "2"]):
            assert main(argv + ["--instance", path, "--seed", "-1"]) == 1
            assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--q", "7"), ("--n", "3"), ("--seed", "-4")])
    def test_nlpd_rejects_lqmd_flags(self, tmp_path, capsys, flag, value):
        # nlpd runs the default start alone, so these would do nothing.
        main(["generate", "--K", "3", "--seed", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        path = str(next(tmp_path.glob("*.json")))
        assert main(["solve", "--algo", "nlpd", "--instance", path, flag, value]) == 1
        assert flag in capsys.readouterr().err

    def test_lqmd_defaults(self, tmp_path, capsys):
        # This K=4 instance enters the deflation loop, so q, n and seed all act.
        main(["generate", "--K", "4", "--seed", "4", "--out", str(tmp_path)])
        capsys.readouterr()
        solve = ["solve", "--algo", "lqmd", "--instance", str(next(tmp_path.glob("*.json")))]
        assert main(solve) == 0
        default = capsys.readouterr().out
        assert main(solve + ["--q", "0.5", "--n", "5", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["stats"]["solver_calls"] >= 5

    def test_recover_qbar(self, tmp_path, capsys):
        out = tmp_path / "inst"
        main(["generate", "--K", "3", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        path = next(out.glob("*.json"))
        assert main(["recover-qbar", "--instance", str(path), "--n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] in ("success", "failure")

    def test_experiment_writes_csvs(self, tmp_path, capsys):
        cfg = {"experiment": "deflate-compare", "K_list": [4], "runs": 2, "n_starts": 2}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows_text = (tmp_path / "deflate-compare_rows.csv").read_text()
        assert rows_text.splitlines()[0] == ",".join(ROW_FIELDS)
        assert len(rows_text.splitlines()) == 5
        assert (tmp_path / "deflate-compare_summary.csv").exists()

    def test_solver_trace(self, tmp_path, capsys):
        # This K=4 instance is not admissible after preprocessing, so lqmd
        # enters the deflation loop and the solver writes its trace.
        out = tmp_path / "inst"
        main(["generate", "--K", "4", "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        path = next(out.glob("*.json"))
        trace = tmp_path / "trace.jsonl"
        assert main(["solve", "--instance", str(path), "--algo", "lqmd",
                     "--n", "2", "--trace", str(trace)]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["solver_calls"] >= 1
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and all({"iter", "f", "phi", "norm_g"} <= set(rec) for rec in records)
        # One record per start and iterate, the returned one included.
        assert len(records) == stats["total_iterations"] + stats["solver_calls"]

    @pytest.mark.parametrize("doc,name,args", [
        _cli_case(_config("deflate-compare", q_list=[]), "q_list", "q_list-value0"),
        _cli_case(_config("deflate-compare", n_starts=0), "n_starts", "n_starts-0"),
    ] + [
        _cli_case(_config(experiment, **override), name, f"{experiment}-{name}")
        for experiment in EXPERIMENTS
        for override, name in [({"bogus": 1}, "bogus"),
                               ({"scenario": {"square_side": 4000.0}}, "scenario"),
                               ({"K_list": [0]}, "K_list")]
    ] + [
        # A K the exact oracle of these two experiments refuses to enumerate.
        _cli_case(_config("approx-compare", K_list=[21]), "K_list", "approx-compare-K_list-21"),
        _cli_case(_config("recover-qbar", K_list=[21]), "K_list", "recover-qbar-K_list-21"),
        # Wrongly typed values and documents.
        _cli_case(_config("deflate-compare", K_list=["4"]), "K_list", "K_list-str"),
        _cli_case(_config("deflate-compare", K_list=4), "K_list", "K_list-int"),
        _cli_case(_config("deflate-compare", K_list=[4.5]), "K_list", "K_list-float"),
        _cli_case(_config("deflate-compare", runs="1"), "runs", "runs-str"),
        _cli_case(_config("deflate-compare", q_list=["0.5"]), "q_list", "q_list-str"),
        _cli_case(_config("deflate-compare", n_starts=2.5), "n_starts", "n_starts-float"),
        _cli_case(_config("deflate-compare", n_starts=True), "n_starts", "n_starts-bool"),
        _cli_case(_config("deflate-compare", seed=True), "seed", "seed-bool"),
        _cli_case({}, "experiment", "no-experiment"),
        _cli_case([], "object", "not-an-object"),
        # Scenario overrides that once ran with K or seed silently ignored, or
        # with scaling-ratio's two setups both moved.
        _cli_case(_config("deflate-compare", scenario={"K": 50}), "scenario", "scenario-K"),
        _cli_case(_config("deflate-compare", scenario={"seed": 3}), "scenario", "scenario-seed"),
        _cli_case(_config("scaling-ratio", scenario={"distance_scale": 0.707}), "scenario",
                  "scaling-ratio-distance_scale"),
        # A negative seed, and a second q for the experiments that run q_list[0] only.
        _cli_case(_config("deflate-compare", seed=-1), "seed", "seed--1"),
        _cli_case(_config("deflate-compare", q_list=[0.3, 0.7]), "q_list", "deflate-compare-q_list"),
        _cli_case(_config("scaling-ratio", q_list=[0.3, 0.7]), "q_list", "scaling-ratio-q_list"),
        # q = 1, which run_lqmd rejects in every row of these experiments.
        _cli_case(_config("q-sensitivity", q_list=[0.5, 1.0]), "q_list", "q-sensitivity-q_list-1"),
        # An epsilon outside (0, 1), which SolverConfig would reject per run.
        _cli_case(_config("deflate-compare", epsilon=2), "epsilon", "epsilon-2"),
        _cli_case(_config("deflate-compare", epsilon=float("nan")), "epsilon", "epsilon-nan"),
        # The removed --runs and --seed flags are usage errors: runs and seed
        # come from the config alone.
        _cli_case(_config("deflate-compare"), "runs", "argv-runs--1", ["--runs", "-1"]),
        _cli_case(_config("deflate-compare"), "seed", "argv-seed--1", ["--seed", "-1"]),
        # The removed output_path field: --out says where the CSVs go.
        _cli_case(_config("deflate-compare", output_path="."), "output_path", "output_path"),
        # recover-qbar walks estimate_qbar's own q grid, so a q_list would do nothing.
        _cli_case(_config("recover-qbar", q_list=[0.3, 0.7]), "q_list", "recover-qbar-q_list"),
    ])
    def test_experiment_config_error_exit_code(self, tmp_path, capsys, doc, name, args):
        # Unchecked, an empty q_list would crash on q_list[0], a wrongly typed
        # value would raise a TypeError, a second q would be ignored, and the
        # other values would surface per cell as error rows and exit 2 (or,
        # for runs, as empty CSVs and exit 0).
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out), *args]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        # argparse would exit 2, the code of an experiment with failed rows.
        solve = ["solve", "--instance", "x.json", "--algo", "nlpd"]
        for extra, name in ((["--bogus"], "--bogus"), (["--q", "abc"], "--q")):
            assert main(solve + extra) == 1
            assert name in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "experiment" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "nope"}')
        assert main(["experiment", "--config", str(bad)]) == 1
        assert main(["solve", "--instance", str(tmp_path / "missing.json"),
                     "--algo", "nlpd"]) == 1
        assert main(["solve", "--instance", str(tmp_path), "--algo", "nlpd"]) == 1
        capsys.readouterr()
