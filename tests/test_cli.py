"""Tests for config parsing and the command-line workflows."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mofgd.cli import ConfigError, RunManifest, main, parse_config, run
from mofgd.descent import IterationTrace, SolverConfig, run_adaptive
from mofgd.fixtures import FIXTURE_NAMES, fixture_objectives
from mofgd.lab import ExperimentSpec, mogd_baseline
from mofgd.problems import ObjectiveModel, QuadraticMop

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


MINIMAL = """
instance:
  name: example2
schedule:
  alphas: [0.5, 0.7, 0.9]
  gammas: [0.1, 0.01, 0.0]
  iterations: [20, 20, 40]
experiment:
  start_grid: {lb: 1.0, ub: 2.0, count: 1}
"""

SMALL_QUADRATIC = """
instance: {n: 8, m_data: 8, m: 2, seed: 3}
solver: {sigma: 0.1, r: 0.5, epsilon: 1.0e-4, max_iterations: 500, eta: 1.0}
schedule:
  alphas: [0.5]
  gammas: [0.05]
  iterations: [400]
experiment:
  gamma_values: [0.25, 1.0]
  start_grid: {lb: 1.01, ub: 10.0, count: 4}
"""


class TestParseConfig:
    def test_minimal_fixture_config(self, tmp_path):
        spec, solver, schedule = parse_config(write_config(tmp_path, MINIMAL))
        assert spec.instance == "example2"
        assert len(schedule.stages) == 3
        assert solver.sigma == 0.1

    def test_paper_default_config_matches_stated_parameters(self):
        spec, solver, schedule = parse_config(REPO / "configs" / "paper_quadratic.yaml")
        mop = spec.instance
        assert isinstance(mop, QuadraticMop)
        assert mop.dim == 100
        assert mop.factors[0].shape == (100, 100)
        assert mop.n_objectives == 2
        assert spec.gamma_values == (0.15, 0.25, 0.5, 0.75, 1.0, 10.0)
        # The stages keep the configured regularizers, bit for bit.
        assert schedule.gammas == (0.1, 0.01, 0.0)
        lb, ub, count = spec.start_grid
        assert count == 100
        np.testing.assert_allclose(lb, np.full(100, 1.01))
        np.testing.assert_allclose(ub, np.full(100, 10.0))

    def test_empty_sections_take_the_dataclass_defaults(self, tmp_path):
        """Defaults live in the dataclasses; the CLI keeps only its own
        tolerance (1e-4) and iteration budget (2000)."""
        spec, solver, _ = parse_config(write_config(
            tmp_path, "instance: {name: example2}\nsolver: {}\nexperiment: {}\n"))
        assert solver == SolverConfig(tolerance=1e-4, max_iterations=2000)
        default = ExperimentSpec(instance="example2")
        assert spec.method == default.method
        for got, want in zip(spec.start_grid, default.start_grid):
            np.testing.assert_array_equal(got, want)

    def test_sigma_out_of_range_names_field(self, tmp_path):
        cfg = MINIMAL + "solver: {sigma: 1.5}\n"
        with pytest.raises(ConfigError, match="solver.*sigma"):
            parse_config(write_config(tmp_path, cfg))

    def test_beta_below_bound_names_schedule(self, tmp_path):
        bad = """
instance: {name: example2}
schedule:
  alphas: [0.9]
  gammas: [-0.01]
  iterations: [10]
"""
        with pytest.raises(ConfigError, match="schedule.*beta"):
            parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("path", ["configs/example2.yaml", "configs/example2_pair.yaml",
                                      "configs/paper_quadratic.yaml", "perfbench/probe_pair.yaml"])
    def test_shipped_configs_parse(self, path):
        spec, _, schedule = parse_config(REPO / path)
        assert spec.method == "moaocfgd"
        assert len(schedule.stages) == 3

    @pytest.mark.parametrize("old, new, key", [
        ("  terminal: 0.0\n", "  terminal: 0.0\n  memory_length: 1\n", "schedule.memory_length"),
        ("  gammas: [0.1, 0.01, 0.0]\n", "  betas: [0.5, 0.3, 0.1]\n", "schedule.betas"),
        ("  epsilon:", "  epsilom:", "solver.epsilom"),
        ("solver:\n", "seed: 3\nsolver:\n", "config.seed"),
        ("  start_grid:\n", "  start_grid:\n    step: 0.5\n", "experiment.start_grid.step"),
        ("  name: example2\n", "  name: example2\n  seed: 3\n", "instance.seed"),
        ("  max_iterations: 2000\n", "  max_iterations: 2000\n  step_mode: backtracking\n",
         "solver.step_mode"),
    ])
    def test_unknown_key_is_named(self, tmp_path, old, new, key):
        """A key outside its section's fixed set is refused by name, so a
        misspelt or removed key cannot silently fall back to a default."""
        text = (REPO / "configs" / "example2.yaml").read_text()
        assert text.count(old) == 1
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text.replace(old, new)))
        assert str(info.value) == f"{key}: unknown key"

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        text = (REPO / "configs" / "example2.yaml").read_text().replace("epsilon:", "epsilom:")
        cfg = write_config(tmp_path, text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "solver.epsilom: unknown key" in capsys.readouterr().err

    def test_section_must_be_a_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="^solver: expected a mapping, got list$"):
            parse_config(write_config(tmp_path, MINIMAL + "solver: [0.1]\n"))

    def test_subgradient_method_refused(self, tmp_path):
        text = (REPO / "configs" / "example2.yaml").read_text()
        cfg = write_config(tmp_path, text.replace("method: moaocfgd", "method: subgradient"))
        with pytest.raises(ConfigError, match="experiment: unknown method 'subgradient'"):
            parse_config(cfg)

    def test_eta_out_of_range_names_field(self, tmp_path):
        """eta is range-checked when the config is read, not when verify-t5 runs."""
        cfg = MINIMAL + "solver: {eta: 2.5}\n"
        with pytest.raises(ConfigError, match="solver: eta"):
            parse_config(write_config(tmp_path, cfg))

    def test_missing_instance_key(self, tmp_path):
        with pytest.raises(ConfigError, match="instance"):
            parse_config(write_config(tmp_path, "solver: {sigma: 0.2}\n"))

    def test_unknown_fixture(self, tmp_path):
        with pytest.raises(ConfigError, match="instance.name"):
            parse_config(write_config(tmp_path, "instance: {name: nope}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "absent.yaml")

    def test_named_fixture_is_checked_without_building_it(self, tmp_path, monkeypatch):
        """A fixture name is checked against FIXTURE_NAMES: parsing builds no
        ObjectiveModel, and an unknown name keeps its message."""
        built = []
        monkeypatch.setattr(ObjectiveModel, "__post_init__", lambda obj: built.append(obj))
        for path in (write_config(tmp_path, MINIMAL), REPO / "configs" / "example2.yaml",
                     REPO / "configs" / "example2_pair.yaml"):
            spec, _, _ = parse_config(path)
            assert spec.instance in FIXTURE_NAMES
        assert built == []
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, "instance: {name: nope}\n"))
        assert str(info.value) == "instance.name: unknown fixture 'nope'"

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", ["example2.yaml", "example2_pair.yaml",
                                      "paper_quadratic.yaml"])
    def test_shipped_configs_load_alike_with_either_safe_loader(self, name):
        text = (REPO / "configs" / name).read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_malformed_yaml_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not well-formed YAML"):
            parse_config(write_config(tmp_path, "instance: {name: example2\nsolver: ]\n"))


class TestRunCommands:
    def test_solve_writes_trace_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "run"
        code = run(RunManifest("solve", str(cfg), str(out)))
        assert code == 0
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 0
        declared = set(summary["written_files"])
        on_disk = {p.name for p in out.iterdir()} - {"summary.json"}
        assert on_disk == declared

    def test_solve_reports_stages_and_raw_final_f(self, tmp_path):
        """summary.json's stages add up to the run and end with the last
        stage at epsilon; final_f is the raw objective at final_x."""
        out = tmp_path / "run"
        assert run(RunManifest("solve", str(REPO / "configs" / "example2.yaml"), str(out))) == 0
        solve = json.loads((out / "summary.json").read_text())["solve"]
        stages = solve["stages"]
        assert [s["stage"] for s in stages] == [0, 1, 2]
        assert sum(s["iterations"] for s in stages) == solve["iterations"]
        assert stages[-1]["tolerance"] == 1e-6
        assert stages[-1]["termination"] == solve["termination"] == "tolerance"
        assert stages[-1]["final_norm_d"] == solve["final_norm_d"]
        f = fixture_objectives("example2")[0]
        assert solve["final_f"] == [f.value(np.array(solve["final_x"]))]

    def test_refuses_nonempty_output_without_force(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(RunManifest("solve", str(cfg), str(out))) == 2
        assert run(RunManifest("solve", str(cfg), str(out), force=True)) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(RunManifest("solve", str(cfg), str(out))) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate", "--out", "x"]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run(RunManifest("solve", None, str(tmp_path / "o"))) == 2

    def test_verify_t5_small_instance(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUADRATIC)
        out = tmp_path / "t5"
        code = run(RunManifest("verify-t5", str(cfg), str(out)))
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0, summary
        assert summary["verify_t5"]["monotone_geometric"]
        assert (out / "rate_errors.csv").exists()

    def test_verify_t5_reads_terminal_and_iteration_budget(self, tmp_path, monkeypatch):
        """verify-t5 runs from schedule.terminal, with the first stage's gamma
        as configured, for at most solver.max_iterations steps."""
        import mofgd.cli as cli
        terminals, gammas = [], []
        verify = cli.verify_rate_theorem5

        def recording(mop, cfg, gamma, terminal, multipliers, **kw):
            terminals.append(terminal)
            gammas.append(gamma)
            return verify(mop, cfg, gamma, terminal, multipliers, **kw)

        monkeypatch.setattr(cli, "verify_rate_theorem5", recording)
        text = SMALL_QUADRATIC.replace("max_iterations: 500", "max_iterations: 40").replace(
            "iterations: [400]", "iterations: [400]\n  terminal: 0.5")
        out = tmp_path / "t5"
        run(RunManifest("verify-t5", str(write_config(tmp_path, text)), str(out)))
        np.testing.assert_array_equal(terminals, [np.full(8, 0.5)])
        assert gammas == [0.05]
        rows = (out / "rate_errors.csv").read_text().splitlines()
        assert rows[0] == "k,error"
        assert len(rows) == 1 + 41

    def test_verify_t6_small_instance(self, tmp_path):
        text = SMALL_QUADRATIC.replace(
            "alphas: [0.5]\n  gammas: [0.05]\n  iterations: [400]",
            "alphas: [0.5, 0.5, 0.5, 0.5]\n  gammas: [0.5, 0.1, 0.01, 0.001]\n  iterations: [400, 400, 400, 400]",
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "t6"
        code = run(RunManifest("verify-t6", str(cfg), str(out)))
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0, summary
        assert summary["verify_t6"]["recursion_ok"]
        with open(out / "stage_bounds.csv") as fh:
            assert [row["gamma"] for row in csv.DictReader(fh)] == ["0.5", "0.1", "0.01", "0.001"]

    def test_compare_emits_table(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUADRATIC)
        out = tmp_path / "cmp"
        code = run(RunManifest("compare", str(cfg), str(out)))
        assert (out / "comparison.csv").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == "gamma,method,condition_number,iterations,wall_seconds,final_error"
        assert (out / "instance.json").exists()

    @pytest.mark.parametrize("fractional_fewer", [True, False])
    def test_compare_verdict_counts_iterations_not_wall_time(self, tmp_path, monkeypatch,
                                                             fractional_fewer):
        """The moaocfgd row wins a gamma when it takes no more iterations than
        the mogd row, however long either took on the clock."""
        # Fewer iterations always come with more wall time.
        fewer = {"iterations": 21, "wall_seconds": 0.5}
        more = {"iterations": 1388, "wall_seconds": 0.001}
        fr, gd = (fewer, more) if fractional_fewer else (more, fewer)

        def table(mop, gamma_values, cfg, x0=None):
            return [dict(gamma=g, method=method, condition_number=10.0, final_error=0.0, **row)
                    for g in gamma_values for method, row in (("mogd", gd), ("moaocfgd", fr))]

        monkeypatch.setattr("mofgd.cli.comparison_table", table)
        out = tmp_path / "cmp"
        code = run(RunManifest("compare", str(write_config(tmp_path, SMALL_QUADRATIC)), str(out)))
        payload = json.loads((out / "summary.json").read_text())["compare"]
        assert payload["gamma_count"] == 2
        if fractional_fewer:
            assert code == 0
            assert payload["fractional_iteration_wins"] == 2
        else:
            assert code == 1
            assert payload["fractional_iteration_wins"] == 0

    def test_pareto_on_fixture_pair(self, tmp_path):
        text = """
instance: {name: example2_pair}
solver: {epsilon: 1.0e-5, max_iterations: 2000}
schedule:
  alphas: [0.5, 0.9]
  gammas: [0.05, 0.0]
  iterations: [50, 200]
experiment:
  method: moaocfgd
  start_grid: {lb: [-2.0, -3.0], ub: [2.0, 1.0], count: 12}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "pareto"
        code = run(RunManifest("pareto", str(cfg), str(out), jobs=2))
        assert code == 0
        assert (out / "front_moaocfgd.csv").exists()
        assert (out / "front_mogd.csv").exists()
        assert (out / "plot_fronts.py").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "adrs" in summary["pareto"]
        serial = tmp_path / "pareto_serial"
        assert run(RunManifest("pareto", str(cfg), str(serial), jobs=1)) == 0
        for name in ("front_moaocfgd.csv", "front_mogd.csv"):
            assert (serial / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("instance, m", [
        ("{n: 4, m_data: 6, m: 3, seed: 5}", 3),
        ("{name: example2}", 1),
    ])
    def test_pareto_writes_every_objective(self, tmp_path, instance, m):
        """A front has one column per objective, each the objective's value
        at the point's start, run alone."""
        text = (f"instance: {instance}\nsolver: {{epsilon: 1.0e-5}}\n"
                "experiment: {start_grid: {lb: 1.0, ub: 2.0, count: 5}}\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "pareto"
        assert run(RunManifest("pareto", str(cfg), str(out))) == 0
        spec, solver, schedule = parse_config(cfg)
        objectives, starts = spec.objectives(), spec.starts()
        for name in ("front_moaocfgd.csv", "front_mogd.csv"):
            with open(out / name) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [f"f_{j}" for j in range(1, m + 1)] + ["start_index"]
            assert len(rows) > 1
            method = name[len("front_"):-len(".csv")]
            for row in rows[1:]:
                start = int(row[-1])
                if method == "moaocfgd":
                    trace = run_adaptive(objectives, starts[start], solver, schedule)
                else:
                    trace = mogd_baseline(objectives, starts[start], solver)
                assert row[:-1] == [repr(float(f.value(trace.final_x))) for f in objectives]

    def test_pareto_with_every_start_failed_exits_1(self, tmp_path, monkeypatch):
        """When every staged run raises, the empty front is a verification
        failure, not a success, and no ADRS is reported."""
        def fail(*args):
            raise RuntimeError("staged run failed")

        monkeypatch.setattr("mofgd.lab.run_adaptive", fail)
        out = tmp_path / "pareto"
        config = str(REPO / "configs" / "example2_pair.yaml")
        assert run(RunManifest("pareto", config, str(out))) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 1
        assert summary["pareto"]["front_size"] == 0
        assert "adrs" not in summary["pareto"]
        failed = summary["pareto"]["failed_starts"]
        assert len(failed) == 100
        assert {f["reason"] for f in failed} == {"staged run failed"}

    def test_pareto_on_exactly_critical_starts_exits_0(self, tmp_path, monkeypatch):
        """Runs that end at ||d|| = 0.0 pass the criticality check and write
        a summary that strict JSON parses (no NaN)."""
        def critical(objectives, x0, cfg, *schedule):
            trace = IterationTrace()
            trace.termination, trace.final_x, trace.final_norm_d = "tolerance", x0, 0.0
            return trace

        monkeypatch.setattr("mofgd.lab.run_adaptive", critical)
        monkeypatch.setattr("mofgd.lab.mogd_baseline", critical)
        out = tmp_path / "pareto"
        assert run(RunManifest("pareto", str(REPO / "configs" / "example2_pair.yaml"), str(out))) == 0

        def refuse(token):
            raise ValueError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["pareto"]["max_norm_d"] == 0.0

    def test_fixtures_report(self, tmp_path):
        out = tmp_path / "fx"
        code = run(RunManifest("fixtures", None, str(out)))
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0, summary
        assert summary["fixtures"]["example1"]["ok"]
        assert summary["fixtures"]["example2"]["ok"]
        assert summary["fixtures"]["example3"]["ok"]
        assert (out / "fixtures_report.txt").exists()

    def test_seed_on_a_fixture_exits_2(self, tmp_path, capsys):
        """Only a random quadratic instance takes a seed: --seed on a fixture,
        from a config or the fixtures default, is refused, not ignored."""
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["solve", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "solve")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "solve" / "summary.json").exists()
        assert main(["fixtures", "--seed", "7", "--out", str(tmp_path / "fx")]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_override_changes_instance(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUADRATIC)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(RunManifest("compare", str(cfg), str(out1))) in (0, 1)
        assert run(RunManifest("compare", str(cfg), str(out2), seed=9)) in (0, 1)
        a = (out1 / "instance.json").read_text()
        b = (out2 / "instance.json").read_text()
        assert a != b
