"""Tests for config parsing and the command-line workflows."""

import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mofgd.cli import ConfigError, main, parse_config, run
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

    @pytest.mark.parametrize("schedule, missing", [
        ("{alphas: [0.5, 0.9], iterations: [50, 100]}", "gammas"),
        ("{alphas: [0.3, 0.5, 0.7, 0.9]}", "gammas"),
        ("{alphas: [0.3, 0.5, 0.7, 0.9], gammas: [0.1, 0.05, 0.01, 0.0]}", "iterations"),
        ("{gammas: [0.1, 0.0], iterations: [50, 100], terminal: 0.5}", "alphas"),
    ], ids=["two_alphas_and_iterations", "four_alphas", "four_alphas_and_gammas",
            "gammas_and_iterations"])
    def test_stage_keys_are_given_together(self, tmp_path, schedule, missing):
        """alphas, gammas and iterations default together or not at all: a
        config that gives one of them and leaves another out is refused by
        the missing key's name, not run on default gammas that never reach
        0, nor refused by the length of a key it does not contain."""
        cfg = write_config(tmp_path, f"instance: {{name: example2}}\nschedule: {schedule}\n")
        with pytest.raises(ConfigError, match=rf"^schedule\.{missing}: missing required key$"):
            parse_config(cfg)

    def test_schedule_without_stage_keys_is_the_default_schedule(self, tmp_path):
        """A schedule that gives none of the three takes all of the default
        schedule, next to a terminal that it does give."""
        from mofgd.fixtures import default_schedule

        _, _, schedule = parse_config(write_config(
            tmp_path, "instance: {name: example2}\nschedule: {terminal: 0.5}\n"))
        assert schedule.stages == default_schedule().stages
        assert schedule.terminal.tolist() == [0.5, 0.5]

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

    @pytest.mark.parametrize("old, new, key", [
        ("n: 8,", "n: abc,", "instance.n"),
        ("n: 8,", "n: 8.5,", "instance.n"),
        ("m_data: 8,", "m_data: true,", "instance.m_data"),
        ("m: 2,", "m: 2.7,", "instance.m"),
        ("seed: 3}", "seed: [1]}", "instance.seed"),
        ("max_iterations: 500,", "max_iterations: 2000.9,", "solver.max_iterations"),
        ("iterations: [400]", "iterations: [400.5]", "schedule.iterations"),
        ("iterations: [400]", "iterations: 400", "schedule.iterations"),
        ("count: 4}", "count: 1.5}", "experiment.start_grid.count"),
        ("lb: 1.01,", "lb: abc,", "experiment.start_grid.lb"),
        ("ub: 10.0,", "ub: [1.0, x, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],", "experiment.start_grid.ub"),
        ("  iterations: [400]\n", "  iterations: [400]\n  terminal: {c: 1}\n", "schedule.terminal"),
        ("alphas: [0.5]", "alphas: 0.5", "schedule.alphas"),
        ("gammas: [0.05]", "gammas: [x]", "schedule.gammas"),
        ("gamma_values: [0.25, 1.0]", "gamma_values: abc", "experiment.gamma_values"),
    ])
    def test_malformed_numbers_are_named(self, tmp_path, old, new, key):
        """A non-integer integer key, or a non-numeric lb, ub, terminal,
        alphas, gammas or gamma_values, is a ConfigError naming the key, not
        a traceback or a silent truncation."""
        assert SMALL_QUADRATIC.count(old) == 1
        with pytest.raises(ConfigError, match=f"^{key}: expected "):
            parse_config(write_config(tmp_path, SMALL_QUADRATIC.replace(old, new)))

    def test_integral_floats_are_integers(self, tmp_path):
        """A float of integral value is read as that integer."""
        text = SMALL_QUADRATIC.replace("n: 8,", "n: 8.0,").replace("count: 4}", "count: 4.0}")
        spec, _, _ = parse_config(write_config(tmp_path, text))
        assert spec.instance.dim == 8 and spec.start_grid[2] == 4
        assert type(spec.start_grid[2]) is int

    NUMBERS = """
instance: {name: example2}
solver: {sigma: 0.2, r: 0.5, epsilon: 1.0e-5, eta: 0.5}
schedule:
  alphas: [0.5, 0.7]
  gammas: [0.1, 0.01]
  iterations: [20, 40]
  terminal: -0.1
experiment:
  gamma_values: [0.25, 1.0]
  start_grid: {lb: 1.01, ub: 10.0, count: 4}
"""

    @pytest.mark.parametrize("key, before, dotted, exponent", [
        ("solver.sigma", "sigma: ", "0.2", "2e-1"),
        ("solver.r", "r: ", "0.5", "5e-1"),
        ("solver.epsilon", "epsilon: ", "1.0e-5", "1e-5"),
        ("solver.eta", "eta: ", "0.5", "5e-1"),
        ("schedule.alphas", "alphas: [0.5, ", "0.7", "7e-1"),
        ("schedule.gammas", "gammas: [0.1, ", "0.01", "1e-2"),
        ("schedule.terminal", "terminal: ", "-0.1", "-1e-1"),
        ("experiment.gamma_values", "gamma_values: [", "0.25", "25e-2"),
        ("experiment.start_grid.lb", "lb: ", "1.01", "101e-2"),
        ("experiment.start_grid.ub", "ub: ", "10.0", "1e1"),
    ])
    def test_one_number_rule(self, tmp_path, key, before, dotted, exponent):
        """Every float, a key's value or a list's entry, is read by one rule:
        an exponent form without a dot, which PyYAML reads as a string,
        parses equal to its dotted form, and a bool is refused by the key's
        name."""
        assert self.NUMBERS.count(before + dotted) == 1

        def parsed(number):
            text = self.NUMBERS.replace(before + dotted, before + number)
            spec, solver, schedule = parse_config(write_config(tmp_path, text))
            return (solver, schedule.stages, schedule.terminal.tolist(), spec.gamma_values,
                    [end.tolist() for end in spec.start_grid[:2]])

        assert parsed(exponent) == parsed(dotted)
        with pytest.raises(ConfigError) as info:
            parsed("true")
        assert str(info.value) == f"{key}: expected a finite number, got True"

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
        code = run("solve", str(cfg), str(out))
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
        assert run("solve", str(REPO / "configs" / "example2.yaml"), str(out)) == 0
        solve = json.loads((out / "summary.json").read_text())["solve"]
        stages = solve["stages"]
        assert [s["stage"] for s in stages] == [0, 1, 2]
        assert sum(s["iterations"] for s in stages) == solve["iterations"]
        assert stages[-1]["tolerance"] == 1e-6
        assert stages[-1]["termination"] == solve["termination"] == "tolerance"
        assert stages[-1]["final_norm_d"] == solve["final_norm_d"]
        f = fixture_objectives("example2")[0]
        assert solve["final_f"] == [f.value(np.array(solve["final_x"]))]

    @staticmethod
    def overflow_config(tmp_path):
        """example2.yaml started at (1e308, 1e308), where the gradient overflows."""
        text = (REPO / "configs" / "example2.yaml").read_text()
        old = "    lb: 1.0\n    ub: 2.0\n"
        assert text.count(old) == 1
        return write_config(tmp_path, text.replace(old, "    lb: 1.0e308\n    ub: 1.5e308\n"))

    def test_solve_with_an_overflowing_gradient_exits_1(self, tmp_path, capsys):
        """A start whose gradient overflows ends its first stage in error:
        exit 1, a header-only trace.csv and a summary with that termination
        and the solve's message, and no traceback.  The overflow itself
        still warns."""
        cfg = self.overflow_config(tmp_path)
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning) as warned:
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert any("overflow" in str(w.message) for w in warned)
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "trace.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["k", "s", "eta", "t", "norm_d", "f_1", "x_1", "x_2"]]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 1
        solve = summary["solve"]
        assert (solve["termination"], solve["error"]) == ("error", "gradients must be finite")
        assert solve["final_norm_d"] is None and solve["final_x"] == [1e308, 1e308]
        assert [(s["iterations"], s["termination"]) for s in solve["stages"]] == [(0, "error")]

    def test_overflowing_summary_is_strict_json(self, tmp_path):
        """The overflowing run's final objective is not finite: summary.json
        writes it as null, and a parser that refuses NaN and Infinity reads
        the file."""
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning):
            assert main(["solve", "--config", str(self.overflow_config(tmp_path)),
                         "--out", str(out)]) == 1

        def refuse(token):
            raise ValueError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["solve"]["termination"] == "error"
        assert summary["solve"]["final_f"] == [None]

    def test_solve_runs_the_schedule_its_method_names(self, tmp_path):
        """method: mogd runs the one classical stage of mogd_baseline: one
        stage report, and its trace.csv is mogd_baseline's, byte for byte."""
        text = (REPO / "configs" / "example2.yaml").read_text()
        assert text.count("method: moaocfgd") == 1
        cfg = write_config(tmp_path, text.replace("method: moaocfgd", "method: mogd"))
        out = tmp_path / "run"
        assert run("solve", str(cfg), str(out)) == 0
        stages = json.loads((out / "summary.json").read_text())["solve"]["stages"]
        assert [(s["stage"], s["termination"]) for s in stages] == [(0, "tolerance")]
        spec, solver, _ = parse_config(cfg)
        objectives = spec.objectives()
        mogd_baseline(objectives, spec.starts()[0], solver).to_csv(tmp_path / "baseline.csv",
                                                                   m=len(objectives))
        assert (out / "trace.csv").read_bytes() == (tmp_path / "baseline.csv").read_bytes()

    def test_solve_from_a_critical_start(self, tmp_path):
        """A start whose first ||d|| already meets epsilon: exit 0, a
        header-only trace.csv and a summary with 0 iterations ending at the
        tolerance."""
        text = (REPO / "configs" / "example2.yaml").read_text()
        assert "epsilon: 1.0e-6" in text
        cfg = write_config(tmp_path, text.replace("epsilon: 1.0e-6", "epsilon: 1.0e+3"))
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["k", "s", "eta", "t", "norm_d", "f_1", "x_1", "x_2"]]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 0
        solve = summary["solve"]
        assert (solve["iterations"], solve["termination"]) == (0, "tolerance")
        assert [s["iterations"] for s in solve["stages"]] == [0, 0, 0]
        assert solve["final_x"] == [1.0, 1.0]

    def test_refuses_nonempty_output_without_force(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run("solve", str(cfg), str(out)) == 2
        assert run("solve", str(cfg), str(out), force=True) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("solve", str(cfg), str(out)) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate", "--out", "x"]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run("solve", None, str(tmp_path / "o")) == 2

    def test_verify_t5_small_instance(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUADRATIC)
        out = tmp_path / "t5"
        code = run("verify-t5", str(cfg), str(out))
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
        run("verify-t5", str(write_config(tmp_path, text)), str(out))
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
        code = run("verify-t6", str(cfg), str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0, summary
        assert summary["verify_t6"]["recursion_ok"]
        with open(out / "stage_bounds.csv") as fh:
            assert [row["gamma"] for row in csv.DictReader(fh)] == ["0.5", "0.1", "0.01", "0.001"]

    def test_compare_emits_table(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_QUADRATIC)
        out = tmp_path / "cmp"
        code = run("compare", str(cfg), str(out))
        assert (out / "comparison.csv").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == ("gamma,method,condition_number,iterations,wall_seconds,final_error,"
                          "termination")
        assert (out / "instance.json").exists()

    def test_compare_counts_the_rows_that_did_not_converge(self, tmp_path, monkeypatch):
        """Each row's termination ends its CSV line; the summary counts the
        max_iter rows and the gammas at which both rows end at the tolerance."""
        ends = {0.25: ("max_iter", "tolerance"), 1.0: ("tolerance", "tolerance")}

        def table(mop, gamma_values, cfg, x0=None):
            return [dict(gamma=g, method=method, condition_number=10.0, iterations=5,
                         wall_seconds=0.0, final_error=0.0, termination=ends[g][i])
                    for g in gamma_values for i, method in enumerate(("mogd", "moaocfgd"))]

        monkeypatch.setattr("mofgd.cli.comparison_table", table)
        out = tmp_path / "cmp"
        run("compare", str(write_config(tmp_path, SMALL_QUADRATIC)), str(out))
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["termination"] for r in rows] == ["max_iter", "tolerance"] + ["tolerance"] * 2
        payload = json.loads((out / "summary.json").read_text())["compare"]
        assert (payload["max_iter_rows"], payload["both_tolerance"]) == (1, 1)

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
            return [dict(gamma=g, method=method, condition_number=10.0, final_error=0.0,
                         termination="tolerance", **row)
                    for g in gamma_values for method, row in (("mogd", gd), ("moaocfgd", fr))]

        monkeypatch.setattr("mofgd.cli.comparison_table", table)
        out = tmp_path / "cmp"
        code = run("compare", str(write_config(tmp_path, SMALL_QUADRATIC)), str(out))
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
        code = run("pareto", str(cfg), str(out), jobs=2)
        assert code == 0
        assert (out / "front_moaocfgd.csv").exists()
        assert (out / "front_mogd.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["written_files"] == ["front_moaocfgd.csv", "front_mogd.csv"]
        assert "adrs" in summary["pareto"]
        serial = tmp_path / "pareto_serial"
        assert run("pareto", str(cfg), str(serial), jobs=1) == 0
        for name in ("front_moaocfgd.csv", "front_mogd.csv"):
            assert (serial / name).read_bytes() == (out / name).read_bytes(), name

    def test_pareto_with_mogd_writes_the_mogd_front_alone(self, tmp_path):
        """method: mogd sweeps once: front_mogd.csv alone, byte-identical to
        the baseline front of the moaocfgd run, and no ADRS."""
        text = (REPO / "configs" / "example2_pair.yaml").read_text()
        assert text.count("method: moaocfgd") == 1
        cfg = write_config(tmp_path, text.replace("method: moaocfgd", "method: mogd"))
        out, staged = tmp_path / "mogd", tmp_path / "moaocfgd"
        assert run("pareto", str(cfg), str(out)) == 0
        assert run("pareto", str(REPO / "configs" / "example2_pair.yaml"), str(staged)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["written_files"] == ["front_mogd.csv"]
        assert list(summary["pareto"]["starts"]) == ["mogd"] and "adrs" not in summary["pareto"]
        assert (out / "front_mogd.csv").read_bytes() == (staged / "front_mogd.csv").read_bytes()

    def test_pareto_on_example3_writes_both_fronts(self, tmp_path):
        """The nonsmooth fixture sweeps both methods like any instance: both
        fronts are the one point at its minimum 0, no start fails, and ADRS
        is reported."""
        cfg = write_config(tmp_path, "instance: {name: example3_nonsmooth}\n")
        out = tmp_path / "pareto"
        assert run("pareto", str(cfg), str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["written_files"] == ["front_moaocfgd.csv", "front_mogd.csv"]
        assert summary["pareto"]["failed_starts"] == []
        for name in ("front_moaocfgd.csv", "front_mogd.csv"):
            assert (out / name).read_text() == "f_1,start_index\n0.0,0\n"
        assert summary["pareto"]["adrs"]["moaocfgd"] == summary["pareto"]["adrs"]["mogd"] == 0.0

    @pytest.mark.parametrize("instance, m", [
        ("{n: 4, m_data: 6, m: 3, seed: 5}", 3),
        ("{name: example2}", 1),
        ("configs/example2_pair.yaml", 2),
    ])
    def test_pareto_writes_every_objective(self, tmp_path, instance, m):
        """A front has one column per objective, each the objective's value
        at the point's start, run alone: the sweep's shared set-up changes
        no bit of any run."""
        if instance.endswith(".yaml"):
            cfg = REPO / instance
        else:
            cfg = write_config(tmp_path, (
                f"instance: {instance}\nsolver: {{epsilon: 1.0e-5}}\n"
                "experiment: {start_grid: {lb: 1.0, ub: 2.0, count: 5}}\n"))
        out = tmp_path / "pareto"
        assert run("pareto", str(cfg), str(out)) == 0
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
        """When every run raises, the empty front is a verification failure,
        not a success, and no ADRS is reported.  Both fronts run each start
        through the one per-start call, so both fail every start."""
        def fail(*args):
            raise RuntimeError("run failed")

        monkeypatch.setattr("mofgd.lab.run_adaptive", fail)
        out = tmp_path / "pareto"
        config = str(REPO / "configs" / "example2_pair.yaml")
        assert run("pareto", config, str(out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 1
        assert summary["pareto"]["front_size"] == 0
        assert "adrs" not in summary["pareto"]
        assert (out / "front_mogd.csv").read_text() == "start_index\n"
        failed = summary["pareto"]["failed_starts"]
        assert [f["start_index"] for f in failed] == list(range(100)) * 2
        assert {f["reason"] for f in failed} == {"run failed"}
        ended = {"terminations": {"error": 100}, "max_final_norm_d": None}
        assert summary["pareto"]["starts"] == {"moaocfgd": ended, "mogd": ended}
        assert summary["pareto"]["weights"] == {"moaocfgd": None, "mogd": None}

    def test_pareto_reports_the_weights_each_front_reaches(self, tmp_path):
        """On example2_pair.yaml each front's smallest and largest lambda_1
        round to the ranges measured against the exact front's weights,
        lambda_2 is 1 - lambda_1 at both ends, and the report is the same
        for --jobs 1 and 2."""
        config = str(REPO / "configs" / "example2_pair.yaml")
        weights = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run("pareto", config, str(out), jobs=jobs) == 0
            weights.append(json.loads((out / "summary.json").read_text())["pareto"]["weights"])
        assert weights[0] == weights[1]
        ranges = {method: [round(w["min"][0], 3), round(w["max"][0], 3)]
                  for method, w in weights[0].items()}
        assert ranges == {"moaocfgd": [0.016, 0.845], "mogd": [0.040, 0.922]}
        for w in weights[0].values():
            assert w["min"][1] == pytest.approx(1.0 - w["max"][0], abs=1e-15)
            assert w["max"][1] == pytest.approx(1.0 - w["min"][0], abs=1e-15)

    def test_pareto_counts_how_every_shipped_start_ended(self, tmp_path):
        """On example2_pair.yaml every start of both methods ends at the
        tolerance, and the counts and the largest final ||d|| are the same
        for --jobs 1 and 2."""
        config = str(REPO / "configs" / "example2_pair.yaml")
        starts = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run("pareto", config, str(out), jobs=jobs) == 0
            payload = json.loads((out / "summary.json").read_text())["pareto"]
            starts.append(payload["starts"])
            for method in ("moaocfgd", "mogd"):
                assert payload["starts"][method]["terminations"] == {"tolerance": 100}
                assert payload["starts"][method]["max_final_norm_d"] < payload["criticality_tolerance"]
            assert payload["starts"]["moaocfgd"]["max_final_norm_d"] >= payload["max_norm_d"]
        assert starts[0] == starts[1]

    def test_pareto_counts_terminations_over_all_starts(self, tmp_path, monkeypatch):
        """The counts take every start, front point or not, and the largest
        final ||d|| skips the error runs that solved no direction at their
        final point."""
        def starts(ends):
            cycle = itertools.cycle(ends)

            def stub(objectives, x0, cfg, schedule, setup):
                trace = IterationTrace()
                trace.final_x = x0
                trace.termination, trace.final_norm_d = next(cycle)
                if trace.final_norm_d is not None:
                    trace.final_multipliers = np.array([0.5, 0.5])
                return trace

            monkeypatch.setattr("mofgd.lab.run_adaptive", stub)
            out = tmp_path / f"pareto{len(list(tmp_path.iterdir()))}"
            run("pareto", str(REPO / "configs" / "example2_pair.yaml"), str(out))
            return json.loads((out / "summary.json").read_text())["pareto"]["starts"]

        ended = {"terminations": {"error": 50, "max_iter": 25, "tolerance": 25},
                 "max_final_norm_d": 0.5}
        assert starts([("tolerance", 1e-6), ("max_iter", 0.25), ("error", None),
                       ("error", 0.5)]) == {"moaocfgd": ended, "mogd": ended}
        assert starts([("tolerance", 1e-6), ("max_iter", 0.25), ("error", None),
                       ("error", None)])["mogd"]["max_final_norm_d"] == 0.25

    def test_pareto_on_exactly_critical_starts_exits_0(self, tmp_path, monkeypatch):
        """Runs that end at ||d|| = 0.0 pass the criticality check and write
        a summary that strict JSON parses (no NaN).  The stub replaces the
        one per-start call, so it makes the runs of both fronts."""
        runs = []

        def critical(objectives, x0, cfg, schedule, setup):
            runs.append(len(schedule.stages))
            trace = IterationTrace()
            trace.termination, trace.final_x, trace.final_norm_d = "tolerance", x0, 0.0
            trace.final_multipliers = np.array([1.0, 0.0])
            return trace

        monkeypatch.setattr("mofgd.lab.run_adaptive", critical)
        out = tmp_path / "pareto"
        assert run("pareto", str(REPO / "configs" / "example2_pair.yaml"), str(out)) == 0
        assert runs == [3] * 100 + [1] * 100

        def refuse(token):
            raise ValueError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["pareto"]["max_norm_d"] == 0.0
        reached = {"min": [1.0, 0.0], "max": [1.0, 0.0]}
        assert summary["pareto"]["weights"] == {"moaocfgd": reached, "mogd": reached}

    def test_fixtures_report(self, tmp_path):
        out = tmp_path / "fx"
        code = run("fixtures", None, str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert code == 0, summary
        assert summary["fixtures"]["example1"]["ok"]
        assert summary["fixtures"]["example2"]["ok"]
        assert summary["fixtures"]["example3"]["ok"]
        assert summary["fixtures"]["example3"]["termination"] == "tolerance"
        assert list(summary["fixtures"]["example3"])[-2:] == ["ok", "termination"]
        report = (out / "fixtures_report.txt").read_text().splitlines()
        assert "example3: fractional 3 vs subgradient 90 iterations" in report
        assert any(line.startswith("example2: staged value -2.333333 at ") for line in report)

    def test_fixtures_fails_an_example3_run_that_ended_in_error(self, tmp_path, monkeypatch):
        """An example 3 run that ends in error fails its check and the
        command, even when it reached f <= 1e-3 before the subgradient."""
        def erring(objectives, *args):
            trace = run_adaptive(objectives, *args)
            if objectives[0].kind == "piecewise":
                trace.termination = "error"
            return trace

        monkeypatch.setattr("mofgd.cli.run_adaptive", erring)
        out = tmp_path / "fx"
        assert run("fixtures", None, str(out)) == 1
        example3 = json.loads((out / "summary.json").read_text())["fixtures"]["example3"]
        assert example3["fractional_iterations_to_1e-3"] < example3["subgradient_iterations_to_1e-3"]
        assert (example3["ok"], example3["termination"]) == (False, "error")

    def test_seed_on_a_fixture_exits_2(self, tmp_path, capsys):
        """A seed comes from instance.seed alone: --seed is no option, so
        argparse refuses it by name (exit 2), with a config and without."""
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["solve", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "solve")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "solve" / "summary.json").exists()
        assert main(["fixtures", "--seed", "7", "--out", str(tmp_path / "fx")]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_in, key", [("config", "instance.seed")])
    def test_negative_seed_exits_2(self, tmp_path, capsys, seed_in, key):
        """A negative instance.seed is refused by its name (exit 2) before
        any output directory is made, not left to numpy's generator to
        raise."""
        text = (REPO / "configs" / "paper_quadratic.yaml").read_text()
        assert text.count("seed: 42") == 1
        cfg = write_config(tmp_path, text.replace("seed: 42", "seed: -1"))
        out = tmp_path / "refused" / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: expected a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", str(REPO / "configs" / "example2.yaml"), "--seed", "7"],
        ["solve", "--config", "missing.yaml"],
        ["compare"],
        ["compare", "--config", str(REPO / "configs" / "example2.yaml")],
        ["verify-t5", "--config", str(REPO / "configs" / "example2.yaml")],
        ["verify-t6", "--config", str(REPO / "configs" / "example2.yaml")],
        ["fixtures", "--config", str(REPO / "configs" / "example2.yaml")],
    ])
    def test_refused_run_creates_no_directory(self, tmp_path, capsys, argv):
        """A run refused with exit 2 (an unknown --seed flag, an unreadable
        config, no --config, a command that needs a random quadratic
        instance run on a fixture, a --config given to fixtures) leaves no
        output directory behind."""
        out = tmp_path / "refused" / "out"
        assert main(argv + ["--out", str(out)]) == 2
        capsys.readouterr()
        assert not (tmp_path / "refused").exists()

    def test_classical_stage_with_gamma_exits_2(self, tmp_path, capsys):
        """alpha = 1 is the classical stage, which takes gamma = 0 only: a
        schedule pairing it with gamma = 0.1 is refused by its section
        (exit 2) before any output directory is made."""
        cfg = write_config(tmp_path, """
instance: {name: example2}
schedule:
  alphas: [1.0]
  gammas: [0.1]
  iterations: [10]
""")
        out = tmp_path / "refused" / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: schedule: " in err and "alpha = 1.0" in err and "gamma = 0.1" in err
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("command, config, old, new, key", [
        ("pareto", "example2_pair", "terminal: 0.0", "terminal: .nan", "schedule.terminal"),
        ("pareto", "example2_pair", "terminal: 0.0", "terminal: .inf", "schedule.terminal"),
        ("pareto", "example2_pair", "gammas: [0.1, 0.01, 0.0]", "gammas: [.nan, 0.01, 0.0]",
         "schedule.gammas"),
        ("pareto", "example2_pair", "epsilon: 1.0e-5", "epsilon: .nan", "solver.epsilon"),
        ("pareto", "example2_pair", "r: 0.5", "r: -.inf", "solver.r"),
        ("compare", "paper_quadratic", "gamma_values: [0.15, 0.25, 0.5, 0.75, 1.0, 10.0]",
         "gamma_values: [.nan, 0.25]", "experiment.gamma_values"),
        ("compare", "paper_quadratic", "gamma_values: [0.15, 0.25, 0.5, 0.75, 1.0, 10.0]",
         "gamma_values: []", "experiment.gamma_values"),
        ("compare", "paper_quadratic", "ub: 10.0", "ub: .inf", "experiment.start_grid.ub"),
        ("solve", "example2", "terminal: 0.0", "terminal: .nan", "schedule.terminal"),
        ("solve", "example2", "terminal: 0.0", "terminal: [0.0, .nan]", "schedule.terminal"),
        ("solve", "example2", "terminal: 0.0", "terminal: 1" + "0" * 400, "schedule.terminal"),
        ("solve", "example2", "sigma: 0.1", "sigma: 1" + "0" * 400, "solver.sigma"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, config, old, new, key):
        """A NaN, an infinity or an integer beyond the float range where a
        config takes a number, and an empty list of gamma values, are
        refused by their key (exit 2) before any output directory is made,
        not run into failed starts, a table without rows or a traceback."""
        text = (REPO / "configs" / f"{config}.yaml").read_text()
        assert text.count(old) == 1
        cfg = write_config(tmp_path, text.replace(old, new))
        out = tmp_path / "refused" / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: expected " in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()


# The shipped config each command runs on; fixtures reads none.
SHIPPED_CONFIGS = {"solve": "example2.yaml", "pareto": "example2_pair.yaml",
                   "compare": "paper_quadratic.yaml", "verify-t5": "paper_quadratic.yaml",
                   "verify-t6": "paper_quadratic.yaml", "fixtures": None}


def shipped_args(command, out):
    config = SHIPPED_CONFIGS[command]
    return [command, *([] if config is None else ["--config", str(REPO / "configs" / config)]),
            "--out", str(out)]


class TestJobs:
    """pareto is the only command that starts workers: every command runs
    with --jobs 1, and any other command refuses more than one worker."""

    @pytest.mark.parametrize("command", list(SHIPPED_CONFIGS))
    def test_every_command_runs_with_one_job(self, command, tmp_path):
        assert main(shipped_args(command, tmp_path / "out") + ["--jobs", "1"]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("command, jobs", [
        ("compare", "2"), ("solve", "2"), ("verify-t5", "2"), ("verify-t6", "2"),
        ("fixtures", "2"), ("pareto", "0")])
    def test_refused_jobs_exits_2_and_makes_no_directory(self, command, jobs, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        assert main(shipped_args(command, out) + ["--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_before_touching_the_output(self, tmp_path):
        """run raises ConfigError for an unknown command or a refused jobs,
        naming it, before it makes or reads the output directory."""
        config = str(REPO / "configs" / "paper_quadratic.yaml")
        with pytest.raises(ConfigError, match="^command: unknown command 'frobnicate'$"):
            run("frobnicate", config, str(tmp_path / "a"))
        with pytest.raises(ConfigError, match="^jobs: only pareto starts workers"):
            run("compare", config, str(tmp_path / "b"), jobs=2)
        with pytest.raises(ConfigError, match="^jobs: must be >= 1, got 0$"):
            run("pareto", config, str(tmp_path / "c"), jobs=0)
        assert list(tmp_path.iterdir()) == []
