import json

import pytest

from totem.cli import AnalysisConfig, main, run


@pytest.fixture
def coin_csv(tmp_path):
    path = tmp_path / "flips.csv"
    rows = ["head,head"] * 4 + ["head,tail"] * 2 + ["tail,head"] + ["tail,tail"]
    path.write_text("s1,s2\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def coin_config(coin_csv):
    return AnalysisConfig(
        data=coin_csv,
        space={
            "domains": [
                {"name": "s1", "levels": ["head", "tail"]},
                {"name": "s2", "levels": ["head", "tail"]},
            ],
            "nullentities": [],
        },
        reference="uniform",
        elements={
            "mean": ["identity", "success(head)"],
            "spectrum": ["k_marginal(0, head)", "k_marginal(1, head)", "k_marginal(2, head)"],
        },
        tasks=[
            {"type": "project", "element": "mean"},
            {"type": "score", "elements": ["mean", "spectrum"]},
            {"type": "test", "outer": "mean", "inner": "spectrum"},
            {"type": "ipf", "element": "spectrum"},
        ],
        seed=7,
    )


class TestConfig:
    def test_round_trip(self, coin_config):
        assert AnalysisConfig.from_json(coin_config.to_json()) == coin_config

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown configuration field"):
            AnalysisConfig.from_dict({"bogus": 1})

    def test_unknown_task_type(self):
        with pytest.raises(Exception, match="tasks\\[0\\]"):
            AnalysisConfig(tasks=[{"type": "noop"}])


class TestRun:
    def test_end_to_end(self, coin_config):
        code, report = run(coin_config)
        assert code == 0
        assert "task 1: project" in report
        assert "task 3: test" in report
        assert "dof: 1" in report
        assert "decision:" in report

    def test_byte_identical_reports(self, coin_config):
        code_a, report_a = run(coin_config)
        code_b, report_b = run(coin_config)
        assert (code_a, report_a) == (code_b, report_b)

    def test_unknown_attribute_is_validation_error(self, coin_config):
        coin_config.elements["bad"] = ["marginal(nope=head)"]
        code, report = run(coin_config)
        assert code == 1
        assert "elements.bad" in report

    def test_unknown_element_name_is_validation_error(self, coin_config):
        coin_config.tasks = [{"type": "project", "element": "missing"}]
        code, report = run(coin_config)
        assert code == 1
        assert "tasks[0].element" in report

    def test_nonconvergence_exit_code(self, coin_config):
        coin_config.tasks = [{"type": "project", "element": "spectrum", "max_iter": 1}]
        code, report = run(coin_config)
        assert code == 2
        assert "error" in report

    def test_seed_echoed_and_17_digits(self, coin_config):
        code, report = run(coin_config)
        assert "seed: 7" in report
        assert "0.25" not in report.split("\n")[0]
        # multiplier line carries full precision
        assert any("multiplier success(head):" in line for line in report.split("\n"))

    def test_generator_space_mismatch_is_validation_error(self, coin_config):
        coin_config.tasks = [
            {
                "type": "calibrate",
                # three-flip generator against the config's two-flip elements
                "generator": {"example": {"name": "coin", "params": {"L": 3, "eta": 0.5}}},
                "outer": "mean",
                "inner": "spectrum",
                "n": 100,
                "replications": 5,
            }
        ]
        code, report = run(coin_config)
        assert code == 1
        assert "tasks[0]" in report

    def test_calibrate_task(self, coin_config):
        coin_config.tasks = [
            {
                "type": "calibrate",
                "generator": {"example": {"name": "coin", "params": {"L": 2, "eta": 0.5}}},
                "outer": ["identity", "success(head)"],
                "inner": ["k_marginal(0, head)", "k_marginal(1, head)", "k_marginal(2, head)"],
                "n": 300,
                "replications": 25,
                "seed": 3,
            }
        ]
        code, report = run(coin_config)
        assert code == 0
        assert "rejection rate:" in report
        assert "KS distance:" in report


class TestMain:
    def test_run_subcommand(self, coin_config, tmp_path, capsys):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "totem report" in out

    def test_run_with_overrides_changes_alpha(self, coin_config, tmp_path, capsys):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        main(["run", str(config_path), "--alpha", "0.2"])
        out = capsys.readouterr().out
        assert "alpha: 0.20000000000000001" in out

    def test_ipf_zero_cycles_is_solver_error(self, coin_config, tmp_path, capsys):
        coin_config.tasks = [{"type": "ipf", "element": "spectrum", "max_cycles": 0}]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: max_cycles must be at least 1" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_example_subcommand(self, capsys):
        code = main(["example", "coin", "--param", "L=2", "--param", "eta=0.75"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5625" in out

    def test_example_bad_param(self, capsys):
        code = main(["example", "coin", "--param", "L=2", "--param", "eta=2.0"])
        assert code == 1

    def test_test_subcommand_with_flags(self, coin_csv, capsys):
        code = main(
            [
                "test",
                "--data", coin_csv,
                "--domain", "s1=head,tail",
                "--domain", "s2=head,tail",
                "--element", "mean=identity;success(head)",
                "--element",
                "spectrum=k_marginal(0, head);k_marginal(1, head);k_marginal(2, head)",
                "--outer", "mean",
                "--inner", "spectrum",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Q:" in out

    def test_report_written_to_file(self, coin_config, tmp_path):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        out_path = tmp_path / "report.txt"
        code = main(["run", str(config_path), "--out", str(out_path)])
        assert code == 0
        assert "totem report" in out_path.read_text()


class TestExitCodeContract:
    """Malformed inputs exit 1 with the offending field named, never a traceback."""

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"seed": "abc"}, "seed"),
            ({"tol": "abc"}, "tol"),
            ({"max_iter": "abc"}, "max_iter"),
            ({"elements": ["a"]}, "elements"),
            ({"tasks": "notalist"}, "tasks"),
        ],
    )
    def test_malformed_field(self, doc, field, tmp_path, capsys):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(json.dumps(doc))
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"configuration error at {field}:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error at config: cannot read" in captured.err
        assert "Traceback" not in captured.out + captured.err

    _CALIBRATE = {
        "type": "calibrate",
        "generator": {"example": {"name": "coin", "params": {"L": 2, "eta": 0.5}}},
        "outer": ["identity", "success(head)"],
        "inner": ["k_marginal(0, head)", "k_marginal(1, head)", "k_marginal(2, head)"],
        "n": 300,
        "replications": 5,
    }

    @pytest.mark.parametrize(
        "task, field",
        [
            ({**_CALIBRATE, "n": "x"}, "tasks[0].n"),
            ({**_CALIBRATE, "max_iter": "abc"}, "tasks[0].max_iter"),
            ({**_CALIBRATE, "replications": "five"}, "tasks[0].replications"),
            ({**_CALIBRATE, "seed": [1]}, "tasks[0].seed"),
            ({"type": "score", "n": "x"}, "tasks[0].n"),
            ({"type": "test", "outer": "mean", "inner": "spectrum", "alpha": "x"},
             "tasks[0].alpha"),
            ({"type": "project", "element": "mean", "tol": "x"}, "tasks[0].tol"),
            ({"type": "ipf", "element": "spectrum", "max_cycles": "x"},
             "tasks[0].max_cycles"),
        ],
    )
    def test_malformed_task_field(self, coin_config, task, field, tmp_path, capsys):
        coin_config.tasks = [task]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"configuration error at {field}:" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_duplicate_declared_levels(self, coin_config, tmp_path, capsys):
        coin_config.space["domains"][1]["levels"] = ["head", "head"]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error at space.domains[1]:" in captured.out
        assert "Traceback" not in captured.out + captured.err
