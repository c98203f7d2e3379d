import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totem import cli, operators
from totem.cli import AnalysisConfig, main, run
from totem.operators import make_element


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

    @pytest.mark.parametrize("task, hint", [
        ({"type": "project", "element": "spectrum", "max_iter": 1},
         "hint: raise the task's max_iter or loosen its tol"),
        ({"type": "ipf", "element": "per_flip", "max_cycles": 1},
         "hint: raise the task's max_cycles or loosen its tol"),
    ], ids=["project", "ipf"])
    def test_nonconvergence_hint_names_the_task_fields(self, coin_config, task, hint,
                                                       tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("s1,s2\nhead,head\nhead,tail\ntail,tail\n")
        coin_config.data = str(data)
        # the flips' marginals alone fit in one cycle; their product ties
        # the partitions together, and the data's empty (tail, head) cell
        # is a boundary IPF only approaches
        coin_config.elements["per_flip"] = ["marginal(s1=head)", "marginal(s2=head)",
                                            "product(marginal(s1=head), marginal(s2=head))"]
        coin_config.tasks = [task]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        assert main(["run", str(config_path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        error = next(i for i, line in enumerate(lines) if line.startswith("  error: "))
        assert lines[error + 1] == f"  {hint}"

    def test_ipf_builds_no_element_of_its_own(self, coin_config, monkeypatch):
        # every ipf task runs on the column groups of its declared element
        coin_config.elements["per_flip"] = ["identity", "marginal(s1=head)",
                                            "marginal(s2=head)"]
        coin_config.tasks = [{"type": "ipf", "element": name}
                             for name in ("spectrum", "per_flip", "spectrum")]
        built = []

        def counted(ops, mode="strict"):
            built.append(mode)
            return make_element(ops, mode)

        monkeypatch.setattr(cli, "make_element", counted)
        monkeypatch.setattr(operators, "make_element", counted)
        code, report = run(coin_config)
        assert code == 0 and report.count("  cycles: 1\n") == 3
        assert len(built) == len(coin_config.elements) == 3

    def test_repeated_projection_uses_its_own_budget(self, coin_config):
        coin_config.tasks = [
            {"type": "project", "element": "spectrum"},
            {"type": "project", "element": "spectrum", "max_iter": 1},
        ]
        code, report = run(coin_config)
        assert code == 2
        first, second = report.split("task 2: project")
        assert "error" not in first
        assert "error" in second

    def test_seed_echoed_and_17_digits(self, coin_config):
        code, report = run(coin_config)
        assert "seed: 7" in report
        assert "0.25" not in report.split("\n")[0]
        # multiplier line carries full precision
        assert any("multiplier success(head):" in line for line in report.split("\n"))

    def test_line_endings_give_the_same_report(self, coin_config, tmp_path):
        with open(coin_config.data, "rb") as handle:
            data = handle.read()
        reports = []
        for name, ending in [("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data.replace(b"\n", ending))
            coin_config.data = str(path)
            code, report = run(coin_config)
            assert code == 0
            # the config fingerprint hashes the data path
            reports.append([line for line in report.splitlines()
                            if not line.strip().startswith("config fingerprint:")])
        assert reports[0] == reports[1] == reports[2]

    def test_score_labels_equal_elements_with_the_first_name(self, coin_config):
        coin_config.elements["twin"] = list(coin_config.elements["mean"])
        coin_config.tasks = [{"type": "score", "elements": ["spectrum", "mean", "twin"]}]
        code, report = run(coin_config)
        assert code == 0
        # "twin" is not scored: it has the same fingerprint as "mean"
        ranks = [line.strip() for line in report.split("\n") if line.strip().startswith("rank")]
        assert ranks == ["rank 1: mean", "rank 2: spectrum"]

    @pytest.mark.parametrize("twin", [["identity", "success(head)"], ["success(head)", "identity"]])
    def test_score_note_names_the_folded_element(self, coin_config, twin):
        # equal specs, or the same row space from other specs
        coin_config.elements["twin"] = twin
        coin_config.tasks = [{"type": "score", "elements": ["spectrum", "mean", "twin"]}]
        code, report = run(coin_config)
        assert code == 0
        notes = [line.strip() for line in report.split("\n")
                 if line.strip().startswith("note: equivalent")]
        assert notes == ["note: equivalent row space: twin"]

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

    def test_ipf_zero_cycles_is_config_error(self, coin_config, tmp_path, capsys):
        coin_config.tasks = [{"type": "ipf", "element": "spectrum", "max_cycles": 0}]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("configuration error at tasks[0].max_cycles: "
                                "must be at least 1, got 0\n")
        assert captured.out == ""

    def test_score_without_names_scores_every_element(self, coin_config, tmp_path, capsys):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        reports = []
        for use in ([], ["--use", ""]):
            assert main(["score", "--config", str(config_path), *use]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        ranks = [line.split(":")[1].strip() for line in reports[0].split("\n")
                 if line.strip().startswith("rank")]
        assert sorted(ranks) == ["mean", "spectrum"]

    def test_score_use_repeated_name_is_config_error(self, coin_config, tmp_path, capsys):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["score", "--config", str(config_path), "--use", "mean,mean"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("configuration error at tasks[0].elements[1]: "
                                "element 'mean' is listed twice\n")
        assert captured.out == ""

    def test_ipf_on_non_binary_element_is_config_error(self, coin_config, tmp_path, capsys):
        coin_config.tasks = [{"type": "ipf", "element": "mean"}]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error at tasks[0]:" in captured.err
        assert "binary" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_example_subcommand(self, capsys):
        code = main(["example", "coin", "--param", "L=2", "--param", "eta=0.75"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5625" in out

    def test_example_bad_param(self, capsys):
        code = main(["example", "coin", "--param", "L=2", "--param", "eta=2.0"])
        assert code == 1

    def test_example_ising_trial_out_of_range(self, capsys):
        code = main(["example", "ising", "--param", "L=3", "--param", "eta=0.5",
                     "--param", "kappa=0.01", "--param", "i0=5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "i0=5 is not a trial index" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "params, message",
        [
            (["L=3", "eta=0.5", "kappa=0", "i0=5"], "i0=5 is not a trial index"),
            (["L=1", "eta=0.5", "kappa=0"], "j0=1 is not a trial index"),
            (["L=12", "eta=0.95", "kappa=0.0008"], "(1-eta)^2 - 4(L-2)kappa/L"),
            (["L=4", "eta=0.5", "kappa=-0.2"], "the pair cell m^2 + kappa = "),
        ],
        ids=["index-uncoupled", "one-trial", "infeasible", "negative-cell"],
    )
    def test_example_ising_rejected_params(self, params, message, capsys):
        argv = ["example", "ising"]
        for param in params:
            argv += ["--param", param]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_example_ising_beyond_the_first_order_bound(self, capsys):
        # |kappa| = 0.05 exceeds eta^2 (1-eta)^2 / 2 = 0.03125, yet every
        # pair cell is positive
        code = main(["example", "ising", "--param", "L=4", "--param", "eta=0.5",
                     "--param", "kappa=0.05"])
        captured = capsys.readouterr()
        assert code == 0
        assert not captured.err

    def test_example_two_coin_without_trials(self, capsys):
        code = main(["example", "two-coin", "--param", "L=0", "--param", "phi_a=0.5",
                     "--param", "eta_a=0.5", "--param", "eta_b=0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "need at least one trial, got 0" in captured.err

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

    def test_calibrate_generator_spec_and_path_agree(self, tmp_path, capsys):
        # the README's calibrate command line, with fewer replications; the
        # path form reads the generator that `totem example` wrote
        generator = str(tmp_path / "coin.json")
        assert main(["example", "coin", "--param", "L=3", "--param", "eta=0.5",
                     "--out", generator]) == 0
        lines = {}
        for source in ("coin:L=3,eta=0.5", generator):
            capsys.readouterr()
            assert main(["calibrate", "--generator", source,
                         "--outer", "identity;success(head)",
                         "--inner", "k_marginal(0, head);k_marginal(1, head);"
                                    "k_marginal(2, head);k_marginal(3, head)",
                         "--N", "2000", "--replications", "40"]) == 0
            report = capsys.readouterr().out
            lines[source] = [line for line in report.split("\n") if line.split(":")[0].strip()
                             in ("mean Q", "KS distance", "rejection rate")]
        assert len(lines[generator]) == 3
        assert lines[generator] == lines["coin:L=3,eta=0.5"]

    def test_report_written_to_file(self, coin_config, tmp_path):
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        out_path = tmp_path / "report.txt"
        code = main(["run", str(config_path), "--out", str(out_path)])
        assert code == 0
        assert "totem report" in out_path.read_text()

    @pytest.mark.parametrize("target", ["--out", "tasks[0].out"])
    def test_unwritable_output_is_configuration_error(self, coin_config, tmp_path,
                                                      target, capsys):
        argv_out = []
        if target == "--out":
            argv_out = ["--out", str(tmp_path)]
        else:
            coin_config.tasks = [{"type": "project", "element": "mean", "out": str(tmp_path)}]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path), *argv_out])
        captured = capsys.readouterr()
        assert code == 1
        assert f"configuration error at {target}: cannot write" in captured.err
        assert captured.out == ""

    def test_subcommand_error_goes_to_stderr_with_out(self, coin_csv, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        code = main(["project", "--data", coin_csv, "--element", "mean=identity",
                     "--use", "missing", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error at tasks[0].element:" in captured.err
        assert not out_path.exists()


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
            ({"data": ["x"]}, "data"),
            ({"data": 5}, "data"),
            ({"space": {"domains": 5}}, "space.domains"),
            ({"space": {"domains": [], "nullentities": 3}}, "space.nullentities"),
            ({"reference": {"path": 5}}, "reference.path"),
            ({"elements": {"a": [1]}}, "elements.a"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": -1}, "tol"),
            ({"alpha": 1.5}, "alpha"),
            ({"max_iter": -1}, "max_iter"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["calibrate", "--generator", "coin:L=2,eta=0.5", "--outer", "mean",
              "--inner", "spectrum", "--replications", "2"],
             "the following arguments are required: --N"),
            (["run", "analysis.json", "--seed", "abc"],
             "argument --seed: invalid int value: 'abc'"),
        ],
    )
    def test_usage_error_is_configuration_error(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"configuration error at command line: {message}\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "usage: totem run" in capsys.readouterr().out

    def test_deeply_nested_spec(self, coin_config, tmp_path, capsys):
        spec = "identity"
        for _ in range(1200):
            spec = f"product({spec}, identity)"
        coin_config.elements["deep"] = ["identity", spec]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("configuration error at elements.deep[1]: ")
        assert "more than 500 deep" in captured.err
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
            ({"type": "project", "element": ["mean"]}, "tasks[0].element"),
            ({"type": "score", "elements": 5}, "tasks[0].elements"),
            ({**_CALIBRATE, "generator": {"example": "coin"}}, "tasks[0].generator.example"),
            ({**_CALIBRATE, "n": 0}, "tasks[0].n"),
            ({**_CALIBRATE, "replications": 2.5}, "tasks[0].replications"),
            ({"type": "example", "name": ["coin"]}, "tasks[0].name"),
            ({"type": "example", "name": "coin", "params": {"L": 2}},
             "tasks[0].params.eta"),
            ({"type": "project", "element": "mean", "out": 5}, "tasks[0].out"),
            ({"type": "project", "element": "mean", "max_iters": 1}, "tasks[0].max_iters"),
            ({"type": "project", "element": "mean", "tol": -1}, "tasks[0].tol"),
            ({"type": "ipf", "element": "spectrum", "variant": "exponential"},
             "tasks[0].variant"),
            ({"type": "project", "element": "mean", "max_iter": -1}, "tasks[0].max_iter"),
            ({"type": "test", "outer": "mean", "inner": "spectrum", "max_iter": 0},
             "tasks[0].max_iter"),
            ({**_CALIBRATE, "seed": -1}, "tasks[0].seed"),
            ({**_CALIBRATE, "seed": 2**64}, "tasks[0].seed"),
            ({"type": "ipf", "element": "spectrum", "max_cycles": 0}, "tasks[0].max_cycles"),
            ({"type": "score", "elements": []}, "tasks[0].elements"),
            ({"type": "score", "elements": ["mean", "spectrum", "mean"]},
             "tasks[0].elements[2]"),
        ],
    )
    def test_malformed_task_field(self, coin_config, task, field, tmp_path, capsys):
        # the data file does not exist: every task field is checked before it is read
        coin_config.data = str(tmp_path / "absent.csv")
        coin_config.tasks = [task]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"configuration error at {field}:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_oversized_calibration_sample_is_configuration_error(self, coin_config):
        coin_config.tasks = [{**self._CALIBRATE, "n": 2**63}]
        code, report = run(coin_config)
        assert code == 1
        assert report.startswith("configuration error at tasks[0]: sample size")

    def test_duplicate_declared_levels(self, coin_config, tmp_path, capsys):
        coin_config.space["domains"][1]["levels"] = ["head", "head"]
        config_path = tmp_path / "analysis.json"
        config_path.write_text(coin_config.to_json())
        code = main(["run", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error at space.domains[1]:" in captured.err
        assert "Traceback" not in captured.out + captured.err


# --- fuzzing: any config document or command line exits 0, 1 or 2 -------------

def _field_names():
    names = {"bogus", "domains", "nullentities", "levels", "path", "example", "type"}
    names.update(AnalysisConfig.FIELDS)
    for table in cli._TASKS.values():
        names.update(table)
    for _, params in cli._EXAMPLES.values():
        names.update(params)
    return sorted(names)


# No path separator in drawn text, so a drawn output path stays in the working directory.
_TEXT = st.text(alphabet="abehdlt=,;:()_ \0", max_size=6)
_WORDS = st.sampled_from(
    ["mean", "spectrum", "coin", "ising", "uniform", "identity", "success(head)",
     "s1=head,tail", "L=2", "eta=0.5", "0.5", "2", "head,tail", "project", "test"]
)
# Numbers stay small so that a drawn sample size, replication count or coin
# length keeps each run short.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 6) | _TEXT | _WORDS
            | st.floats(-8, 8) | st.sampled_from([float("nan"), float("inf"), 1e-300]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_field_names()) | _TEXT, inner, max_size=3),
    max_leaves=6,
)
# one valid task per type; a drawn task overlays drawn fields on one of them
_VALID_TASKS = {
    "project": {"element": "spectrum"},
    "score": {},
    "test": {"outer": "mean", "inner": "spectrum"},
    "ipf": {"element": "spectrum"},
    "calibrate": {"generator": {"example": {"name": "coin", "params": {"L": 2, "eta": 0.5}}},
                  "outer": "mean", "inner": "spectrum", "n": 20, "replications": 2},
    "example": {"name": "coin", "params": {"L": 2, "eta": 0.5}},
}


def _overlays(names):
    """No change three times in four, else one or two fields drawn from ``names``."""
    fields = st.dictionaries(st.sampled_from(names), _JSON, min_size=1, max_size=2)
    return st.integers(0, 3).flatmap(lambda k: fields if k == 0 else st.just({}))


_TASK_DOCS = st.builds(
    lambda kind, fields: {"type": kind, **_VALID_TASKS.get(kind, {}), **fields},
    st.sampled_from([*cli._TASKS, "bogus"]),
    _overlays(_field_names()),
)


def _exit_code(argv, capsys):
    """main's exit code; ``--help`` is argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert re.match(r"configuration error at .+?: ", captured.err), captured.err
    return code


_FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(
    tasks=st.lists(_TASK_DOCS, max_size=2),
    top=_overlays([*AnalysisConfig.FIELDS, "bogus"]),
)
def test_fuzzed_config_documents(coin_config, tmp_path, monkeypatch, capsys, tasks, top):
    monkeypatch.chdir(tmp_path)
    doc = {**coin_config.to_dict(), "tasks": tasks, **top}
    config_path = tmp_path / "fuzz.json"
    config_path.write_text(json.dumps(doc))
    _exit_code(["run", str(config_path)], capsys)


_SUBCOMMAND_FLAGS = {
    "project": ["--use"],
    "score": ["--use"],
    "test": ["--outer", "--inner"],
    "ipf": ["--use"],
    "calibrate": ["--generator", "--outer", "--inner", "--N", "--replications"],
}
_COMMON_FLAGS = ["--config", "--data", "--domain", "--nullentity", "--reference", "--element",
                 "--seed", "--tol", "--alpha", "--out"]


@_FUZZ
@given(data=st.data())
def test_fuzzed_command_lines(coin_config, coin_csv, tmp_path, monkeypatch, capsys, data):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "analysis.json"
    config_path.write_text(coin_config.to_json())
    command = data.draw(st.sampled_from(["run", "example", *_SUBCOMMAND_FLAGS]))
    values = _TEXT | _WORDS | st.sampled_from(
        [str(config_path), coin_csv, "s2=head,tail", "mean=identity;success(head)",
         "coin:L=2,eta=0.5", "k_marginal(1, head)", "-1", "nan"]
    )
    if command == "run":
        argv = [command, data.draw(st.sampled_from([str(config_path), "absent.json"]) | _TEXT)]
        flags = ["--seed", "--tol", "--alpha", "--out"]
    elif command == "example":
        argv = [command, data.draw(st.sampled_from(sorted(cli._EXAMPLES)) | _TEXT)]
        flags = ["--param", "--out"]
    else:
        argv = [command]
        flags = _COMMON_FLAGS + _SUBCOMMAND_FLAGS[command]
    for flag, value in data.draw(st.lists(st.tuples(st.sampled_from(flags), values),
                                          max_size=6)):
        # an --out value is drawn text only: it is written to the working directory
        argv += [flag, data.draw(_TEXT) if flag == "--out" else value]
    _exit_code(argv, capsys)


def _python(code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)


def test_import_leaves_logging_unloaded():
    code = "import sys, totem, totem.cli; print('logging' in sys.modules)"
    assert _python(code).stdout.strip() == "False"


def test_auto_reduce_warning_prints_nothing_by_default():
    # logging imported but not configured: Python's last-resort handler
    # would print the warning to stderr
    code = ("import logging, totem; from totem.closed_forms import coin_space; "
            "s = coin_space(2); print(totem.make_element("
            "[totem.identity_op(s), totem.identity_op(s)], mode='auto-reduce').labels)")
    done = _python(code)
    assert done.stdout.strip() == "('identity',)" and done.stderr == ""


def test_import_leaves_scipy_unloaded():
    code = "import sys, totem, totem.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _python(code).stdout.strip() == "[]"
