"""Self-test of the benchmark at toy sizes (L=6, R=20, 2,000 records).

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is emitted with its unit, in
the untraced and the traced run of each workload, and that each output
check rejects a deliberately perturbed result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=False)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_emits_every_metric_with_its_unit(name, trace):
    done = bench("--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert done.returncode == 0, done.stderr
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    detail = json.loads(detail_line)
    assert result["failed"] == round(detail["failed_frac"] * detail["ops"])
    assert result["correct"], detail["failures"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float)), m["name"]
    for key in ("git_commit", "python", "numpy", "scipy", "blas", "blas_threads",
                "nproc", "cpu_model", "seed"):
        assert key in detail["provenance"]
    assert detail["ops"] == result["attempted"]
    assert 0 < detail["op_tail_percentile"] <= 100


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == ""


def run_one(cls, workdir):
    w = cls("toy", 5, workdir)
    w.setup()
    w.prepare()
    return w, w.op(0)


def test_itest_check_rejects_a_perturbed_statistic():
    w, (counts, q) = run_one(workloads.ItestCoin, None)
    oracle = w.oracle(counts)
    assert workloads.check_q(q, oracle) == []
    assert workloads.check_q(q * (1 + 1e-3), oracle)
    assert workloads.check_q(q, w.oracle(np.roll(counts, 1)))


def test_calibration_check_rejects_perturbed_results():
    w, result = run_one(workloads.CalibrateCoin, None)
    q, ks = result.q_values, result.ks_distance
    assert workloads.check_calibration(q, result.dof, ks, q) == []
    assert workloads.check_calibration(q, 3, ks, q)
    assert workloads.check_calibration(q, result.dof, ks + 1e-9, q)
    bumped = q.copy()
    bumped[0] = np.nextafter(bumped[0], np.inf)
    assert workloads.check_calibration(bumped, result.dof, ks, q)
    far = np.full_like(q, 50.0)
    assert workloads.check_calibration(far, result.dof, 1.0, None)


def test_cli_check_rejects_perturbed_results():
    with tempfile.TemporaryDirectory() as workdir:
        w, code = run_one(workloads.CliPipeline, workdir)
        report = Path(w.report).read_text()
    expected, tolerance = w.oracle
    assert workloads.check_cli(code, report, report, w.oracle) == []
    assert workloads.check_cli(2, report, report, w.oracle)
    assert workloads.check_cli(code, report + "\n", report, w.oracle)
    assert workloads.check_cli(code, report, None, (expected * (1 + 1e-3), tolerance))
    errored = report.replace("  method: newton", "  error: did not converge", 1)
    assert workloads.check_cli(code, errored, None, w.oracle)
