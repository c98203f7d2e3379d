"""The benchmark's workloads: set-up, inputs from the seed, one op, checks.

Each workload is a closed loop with one client: the next op starts only
after the previous one has returned.  ``setup`` is the timed part that
every op reuses; ``prepare`` makes the inputs from the seed and the data
the output checks need, untimed.  ``check`` returns a list of problems,
empty when the op's output is correct.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

# i_test's default Newton tolerance: the largest constraint residual it accepts
SOLVER_TOL = 1e-10


def _totem():
    return sys.modules["totem"]


def q_oracle(length, phi, n):
    """Closed-form nested-test Q for a success-count spectrum, and how far
    the program's Q may sit from it.

    ``Q = 2N D(phi || binomial(eta))`` over the count shells.  Each
    projection meets its constraints only to ``SOLVER_TOL``; moving
    ``phi_k`` by that much moves ``D`` by ``|log(phi_k / b_k) + 1|`` per
    unit, while ``eta`` enters only at second order (``D`` is stationary
    in it).
    """
    phi = np.asarray(phi, dtype=np.float64)
    k = np.arange(length + 1)
    eta = float(k @ phi) / length
    b = np.array([math.comb(length, j) for j in k]) * eta ** k * (1.0 - eta) ** (length - k)
    seen = phi > 0.0
    tolerance = 2.0 * n * SOLVER_TOL * float(np.sum(np.abs(np.log(phi[seen] / b[seen]) + 1.0)))
    return 2.0 * n * _totem().binomial_test_statistic_closed_form(length, phi), tolerance


def distinct_columns(element):
    """Number of distinct entity columns of an element's eigenvalue matrix."""
    columns = np.ascontiguousarray(element.matrix.T)
    rows = columns.view(np.dtype((np.void, columns.dtype.itemsize * columns.shape[1])))
    return len(np.unique(rows))


def check_q(q, oracle):
    expected, tolerance = oracle
    if not abs(q - expected) <= tolerance:
        return [f"Q {q!r} is not within {tolerance:.3g} of the closed form {expected!r}"]
    return []


def ks_limit(replications):
    """KS bound: 0.05 (acceptance criterion 06), or the 0.1% critical
    value 1.95/sqrt(R) where R is too small for that."""
    return max(0.05, 1.95 / math.sqrt(replications))


def check_calibration(q_values, dof, ks_reported, first_q_values):
    """The fair-coin test at L=3 has rank(k_marginal) - rank(coin) = 2 dof."""
    from scipy.stats import chi2

    problems = []
    if dof != 2:
        problems.append(f"dof {dof}, expected 2")
    q = np.sort(np.asarray(q_values, dtype=np.float64))
    m = len(q)
    cdf = chi2.cdf(q, 2)
    grid = np.arange(1, m + 1) / m
    ks = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))
    if abs(ks - ks_reported) > 1e-12:
        problems.append(f"reported KS {ks_reported!r} differs from recomputed {ks!r}")
    if not ks < ks_limit(m):
        problems.append(f"KS {ks!r} is not below {ks_limit(m)}")
    if first_q_values is not None and q_values.tobytes() != first_q_values.tobytes():
        problems.append("q_values differ from the run's first op")
    return problems


def report_q(report, outer, inner):
    """The Q line of the report's test section for ``outer`` -> ``inner``."""
    section = []
    for line in report.splitlines():
        if not line.startswith(" "):
            section = []
        section.append(line)
        if section[1:3] == [f"  outer: {outer}", f"  inner: {inner}"] and line.startswith("  Q: "):
            return float(line.split(": ", 1)[1])
    return None


def check_cli(code, report, first_report, oracle):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    errors = [line.strip() for line in report.splitlines() if line.startswith("  error:")]
    if errors:
        problems.append(f"task error: {errors[0]}")
    if first_report is not None and report != first_report:
        problems.append("report differs from the run's first report")
    q = report_q(report, "mean", "spectrum")
    if q is None:
        problems.append("no mean -> spectrum Q in the report")
    else:
        problems += [f"mean -> spectrum {p}" for p in check_q(q, oracle)]
    return problems


class ItestCoin:
    """Sample a dataset from a 0.6 coin, count it, run the nested test."""

    name = "itest_coin_L18"
    sizes = {"full": {"length": 18, "n": 10_000}, "toy": {"length": 6, "n": 10_000}}
    eta = 0.6

    def __init__(self, size, seed, workdir):
        self.length = self.sizes[size]["length"]
        self.n = self.sizes[size]["n"]
        self.base_seed = seed * 100_000
        self.units = {"datasets": 1, "replications": 1, "records": self.n}

    def setup(self):
        import totem
        self.space = totem.coin_space(self.length)
        self.outer = totem.coin_element(self.space)
        self.inner = totem.k_marginal_element(self.space)
        self.generator = totem.binomial_projection_closed_form(self.length, self.eta, self.space)
        self.reference = totem.uniform(self.space, "admissible")

    def prepare(self):
        head = [self.space.attribute(f"s{i + 1}").position("head") for i in range(self.length)]
        self.successes = sum(
            (self.space.level_codes(f"s{i + 1}") == head[i]).astype(np.int64)
            for i in range(self.length))

    def elements(self):
        return {"coin": self.outer, "k_marginal": self.inner}

    def op(self, i):
        totem = _totem()
        counts = totem.sample_multinomial(self.generator, self.n, seed=self.base_seed + i)
        empirical = totem.Distribution.from_counts(self.space, counts, self.n)
        report = totem.i_test(self.reference, self.outer, self.inner, empirical, self.n)
        return counts, report.q_statistic

    def oracle(self, counts):
        phi = np.bincount(self.successes, weights=counts[self.space.admissible_indices],
                          minlength=self.length + 1) / self.n
        return q_oracle(self.length, phi, self.n)

    def check(self, output):
        counts, q = output
        return check_q(q, self.oracle(counts))


class CalibrateCoin:
    """Null calibration of the fair-coin nested test (acceptance criterion 06)."""

    name = "calibrate_coin_L3"
    sizes = {"full": {"replications": 2000}, "toy": {"replications": 20}}
    length, eta, n = 3, 0.5, 2000

    def __init__(self, size, seed, workdir):
        self.replications = self.sizes[size]["replications"]
        self.seed = seed
        self.first_q_values = None
        r = self.replications
        self.units = {"datasets": r, "replications": r, "records": r * self.n}

    def setup(self):
        import totem
        self.generator = totem.binomial_projection_closed_form(self.length, self.eta)
        self.outer = totem.coin_element(self.generator.space)
        self.inner = totem.k_marginal_element(self.generator.space)

    def prepare(self):
        pass

    def elements(self):
        return {"coin": self.outer, "k_marginal": self.inner}

    def op(self, i):
        return _totem().calibration_experiment(
            self.generator, self.outer, self.inner, self.n, self.replications, self.seed)

    def check(self, result):
        problems = check_calibration(result.q_values, result.dof, result.ks_distance,
                                     self.first_q_values)
        if self.first_q_values is None:
            self.first_q_values = result.q_values
        return problems


class CliPipeline:
    """``totem run`` on a generated CSV and a seven-task config, in process."""

    name = "cli_pipeline_L12"
    sizes = {"full": {"records": 200_000}, "toy": {"records": 2000}}
    length, eta, kappa = 12, 0.6, 0.02

    def __init__(self, size, seed, workdir):
        self.records = self.sizes[size]["records"]
        self.seed = seed
        self.workdir = workdir
        self.first_report = None
        self.units = {"datasets": 1, "replications": 1, "records": self.records}

    def setup(self):
        import totem
        import totem.cli  # noqa: F401  (the op's entry point)

    def specs(self):
        per_trial = ["identity"] + [f"marginal(s{i + 1}=head)" for i in range(self.length)]
        return {
            "mean": ["identity", "success(head)"],
            "spectrum": [f"k_marginal({k}, head)" for k in range(self.length + 1)],
            "per_trial": per_trial,
            "pair": per_trial + ["product(marginal(s1=head), marginal(s2=head))"],
            "mean_dup": ["success(head)", "identity"],
        }

    def prepare(self):
        totem = _totem()
        generator = totem.ising_coin_generator(self.length, self.eta, self.kappa)
        self.space = generator.space
        rng = np.random.Generator(np.random.Philox(self.seed))
        counts = rng.multinomial(self.records, generator.weights / generator.weights.sum())
        records = np.repeat(np.arange(self.space.n_entities), counts)
        rng.shuffle(records)
        entities = [self.space.entity_at(e) for e in range(self.space.n_entities)]
        rows = [",".join(entity) for entity in entities]
        heads = np.array([entity.count("head") for entity in entities])
        phi = np.bincount(heads[records], minlength=self.length + 1) / self.records
        self.oracle = q_oracle(self.length, phi, self.records)

        data = os.path.join(self.workdir, "records.csv")
        with open(data, "w", encoding="utf-8") as handle:
            handle.write(",".join(self.space.attribute_names) + "\n")
            handle.write("\n".join(rows[e] for e in records.tolist()) + "\n")
        config = {
            "data": data,
            "space": {"domains": [{"name": d.name, "levels": list(d.levels)}
                                  for d in self.space.domains],
                      "nullentities": []},
            "reference": "uniform",
            "elements": self.specs(),
            "tasks": [
                {"type": "project", "element": "mean"},
                {"type": "project", "element": "per_trial"},
                {"type": "score"},
                {"type": "test", "outer": "mean", "inner": "spectrum"},
                {"type": "test", "outer": "per_trial", "inner": "pair"},
                {"type": "ipf", "element": "spectrum"},
                {"type": "ipf", "element": "per_trial"},
            ],
            "seed": self.seed,
        }
        self.config = os.path.join(self.workdir, "analysis.json")
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
        self.report = os.path.join(self.workdir, "report.txt")

    def elements(self):
        totem = _totem()
        return {name: totem.make_element([totem.operator_from_spec(self.space, s) for s in specs],
                                         mode="auto-reduce")
                for name, specs in self.specs().items()}

    def op(self, i):
        return _totem().cli.main(["run", self.config, "--out", self.report])

    def check(self, code):
        try:
            with open(self.report, encoding="utf-8") as handle:
                report = handle.read()
            os.remove(self.report)
        except FileNotFoundError:
            report = ""
        problems = check_cli(code, report, self.first_report, self.oracle)
        if self.first_report is None:
            self.first_report = report
        return problems


WORKLOADS = {w.name: w for w in (ItestCoin, CalibrateCoin, CliPipeline)}
