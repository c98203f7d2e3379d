"""Config-driven command line front end.

One JSON configuration drives a whole analysis: the entity space, the
data file, a reference distribution, named constructing elements and an
ordered task list.  Reports are plain text with a deterministic field
order and floats at 17 significant digits, so identical (config, data,
seed) inputs produce byte-identical output; reproducibility is the
product.

Exit codes: 0 success, 1 configuration or validation error (the message
names the offending config path), 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .closed_forms import (
    binomial_projection_closed_form,
    ising_coin_generator,
    k_marginal_projection_closed_form,
    logistic_model_distribution,
    two_coin_projection_closed_form,
)
from .distribution import distribution_to_dict, load_distribution, uniform
from .entity import AttributeDomain, EntitySpace, empirical_distribution, ingest_csv
from .errors import ConfigError, NonConvergenceError, ProjectionError, TotemError
from .inference import calibration_experiment, i_test, select_element
from .operators import Totemplex, make_element, operator_from_spec
from .projection import ipf_project, newton_project

__all__ = ["AnalysisConfig", "run", "report_emit", "main"]

_EXAMPLES = {
    "coin": (
        binomial_projection_closed_form,
        {"L": int, "eta": float},
    ),
    "k-marginal": (
        lambda L, phi: k_marginal_projection_closed_form(L, phi),
        {"L": int, "phi": "floats"},
    ),
    "two-coin": (
        two_coin_projection_closed_form,
        {"L": int, "phi_a": float, "eta_a": float, "eta_b": float},
    ),
    "ising": (
        ising_coin_generator,
        {"L": int, "eta": float, "kappa": float, "i0": int, "j0": int},
    ),
    "logistic": (
        lambda m, beta0, betas: logistic_model_distribution(m, beta0, betas),
        {"m": int, "beta0": float, "betas": "floats"},
    ),
}

_TASK_TYPES = ("project", "score", "test", "ipf", "calibrate", "example")


def _coerce(field, kind, value):
    """``kind(value)``, or a ConfigError naming ``field``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected {kind.__name__}, got {value!r}") from None


def _task_field(task, i, key, kind, default):
    """Task field ``key`` as ``kind`` (``default`` when absent), or a
    ConfigError naming ``tasks[i].key``."""
    return _coerce(f"tasks[{i}].{key}", kind, task.get(key, default))


def _fmt(value):
    """Numbers at 17 significant digits; deterministic."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


class AnalysisConfig:
    """Validated analysis description; round-trips through JSON."""

    FIELDS = ("data", "space", "reference", "elements", "tasks",
              "seed", "tol", "max_iter", "alpha")

    def __init__(self, data=None, space="infer", reference="uniform",
                 elements=None, tasks=None, seed=0, tol=1e-10,
                 max_iter=200, alpha=0.05):
        if not isinstance(elements, (dict, type(None))):
            raise ConfigError("elements", "expected an object of named operator spec lists")
        if not isinstance(tasks, (list, tuple, type(None))):
            raise ConfigError("tasks", "expected a list of tasks")
        self.data = data
        self.space = space
        self.reference = reference
        self.elements = dict(elements or {})
        self.tasks = list(tasks or [])
        self.seed = _coerce("seed", int, seed)
        self.tol = _coerce("tol", float, tol)
        self.max_iter = _coerce("max_iter", int, max_iter)
        self.alpha = _coerce("alpha", float, alpha)
        self._validate()

    def _validate(self):
        if self.space != "infer":
            if not isinstance(self.space, dict) or "domains" not in self.space:
                raise ConfigError("space", "expected 'infer' or {'domains': [...]}")
            for i, dom in enumerate(self.space["domains"]):
                if not isinstance(dom, dict) or "name" not in dom or "levels" not in dom:
                    raise ConfigError(f"space.domains[{i}]", "expected {'name', 'levels'}")
        for name, specs in self.elements.items():
            if not isinstance(specs, list) or not specs:
                raise ConfigError(f"elements.{name}", "expected a nonempty list of operator specs")
        for i, task in enumerate(self.tasks):
            if not isinstance(task, dict) or "type" not in task:
                raise ConfigError(f"tasks[{i}]", "expected {'type': ...}")
            if task["type"] not in _TASK_TYPES:
                raise ConfigError(
                    f"tasks[{i}].type",
                    f"unknown task {task['type']!r}; expected one of {list(_TASK_TYPES)}",
                )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha", f"must be in (0, 1), got {self.alpha}")
        if self.tol <= 0:
            raise ConfigError("tol", f"must be positive, got {self.tol}")

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")
        unknown = set(doc) - set(cls.FIELDS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        return cls(**doc)

    def to_dict(self):
        return {
            "data": self.data,
            "space": self.space,
            "reference": self.reference,
            "elements": self.elements,
            "tasks": self.tasks,
            "seed": self.seed,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "alpha": self.alpha,
        }

    @classmethod
    def from_json(cls, text):
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def fingerprint(self):
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def __eq__(self, other):
        return isinstance(other, AnalysisConfig) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"AnalysisConfig(tasks={[t.get('type') for t in self.tasks]})"


def _build_example(name, params, path):
    if name not in _EXAMPLES:
        raise ConfigError(path, f"unknown example {name!r}; expected one of {sorted(_EXAMPLES)}")
    builder, schema = _EXAMPLES[name]
    args = []
    for key, kind in schema.items():
        if key not in params:
            if name == "ising" and key in ("i0", "j0"):
                args.append({"i0": 0, "j0": 1}[key])
                continue
            raise ConfigError(f"{path}.{key}", f"example {name!r} needs parameter {key!r}")
        raw = params[key]
        try:
            if kind == "floats":
                if isinstance(raw, str):
                    raw = [float(x) for x in raw.split(",") if x.strip()]
                args.append([float(x) for x in raw])
            else:
                args.append(kind(raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.{key}", f"bad value {raw!r}: {exc}") from exc
    extra = set(params) - set(schema)
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}", f"unknown parameter for example {name!r}")
    try:
        return builder(*args)
    except TotemError as exc:
        raise ConfigError(path, str(exc)) from exc


class _Analysis:
    """Materialized config: space, data, reference, elements, caches."""

    def __init__(self, config):
        self.config = config
        self.table = None
        self.space = None
        self.empirical = None
        self.data_fingerprint = "none"
        self._cache = {}

        domains = None
        if config.space != "infer":
            domains = []
            for j, d in enumerate(config.space["domains"]):
                try:
                    domains.append(AttributeDomain(d["name"], d["levels"]))
                except TotemError as exc:
                    raise ConfigError(f"space.domains[{j}]", str(exc)) from exc

        if config.data is not None:
            try:
                self.table = ingest_csv(
                    config.data, schema="infer" if domains is None else domains
                )
            except TotemError as exc:
                raise ConfigError("data", str(exc)) from exc

        if domains is not None:
            nulls = [tuple(e) for e in config.space.get("nullentities", [])]
            try:
                self.space = EntitySpace(domains, nulls)
            except TotemError as exc:
                raise ConfigError("space", str(exc)) from exc
        elif self.table is not None:
            self.space = EntitySpace(self.table.domains)

        if self.table is not None:
            try:
                self.empirical = empirical_distribution(self.space, self.table)
            except TotemError as exc:
                raise ConfigError("data", str(exc)) from exc
            self.data_fingerprint = hashlib.sha256(
                self.empirical.counts.tobytes()
            ).hexdigest()

        self.reference = self._build_reference(config.reference)
        self.reference_fingerprint = (
            hashlib.sha256(self.reference.weights.tobytes()).hexdigest()
            if self.reference is not None
            else "none"
        )
        if config.elements and self.space is None:
            raise ConfigError(
                "elements", "element declarations need a space ('space' or 'data')"
            )
        self.elements = {}
        for name, specs in config.elements.items():
            ops = []
            for i, spec in enumerate(specs):
                try:
                    ops.append(operator_from_spec(self.space, spec))
                except TotemError as exc:
                    raise ConfigError(f"elements.{name}[{i}]", str(exc)) from exc
            try:
                self.elements[name] = make_element(ops, mode="auto-reduce")
            except TotemError as exc:
                raise ConfigError(f"elements.{name}", str(exc)) from exc

    def _build_reference(self, spec):
        if self.space is None:
            return None
        if spec == "uniform":
            return uniform(self.space, "admissible")
        if spec == "uniform-full":
            return uniform(self.space, "full")
        if isinstance(spec, dict) and "path" in spec:
            try:
                return load_distribution(spec["path"], space=self.space)
            except TotemError as exc:
                raise ConfigError("reference.path", str(exc)) from exc
        raise ConfigError(
            "reference", f"expected 'uniform', 'uniform-full' or {{'path': ...}}, got {spec!r}"
        )

    def element(self, name, path):
        if name not in self.elements:
            raise ConfigError(path, f"unknown element {name!r}; declared: {sorted(self.elements)}")
        return self.elements[name]

    def need_data(self, path):
        if self.empirical is None:
            raise ConfigError(path, "this task needs a data file ('data' is not set)")
        return self.empirical

    def project_cached(self, element, tol, max_iter):
        key = (self.reference_fingerprint, element.fingerprint, self.data_fingerprint)
        if key not in self._cache:
            plex = Totemplex(element, self.empirical)
            self._cache[key] = newton_project(
                self.reference, plex, tol=tol, max_iter=max_iter
            )
        return self._cache[key]


def _kv(lines, key, value, indent=2):
    lines.append(" " * indent + f"{key}: {_fmt(value)}")


def _run_project(analysis, task, i, lines, config):
    element = analysis.element(task.get("element", ""), f"tasks[{i}].element")
    analysis.need_data(f"tasks[{i}]")
    result = analysis.project_cached(
        element,
        _task_field(task, i, "tol", float, config.tol),
        _task_field(task, i, "max_iter", int, config.max_iter),
    )
    _kv(lines, "element", task["element"])
    _kv(lines, "element fingerprint", result.element_fingerprint)
    _kv(lines, "method", result.method)
    _kv(lines, "iterations", result.iterations)
    _kv(lines, "residual", result.residual)
    _kv(lines, "divergence from reference", result.divergence_from_reference)
    _kv(lines, "boundary", result.boundary)
    for op, theta in zip(element.operators, result.multipliers):
        _kv(lines, f"multiplier {op.label}", theta)
    out = task.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(distribution_to_dict(result.distribution), handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        _kv(lines, "distribution written to", out)


def _run_score(analysis, task, i, lines, config):
    empirical = analysis.need_data(f"tasks[{i}]")
    names = task.get("elements") or sorted(analysis.elements)
    elements = [analysis.element(name, f"tasks[{i}].elements") for name in names]
    n = _task_field(task, i, "n", int, empirical.n_samples)
    reports = select_element(
        analysis.reference, elements, empirical, n,
        tol=_task_field(task, i, "tol", float, config.tol),
        max_iter=_task_field(task, i, "max_iter", int, config.max_iter),
    )
    label_of = {analysis.elements[name].fingerprint: name for name in names}
    _kv(lines, "N", n)
    _kv(lines, "note", "scores drop the O(1) term; only differences matter")
    for rank, report in enumerate(reports, start=1):
        name = label_of.get(report.element_fingerprint, "?")
        _kv(lines, f"rank {rank}", name)
        _kv(lines, "score", report.score, indent=4)
        _kv(lines, "divergence", report.divergence, indent=4)
        _kv(lines, "kernel dimension", report.kernel_dim, indent=4)
        if report.note:
            _kv(lines, "note", report.note, indent=4)
        if report.error:
            _kv(lines, "error", report.error, indent=4)


def _run_test(analysis, task, i, lines, config):
    empirical = analysis.need_data(f"tasks[{i}]")
    outer = analysis.element(task.get("outer", ""), f"tasks[{i}].outer")
    inner = analysis.element(task.get("inner", ""), f"tasks[{i}].inner")
    n = _task_field(task, i, "n", int, empirical.n_samples)
    alpha = _task_field(task, i, "alpha", float, config.alpha)
    tol = _task_field(task, i, "tol", float, config.tol)
    max_iter = _task_field(task, i, "max_iter", int, config.max_iter)
    try:
        report = i_test(
            analysis.reference, outer, inner, empirical, n, alpha,
            tol=tol, max_iter=max_iter,
        )
    except TotemError as exc:
        if isinstance(exc, ProjectionError):
            raise
        raise ConfigError(f"tasks[{i}]", str(exc)) from exc
    _kv(lines, "outer", task["outer"])
    _kv(lines, "inner", task["inner"])
    _kv(lines, "N", report.n)
    _kv(lines, "Q", report.q_statistic)
    _kv(lines, "dof", report.dof)
    _kv(lines, "p value", report.p_value)
    if report.p_value_underflow:
        _kv(lines, "p value underflow", True)
    _kv(lines, "alpha", report.alpha)
    _kv(lines, "decision", "reject" if report.reject else "retain")


def _run_ipf(analysis, task, i, lines, config):
    empirical = analysis.need_data(f"tasks[{i}]")
    element = analysis.element(task.get("element", ""), f"tasks[{i}].element")
    rows = element.matrix
    if not np.all((np.abs(rows) < 1e-12) | (np.abs(rows - 1.0) < 1e-12)):
        raise ConfigError(
            f"tasks[{i}].element",
            "iterative proportional fitting needs an element of binary "
            "(marginal) operators",
        )
    targets = element.expectations(empirical)
    result = ipf_project(
        analysis.reference, rows, targets,
        tol=_task_field(task, i, "tol", float, config.tol),
        max_cycles=_task_field(task, i, "max_cycles", int, 10_000),
        variant=task.get("variant", "proportional"),
    )
    _kv(lines, "element", task["element"])
    _kv(lines, "variant", task.get("variant", "proportional"))
    _kv(lines, "cycles", result.iterations)
    _kv(lines, "residual", result.residual)
    _kv(lines, "divergence from reference", result.divergence_from_reference)
    _kv(lines, "boundary", result.boundary)
    out = task.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(distribution_to_dict(result.distribution), handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        _kv(lines, "distribution written to", out)


def _resolve_generator(analysis, spec, path):
    if isinstance(spec, dict) and "example" in spec:
        ex = spec["example"]
        return _build_example(ex.get("name", ""), ex.get("params", {}), f"{path}.example")
    if isinstance(spec, dict) and "path" in spec:
        try:
            return load_distribution(spec["path"])
        except TotemError as exc:
            raise ConfigError(f"{path}.path", str(exc)) from exc
    raise ConfigError(path, "expected {'example': {...}} or {'path': ...}")


def _run_calibrate(analysis, task, i, lines, config):
    generator = _resolve_generator(analysis, task.get("generator", {}), f"tasks[{i}].generator")
    space = generator.space
    outer_specs = task.get("outer")
    inner_specs = task.get("inner")
    if isinstance(outer_specs, str):
        outer = analysis.element(outer_specs, f"tasks[{i}].outer")
        inner = analysis.element(inner_specs, f"tasks[{i}].inner")
    else:
        try:
            outer = make_element(
                [operator_from_spec(space, s) for s in outer_specs], mode="auto-reduce"
            )
            inner = make_element(
                [operator_from_spec(space, s) for s in inner_specs], mode="auto-reduce"
            )
        except (TotemError, TypeError) as exc:
            raise ConfigError(f"tasks[{i}].outer/inner", str(exc)) from exc
    n = _task_field(task, i, "n", int, 0)
    if n < 1:
        raise ConfigError(f"tasks[{i}].n", "calibration needs a positive sample size")
    replications = _task_field(task, i, "replications", int, 0)
    if replications < 1:
        raise ConfigError(f"tasks[{i}].replications", "need at least one replication")
    seed = _task_field(task, i, "seed", int, config.seed)
    alpha = _task_field(task, i, "alpha", float, config.alpha)
    result = calibration_experiment(
        generator, outer, inner, n, replications, seed,
        alpha=alpha, tol=_task_field(task, i, "tol", float, config.tol),
        max_iter=_task_field(task, i, "max_iter", int, config.max_iter),
    )
    _kv(lines, "N", result.n)
    _kv(lines, "replications", result.replications)
    _kv(lines, "seed", result.seed)
    _kv(lines, "dof", result.dof)
    _kv(lines, "mean Q", result.mean_q)
    _kv(lines, "KS distance", result.ks_distance)
    _kv(lines, "alpha", alpha)
    _kv(lines, "rejection rate", result.rejection_rate(alpha))


def _run_example(analysis, task, i, lines, config):
    name = task.get("name", "")
    dist = _build_example(name, task.get("params", {}), f"tasks[{i}].params")
    _kv(lines, "example", name)
    _kv(lines, "entities", dist.space.n_entities)
    doc = json.dumps(distribution_to_dict(dist), indent=1, sort_keys=True) + "\n"
    out = task.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(doc)
        _kv(lines, "distribution written to", out)
    else:
        _kv(lines, "distribution", "inline below")
        lines.extend("  " + line for line in doc.rstrip("\n").split("\n"))


_RUNNERS = {
    "project": _run_project,
    "score": _run_score,
    "test": _run_test,
    "ipf": _run_ipf,
    "calibrate": _run_calibrate,
    "example": _run_example,
}


def report_emit(config, sections):
    """Assemble the final report document; deterministic field order."""
    lines = [
        "totem report",
        f"  version: {__version__}",
        f"  config fingerprint: {config.fingerprint()}",
        f"  seed: {config.seed}",
        f"  tol: {_fmt(config.tol)}",
        f"  alpha: {_fmt(config.alpha)}",
    ]
    for title, body in sections:
        lines.append(title)
        lines.extend(body)
    return "\n".join(lines) + "\n"


def run(config, out=None):
    """Execute every task of ``config`` in order; returns (exit code, report)."""
    sections = []
    try:
        analysis = _Analysis(config)
        if analysis.space is not None:
            sections.append((
                "inputs",
                [
                    f"  space fingerprint: {analysis.space.fingerprint}",
                    f"  data fingerprint: {analysis.data_fingerprint}",
                    f"  entities: {analysis.space.n_entities}",
                    f"  admissible: {analysis.space.n_admissible}",
                ]
                + (
                    [f"  N: {analysis.empirical.n_samples}"]
                    if analysis.empirical is not None
                    else []
                ),
            ))
        code = 0
        for i, task in enumerate(config.tasks):
            body = []
            try:
                _RUNNERS[task["type"]](analysis, task, i, body, config)
            except NonConvergenceError as exc:
                body.append(f"  error: {exc}")
                body.append("  hint: retry via chained stages or a looser tolerance")
                code = 2
            except ProjectionError as exc:
                body.append(f"  error: {exc}")
                code = 2
            except ConfigError:
                raise
            except TotemError as exc:
                raise ConfigError(f"tasks[{i}]", str(exc)) from exc
            sections.append((f"task {i + 1}: {task['type']}", body))
    except ConfigError as exc:
        return 1, f"configuration error at {exc.path}: {exc.args[0].split(': ', 1)[-1]}\n"
    report = report_emit(config, sections)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return code, report


# --- argument parsing ---------------------------------------------------------

def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return AnalysisConfig.from_json(text)


def _config_from_args(args):
    if getattr(args, "config", None):
        config = _read_config(args.config)
    else:
        space = "infer"
        if getattr(args, "domain", None):
            domains = []
            for item in args.domain:
                if "=" not in item:
                    raise ConfigError("--domain", f"expected name=lvl1,lvl2, got {item!r}")
                name, levels = item.split("=", 1)
                domains.append({"name": name, "levels": levels.split(",")})
            space = {"domains": domains,
                     "nullentities": [e.split(",") for e in (args.nullentity or [])]}
        elements = {}
        for item in getattr(args, "element", None) or []:
            if "=" not in item:
                raise ConfigError("--element", f"expected name=spec;spec, got {item!r}")
            name, specs = item.split("=", 1)
            elements[name] = [s.strip() for s in specs.split(";") if s.strip()]
        config = AnalysisConfig(
            data=getattr(args, "data", None),
            space=space,
            reference=getattr(args, "reference", "uniform") or "uniform",
            elements=elements,
        )
    return _override(config, args)


def _override(config, args):
    """Apply the --seed/--tol/--alpha command-line overrides to ``config``."""
    for field in ("seed", "tol", "alpha"):
        value = getattr(args, field, None)
        if value is not None:
            setattr(config, field, type(getattr(config, field))(value))
    return config


def _add_common(parser, with_elements=True):
    parser.add_argument("--config", help="JSON analysis configuration")
    parser.add_argument("--data", help="CSV data file (header row, UTF-8)")
    parser.add_argument("--domain", action="append",
                        help="attribute declaration name=lvl1,lvl2 (repeatable)")
    parser.add_argument("--nullentity", action="append",
                        help="inadmissible entity lvl1,lvl2,... (repeatable)")
    parser.add_argument("--reference", default=None,
                        help="'uniform', 'uniform-full' (default: uniform)")
    if with_elements:
        parser.add_argument("--element", action="append",
                            help="element declaration name=spec;spec (repeatable)")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--tol", type=float, default=None, help="override tolerance")
    parser.add_argument("--alpha", type=float, default=None, help="override significance level")
    parser.add_argument("--out", default=None, help="write the report to this file")


def _parse_kv_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError("--param", f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value
    return params


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="totem",
        description="Constraint-driven distribution fitting, scoring and testing "
                    "on finite entity spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every task of a config file")
    p_run.add_argument("config_file", help="JSON analysis configuration")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--out", default=None)

    for name, extra in (
        ("project", [("--use", "element to project onto")]),
        ("score", [("--use", "comma-separated element names (default: all)")]),
        ("test", [("--outer", "coarser element"), ("--inner", "finer element")]),
        ("ipf", [("--use", "element with binary rows"),
                 ("--variant", "proportional|exponential")]),
    ):
        p = sub.add_parser(name, help=f"single {name} task")
        _add_common(p)
        for flag, help_text in extra:
            p.add_argument(flag, help=help_text)

    p_cal = sub.add_parser("calibrate", help="null-calibration experiment")
    _add_common(p_cal)
    p_cal.add_argument("--generator", required=True,
                       help="example spec name:key=value,... or a distribution JSON path")
    p_cal.add_argument("--outer", required=True, help="coarser element (name or spec list)")
    p_cal.add_argument("--inner", required=True, help="finer element (name or spec list)")
    p_cal.add_argument("--N", type=int, required=True, dest="n")
    p_cal.add_argument("--replications", type=int, required=True)

    p_ex = sub.add_parser("example", help="emit a named generator/oracle distribution")
    p_ex.add_argument("name", choices=sorted(_EXAMPLES))
    p_ex.add_argument("--param", action="append",
                      help="key=value builder parameter (repeatable)")
    p_ex.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = _override(_read_config(args.config_file), args)
            code, report = run(config, out=args.out)
            if not args.out:
                sys.stdout.write(report)
            elif code == 1:
                sys.stderr.write(report)
            return code

        if args.command == "example":
            config = AnalysisConfig(tasks=[{
                "type": "example",
                "name": args.name,
                "params": _parse_kv_params(args.param),
                **({"out": args.out} if args.out else {}),
            }])
            code, report = run(config)
            sys.stdout.write(report)
            return code

        config = _config_from_args(args)
        task = None
        if args.command == "project":
            names = list(config.elements)
            use = args.use or (names[0] if len(names) == 1 else None)
            if use is None:
                raise ConfigError("--use", "name the element to project onto")
            task = {"type": "project", "element": use}
        elif args.command == "score":
            use = [s for s in (args.use or "").split(",") if s] or None
            task = {"type": "score", **({"elements": use} if use else {})}
        elif args.command == "test":
            if not args.outer or not args.inner:
                raise ConfigError("--outer/--inner", "the test needs both elements")
            task = {"type": "test", "outer": args.outer, "inner": args.inner}
        elif args.command == "ipf":
            names = list(config.elements)
            use = args.use or (names[0] if len(names) == 1 else None)
            if use is None:
                raise ConfigError("--use", "name the element with the marginal rows")
            task = {"type": "ipf", "element": use,
                    "variant": args.variant or "proportional"}
        elif args.command == "calibrate":
            if ":" in args.generator:
                gen_name, _, raw = args.generator.partition(":")
                params = _parse_kv_params(raw.split(",")) if raw else {}
                generator = {"example": {"name": gen_name, "params": params}}
            else:
                generator = {"path": args.generator}
            def element_arg(value):
                return value if value in config.elements else [
                    s.strip() for s in value.split(";") if s.strip()
                ]
            task = {
                "type": "calibrate",
                "generator": generator,
                "outer": element_arg(args.outer),
                "inner": element_arg(args.inner),
                "n": args.n,
                "replications": args.replications,
            }
        config.tasks = [task]
        code, report = run(config, out=args.out)
        if not args.out:
            sys.stdout.write(report)
        return code
    except ConfigError as exc:
        sys.stderr.write(f"configuration error at {exc.path}: "
                         f"{exc.args[0].split(': ', 1)[-1]}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
