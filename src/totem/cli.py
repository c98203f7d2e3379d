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
import math
import sys
from contextlib import contextmanager

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
from .projection import DEFAULT_MAX_CYCLES, DEFAULT_MAX_ITER, DEFAULT_TOL, _ipf, newton_project

__all__ = ["AnalysisConfig", "run", "report_emit", "main"]

# --- the field table -----------------------------------------------------------
#
# Every field is read through one table: _CONFIG_FIELDS for the top level,
# _TASKS for each task type and _EXAMPLES for each example's parameters.  A
# kind turns a raw value into a checked one or raises a ConfigError naming
# its path; _RULES bounds a value by field name, so a field obeys the same
# rule at the top level, in a task and as a command-line override.

_REQUIRED = object()  # default of a field that must be given
_INHERIT = object()  # default: the top-level field of the same name


def _kind(accepts, expected):
    """The kind of a field whose value is kept as given when ``accepts`` it."""
    def check(value, path, config=None):
        if not accepts(value):
            raise ConfigError(path, f"expected {expected}, got {value!r}")
        return value
    return check


def _number(kind):
    """The kind of an int or float field: a number or a numeric string;
    bools are rejected, and an int must be integral."""
    def check(value, path, config=None):
        try:
            number = kind(value) if isinstance(value, str) else value
            if (isinstance(number, bool) or not isinstance(number, (int, float))
                    or (kind is int and number != int(number))):
                raise ValueError
            return kind(number)
        except (ValueError, OverflowError):
            raise ConfigError(path, f"expected {kind.__name__}, got {value!r}") from None
    return check


def _list_of(kind):
    """The kind of a list whose items are each of ``kind``."""
    def check(value, path, config=None):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return [kind(item, f"{path}[{j}]", config) for j, item in enumerate(value)]
    return check


_int, _float = _number(int), _number(float)
_string = _kind(lambda v: isinstance(v, str), "a string")
_object = _kind(lambda v: isinstance(v, dict), "an object")
_path = _kind(lambda v: isinstance(v, str) and "\0" not in v, "a file path")
_tasks = _kind(lambda v: isinstance(v, (list, tuple)), "a list of tasks")
_label = _kind(lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool),
               "a level label")
_specs = _kind(lambda v: isinstance(v, list) and v and all(isinstance(s, str) for s in v),
               "a nonempty list of operator spec strings")


def _floats(value, path, config=None):
    """Numbers, as a list or as one comma-separated string (``--param``)."""
    items = [x for x in value.split(",") if x.strip()] if isinstance(value, str) else value
    return _list_of(_float)(items, path)


def _data(value, path, config=None):
    return None if value is None else _path(value, path)


def _space(value, path, config=None):
    if value != "infer":
        _fields(value, _SPACE_FIELDS, path)
    return value


def _reference(value, path, config=None):
    if value not in ("uniform", "uniform-full"):
        _fields(value, {"path": (_path, _REQUIRED)}, path)
    return value


def _elements(value, path, config=None):
    for name, specs in _object(value, path).items():
        _specs(specs, f"{path}.{name}")
    return value


def _element(value, path, config):
    """The name of an element declared under ``elements``."""
    if _string(value, path) not in config.elements:
        raise ConfigError(path, f"unknown element {value!r}; declared: {sorted(config.elements)}")
    return value


def _element_names(value, path, config):
    """A nonempty list of distinct declared elements' names."""
    if isinstance(value, (list, tuple)) and not value:
        raise ConfigError(path, f"expected at least one element name, got {value!r}")
    names = _list_of(_element)(value, path, config)
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ConfigError(f"{path}[{j}]", f"element {name!r} is listed twice")
    return names


def _element_or_specs(value, path, config):
    """A declared element's name, or a spec list (built on the generator's space)."""
    return _element(value, path, config) if isinstance(value, str) else _specs(value, path)


def _generator(value, path, config=None):
    """A calibration generator; returns a function that builds or loads it."""
    if isinstance(value, dict) and list(value) == ["example"]:
        example = _fields(value["example"], _EXAMPLE_FIELDS, f"{path}.example")
        return _example(example["name"], example["params"], f"{path}.example")
    if isinstance(value, dict) and list(value) == ["path"]:
        source = _path(value["path"], f"{path}.path")
        return lambda: _load(source, f"{path}.path")
    raise ConfigError(path, "expected {'example': {'name': ..., 'params': {...}}} or {'path': ...}")


_CONFIG_FIELDS = {
    "data": _data, "space": _space, "reference": _reference, "elements": _elements,
    "tasks": _tasks, "seed": _int, "tol": _float, "max_iter": _int, "alpha": _float,
}
_DOMAIN_FIELDS = {"name": (_string, _REQUIRED), "levels": (_list_of(_label), _REQUIRED)}
_SPACE_FIELDS = {
    "domains": (_list_of(lambda d, path, config: _fields(d, _DOMAIN_FIELDS, path)), _REQUIRED),
    "nullentities": (_list_of(_list_of(_label)), []),
}
_RULES = {
    "tol": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "alpha": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "n": (lambda v: v >= 1, "at least 1"),
    "replications": (lambda v: v >= 1, "at least 1"),
    "max_iter": (lambda v: v >= 1, "at least 1"),
    "max_cycles": (lambda v: v >= 1, "at least 1"),
    "seed": (lambda v: 0 <= v < 1 << 64, "in [0, 2^64)"),
}

# required int, float and float-list fields
_INT, _FLOAT, _FLOATS = (_int, _REQUIRED), (_float, _REQUIRED), (_floats, _REQUIRED)
# example name -> (builder, its parameters in argument order)
_EXAMPLES = {
    "coin": (binomial_projection_closed_form, {"L": _INT, "eta": _FLOAT}),
    "k-marginal": (k_marginal_projection_closed_form, {"L": _INT, "phi": _FLOATS}),
    "two-coin": (two_coin_projection_closed_form,
                 {"L": _INT, "phi_a": _FLOAT, "eta_a": _FLOAT, "eta_b": _FLOAT}),
    "ising": (ising_coin_generator,
              {"L": _INT, "eta": _FLOAT, "kappa": _FLOAT, "i0": (_int, 0), "j0": (_int, 1)}),
    "logistic": (logistic_model_distribution, {"m": _INT, "beta0": _FLOAT, "betas": _FLOATS}),
}
_EXAMPLE_FIELDS = {
    "name": (_kind(lambda v: isinstance(v, str) and v in _EXAMPLES, f"one of {list(_EXAMPLES)}"),
             _REQUIRED),
    "params": (_object, {}),
}

# task type -> field -> (kind, default); a score or test ``n`` defaults to the data's N
_ELEMENT = (_element, _REQUIRED)
_TOL, _MAX_ITER, _ALPHA = (_float, _INHERIT), (_int, _INHERIT), (_float, _INHERIT)
_OUT = (_path, None)
_TASKS = {
    "project": {"element": _ELEMENT, "tol": _TOL, "max_iter": _MAX_ITER, "out": _OUT},
    "score": {"elements": (_element_names, None), "n": (_int, None),
              "tol": _TOL, "max_iter": _MAX_ITER},
    "test": {"outer": _ELEMENT, "inner": _ELEMENT, "n": (_int, None), "alpha": _ALPHA,
             "tol": _TOL, "max_iter": _MAX_ITER},
    "ipf": {"element": _ELEMENT, "tol": _TOL, "max_cycles": (_int, DEFAULT_MAX_CYCLES),
            "out": _OUT},
    "calibrate": {"generator": (_generator, _REQUIRED),
                  "outer": (_element_or_specs, _REQUIRED),
                  "inner": (_element_or_specs, _REQUIRED),
                  "n": _INT, "replications": _INT, "seed": (_int, _INHERIT),
                  "alpha": _ALPHA, "tol": _TOL, "max_iter": _MAX_ITER},
    "example": {**_EXAMPLE_FIELDS, "out": _OUT},
}
_DATA_TASKS = ("project", "score", "test", "ipf")
_task_type = _kind(lambda v: isinstance(v, str) and v in _TASKS, f"one of {list(_TASKS)}")


def _check(kind, name, value, path, config=None):
    """``value`` of field ``name`` through its kind and its rule."""
    value = kind(value, path, config)
    holds, text = _RULES.get(name, (None, None))
    if holds is not None and not holds(value):
        raise ConfigError(path, f"must be {text}, got {value!r}")
    return value


def _fields(doc, table, path, config=None):
    """The fields of object ``doc`` checked against ``table`` (field ->
    (kind, default)), defaults filled in; an unknown field is an error."""
    _object(doc, path)
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", f"unknown field; expected one of {list(table)}")
    checked = {}
    for name, (kind, default) in table.items():
        if name in doc:
            checked[name] = _check(kind, name, doc[name], f"{path}.{name}", config)
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{name}", "required field is missing")
        else:
            checked[name] = getattr(config, name) if default is _INHERIT else default
    return checked


@contextmanager
def _at(path):
    """Re-raise a library error of the block as a ConfigError at ``path``;
    solver errors (exit code 2) pass through."""
    try:
        yield
    except (ConfigError, ProjectionError):
        raise
    except TotemError as exc:
        raise ConfigError(path, str(exc)) from exc


def _example(name, params, path):
    """Check ``params`` of example ``name``; returns a function that builds it."""
    builder, table = _EXAMPLES[name]
    args = _fields(params, table, f"{path}.params")

    def build():
        with _at(f"{path}.params"):
            return builder(*args.values())

    return build


def _check_task(task, i, config):
    """Task ``i``'s fields, checked, with their defaults filled in."""
    path = f"tasks[{i}]"
    kind = _task_type(_object(task, path).get("type"), f"{path}.type")
    if kind in _DATA_TASKS and config.data is None:
        raise ConfigError(path, "this task needs a data file ('data' is not set)")
    fields = _fields({k: v for k, v in task.items() if k != "type"}, _TASKS[kind], path, config)
    if kind == "example":
        fields["build"] = _example(fields["name"], fields["params"], path)
    return fields


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
    """Validated analysis description; round-trips through JSON.

    :meth:`check` runs on construction and again in :func:`run`, because
    fields (``tasks`` above all) may be reassigned in between.
    """

    FIELDS = tuple(_CONFIG_FIELDS)

    def __init__(self, data=None, space="infer", reference="uniform",
                 elements=None, tasks=None, seed=0, tol=DEFAULT_TOL,
                 max_iter=DEFAULT_MAX_ITER, alpha=0.05):
        self.data, self.space, self.reference = data, space, reference
        self.elements = {} if elements is None else elements
        self.tasks = [] if tasks is None else tasks
        self.seed, self.tol, self.max_iter, self.alpha = seed, tol, max_iter, alpha
        self.check()

    def check(self):
        """Check every field, keeping each top-level field in its checked
        form; returns each task's checked fields, defaults filled in."""
        for name, kind in _CONFIG_FIELDS.items():
            setattr(self, name, _check(kind, name, getattr(self, name), name, self))
        if self.elements and self.space == "infer" and self.data is None:
            raise ConfigError("elements", "element declarations need a space ('space' or 'data')")
        return [_check_task(task, i, self) for i, task in enumerate(self.tasks)]

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")
        unknown = set(doc) - set(cls.FIELDS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        return cls(**doc)

    def to_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)

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


def _build_element(space, specs, path):
    """The auto-reduced element of the operator ``specs`` on ``space``."""
    ops = []
    for j, spec in enumerate(specs):
        with _at(f"{path}[{j}]"):
            ops.append(operator_from_spec(space, spec))
    with _at(path):
        return make_element(ops, mode="auto-reduce")


def _load(source, path, space=None):
    with _at(path):
        return load_distribution(source, space=space)


class _Analysis:
    """Materialized config: space, data, reference and elements."""

    def __init__(self, config):
        self.space = None
        self.empirical = None
        self.reference = None
        self.data_fingerprint = "none"

        domains = None
        if config.space != "infer":
            domains = []
            for j, d in enumerate(config.space["domains"]):
                with _at(f"space.domains[{j}]"):
                    domains.append(AttributeDomain(d["name"], d["levels"]))

        table = None
        if config.data is not None:
            with _at("data"):
                table = ingest_csv(config.data, schema="infer" if domains is None else domains)

        with _at("space"):
            if domains is not None:
                nulls = [tuple(e) for e in config.space.get("nullentities", [])]
                self.space = EntitySpace(domains, nulls)
            elif table is not None:
                self.space = EntitySpace(table.domains)

        if table is not None:
            with _at("data"):
                self.empirical = empirical_distribution(self.space, table)
            self.data_fingerprint = hashlib.sha256(self.empirical.counts.tobytes()).hexdigest()

        if self.space is not None and isinstance(config.reference, dict):
            self.reference = _load(config.reference["path"], "reference.path", self.space)
        elif self.space is not None:
            self.reference = uniform(
                self.space, "admissible" if config.reference == "uniform" else "full"
            )
        self.elements = {
            name: _build_element(self.space, specs, f"elements.{name}")
            for name, specs in config.elements.items()
        }


def _kv(lines, key, value, indent=2):
    lines.append(" " * indent + f"{key}: {_fmt(value)}")


def _write(path, field, text):
    """Write ``text`` to the file ``path``; failing is a ConfigError at ``field``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(field, f"cannot write {path}: {exc}") from exc


def _distribution_json(dist):
    return json.dumps(distribution_to_dict(dist), indent=1, sort_keys=True) + "\n"


def _write_distribution(lines, dist, out, i):
    """Write ``dist`` to task ``i``'s ``out`` file, when it names one."""
    if out:
        _write(out, f"tasks[{i}].out", _distribution_json(dist))
        _kv(lines, "distribution written to", out)


def _run_project(analysis, f, i, lines):
    element = analysis.elements[f["element"]]
    result = newton_project(
        analysis.reference, Totemplex(element, analysis.empirical),
        tol=f["tol"], max_iter=f["max_iter"],
    )
    _kv(lines, "element", f["element"])
    _kv(lines, "element fingerprint", result.element_fingerprint)
    _kv(lines, "method", result.method)
    _kv(lines, "iterations", result.iterations)
    _kv(lines, "residual", result.residual)
    _kv(lines, "divergence from reference", result.divergence_from_reference)
    _kv(lines, "boundary", result.boundary)
    for op, theta in zip(element.operators, result.multipliers):
        _kv(lines, f"multiplier {op.label}", theta)
    _write_distribution(lines, result.distribution, f["out"], i)


def _run_score(analysis, f, i, lines):
    names = f["elements"] or sorted(analysis.elements)
    elements = [analysis.elements[name] for name in names]
    n = f["n"] or analysis.empirical.n_samples
    reports = select_element(analysis.reference, elements, analysis.empirical, n,
                             tol=f["tol"], max_iter=f["max_iter"])
    # select_element scores the first of equal elements: the first name wins
    fingerprints = [element.fingerprint for element in elements]
    _kv(lines, "N", n)
    _kv(lines, "note", "scores drop the O(1) term; only differences matter")
    for rank, report in enumerate(reports, start=1):
        _kv(lines, f"rank {rank}", names[fingerprints.index(report.element_fingerprint)])
        _kv(lines, "score", report.score, indent=4)
        _kv(lines, "divergence", report.divergence, indent=4)
        _kv(lines, "kernel dimension", report.kernel_dim, indent=4)
        if report.folded:
            twins = "; ".join(names[j] for j in report.folded)
            _kv(lines, "note", "equivalent row space: " + twins, indent=4)
        if report.error:
            _kv(lines, "error", report.error, indent=4)


def _run_test(analysis, f, i, lines):
    report = i_test(
        analysis.reference, analysis.elements[f["outer"]], analysis.elements[f["inner"]],
        analysis.empirical, f["n"] or analysis.empirical.n_samples, f["alpha"],
        tol=f["tol"], max_iter=f["max_iter"],
    )
    _kv(lines, "outer", f["outer"])
    _kv(lines, "inner", f["inner"])
    _kv(lines, "N", report.n)
    _kv(lines, "Q", report.q_statistic)
    _kv(lines, "dof", report.dof)
    _kv(lines, "p value", report.p_value)
    if report.p_value_underflow:
        _kv(lines, "p value underflow", True)
    _kv(lines, "alpha", report.alpha)
    _kv(lines, "decision", "reject" if report.reject else "retain")


def _run_ipf(analysis, f, i, lines):
    element = analysis.elements[f["element"]]
    result = _ipf(analysis.reference, element, element.columns[0],
                  element.expectations(analysis.empirical), f["tol"], f["max_cycles"])
    _kv(lines, "element", f["element"])
    _kv(lines, "cycles", result.iterations)
    _kv(lines, "residual", result.residual)
    _kv(lines, "divergence from reference", result.divergence_from_reference)
    _kv(lines, "boundary", result.boundary)
    _write_distribution(lines, result.distribution, f["out"], i)


def _run_calibrate(analysis, f, i, lines):
    generator = f["generator"]()

    def element(key):
        if isinstance(f[key], str):
            return analysis.elements[f[key]]
        return _build_element(generator.space, f[key], f"tasks[{i}].{key}")

    result = calibration_experiment(
        generator, element("outer"), element("inner"), f["n"], f["replications"],
        f["seed"], tol=f["tol"], max_iter=f["max_iter"],
    )
    _kv(lines, "N", result.n)
    _kv(lines, "replications", result.replications)
    _kv(lines, "seed", result.seed)
    _kv(lines, "dof", result.dof)
    _kv(lines, "mean Q", result.mean_q)
    _kv(lines, "KS distance", result.ks_distance)
    _kv(lines, "alpha", f["alpha"])
    _kv(lines, "rejection rate", result.rejection_rate(f["alpha"]))


def _run_example(analysis, f, i, lines):
    dist = f["build"]()
    _kv(lines, "example", f["name"])
    _kv(lines, "entities", dist.space.n_entities)
    if f["out"]:
        _write_distribution(lines, dist, f["out"], i)
    else:
        _kv(lines, "distribution", "inline below")
        lines.extend("  " + line for line in _distribution_json(dist).rstrip("\n").split("\n"))


_RUNNERS = {"project": _run_project, "score": _run_score, "test": _run_test,
            "ipf": _run_ipf, "calibrate": _run_calibrate, "example": _run_example}


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


def run(config):
    """Execute every task of ``config`` in order; returns (exit code, report).

    Every field is checked before any data is read.  On a configuration
    error (exit code 1) the report is the one-line message.
    """
    sections = []
    try:
        checked = config.check()
        analysis = _Analysis(config)
        if analysis.space is not None:
            inputs = [
                f"  space fingerprint: {analysis.space.fingerprint}",
                f"  data fingerprint: {analysis.data_fingerprint}",
                f"  entities: {analysis.space.n_entities}",
                f"  admissible: {analysis.space.n_admissible}",
            ]
            if analysis.empirical is not None:
                inputs.append(f"  N: {analysis.empirical.n_samples}")
            sections.append(("inputs", inputs))
        code = 0
        for i, (task, fields) in enumerate(zip(config.tasks, checked)):
            body = []
            try:
                with _at(f"tasks[{i}]"):
                    _RUNNERS[task["type"]](analysis, fields, i, body)
            except NonConvergenceError as exc:
                body.append(f"  error: {exc}")
                budget = "max_cycles" if task["type"] == "ipf" else "max_iter"
                body.append(f"  hint: raise the task's {budget} or loosen its tol")
                code = 2
            except ProjectionError as exc:
                body.append(f"  error: {exc}")
                code = 2
            sections.append((f"task {i + 1}: {task['type']}", body))
    except ConfigError as exc:
        return 1, f"configuration error at {exc}\n"
    return code, report_emit(config, sections)


# --- argument parsing ---------------------------------------------------------

def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return AnalysisConfig.from_json(text)


def _override(config, args):
    """Apply the --seed/--tol/--alpha command-line overrides to ``config``."""
    for name in ("seed", "tol", "alpha"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, _check(_CONFIG_FIELDS[name], name, value, f"--{name}"))
    return config


def _task_from_args(args, config):
    """The one task of a ``project``, ``score``, ``test``, ``ipf`` or
    ``calibrate`` command line."""
    if args.command in ("project", "ipf"):
        names = list(config.elements)
        use = args.use or (names[0] if len(names) == 1 else None)
        if use is None:
            raise ConfigError("--use", "name the element to use")
        return {"type": args.command, "element": use}
    if args.command == "score":
        use = [s for s in (args.use or "").split(",") if s] or None
        return {"type": "score", **({"elements": use} if use else {})}
    if args.command == "test":
        if not args.outer or not args.inner:
            raise ConfigError("--outer/--inner", "the test needs both elements")
        return {"type": "test", "outer": args.outer, "inner": args.inner}
    if ":" in args.generator:
        gen_name, _, raw = args.generator.partition(":")
        params = dict(_pairs(raw.split(",") if raw else [], "--generator"))
        generator = {"example": {"name": gen_name, "params": params}}
    else:
        generator = {"path": args.generator}

    def element_arg(value):
        return value if value in config.elements else _spec_list(value)

    return {
        "type": "calibrate",
        "generator": generator,
        "outer": element_arg(args.outer),
        "inner": element_arg(args.inner),
        "n": args.n,
        "replications": args.replications,
    }


def _config_from_args(args):
    if args.command == "run":
        return _override(_read_config(args.config_file), args)
    if args.command == "example":
        return AnalysisConfig(tasks=[{
            "type": "example",
            "name": args.name,
            "params": dict(_pairs(args.param, "--param")),
            **({"out": args.out} if args.out else {}),
        }])
    if args.config:
        config = _read_config(args.config)
    else:
        space = "infer"
        if args.domain:
            space = {"domains": [{"name": name, "levels": levels.split(",")}
                                 for name, levels in _pairs(args.domain, "--domain")],
                     "nullentities": [e.split(",") for e in (args.nullentity or [])]}
        config = AnalysisConfig(
            data=args.data,
            space=space,
            reference=args.reference or "uniform",
            elements={name: _spec_list(specs) for name, specs in _pairs(args.element, "--element")},
        )
    config = _override(config, args)
    config.tasks = [_task_from_args(args, config)]
    return config


def _add_overrides(parser):
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--tol", type=float, default=None, help="override tolerance")
    parser.add_argument("--alpha", type=float, default=None, help="override significance level")
    parser.add_argument("--out", default=None, help="write the report to this file")


def _add_common(parser):
    _add_overrides(parser)
    parser.add_argument("--config", help="JSON analysis configuration")
    parser.add_argument("--data", help="CSV data file (header row, UTF-8)")
    parser.add_argument("--domain", action="append",
                        help="attribute declaration name=lvl1,lvl2 (repeatable)")
    parser.add_argument("--nullentity", action="append",
                        help="inadmissible entity lvl1,lvl2,... (repeatable)")
    parser.add_argument("--reference", default=None,
                        help="'uniform', 'uniform-full' (default: uniform)")
    parser.add_argument("--element", action="append",
                        help="element declaration name=spec;spec (repeatable)")


def _pairs(items, flag):
    """The ``key=value`` command-line ``items`` as (key, value) pairs."""
    for item in items or []:
        if "=" not in item:
            raise ConfigError(flag, f"expected key=value, got {item!r}")
        yield tuple(item.split("=", 1))


def _spec_list(text):
    """Operator specs from one ``spec;spec`` command-line value."""
    return [spec.strip() for spec in text.split(";") if spec.strip()]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError("command line", message)


def main(argv=None):
    parser = _Parser(
        prog="totem",
        description="Constraint-driven distribution fitting, scoring and testing "
                    "on finite entity spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every task of a config file")
    p_run.add_argument("config_file", help="JSON analysis configuration")
    _add_overrides(p_run)

    for name, extra in (
        ("project", [("--use", "element to project onto")]),
        ("score", [("--use", "comma-separated element names (default: all)")]),
        ("test", [("--outer", "coarser element"), ("--inner", "finer element")]),
        ("ipf", [("--use", "element with binary rows")]),
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
    p_ex.add_argument("--out", default=None, help="write the distribution to this file")

    out = None
    try:
        args = parser.parse_args(argv)
        # the report goes to --out or stdout; example's --out is its distribution
        out = None if args.command == "example" else args.out
        code, report = run(_config_from_args(args))
        if code != 1 and out:
            _write(out, "--out", report)
    except ConfigError as exc:
        code, report = 1, f"configuration error at {exc}\n"
    if code == 1:
        sys.stderr.write(report)
    elif not out:
        sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
