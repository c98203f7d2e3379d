"""Spans around the benchmark's calls into totem's modules, and the
per-layer metrics derived from them.

A :class:`Tracer` replaces each traced callable with a wrapper that records
one span ``[name, start, end, parent, op, info]``.  totem binds names with
``from .x import y``, so a function is replaced in every ``totem`` module
that holds it (``totem.inference.newton_project``, ``totem.cli.ingest_csv``,
``totem.projection.i_divergence``, ...), not only where it is defined.
Methods are replaced on their class.  ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _newton_info(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "fallback": int(result.method == "newton+chained"),
        "boundary": int(result.boundary),
    }


def _ipf_info(args, kwargs, result):
    return {"iterations": result.iterations, "boundary": int(result.boundary)}


def _select_info(args, kwargs, result):
    return {"candidates": len(args[1])}


def _ingest_info(args, kwargs, result):
    return {"records": result.n}


# span name -> (module, attribute, info recorded from the call's result)
FUNCTIONS = {
    "entity.ingest_csv": ("totem.entity", "ingest_csv", _ingest_info),
    "entity.empirical_distribution": ("totem.entity", "empirical_distribution", None),
    "distribution.uniform": ("totem.distribution", "uniform", None),
    "distribution.i_divergence": ("totem.distribution", "i_divergence", None),
    "operators.make_element": ("totem.operators", "make_element", None),
    "operators.is_nested": ("totem.operators", "is_nested", None),
    "operators.fapp_equivalent": ("totem.operators", "fapp_equivalent", None),
    "operators.operator_from_spec": ("totem.operators", "operator_from_spec", None),
    "projection.newton_project": ("totem.projection", "newton_project", _newton_info),
    "projection.ipf_project": ("totem.projection", "ipf_project", _ipf_info),
    "inference.sample_multinomial": ("totem.inference", "sample_multinomial", None),
    "inference.i_test": ("totem.inference", "i_test", None),
    "inference.i_score": ("totem.inference", "i_score", None),
    "inference.select_element": ("totem.inference", "select_element", _select_info),
    "inference.calibration_experiment": ("totem.inference", "calibration_experiment", None),
    "closed_forms.coin_element": ("totem.closed_forms", "coin_element", None),
    "closed_forms.k_marginal_element": ("totem.closed_forms", "k_marginal_element", None),
    "closed_forms.binomial_projection_closed_form":
        ("totem.closed_forms", "binomial_projection_closed_form", None),
    "closed_forms.ising_coin_generator": ("totem.closed_forms", "ising_coin_generator", None),
    "cli.run": ("totem.cli", "run", None),
    "cli.report_emit": ("totem.cli", "report_emit", None),
}

# span name -> (module, class, attribute)
METHODS = {
    "entity.EntitySpace": ("totem.entity", "EntitySpace", "__init__"),
    "distribution.from_counts": ("totem.distribution", "Distribution", "from_counts"),
    "distribution.from_admissible_weights":
        ("totem.distribution", "Distribution", "from_admissible_weights"),
    "operators.Totemplex": ("totem.operators", "Totemplex", "__init__"),
    "cli.AnalysisConfig.from_json": ("totem.cli", "AnalysisConfig", "from_json"),
}

_CONSTRUCTORS = ("distribution.from_counts", "distribution.from_admissible_weights",
                 "distribution.uniform")
_CLOSED_FORMS = ("closed_forms.coin_element", "closed_forms.k_marginal_element",
                 "closed_forms.binomial_projection_closed_form",
                 "closed_forms.ising_coin_generator")
_SOLVERS = ("projection.newton_project", "projection.ipf_project")

# metric -> spans whose busy time it is (nested spans of the set count once)
BUSY = {
    "entity.ingest_s": ("entity.ingest_csv",),
    "entity.count_s": ("entity.empirical_distribution",),
    "entity.space_s": ("entity.EntitySpace",),
    "distribution.construct_s": _CONSTRUCTORS,
    "distribution.divergence_s": ("distribution.i_divergence",),
    "operators.element_s": ("operators.make_element",),
    "operators.nesting_s": ("operators.is_nested",),
    "operators.equivalence_s": ("operators.fapp_equivalent",),
    "operators.spec_s": ("operators.operator_from_spec",),
    "operators.targets_s": ("operators.Totemplex",),
    "projection.newton_s": ("projection.newton_project",),
    "projection.ipf_s": ("projection.ipf_project",),
    "inference.sample_s": ("inference.sample_multinomial",),
    "inference.select_s": ("inference.select_element",),
    "closed_forms.build_s": _CLOSED_FORMS,
    "cli.config_s": ("cli.AnalysisConfig.from_json",),
    "cli.report_s": ("cli.report_emit",),
}
# metric -> spans whose calls it counts (outermost calls of the set)
CALLS = {
    "distribution.constructs": _CONSTRUCTORS,
    "distribution.divergence_calls": ("distribution.i_divergence",),
    "operators.elements": ("operators.make_element",),
    "operators.nesting_calls": ("operators.is_nested",),
    "operators.equivalence_calls": ("operators.fapp_equivalent",),
    "projection.newton_calls": ("projection.newton_project",),
    "inference.samples": ("inference.sample_multinomial",),
    "inference.scores": ("inference.i_score",),
}
# metric -> (spans, info key summed over their outermost calls)
INFO = {
    "entity.records": (("entity.ingest_csv",), "records"),
    "projection.newton_iterations": (("projection.newton_project",), "iterations"),
    "projection.fallbacks": (("projection.newton_project",), "fallback"),
    "projection.boundary_solves": (_SOLVERS, "boundary"),
    "projection.failures": (_SOLVERS, "projection_error"),
    "projection.ipf_cycles": (("projection.ipf_project",), "iterations"),
    "inference.candidates": (("inference.select_element",), "candidates"),
}
# metric -> span whose self time it is (duration minus its child spans)
SELF = {
    "projection.newton_self_s": "projection.newton_project",
    "inference.itest_self_s": "inference.i_test",
    "inference.calibration_self_s": "inference.calibration_experiment",
    "cli.run_self_s": "cli.run",
}

SETUP = "setup"


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.op = SETUP
        self._stack = []
        self._restore = []
        self._projection_error = None

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        projection_error = self._projection_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, projection_error):
                    span[5]["projection_error"] = 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5].update(info(args, kwargs, result))
            return result

        return traced

    def install(self):
        for module, *_ in list(FUNCTIONS.values()) + list(METHODS.values()):
            importlib.import_module(module)
        self._projection_error = sys.modules["totem.errors"].ProjectionError
        modules = [m for key, m in sys.modules.items()
                   if key == "totem" or key.startswith("totem.")]
        for name, (module, attr, info) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original, info)
            holders = [(m, key) for m in modules
                       for key, value in vars(m).items() if value is original]
            for m, key in holders:
                self._restore.append((m, key, original))
                setattr(m, key, traced)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(name, raw.__func__, None))
            else:
                traced = self._wrap(name, raw, None)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, info in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "info": info}) + "\n")


def layer_metrics(spans, traced_ops):
    """Per-layer figures for one set-up plus one op.

    Each figure is the layer's set-up total plus its mean over the
    ``traced_ops`` traced ops; ratios are taken between such figures.
    """
    def outermost(names):
        for span in spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent is None:
                yield span

    def figure(pairs):
        setup = ops = 0
        for span, value in pairs:
            if span[4] == SETUP:
                setup += value
            else:
                ops += value
        return setup + ops / traced_ops

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]

    out = {}
    for metric, names in BUSY.items():
        out[metric] = figure((s, s[2] - s[1]) for s in outermost(names))
    for metric, names in CALLS.items():
        out[metric] = figure((s, 1) for s in outermost(names))
    for metric, (names, key) in INFO.items():
        out[metric] = figure((s, s[5].get(key, 0)) for s in outermost(names))
    for metric, name in SELF.items():
        out[metric] = figure((s, s[2] - s[1] - child_time[i])
                             for i, s in enumerate(spans) if s[0] == name)
    calls = out["projection.newton_calls"]
    out["projection.iterations_per_solve"] = (
        out["projection.newton_iterations"] / calls if calls else 0.0)
    scores, candidates = out.pop("inference.scores"), out["inference.candidates"]
    out["inference.scored_ratio"] = scores / candidates if candidates else 0.0
    return out
