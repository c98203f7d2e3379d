"""Benchmark of totem: one workload in a closed loop for a fixed time.

    python3 perfbench/run.py --workload itest_coin_L18 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; totem is imported from its ``src``.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The line before
it, and ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, hold the
details and provenance; a traced run also writes its spans next to it.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# an op_tail_s sample needs this many ops beyond it
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here."""


def single_thread_blas():
    """Every op runs on one thread; a second BLAS thread on a small shared
    machine mostly adds contention spikes to the op times."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "totem" / "__init__.py").is_file():
        raise BenchError(f"no totem sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def check_program_origin():
    where = Path(sys.modules["totem"].__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"imported totem from {where}, not from {SRC}")


def timed_setup(workload, tracer=None):
    start = perf_counter()
    if tracer is None:
        workload.setup()
    else:
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
    elapsed = perf_counter() - start
    check_program_origin()
    return elapsed


def probe_setup(args):
    """Set-up time of a fresh process, measured by a child of this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def tail(times):
    """The highest percentile of ``times`` with TAIL_BEYOND ops beyond it.

    With fewer ops than that plus one, no percentile qualifies; the
    fastest op is reported and the percentile says so.
    """
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_ops(workload, seconds, tracer):
    """Closed loop: start the next op only while it should end in time.

    With a tracer, every second op is traced; the others give the
    untraced times the tracing overhead is measured against.
    """
    ops = []
    loop_start = perf_counter()
    while not ops or (perf_counter() - loop_start
                      + statistics.median(o["seconds"] for o in ops) <= seconds):
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        start = perf_counter()
        try:
            output, error = workload.op(i), None
        except Exception:
            output, error = None, traceback.format_exc(limit=4)
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        problems = [error] if error else workload.check(output)
        ops.append({"seconds": elapsed, "traced": traced, "problems": problems})
    return ops


def end_to_end(ops, setup_samples, units):
    """Throughputs are the work of a passing op over the median op time,
    scaled by the share of ops that passed."""
    p50 = statistics.median(o["seconds"] for o in ops)
    passed = sum(1 for o in ops if not o["problems"]) / len(ops)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "op_p50_s": metric(p50, "s"),
        "op_tail_s": metric(tail([o["seconds"] for o in ops])[0], "s"),
        "datasets_per_s": metric(passed * units["datasets"] / p50, "1/s"),
        "replications_per_s": metric(passed * units["replications"] / p50, "1/s"),
        "records_per_s": metric(passed * units["records"] / p50, "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, spans, ratios, n_entities):
    from tracing import layer_metrics

    traced = [o["seconds"] for o in ops if o["traced"]]
    untraced = [o["seconds"] for o in ops if not o["traced"]]
    values = layer_metrics(spans, max(len(traced), 1))
    values["operators.distinct_column_ratio"] = max(ratios.values())
    values["operators.admissible_entities"] = n_entities
    traced_p50 = statistics.median(traced) if traced else 0.0
    untraced_p50 = statistics.median(untraced)
    values["trace.traced_op_p50_s"] = traced_p50
    values["trace.untraced_op_p50_s"] = untraced_p50
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio") or name.endswith("per_solve"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and exit")
    args = parser.parse_args(argv)
    import_program()

    if args.setup_probe:
        workload = WORKLOADS[args.workload](args.size, args.seed, None)
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    TMP.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        setup_samples.append(timed_setup(workload, tracer))
        workload.prepare()
        if tracer:
            from workloads import distinct_columns
            elements = workload.elements()
            n_entities = next(iter(elements.values())).space.n_admissible
            ratios = {name: distinct_columns(e) / n_entities for name, e in elements.items()}
        ops = run_ops(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [o["seconds"] for o in ops]
    tail_s, tail_pct = tail(times)
    failures = [{"op": i, "problems": o["problems"]} for i, o in enumerate(ops) if o["problems"]]
    detail = {
        "workload": args.workload,
        "provenance": provenance(args),
        "ops": len(ops),
        "op_times_s": times,
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "failed_frac": len(failures) / len(ops),
        "failures": failures[:5],
        "units_per_op": workload.units,
    }
    if tracer:
        metrics = per_layer(ops, tracer.spans, ratios, n_entities)
        detail["distinct_column_ratio"] = ratios
    else:
        metrics = end_to_end(ops, setup_samples, workload.units)
        detail["setup_samples_s"] = setup_samples
    detail["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    single_thread_blas()
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
