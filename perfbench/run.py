"""Benchmark of weylclifford, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The package is imported from ``src/`` of the checkout, and the CLI is
run from there as subprocesses.  A run builds a fixed, seeded list of
operations, sized from --seconds by a per-workload constant so that it
takes about that long on the reference machine and is the same list on
every commit; it never has fewer than 100 operations.  Set-up (a fresh
interpreter's import of the package, input generation after clearing the
package's caches, one warm-up per size) is made three times and its
median reported.  Then every operation is timed on its own, one at a
time, and checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced pass with
--trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import oracles
import tracing
from workloads import WORKLOADS, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 3
MIN_OPS = 100  # the 90th percentile then has ten samples above it
MODULES = ("cyclotomic", "algebra", "qbinom", "matrep", "commforms", "sampling", "cli")
SUBCOMMANDS = ("gen", "verify-lame", "qbinom", "forms", "fourier", "equiv")


def load_package():
    if not os.path.isfile(os.path.join(SRC, "weylclifford", "__init__.py")):
        sys.exit(f"perfbench: no weylclifford package under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    import weylclifford

    if not os.path.abspath(weylclifford.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: weylclifford imported from {weylclifford.__file__}, not {SRC}")
    for mod in MODULES:
        importlib.import_module(f"weylclifford.{mod}")
    return weylclifford


def fresh_python(code: str) -> float:
    """Wall time of a fresh interpreter running code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(ROOT), cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def clear_caches(pkg) -> None:
    for mod in MODULES:
        for obj in list(vars(getattr(pkg, mod)).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def rounds_for(w, seconds: int) -> int:
    ops_per_round = w.per_class * len(w.classes)
    return max(math.ceil(seconds / w.round_seconds), math.ceil(MIN_OPS / ops_per_round))


def set_up(pkg, w, seed: int, rounds: int):
    """Import in a fresh interpreter, clear caches, build inputs, warm up.

    CLI warm-ups are fresh interpreters themselves, so a workload of CLI
    processes makes no separate import.
    """
    t0 = time.perf_counter()
    if w.in_process:
        fresh_python("import weylclifford")
    clear_caches(pkg)
    ops = w.build(seed, rounds)
    warmed = set()
    for op in ops:
        if op.key not in warmed:
            warmed.add(op.key)
            op.call()
    return time.perf_counter() - t0, ops


class Outcome:
    """Times, failures and mismatches of one pass over an operation list."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.problems = []  # (kind, description), reported on stderr
        self.confirm = {}  # class -> (op, output) for the deferred checks

    def note(self, kind, text):
        self.problems.append((kind, text))

    def judge(self, op, out):
        try:
            if not op.check(out):
                self.failed += 1
                self.note("failed", describe(op, out))
        except oracles.Mismatch as exc:
            self.note("wrong", f"{describe(op, out)}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:  # unreadable CLI output
            self.note("wrong", f"{describe(op, out)}: unreadable output ({exc!r})")

    def report(self):
        seen = {}
        for kind, text in self.problems:
            seen[(kind, text)] = seen.get((kind, text), 0) + 1
        for (kind, text), count in seen.items():
            print(f"perfbench: {kind} x{count}: {text}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not any(kind == "wrong" for kind, _ in self.problems)


def describe(op, out) -> str:
    if op.argv:
        env = " ".join(f"{k}={v}" for k, v in op.env.items())
        rc = getattr(out, "returncode", "?")
        text = f"{env} weylclifford {' '.join(op.argv)}".strip()
        return f"{text} -> rc={rc}"
    return f"class {op.cls} size {op.key}"


def timed_pass(ops) -> Outcome:
    res = Outcome()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # the program raised: the operation failed
            res.times.append(time.perf_counter() - t0)
            res.failed += 1
            res.note("failed", f"{describe(op, None)} raised {exc!r}")
            continue
        res.times.append(time.perf_counter() - t0)
        res.judge(op, out)
        if op.confirm and op.cls not in res.confirm:
            res.confirm[op.cls] = (op, out)
    return res


def confirm_all(res: Outcome) -> None:
    for op, out in res.confirm.values():
        try:
            op.confirm(out)
        except oracles.Mismatch as exc:
            res.note("wrong", f"{describe(op, out)}: {exc}")


def end_to_end(pkg, w, seed, seconds):
    durations, ops = [], None
    for _ in range(SETUPS):
        d, ops = set_up(pkg, w, seed, rounds_for(w, seconds))
        durations.append(d)
    res = timed_pass(ops)
    usage = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    confirm_all(res)
    times = res.times
    metrics = {
        "setup_s": (statistics.median(durations), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return res, metrics


def run_main(main, argv, env) -> int:
    """main(argv) in this process, output captured; returns the exit code."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught exception exits the interpreter with 1
        return 1
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def traced(pkg, w, seed):
    """A fixed number of rounds, untraced and then traced; per-layer metrics."""
    rounds = w.trace_rounds
    _, ops = set_up(pkg, w, seed, rounds)
    tracer = tracing.Tracer(pkg)
    extra = {}
    if not w.in_process:
        res = timed_pass(ops)  # as subprocesses: process times and verdicts
        for s in SUBCOMMANDS:
            extra[f"cli.process_ms.{s}"] = sum(
                t for op, t in zip(ops, res.times) if op.argv[0] == s) * 1e3
        bare = statistics.median(fresh_python("pass") for _ in range(5))
        full = statistics.median(fresh_python("import weylclifford.cli") for _ in range(5))
        extra["cli.import_ms"] = (full - bare) * 1e3
        mains = {s: tracer.span(f"cli.main.{s}", pkg.cli.main) for s in SUBCOMMANDS}

        def untraced_call(op):
            return run_main(pkg.cli.main, op.argv, op.env)

        def traced_call(op):
            return run_main(mains[op.argv[0]], op.argv, op.env)

        for op in ops:  # set-up warmed only the subprocess path
            untraced_call(op)
    else:
        res = Outcome()

        def untraced_call(op):
            return op.call()

        traced_call = untraced_call

    t0 = time.perf_counter()
    for op in ops:
        untraced_call(op)
    untraced_s = time.perf_counter() - t0

    tracer.install()
    try:
        tracer.op = "inputs"
        ops = w.build(seed, rounds)
        outputs = []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            outputs.append(traced_call(op))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"perfbench: {name} not found, not traced", file=sys.stderr)
    if w.in_process:
        for op, out in zip(ops, outputs):
            res.judge(op, out)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{w.name}.tsv"))
    return res, len(ops), layer_metrics(tracer, extra, untraced_s, traced_s)


def layer_metrics(tracer, extra, untraced_s, traced_s) -> dict:
    in_ops = tracer.summary(lambda op: op != "inputs")
    everywhere = tracer.summary(lambda op: True)

    def calls(name):
        return in_ops.get(name, {}).get("calls", 0)

    def self_ms(name, spans=in_ops):
        return spans.get(name, {}).get("self_ms", 0.0)

    pairs, kept = tracer.pair_products, tracer.terms_out
    m = {
        "cyclotomic.mul_calls": (calls("cyclotomic.mul"), "count"),
        "cyclotomic.mul_self_ms": (self_ms("cyclotomic.mul"), "ms"),
        "cyclotomic.add_calls": (calls("cyclotomic.add"), "count"),
        "cyclotomic.add_self_ms": (self_ms("cyclotomic.add"), "ms"),
        "cyclotomic.inverse_calls": (calls("cyclotomic.inverse"), "count"),
        "cyclotomic.inverse_self_ms": (self_ms("cyclotomic.inverse"), "ms"),
        "algebra.lame_check_calls": (calls("algebra.lame_check"), "count"),
        "algebra.lame_check_ms": (self_ms("algebra.lame_check"), "ms"),
        "algebra.element_mul_calls": (calls("algebra.element_mul"), "count"),
        "algebra.element_mul_self_ms": (self_ms("algebra.element_mul"), "ms"),
        "algebra.pair_products": (pairs, "count"),
        "algebra.terms_out": (kept, "count"),
        "algebra.kept_share": (kept / pairs if pairs else 0.0, "ratio"),
        "algebra.peak_terms": (tracer.peak_terms, "count"),
        "algebra.to_matrix_ms": (self_ms("algebra.to_matrix"), "ms"),
        "qbinom.q_binomial_calls": (calls("qbinom.q_binomial"), "count"),
        "qbinom.q_binomial_ms": (self_ms("qbinom.q_binomial"), "ms"),
        "qbinom.theorem_check_ms": (self_ms("qbinom.theorem_check"), "ms"),
        "qbinom.factorization_check_ms": (self_ms("qbinom.factorization_check"), "ms"),
        "matrep.t_generators_ms": (self_ms("matrep.t_generators"), "ms"),
        "matrep.verify_relations_ms": (self_ms("matrep.verify_relations"), "ms"),
        "matrep.lame_residual_ms": (self_ms("matrep.lame_residual"), "ms"),
        "matrep.standardize_ms": (self_ms("matrep.standardize"), "ms"),
        "commforms.random_symplectic_ms": (self_ms("commforms.random_symplectic"), "ms"),
        "commforms.conjugate_to_N_ms": (self_ms("commforms.conjugate_to_N"), "ms"),
        "commforms.transform_form_ms": (self_ms("commforms.transform_form"), "ms"),
        "sampling.sample_ms": (self_ms("sampling.sample", everywhere), "ms"),
        "cli.import_ms": (extra.get("cli.import_ms", 0.0), "ms"),
    }
    for s in SUBCOMMANDS:
        m[f"cli.main_ms.{s}"] = (self_ms(f"cli.main.{s}"), "ms")
    for s in SUBCOMMANDS:
        m[f"cli.process_ms.{s}"] = (extra.get(f"cli.process_ms.{s}", 0.0), "ms")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    return m


def run_all(args) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    results, failed_any = {}, False
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            failed_any = True
            print(f"{name}: exit code {proc.returncode}", flush=True)
            sys.stderr.write(proc.stderr)
            continue
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = r
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
              flush=True)
        sys.stderr.write(proc.stderr)
        for metric, v in r["metrics"].items():
            print(f"  {metric:32s} {v['value']:14.6g} {v['unit']}")
    summary = {
        "correct": not failed_any and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 1 if failed_any else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pkg = load_package()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload](pkg, ROOT)
    broken = oracles.selftest() + w.selftest()
    if broken:
        for text in broken:
            print(f"perfbench: checker accepted a wrong result: {text}", file=sys.stderr)
        return 1
    if args.trace:
        res, attempted, metrics = traced(pkg, w, args.seed)
    else:
        res, metrics = end_to_end(pkg, w, args.seed, args.seconds)
        attempted = len(res.times)
    res.report()
    print(json.dumps({
        "correct": res.correct,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
