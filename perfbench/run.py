"""cfmonoid benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

It imports cfmonoid from `src/` of the checkout it sits in and sets up the
workload at least SETUP_REPEATS times and for at least SETUP_SECONDS (a
fresh import, then the inputs generated from the seed and written to files).
It then repeats passes over the workload's operations, starting no pass that
would end after --seconds (the first pass always runs), and checks every
answer of every pass against `oracle`.

With --trace 0 it prints the end-to-end metrics. With --trace 1 it alternates
untraced and traced passes and prints the per-layer metrics, with the tracing
overhead as traced minus untraced pass time. The last line of stdout is the
result as JSON. A fuller result file, with the machine, the workload's own
metrics and the exact counts, goes to .perfbench_out/; with --trace 1 the
spans of the first traced pass go there too.

A pass's time is the sum of the times of its calls into the program; the
benchmark's own checking is not timed. On a shared 2-vCPU Xeon VM, other
tenants slowed stretches of seconds to minutes by up to 1.8x, often for a
whole run, so neither a run's median nor its fastest pass is steady across
runs. Instead a fixed piece of pure-Python work, the reference, is timed
between the operations and every TICK_S inside them. verdict_s is the pass
time scaled to a host that runs the reference in REF_S: each group of
operations is scaled by the reference times around it, raised to the run's
elasticity (see `elasticity`), and the median over the passes is taken. The
median and fastest raw pass times are in the result file as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # at least, and until SETUP_SECONDS of set-up
SETUP_SECONDS = 1.0
REF_LOOPS = 20000
REF_S = 0.0045  # the reference's median time on a 2-vCPU Xeon VM, Python 3.11.7
GROUP_S = 0.05  # least program time between two timings of the reference
TICK_S = 0.2  # period of the reference's timings inside long operations
PRIOR_WEIGHT = 0.5  # the elasticity fit's weight on 1, in squared log reference time
END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MAX_FAILURES_SHOWN = 10


def fresh_import():
    """Import cfmonoid from src/ of this checkout, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "cfmonoid" or k.startswith("cfmonoid.")]:
        del sys.modules[name]
    m = importlib.import_module("cfmonoid")
    importlib.import_module("cfmonoid.cli")
    if SRC not in Path(m.__file__).resolve().parents:
        raise ImportError(f"cfmonoid was imported from {m.__file__}, not from {SRC}")
    return m


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def reference():
    """Fixed pure-Python work whose time tracks the host's speed at that moment."""
    s, d = 0, {}
    for i in range(REF_LOOPS):
        s += i * i % 7
        d[i & 1023] = s
    return s


def time_reference():
    """The reference's time, with the tick timer's signal held off while it runs."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Ticks:
    """Times the reference every TICK_S seconds, on a timer signal, while in the block.

    Python runs the handler between the program's bytecodes, so an operation
    longer than TICK_S gets speed samples from inside itself; their time is
    taken out of the operation's time. Each tick is (start, duration).
    """

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        start = perf_counter()
        reference()
        self.ticks.append((start, perf_counter() - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def between(self, since, start, end):
        """The ticks from index `since` on that started in [start, end)."""
        return [d for t, d in self.ticks[since:] if start <= t < end]


def run_pass(ops, calls, groups=None):
    """One pass: (times of the calls into the program, observations, reference times).

    With groups, a list of (first, end) index ranges of ops, the reference is
    timed before each group and after the last one, and on ticks inside the
    operations; the reference times of a group are the ones just before and
    after it and its ticks.
    """
    gc.collect()
    times, observations, refs = [], [], []
    firsts = {a for a, _ in groups or ()}
    ctx = {}
    with Ticks() if groups else contextlib.nullcontext() as ticks:
        for i, (op, call) in enumerate(zip(ops, calls)):
            if i in firsts:
                edge = time_reference()
                if refs:
                    refs[-1].append(edge)
                refs.append([edge])
            since = len(ticks.ticks) if ticks else 0
            crash = None
            start = perf_counter()
            try:
                raw = call(ctx)
            except Exception as e:  # a crash is a wrong answer, and the pass goes on
                crash = ("raised", repr(e))
            end = perf_counter()
            inside = ticks.between(since, start, end) if ticks else []
            times.append(end - start - sum(inside))
            if refs:
                refs[-1] += inside
            if crash:
                observations.append(crash)
                continue
            try:
                observations.append(op.observe(raw))
            except Exception as e:
                observations.append(("unreadable", repr(e)))
        if groups:
            refs[-1].append(time_reference())
    return times, observations, refs


def make_groups(ops, times):
    """Split the ops into runs of one kind that took at least GROUP_S, by the times of a pass."""
    groups, first, total = [], 0, 0.0
    for i, t in enumerate(times):
        total += t
        if total >= GROUP_S or i + 1 == len(ops) or ops[i + 1].kind != ops[i].kind:
            groups.append((first, i + 1))
            first, total = i + 1, 0.0
    return groups


def check(ops, observations):
    return [
        f"{op.kind} {op.label}: got {str(got)[:200]}"
        for op, got in zip(ops, observations)
        if not op.correct(got)
    ]


def best(passes, ops, kind="*"):
    """Sum over the operations of a kind of each one's fastest time."""
    return sum(min(ts) for op, ts in zip(ops, zip(*passes)) if kind in ("*", op.kind))


def measure(ops, calls_per_pass, seconds, failures, after_pass=None, groups=None):
    """Run rounds of passes until the next round would end after `seconds`.

    A round runs one pass per list in calls_per_pass (untraced, traced), and
    each pass is checked as it ends. Returns the call times of each kind of
    pass and the reference times of the untraced passes.
    """
    timings = [[] for _ in calls_per_pass]
    ref_timings = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for kind, calls in enumerate(calls_per_pass):
            times, observations, refs = run_pass(ops, calls, groups if kind == 0 else None)
            if after_pass:
                after_pass(kind)
            timings[kind].append(times)
            if kind == 0:
                ref_timings.append(refs)
            failures += check(ops, observations)
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            return timings, ref_timings


def elasticity(passes, refs, groups):
    """How far the program's time follows the reference's, fitted over the run's passes.

    The least-squares slope of log group time on log reference time, each
    taken about its group's mean over the passes, shrunk towards 1 by
    PRIOR_WEIGHT. When the host is contended, interpreter-bound work slows
    about as much as the reference or more, while memory-bound work, such as
    splicing long words, slows less. A run with few passes, or one in which the
    host's speed hardly changed, has little to fit, and then the time is taken
    to follow the reference.
    """
    sxx = sxy = 0.0
    for g, (a, b) in enumerate(groups):
        lt = [math.log(sum(times[a:b])) for times in passes]
        lr = [math.log(statistics.fmean(r[g])) for r in refs]
        mt, mr = statistics.fmean(lt), statistics.fmean(lr)
        sxx += sum((x - mr) ** 2 for x in lr)
        sxy += sum((x - mr) * (y - mt) for x, y in zip(lr, lt))
    return (sxy + PRIOR_WEIGHT) / (sxx + PRIOR_WEIGHT)


def scaled(passes, refs, groups, ops, beta, kind="*"):
    """Seconds at reference speed for the groups of a kind, summed.

    Each group's time in a pass is multiplied by (REF_S / r) ** beta, where r
    is the mean of its reference times (see run_pass) and beta the run's
    elasticity; the median of that over the passes is the group's time on a
    host running the reference in REF_S.
    """
    total = 0.0
    for g, (a, b) in enumerate(groups):
        if kind in ("*", ops[a].kind):
            total += statistics.median(
                sum(times[a:b]) * (REF_S / statistics.fmean(r[g])) ** beta for times, r in zip(passes, refs))
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cfmonoid" / "__init__.py").is_file():
        print(f"perfbench: no cfmonoid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_refs = [], [time_reference()]
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            gc.collect()
            start = perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            m = fresh_import()
            wl = workloads.make(args.workload, m, work, args.seed)
            setup_times.append(perf_counter() - start)
            setup_refs.append(time_reference())
        ops = wl.ops
        plain = [op.call for op in ops]
        # a warm-up pass, checked like the others, sets the groups the reference brackets
        warm, observations, _ = run_pass(ops, plain)
        # the peak of set-up and one pass; later passes add only heap fragmentation
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check(ops, observations)
        groups = make_groups(ops, warm)
        seconds = args.seconds - sum(warm)

        if args.trace:
            tracer = tracing.Tracer()
            traced_calls = [tracer.wrap(f"op.{op.kind}", op.call, op_id=i) for i, op in enumerate(ops)]
            layer_passes, census, span_passes = [], {}, []  # spans of the first traced pass

            def after_pass(kind):
                if kind == 0:
                    tracer.install()
                    return
                tracer.remove()
                values, cen, spans = tracer.take_pass()
                layer_passes.append(values)
                census.update(cen)
                if not span_passes:
                    span_passes.append(spans)

            # untraced and traced passes alternate, so both see the same warm-up
            (passes, traced), refs = measure(ops, [plain, traced_calls], seconds, failures, after_pass, groups)
            beta = elasticity(passes, refs, groups)
            # median_low reports a value one pass measured, so counts stay whole
            layer = {k: statistics.median_low(v[k] for v in layer_passes) for k in tracing.PER_LAYER}
            layer["trace.overhead_s"] = best(traced, ops) - best(passes, ops)
            metrics = {k: (layer[k], unit) for k, unit in tracing.PER_LAYER.items()}
        else:
            (passes,), refs = measure(ops, [plain], seconds, failures, groups=groups)
            beta = elasticity(passes, refs, groups)
            traced, census, span_passes = [], {}, []
            e2e = {
                "verdict_s": scaled(passes, refs, groups, ops, beta),
                "setup_s": REF_S * statistics.median(
                    t / ((a + b) / 2) for t, a, b in zip(setup_times, setup_refs, setup_refs[1:])),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

        result = {
            "correct": not failures,
            "attempted": len(ops) * (1 + len(passes) + len(traced)),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        own = {}
        for name, (kind, units) in wl.extra.items():
            secs = scaled(passes, refs, groups, ops, beta, kind)
            own[name] = units / secs if units else secs
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine(),
            "setup_s": setup_times,
            "setup_reference_s": setup_refs,
            "pass_s": [sum(t) for t in passes],
            "median_pass_s": statistics.median(sum(t) for t in passes),
            "fastest_ops_s": best(passes, ops),
            "reference_s": refs,
            "elasticity": beta,
            "groups": len(groups),
            "traced_pass_s": [sum(t) for t in traced],
            "workload_metrics": own,
            "ops": result["attempted"],
            "ops_failed": result["failed"],
            "failures": failures[:MAX_FAILURES_SHOWN],
            "critical_pairs_by_n": census,
            **result,
        }
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
        if span_passes:
            tracing.write_spans(stem.with_suffix(".spans.tsv.gz"), span_passes)
        for line in failures[:MAX_FAILURES_SHOWN]:
            print(f"perfbench: wrong answer: {line}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
