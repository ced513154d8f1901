"""Shows that the benchmark's correctness gate trips.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it sets up the inputs, runs one pass and checks it twice:
as it is, where every answer must be right, and with one expected answer
perturbed, where exactly that one operation must count as failed. It also
checks that BENCHMARK.json names the workloads and metrics that run.py
reports. Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEED = 1


def main():
    if not (run.SRC / "cfmonoid" / "__init__.py").is_file():
        print(f"selftest: no cfmonoid package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {e["name"]: e["unit"] for e in bench["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {e["name"]: e["unit"] for e in bench["per_layer"]} != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    for name in workloads.WORKLOADS:
        work = run.WORK / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl = workloads.make(name, run.fresh_import(), work, SEED)
            _, observations, _ = run.run_pass(wl.ops, [op.call for op in wl.ops])
            as_is = run.check(wl.ops, observations)
            victim = wl.ops[len(wl.ops) // 2]
            victim._expected = ("perturbed", victim.expected())
            perturbed = run.check(wl.ops, observations)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(wl.ops)} ops; {len(as_is)} failed as is, {len(perturbed)} failed "
              f"with the answer to '{victim.kind} {victim.label}' perturbed")
        if as_is or len(perturbed) != 1:
            problems.append(f"{name}: the gate did not trip exactly once")
    if run.WORK.exists() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
