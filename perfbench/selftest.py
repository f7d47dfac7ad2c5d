"""Fast self-test of the benchmark harness at toy sizes.

Usage, from the root of a checkout (about 10 s on two cores):

    python3 perfbench/selftest.py

It checks that
1. every workload emits every end-to-end metric of BENCHMARK.json with its
   unit when untraced, and every per-layer metric with its unit when traced,
   and passes its correctness gate;
2. the tracer wraps the names that verify, runs and structure import, and
   puts back every module attribute it wrapped;
3. the correctness gate fails every row when given a wrong pinned report hash;
4. the CPU-speed sampler times chunks during a busy span and puts back the
   SIGALRM handler, the timer and the CPU set.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

import calibrate
import run
from tracer import Tracer


def check_metrics(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.TOY_WORKLOADS:
        params = run.workload_params(name, toy=True)
        for trace, want in wanted.items():
            record = run.measure(name, params, seed=1, seconds=0, trace=trace)
            got = {metric: entry["unit"] for metric, entry in record["metrics"].items()}
            if got != want:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                problems.append(f"{name} trace={int(trace)}: missing {missing}, unexpected {extra}")
            if not record["correct"]:
                problems.append(f"{name} trace={int(trace)}: gate failed: {record['messages']}")
            if trace and not record["samples"][1]["restored"]:
                problems.append(f"{name}: traced worker did not restore its wrapped attributes")


def check_restore(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    import beta_words

    tracer = Tracer()
    before = {(m.__name__, key): value for m in tracer.modules for key, value in vars(m).items()}
    tracer.install()
    if tracer.missing:
        problems.append(f"tracer targets missing from the package: {tracer.missing}")
    wrapped = {(m.__name__, key) for m, key, _ in tracer.replaced}
    for key in [("beta_words.verify", "count"), ("beta_words.runs", "is_full"),
                ("beta_words.structure", "solve_beta"), ("beta_words.words", "count")]:
        if key not in wrapped:
            problems.append(f"tracer did not wrap {'.'.join(key)}")
    e = beta_words.default_corpus()[0]
    if beta_words.verify.verify_theorems(e, 3):
        problems.append("traced verify_theorems reported failures")
    if "words.scan_states" not in tracer.stats:
        problems.append("tracer recorded no scan_states calls")
    wrong = tracer.restore()
    after = {(m.__name__, key): value for m in tracer.modules for key, value in vars(m).items()}
    changed = sorted(key for key in before if after.get(key) is not before[key])
    if wrong or changed or after.keys() != before.keys():
        problems.append(f"restore left attributes changed: {wrong or changed}")


def check_gate(problems: list[str]) -> None:
    params = run.workload_params("verify-1p", toy=True)
    params["sha256"] = "0" * 64
    record = run.measure("verify-1p", params, seed=1, seconds=0, trace=False)
    if record["correct"] or record["failed"] != record["attempted"]:
        problems.append(f"a wrong pinned hash gave correct={record['correct']}, "
                        f"failed {record['failed']} of {record['attempted']}")


def check_sampler(problems: list[str]) -> None:
    handler = signal.getsignal(signal.SIGALRM)
    cpus = os.sched_getaffinity(0)
    for every_cpu in (False, True):
        with calibrate.Sampler(every_cpu) as sampler:
            start = perf_counter()
            while perf_counter() - start < 0.5:
                sum(range(1000))
            wall_s = perf_counter() - start
        if len(sampler.chunks) < 3:
            problems.append(f"sampler timed {len(sampler.chunks)} chunks in 0.5 s")
        elif not 0 < sampler.reference(wall_s) < 10 * wall_s:
            problems.append(f"sampler turned {wall_s:.3f} s into {sampler.reference(wall_s):.3f} reference s")
        if signal.getsignal(signal.SIGALRM) is not handler or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            problems.append("sampler left its SIGALRM handler or timer in place")
        if os.sched_getaffinity(0) != cpus:
            problems.append(f"sampler left the CPU set at {os.sched_getaffinity(0)}, not {cpus}")


def main() -> int:
    problems: list[str] = []
    check_metrics(problems)
    check_restore(problems)
    check_gate(problems)
    check_sampler(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
