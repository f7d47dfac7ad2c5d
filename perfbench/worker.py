"""One iteration of one workload, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec gives the checkout's ``src`` directory, the workload kind and its
parameters, the seed, and whether to trace.  A spec without a kind only
measures set-up.  The worker prints one JSON line: set-up and wall seconds,
peak resident set, attempted and failed operation counts, the first failure
messages and, when traced, the per-layer metrics.  Every iteration runs in its
own process because the package caches count tables and cylinder arithmetic
per process; a second iteration in the same process would run warm.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibrate

MAX_MESSAGES = 10
FAILURE_LINE = re.compile(r"^(\S+) n=(\d+):")


class Outcome:
    """Attempted and failed operation counts plus the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def run_verify(bw, corpus, params, seed, out: Outcome) -> dict:
    """The CLI verify command; one operation is a (member, n) report row."""
    lo, hi = params["n_range"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = bw.cli.main(["verify", "--n-range", f"{lo}..{hi}", "--shards", str(params["shards"])])
    report = stdout.getvalue()
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    out.attempted += len(corpus) * (hi - lo + 1)
    try:
        rows = json.loads(report)
    except json.JSONDecodeError:
        rows = []
    bad = {(row["case_id"], row["n"]) for row in rows if not row["match"]}
    for line in stderr.getvalue().splitlines():
        hit = FAILURE_LINE.match(line)
        if hit:
            bad.add((hit.group(1), int(hit.group(2))))
    for case, n in sorted(bad):
        out.fail(f"verify {case} n={n}: row failed")
    problems = []
    if code != 0:
        problems.append(f"verify exited with code {code}: {stderr.getvalue().strip()[:200]}")
    if digest != params["sha256"]:
        problems.append(f"verify report sha256 {digest} differs from the pinned {params['sha256']}")
    if len(rows) != out.attempted:
        problems.append(f"verify report has {len(rows)} rows, expected {out.attempted}")
    for problem in problems:
        # A wrong report with no row to blame puts every row in doubt.
        out.fail(problem, 0 if bad else out.attempted - out.failed)
    return {"report_sha256": digest, "report_bytes": len(report.encode("utf-8"))}


def run_theorems(bw, corpus, params, seed, out: Outcome) -> dict:
    """verify_theorems on every member; one operation is a (member, check)
    pair, attributed by watching which check appends to the failure list."""
    verify = bw.verify
    checks = [name for name, value in vars(verify).items()
              if name.startswith("check_") and callable(value)]
    saved = {name: getattr(verify, name) for name in checks}
    current = {}

    def watch(name, fn):
        def watched(*args, **kwargs):
            failures = kwargs["failures"] if "failures" in kwargs else args[-1]
            before = len(failures)
            result = fn(*args, **kwargs)
            out.attempted += 1
            if len(failures) > before:
                out.fail(f"theorems {current['case']} {name}: {failures[before]}")
            return result
        return watched

    for name in checks:
        setattr(verify, name, watch(name, saved[name]))
    try:
        for e in corpus:
            current["case"] = e.text()
            failures = verify.verify_theorems(e, params["max_n"])
            if failures and out.failed == 0:
                out.fail(f"theorems {e.text()}: {failures[0]}")
    finally:
        for name, fn in saved.items():
            setattr(verify, name, fn)
    return {}


def run_deep_n(bw, corpus, params, seed, out: Outcome) -> dict:
    """Closed forms and counting at every n in 1..L, then K seeded words at
    n = L: unrank/rank round trip and the three fullness criteria.

    count(e, n) is checked against 1 + sum_t eps*_t count(e, n - t), the rank
    of the maximal word eps*(1, beta)|_n; the extremal run lengths against
    the extremes of the closed-form sets; the last-run class against the sets.
    """
    runs, words, structure = bw.runs, bw.words, bw.structure
    length, samples = params["L"], params["K"]
    rng = random.Random(seed)
    for e in corpus:
        case = e.text()
        star = bw.expansion.modified_expansion(e).digits_prefix(length)
        nonzero = [(t, d) for t, d in enumerate(star, start=1) if d]
        counts = [1]
        for n in range(1, length + 1):
            out.attempted += 1
            sets = runs.run_sets_formula(e, n)
            got = [runs.max_full_run_length(e, n), runs.min_full_run_length(e, n)]
            want = [max(sets.full), min(sets.full)]
            if sets.nonfull:
                got += [runs.max_nonfull_run_length(e, n), runs.min_nonfull_run_length(e, n)]
                want += [max(sets.nonfull), min(sets.nonfull)]
            last = runs.classify_last_run(e, n)
            if last.kind == runs.FULL:
                last_ok = last.length in sets.full
            else:
                last_ok = bool(sets.nonfull)
            total = words.count(e, n)
            counts.append(total)
            expected = 1 + sum(d * counts[n - t] for t, d in nonzero if t <= n)
            if got != want or not last_ok or total != expected:
                out.fail(f"deep-n {case} n={n}: extremes {got} vs {want}, last run ok {last_ok}, "
                         f"count {total} vs {expected}")
        top = counts[length]
        for _ in range(samples):
            out.attempted += 1
            index = rng.randrange(top)
            w = words.word_at(e, length, index)
            rank = words.rank_of(w, e)
            full = structure.is_full(w, e)
            by_tail = structure.is_full_by_tail(w, e)
            by_length = structure.is_full_by_length(w, e)
            if rank != index or by_tail != full or by_length is not full:
                out.fail(f"deep-n {case} n={length} index {index}: rank {rank}, "
                         f"full {full}, by tail {by_tail}, by length {by_length!r}")
    return {}


RUNNERS = {"verify": run_verify, "theorems": run_theorems, "deep-n": run_deep_n}


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children
    (pool workers), in MiB; Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_sweep_counters(bw, corpus, params, counters, out: Outcome) -> None:
    """The traced sweep must visit every admissible word and decide each one."""
    lo, hi = params["n_range"]
    expected = sum(bw.words.count(e, n) for e in corpus for n in range(lo, hi + 1))
    visited = counters.get("verify.words", 0)
    undecided = counters.get("verify.undecided", 0)
    if visited != expected or undecided:
        out.fail(f"verify sweep visited {visited} words (count says {expected}), "
                 f"{undecided} undecided")


def shard_balance(bw, corpus, params) -> dict:
    """Time each shard of each (member, n, stage) in-process on the prefix
    ranges i*P//k that verify uses, P the number of length-(n-1) prefixes."""
    shards = params["shards"]
    lo, hi = params["n_range"]
    tol = bw.structure.DEFAULT_TOL
    sums = {"words_max": 0, "words_mean": 0.0, "s_max": 0.0, "s_mean": 0.0}
    for e in corpus:
        for n in range(lo, hi + 1):
            prefixes = bw.words.count(e, n - 1) if n >= 2 else 1
            bounds = [(i * prefixes // shards, (i + 1) * prefixes // shards) for i in range(shards)]
            stages = (
                lambda a, b: bw.runs.scan_run_lengths(e, n, a, b)[5],
                lambda a, b: bw.verify.sweep_shard(e, n, tol, a, b)["words"],
            )
            for stage in stages:
                sizes, seconds = [], []
                for a, b in bounds:
                    start = perf_counter()
                    sizes.append(stage(a, b))
                    seconds.append(perf_counter() - start)
                sums["words_max"] += max(sizes)
                sums["words_mean"] += sum(sizes) / shards
                sums["s_max"] += max(seconds)
                sums["s_mean"] += sum(seconds) / shards
    return sums


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    probe_before = calibrate.probe()
    start = perf_counter()
    import beta_words as bw
    corpus = bw.default_corpus()
    setup_s = perf_counter() - start
    probe_after = calibrate.probe()
    origin = Path(bw.__file__).resolve()
    if src not in origin.parents:
        print(f"beta_words imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    setup_probe_s = (probe_before + probe_after) / 2
    result = {"setup_s": calibrate.to_reference(setup_s, setup_probe_s), "setup_raw_s": setup_s,
              "setup_speed": calibrate.NOMINAL_CHUNK_S / setup_probe_s}
    kind = spec.get("kind")
    if kind is not None:
        import beta_words.cli  # noqa: F401  (bw.cli for the verify workload)
        from tracer import Tracer

        tracer = Tracer() if spec["trace"] else None
        # The sampler's chunks would count inside the tracer's spans, so a
        # traced iteration is scaled by probes before and after it instead.
        sharded = kind == "verify" and spec["params"]["shards"] > 1
        sampler = None if tracer else calibrate.Sampler(every_cpu=sharded)
        out = Outcome()
        if tracer:
            tracer.install()
        start = perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                extra = RUNNERS[kind](bw, corpus, spec["params"], spec["seed"], out)
                wall_s = perf_counter() - start
        finally:
            unrestored = tracer.restore() if tracer else []
        if sampler:
            speed, wall_ref_s = sampler.speed(), sampler.reference(wall_s)
            wall_s -= sampler.spent
        else:
            probe_s = (probe_after + calibrate.probe()) / 2
            speed, wall_ref_s = calibrate.NOMINAL_CHUNK_S / probe_s, calibrate.to_reference(wall_s, probe_s)
        if unrestored:
            out.fail(f"tracer left {len(unrestored)} attributes wrapped: {unrestored[:5]}")
        if tracer and kind == "verify":
            check_sweep_counters(bw, corpus, spec["params"], tracer.counters, out)
        result.update(wall_s=wall_ref_s, wall_raw_s=wall_s, wall_speed=speed,
                      peak_rss_mb=peak_rss_mb(), attempted=out.attempted,
                      failed=out.failed, messages=out.messages, **extra)
        if tracer:
            result["stats"] = tracer.stats
            result["counters"] = tracer.counters
            result["restored"] = not unrestored
            result["untraced"] = tracer.missing
            if sharded:
                with calibrate.Sampler() as sampler:
                    start = perf_counter()
                    shards = shard_balance(bw, corpus, spec["params"])
                    elapsed = perf_counter() - start
                # The shard seconds, like the plain iteration's wall_s, in
                # reference seconds; the chunks are spread evenly over them.
                shards["s_max_ref"] = shards["s_max"] * sampler.reference(elapsed) / elapsed
                result["shards"] = shards
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
