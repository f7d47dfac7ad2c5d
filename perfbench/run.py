"""Benchmark of the beta-words library and CLI, standard library only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-1p [--seed 1] [--seconds 25] [--trace 0]
    python3 perfbench/run.py --workload all        # every workload, one after another

Each workload iteration runs in a fresh worker process (perfbench/worker.py)
that imports the package from the checkout's ``src``.  With ``--trace 0`` the
script repeats iterations for ``--seconds`` and reports the median end-to-end
metrics, with times in reference seconds (see calibrate.py); with
``--trace 1`` it runs one plain and one traced iteration and reports the
per-layer metrics.  Every output is checked; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, and the exit code is 1 when any operation
failed.  A results file with the machine facts goes to perfbench/results/.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "verify-1p": {"kind": "verify", "n_range": [1, 12], "shards": 1},
    "verify-2p": {"kind": "verify", "n_range": [1, 12], "shards": 2},
    "theorems": {"kind": "theorems", "max_n": 8},
    "deep-n": {"kind": "deep-n", "L": 512, "K": 200},
}
# The same workloads at toy sizes, for the self-test.
TOY_WORKLOADS = {
    "verify-1p": {"kind": "verify", "n_range": [1, 5], "shards": 1},
    "verify-2p": {"kind": "verify", "n_range": [1, 5], "shards": 2},
    "theorems": {"kind": "theorems", "max_n": 4},
    "deep-n": {"kind": "deep-n", "L": 32, "K": 8},
}
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure: missing sources, a crashed or
    timed-out worker.  No result is printed."""


def workload_params(name: str, toy: bool = False) -> dict:
    params = dict((TOY_WORKLOADS if toy else WORKLOADS)[name])
    if params["kind"] == "verify":
        lo, hi = params["n_range"]
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        params["sha256"] = pins["verify_report_sha256"][f"{lo}..{hi}"]
    return params


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process and return its JSON line; kill its process
    group if it outlives the deadline."""
    spec = {"src": str(SRC), **spec}
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker for {spec.get('kind')} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stat(stats: dict, name: str, column: int) -> float:
    """Column 0 calls, 1 inclusive seconds, 2 self seconds of a span name."""
    return stats.get(name, (0, 0.0, 0.0))[column]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(traced: dict, plain: dict) -> dict:
    """Per-layer metrics from one traced iteration and one plain iteration."""
    stats, counters = traced["stats"], traced["counters"]
    shards = traced.get("shards")

    def secs(name):
        return _stat(stats, name, 1), "s"

    def self_secs(name):
        return _stat(stats, name, 2), "s"

    def calls(name):
        return _stat(stats, name, 0), "count"

    def per_s(name):
        return _rate(_stat(stats, name, 0), _stat(stats, name, 1)), "1/s"

    def words_per_s(name):
        return _rate(counters.get(f"{name}.words", 0), _stat(stats, name, 1)), "1/s"

    def ratio(key):
        if not shards or not shards[f"{key}_mean"]:
            return 0.0, "ratio"
        return shards[f"{key}_max"] / shards[f"{key}_mean"], "ratio"

    metrics = {
        "expansion.solve_beta.s": secs("expansion.solve_beta"),
        "words.count.s": secs("words.count"),
        "words.word_at.per_s": per_s("words.word_at"),
        "words.rank_of.per_s": per_s("words.rank_of"),
        "words.iter_words.words_per_s": words_per_s("words.iter_words"),
        "words.scan_states.calls": calls("words.scan_states"),
        "words.scan_states.s": secs("words.scan_states"),
        "structure.decompose.calls": calls("structure.decompose"),
        "structure.decompose.s": secs("structure.decompose"),
        "structure.is_full.per_s": per_s("structure.is_full"),
        "structure.is_full_by_tail.per_s": per_s("structure.is_full_by_tail"),
        "structure.is_full_by_length.per_s": per_s("structure.is_full_by_length"),
        "structure.cylinder_calc.s": secs("structure.cylinder_calc"),
        "runs.scan_run_lengths.s": secs("runs.scan_run_lengths"),
        "runs.scan_run_lengths.words_per_s": words_per_s("runs.scan_run_lengths"),
        "runs.stitch_run_scans.s": secs("runs.stitch_run_scans"),
        "runs.formulas.s": secs("runs.formulas"),
        "runs.tau_table.s": secs("runs.tau_table"),
        "runs.tail_run_prediction.s": secs("runs.tail_run_prediction"),
        "verify.sweep_shard.s": secs("verify.sweep_shard"),
        "verify.sweep_shard.words_per_s": words_per_s("verify.sweep_shard"),
        "verify.run_sets_check.self_s": self_secs("verify.run_sets_check"),
        "verify.sweep_fullness.self_s": self_secs("verify.sweep_fullness"),
        **{f"verify.check.{name}.s": secs(f"verify.check.{name}") for name in CHECKS},
        "verify.words": (counters.get("verify.words", 0), "count"),
        "verify.undecided": (counters.get("verify.undecided", 0), "count"),
        "verify.shard_words_max_over_mean": ratio("words"),
        "verify.shard_s_max_over_mean": ratio("s"),
        "verify.pool_wait_s": (plain["wall_s"] - shards["s_max_ref"] if shards else 0.0, "s"),
        "cli.render_report.s": secs("cli.render_report"),
        "cli.report_bytes": (counters.get("cli.report_bytes", 0), "bytes"),
        "trace_overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(name: str, params: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result record."""
    deadline = perf_counter() + RUN_LIMIT_S
    spec = {"kind": params["kind"], "params": params, "seed": seed, "trace": False}
    if trace:
        plain = spawn(spec, deadline)
        traced = spawn({**spec, "trace": True}, deadline)
        samples = [plain, traced]
        metrics = layer_metrics(traced, plain)
        for target in traced["untraced"]:
            print(f"warning: {target} no longer exists; its layer metrics read 0", file=sys.stderr)
        if "report_sha256" in plain and traced["report_sha256"] != plain["report_sha256"]:
            traced["failed"] += 1
            traced["messages"].append("tracing changed the verify report")
    else:
        samples = []
        start = perf_counter()
        last_s = 0.0
        # Start another iteration only if one as long as the last still fits.
        while not samples or perf_counter() - start + last_s <= seconds:
            began = perf_counter()
            samples.append(spawn(spec, deadline))
            last_s = perf_counter() - began
        setups = [s["setup_s"] for s in samples]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn({"seed": seed}, deadline)["setup_s"])
        walls = [s["wall_s"] for s in samples]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in samples), "unit": "MB"},
        }
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return {
        "workload": name,
        "params": params,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "messages": [m for s in samples for m in s["messages"]][:20],
        "metrics": metrics,
        "samples": samples,
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
        "deep_n_seed": seed,
        "workloads": WORKLOADS,
    }


def write_results(records: list[dict], seed: int) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    names = "+".join(r["workload"] for r in records)
    path = HERE / "results" / f"{stamp}-{names}-seed{seed}-trace{records[0]['trace']}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"facts": machine_facts(seed), "runs": records}, indent=2) + "\n",
                    encoding="utf-8")
    return path


def report(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:10s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
    if not record["trace"]:
        samples = record["samples"]
        walls = sorted(s["wall_s"] for s in samples)
        raw = statistics.median(s["wall_raw_s"] for s in samples)
        speed = statistics.median(s["wall_speed"] for s in samples)
        print(f"{name:10s} {'wall_s samples':36s} n={len(walls)} min={walls[0]:.4f} max={walls[-1]:.4f} s")
        print(f"{name:10s} {'wall_raw_s (unscaled)':36s} {raw:.6g} s at {speed:.3g} x the nominal speed")
    print(f"{name:10s} {'fail_frac':36s} {record['fail_frac']:.6g} "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for message in record["messages"]:
        print(f"{name}: FAILED {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the deep-n word sample (default 1)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beta_words" / "__init__.py").is_file():
        print(f"no beta_words package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [measure(n, workload_params(n), args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        report(record)
    print(f"results: {write_results(records, args.seed).relative_to(ROOT)}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in records for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
