"""In-memory span tracer that wraps module attributes from outside the program.

A target names a function by its defining module and attribute.  Installing
the tracer replaces that function object wherever it appears in the traced
modules' namespaces, so a call through ``verify.count`` is traced as well as
one through ``words.count``.  Each span is closed into per-name totals as it
ends: calls, inclusive seconds (outermost span of a name only, so a name
nested in itself is not counted twice), self seconds (span minus the spans
that opened inside it) and named counters taken from return values.  A target
the package no longer defines is skipped and listed in ``missing``.  Keeping
totals instead of a list of spans holds memory constant when a workload makes
millions of per-word calls.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# Modules whose namespaces are searched for the target functions.
MODULES = ("expansion", "words", "structure", "runs", "verify", "cli")

FORMULAS = (
    "run_sets_formula",
    "full_run_lengths_formula",
    "nonfull_run_lengths_formula",
    "max_full_run_length",
    "min_full_run_length",
    "max_nonfull_run_length",
    "min_nonfull_run_length",
    "classify_last_run",
)

CHECKS = (
    "truncations",
    "tau_properties",
    "concat_closure",
    "suffix_closure",
    "decrement_closure",
    "last_digit_bound",
    "decompose",
    "tail_walks",
)


def _sweep_counters(result) -> dict:
    return {"verify.words": result.words, "verify.undecided": result.undecided}


# (defining module, attribute, span name, counters from the return value or
# "per-item" for a generator whose yielded items are counted)
TARGETS = (
    ("expansion", "solve_beta", "expansion.solve_beta", None),
    ("words", "count", "words.count", None),
    ("words", "word_at", "words.word_at", None),
    ("words", "rank_of", "words.rank_of", None),
    ("words", "iter_words", "words.iter_words", "per-item"),
    ("words", "scan_states", "words.scan_states", None),
    ("structure", "decompose", "structure.decompose", None),
    ("structure", "is_full", "structure.is_full", None),
    ("structure", "is_full_by_tail", "structure.is_full_by_tail", None),
    ("structure", "is_full_by_length", "structure.is_full_by_length", None),
    ("structure", "cylinder_calc", "structure.cylinder_calc", None),
    ("runs", "scan_run_lengths", "runs.scan_run_lengths",
     lambda r: {"runs.scan_run_lengths.words": r[5]}),
    ("runs", "stitch_run_scans", "runs.stitch_run_scans", None),
    *(("runs", name, "runs.formulas", None) for name in FORMULAS),
    ("runs", "tau_table", "runs.tau_table", None),
    ("runs", "tail_run_prediction", "runs.tail_run_prediction", None),
    ("verify", "sweep_shard", "verify.sweep_shard",
     lambda r: {"verify.sweep_shard.words": r["words"]}),
    ("verify", "run_sets_check", "verify.run_sets_check", None),
    ("verify", "sweep_fullness", "verify.sweep_fullness", _sweep_counters),
    *(("verify", f"check_{name}", f"verify.check.{name}", None) for name in CHECKS),
    ("verify", "verify_member", "verify.verify_member", None),
    ("verify", "verify_report", "verify.verify_report", None),
    ("cli", "render_report", "cli.render_report",
     lambda r: {"cli.report_bytes": len(r.encode("utf-8"))}),
)


class Tracer:
    """Wraps the TARGETS of beta_words; install() then restore() once."""

    def __init__(self):
        self.modules = [importlib.import_module(f"beta_words.{m}") for m in MODULES]
        self.by_name = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._depth: dict[str, int] = {}
        self.replaced: list[tuple[object, str, object]] = []  # (module, attr, original)
        self.missing: list[str] = []

    def _enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        span = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += span - child
        self._depth[name] -= 1
        if not self._depth[name]:
            stat[1] += span
        if self._stack:
            self._stack[-1][2] += span

    def _count(self, values: dict) -> None:
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name: str, counters):
        tracer = self
        if counters == "per-item":
            items_key = f"{name}.words"

            def traced_items(iterator):
                while True:
                    tracer._enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counters[items_key] = tracer.counters.get(items_key, 0) + 1
                    yield item

            def wrapper(*args, **kwargs):
                return traced_items(iter(fn(*args, **kwargs)))
        else:
            def wrapper(*args, **kwargs):
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if counters is not None:
                    tracer._count(counters(result))
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self.replaced:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counters in TARGETS:
            original = getattr(self.by_name[module_name], attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counters)
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.replaced.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not
        come back as the original object (empty on success)."""
        for module, key, original in reversed(self.replaced):
            setattr(module, key, original)
        wrong = [f"{module.__name__}.{key}" for module, key, original in self.replaced
                 if getattr(module, key) is not original]
        self.replaced = []
        return wrong
