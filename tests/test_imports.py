"""Source hygiene: every name a module imports is used in that module,
importing the package or verifying in one process loads no process pool,
importing the package loads neither the dataclass machinery nor typing nor
the verification harness, and the harness's names load it on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beta_words.verify import POOL_MIN_WORK

SRC = Path(__file__).resolve().parent.parent / "src" / "beta_words"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that no Name
    node of the module refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, json\nfrom typing import Iterator as It\njson.dumps\n"
    assert unused_imports(source) == ["os", "It"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Imports the package, then runs `python -m beta_words verify --n-range 1..5
# --shards 2` in the same process with two cores, so that only the report's
# size keeps it from a pool, and prints the pool modules loaded after each.
LOADED_POOL_MODULES = """
import contextlib, io, os, runpy, sys
def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
import beta_words
print(pool_modules())
os.cpu_count = lambda: 2
sys.argv = ["beta_words", "verify", "--n-range", "1..5", "--shards", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("beta_words", run_name="__main__")
    except SystemExit as done:
        status = done.code
print(status, pool_modules())
"""


def test_import_and_small_verify_load_no_pool_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", LOADED_POOL_MODULES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["[]", "0 []"]


# Imports the package without site (so no .pth file preloads a module),
# loads the bundled corpus, and prints the heavy modules then loaded: the
# harness and the CLI (with json) load only when a name of theirs is used.
LOADED_HEAVY_MODULES = """
import sys
import beta_words
beta_words.default_corpus()
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("dataclasses", "inspect", "typing", "concurrent", "multiprocessing", "json")
             or m in ("beta_words.verify", "beta_words.cli")))
"""


def test_import_without_site_loads_no_dataclass_typing_or_pool_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", LOADED_HEAVY_MODULES], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


# Asks the package for a name it lacks and lists its names, neither of which
# may load the harness, then uses the harness's names every way a caller can.
LAZY_HARNESS = """
import sys
import beta_words
print(hasattr(beta_words, "nope"), set(beta_words.__all__) <= set(dir(beta_words)),
      "beta_words.verify" in sys.modules)
from beta_words import verify_theorems
print(verify_theorems is beta_words.verify.verify_theorems, beta_words.verify.POOL_MIN_WORK)
names = {}
exec("from beta_words import *", names)
print(sorted(set(beta_words.__all__) - set(names)))
"""


def test_harness_names_load_it_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", LAZY_HARNESS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["False True False", f"True {POOL_MIN_WORK}", "[]"]
