#!/usr/bin/env python3
"""Function census: which ``src/repro`` functions the benchmark contract runs.

A ``usercustomize`` module in the user site directory that
``PYTHONUSERBASE`` names installs a ``sys.setprofile`` hook in every
interpreter the commands start — pool workers, the SIGKILLed hard-crash
victim and the fresh interpreters tests start with their own
``PYTHONPATH`` included — that appends each function of the recorded tree
to a per-process file the first time it runs.  A killed process loses
nothing: every line is written as it is found.

Two sets of commands run under the hook:

* the *contract*: every ``benchmarks/record.py`` pass at ``--smoke`` and
  ``--check all``, ``perf/bench.py --smoke``, the hard ``crash`` on mmap and
  on sqlite for TPC-C and YCSB churn, CI's ``cli-smoke`` commands and seed 1
  of its restart audit;
* the *tests*: tier-1 and every ``examples/`` script.

Every function defined under ``src/repro`` then falls in one of three
lists: run by the contract, run only by the tests, or run by nothing.  The
lists, their counts and the wall time are printed as JSON.

Run:  python tests/function_census.py > census.json   (about 20 minutes)
"""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The profile hook, installed as ``usercustomize`` in every interpreter
#: whose ``PYTHONUSERBASE`` is its directory.  It records a function
#: as ``<file>\t<first line>`` when its file lies under
#: ``FUNCTION_CENSUS_ROOT``, into ``FUNCTION_CENSUS_DIR/<pid>.txt``.  A
#: forked child inherits the hook and what its parent has seen, and writes
#: its own file.  A profiler a program installs itself (the frame-budget
#: tests do) runs after the hook, and removing it restores the hook.
HOOK = '''\
import os
import sys
import threading

ROOT, OUT = os.environ["FUNCTION_CENSUS_ROOT"], os.environ["FUNCTION_CENSUS_DIR"]
seen = {}  # id(code) -> code, kept alive so no id is reused
sink = {}  # pid -> that process's line-buffered file


def hook(frame, event, arg):
    if event == "call" and id(frame.f_code) not in seen:
        code = seen[id(frame.f_code)] = frame.f_code
        if code.co_filename.startswith(ROOT):
            pid = os.getpid()
            if pid not in sink:
                sink[pid] = open(os.path.join(OUT, f"{pid}.txt"), "a", buffering=1)
            sink[pid].write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


def setprofile(function, _set=sys.setprofile):
    def both(frame, event, arg):
        hook(frame, event, arg)
        return function(frame, event, arg)

    _set(hook if function is None else both)


setprofile(None)
sys.setprofile = setprofile
threading.setprofile(hook)
'''


def functions(root: Path) -> dict[tuple[str, int], str]:
    """Every function defined under ``root``: ``(file, first line)`` ->
    ``relative/path.py::Qual.name``.  The first line is the first
    decorator's, as in the function's code object."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(str(path), first)] = f"{path.relative_to(root)}::{name}"
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def run_recorded(
    argv: list[str], root: Path, out_dir: Path, hook_dir: Path,
    cwd: Path = ROOT, env: dict[str, str] | None = None,
) -> int:
    """Run ``argv`` with the hook on, recording functions under ``root``
    into ``out_dir``; returns the exit status."""
    path = [str(SRC), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "PYTHONUSERBASE": str(hook_dir),
        "FUNCTION_CENSUS_ROOT": str(root) + os.sep, "FUNCTION_CENSUS_DIR": str(out_dir),
    }
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True).returncode


def recorded(out_dir: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every function a run under ``out_dir`` entered."""
    seen = set()
    for path in out_dir.glob("*.txt"):
        for line in path.read_text().splitlines():
            file, _, first = line.rpartition("\t")
            if first.isdigit():  # a killed process may leave a torn last line
                seen.add((file, int(first)))
    return seen


def write_hook(directory: Path) -> Path:
    """Make ``directory`` a user base whose site directory holds the hook
    (it stands in for the caller's own user site while a command runs)."""
    site_dir = Path(sysconfig.get_path("purelib", f"{os.name}_user", {"userbase": str(directory)}))
    site_dir.mkdir(parents=True, exist_ok=True)
    (site_dir / "usercustomize.py").write_text(HOOK)
    return directory


# -- the two command sets ----------------------------------------------------------

TINY = "-m repro --scale tiny"
FAST = "measure_transactions=200 --fast"
WARM = f"run policy=face+gsc scenario=steady,crash,service checkpoint_interval=0.05 {FAST}"
#: Seed 1 of CI's restart audit: each audited policy on the memory store,
#: and face+gsc on each persistent store.
RESTART_AUDIT = """
from tests.test_recovery import audited_restart
cells = [(1, policy, "memory") for policy in ("face", "face+gr", "face+gsc", "tac")]
for seed, policy, store in cells + [(1, "face+gsc", s) for s in ("mmap", "sqlite")]:
    audit, consistency, _ = audited_restart(seed, policy, store)
    assert audit.ok and consistency.ok, (seed, policy, store)
"""

#: The contract as ``python`` arguments, ``{tmp}`` standing for the run's
#: temporary directory.
CONTRACT = [
    *(f"benchmarks/record.py {name} --smoke --strict --output {{tmp}}/{name}.json"
      for name in ("sweep", "latency", "scan", "recovery", "storage", "paper")),
    "benchmarks/record.py --check all",
    "-m repro trace ls",
    "-m repro trace prune --max-mb 64",
    "perf/bench.py --smoke",
    *(f"{TINY} --page-store {store} --workload {workload} crash --json "
      f"--state-dir {{tmp}}/crash-{store}-{workload[:4]}"
      for store in ("mmap", "sqlite")
      for workload in ("tpcc", "ycsb --workload-preset write-churn")),
    f"{TINY} --page-store mmap crash --policy ssd-only --json --state-dir {{tmp}}/ssd-only",
    # CI's cli-smoke job, command for command.
    f"{TINY} run face_cache_clean=true,false face_write_through=false,true {FAST} "
    "--check-parity 1",
    f"{TINY} run policy=face+gsc,lc scenario=service n_clients=1,8 {FAST}",
    f"{TINY} stats policy=face+gsc scenario=service n_clients=8 measure_transactions=200",
    f"{TINY} run policy=face+gsc buffer_policy=lru,clock {FAST} --check-parity 2",
    f"{TINY} run policy=face+gr,face+gsc scan_depth=16,32 {FAST} --check-parity 1",
    f"{TINY} run policy=hdd-only,ssd-only,face+gsc {FAST} --check-parity 3",
    "-m repro --help",
    f"{TINY} --workload tpch-scan run policy=face+gsc,lc {FAST}",
    f"{TINY} --workload ycsb --workload-preset write-churn run policy=face+gsc,lc {FAST}",
    f"{TINY} --workload ycsb --workload-knob zipf_s=0.7 stats policy=face+gsc "
    "measure_transactions=200",
    f"{TINY} run scenario=crash checkpoint_interval=0.4,0.8 --fast --check-parity 1",
    f"{TINY} run policy=face+gsc,hdd-only scenario=crash checkpoint_interval=0.5 --fast",
    f"{TINY} --page-store sqlite run policy=face+gsc measure_transactions=200",
    f"{TINY} run policy=face+gsc scenario=crash checkpoint_interval=2",
    # A grid whose crash and service cells adopt the steady cell's warm fork.
    f"{TINY} {WARM}",
    f"-c {shlex.quote(RESTART_AUDIT)}",
]
#: Grids the CLI refuses (exit 2), also in the contract.
REFUSED = [f"{TINY} run n_clients=1,8", f"{TINY} run cache_fraction=0.08,0.16"]
SUITE = ["-m pytest -q -p no:cacheprovider tests/"] + [
    str(path) for path in sorted((ROOT / "examples").glob("*.py"))
]


def run_set(lines, out_dir: Path, hook_dir: Path, tmp: Path, status: int = 0) -> list[str]:
    """Run each command line under the hook; returns those that did not exit
    with ``status``."""
    out_dir.mkdir(exist_ok=True)
    failed = []
    for line in lines:
        words = shlex.split(line.format(tmp=tmp))
        env = {"REPRO_TRACE_CACHE": str(tmp / "trace-cache"), "TMPDIR": str(tmp)}
        got = run_recorded([sys.executable, *words], PACKAGE, out_dir, hook_dir, env=env)
        if got != status:
            failed.append(f"{line[:80]}: exit {got}, expected {status}")
    return failed


def main() -> int:
    start = time.monotonic()
    universe = functions(PACKAGE)
    with tempfile.TemporaryDirectory(prefix="function-census-") as name:
        tmp = Path(name)
        hook = write_hook(tmp)
        failed = run_set(CONTRACT, tmp / "contract", hook, tmp)
        failed += run_set(REFUSED, tmp / "contract", hook, tmp, status=2)
        contract_wall = time.monotonic() - start
        failed += run_set(SUITE, tmp / "tests", hook, tmp)
        contract = recorded(tmp / "contract") & universe.keys()
        tests = recorded(tmp / "tests") & universe.keys() - contract
    never_run = universe.keys() - contract - tests
    names = lambda keys: sorted(universe[key] for key in keys)  # noqa: E731
    json.dump({
        "functions": len(universe),
        "counts": {"contract": len(contract), "tests_only": len(tests),
                   "never_run": len(never_run)},
        "wall_seconds": {"contract": round(contract_wall),
                         "total": round(time.monotonic() - start)},
        "failed_commands": failed,
        "tests_only": names(tests),
        "never_run": names(never_run),
        "contract": names(contract),
    }, sys.stdout, indent=1)
    print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
