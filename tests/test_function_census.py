"""The function census hook (``tests/function_census.py``) on a probe: a
fresh interpreter runs one function in itself (after installing and
removing a profiler of its own), one only in a one-process pool's worker,
one only in a child interpreter started with its own ``PYTHONPATH``, and
one never.  The census records all but the last."""

from __future__ import annotations

import sys

from tests.function_census import functions, recorded, run_recorded, write_hook

PROBE = """\
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor


def in_parent():
    return 1


def in_worker():
    return 2


def in_child():
    return 3


def never():
    return 4


if __name__ == "__main__":
    if sys.argv[1:] == ["child"]:
        sys.exit(in_child() - 3)
    sys.setprofile(lambda frame, event, arg: None)
    sys.setprofile(None)
    in_parent()
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(in_worker).result() == 2
    env = {**os.environ, "PYTHONPATH": os.getcwd()}
    subprocess.run([sys.executable, "probe.py", "child"], env=env, check=True)
"""


def test_census_follows_every_process_and_skips_what_never_runs(tmp_path):
    probe, hook, out = (tmp_path / name for name in ("probe", "hook", "out"))
    for directory in (probe, hook, out):
        directory.mkdir()
    (probe / "probe.py").write_text(PROBE)
    argv = [sys.executable, "probe.py"]
    assert run_recorded(argv, probe, out, write_hook(hook), cwd=probe) == 0
    universe = functions(probe)
    assert sorted(universe.values()) == [
        "probe.py::in_child", "probe.py::in_parent", "probe.py::in_worker",
        "probe.py::never",
    ]
    ran = {universe[key] for key in recorded(out) if key in universe}
    assert ran == {"probe.py::in_parent", "probe.py::in_worker", "probe.py::in_child"}
