"""A process loads only what its entry point runs.

``import repro`` loads no subpackage; each one loads the first time it is
asked for.  So no bench workload and no ``python -m repro.*`` front end
pays for numpy (the linpack kernels' only dependency) or for the frozen
``pfs``/``htc``/``grid``/``mpi`` experiments.  Each entry point is imported
in a fresh interpreter, where nothing an earlier test loaded can hide a
stray import.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

ENTRY_POINTS = [
    "bench.workloads",
    "repro.sim",
    "repro.sim.__main__",
    "repro.faults",
    "repro.faults.__main__",
    "repro.shell",
    "repro.analyze",
    "repro.analyze.__main__",
    "repro.core",
    "repro.cas",
    "repro.repod",
]

#: what none of the entry points above runs
UNUSED = ("numpy", "repro.linpack", "repro.pfs", "repro.htc", "repro.grid", "repro.mpi")


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(module: str) -> list[str]:
    return json.loads(_fresh(
        "import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_loads_nothing_it_does_not_run(entry):
    stray = [
        name for name in _loaded_after(entry)
        if name in UNUSED or name.startswith(tuple(f"{u}." for u in UNUSED))
    ]
    assert stray == [], f"importing {entry} loaded {stray}"


def test_the_trace_checker_loads_only_sim():
    packages = {name.split(".")[1] for name in _loaded_after("repro.sim.__main__")
                if name.startswith("repro.")}
    assert packages == {"errors", "sim"}


def test_the_package_root_loads_no_subpackage():
    assert [n for n in _loaded_after("repro") if n.startswith("repro.")] == ["repro.errors"]


def test_a_lazily_loaded_kernel_still_solves():
    out = _fresh(
        "import sys\n"
        "import repro\n"
        "assert 'numpy' not in sys.modules\n"
        "run = repro.linpack.run_hpl_small(n=96, block=32, seed=3)\n"
        "print(run.passed, run.residual < 16.0, 'numpy' in sys.modules)\n"
    )
    assert out.split() == ["True", "True", "True"]
