"""The determinism gate: every flow, run under pinned and distinct hash
seeds, must produce the same bytes.

"Same seed => byte-identical trace" is the reproduction's contract
(docs/SIM.md).  Iteration order over a set of strings follows the
process's hash seed, so a flow that lets such an order reach the trace or
the event queue diverges here; so does a wall-clock read or unseeded
randomness that reaches a result.  The hash seed is fixed when the
interpreter starts, so each seed runs in its own process.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: What each process prints: the smoke ``sim_digest`` of every bench
#: workload, then the trace digests of two runs CI byte-compares that
#: reach code the bench flows do not: the chaos run (gmond-polled racks)
#: and the rolling update under faults (shell retries).  Last it writes
#: the paper artefacts (``python -m repro.paper``) into the directory
#: named by its argument and prints the report's exit status.
FLOWS = """
import contextlib, hashlib, io, runpy, sys
from bench.runner import run_workload
from bench.workloads import WORKLOADS
from repro import paper
from repro.faults.chaos import run_chaos

def digest(jsonl):
    return hashlib.sha256(jsonl.encode()).hexdigest()

for name in WORKLOADS:
    print(name, run_workload(name, seed=2015, seconds=0, smoke=True)["sim_digest"])
print("chaos", digest(run_chaos(seed=11, cluster="limulus").jsonl))
rolling = runpy.run_path("examples/rolling_xnit_update.py")["run_update"](seed=7)
print("rolling", digest(rolling["kernel"].trace.to_jsonl()))
with contextlib.redirect_stdout(io.StringIO()):
    status = paper.main(sys.argv[1:])
print("paper", status)
"""

HASH_SEEDS = ("0", "1", "7")


def test_every_flow_is_byte_identical_under_three_hash_seeds(tmp_path):
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", FLOWS, str(tmp_path / seed)],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": "src:."},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    outputs = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0] * len(HASH_SEEDS)
    assert len(outputs[0].splitlines()) == 7
    assert outputs[0].endswith("paper 0\n")
    for seed, output in zip(HASH_SEEDS[1:], outputs[1:]):
        assert output == outputs[0], f"PYTHONHASHSEED={seed} changed a digest"
    committed = {path.name: path.read_bytes() for path in RESULTS.iterdir()}
    for seed in HASH_SEEDS:
        tree = {path.name: path.read_bytes() for path in (tmp_path / seed).iterdir()}
        assert tree == committed, f"PYTHONHASHSEED={seed} changed a paper artefact"
