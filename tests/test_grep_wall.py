"""What a change retired must not come back: one table, one test.

Each row of :data:`WALL` names what must not return, the check that finds
it, the change that retired it (by its title in CHANGES.md) and why.  A check is the ``grep`` (or path
test) CI used to run as a step of its own, with the same flags and pattern,
run here from the repo root.  Every row carries a witness, a line the check
must catch: the second test plants it under a matching path in an empty
tree and requires the row to fire.  This file holds every pattern, so each
grep skips it by name, and skips the ``__pycache__`` a test run leaves.
"""

import pathlib
import shutil
import subprocess
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SELF = pathlib.Path(__file__).name


@dataclass(frozen=True)
class Row:
    """One retired mechanism.

    ``check`` is ``("grep", *flags_and_pattern)``: grep finds nothing in
    ``paths``; ``("count", n, *grep_args)``: ``grep -c`` counts ``n`` in the
    one path; ``("only", path, *grep_args)``: ``grep -rl`` lists just that
    file; ``("absent",)``: no path matches the globs; ``("lines", cap)``: the
    globbed files hold at most ``cap`` lines.  ``plant`` is where the witness
    goes.
    """

    what: str
    check: tuple
    paths: tuple[str, ...]
    change: str
    reason: str
    witness: str
    plant: str


WALL = [
    Row("the SL104 set-order dataflow",
        ("grep", "-rnE", "--include=*.py", "SL104|UnorderedAnalysis|_order_sink_in"),
        ("src", "tests"), "One determinism gate",
        "the determinism gate reruns every flow under three hash seeds and sees a set's order wherever a flow carries it",
        "from .passes.source_determinism import UnorderedAnalysis", "src/repro/analyze/source.py"),
    Row("options no run ever varied",
        ("grep", "-rnwE", "--include=*.py",
         "serve_stale|on_threshold|max_failure_fraction|use_head_for_jobs|poll_period_s|dead_after_misses|hosts_per_rack|switch_ports|switch_latency_us|boot_power_watts|include_extras|stop_on_failure|include_network_kit|base_env"),
        ("src/repro",), "Every option answers to a flow",
        "a setting with one value in use is a module constant (EXPERIMENTS.md, 'every option answers to a flow')",
        "def monitor_fleet(cluster, *, poll_period_s=15.0):", "src/repro/monitoring/hierarchy.py"),
    Row("the in-package timing harness", ("absent",), ("src/repro/perf",), "One timing harness",
        "python3 -m bench is the only timing harness (docs/PERF.md)",
        "", "src/repro/perf/__init__.py"),
    Row("the hot-path bench record", ("absent",), ("BENCH_hotpaths.json",), "One timing harness",
        "bench/history.jsonl is the one trajectory record",
        "{}", "BENCH_hotpaths.json"),
    Row("the in-package harness and its process-wide patching",
        ("grep", "-rn", r"repro\.perf\|naive_mode"),
        ("src", "tests", "benchmarks", "examples", "docs", "README.md", "pyproject.toml"), "One timing harness",
        "python3 -m bench is the only timing harness",
        "from repro.perf import naive_mode", "examples/quickstart.py"),
    Row("pytest-benchmark scripts under benchmarks/", ("absent",), ("benchmarks/*.py",), "One reproduction record",
        "python -m repro.paper replaced them; benchmarks/ holds results/ only",
        "def test_bench(benchmark): pass", "benchmarks/bench_hpl.py"),
    Row("a host clock in the reproduction record",
        ("grep", "-n", r"perf_counter\|pytest.benchmark"),
        ("src/repro/paper.py", "tests/test_paper_claims.py"), "One reproduction record",
        "the report reads no host clock, so its artefacts are byte-identical",
        "started = time.perf_counter()", "src/repro/paper.py"),
    Row("pytest-benchmark in the project config",
        ("grep", "-n", r"pytest-benchmark\|bench_\*"), ("pyproject.toml",), "One reproduction record",
        "python -m repro.paper replaced the pytest-benchmark scripts",
        'dev = ["pytest-benchmark"]', "pyproject.toml"),
    Row("RepoMirror's chunked fork and the per-class link charges",
        ("grep", "-rn", r"chunk_store\|def _spend"), ("src/repro",), "One chunk tier",
        "ChunkTier owns the only pull-through path and MirrorLink.spend the only link charge",
        "    def _spend(self, nbytes):", "src/repro/yum/mirror.py"),
    Row("a second delivery document", ("absent",), ("docs/REPOD.md",), "Two delivery planes, no seam",
        "docs/DELIVERY.md is the one delivery document",
        "# repod", "docs/REPOD.md"),
    Row("the chunking policy on the cas read side",
        ("grep", "-n", "policy"), ("src/repro/cas/delivery.py",), "Manifests are looked up, never re-hashed",
        "the read side looks chunk lists up with manifest_of (docs/PERF.md §2)",
        "manifest = self.policy.manifest(pkg)", "src/repro/cas/delivery.py"),
    Row("a second use of the origin's chunking policy",
        ("count", 1, "policy.manifest("), ("src/repro/cas/stratum.py",), "Manifests are looked up, never re-hashed",
        "Stratum0's fallback is the policy's one use",
        "        manifest = self.policy.manifest(pkg)", "src/repro/cas/stratum.py"),
    Row("the seam between the two delivery planes",
        ("grep", "-rnE", "attach_chunk_cache|ingest_package|chunk_cache"), ("src/repro",), "Two delivery planes, no seam",
        "repro.repod and repro.cas share no logic and no seam (docs/DELIVERY.md)",
        "    proxy.attach_chunk_cache(site)", "src/repro/repod/proxy.py"),
    Row("a repod CLI", ("absent",), ("src/repro/repod/__main__.py",), "Two delivery planes, no seam",
        "examples/update_storm.py is the one storm driver",
        "main()", "src/repro/repod/__main__.py"),
    Row("delivery planes over their line budget",
        ("lines", 2500), ("src/repro/repod/*.py", "src/repro/cas/*.py", "src/repro/yum/mirror.py"), "Two delivery planes, no seam",
        "repod + cas + the yum mirror stay within 2,500 lines",
        "pass\n", "src/repro/cas/bulk.py"),
    Row("the O(n²) transaction scan",
        ("grep", "-nE", r"\.satisfies\(|for [a-z_]+ in (final|selected)\.values\(\)"),
        ("src/repro/rpm/transaction.py", "src/repro/yum/depsolver.py"), "Index the transaction",
        "capabilities are matched only through rpm.ProvidesIndex (docs/PERF.md §1)",
        "            if pkg.satisfies(req):", "src/repro/rpm/transaction.py"),
    Row("fast paths no workload sends traffic through",
        ("grep", "-rnE", "pop_batch|mark_fired|_materialised|_derived_caches|_NO_PROVIDER|_candidates_cache|_ensure_cache"),
        ("src/repro",), "Fast paths answer to the four workloads",
        "a fast path stays only while a bench workload uses it (docs/PERF.md)",
        "        batch = self._heap.pop_batch(now)", "src/repro/sim/kernel.py"),
    Row("a second backwards walk over a transaction",
        ("only", "src/repro/recovery/journal.py", "-rl", "--include=*.py", "reversed(txn"), ("src/repro",), "One rollback loop",
        "Journal.roll_back is the only rollback loop (docs/RECOVERY.md)",
        "        for op in reversed(txn.ops):", "src/repro/rocks/installer.py"),
    Row("the recovery handler and replay machinery",
        ("grep", "-rnE", "--include=*.py", r"RecoveryHandler|\.replayed\(|REPLAYED"), ("src/repro",), "One rollback loop",
        "Journal.roll_back undoes every open transaction; nothing replays",
        "class RecoveryHandler:", "src/repro/recovery/journal.py"),
    Row("cluster-shape ladders", ("grep", "-rn", "--include=*.py", "hasattr(cluster"), ("src/repro",), "One rollback loop",
        "one cluster type; recovery does not probe its shape",
        "    if hasattr(cluster, 'fleet'):", "src/repro/recovery/supervisor.py"),
    Row("the in-process determinism rerun", ("grep", "-rn", "--include=*.py", "check.determinism"), ("src/repro",), "One rollback loop",
        "the determinism gate reruns flows in separate processes",
        "    parser.add_argument('--check-determinism')", "src/repro/faults/__main__.py"),
    Row("a second sorted-keys serialiser",
        ("count", 1, "sort_keys=True"), ("src/repro/sim/trace.py",), "One line formatter per trace shape",
        "per-shape generated formatters write trace lines; json.dumps is their one fallback",
        "    return json.dumps(event, sort_keys=True)", "src/repro/sim/trace.py"),
    Row("a second retry-delay draw",
        ("only", "src/repro/faults/retry.py", "-rl", "--include=*.py", "delay_for("), ("src/repro",), "One retry ladder",
        "RetryPolicy.next_delay is the only retry decision (docs/FAULTS.md §2)",
        "        delay = self.policy.delay_for(attempt, rng)", "src/repro/repod/client.py"),
    Row("the circuit breaker and per-caller patience",
        ("grep", "-rnwE", "--include=*.py", "CircuitBreaker|breaker|run_one|patience_s|unslept_s"), ("src/repro",), "One retry ladder",
        "call_with_retry, ShellEngine and RepoClient all spend next_delay",
        "    breaker = CircuitBreaker(threshold=3)", "src/repro/shell/engine.py"),
    Row("per-query column gathers and table-wide epochs",
        ("grep", "-rnE", "--include=*.py", r"_mask\(|_last_epoch"),
        ("src/repro/scheduler", "src/repro/monitoring"), "The fleet table says what changed",
        "FleetTable.watch says which rows changed (docs/SCALE.md)",
        "        free = self._mask('free')", "src/repro/scheduler/base.py"),
    Row("a fleet-wide epoch read outside the fleet",
        ("grep", "-rnE", "--include=*.py", "--exclude-dir=fleet", r"\b_?(fleet|table)\.epoch\b"),
        ("src/repro",), "The fleet table says what changed",
        "readers re-derive only the rows their change feed names",
        "        if self.fleet.epoch != self._seen:", "src/repro/monitoring/hierarchy.py"),
    Row("the per-node package count", ("grep", "-rn", "--include=*.py", "per_node"), ("src/repro/cas",), "A node's holdings are a shared layer",
        "a node's holdings are an interned layer; each step is computed once per pair",
        "        self.per_node[node] += 1", "src/repro/cas/delivery.py"),
    Row("mutation counters in rpm/yum",
        ("grep", "-rnE", "--include=*.py", "_epoch|revision|_ensure_index"),
        ("src/repro/rpm", "src/repro/yum"), "No epochs in rpm/yum",
        "an index or digest is absent or current (docs/PERF.md §1)",
        "        self._epoch += 1", "src/repro/yum/repository.py"),
    Row("the SL201 rule that policed epochs",
        ("grep", "-rnE", "--include=*.py", "SL201|epoch_verdicts"), ("src", "tests"), "No epochs in rpm/yum",
        "there are no epochs left to police",
        'SL201 = rule("SL201", "source")', "src/repro/analyze/passes/source_memos.py"),
    Row("a second trace reader in simlint",
        ("grep", "-rnE", "check_trace|check-trace|SL30[23]"),
        ("src", "tests", "docs", "README.md", ".claude"), "One trace check",
        "python -m repro.sim alone defines a valid trace file (docs/SIM.md)",
        "  --check-trace FILE", "docs/ANALYZE.md"),
    Row("JSON decoding in a simlint pass",
        ("grep", "-rn", "json.loads"), ("src/repro/analyze/passes",), "One trace check",
        "no source pass reads a trace",
        "    events = [json.loads(line) for line in text]", "src/repro/analyze/passes/source_memos.py"),
    Row("TraceBus's strict mode", ("grep", "-nw", "strict"), ("src/repro/sim/trace.py",), "One trace check",
        "emit is exact on value types; there is no second mode",
        "    def __init__(self, *, strict=False):", "src/repro/sim/trace.py"),
    Row("the static same-instant race rule",
        ("grep", "-rnE", "SL301|source_traceorder|iter_functions"),
        ("src", "tests", "docs", "README.md", ".claude"), "analyze/ answers to the runtime and the gate",
        "tests/test_tie_order.py reruns every flow with ties reversed (EXPERIMENTS.md, 'analyze/ answers to the runtime and the gate')",
        'SL301 = rule("SL301", "source")', "src/repro/analyze/passes/source_races.py"),
    Row("a second rack leaf class",
        ("grep", "-rnwE", "--include=*.py", "FleetRack|GmondRack|_count_miss"),
        ("src", "tests", "examples"), "One rack model",
        "one Rack leaf reads fleet rows and gmond agents in one loop (docs/SCALE.md)",
        "class FleetRack:", "src/repro/monitoring/hierarchy.py"),
    Row("the tree telling leaves apart by type",
        ("grep", "-nw", "isinstance"), ("src/repro/monitoring/hierarchy.py",), "One rack model",
        "every leaf is a Rack; agent hosts are the ones attached to it",
        "            if isinstance(rack, Rack)", "src/repro/monitoring/hierarchy.py"),
    Row("monitoring over its line budget",
        ("lines", 835), ("src/repro/monitoring/*.py",), "One rack model",
        "the memory model and the heartbeat bookkeeping exist once",
        "pass\n", "src/repro/monitoring/extra.py"),
    Row("a flow list outside the flow table",
        ("grep", "-nE", "WORKLOADS|examples/|run_chaos|run_path"),
        ("tests/test_determinism_gate.py", "tests/test_tie_order.py",
         "tests/test_flow_vocabulary.py", "tools/flow_census.py"), "One flow table",
        "tools/flows.py is the one list of flows; the gate, the tie rerun, the vocabulary test and the census iterate it",
        "from bench.workloads import WORKLOADS", "tests/test_tie_order.py"),
    Row("a same-seed cmp pair or a kind grep in CI",
        ("grep", "-nE", "^ +(cmp |!? ?grep -q '\"kind)"), (".github/workflows/ci.yml",), "One flow table",
        "a flow's byte identity and its trace kinds are rows of tools/flows.py, checked in tier-1 under three hash seeds",
        "          cmp trace-a.jsonl trace-b.jsonl", ".github/workflows/ci.yml"),
    Row("per-path public writes on the install path",
        ("grep", "-rn", "--include=*.py", r"fs\.write("), ("src/repro/rpm",), "A path is normalised once",
        "a payload is normalised once per package and written through Filesystem._write_normal (docs/PERF.md)",
        "            host.fs.write(path, content, owner=pkg.name, mode=mode)", "src/repro/rpm/database.py"),
    Row("a subpackage imported eagerly by the package root",
        ("count", 1, "-E", r"^(from \.|from repro|import repro)"), ("src/repro/__init__.py",), "One import closure",
        "import repro loads only repro.errors; a subpackage loads when first asked for (docs/PERF.md, 'What a process loads')",
        "from . import linpack", "src/repro/__init__.py"),
    Row("a module-level numpy import outside the linpack kernels",
        ("only", "src/repro/linpack/dgemm.py", "-rlE", "--include=*.py", r"^(import|from) numpy"), ("src/repro",),
        "One import closure",
        "numpy is the linpack kernels' dependency alone; no workload or front end loads it",
        "import numpy as np", "src/repro/linpack/hpl.py"),
]


def _grep(root, args, paths):
    *flags, pattern = args  # skips after the flags: a later --include would win
    return subprocess.run(
        ["grep", *flags, f"--exclude={SELF}", "--exclude-dir=__pycache__", "-e", pattern, *paths],
        cwd=root, capture_output=True, text=True,
    )


def hits(row, root):
    """What the row's check finds under ``root`` (empty: it holds)."""
    kind, *args = row.check
    if kind == "grep":
        return _grep(root, args, row.paths).stdout
    if kind == "count":
        count = int(_grep(root, ["-c", *args[1:]], row.paths).stdout.strip() or 0)
        return "" if count == args[0] else f"{count} matches, expected {args[0]}"
    if kind == "only":
        listed = _grep(root, args[1:], row.paths).stdout.split()
        return "" if listed == [args[0]] else " ".join(listed)
    found = sorted(str(p) for pattern in row.paths for p in root.glob(pattern))
    if kind == "absent":
        return " ".join(found)
    lines = sum(pathlib.Path(p).read_bytes().count(b"\n") for p in found)
    return "" if lines <= args[0] else f"{lines} lines, cap {args[0]}"


@pytest.mark.parametrize("row", WALL, ids=lambda row: row.what)
def test_what_was_retired_stays_retired(row):
    if row.check[0] in ("grep", "count", "only"):  # a vanished path checks nothing
        assert all((ROOT / path).exists() for path in row.paths)
    assert hits(row, ROOT) == "", f"{row.what} is back ({row.reason})"


@pytest.mark.parametrize("row", WALL, ids=lambda row: row.what)
def test_each_row_fires_on_its_witness(row, tmp_path):
    planted = tmp_path / row.plant
    planted.parent.mkdir(parents=True, exist_ok=True)
    kind = row.check[0]
    if kind == "count":  # one more on top of the real file's
        shutil.copy(ROOT / row.plant, planted)
    text = row.witness * (row.check[1] + 1) if kind == "lines" else row.witness + "\n"
    with planted.open("a") as out:
        out.write(text)
    assert hits(row, tmp_path) != ""
