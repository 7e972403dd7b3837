"""Chaos-run CLI: replay a fault plan against a simulated cluster.

::

    python -m repro.faults                         # built-in demo plan, littlefe
    python -m repro.faults --cluster limulus --seed 7
    python -m repro.faults --plan plans/crash.json --trace out.jsonl

Crash recovery (the full loop)::

    # run with periodic checkpoints and a head-node crash at t=1800s
    python -m repro.faults --seed 3 --checkpoint-every 50 \\
        --checkpoint-path chaos.ckpt --crash-at 1800      # exits 3 (crashed)

    # resume from the last checkpoint; the crash fires disarmed this time
    python -m repro.faults --seed 3 --checkpoint-path chaos.ckpt --resume \\
        --trace resumed.jsonl

    # the reference run: same plan, crash disarmed, no interruption
    python -m repro.faults --seed 3 --crash-at 1800 --no-crash \\
        --trace baseline.jsonl
    # resumed.jsonl and baseline.jsonl are byte-identical

Exit codes: 0 all invariants hold; 1 audit failure; 2 setup errors (bad
plan, bad flags, unreadable checkpoint); 3 the head node crashed (a
checkpoint was saved — resume with ``--resume``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..errors import HeadnodeCrashError, ReproError
from ..recovery import CheckpointManager, Snapshot
from .chaos import CLUSTERS, ChaosWorld, demo_plan
from .plan import FaultKind, FaultPlan, FaultSpec


def _load_plan(args) -> FaultPlan | None:
    """The plan the flags describe (None = let the world build the demo)."""
    plan = FaultPlan.load(args.plan) if args.plan is not None else None
    if args.crash_at is None:
        return plan
    if plan is None:
        # The crash spec must live inside the plan (armed or not) so both
        # runs schedule the identical event sequence; materialize the demo.
        plan = demo_plan(CLUSTERS[args.cluster]())
    return FaultPlan(
        name=f"{plan.name}+crash",
        faults=plan.faults
        + (FaultSpec(FaultKind.HEADNODE_CRASH, "frontend", at_s=args.crash_at),),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Replay a fault plan against a simulated cluster "
        "and audit invariants.",
    )
    parser.add_argument(
        "--plan", type=pathlib.Path, default=None,
        help="JSON fault plan (default: built-in two-node-crash demo)",
    )
    parser.add_argument(
        "--cluster", choices=sorted(CLUSTERS), default="littlefe",
        help="which reference machine to build (default: littlefe)",
    )
    parser.add_argument("--seed", type=int, default=0, help="kernel RNG seed")
    parser.add_argument(
        "--jobs", type=int, default=12, help="workload size (default: 12)"
    )
    parser.add_argument(
        "--trace", type=pathlib.Path, default=None,
        help="write the JSONL trace here",
    )
    parser.add_argument(
        "--no-supervise", action="store_true",
        help="run without the self-healing supervisor",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="snapshot the world every N driver steps",
    )
    parser.add_argument(
        "--checkpoint-path", type=pathlib.Path, default=None,
        help="where the latest snapshot is saved / resumed from",
    )
    parser.add_argument(
        "--crash-at", type=float, default=None, metavar="T",
        help="inject a headnode.crash fault at simulated time T seconds",
    )
    parser.add_argument(
        "--no-crash", action="store_true",
        help="keep the --crash-at spec in the plan but fire it disarmed "
        "(the byte-diff baseline for a resumed run)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore from --checkpoint-path and run to completion",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the report"
    )
    args = parser.parse_args(argv)

    crash_armed = args.crash_at is not None and not args.no_crash
    if args.resume and args.checkpoint_path is None:
        print("--resume needs --checkpoint-path", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("--checkpoint-every must be >= 1", file=sys.stderr)
        return 2

    try:
        if args.resume:
            # import repro.faults.chaos above registered the "chaos" factory
            snapshot = Snapshot.load(args.checkpoint_path)
            world = CheckpointManager.restore(snapshot, crash_armed=False)
            if not args.quiet:
                print(
                    f"resumed {snapshot.world!r} from {args.checkpoint_path} "
                    f"at step {snapshot.steps} (t={snapshot.now_s:.0f}s)"
                )
            world.run()
        else:
            plan = _load_plan(args)
            world = ChaosWorld({
                "plan": None if plan is None else plan.to_dict(),
                "seed": args.seed,
                "cluster": args.cluster,
                "job_count": args.jobs,
                "supervise": not args.no_supervise,
                "crash_armed": crash_armed,
            })
            manager = (
                CheckpointManager(world, every=args.checkpoint_every)
                if args.checkpoint_every is not None
                else None
            )
            try:
                while world.step():
                    if manager is None:
                        continue
                    snapshot = manager.maybe_capture()
                    if snapshot is not None and args.checkpoint_path is not None:
                        snapshot.save(args.checkpoint_path)
            except HeadnodeCrashError as exc:
                open_txns = len(world.journal.open_txns())
                print(f"CRASH: {exc}", file=sys.stderr)
                print(
                    f"journal: {open_txns} transaction(s) left open "
                    f"(recoverable)", file=sys.stderr,
                )
                if manager is not None and manager.latest is not None:
                    if args.checkpoint_path is not None:
                        print(
                            f"checkpoint: step {manager.latest.steps} saved to "
                            f"{args.checkpoint_path}; resume with --resume",
                            file=sys.stderr,
                        )
                else:
                    print("checkpoint: none taken", file=sys.stderr)
                return 3
        run = world.result()
    except (ReproError, OSError, ValueError) as exc:
        # OSError: unreadable --plan/--checkpoint path; ValueError: bad JSON.
        print(f"chaos run failed: {exc}", file=sys.stderr)
        return 2

    if args.trace is not None:
        args.trace.write_text(run.jsonl)

    if not args.quiet:
        print(
            f"chaos: cluster={args.cluster} seed={args.seed} "
            f"events={run.kernel.events_processed} "
            f"t_end={run.kernel.now_s:.0f}s"
        )
        print(run.report.render())

    return 0 if run.report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
