"""CLI: run the DCR service under synthetic many-client load.

::

    python -m repro.tools.serve --shards 3 --clients 2 --submissions 6
    python -m repro.tools.serve --shards 3 --backend tcp \\
        --clients 4 --submissions 8 --chaos --policy restart \\
        --report-dir out/recovery --json out/service.json

Starts a persistent :class:`~repro.service.DCRService`, drives it with
the open-loop load generator (``--clients`` concurrent sessions each
submitting ``--submissions`` programs drawn from ``--shapes`` program
shapes), and prints a service summary.  ``--chaos`` injects a shard crash
into one mid-stream submission, so the run also exercises the configured
``--policy`` (gang rebuild + re-execution).

Exit status: 0 iff every completed submission was conformant, nothing
failed, at least ``--require-hits`` submissions were served from analysis
templates, and (under ``--chaos``) at least one recovery happened — the
CI ``service`` job gates on it directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from ..faults.plan import FaultPlan, PlannedCrash
from ..resilience import RecoveryPolicy, ResilienceConfig
from ..service import DCRService, run_load
from ..service.gang import GANG_BACKENDS
from ..service.loadgen import make_shape_pool

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve",
        description="Serve a stream of client sessions on one persistent "
                    "shard gang and print the service summary.")
    parser.add_argument("--shards", type=int, default=3,
                        help="gang width (default 3)")
    parser.add_argument("--backend", choices=GANG_BACKENDS,
                        default="loopback",
                        help="gang backend (default loopback)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent client sessions (default 2)")
    parser.add_argument("--submissions", type=int, default=6,
                        help="programs per client (default 6)")
    parser.add_argument("--shapes", type=int, default=2,
                        help="distinct program shapes in the pool "
                             "(default 2; smaller = more template hits)")
    parser.add_argument("--tiles", type=int, default=8,
                        help="tiles per program (default 8)")
    parser.add_argument("--steps", type=int, default=2,
                        help="stencil steps per program (default 2)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="per-client open-loop arrival rate in Hz "
                             "(default 0 = as fast as possible)")
    parser.add_argument("--batch", type=int, default=16,
                        help="determinism check window (default 16)")
    parser.add_argument("--seed", type=int, default=0,
                        help="load generator seed (default 0)")
    parser.add_argument("--policy", choices=[p.value for p in RecoveryPolicy],
                        default="restart",
                        help="gang recovery policy (default restart)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject a shard crash into one mid-stream "
                             "submission (exercises the recovery policy)")
    parser.add_argument("--require-hits", type=int, default=0, metavar="N",
                        help="fail unless >= N submissions were served "
                             "from analysis templates")
    parser.add_argument("--job-deadline", type=float, default=None,
                        metavar="S",
                        help="attach a start deadline (seconds) to every "
                             "load submission (deadline-aware admission)")
    parser.add_argument("--health-json", metavar="PATH", default=None,
                        help="write the post-load health endpoint "
                             "snapshot as JSON")
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="transport receive deadline in seconds "
                             "(default 10; also bounds crash detection)")
    parser.add_argument("--profile-dir", metavar="DIR", default=None,
                        help="save per-shard and service profiles")
    parser.add_argument("--report-dir", metavar="DIR", default=None,
                        help="write recovery reports as JSON here")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the service summary as JSON")
    args = parser.parse_args(argv)

    if args.shards < 1 or args.clients < 1 or args.submissions < 1:
        print("error: --shards/--clients/--submissions must be >= 1",
              file=sys.stderr)
        return 1

    resilience = ResilienceConfig(policy=RecoveryPolicy(args.policy),
                                  max_recoveries=4,
                                  report_dir=args.report_dir)
    service = DCRService(args.shards, backend=args.backend,
                         batch=args.batch, resilience=resilience,
                         deadline_s=args.deadline,
                         job_timeout_s=max(60.0, args.deadline * 6),
                         profile_dir=args.profile_dir)
    chaos_failures = 0
    with service:
        if args.chaos:
            # One poisoned submission through its own session first: the
            # gang death + rebuild happens mid-stream relative to the load
            # that follows.  Under ABORT the submission fails by design;
            # the service must keep serving either way.
            shape = make_shape_pool(1, args.tiles, args.steps,
                                    seed=args.seed)[0]
            chaos = service.open_session("chaos")
            fault = FaultPlan(crashes=[PlannedCrash(
                shard=args.shards - 1, call=5)])
            try:
                chaos.submit(shape, fault=fault).result(
                    timeout=service.job_timeout_s * 4)
            except Exception:
                chaos_failures += 1
            chaos.close()
        load = run_load(service, clients=args.clients,
                        submissions_per_client=args.submissions,
                        shapes=args.shapes, tiles=args.tiles,
                        steps=args.steps, rate_hz=args.rate,
                        seed=args.seed, deadline_s=args.job_deadline)
        stats = service.stats()
        health = service.health()

    retried = stats["recoveries"] > 0
    summary = {
        "backend": args.backend,
        "shards_initial": args.shards,
        "shards_final": stats["shards"],
        "clients": load.clients,
        "submitted": load.submitted,
        "completed": load.completed,
        "failed": load.failed,
        "rejected": load.rejected,
        "expired": load.expired,
        "backpressure_waits": load.backpressure_waits,
        "deadline_rejects": load.deadline_rejects,
        "template_hits": load.template_hits,
        "programs_per_s": round(load.programs_per_s, 2),
        "wall_s": round(load.wall_s, 3),
        "recoveries": stats["recoveries"],
        "health": health["status"],
        "chaos": bool(args.chaos),
        "chaos_submission_failed": chaos_failures,
        "policy": args.policy,
        "templates": stats["templates"],
    }
    for key, value in summary.items():
        print(f"{key + ':':22} {value}")

    ok = load.failed == 0 and load.completed == load.submitted
    if args.require_hits and load.template_hits < args.require_hits:
        print(f"FAIL: {load.template_hits} template hits < required "
              f"{args.require_hits}", file=sys.stderr)
        ok = False
    if args.chaos and not retried:
        print("FAIL: --chaos ran but no gang recovery happened",
              file=sys.stderr)
        ok = False
    if args.chaos and args.policy in ("degrade", "restart") \
            and chaos_failures:
        print("FAIL: poisoned submission was not recovered under "
              f"policy {args.policy}", file=sys.stderr)
        ok = False

    if args.health_json:
        os.makedirs(os.path.dirname(args.health_json) or ".",
                    exist_ok=True)
        with open(args.health_json, "w", encoding="utf-8") as fh:
            json.dump(health, fh, indent=2)
        print(f"health snapshot written to {args.health_json}")
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"service summary written to {args.json}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
